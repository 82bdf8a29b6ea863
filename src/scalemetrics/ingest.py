"""Commit-history ingestion.

Two input formats are supported:

* the pinned pipe-delimited log format (one header line per commit followed
  by numstat rows, terminated by a blank line)::

      C|<commit_id>|<author_email>|<author_name>|<unix_ts>|<parent_count>
      <added>\t<deleted>\t<path>
      ...
      <blank>

* JSON Lines, one object per commit:
  ``{id, email, name, ts, added, deleted, files:[{old,new}]?}``.
  This is the only format that can carry diff payloads for the
  edit-distance production measure, and it is also the canonical
  serialization emitted by :func:`write_jsonl`, whose payload-free lines
  are read in runs by one pattern, with the JSON decoder's results and errors.

Merge commits (parent_count >= 2) carry no numstat deltas and are excluded
by default; pass ``include_merges=True`` to keep them.

A :class:`ProjectHistory` holds its commits as :class:`HistoryColumns`, the
source of truth, which both parsers and the simulators in
:mod:`scalemetrics.simulate` fill directly; the :class:`CommitRecord` rows,
:attr:`ProjectHistory.commits`, are a view built on first use, and
``ProjectHistory(name, commits)`` takes rows through
:meth:`HistoryColumns.from_commits`. A record's rules are those
:class:`CommitRecord` checks: the parsers check them a column at a time and
make a record only to word the error of the first faulty line, as a
line-numbered :class:`ParseError`. :meth:`AuthorId.normalize` is the one
rule that turns a raw identity into a canonical key. A load sorts and
id-checks its history once, in :meth:`ProjectHistory.build`;
:func:`resolve_authors` keeps the order it is given.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ParseError

__all__ = [
    "AuthorId",
    "CommitRecord",
    "HistoryColumns",
    "ProjectHistory",
    "parse_commit_log",
    "parse_jsonl",
    "write_jsonl",
    "resolve_authors",
]

#: the largest added + deleted line count of a commit: the LOC measure reads
#: it as a float64, which holds every integer up to 2**53 exactly
MAX_LINES = 2**53

#: the JSONL lines read and checked at a time; it bounds the decoded
#: objects held at once
_CHUNK = 4096

#: a JSON string, its escapes as strict as json's: its own text if it has no "\\"
_STR = r'"([^"\\\x00-\x1f]*(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})[^"\\\x00-\x1f]*)*)"'
_INT = r"(0|[1-9][0-9]{0,17})"  # an unsigned JSON integer that fits in int64
#: a JSONL line as :func:`write_jsonl` writes a commit without a payload,
#: with a ``ts`` that has a fraction or an exponent, as ``repr(float)`` has;
#: any other line matches too, with every group None
_CANONICAL = (
    rf'(?m)^(?:\{{"id": {_STR}, "email": {_STR}, "name": {_STR}, '
    r'"ts": (-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)), '
    rf'"added": {_INT}, "deleted": {_INT}(?:, "parents": {_INT})?\}}|.*)$')


@dataclass(frozen=True, order=True)
class AuthorId:
    """Canonical author identity: lowercased, trimmed email (name fallback)."""

    canonical_key: str

    def __post_init__(self):
        if not self.canonical_key:
            raise ValueError("author identity must be non-empty")

    @staticmethod
    def normalize(email, name=""):
        """The canonical key of a raw identity: the trimmed, lowercased email,
        else the trimmed, lowercased name; "" when both are blank."""
        return (email or "").strip().lower() or (name or "").strip().lower()

    @classmethod
    def from_raw(cls, email, name):
        return cls(cls.normalize(email, name))


@dataclass(frozen=True)
class CommitRecord:
    commit_id: str
    author: AuthorId
    timestamp: float  # seconds since epoch, UTC
    lines_added: int
    lines_deleted: int
    raw_email: str = ""
    raw_name: str = ""
    parent_count: int = 1
    diff_payload: tuple[tuple[str, str], ...] | None = None

    def __post_init__(self):
        if not self.commit_id:
            raise ValueError("commit_id must be non-empty")
        if not math.isfinite(self.timestamp) or self.timestamp < 0:
            raise ValueError(f"bad timestamp {self.timestamp!r}")
        if self.lines_added < 0 or self.lines_deleted < 0:
            raise ValueError("line deltas must be non-negative")
        if self.lines_added + self.lines_deleted > MAX_LINES:
            raise ValueError("added + deleted lines exceed 2**53, past which a "
                             "float64 count is not exact")
        if self.parent_count < 0:
            raise ValueError(f"negative parent count {self.parent_count}")


class HistoryColumns(NamedTuple):
    """The per-commit columns of a history, in history order."""

    ts: np.ndarray  # float64 commit timestamps
    author: np.ndarray  # intp author codes, numbered in order of first appearance
    authors: tuple  # the AuthorId of each author code
    ids: np.ndarray  # object array of commit ids (str)
    added: np.ndarray  # int64 lines added
    deleted: np.ndarray  # int64 lines deleted
    parents: np.ndarray  # object array of parent counts (int, of any size)
    identity: np.ndarray  # intp raw-identity codes
    identities: tuple  # the (raw_email, raw_name) of each identity code
    payload: list | None  # each commit's (old, new) pairs or None; None if none has any

    @classmethod
    def from_commits(cls, commits):
        """The columns of the :class:`CommitRecord` rows ``commits``, the one
        way from rows to columns; an author code's AuthorId is its first row's."""
        authors, identities = {}, {}
        for c in commits:
            authors.setdefault(c.author.canonical_key, c.author)
            identities.setdefault((c.raw_email, c.raw_name), len(identities))
        codes = dict(zip(authors, range(len(authors))))
        payload = [c.diff_payload for c in commits]
        return cls(
            np.array([c.timestamp for c in commits], dtype=float),
            np.array([codes[c.author.canonical_key] for c in commits], dtype=np.intp),
            tuple(authors.values()),
            np.array([c.commit_id for c in commits], dtype=object),
            np.array([c.lines_added for c in commits], dtype=np.int64),
            np.array([c.lines_deleted for c in commits], dtype=np.int64),
            np.array([c.parent_count for c in commits], dtype=object),
            np.array([identities[c.raw_email, c.raw_name] for c in commits], dtype=np.intp),
            tuple(identities),
            None if payload.count(None) == len(payload) else payload)

    def take(self, index):
        """The columns of the commits at ``index`` (positions, or a boolean
        mask), in that order; the author and identity tables keep the
        entries in use, renumbered in order of first appearance."""
        author, authors = _renumber(self.author[index], self.authors)
        identity, identities = _renumber(self.identity[index], self.identities)
        payload = None if self.payload is None else [
            self.payload[i] for i in np.arange(len(self.ts))[index].tolist()]
        return HistoryColumns(self.ts[index], author, authors, self.ids[index],
                              self.added[index], self.deleted[index],
                              self.parents[index], identity, identities, payload)

    def identity_authors(self):
        """(pairs, inverse): the distinct ((raw_email, raw_name), AuthorId)
        pairs of the commits, and the position of each commit's pair."""
        n = len(self.authors)
        codes, inverse = np.unique(self.identity * n + self.author, return_inverse=True)
        return ([(self.identities[c // n], self.authors[c % n]) for c in codes.tolist()],
                inverse)


def _renumber(codes, table):
    """``codes`` renumbered 0, 1, ... in order of first appearance, and the
    entries of ``table`` they use, in that order."""
    used, first = np.unique(codes, return_index=True)
    used = used[np.argsort(first)]
    rank = np.zeros(len(table), dtype=np.intp)
    rank[used] = np.arange(len(used))
    return rank[codes], tuple(table[i] for i in used.tolist())


class ProjectHistory:
    """A named commit history. Its :class:`HistoryColumns`, ``columns``,
    are the source of truth; :attr:`commits` is their row view."""

    def __init__(self, project_name, commits=()):
        """``commits``: the :class:`CommitRecord` rows in history order, or
        their :class:`HistoryColumns`."""
        self.project_name = project_name
        if isinstance(commits, HistoryColumns):
            self.columns = commits
        else:
            self.commits = tuple(commits)
            self.columns = HistoryColumns.from_commits(self.commits)

    @classmethod
    def build(cls, project_name, commits):
        """The history of ``commits`` (rows, or columns, in any order) sorted
        by (timestamp, commit id), each id checked unique."""
        columns = cls(project_name, commits).columns
        order = np.argsort(columns.ts, kind="stable")
        if np.any(np.diff(columns.ts[order]) == 0):  # equal times: by id among them
            ids = columns.ids.tolist()
            order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
            order = order[np.argsort(columns.ts[order], kind="stable")]
        if len(set(columns.ids.tolist())) < len(columns.ids):
            seen = set()
            for commit_id in columns.ids[order].tolist():
                if commit_id in seen:
                    raise ParseError(f"duplicate commit id {commit_id!r}")
                seen.add(commit_id)
        if np.any(order != np.arange(len(order))):  # else the columns are in order
            columns = columns.take(order)
        return cls(project_name, columns)

    def __len__(self):
        return len(self.columns.ts)

    @cached_property
    def commits(self):
        """The :class:`CommitRecord` rows, built on first use; they share the
        AuthorId objects of the columns."""
        c, rows = self.columns, []
        payload = c.payload or [None] * len(self)
        for s in range(0, len(self), _CHUNK):  # a chunk's Python values at a time
            cut = slice(s, s + _CHUNK)
            rows += map(CommitRecord, c.ids[cut].tolist(),
                        map(c.authors.__getitem__, c.author[cut].tolist()),
                        c.ts[cut].tolist(), c.added[cut].tolist(), c.deleted[cut].tolist(),
                        *zip(*map(c.identities.__getitem__, c.identity[cut].tolist())),
                        c.parents[cut].tolist(), payload[cut])
        return tuple(rows)

    @property
    def authors(self):
        return frozenset(self.columns.authors)

    def commits_per_author(self):
        """Commit count per author, in order of first appearance."""
        cols = self.columns
        return dict(zip(cols.authors, np.bincount(cols.author).tolist()))


def _record(line_no, commit_id, email, name, ts, added, deleted, parents=1, payload=None):
    """The :class:`CommitRecord` of one parsed record; a field the record
    refuses (an empty identity, a bad timestamp or count) is a ParseError on
    ``line_no``. The parsers make it only to word a faulty record's error."""
    try:
        return CommitRecord(commit_id, AuthorId.from_raw(email, name), float(ts), added,
                            deleted, email, name, parents, payload)
    except (ValueError, OverflowError) as exc:  # float() of a huge integer
        raise ParseError(str(exc), line=line_no) from None


def _parsed(project_name, line_nos, identities, ids, ts, identity, added, deleted,
            parents, payload):
    """The sorted, id-checked history of checked records given column by
    column in input order, ``line_nos[i]`` being the line of record i and
    ``identities`` the (raw_email, raw_name) of each identity code, in code
    order; a duplicate id is a ParseError on the line of its second record."""
    authors = {}
    author = np.array([authors.setdefault(AuthorId.normalize(*pair), len(authors))
                       for pair in identities],
                      dtype=np.intp)[np.asarray(identity, dtype=np.intp)]
    columns = HistoryColumns(
        np.asarray(ts, dtype=float), author, tuple(map(AuthorId, authors)),
        np.array(ids, dtype=object), np.asarray(added, dtype=np.int64),
        np.asarray(deleted, dtype=np.int64), np.array(parents, dtype=object),
        np.asarray(identity, dtype=np.intp), tuple(identities), payload)
    try:
        return ProjectHistory.build(project_name, columns)
    except ParseError:
        seen = set()
        for commit_id, line_no in zip(ids, line_nos):
            if commit_id in seen:
                raise ParseError(f"duplicate commit id {commit_id!r}",
                                 line=line_no) from None
            seen.add(commit_id)
        raise


def _lines(text):
    """The lines of ``text``, split as :func:`open` splits them: at ``\\n``,
    ``\\r\\n`` and ``\\r`` only, not at U+0085, U+2028 or U+2029."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _decode(data):
    """UTF-8 ``data`` as text; a byte that is not UTF-8 is a ParseError on
    its line, counted as :func:`_lines` counts lines."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:  # the bytes before it are UTF-8
        raise ParseError(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})",
                         line=len(_lines(data[:exc.start].decode("utf-8")))) from None


def _parse_numstat_field(raw, line_no):
    if raw == "-":  # binary file
        return 0
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(f"bad numstat count {raw!r}", line=line_no) from None
    if value < 0:
        raise ParseError(f"negative numstat count {raw!r}", line=line_no)
    return value


def parse_commit_log(text, project_name="project", include_merges=False):
    """Parse the pinned pipe-delimited commit-log format."""
    line_nos, ids, ts, identity, added, deleted, parents = [], [], [], [], [], [], []
    identities = {}
    lines = _lines(text)
    i = 0
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        header_no = i + 1
        parts = line.split("|")
        if len(parts) != 6 or parts[0] != "C":
            raise ParseError(f"malformed header {line!r}", line=header_no)
        _, commit_id, email, name, ts_raw, parents_raw = parts
        if not commit_id:
            raise ParseError("empty commit id", line=header_no)
        try:
            when = float(ts_raw)
            parent_count = int(parents_raw)
        except ValueError:
            raise ParseError(f"malformed header {line!r}", line=header_no) from None
        lines_added = lines_deleted = 0
        i += 1
        while i < len(lines) and lines[i].strip():
            cols = lines[i].split("\t")
            if len(cols) < 3:
                raise ParseError(f"malformed numstat row {lines[i]!r}", line=i + 1)
            lines_added += _parse_numstat_field(cols[0], i + 1)
            lines_deleted += _parse_numstat_field(cols[1], i + 1)
            i += 1
        if parent_count >= 2 and not include_merges:
            continue
        known = len(identities)
        code = identities.setdefault((email, name), known)
        if (code == known and not AuthorId.normalize(email, name)
                or not (0 <= when < math.inf and lines_added + lines_deleted <= MAX_LINES
                        and parent_count >= 0)):
            _record(header_no, commit_id, email, name, when, lines_added, lines_deleted,
                    parent_count)  # raises the record's error
        line_nos.append(header_no)
        ids.append(commit_id)
        ts.append(when)
        identity.append(code)
        added.append(lines_added)
        deleted.append(lines_deleted)
        parents.append(parent_count)
    return _parsed(project_name, line_nos, identities, ids, ts, identity, added, deleted,
                   parents, None)


def _parse_payload(files, line_no):
    """``files`` as a tuple of (old, new) string pairs; a missing side is ""."""
    if not isinstance(files, list):
        raise ParseError("'files' must be a list of objects", line=line_no)
    payload = []
    for f in files:
        if not isinstance(f, dict):
            raise ParseError("'files' must be a list of objects", line=line_no)
        old, new = f.get("old", ""), f.get("new", "")
        if not isinstance(old, str) or not isinstance(new, str):
            raise ParseError("'old' and 'new' in 'files' must be strings",
                             line=line_no)
        payload.append((old, new))
    return tuple(payload)


# the JSON types each record field may take, and the value a missing one
# reads as; a bool is not an integer here
_FIELDS = {"id": ((str,), None), "email": ((str, type(None)), None),
           "name": ((str, type(None)), None), "ts": ((int, float), None),
           "added": ((int,), 0), "deleted": ((int,), 0), "parents": ((int,), 1)}


def _check_jsonl_record(obj, line_no, include_merges):
    """Check one decoded JSONL record rule by rule, in the order the format
    states them; the first rule it breaks is a ParseError on ``line_no``."""
    if not isinstance(obj, dict) or "id" not in obj or "ts" not in obj:
        raise ParseError("record must be an object with 'id' and 'ts'", line=line_no)
    for key, (types, _) in _FIELDS.items():
        if key in obj and type(obj[key]) not in types:
            raise ParseError(f"bad {key!r}: {json.dumps(obj[key])}", line=line_no)
    files = obj.get("files")
    payload = None if files is None else _parse_payload(files, line_no)
    parents = obj.get("parents", 1)
    if parents < 2 or include_merges:
        _record(line_no, obj["id"], obj.get("email") or "", obj.get("name") or "",
                obj["ts"], obj.get("added", 0), obj.get("deleted", 0), parents, payload)


def _jsonl_columns(objs, line_nos, include_merges, identities):
    """The kept records of the decoded JSONL ``objs`` (on ``line_nos``) as
    the columns of :func:`_checked_columns`, each rule of
    :func:`_check_jsonl_record` checked once per column; None if a record
    breaks one."""
    if not {dict}.issuperset(map(type, objs)):
        return None
    columns = [[o.get(key, default) for o in objs] for key, (_, default) in _FIELDS.items()]
    if not all(set(map(type, column)).issubset(types)
               for column, (types, _) in zip(columns, _FIELDS.values())):
        return None
    payload = [o.get("files") for o in objs]
    if payload.count(None) == len(payload):
        payload = None
    else:
        try:
            payload = [None if f is None else _parse_payload(f, None) for f in payload]
        except ParseError:
            return None
    ids, emails, names, ts, added, deleted, parents = columns
    if None in emails or None in names:  # a null email or name reads as ""
        emails, names = [e or "" for e in emails], [n or "" for n in names]
    return _checked_columns(line_nos, ids, emails, names, ts, added, deleted, parents,
                            payload, include_merges, identities)


def _canonical_columns(fields, first, include_merges, identities):
    """The columns of :func:`_jsonl_columns` (None if a record breaks a rule)
    for the :data:`_CANONICAL` lines of groups ``fields`` from line ``first``
    on, whose numbers json reads as float and int of their text."""
    ids, emails, names, ts, added, deleted, parents = zip(*fields)
    if "\\" in "".join(ids + emails + names):  # json reads each escape
        ids, emails, names = ([json.loads(f'"{s}"') if "\\" in s else s for s in column]
                              for column in (ids, emails, names))
    parents = [int(p or 1) for p in parents] if any(parents) else [1] * len(ids)
    return _checked_columns(range(first, first + len(ids)), ids, emails, names,
                            ts, added, deleted, parents, None, include_merges, identities)


def _checked_columns(line_nos, ids, emails, names, ts, added, deleted, parents, payload,
                     include_merges, identities):
    """The kept records of one chunk's columns as (line_nos, ids, ts,
    identity, added, deleted, parents, payload); None if one breaks a rule of
    :class:`CommitRecord`. ``identities`` numbers each raw (email, name) met
    so far, and gains the chunk's new ones only if the chunk is kept."""
    if not include_merges and max(parents, default=1) >= 2:
        keep = [p < 2 for p in parents]
        line_nos, ids, emails, names, ts, added, deleted, parents = (
            [v for v, k in zip(column, keep) if k]
            for column in (line_nos, ids, emails, names, ts, added, deleted, parents))
        payload = payload and [v for v, k in zip(payload, keep) if k]
    try:
        ts = np.fromiter(map(float, ts), dtype=float, count=len(ts))
        added = np.array(added, dtype=np.int64)  # also of the pattern's digit strings
        deleted = np.array(deleted, dtype=np.int64)
    except OverflowError:  # a count past int64 is past MAX_LINES too
        return None
    total = added + deleted  # wraps only where a count is past MAX_LINES
    if ("" in ids or not np.all((ts >= 0) & (ts < math.inf)) or min(parents, default=0) < 0
            or np.any((added < 0) | (deleted < 0) | (added > MAX_LINES)
                      | (deleted > MAX_LINES) | (total > MAX_LINES))):
        return None
    pairs = list(zip(emails, names))
    new = [pair for pair in dict.fromkeys(pairs) if pair not in identities]
    if not all(AuthorId.normalize(*pair) for pair in new):
        return None
    identities.update(zip(new, range(len(identities), len(identities) + len(new))))
    identity = np.array(list(map(identities.__getitem__, pairs)), dtype=np.intp)
    return line_nos, ids, ts, identity, added, deleted, parents, payload


def _json_line(scan, line):
    """``json.loads(line)``: the value that the decoder's ``scan`` reads
    from the line's start when it ends the line, else what json.loads
    makes of the line (a value after leading whitespace, or the error)."""
    try:
        value, end = scan(line, 0)
        if end == len(line):
            return value
    except (StopIteration, ValueError):
        pass
    return json.loads(line)


def parse_jsonl(text, project_name="project", include_merges=False):
    """Parse the JSONL commit format.

    Lines are read :data:`_CHUNK` at a time. The run of :data:`_CANONICAL`
    lines that starts a chunk is read by that pattern if its records keep
    every rule, and the next chunk starts after it. Any other chunk is
    decoded line by line and checked a column at a time; a chunk that holds a
    faulty record is checked again record by record, so the error is that of
    its first faulty line, worded as the record check words it.
    """
    chunks, identities = [], {}
    scan = json.JSONDecoder().scan_once
    lines = _lines(text)
    start = 0
    while start < len(lines):
        chunk = lines[start:start + _CHUNK]
        # the groups of the leading run of canonical lines, one match a line
        found = []
        for match in re.finditer(_CANONICAL, "\n".join(chunk)):
            if not match[4]:
                break
            found.append(match.groups())
        columns = found and _canonical_columns(found, start + 1, include_merges, identities)
        if columns:
            chunks.append(columns)
            start += len(found)
            continue
        objs, line_nos, error = [], [], None
        for line_no, line in enumerate(chunk, start + 1):
            if not line.strip():
                continue
            try:
                objs.append(_json_line(scan, line))
            except ValueError as exc:  # also an integer past Python's digit limit
                error = ParseError(f"bad JSON: {getattr(exc, 'msg', exc)}", line=line_no)
                break
            line_nos.append(line_no)
        columns = _jsonl_columns(objs, line_nos, include_merges, identities)
        if columns is None:  # the record check raises at the first faulty record
            for obj, line_no in zip(objs, line_nos):
                _check_jsonl_record(obj, line_no, include_merges)
            raise AssertionError(f"lines {line_nos[0]}-{line_nos[-1]}: the column "
                                 "checks refused records the record check accepts")
        if error is not None:  # after the lines before it have been checked
            raise error
        chunks.append(columns)
        start += _CHUNK
    line_nos, ids, ts, identity, added, deleted, parents, payloads = zip(*chunks)
    payload = None
    if any(p is not None for p in payloads):
        payload = [x for p, n in zip(payloads, line_nos) for x in p or [None] * len(n)]
    return _parsed(project_name, [x for c in line_nos for x in c], identities,
                   [x for c in ids for x in c], np.concatenate(ts),
                   np.concatenate(identity), np.concatenate(added),
                   np.concatenate(deleted), [x for c in parents for x in c], payload)


def write_jsonl(history):
    """Serialize to the canonical JSONL form (the inverse of parse_jsonl):
    each line is the ``json.dumps`` of the commit's record, written from the
    columns.

    A commit whose author was aliased by :func:`resolve_authors` is written
    with the canonical key as its email, so that parsing the output again
    yields the same authors without the alias map.
    """
    cols = history.columns
    if not len(cols.ts):
        return ""
    quote = json.encoder.encode_basestring_ascii  # as json.dumps quotes a str
    pairs, inverse = cols.identity_authors()
    middles = []  # the email, name and "ts" key of each (identity, author) pair
    for (email, name), author in pairs:
        if not email or AuthorId.normalize(email, name) != author.canonical_key:
            email = author.canonical_key
        middles.append(f', "email": {quote(email)}, "name": {quote(name)}, "ts": ')
    ends = [""] * len(cols.ts)  # the "parents" and "files" members
    for i in np.flatnonzero(cols.parents != 1).tolist():
        ends[i] = f', "parents": {cols.parents[i]}'
    for i, payload in enumerate(cols.payload or ()):
        if payload is not None:
            files = [{"old": old, "new": new} for old, new in payload]
            ends[i] += f', "files": {json.dumps(files)}'
    lines = map('{{"id": {}{}{!r}, "added": {}, "deleted": {}{}}}'.format,
                map(quote, cols.ids.tolist()), [middles[k] for k in inverse.tolist()],
                cols.ts.tolist(), cols.added.tolist(), cols.deleted.tolist(), ends)
    return "\n".join(lines) + "\n"


def _normalize_alias_map(alias_map):
    """Lowercase/trim keys and values; reject non-strings and cycles."""
    if not isinstance(alias_map, dict):
        raise ConfigError(f"alias map must be an object, got {type(alias_map).__name__}")
    normalized = {}
    for raw_key, raw_val in alias_map.items():
        key = AuthorId.normalize(raw_key) if isinstance(raw_key, str) else ""
        val = AuthorId.normalize(raw_val) if isinstance(raw_val, str) else ""
        if not key or not val:
            raise ConfigError(f"empty or non-string alias entry {raw_key!r} -> {raw_val!r}")
        normalized[key] = val
    for start in normalized:
        seen = {start}
        cur = start
        while cur in normalized:
            cur = normalized[cur]
            if cur in seen:
                raise ConfigError(f"cyclic alias map entry involving {start!r}")
            seen.add(cur)
    return normalized


def resolve_authors(history, alias_map=None, drop_authors=()):
    """Canonicalize all author identities.

    ``alias_map`` maps a raw identity (email or name, matched after
    trim/lowercase) to its canonical replacement; chains are followed.
    ``drop_authors`` is a deny-list of canonical keys (e.g. bots) whose
    commits are removed. Each distinct (raw identity, author) pair of the
    columns is resolved once, and the commits are filtered by mask, so the
    kept ones stay in the history's order. When nothing changes, the history
    itself is returned.
    """
    aliases = {} if alias_map is None else _normalize_alias_map(alias_map)
    drop = {AuthorId.normalize(str(a)) for a in drop_authors}
    cols = history.columns
    pairs, inverse = cols.identity_authors()
    shared = {a.canonical_key: a for a in cols.authors}  # key -> its one AuthorId
    resolved = []  # the AuthorId of each pair, None if dropped
    for (email, name), author in pairs:
        key = AuthorId.normalize(email, name) or author.canonical_key
        while key in aliases:
            key = aliases[key]
        resolved.append(None if key in drop else shared.get(key)
                        or shared.setdefault(key, AuthorId(key)))
    if all(new is author for new, (_, author) in zip(resolved, pairs)):
        return history
    codes = {}
    author = np.array([-1 if a is None else codes.setdefault(a, len(codes))
                       for a in resolved], dtype=np.intp)[inverse]
    keep = author >= 0
    result = ProjectHistory(history.project_name,
                            cols._replace(author=author, authors=tuple(codes)).take(keep))
    if "commits" in vars(history):
        # rows already built: a kept row whose author is unchanged stays as it is
        new = result.columns
        result.commits = tuple(
            c if c.author == a else replace(c, author=a)
            for c, a in zip((c for c, k in zip(history.commits, keep.tolist()) if k),
                            map(new.authors.__getitem__, new.author.tolist())))
    return result
