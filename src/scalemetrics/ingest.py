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
  serialization emitted by :func:`write_jsonl`. Each line is read once:
  one pattern reads a payload-free line as :func:`write_jsonl` writes it,
  with the JSON decoder's results and errors, and the decoder reads any
  other line.

Merge commits (parent_count >= 2) carry no numstat deltas and are excluded
by default; pass ``include_merges=True`` to keep them.

A :class:`ProjectHistory` is its :class:`HistoryColumns` and nothing else:
both parsers and the simulators in :mod:`scalemetrics.simulate` fill them
directly, ``ProjectHistory(name, commits)`` turns :class:`CommitRecord` rows
into them through :meth:`HistoryColumns.from_commits`, and
:attr:`ProjectHistory.commits`, the rows, is a view built on first use.
A record's rules are those :class:`CommitRecord` checks, and every parsed
record passes them in one place, :func:`_checked_columns`: a column at a
time, each block of records once, with a record made only to word the
error of the first faulty one, as a line-numbered :class:`ParseError`.
:meth:`AuthorId.normalize` is the one rule that turns a raw identity into a
canonical key. A load sorts and id-checks its history once, in
:meth:`ProjectHistory.build`; :func:`resolve_authors` keeps the order it is
given.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
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
#: with a ``ts`` that has a fraction or an exponent, as ``repr(float)`` has
_CANONICAL = (
    rf'\{{"id": {_STR}, "email": {_STR}, "name": {_STR}, '
    r'"ts": (-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)), '
    rf'"added": {_INT}, "deleted": {_INT}(?:, "parents": {_INT})?\}}')


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
    """A named commit history: its name and its :class:`HistoryColumns`,
    ``columns``, which are all it holds; :attr:`commits` is their row view."""

    def __init__(self, project_name, commits=()):
        """``commits``: the :class:`HistoryColumns`, or :class:`CommitRecord`
        rows in history order, which are kept only as their columns."""
        self.project_name = project_name
        self.columns = (commits if isinstance(commits, HistoryColumns)
                        else HistoryColumns.from_commits(tuple(commits)))

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


def _parsed(project_name, identities, chunks):
    """The sorted, id-checked history of the ``chunks`` of records, in input
    order, that :func:`_checked_columns` checked and numbered with
    ``identities``, each (raw_email, raw_name) in code order; a duplicate id
    is a ParseError on the line of its second record."""
    line_nos, ids, ts, identity, added, deleted, parents, payloads = zip(*chunks)
    ids, identity = [x for c in ids for x in c], np.concatenate(identity)
    payload = None
    if any(p is not None for p in payloads):
        payload = [x for p, n in zip(payloads, line_nos) for x in p or [None] * len(n)]
    authors = {}
    author = np.array([authors.setdefault(AuthorId.normalize(*pair), len(authors))
                       for pair in identities], dtype=np.intp)[identity]
    columns = HistoryColumns(
        np.concatenate(ts), author, tuple(map(AuthorId, authors)),
        np.array(ids, dtype=object), np.concatenate(added), np.concatenate(deleted),
        np.array([x for c in parents for x in c], dtype=object), identity,
        tuple(identities), payload)
    try:
        return ProjectHistory.build(project_name, columns)
    except ParseError:
        seen = set()
        for commit_id, line_no in zip(ids, (n for c in line_nos for n in c)):
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
    """Parse the pinned pipe-delimited commit-log format, merges skipped as
    they are read and each :data:`_CHUNK` records checked once. A malformed
    header or numstat row, or an empty commit id, ends the read; it is raised
    after the records before it are checked: the first faulty line's error."""
    lines, i, chunks, identities, error = _lines(text), 0, [], {}, None
    while i < len(lines) and error is None:
        line_nos, ids, emails, names, ts, added, deleted, parents = ([] for _ in range(8))
        try:
            while i < len(lines) and len(ids) < _CHUNK:
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
                line_nos.append(header_no)
                ids.append(commit_id)
                emails.append(email)
                names.append(name)
                ts.append(when)
                added.append(lines_added)
                deleted.append(lines_deleted)
                parents.append(parent_count)
        except ParseError as exc:  # raised after the records before it are checked
            error = exc
        columns = ids, emails, names, ts, added, deleted, parents, [None] * len(ids)
        chunks.append(_checked_columns(line_nos, columns, include_merges, identities))
    if error is not None:
        raise error
    return _parsed(project_name, identities, chunks)


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


# the JSON types each record field may take; a bool is not an integer here
_FIELDS = {"id": (str,), "email": (str, type(None)), "name": (str, type(None)),
           "ts": (int, float), "added": (int,), "deleted": (int,), "parents": (int,)}


def _jsonl_row(scan, line, line_no):
    """The row of one JSONL line that the pattern does not read, decoded by
    the decoder's ``scan``: (id, email, name, ts, added, deleted, parents,
    payload). Bad JSON, a record of the wrong shape, a field of the wrong
    type or a malformed ``files`` is a ParseError on ``line_no``."""
    try:
        obj = _json_line(scan, line)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise ParseError(f"bad JSON: {getattr(exc, 'msg', exc)}", line=line_no) from None
    if not isinstance(obj, dict) or "id" not in obj or "ts" not in obj:
        raise ParseError("record must be an object with 'id' and 'ts'", line=line_no)
    for key, types in _FIELDS.items():
        if key in obj and type(obj[key]) not in types:
            raise ParseError(f"bad {key!r}: {json.dumps(obj[key])}", line=line_no)
    files = obj.get("files")
    return (obj["id"], obj.get("email") or "", obj.get("name") or "", obj["ts"],
            obj.get("added", 0), obj.get("deleted", 0), obj.get("parents", 1),
            None if files is None else _parse_payload(files, line_no))


def _checked_columns(line_nos, columns, include_merges, identities):
    """The kept records of the ``columns`` (ids, emails, names, ts, added,
    deleted, parents, payload), record i on line ``line_nos[i]``, as (line_nos,
    ids, ts, identity, added, deleted, parents, payload), each rule of
    :class:`CommitRecord` checked once per column; if a record breaks one,
    the ParseError of the first faulty record. A number may be the pattern's
    digit string. ``identities`` numbers each raw (email, name) met so far,
    and gains the records' new ones, also when the records are refused."""
    columns = [line_nos, *(list(columns) or [()] * 8)]  # zip(*rows) of no rows is empty
    parents = columns[7]
    if parents.count(1) < len(parents):  # else every count is 1 already
        columns[7] = parents = list(map(int, parents))
    if not include_merges and max(parents, default=1) >= 2:
        keep = [p < 2 for p in parents]
        columns = [[v for v, k in zip(column, keep) if k] for column in columns]
    line_nos, ids, emails, names, ts, added, deleted, parents, payload = columns
    known = len(identities)  # numbered before the check, as a refusal ends the parse
    identity = np.array([identities.setdefault(pair, len(identities))
                         for pair in zip(emails, names)], dtype=np.intp)
    new = list(identities)[known:]
    try:
        ts = np.fromiter(map(float, ts), dtype=float, count=len(ts))
        added = np.array(added, dtype=np.int64)
        deleted = np.array(deleted, dtype=np.int64)
        total = added + deleted  # wraps only where a count is past MAX_LINES
        faulty = ("" in ids or not np.all((ts >= 0) & (ts < math.inf))
                  or min(parents, default=0) < 0
                  or np.any((added < 0) | (deleted < 0) | (added > MAX_LINES)
                            | (deleted > MAX_LINES) | (total > MAX_LINES))
                  or not all(AuthorId.normalize(*pair) for pair in new))
    except OverflowError:  # a count past int64 is past MAX_LINES too
        faulty = True
    if faulty:  # the record check raises at the first faulty record
        for line_no, i, e, n, t, a, d, p, f in zip(*columns):
            _record(line_no, i, e, n, t, int(a), int(d), p, f)
        raise AssertionError(f"lines {line_nos[0]}-{line_nos[-1]}: the column "
                             "checks refused records the record check accepts")
    payload = None if payload.count(None) == len(payload) else list(payload)
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

    Each line is read once: a line that :data:`_CANONICAL` matches becomes
    a row of its groups, a blank line is skipped, and any other line is
    decoded and checked on its own. Lines are read :data:`_CHUNK` at a
    time, and each chunk's rows are checked once, a column at a time; the
    error of a faulty chunk is that of its first faulty line, worded as the
    record check words it.
    """
    chunks, identities = [], {}
    scan = json.JSONDecoder().scan_once
    match = re.compile(_CANONICAL).fullmatch
    lines = _lines(text)
    for start in range(0, len(lines), _CHUNK):
        chunk = lines[start:start + _CHUNK]
        rows, error = [], None  # row i is line start + 1 + i's
        for line, found in zip(chunk, map(match, chunk)):
            if found:  # a missing "parents" reads as 1, and there is no payload
                row = found.groups(1) + (None,)
                if "\\" in line:  # json reads each escape
                    row = (*(json.loads(f'"{s}"') for s in row[:3]), *row[3:])
            elif not line.strip():
                row = None
            else:
                try:
                    row = _jsonl_row(scan, line, start + 1 + len(rows))
                except ParseError as exc:  # raised after the rows before it
                    error = exc
                    break
            rows.append(row)
        line_nos = range(start + 1, start + 1 + len(rows))
        if None in rows:
            line_nos = [n for n, row in zip(line_nos, rows) if row is not None]
            rows = [row for row in rows if row is not None]
        chunks.append(_checked_columns(line_nos, zip(*rows), include_merges, identities))
        if error is not None:
            raise error
    return _parsed(project_name, identities, chunks)


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
    return ProjectHistory(history.project_name,
                          cols._replace(author=author, authors=tuple(codes)).take(keep))
