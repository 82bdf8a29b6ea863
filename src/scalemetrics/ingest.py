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
  serialization emitted by :func:`write_jsonl`.

Merge commits (parent_count >= 2) carry no numstat deltas and are excluded
by default; pass ``include_merges=True`` to keep them.

Both parsers, and the simulators in :mod:`scalemetrics.simulate`, make every
:class:`CommitRecord` through one constructor, which gives each distinct
author one shared :class:`AuthorId` object, looked up once per distinct raw
(email, name), and reports a field the record refuses as a line-numbered
:class:`ParseError`. :meth:`AuthorId.normalize` is the one rule that turns a
raw identity into a canonical key. A load sorts and id-checks its history
once, in :meth:`ProjectHistory.build`; :func:`resolve_authors` keeps the
order it is given. The :class:`CommitRecord` rows of a :class:`ProjectHistory`
are its source of truth; the analyses read its
:attr:`~ProjectHistory.columns`, a columnar index built once on first use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter
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
    """The per-commit columns the analyses read, in history order."""

    ts: np.ndarray  # float64 commit timestamps
    author: np.ndarray  # intp author codes, numbered in order of first appearance
    authors: tuple  # the AuthorId of each code

    @classmethod
    def from_commits(cls, commits):
        codes = {}
        author = np.fromiter(
            (codes.setdefault(c.author.canonical_key, len(codes)) for c in commits),
            dtype=np.intp, count=len(commits))
        ts = np.fromiter((c.timestamp for c in commits), dtype=float,
                         count=len(commits))
        first = np.unique(author, return_index=True)[1]
        return cls(ts, author, tuple(commits[i].author for i in first))


@dataclass(frozen=True)
class ProjectHistory:
    project_name: str
    commits: tuple[CommitRecord, ...] = ()

    @classmethod
    def build(cls, project_name, commits):
        """Sort commits by timestamp and check commit-id uniqueness."""
        commits = tuple(sorted(commits, key=attrgetter("timestamp", "commit_id")))
        seen = set()
        for c in commits:
            if c.commit_id in seen:
                raise ParseError(f"duplicate commit id {c.commit_id!r}")
            seen.add(c.commit_id)
        return cls(project_name, commits)

    def __len__(self):
        return len(self.commits)

    @cached_property
    def columns(self):
        """:class:`HistoryColumns` of the commits, built on first use."""
        return HistoryColumns.from_commits(self.commits)

    @property
    def authors(self):
        return frozenset(self.columns.authors)

    def commits_per_author(self):
        """Commit count per author, in order of first appearance."""
        cols = self.columns
        return dict(zip(cols.authors, np.bincount(cols.author).tolist()))


def _record(authors, line_no, commit_id, email, name, ts, added, deleted,
            parents=1, payload=None):
    """The one way a :class:`CommitRecord` is made. ``authors`` caches the
    one AuthorId of each author of a history under both its raw (email, name)
    pair and its canonical key; a field the record refuses (an empty
    identity, a bad timestamp or count) is a ParseError on ``line_no``."""
    try:
        author = authors.get((email, name))
        if author is None:
            author = AuthorId.from_raw(email, name)
            author = authors[email, name] = authors.setdefault(author.canonical_key,
                                                               author)
        return CommitRecord(commit_id, author, float(ts), added, deleted, email,
                            name, parents, payload)
    except (ValueError, OverflowError) as exc:  # float() of a huge integer
        raise ParseError(str(exc), line=line_no) from None


def _build(project_name, commits, line_nos):
    """:meth:`ProjectHistory.build` of parsed records, ``line_nos[i]`` being
    the line of ``commits[i]``; a duplicate id is a ParseError on the line of
    its second record."""
    try:
        return ProjectHistory.build(project_name, commits)
    except ParseError:
        seen = set()
        for c, line_no in zip(commits, line_nos):
            if c.commit_id in seen:
                raise ParseError(f"duplicate commit id {c.commit_id!r}",
                                 line=line_no) from None
            seen.add(c.commit_id)
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
    commits, line_nos = [], []
    authors = {}
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
            ts = float(ts_raw)
            parents = int(parents_raw)
        except ValueError:
            raise ParseError(f"malformed header {line!r}", line=header_no) from None
        added = deleted = 0
        i += 1
        while i < len(lines) and lines[i].strip():
            cols = lines[i].split("\t")
            if len(cols) < 3:
                raise ParseError(f"malformed numstat row {lines[i]!r}", line=i + 1)
            added += _parse_numstat_field(cols[0], i + 1)
            deleted += _parse_numstat_field(cols[1], i + 1)
            i += 1
        if parents >= 2 and not include_merges:
            continue
        commits.append(_record(authors, header_no, commit_id, email, name, ts,
                               added, deleted, parents))
        line_nos.append(header_no)
    return _build(project_name, commits, line_nos)


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
_FIELD_TYPES = {"id": (str,), "email": (str, type(None)), "name": (str, type(None)),
                "ts": (int, float), "added": (int,), "deleted": (int,), "parents": (int,)}


def parse_jsonl(text, project_name="project", include_merges=False):
    """Parse the JSONL commit format."""
    commits, line_nos = [], []
    authors = {}
    for line_no, line in enumerate(_lines(text), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # also an integer past Python's digit limit
            raise ParseError(f"bad JSON: {getattr(exc, 'msg', exc)}",
                             line=line_no) from None
        if not isinstance(obj, dict) or "id" not in obj or "ts" not in obj:
            raise ParseError("record must be an object with 'id' and 'ts'", line=line_no)
        for key, types in _FIELD_TYPES.items():
            if key in obj and type(obj[key]) not in types:
                raise ParseError(f"bad {key!r}: {json.dumps(obj[key])}", line=line_no)
        files = obj.get("files")
        payload = None if files is None else _parse_payload(files, line_no)
        parents = obj.get("parents", 1)
        if parents >= 2 and not include_merges:
            continue
        commits.append(_record(authors, line_no, obj["id"], obj.get("email") or "",
                               obj.get("name") or "", obj["ts"], obj.get("added", 0),
                               obj.get("deleted", 0), parents, payload))
        line_nos.append(line_no)
    return _build(project_name, commits, line_nos)


def write_jsonl(history):
    """Serialize to the canonical JSONL form (the inverse of parse_jsonl).

    A commit whose author was aliased by :func:`resolve_authors` is written
    with the canonical key as its email, so that parsing the output again
    yields the same authors without the alias map.
    """
    out = []
    for c in history.commits:
        email = c.raw_email
        if not email or AuthorId.normalize(email, c.raw_name) != c.author.canonical_key:
            email = c.author.canonical_key
        obj = {
            "id": c.commit_id,
            "email": email,
            "name": c.raw_name,
            "ts": c.timestamp,
            "added": c.lines_added,
            "deleted": c.lines_deleted,
        }
        if c.parent_count != 1:
            obj["parents"] = c.parent_count
        if c.diff_payload is not None:
            obj["files"] = [{"old": o, "new": n} for o, n in c.diff_payload]
        out.append(json.dumps(obj, sort_keys=False))
    return "\n".join(out) + ("\n" if out else "")


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
    commits are removed. The kept records stay in the history's order:
    dropping and relabelling records cannot unsort it or duplicate an id.
    """
    aliases = {} if alias_map is None else _normalize_alias_map(alias_map)
    drop = {AuthorId.normalize(str(a)) for a in drop_authors}
    resolved = {}  # (raw_email, raw_name, key) -> AuthorId, None if dropped
    shared = {}  # resolved key -> its one AuthorId
    commits = []
    for c in history.commits:
        current = c.author.canonical_key
        identity = (c.raw_email, c.raw_name, current)
        if identity not in resolved:
            key = AuthorId.normalize(c.raw_email, c.raw_name) or current
            while key in aliases:
                key = aliases[key]
            resolved[identity] = None if key in drop else shared.setdefault(
                key, c.author if key == current else AuthorId(key))
        author = resolved[identity]
        if author is None:
            continue
        # a record whose key is unchanged is kept as it is
        commits.append(c if author.canonical_key == current
                       else replace(c, author=author))
    return ProjectHistory(history.project_name, tuple(commits))
