"""Active-team time series under the two competing team definitions.

A team is the set of developers with at least one commit inside a tumbling
(non-overlapping, contiguous) time window. Two window-length conventions are
supported: a fixed short window (default 5 days) and a data-driven one, the
q-th quantile (default 0.9) of the pooled per-author inter-commit gaps.
Windows are anchored at the first commit timestamp.

:func:`team_windows` computes the windows with array operations on the
history's columns and keeps only the non-empty ones, so a short window over
a long span costs no more than the commits it holds. A window count above
2**53, where float64 window starts stop being distinct, is refused with
DegenerateDataError. :func:`active_team_series` is the dense view that also
lists the empty windows, one object each, so it refuses more than
:data:`MAX_DENSE_WINDOWS` of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InsufficientDataError

DAY = 86400.0

__all__ = [
    "FixedWindow",
    "QuantileWindow",
    "ActivityWindow",
    "TeamWindows",
    "inter_commit_quantile",
    "resolve_window_length",
    "team_windows",
    "active_team_series",
    "single_commit_share",
]


@dataclass(frozen=True)
class FixedWindow:
    """Tumbling window of a fixed length in seconds (default 5 days)."""

    length: float = 5 * DAY

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("window length must be positive")


@dataclass(frozen=True)
class QuantileWindow:
    """Window whose length is the q-th quantile of pooled per-author
    inter-commit gaps (default q = 0.9)."""

    q: float = 0.9

    def __post_init__(self):
        if not 0 < self.q < 1:
            raise ValueError("quantile must be in (0, 1)")


@dataclass(frozen=True)
class ActivityWindow:
    start_ts: float
    end_ts: float
    active_authors: frozenset
    commit_count: int

    @property
    def n(self):
        return len(self.active_authors)


def _nearest_rank(values, q):
    """Nearest-rank q-th quantile of a non-empty float array, as a float."""
    rank = max(1, math.ceil(q * len(values)))
    return float(np.partition(values, rank - 1)[rank - 1])


def _distinct(values):
    """``np.unique(values)`` by its counting branch: the plain call's
    masked-array check imports numpy.ma, which the analyses do not need."""
    return np.unique(values, return_counts=True)[0]


def inter_commit_quantile(history, q):
    """q-th nearest-rank quantile of consecutive same-author commit gaps,
    pooled across all authors."""
    if not 0 < q < 1:
        raise ValueError("quantile must be in (0, 1)")
    ts, author = history.columns.ts, history.columns.author
    order = np.lexsort((ts, author))  # by author, then time
    gaps = np.diff(ts[order])[np.diff(author[order]) == 0]
    if not len(gaps):
        raise InsufficientDataError("no author has two or more commits")
    return _nearest_rank(gaps, q)


def resolve_window_length(history, definition):
    if isinstance(definition, FixedWindow):
        return definition.length
    if isinstance(definition, QuantileWindow):
        length = inter_commit_quantile(history, definition.q)
        if length <= 0:
            raise DegenerateDataError(
                "quantile window length is zero (all pooled gaps are zero)"
            )
        return length
    raise TypeError(f"unknown team definition {definition!r}")


#: the most windows one span may be cut into: past 2**53, float64 window
#: indices and starts no longer tell neighbouring windows apart
MAX_WINDOWS = 2**53

#: the most windows the dense :func:`active_team_series` lists; one empty
#: :class:`ActivityWindow` takes ~160 B, so this bounds it near 160 MB
MAX_DENSE_WINDOWS = 10**6


@dataclass(frozen=True, eq=False)
class TeamWindows:
    """The non-empty tumbling windows of one history, as arrays.

    Window ``index[j]`` covers [t0 + index[j]*length, t0 + (index[j]+1)*length)
    and holds ``n[j]`` active authors and ``commit_count[j]`` commits.
    ``slot[i]`` is the position in these arrays of commit i's window.
    ``members`` holds the author codes active in each window, sorted, the
    first ``n[0]`` for window 0, the next ``n[1]`` for window 1 and so on.
    ``count`` is the number of windows in the dense series, empty ones
    included.
    """

    t0: float
    length: float
    count: int
    index: np.ndarray
    n: np.ndarray
    commit_count: np.ndarray
    slot: np.ndarray
    members: np.ndarray

    @property
    def start_ts(self):
        return self.t0 + self.index * self.length

    @property
    def end_ts(self):
        return self.t0 + (self.index + 1) * self.length


def team_windows(history, length):
    """:class:`TeamWindows` of ``history`` for windows of ``length`` seconds,
    anchored at the first commit."""
    if not length > 0:
        raise ValueError("window length must be positive")
    if len(history) == 0:
        raise InsufficientDataError("history has no commits")
    cols = history.columns
    ts, author, authors = cols.ts, cols.author, cols.authors
    t0 = float(ts[0])
    last = (float(ts[-1]) - t0) // length
    if not last < MAX_WINDOWS:  # so that last + 1 windows <= 2**53
        raise DegenerateDataError(
            f"a window of {length:g} s cuts the span of {ts[-1] - t0:g} s into "
            f"more than 2**53 windows")
    count = int(last) + 1
    # float floor division, as Python's // computes it per commit
    window = np.minimum((ts - t0) // length, count - 1).astype(np.int64)
    index, slot, commit_count = np.unique(window, return_inverse=True,
                                          return_counts=True)
    # the distinct (window, author) pairs, grouped by window
    pairs = _distinct(slot * len(authors) + author)
    n = np.bincount(pairs // len(authors), minlength=len(index))
    return TeamWindows(t0, float(length), count, index, n, commit_count, slot,
                       pairs % len(authors))


def active_team_series(history, definition):
    """Tumbling windows covering [first_ts, last_ts], anchored at first_ts,
    empty windows included."""
    team = team_windows(history, resolve_window_length(history, definition))
    if team.count > MAX_DENSE_WINDOWS:
        raise DegenerateDataError(
            f"the dense series would list {team.count} windows, more than "
            f"{MAX_DENSE_WINDOWS}; team_windows keeps only the non-empty ones")
    authors = history.columns.authors
    members = [frozenset(map(authors.__getitem__, codes.tolist()))
               for codes in np.split(team.members, np.cumsum(team.n)[:-1])]
    filled = dict(zip(team.index.tolist(), zip(members, team.commit_count.tolist())))
    empty = (frozenset(), 0)
    t0, length = team.t0, team.length
    return [ActivityWindow(t0 + i * length, t0 + (i + 1) * length, *filled.get(i, empty))
            for i in range(team.count)]


def single_commit_share(history):
    """Fraction of all commits authored by developers with exactly one commit."""
    if len(history) == 0:
        raise InsufficientDataError("history has no commits")
    singles = np.count_nonzero(np.bincount(history.columns.author) == 1)
    return int(singles) / len(history)
