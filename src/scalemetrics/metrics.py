"""Production measures per commit and per window.

Supported measures: commit counts, added/deleted/total lines of code, and
the Levenshtein edit distance of diff payloads. Edit distance is computed
byte-level on UTF-8 within :data:`DEFAULT_CELL_BUDGET` cells per pair;
commits whose payload is missing or over the budget are excluded from that
measure's totals and counted in a coverage statistic rather than truncated.

The edit distance uses Hyyrö's global-distance form of Myers' bit-parallel
recurrence (Myers, "A fast bit-vector algorithm for approximate string
matching based on dynamic programming", JACM 46, 1999; Hyyrö, "A bit-vector
algorithm for computing Levenshtein and Damerau edit distances", Nordic
Journal of Computing 10, 2003): one DP column is packed into the bits of a
Python int, so a pair costs about ceil(m/64)*n word operations for a
shorter side of m bytes and a longer side of n bytes.

Each commit's production is computed once per analysis by
:func:`commit_productions` from the history's columns, without a commit
record: a column operation for the commit and line-count measures, one
pass over the payload column for ``lev``. Arm A, arm B and the tail
distribution all read that one float64 array, nan where a production is
unavailable, without copying it. :func:`series_observations` sums it per
window with ``np.bincount`` over the sparse windows of
:func:`~scalemetrics.windows.team_windows`, adding in commit order, so the
sums are those of a loop over the commits. An arm's windows stay columns,
one :class:`Observations` of arrays, from there to the fit and the CSV.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .errors import MeasureUnavailableError
from .windows import resolve_window_length, team_windows

#: the most DP cells, len(a) * len(b) in bytes, that one edit distance may cost
DEFAULT_CELL_BUDGET = 2**32  # two 64 KiB sides: about 2 s bit-parallel

__all__ = [
    "ProductionMeasure",
    "Observations",
    "levenshtein_distance",
    "commit_productions",
    "series_observations",
    "window_observations_with_coverage",
    "observations_to_csv",
    "csv_number",
]


class ProductionMeasure(enum.Enum):
    COMMITS = "commits"
    LOC_ADDED = "loc-added"
    LOC_DELETED = "loc-deleted"
    LOC_TOTAL = "loc"
    LEVENSHTEIN = "lev"

    @classmethod
    def from_string(cls, s):
        for m in cls:
            if m.value == s:
                return m
        raise ValueError(f"unknown production measure {s!r}")


class Observations(NamedTuple):
    """The non-empty windows of one arm as columns: each window's bounds,
    its team size n and its production P, one array entry per window."""

    start_ts: np.ndarray
    end_ts: np.ndarray
    n: np.ndarray
    production: np.ndarray


def levenshtein_distance(a, b):
    """Unit-cost insert/delete/substitute edit distance, byte-level on UTF-8.

    Bit-parallel (Myers 1999, in Hyyrö's 2003 global-distance form): the
    shorter side is the pattern, one bit per byte, and each byte of the
    longer side advances the whole DP column with a few big-int operations,
    about ceil(m/64)*n word operations in all. Each side is a str, bytes
    or bytearray (anything else raises TypeError); a pair of more than
    :data:`DEFAULT_CELL_BUDGET` m*n cells raises MeasureUnavailableError.
    """
    for side in (a, b):
        if not isinstance(side, (str, bytes, bytearray)):
            raise TypeError(f"edit distance needs str or bytes, got {type(side).__name__}")
    xs = a.encode("utf-8") if isinstance(a, str) else bytes(a)
    ys = b.encode("utf-8") if isinstance(b, str) else bytes(b)
    if len(xs) * len(ys) > DEFAULT_CELL_BUDGET:
        raise MeasureUnavailableError(f"input exceeds cell budget ({len(xs)} x {len(ys)} "
                                      f"bytes > {DEFAULT_CELL_BUDGET} cells)")
    if len(xs) > len(ys):
        xs, ys = ys, xs
    if not xs:
        return len(ys)
    peq = [0] * 256  # byte value -> bit mask of its positions in the pattern
    bit = 1
    for byte in xs:
        peq[byte] |= bit
        bit <<= 1
    mask = bit - 1  # Python ints have no width: every ~ is cut back to m bits
    high = bit >> 1
    pv, mv, score = mask, 0, len(xs)
    for byte in ys:
        eq = peq[byte]
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        # carry 1 into ph: the top DP row grows by one per text byte
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return score


def commit_productions(history, measure):
    """(values, unavailable_commit_count): each commit's production under
    ``measure`` in history order, a float64 array that is nan where the
    measure is unavailable. Every measure but ``lev`` is an operation on the
    line-count columns; ``lev`` sums the edit distances of each commit's
    payload pairs."""
    cols = history.columns
    if measure is ProductionMeasure.COMMITS:
        return np.ones(len(cols.ts)), 0
    if measure is ProductionMeasure.LOC_ADDED:
        return cols.added.astype(float), 0
    if measure is ProductionMeasure.LOC_DELETED:
        return cols.deleted.astype(float), 0
    if measure is ProductionMeasure.LOC_TOTAL:
        return (cols.added + cols.deleted).astype(float), 0
    if measure is not ProductionMeasure.LEVENSHTEIN:
        raise ValueError(f"unknown measure {measure!r}")
    values = np.full(len(cols.ts), np.nan)
    for i, payload in enumerate(cols.payload or ()):
        if payload is not None:
            try:
                values[i] = sum(levenshtein_distance(o, n) for o, n in payload)
            except MeasureUnavailableError:
                pass
    return values, int(np.count_nonzero(np.isnan(values)))


def series_observations(team, productions):
    """The :class:`Observations` of the windows of ``team`` (the non-empty
    windows from :func:`~scalemetrics.windows.team_windows`), summing the
    per-commit ``productions``: the float64 array from
    :func:`commit_productions`, nan where a production is unavailable."""
    available = ~np.isnan(productions)
    return Observations(team.start_ts, team.end_ts, team.n,
                        np.bincount(team.slot[available], weights=productions[available],
                                    minlength=len(team.index)))


def window_observations_with_coverage(history, definition, measure):
    """(observations, unavailable_commit_count) for non-empty windows."""
    team = team_windows(history, resolve_window_length(history, definition))
    productions, unavailable = commit_productions(history, measure)
    return series_observations(team, productions), unavailable


def csv_number(x):
    """``x`` as a CSV cell that reads back exactly: an integral value as an
    integer, any other by ``repr``."""
    x = float(x)
    return str(int(x)) if x.is_integer() else repr(x)


def observations_to_csv(observations, measure):
    lines = ["start_ts,end_ts,n,measure,production"]
    for start, end, n, p in zip(*(column.tolist() for column in observations)):
        lines.append(f"{csv_number(start)},{csv_number(end)},{n},"
                     f"{measure.value},{csv_number(p)}")
    return "\n".join(lines) + "\n"
