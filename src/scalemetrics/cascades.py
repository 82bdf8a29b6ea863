"""Contribution-cascade detection and branching-ratio estimation.

Commits are partitioned by gap-threshold declustering: a new cascade
starts whenever the gap to the previous commit (by any author) exceeds
tau. With one immigrant per cascade in the branching picture, the
triggered fraction estimates the branching ratio:
eta_hat = 1 - cascades / events. eta_hat close to 1 indicates a critical,
self-sustained regime.

Both :func:`default_tau` and :func:`branching_ratio` work on the gap array
``np.diff`` of the history's timestamp column: the cascades start where a
gap exceeds tau, so their sizes are the distances between those positions.
:func:`branching_ratio` takes tau from its caller; the CLI passes ``--tau``
or, by default, :func:`default_tau`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .windows import _nearest_rank

__all__ = [
    "Cascade",
    "CascadeStats",
    "default_tau",
    "detect_cascades",
    "branching_ratio",
]


@dataclass(frozen=True)
class Cascade:
    commit_ids: tuple
    start_ts: float
    end_ts: float

    @property
    def size(self):
        return len(self.commit_ids)


@dataclass(frozen=True)
class CascadeStats:
    tau: float
    cascade_count: int
    event_count: int
    eta_hat: float
    size_distribution: tuple  # sorted (size, count) pairs

    def to_json(self):
        return {
            "tau": self.tau,
            "cascades": self.cascade_count,
            "events": self.event_count,
            "eta_hat": self.eta_hat,
            "sizes": {str(size): count for size, count in self.size_distribution},
        }


def default_tau(history):
    """10th-percentile gap between consecutive commits (any author)."""
    gaps = np.diff(history.columns.ts)
    if not len(gaps):
        raise InsufficientDataError("need >= 2 commits to derive a gap threshold")
    tau = _nearest_rank(gaps, 0.1)
    if tau <= 0:
        raise InsufficientDataError("10th-percentile gap is zero; pass tau explicitly")
    return tau


def _cascade_bounds(history, tau):
    """Positions where the cascades start, plus len(history) at the end."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    if len(history) == 0:
        raise InsufficientDataError("history has no commits")
    starts = np.flatnonzero(np.diff(history.columns.ts) > tau) + 1
    return np.concatenate(([0], starts, [len(history)]))


def detect_cascades(history, tau):
    """Exhaustive, disjoint partition of commits into gap-bounded runs."""
    bounds = _cascade_bounds(history, tau).tolist()
    ids, ts = history.columns.ids.tolist(), history.columns.ts.tolist()
    return [Cascade(commit_ids=tuple(ids[a:b]), start_ts=ts[a], end_ts=ts[b - 1])
            for a, b in zip(bounds, bounds[1:])]


def branching_ratio(history, tau):
    """CascadeStats with the immigrant-fraction branching-ratio estimate for
    the gap threshold ``tau`` (seconds; see :func:`default_tau`)."""
    sizes, counts = np.unique(np.diff(_cascade_bounds(history, tau)),
                              return_counts=True)
    cascades = int(counts.sum())
    events = len(history)
    return CascadeStats(
        tau=float(tau),
        cascade_count=cascades,
        event_count=events,
        eta_hat=1.0 - cascades / events,
        size_distribution=tuple(zip(sizes.tolist(), counts.tolist())),
    )
