"""Tail-exponent estimation for per-developer contribution distributions.

The quantity of interest is the exponent mu of the complementary CDF
P(X > x) ~ x^-mu of per-developer totals. mu < 1 marks superlinear
production (infinite-mean regime), mu < 1/2 superlinear productivity.
Two estimators are provided: the Hill estimator on the k largest order
statistics, and a cutoff-aware Pareto MLE that picks the lower cutoff by
minimizing the Kolmogorov-Smirnov distance of the fitted tail. Both
estimate mu with one Pareto MLE, k / sum(ln(x / xmin)) over a tail of k
values, and both confidence intervals come from one seeded percentile
bootstrap (200 resamples).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InsufficientDataError
from .metrics import commit_productions, production_column
from .windows import _distinct

MIN_TAIL_POINTS = 10
N_BOOTSTRAP = 200

__all__ = [
    "ContributionDistribution",
    "TailFit",
    "Regime",
    "ccdf",
    "hill_estimator",
    "pareto_mle_fit",
    "productivity_exponent",
    "classify_regime",
]


@dataclass(frozen=True)
class ContributionDistribution:
    """Positive per-developer totals under one production measure."""

    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError("distribution must be non-empty")
        if any(v <= 0 for v in self.values):
            raise ValueError("all values must be > 0")

    @classmethod
    def from_history(cls, history, measure):
        """Per-author production totals; authors with zero total are dropped,
        commits where the measure is unavailable are skipped."""
        productions, _ = commit_productions(history, measure)
        return cls.from_productions(history, productions)

    @classmethod
    def from_productions(cls, history, productions):
        """As :meth:`from_history`, from per-commit ``productions`` already
        computed by :func:`~scalemetrics.metrics.commit_productions`.

        The totals are summed in commit order and listed in the order of
        each author's first available commit, which the bootstrap draws
        depend on."""
        values, available = production_column(productions)
        author = history.columns.author[available]
        totals = np.bincount(author, weights=values[available])
        codes, first = np.unique(author, return_index=True)
        totals = totals[codes[np.argsort(first)]]
        values = tuple(totals[totals > 0].tolist())
        if not values:
            raise InsufficientDataError("no author has positive production")
        return cls(values)


@dataclass(frozen=True)
class TailFit:
    method: str  # "hill" | "pareto-mle"
    mu: float
    xmin: float
    k: int
    ci_low: float
    ci_high: float

    def to_json(self):
        return {
            "method": self.method,
            "mu": self.mu,
            "xmin": self.xmin,
            "k": self.k,
            "ci": [self.ci_low, self.ci_high],
        }


class Regime(enum.Enum):
    SUPERLINEAR_PRODUCTIVITY = "superlinear-productivity"  # mu < 0.5
    SUPERLINEAR_PRODUCTION = "superlinear-production"  # 0.5 <= mu < 1
    LINEAR_PRODUCTION = "linear-production"  # mu >= 1


def ccdf(distribution):
    """Empirical CCDF points (x, P(X > x)) at sorted unique values.

    Strict-exceedance convention: P at the maximum value is 0.
    """
    values = np.sort(np.asarray(distribution.values, dtype=float))
    n = len(values)
    xs, first_idx = np.unique(values, return_index=True)
    counts = np.diff(np.append(first_idx, n))
    exceed = n - np.cumsum(counts)
    return list(zip(xs.tolist(), (exceed / n).tolist()))


def _pareto_mu(tail, xmin):
    """Pareto MLE of mu for the values ``tail`` above ``xmin``:
    len(tail) / sum(ln(tail / xmin)); None for a degenerate tail."""
    denom = np.sum(np.log(tail / xmin))
    return len(tail) / denom if denom > 0 else None


def _bootstrap_ci(sample, statistic, point, seed):
    """Seeded percentile bootstrap 95% CI of ``statistic`` over N_BOOTSTRAP
    resamples of ``sample`` with replacement. Resamples where ``statistic``
    is None are discarded; the CI is (point, point) if all are."""
    rng = np.random.default_rng(seed)
    boots = [statistic(rng.choice(sample, size=len(sample), replace=True))
             for _ in range(N_BOOTSTRAP)]
    boots = [b for b in boots if b is not None]
    if not boots:
        return float(point), float(point)
    # np.percentile(boots, [2.5, 97.5]) as its linear method computes it,
    # without its np.unique call, which imports numpy.ma
    boots, at = np.sort(boots), (len(boots) - 1) * np.array([0.025, 0.975])
    low = np.floor(at).astype(np.intp)
    a, b, t = boots[low], boots[np.minimum(low + 1, len(boots) - 1)], at - low
    ci_low, ci_high = np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)
    return float(ci_low), float(ci_high)


def hill_estimator(distribution, k, seed=42):
    """Hill estimate of mu from the k largest order statistics, with a
    seeded bootstrap percentile CI."""
    values = np.asarray(distribution.values, dtype=float)
    n = len(values)
    if k < MIN_TAIL_POINTS:
        raise InsufficientDataError(f"k={k} below floor of {MIN_TAIL_POINTS}")
    if k >= n:
        raise InsufficientDataError(f"k={k} must be < sample size {n}")

    def top_k_mu(sample):  # the k largest values, above the (k+1)-th
        sorted_desc = np.sort(sample)[::-1]
        return _pareto_mu(sorted_desc[:k], sorted_desc[k])

    mu = top_k_mu(values)
    if mu is None:
        raise DegenerateDataError("degenerate tail: tied order statistics")
    return TailFit("hill", float(mu), float(np.sort(values)[n - 1 - k]), k,
                   *_bootstrap_ci(values, top_k_mu, mu, seed))


def _ks_best_fit(values_sorted, candidates):
    """Scan candidate cutoffs; return (xmin, mu, k, ks) minimizing the KS
    distance of the fitted Pareto tail. Candidates leaving < MIN_TAIL_POINTS
    points or a degenerate tail are skipped."""
    best = None
    n = len(values_sorted)
    log_values = np.log(values_sorted)
    suffix_logsum = np.concatenate([np.cumsum(log_values[::-1])[::-1], [0.0]])
    for xmin in candidates:
        i = np.searchsorted(values_sorted, xmin, side="left")
        k = n - i
        if k < MIN_TAIL_POINTS:
            continue
        denom = suffix_logsum[i] - k * np.log(xmin)
        if denom <= 0:
            continue
        mu = k / denom
        tail = values_sorted[i:]
        # KS distance between empirical tail CDF and 1 - (x/xmin)^-mu
        fitted = 1.0 - (tail / xmin) ** (-mu)
        emp_hi = np.arange(1, k + 1) / k
        emp_lo = np.arange(0, k) / k
        ks = max(np.max(np.abs(emp_hi - fitted)), np.max(np.abs(emp_lo - fitted)))
        if best is None or ks < best[3]:
            best = (float(xmin), float(mu), int(k), float(ks))
    return best


def _candidate_cutoffs(values_sorted, max_candidates):
    eligible = values_sorted[: len(values_sorted) - MIN_TAIL_POINTS + 1]
    if len(eligible) > max_candidates:
        # rank-spaced decimation keeps the scan O(n * max_candidates / 2)
        idx = np.linspace(0, len(eligible) - 1, max_candidates).round().astype(int)
        eligible = eligible[_distinct(idx)]
    return _distinct(eligible)


def pareto_mle_fit(distribution, seed=42):
    """KS-minimizing Pareto MLE: for each candidate cutoff, fit mu by MLE on
    the tail, keep the cutoff with the smallest KS distance.

    The candidate set is decimated to at most 256 rank-spaced unique values
    to keep the scan tractable on large samples.
    The bootstrap CI resamples the tail at the chosen cutoff (cutoff
    re-selection is not repeated per resample).
    """
    values = np.sort(np.asarray(distribution.values, dtype=float))
    if len(values) < 50:
        raise InsufficientDataError("need at least 50 values for a cutoff-aware fit")
    candidates = _candidate_cutoffs(values, 256)
    best = _ks_best_fit(values, candidates)
    if best is None:
        raise InsufficientDataError(
            f"no cutoff leaves >= {MIN_TAIL_POINTS} usable tail points"
        )
    xmin, mu, k, _ = best
    return TailFit("pareto-mle", mu, xmin, k,
                   *_bootstrap_ci(values[len(values) - k:],
                                  lambda r: _pareto_mu(r, xmin), mu, seed))


def productivity_exponent(mu):
    """Per-member productivity exponent: 1/mu - 1 for mu < 1, else 0."""
    if mu <= 0:
        raise ValueError("tail exponent must be positive")
    return 1.0 / mu - 1.0 if mu < 1.0 else 0.0


def classify_regime(mu):
    if mu <= 0:
        raise ValueError("tail exponent must be positive")
    if mu < 0.5:
        return Regime.SUPERLINEAR_PRODUCTIVITY
    if mu < 1.0:
        return Regime.SUPERLINEAR_PRODUCTION
    return Regime.LINEAR_PRODUCTION
