"""Production-vs-team-size scaling fits and the two-methodology comparison.

Arm A ("fine-grained") fits ln P on ln n over short fixed windows (default
5 days) and asks whether total production grows superlinearly (beta > 1).
Arm B ("Scholtes-style") resolves a long window from the 0.9 quantile of
pooled inter-commit gaps and reports the trend of mean per-member output
P/n against n. The two arms answer different questions; the report says so
explicitly. Both run one estimator, :func:`_fit`: arm B is the arm-A fit of
ln(P/n) on ln n over its own windows, so the arms differ only in their
windows and in P versus P/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tails
from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    ScaleMetricsError,
)
from .metrics import commit_productions, series_observations
from .windows import (
    FixedWindow,
    QuantileWindow,
    resolve_window_length,
    single_commit_share,
    team_windows,
)

Z_95 = 1.959963984540054

__all__ = [
    "ScalingFit",
    "MethodologyReport",
    "ols",
    "log_bin",
    "fit_scaling_exponent",
    "fit_per_member",
    "fit_points",
    "methodology_compare",
]


@dataclass(frozen=True)
class ScalingFit:
    beta: float
    intercept: float  # log-space constant
    ci_low: float
    ci_high: float
    r_squared: float
    n_points: int
    binned: bool

    @property
    def superlinear(self):
        """True when the 95% CI on beta lies strictly above 1."""
        return self.ci_low > 1.0

    def to_json(self):
        return {
            "beta": self.beta,
            "intercept": self.intercept,
            "ci": [self.ci_low, self.ci_high],
            "r_squared": self.r_squared,
            "n_points": self.n_points,
            "binned": self.binned,
            "superlinear": self.superlinear,
        }


def _usable(observations):
    return [(o.n, o.production) for o in observations if o.n >= 1 and o.production > 0]


def log_bin(observations, bins_per_decade=5):
    """Geometric bins over n; within-bin arithmetic means of n and P."""
    points = _usable(observations)
    bins = {}
    for n, p in points:
        idx = math.floor(math.log10(n) * bins_per_decade + 1e-9)
        bins.setdefault(idx, []).append((n, p))
    out = []
    for idx in sorted(bins):
        members = bins[idx]
        out.append(
            (
                sum(n for n, _ in members) / len(members),
                sum(p for _, p in members) / len(members),
            )
        )
    return out


def ols(x, y):
    """Least-squares line of y on x: (slope, intercept, slope_stderr, r).

    The closed form of ``scipy.stats.linregress``, step for step, so the
    results agree to the bit: r is clamped to [-1, 1] and is nan when y is
    constant. ``x`` must hold at least three points, not all equal.
    """
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    intercept = np.mean(y) - slope * np.mean(x)
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2))
    return slope, intercept, stderr, r


def fit_points(ns, ps):
    """OLS of ln P on ln n over at least 5 points; raises on degenerate input."""
    ns = np.asarray(ns, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if len(ns) < 5:
        raise InsufficientDataError(f"need >= 5 usable observations, got {len(ns)}")
    log_n = np.log(ns)
    log_p = np.log(ps)
    if np.ptp(log_n) == 0:
        raise DegenerateDataError("zero variance in ln n")
    slope, intercept, se, r = ols(log_n, log_p)
    return slope, intercept, se if np.isfinite(se) else 0.0, r**2


def _fit(points, binned):
    """The one fit of both arms: OLS of ln y on ln n over the (n, y)
    ``points``, with the 95% CI from the normal approximation on the slope
    standard error."""
    beta, intercept, se, r2 = fit_points([n for n, _ in points], [y for _, y in points])
    return ScalingFit(
        beta=float(beta),
        intercept=float(intercept),
        ci_low=float(beta - Z_95 * se),
        ci_high=float(beta + Z_95 * se),
        r_squared=float(r2),
        n_points=len(points),
        binned=binned,
    )


def fit_scaling_exponent(observations, use_binning=False, bins_per_decade=5):
    """Arm A: fit P ~ n^beta by OLS on logs, optionally after logarithmic
    binning. Windows with n = 0 or P = 0 are excluded (log undefined)."""
    return _fit(log_bin(observations, bins_per_decade) if use_binning
                else _usable(observations), use_binning)


def fit_per_member(observations):
    """Arm B: the unbinned arm-A fit of ln(P/n) on ln n over the windows
    with n >= 1 and P > 0, and the mean P/n over the same points."""
    points = [(n, p / n) for n, p in _usable(observations)]
    return _fit(points, False), sum(r for _, r in points) / len(points)


@dataclass(frozen=True)
class MethodologyReport:
    """Side-by-side result of the two methodologies on one history.

    ``arm_a`` is the production-scaling fit over short fixed windows;
    ``arm_b`` is the per-member mean-output trend over the long
    quantile-resolved window. Either arm may be None with its failure
    reason recorded.
    """

    project_name: str
    measure: str
    arm_a: ScalingFit | None
    arm_a_error: str | None
    arm_a_window_length: float
    arm_b_slope: float | None  # slope of ln(P/n) on ln n
    arm_b_ci: tuple | None
    arm_b_mean_output_per_member: float | None
    arm_b_error: str | None
    arm_b_window_length: float | None
    tail_fits: dict  # method -> TailFit
    tail_errors: dict  # method -> reason
    regimes: dict  # method -> Regime value
    single_commit_share: float
    min_commit_inequality_holds: bool  # P(commits) >= n in every window
    unavailable_commits: int
    # arm A's non-empty windows, for observations.csv; not part of to_json
    arm_a_observations: tuple = field(default=(), repr=False, compare=False)

    def to_json(self):
        return {
            "project": self.project_name,
            "measure": self.measure,
            "arm_a": {
                "description": "production scaling: ln P vs ln n, short fixed windows",
                "window_length_seconds": self.arm_a_window_length,
                "fit": self.arm_a.to_json() if self.arm_a else None,
                "error": self.arm_a_error,
            },
            "arm_b": {
                "description": (
                    "Scholtes-style mean productivity: trend of ln(P/n) vs ln n, "
                    "quantile-resolved long windows"
                ),
                "window_length_seconds": self.arm_b_window_length,
                "per_member_slope": self.arm_b_slope,
                "per_member_slope_ci": list(self.arm_b_ci) if self.arm_b_ci else None,
                "mean_output_per_member": self.arm_b_mean_output_per_member,
                "error": self.arm_b_error,
            },
            "tails": {
                method: fit.to_json() for method, fit in sorted(self.tail_fits.items())
            },
            "tail_errors": dict(sorted(self.tail_errors.items())),
            "regimes": dict(sorted(self.regimes.items())),
            "single_commit_share": self.single_commit_share,
            "min_commit_inequality_holds": self.min_commit_inequality_holds,
            "unavailable_commits": self.unavailable_commits,
        }


TAIL_METHODS = {"hill": ("hill",), "mle": ("pareto-mle",),
                "both": ("hill", "pareto-mle")}


def _attempt(fn, *args, **kwargs):
    """(fn(*args, **kwargs), None), or (None, the reason) when ``fn``
    refuses the data: every step of :func:`methodology_compare` that may
    refuse is recorded this way."""
    try:
        return fn(*args, **kwargs), None
    except ScaleMetricsError as exc:
        return None, str(exc)


def _tail_fit(method, dist, seed):
    """The ``method`` tail fit of ``dist``, looked up in :mod:`.tails` when
    it runs."""
    if method == "hill":
        k = max(tails.MIN_TAIL_POINTS, int(0.1 * len(dist.values)))
        return tails.hill_estimator(dist, k=k, seed=seed)
    return tails.pareto_mle_fit(dist, seed=seed)


def methodology_compare(history, measure, fixed_window=None, quantile=0.9,
                        use_binning=True, bins_per_decade=5, seed=42,
                        estimator="both"):
    """Run both methodologies plus tail fits on the same history.

    Each commit's production is computed once and shared by arm A, arm B
    and the tail distribution; each arm windows the history once, keeping
    only its non-empty windows. ``estimator`` ("hill", "mle" or "both")
    selects the tail fits that are run; the Hill fit reads the top tenth
    (at least 10) of the per-author totals.
    """
    fixed_window = fixed_window or FixedWindow()
    team_a = team_windows(history, fixed_window.length)
    productions, unavailable = commit_productions(history, measure)
    obs_a = series_observations(team_a, productions)

    arm_a, arm_a_error = _attempt(fit_scaling_exponent, obs_a, use_binning=use_binning,
                                  bins_per_decade=bins_per_decade)

    arm_b = None
    arm_b_length, arm_b_error = _attempt(resolve_window_length, history,
                                         QuantileWindow(quantile))
    if arm_b_error is None:
        arm_b, arm_b_error = _attempt(lambda: fit_per_member(series_observations(
            team_windows(history, arm_b_length), productions)))
    arm_b_fit, arm_b_mean = arm_b or (None, None)

    dist, dist_error = _attempt(tails.ContributionDistribution.from_productions,
                                history, productions)
    tail_fits = {}
    tail_errors = {}
    for method in TAIL_METHODS[estimator]:
        fit, error = (None, dist_error) if dist is None else _attempt(
            _tail_fit, method, dist, seed)
        if error is None:
            tail_fits[method] = fit
        else:
            tail_errors[method] = error

    regimes = {
        method: tails.classify_regime(fit.mu).value
        for method, fit in tail_fits.items()
    }

    # P >= n under the commit-count measure: every active author has a commit
    inequality = bool(np.all(team_a.commit_count >= team_a.n))

    return MethodologyReport(
        project_name=history.project_name,
        measure=measure.value,
        arm_a=arm_a,
        arm_a_error=arm_a_error,
        arm_a_window_length=fixed_window.length,
        arm_b_slope=arm_b_fit and arm_b_fit.beta,
        arm_b_ci=arm_b_fit and (arm_b_fit.ci_low, arm_b_fit.ci_high),
        arm_b_mean_output_per_member=arm_b_mean,
        arm_b_error=arm_b_error,
        arm_b_window_length=arm_b_length,
        tail_fits=tail_fits,
        tail_errors=tail_errors,
        regimes=regimes,
        single_commit_share=single_commit_share(history),
        min_commit_inequality_holds=inequality,
        unavailable_commits=unavailable,
        arm_a_observations=tuple(obs_a),
    )
