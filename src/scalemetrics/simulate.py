"""Synthetic generators and analytic oracles.

* the ranked-contribution (Zipf) team whose total S(n) = N * sum j^-alpha
  grows sublinearly in n with exponent 1 - alpha;
* heavy-tailed (Pareto) sampling and the sum-scaling experiment showing
  totals of n draws scale as n^(1/mu) for mu < 1 and as n for mu >= 1;
* a branching (cascade) commit-stream generator with Poisson immigrants
  and Poisson(eta) offspring, used end-to-end as an oracle for the
  cascade detector;
* deterministic commit-history builders (Zipf growth, heavy-tail
  participation) that emit the same history objects the ingest module
  produces, closing the loop for end-to-end tests.

Every Pareto draw goes through one inverse-CDF sampler. No generator makes
more than :data:`DEFAULT_EVENT_CAP` commits: each truncates or refuses
(ValueError) before it draws, as does a window length or horizon that would
put a commit time below 0 or past the float range. All three history
generators fill the history's columns directly, through the parsers' one
constructor (one shared :class:`~scalemetrics.ingest.AuthorId` per author),
and build each history once; none makes a commit record.

All generators take an integer seed; trials and windows draw from RNG
streams derived from (seed, task index) so results do not depend on
execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import ProjectHistory, _parsed
from .scaling import ols
from .windows import DAY, _distinct

#: the most events (commits) a generator makes; read when it runs
DEFAULT_EVENT_CAP = 10**6
AUTHOR_POOL = 100_000  # authors a heavy-tail participation history draws from

__all__ = [
    "ZipfTeamModel",
    "BranchingModel",
    "BranchingStreamResult",
    "zipf_total",
    "max_team_size",
    "zipf_asymptotic_check",
    "sample_pareto",
    "simulate_sum_scaling",
    "simulate_branching_stream",
    "simulate_zipf_growth",
    "simulate_heavy_tail_participation",
]


@dataclass(frozen=True)
class ZipfTeamModel:
    """Ranked-contribution team: member at rank j contributes N / j^alpha."""

    N: float
    alpha: float
    n: int

    def __post_init__(self):
        bound = max_team_size(self.N, self.alpha)  # checks N and alpha
        if self.n < 1:
            raise ValueError("team size must be >= 1")
        if self.n > bound:
            raise ValueError(
                f"n={self.n} violates n <= N^(1/alpha) = {bound}: the last "
                "member must contribute at least one commit"
            )

    def contributions(self):
        """Per-rank contributions N / j^alpha, j = 1..n (real-valued)."""
        ranks = np.arange(1, self.n + 1, dtype=float)
        return self.N * ranks ** (-self.alpha)

    def total(self):
        return float(np.sum(self.contributions()))


def zipf_total(N, alpha, n):
    """Exact partial sum S(n) = N * sum_{j=1..n} j^-alpha."""
    return ZipfTeamModel(N=N, alpha=alpha, n=n).total()


def max_team_size(N, alpha):
    """Largest n with N / n^alpha >= 1, i.e. floor(N^(1/alpha))."""
    if not N >= 1:
        raise ValueError("N must be >= 1")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    with np.errstate(over="ignore"):
        bound = np.float64(N) ** (1.0 / alpha)
    if bound == np.inf:
        raise ValueError(f"N^(1/alpha) must be finite, got N={N}, alpha={alpha}")
    return int(np.floor(bound + 1e-9))


def zipf_asymptotic_check(N, alpha, n_values):
    """Ratios S(n) / (N * n^(1-alpha) / (1-alpha)); approach 1 as n grows."""
    n_values = list(n_values)
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly increasing")
    n_max = max(n_values)
    partial = np.cumsum(np.arange(1, n_max + 1, dtype=float) ** (-alpha))
    return [
        float(N * partial[n - 1] / (N * n ** (1.0 - alpha) / (1.0 - alpha)))
        for n in n_values
    ]


def _pareto(rng, mu, size):
    """Pareto(mu) draws with xmin = 1 by inverse CDF, U^(-1/mu), P(X>x) = x^-mu;
    U = 1 - rng.random() is uniform on (0, 1], which keeps every draw finite."""
    return (1.0 - rng.random(size)) ** (-1.0 / mu)


def sample_pareto(mu, xmin, count, seed):
    """Inverse-CDF Pareto sampling: X = xmin * U^(-1/mu), P(X>x) = (x/xmin)^-mu."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    if xmin <= 0:
        raise ValueError("xmin must be positive")
    if count < 1:
        raise ValueError("count must be >= 1")
    return xmin * _pareto(np.random.default_rng(seed), mu, count)


def simulate_sum_scaling(mu, n_values, seed=42):
    """OLS slope of log median-total vs log n.

    For each n, the median over 100 trials of the sum of n Pareto(mu)
    draws. The median (not the mean) is used because for mu < 1 the mean
    is dominated by extremes and does not converge; the median of the sum
    still scales as n^(1/mu).
    """
    n_values = list(n_values)
    medians = []
    for i, n in enumerate(n_values):
        sums = np.sum(_pareto(np.random.default_rng([seed, i]), mu, (100, n)), axis=1)
        medians.append(float(np.median(sums)))
    slope, _, _, _ = ols(np.log(n_values), np.log(medians))
    return float(slope)


@dataclass(frozen=True)
class BranchingModel:
    """Poisson-immigrant branching stream with exponential offspring delays."""

    eta: float  # branching ratio: mean offspring per event
    immigrant_rate: float  # exogenous events per second
    offspring_delay_scale: float  # mean trigger delay, seconds
    horizon: float  # simulated duration, seconds
    seed: int = 42

    def __post_init__(self):
        if not 0 <= self.eta <= 1:
            raise ValueError("eta must be in [0, 1]")
        if not (0 < self.immigrant_rate < np.inf
                and 0 < self.offspring_delay_scale < np.inf):
            raise ValueError("rates and delay scales must be positive and finite")
        if not 0 < self.horizon < np.inf:
            raise ValueError("horizon must be positive and finite")


@dataclass(frozen=True)
class BranchingStreamResult:
    history: ProjectHistory
    immigrants: int
    events: int
    truncated: bool


def simulate_branching_stream(model, participants, participation_mu,
                              project_name="branching-sim"):
    """Simulate the cascade stream and emit it as a commit history.

    Immigrants arrive as a Poisson process on [0, horizon]; each event
    spawns Poisson(eta) offspring at exponential delays (offspring beyond
    the horizon are dropped). Events are attributed to ``participants``
    authors with Pareto(participation_mu)-weighted probabilities. At
    eta = 1 cluster sizes have infinite mean, so generation stops at
    :data:`DEFAULT_EVENT_CAP` events with ``truncated`` set; past that many
    immigrants, a uniform sample of them is drawn.
    """
    if not 1 <= participants <= DEFAULT_EVENT_CAP:
        raise ValueError("participants must be in [1, DEFAULT_EVENT_CAP = "
                         f"{DEFAULT_EVENT_CAP}], got {participants}")
    if participation_mu <= 0:
        raise ValueError("participation_mu must be positive")
    rng = np.random.default_rng(model.seed)
    n_imm = rng.poisson(model.immigrant_rate * model.horizon)
    truncated = n_imm > DEFAULT_EVENT_CAP
    times = list(np.sort(rng.random(min(n_imm, DEFAULT_EVENT_CAP)) * model.horizon))
    i = 0
    while i < len(times):
        if len(times) >= DEFAULT_EVENT_CAP:
            truncated = True
            break
        k = rng.poisson(model.eta)
        if k:
            children = times[i] + rng.exponential(model.offspring_delay_scale, size=k)
            times.extend(t for t in children if t <= model.horizon)
        i += 1
    times = sorted(times[:DEFAULT_EVENT_CAP])

    weights = _pareto(rng, participation_mu, participants)
    probs = weights / weights.sum()
    authors = rng.choice(participants, size=len(times), p=probs)
    return BranchingStreamResult(
        history=_sim_history(project_name, "sim", times, authors.tolist()),
        immigrants=int(n_imm),
        events=len(times),
        truncated=truncated,
    )


def _sim_history(project_name, prefix, times, authors):
    """History of one-line commits ``{prefix}-{i:07d}`` at ``times[i]`` by
    author ``dev{authors[i]}@sim``; commit i is line i + 1 of its JSONL."""
    ts = np.asarray(times, dtype=float)
    ids = [f"{prefix}-{i:07d}" for i in range(len(ts))]
    codes = {}
    identity = [codes.setdefault(a, len(codes)) for a in authors]
    identities = [(f"dev{a}@sim", f"dev {a}") for a in codes]
    n = len(ts)
    return _parsed(project_name, identities, [(
        range(1, n + 1), ids, ts, np.array(identity, dtype=np.intp),
        np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64), [1] * n, None)])


def _check_commit_count(commits):
    """Refuse a history of more than :data:`DEFAULT_EVENT_CAP` commits."""
    if commits > DEFAULT_EVENT_CAP:
        raise ValueError("the history would exceed DEFAULT_EVENT_CAP = "
                         f"{DEFAULT_EVENT_CAP} commits")


def _check_span(windows, window_length):  # else a commit time is negative or overflows
    if not window_length > 0:
        raise ValueError(f"window_length must be positive, got {window_length:g} s")
    if not np.isfinite(windows * window_length):
        raise ValueError(f"window_length = {window_length:g} s is too long: {windows} "
                         "windows of it pass the float range")


def _window_commits(window_idx, window_length, count, rng, first_window):
    """Timestamps inside window ``window_idx``, confined to its first 99%
    so downstream tumbling windows (anchored at the first commit) line up
    with the generator's. The very first window is pinned to start at 0."""
    base = window_idx * window_length
    ts = np.sort(base + rng.random(count) * window_length * 0.99)
    if first_window and len(ts):
        ts[0] = base
    return ts


def simulate_zipf_growth(N, alpha, max_n=None, window_length=5 * DAY, seed=42):
    """History whose w-th window holds a Zipf team of size w.

    In window w (w = 1..max_n) members 1..w are active and member j makes
    max(1, round(N / j^alpha)) commits, so per-window production tracks S(w)
    and the production-scaling fit recovers the sublinear exponent 1 - alpha.
    """
    if max_n is None:
        max_n = max_team_size(N, alpha)
    model = ZipfTeamModel(N=N, alpha=alpha, n=max_n)
    # rank j commits in windows j..max_n, at least once in each
    _check_commit_count(max_n * (max_n + 1) // 2)
    _check_span(max_n, window_length)
    per_rank = np.maximum(1, np.round(model.contributions()))
    _check_commit_count(np.sum(per_rank * np.arange(max_n, 0, -1)))
    per_rank = per_rank.astype(int)
    times, members = [], []
    for w in range(1, max_n + 1):
        rng = np.random.default_rng([seed, w])
        authors = np.repeat(np.arange(1, w + 1), per_rank[:w])
        ts = _window_commits(w - 1, window_length, len(authors), rng, w == 1)
        rng.shuffle(authors)
        times += ts.tolist()
        members += authors.tolist()
    return _sim_history("zipf-growth-sim", "zipf", times, members)


def simulate_heavy_tail_participation(mu, n_windows=60, min_events=5,
                                      max_events=2000, window_length=5 * DAY,
                                      seed=42, project_name="heavy-tail-sim"):
    """History with Zipf-weighted author participation of tail exponent mu.

    Per-window event counts are log-spaced between ``min_events`` and
    ``max_events``; every event is attributed to one of :data:`AUTHOR_POOL`
    authors with rank weights j^(-1/mu). The number of distinct authors
    among m draws then grows as m^mu, so total per-window production
    scales as n^(1/mu) in team size n: superlinear for mu < 1.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if n_windows < 0:
        raise ValueError(f"n_windows must be >= 0, got {n_windows}")
    if n_windows > DEFAULT_EVENT_CAP:
        raise ValueError(f"n_windows must be <= DEFAULT_EVENT_CAP = {DEFAULT_EVENT_CAP}")
    counts = _distinct(np.round(np.logspace(np.log10(min_events),
                                            np.log10(max_events), n_windows)))
    _check_commit_count(np.sum(counts))
    _check_span(len(counts), window_length)
    counts = counts.astype(int)
    order = np.random.default_rng([seed, 0]).permutation(len(counts))
    ranks = np.arange(1, AUTHOR_POOL + 1, dtype=float)
    probs = ranks ** (-1.0 / mu)
    probs /= probs.sum()
    times, members = [], []
    for w, count in enumerate(counts[order]):
        rng = np.random.default_rng([seed, w + 1])
        ts = _window_commits(w, window_length, int(count), rng, w == 0)
        times += ts.tolist()
        members += rng.choice(AUTHOR_POOL, size=int(count), p=probs).tolist()
    return _sim_history(project_name, "ht", times, members)
