import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalemetrics.errors import DegenerateDataError, InsufficientDataError
from scalemetrics.metrics import ProductionMeasure
from scalemetrics.simulate import sample_pareto
from scalemetrics.tails import (
    N_BOOTSTRAP,
    ContributionDistribution,
    Regime,
    ccdf,
    classify_regime,
    hill_estimator,
    pareto_mle_fit,
    productivity_exponent,
)
from scalemetrics.tails import _bootstrap_ci, _candidate_cutoffs, _ks_best_fit

from conftest import make_history, productions_for, timed_histories
from oracle import loop_author_totals


def dist(values):
    return ContributionDistribution(tuple(float(v) for v in values))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_distribution_values_must_be_positive(bad):
    with pytest.raises(ValueError, match="> 0"):
        dist([1.0, bad])


def test_ccdf_all_equal():
    assert ccdf(dist([1, 1, 1])) == [(1.0, 0.0)]


def test_ccdf_direct_count():
    points = dict(ccdf(dist([1, 2, 4])))
    assert points[1.0] == pytest.approx(2 / 3)
    assert points[2.0] == pytest.approx(1 / 3)
    assert points[4.0] == 0.0


def test_ccdf_point_masses_sum_to_one():
    values = [1, 1, 2, 3, 3, 3, 9]
    points = ccdf(dist(values))
    masses = [1.0 - points[0][1]] + [
        points[i - 1][1] - points[i][1] for i in range(1, len(points))
    ]
    assert sum(masses) == pytest.approx(1.0)
    assert all(m > 0 for m in masses)
    ps = [p for _, p in points]
    assert ps == sorted(ps, reverse=True)


def test_hill_on_exact_pareto_grid():
    # quantile grid X_i = (i/n)^(-1/mu) makes the Hill estimate land near mu
    n, mu = 1000, 1.0
    values = [(i / n) ** (-1 / mu) for i in range(1, n + 1)]
    fit = hill_estimator(dist(values), k=100)
    assert 0.9 <= fit.mu <= 1.1


def test_hill_on_simulated_pareto():
    values = sample_pareto(0.7, 1.0, 10**5, seed=7)
    fit = hill_estimator(dist(values), k=10**4, seed=1)
    assert fit.mu == pytest.approx(0.7, abs=0.05)
    assert fit.ci_low < fit.mu < fit.ci_high


def test_hill_scale_invariance():
    values = sample_pareto(0.8, 1.0, 2000, seed=3)
    f1 = hill_estimator(dist(values), k=200, seed=0)
    f2 = hill_estimator(dist(values * 10.0), k=200, seed=0)
    assert f2.mu == pytest.approx(f1.mu, rel=1e-12)


def test_hill_rejects_small_k_and_ties():
    values = sample_pareto(1.0, 1.0, 100, seed=0)
    with pytest.raises(InsufficientDataError):
        hill_estimator(dist(values), k=5)
    with pytest.raises(InsufficientDataError):
        hill_estimator(dist(values), k=100)
    with pytest.raises(DegenerateDataError):
        hill_estimator(dist([2.0] * 100), k=10)


def test_mle_on_pure_pareto():
    values = sample_pareto(0.8, 1.0, 10**4, seed=3)
    fit = pareto_mle_fit(dist(values), seed=1)
    assert fit.mu == pytest.approx(0.8, abs=0.08)
    assert fit.xmin < 3.0  # true cutoff is 1
    assert fit.k >= 10


def test_mle_scale_invariance():
    values = sample_pareto(0.9, 1.0, 2000, seed=5)
    f1 = pareto_mle_fit(dist(values), seed=0)
    f2 = pareto_mle_fit(dist(values * 100.0), seed=0)
    assert f2.mu == pytest.approx(f1.mu, rel=1e-9)
    assert f2.xmin == pytest.approx(f1.xmin * 100.0, rel=1e-9)


def test_mle_spliced_lognormal_body():
    # lognormal body below 100, Pareto(mu=0.8) tail spliced at x=100
    rng = np.random.default_rng(17)
    body = rng.lognormal(mean=2.5, sigma=1.0, size=9000)
    body = body[body < 100][:8000]
    tail = sample_pareto(0.8, 100.0, 1000, seed=23)
    values = np.concatenate([body, tail])
    fit = pareto_mle_fit(dist(values), seed=2)
    assert fit.xmin >= 50.0
    assert fit.mu == pytest.approx(0.8, abs=0.15)


def test_mle_matches_brute_force_ks_scan():
    # oracle: naive KS evaluation at every candidate, no shared prefix sums
    values = np.sort(sample_pareto(0.9, 1.0, 400, seed=9))
    candidates = _candidate_cutoffs(values, 10**9)
    best = _ks_best_fit(values, candidates)

    def naive_ks(xmin):
        tail = np.sort(values[values >= xmin])
        k = len(tail)
        denom = float(np.sum(np.log(tail / xmin)))
        if k < 10 or denom <= 0:
            return None
        mu = k / denom
        fitted = 1.0 - (tail / xmin) ** (-mu)
        steps_hi = np.arange(1, k + 1) / k
        steps_lo = np.arange(0, k) / k
        return mu, max(np.max(np.abs(steps_hi - fitted)),
                       np.max(np.abs(steps_lo - fitted)))

    scanned = [(x, *naive_ks(x)) for x in candidates if naive_ks(x) is not None]
    oracle_xmin, oracle_mu, oracle_ks = min(scanned, key=lambda t: t[2])
    assert best[0] == pytest.approx(oracle_xmin)
    assert best[1] == pytest.approx(oracle_mu)
    assert best[3] == pytest.approx(oracle_ks)


def test_mle_requires_enough_values():
    with pytest.raises(InsufficientDataError):
        pareto_mle_fit(dist(sample_pareto(1.0, 1.0, 30, seed=0)))


def test_estimators_agree_on_pure_pareto():
    values = sample_pareto(0.7, 1.0, 10**4, seed=42)
    d = dist(values)
    hill = hill_estimator(d, k=1000, seed=0)
    mle = pareto_mle_fit(d, seed=0)
    assert hill.ci_low <= mle.mu <= hill.ci_high or mle.ci_low <= hill.mu <= mle.ci_high


def test_tailfit_json_schema():
    values = sample_pareto(0.7, 1.0, 1000, seed=0)
    fit = hill_estimator(dist(values), k=100)
    js = fit.to_json()
    assert set(js) == {"method", "mu", "xmin", "k", "ci"}
    assert js["ci"][0] <= js["ci"][1]


def test_productivity_exponent_values():
    assert productivity_exponent(1.0) == 0.0
    assert productivity_exponent(0.5) == pytest.approx(1.0)
    assert productivity_exponent(0.8) == pytest.approx(0.25)
    assert productivity_exponent(1.5) == 0.0
    for mu in (0.0, np.nan):
        with pytest.raises(ValueError):
            productivity_exponent(mu)


def test_productivity_exponent_continuous_and_decreasing():
    assert productivity_exponent(1.0 - 1e-12) == pytest.approx(0.0, abs=1e-9)
    mus = [0.3, 0.5, 0.7, 0.9, 0.999]
    values = [productivity_exponent(m) for m in mus]
    assert values == sorted(values, reverse=True)


def test_classify_regime_boundaries():
    assert classify_regime(0.4) is Regime.SUPERLINEAR_PRODUCTIVITY
    assert classify_regime(0.5) is Regime.SUPERLINEAR_PRODUCTION
    assert classify_regime(0.8) is Regime.SUPERLINEAR_PRODUCTION
    assert classify_regime(1.0) is Regime.LINEAR_PRODUCTION
    assert classify_regime(1.2) is Regime.LINEAR_PRODUCTION
    for mu in (-1.0, np.nan):
        with pytest.raises(ValueError):
            classify_regime(mu)


def test_distribution_from_history():
    h = make_history([("a@x", 0, 5, 0), ("a@x", 1, 5, 0), ("b@x", 2, 3, 0)])
    d = ContributionDistribution.from_history(h, ProductionMeasure.COMMITS)
    assert sorted(d.values) == [1.0, 2.0]
    d2 = ContributionDistribution.from_history(h, ProductionMeasure.LOC_ADDED)
    assert sorted(d2.values) == [3.0, 10.0]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_author_totals_match_loop_oracle(data):
    h, _ = data.draw(timed_histories())
    productions = data.draw(productions_for(h))
    try:
        expected = loop_author_totals(h, productions)
    except InsufficientDataError:
        with pytest.raises(InsufficientDataError):
            ContributionDistribution.from_productions(h, productions)
    else:
        # in the order of each author's first available commit
        assert (ContributionDistribution.from_productions(h, productions).values
                == expected)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0, 1e6) | st.sampled_from([0.5, 2.0]), min_size=1,
                max_size=N_BOOTSTRAP))
def test_bootstrap_ci_is_numpy_percentile(boots):
    # the CI is np.percentile(boots, [2.5, 97.5]), the None resamples dropped
    statistics = iter(boots + [None] * (N_BOOTSTRAP - len(boots)))
    ci = _bootstrap_ci(np.zeros(2), lambda sample: next(statistics), 0.0, seed=1)
    assert ci == tuple(np.percentile(boots, [2.5, 97.5]).tolist())
