import random

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import linregress

from scalemetrics import tails
from scalemetrics.cli import render_text
from scalemetrics.errors import DegenerateDataError, InsufficientDataError, ScaleMetricsError
from scalemetrics.metrics import ProductionMeasure
from scalemetrics.scaling import (
    _fit,
    fit_per_member,
    fit_scaling_exponent,
    log_bin,
    methodology_compare,
    ols,
)
from scalemetrics.simulate import simulate_zipf_growth
from scalemetrics.windows import FixedWindow, QuantileWindow

from conftest import make_history, random_history, random_payload_history
from oracle import (
    loop_log_bin,
    loop_usable,
    observations_of,
    per_member_trend,
    per_pass_author_totals,
    per_pass_window_observations,
    rows_of,
)


def obs_from(ns, ps):
    return observations_of([(i * 10.0, (i + 1) * 10.0, int(n), float(p))
                            for i, (n, p) in enumerate(zip(ns, ps))])


def test_log_bin_identical_n():
    obs = obs_from([7] * 6, [1, 2, 3, 4, 5, 6])
    binned = log_bin(obs, bins_per_decade=5)
    assert [column.tolist() for column in binned] == [[7.0], [3.5]]


def test_log_bin_one_point_per_decade():
    obs = obs_from([1, 10, 100], [5, 50, 500])
    assert len(log_bin(obs, bins_per_decade=1)[0]) == 3


# team sizes spread over six decades, several windows sharing each; P is
# zero in some windows, which the binning drops
_windows = st.lists(st.tuples(st.one_of(st.integers(1, 10**6), st.integers(1, 30)),
                              st.one_of(st.just(0.0), st.floats(0, 1e9))),
                    max_size=80)


@settings(max_examples=300, deadline=None)
@given(_windows, st.sampled_from([1, 5, 7, 2**53]))
@example([(1, 1.0), (10, 0.0), (10, 2.5), (999_999, 1e-300)], 2**53)
@example([(1, 2.0), (2, 2.0), (3, 2.0), (5, 2.0), (8, 2.0)], 7)  # r is nan
def test_log_bin_matches_loop_oracle(windows, bins_per_decade):
    # the columns are binned to the bit as the per-window loop binned them,
    # and both fits run _fit over the oracle's points
    obs = observations_of([(i * 10.0, (i + 1) * 10.0, n, p)
                           for i, (n, p) in enumerate(windows)])
    expected = loop_log_bin(obs, bins_per_decade)
    binned = log_bin(obs, bins_per_decade)
    assert list(zip(*(column.tolist() for column in binned))) == expected
    for use_binning, points in ((True, expected), (False, loop_usable(obs))):
        ns, ys = zip(*points) if points else ((), ())
        got = _outcome(fit_scaling_exponent, obs, use_binning=use_binning,
                       bins_per_decade=bins_per_decade)
        # repr: equal to the bit, nan included
        assert repr(got) == repr(_outcome(_fit, list(ns), list(ys), use_binning))


def test_binned_fit_equals_unbinned_on_noiseless_power_law():
    # one distinct n per bin keeps binned points exactly on the power law
    ns = [1, 10, 100, 1000, 10000]
    ps = [3.0 * n**1.5 for n in ns]
    obs = obs_from(ns * 2, ps * 2)
    raw = fit_scaling_exponent(obs, use_binning=False)
    binned = fit_scaling_exponent(obs, use_binning=True, bins_per_decade=1)
    assert binned.beta == pytest.approx(raw.beta, abs=1e-12)
    assert binned.beta == pytest.approx(1.5, abs=1e-12)


def test_noiseless_recovery():
    ns = list(range(1, 101))
    fit = fit_scaling_exponent(obs_from(ns, [3.0 * n**1.5 for n in ns]))
    assert fit.beta == pytest.approx(1.5, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.superlinear


def test_linear_null_not_flagged():
    ns = list(range(1, 101))
    fit = fit_scaling_exponent(obs_from(ns, [4.0 * n for n in ns]))
    assert fit.beta == pytest.approx(1.0, abs=1e-9)
    assert not fit.superlinear


def test_noisy_recovery_seeded():
    rng = np.random.default_rng(99)
    ns = rng.integers(1, 200, size=500)
    ps = ns**1.3 * rng.lognormal(0.0, 0.2, size=500)
    fit = fit_scaling_exponent(obs_from(ns, ps))
    assert fit.beta == pytest.approx(1.3, abs=0.05)
    assert fit.ci_low < 1.3 < fit.ci_high


def test_insufficient_and_degenerate_inputs():
    with pytest.raises(InsufficientDataError):
        fit_scaling_exponent(obs_from([1, 2, 3], [1, 2, 3]))
    with pytest.raises(DegenerateDataError):
        fit_scaling_exponent(obs_from([5] * 10, range(1, 11)))


def test_zero_production_windows_excluded():
    ns = list(range(1, 8))
    ps = [float(n) for n in ns]
    obs = obs_from(ns + [3, 4], ps + [0.0, 0.0])
    fit = fit_scaling_exponent(obs)
    assert fit.n_points == 7


def test_affine_invariance_in_log_space():
    rng = np.random.default_rng(5)
    ns = rng.integers(1, 50, size=100)
    ps = ns**0.8 * rng.lognormal(0, 0.1, size=100)
    f1 = fit_scaling_exponent(obs_from(ns, ps))
    f2 = fit_scaling_exponent(obs_from(ns, 17.0 * ps))
    assert f2.beta == pytest.approx(f1.beta, abs=1e-12)
    assert f2.intercept == pytest.approx(f1.intercept + np.log(17.0), abs=1e-9)


def test_per_member_slope_identity():
    # slope(ln(P/n) vs ln n) == slope(ln P vs ln n) - 1, exactly
    rng = np.random.default_rng(13)
    ns = rng.integers(1, 300, size=400)
    ps = ns**1.2 * rng.lognormal(0, 0.3, size=400)
    total = fit_scaling_exponent(obs_from(ns, ps))
    per_member, _ = fit_per_member(obs_from(ns, ps))
    assert per_member.beta == pytest.approx(total.beta - 1.0, abs=1e-9)


def test_methodology_compare_zipf_growth():
    history = simulate_zipf_growth(10.0, 0.5, seed=4)
    report, _ = methodology_compare(history, ProductionMeasure.COMMITS)
    fit = report["arm_a"]["fit"]
    assert fit is not None
    assert 0.4 <= fit["beta"] <= 0.7  # sublinear, near 1 - alpha
    assert fit["ci"][1] < 1.0
    slope = report["arm_b"]["per_member_slope"]
    assert slope is not None
    assert slope < 0  # mean per-member output falls with n
    assert report["min_commit_inequality_holds"]


def test_methodology_compare_single_author():
    h = make_history([("solo@x", i * 1000.0) for i in range(20)])
    report, _ = methodology_compare(h, ProductionMeasure.COMMITS)
    assert report["arm_a"]["fit"] is None
    error = report["arm_a"]["error"]
    assert "variance" in error or "5" in error
    assert report["single_commit_share"] == 0.0


def test_report_text_rendering():
    history = simulate_zipf_growth(10.0, 0.5, max_n=40, seed=4)
    report, _ = methodology_compare(history, ProductionMeasure.COMMITS)
    text = render_text(report)
    assert "arm A" in text and "arm B" in text
    assert "beta" in text


# ln of team sizes and productions, as fit_points passes them, or any floats
_log_sides = st.one_of(
    st.lists(st.integers(1, 10**6), min_size=5, max_size=60).map(np.log),
    st.lists(st.floats(-50, 50), min_size=5, max_size=60).map(np.asarray),
)
# y is one constant, or the first len(x) of 60 floats
_y_sides = st.one_of(st.floats(-50, 50), st.lists(st.floats(-50, 50), min_size=60,
                                                  max_size=60))


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=400, deadline=None)
@given(_log_sides, _y_sides)
@example(np.log([1.0, 2.0, 3.0, 5.0, 8.0]), [0.7, 1.1, 1.9, 2.2, 3.0])
@example(np.log([1.0, 2.0, 3.0, 5.0, 8.0]), 1.5)
def test_ols_matches_linregress(x, y):
    # scipy stays in the tests as the oracle the closed form is held to
    y = np.full(len(x), y) if isinstance(y, float) else np.asarray(y[:len(x)])
    assume(np.ptp(x) > 0)
    with np.errstate(all="ignore"):  # subnormal spreads: both divide by zero
        ref = linregress(x, y)
        got = ols(x, y)
    expected = (ref.slope, ref.intercept, ref.stderr, ref.rvalue)
    assert all(_same(g, e) for g, e in zip(got, expected)), (got, expected)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ScaleMetricsError as exc:
        return str(exc)


def test_methodology_compare_matches_per_pass_oracle(rng):
    # arm A, arm B, the P >= n check and the tail fits read one shared
    # per-commit pass; each must equal its own per-pass computation
    window = FixedWindow(20_000.0)
    for size in (200, 400):
        h = random_payload_history(rng, n_commits=size, n_authors=size // 3,
                                   span=size * 500.0)
        for measure in (ProductionMeasure.LEVENSHTEIN, ProductionMeasure.COMMITS,
                        ProductionMeasure.LOC_TOTAL):
            report, observations = methodology_compare(
                h, measure, fixed_window=window, quantile=0.5, use_binning=False,
                seed=3)
            obs_a, unavailable = per_pass_window_observations(h, window, measure)
            assert rows_of(observations) == rows_of(obs_a)
            assert report["unavailable_commits"] == unavailable
            fit = _outcome(fit_scaling_exponent, obs_a)
            arm_a = report["arm_a"]
            assert (arm_a["error"] == fit if isinstance(fit, str)
                    else arm_a["fit"] == fit.to_json())
            obs_b, _ = per_pass_window_observations(h, QuantileWindow(0.5), measure)
            trend = _outcome(per_member_trend, obs_b)
            arm_b = report["arm_b"]
            assert (arm_b["error"] if isinstance(trend, str) else
                    (arm_b["per_member_slope"], tuple(arm_b["per_member_slope_ci"]),
                     arm_b["mean_output_per_member"])) == trend
            dist = tails.ContributionDistribution(per_pass_author_totals(h, measure))
            k = max(tails.MIN_TAIL_POINTS, int(0.1 * len(dist.values)))
            expected = {"hill": _outcome(tails.hill_estimator, dist, k=k, seed=3),
                        "pareto-mle": _outcome(tails.pareto_mle_fit, dist, seed=3)}
            got = {**report["tails"], **report["tail_errors"]}
            assert got == {m: v if isinstance(v, str) else v.to_json()
                           for m, v in expected.items()}
            commit_obs, _ = per_pass_window_observations(h, window, ProductionMeasure.COMMITS)
            assert report["min_commit_inequality_holds"] == \
                all(p >= n for _, _, n, p in rows_of(commit_obs))


@pytest.mark.parametrize("estimator,kept,skipped", [
    ("hill", "hill", "pareto_mle_fit"),
    ("mle", "pareto-mle", "hill_estimator"),
])
@pytest.mark.parametrize("history", [
    simulate_zipf_growth(10.0, 0.5, seed=4),
    random_history(random.Random(5), n_commits=60, n_authors=20),  # MLE refuses
], ids=["zipf", "few-authors"])
def test_estimator_runs_only_the_selected_fit(history, estimator, kept, skipped,
                                              monkeypatch):
    both, _ = methodology_compare(history, ProductionMeasure.COMMITS)

    def not_selected(*args, **kwargs):
        raise AssertionError(f"{skipped} ran for --estimator {estimator}")

    monkeypatch.setattr(tails, skipped, not_selected)
    one, _ = methodology_compare(history, ProductionMeasure.COMMITS,
                                 estimator=estimator)
    for key in ("tails", "tail_errors", "regimes"):
        both[key] = {m: v for m, v in both[key].items() if m == kept}
    assert one == both
