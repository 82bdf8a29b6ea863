import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from scalemetrics.cascades import branching_ratio, default_tau, detect_cascades
from scalemetrics.errors import InsufficientDataError
from scalemetrics.simulate import BranchingModel, simulate_branching_stream

from conftest import make_history, timed_histories


def history_at(times):
    return make_history([("a@x", t) for t in times])


def test_all_isolated():
    h = history_at([0, 100, 200, 300])
    cascades = detect_cascades(h, tau=10)
    assert [c.size for c in cascades] == [1, 1, 1, 1]
    stats = branching_ratio(h, tau=10)
    assert stats.eta_hat == 0.0


def test_single_cascade():
    h = history_at([0, 5, 9, 12])
    cascades = detect_cascades(h, tau=10)
    assert [c.size for c in cascades] == [4]
    stats = branching_ratio(h, tau=10)
    assert stats.eta_hat == pytest.approx(1 - 1 / 4)


def test_hand_partition():
    h = history_at([0, 1, 2, 100, 101])
    assert [c.size for c in detect_cascades(h, tau=10)] == [3, 2]


def test_partition_exhaustive_disjoint():
    h = history_at([0, 3, 7, 50, 51, 52, 200])
    cascades = detect_cascades(h, tau=10)
    ids = [cid for c in cascades for cid in c.commit_ids]
    assert sorted(ids) == sorted(c.commit_id for c in h.commits)
    assert len(set(ids)) == len(ids)
    stats = branching_ratio(h, tau=10)
    assert sum(s * c for s, c in stats.size_distribution) == stats.event_count


def test_translation_invariance():
    times = [0, 2, 30, 31, 90]
    a = [c.size for c in detect_cascades(history_at(times), tau=10)]
    b = [c.size for c in detect_cascades(history_at([t + 12345 for t in times]), tau=10)]
    assert a == b


def test_eta_hat_monotone_in_tau():
    h = history_at([0, 4, 9, 20, 22, 60, 95, 96])
    taus = [1, 3, 5, 12, 40, 100]
    etas = [branching_ratio(h, tau).eta_hat for tau in taus]
    assert etas == sorted(etas)


def test_recovers_generator_eta():
    for eta in (0.0, 0.3, 0.5, 0.8):
        model = BranchingModel(eta=eta, immigrant_rate=0.002,
                               offspring_delay_scale=1.0, horizon=1_000_000.0,
                               seed=11)
        result = simulate_branching_stream(model, participants=500,
                                           participation_mu=0.7)
        stats = branching_ratio(result.history, tau=5.0)
        assert stats.eta_hat == pytest.approx(eta, abs=0.1)


def test_false_trigger_control():
    # sparse Poisson stream with rate * tau << 1 yields eta_hat near zero
    model = BranchingModel(eta=0.0, immigrant_rate=0.001,
                           offspring_delay_scale=1.0, horizon=2_000_000.0, seed=4)
    result = simulate_branching_stream(model, participants=100, participation_mu=0.7)
    assert branching_ratio(result.history, tau=10.0).eta_hat < 0.1


def test_default_tau_tenth_percentile():
    times = [0]
    for g in range(1, 101):
        times.append(times[-1] + g)
    h = history_at(times)
    assert default_tau(h) == 10  # nearest-rank 10th percentile of gaps 1..100


def test_default_tau_requires_gaps():
    with pytest.raises(InsufficientDataError):
        default_tau(history_at([5]))


@pytest.mark.parametrize("tau", [0.0, -1.0, np.nan])
def test_tau_must_be_positive(tau):
    h = history_at([0, 1, 5])
    for fn in (detect_cascades, branching_ratio):
        with pytest.raises(ValueError, match="tau must be positive"):
            fn(h, tau)


def test_stats_json_schema():
    stats = branching_ratio(history_at([0, 1, 2, 50]), tau=10)
    js = stats.to_json()
    assert set(js) == {"tau", "cascades", "events", "eta_hat", "sizes"}
    assert js["sizes"] == {"1": 1, "3": 1}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cascades_match_loop_oracle(data):
    h, length = data.draw(timed_histories())
    try:
        expected_tau = oracle.loop_default_tau(h)
    except InsufficientDataError:
        with pytest.raises(InsufficientDataError):
            default_tau(h)
    else:
        assert default_tau(h) == expected_tau
    # thresholds equal to an actual gap test the strict "gap > tau"
    gaps = np.diff([c.timestamp for c in h.commits]).tolist()
    tau = data.draw(st.sampled_from([g for g in gaps if g > 0] + [length, 1e-9]))
    groups = oracle.loop_cascade_groups(h, tau)
    assert ([c.commit_ids for c in detect_cascades(h, tau)]
            == [tuple(c.commit_id for c in g) for g in groups])
    stats = branching_ratio(h, tau)
    assert stats.size_distribution == oracle.loop_cascade_size_distribution(h, tau)
    assert stats.cascade_count == len(groups)
