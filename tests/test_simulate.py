import hashlib

import numpy as np
import pytest
from scipy.stats import linregress

from scalemetrics import simulate
from scalemetrics.cli import main
from scalemetrics.ingest import parse_jsonl, write_jsonl
from scalemetrics.simulate import (
    BranchingModel,
    ZipfTeamModel,
    max_team_size,
    sample_pareto,
    simulate_branching_stream,
    simulate_heavy_tail_participation,
    simulate_sum_scaling,
    simulate_zipf_growth,
    zipf_asymptotic_check,
    zipf_total,
)


def test_zipf_paper_example_values():
    assert zipf_total(10, 0.5, 5) == pytest.approx(32.3167, abs=1e-3)
    assert zipf_total(10, 0.5, 25) == pytest.approx(86.3931, abs=1e-3)
    ratio = zipf_total(10, 0.5, 25) / zipf_total(10, 0.5, 5)
    assert ratio == pytest.approx(2.6733, abs=1e-3)


def test_zipf_single_contributor():
    assert zipf_total(7.0, 0.3, 1) == pytest.approx(7.0)


def test_zipf_total_matches_bruteforce():
    # oracle: plain python term-by-term summation
    for N, alpha, n in [(10, 0.5, 25), (3.0, 0.2, 7), (100, 0.9, 150)]:
        brute = sum(N / j**alpha for j in range(1, n + 1))
        assert zipf_total(N, alpha, n) == pytest.approx(brute, rel=1e-12)


def test_zipf_team_constraint_enforced():
    with pytest.raises(ValueError):
        ZipfTeamModel(N=10.0, alpha=0.5, n=101)
    ZipfTeamModel(N=10.0, alpha=0.5, n=100)  # boundary OK
    with pytest.raises(ValueError):
        ZipfTeamModel(N=10.0, alpha=1.5, n=5)
    # the bound is max_team_size's, an integer
    with pytest.raises(ValueError, match=r"N\^\(1/alpha\) = 26:"):
        ZipfTeamModel(N=10.0, alpha=0.7, n=27)
    for N in (0.5, 0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="N must be >= 1"):
            ZipfTeamModel(N=N, alpha=0.5, n=1)


def test_zipf_total_increasing_and_concave():
    totals = [zipf_total(10, 0.5, n) for n in range(1, 60)]
    diffs = np.diff(totals)
    assert np.all(diffs > 0)
    assert np.all(np.diff(diffs) < 0)


def test_max_team_size():
    assert max_team_size(10, 0.5) == 100
    assert max_team_size(1, 0.7) == 1
    # N^(1/alpha) must stay inside the float range
    assert max_team_size(2.0 ** 511, 0.5) == 2**1022
    for N in (np.inf, 1e308, 2.0 ** 512):
        with pytest.raises(ValueError, match="must be finite"):
            max_team_size(N, 0.5)
    # rank-25 member of the N=10, alpha=0.5 team contributes 2 commits
    assert 10 / 25**0.5 == pytest.approx(2.0)


def test_asymptotic_ratio_at_n1():
    for alpha in (0.2, 0.5, 0.8):
        ratios = zipf_asymptotic_check(10.0, alpha, [1])
        assert ratios[0] == pytest.approx(1 - alpha)


def test_asymptotic_ratios_approach_one():
    ns = [10, 100, 1000, 10**4, 10**5, 10**6]
    ratios = zipf_asymptotic_check(1.0, 0.5, ns)
    assert ratios == sorted(ratios)
    assert 0.99 <= ratios[-1] <= 1.01


def test_asymptotic_slope():
    ns = np.unique(np.logspace(2, 5, 20).astype(int)).tolist()
    totals = [zipf_total(400.0, 0.5, n) for n in ns]
    slope = linregress(np.log(ns), np.log(totals)).slope
    assert slope == pytest.approx(0.5, abs=0.02)


def test_sample_pareto_support_and_determinism():
    xs = sample_pareto(0.7, 2.0, 1000, seed=5)
    assert np.all(xs >= 2.0)
    assert np.array_equal(xs, sample_pareto(0.7, 2.0, 1000, seed=5))
    assert not np.array_equal(xs, sample_pareto(0.7, 2.0, 1000, seed=6))


def test_sample_pareto_ccdf():
    xs = sample_pareto(0.7, 1.0, 10**5, seed=8)
    empirical = np.mean(xs > 2.0)
    assert empirical == pytest.approx(2.0**-0.7, abs=0.01)


def test_sum_scaling_slopes():
    ns = np.unique(np.logspace(2, 4, 8).astype(int)).tolist()
    assert simulate_sum_scaling(0.5, ns, seed=42) == pytest.approx(2.0, abs=0.15)
    assert simulate_sum_scaling(1.5, ns, seed=42) == pytest.approx(1.0, abs=0.1)
    boundary = simulate_sum_scaling(1.0, ns, seed=42)
    assert 1.0 <= boundary <= 1.25  # logarithmic corrections at mu = 1


def test_branching_pure_poisson():
    model = BranchingModel(eta=0.0, immigrant_rate=0.01, offspring_delay_scale=1.0,
                           horizon=200_000.0, seed=3)
    result = simulate_branching_stream(model, participants=100, participation_mu=0.7)
    expected = model.immigrant_rate * model.horizon
    assert abs(result.events - expected) <= 3 * np.sqrt(expected)
    assert result.events == result.immigrants


def test_branching_cluster_size():
    model = BranchingModel(eta=0.5, immigrant_rate=0.005, offspring_delay_scale=1.0,
                           horizon=1_000_000.0, seed=9)
    result = simulate_branching_stream(model, participants=200, participation_mu=0.7)
    assert result.events / result.immigrants == pytest.approx(2.0, rel=0.1)


def test_branching_history_valid_and_roundtrips():
    model = BranchingModel(eta=0.3, immigrant_rate=0.01, offspring_delay_scale=5.0,
                           horizon=50_000.0, seed=1)
    result = simulate_branching_stream(model, participants=50, participation_mu=0.8)
    h = result.history
    ts = [c.timestamp for c in h.commits]
    assert ts == sorted(ts)
    assert len({c.commit_id for c in h.commits}) == len(h)
    h2 = parse_jsonl(write_jsonl(h), project_name=h.project_name)
    assert len(h2) == len(h)


@pytest.mark.parametrize("mu", [0.0, -1.0])
def test_branching_rejects_non_positive_participation_mu(mu):
    model = BranchingModel(eta=0.3, immigrant_rate=0.01, offspring_delay_scale=1.0,
                           horizon=1000.0, seed=1)
    with pytest.raises(ValueError, match="participation_mu"):
        simulate_branching_stream(model, participants=10, participation_mu=mu)


@pytest.mark.parametrize("make, message", [
    (lambda: simulate_zipf_growth(10, 0.5, window_length=-5.0),
     r"window_length must be positive, got -5 s"),
    (lambda: simulate_zipf_growth(10, 0.5, window_length=0.0), "window_length"),
    (lambda: simulate_heavy_tail_participation(0.7, window_length=-5.0), "window_length"),
    (lambda: simulate_heavy_tail_participation(0.7, window_length=np.nan), "window_length"),
    (lambda: BranchingModel(0.5, 1.0, 1.0, float("inf")), "horizon"),
    (lambda: BranchingModel(0.5, 1.0, 1.0, np.nan), "horizon"),
    (lambda: BranchingModel(0.5, 1.0, 1.0, 0.0), "horizon"),
])
def test_generators_refuse_bad_spans_before_drawing(make, message, monkeypatch):
    # a commit time that would be negative or past the float range is
    # refused as the parameter's error, before any random draw
    def refuse(*args):
        raise AssertionError("a generator drew before refusing its parameters")
    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(ValueError, match=message):
        make()


def test_branching_event_cap_truncates(monkeypatch):
    monkeypatch.setattr(simulate, "DEFAULT_EVENT_CAP", 5000)
    model = BranchingModel(eta=1.0, immigrant_rate=0.01, offspring_delay_scale=1.0,
                           horizon=10**7, seed=2)
    result = simulate_branching_stream(model, participants=10, participation_mu=0.9)
    assert result.truncated
    assert result.events <= 5000


@pytest.mark.parametrize("generate", [
    lambda: simulate_zipf_growth(10.0, 0.5, max_n=30, seed=0),
    lambda: simulate_heavy_tail_participation(0.7, n_windows=20, max_events=200, seed=5),
])
def test_history_generators_count_commits_exactly_before_drawing(generate, monkeypatch):
    commits = len(generate())
    monkeypatch.setattr(simulate, "DEFAULT_EVENT_CAP", commits)
    assert len(generate()) == commits
    monkeypatch.setattr(simulate, "DEFAULT_EVENT_CAP", commits - 1)
    with pytest.raises(ValueError, match=f"DEFAULT_EVENT_CAP = {commits - 1}"):
        generate()


def test_zipf_growth_generator_shape():
    h = simulate_zipf_growth(10.0, 0.5, max_n=30, seed=0)
    assert len(h.authors) == 30
    per_author = h.commits_per_author()
    # top contributor makes 10 commits per window it appears in
    top = max(per_author.values())
    assert top == 10 * 30


def test_heavy_tail_generator_deterministic():
    h1 = simulate_heavy_tail_participation(0.7, n_windows=20, max_events=200, seed=5)
    h2 = simulate_heavy_tail_participation(0.7, n_windows=20, max_events=200, seed=5)
    assert h1.commits == h2.commits


def test_generator_output_is_pinned(tmp_path, capsys):
    # the simulators write the benchmark's inputs: their bytes must not move
    branching = BranchingModel(eta=0.5, immigrant_rate=0.01, offspring_delay_scale=5.0,
                               horizon=20_000.0, seed=11)
    for history, commits, digest in [
        (simulate_zipf_growth(10.0, 0.5, max_n=20, seed=3), 977,
         "7bc52f662c1a1a753c56ff4a18a9eaab508ef86c712b4688b128a62bce07e710"),
        (simulate_heavy_tail_participation(0.7, n_windows=20, max_events=200, seed=5),
         1110, "deec0128b3fd4e1cb605ab9a8752ce8f73bf8c066b30b71ad8095e395441674b"),
        (simulate_branching_stream(branching, participants=50,
                                   participation_mu=0.8).history,
         313, "8c88f9727f1f0bf132c776e485044c659dd510eb32f35115629eaf52365e32b8"),
    ]:
        assert len(history) == commits
        assert hashlib.sha256(write_jsonl(history).encode()).hexdigest() == digest
        # one shared AuthorId per author
        assert len({id(c.author) for c in history.commits}) == len(history.authors)
    # the Pareto draws of sample_pareto and of the sum-scaling experiment
    for data, digest in [
        (sample_pareto(0.7, 1.0, 1000, seed=3).tobytes(),
         "c6cc2194781cf1ce2ec5895b77f740427e880792391145231bcafdc1d5c83913"),
        (repr(simulate_sum_scaling(0.7, [10, 100, 1000], seed=5)).encode(),
         "1e2454d97ab44eb6843f63c40ab4a7df03c8e33068aa28f1254b07f22e987783"),
    ]:
        assert hashlib.sha256(data).hexdigest() == digest
    # generators that draw no events write an empty history
    for argv in (["heavy-tail", "--windows", "0"],
                 ["branching", "--immigrant-rate", "1e-6", "--horizon", "10s"]):
        out = tmp_path / "empty.jsonl"
        assert main(["simulate", *argv, "-o", str(out)]) == 0
        assert out.read_text() == ""
        assert capsys.readouterr().err == "0 commits\n"
