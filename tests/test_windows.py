import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from scalemetrics.errors import DegenerateDataError, InsufficientDataError
from scalemetrics.windows import (
    DAY,
    FixedWindow,
    QuantileWindow,
    active_team_series,
    inter_commit_quantile,
    single_commit_share,
    team_windows,
)
from scalemetrics.windows import _distinct

from conftest import make_history, random_history, timed_histories


@given(st.lists(st.integers(-3, 3) | st.floats(-1e3, 1e3), max_size=20))
def test_distinct_is_np_unique(values):
    for array in (np.array(values, dtype=float), np.array(values).astype(np.int64)):
        assert _distinct(array).tolist() == np.unique(array).tolist()
        assert _distinct(array).dtype == np.unique(array).dtype


def test_quantile_single_gap():
    h = make_history([("a@x", 0), ("a@x", 10)])
    assert inter_commit_quantile(h, 0.9) == 10


def test_quantile_nearest_rank_oracle():
    # gaps 1..100: author commits at cumulative sums so consecutive
    # same-author gaps are exactly 1, 2, ..., 100
    ts, t = [], 0
    for g in range(0, 101):
        t += g
        ts.append(t)
    h = make_history([("a@x", t) for t in ts])
    gaps = sorted(range(1, 101))
    for q in (0.1, 0.5, 0.9, 0.99):
        expected = gaps[max(1, math.ceil(q * len(gaps))) - 1]
        assert inter_commit_quantile(h, q) == expected
    assert inter_commit_quantile(h, 0.9) == 90


def test_quantile_zero_gaps():
    h = make_history([("a@x", 5), ("a@x", 5), ("b@x", 7), ("b@x", 7)])
    assert inter_commit_quantile(h, 0.9) == 0


def test_quantile_requires_repeat_author():
    h = make_history([("a@x", 1), ("b@x", 2)])
    with pytest.raises(InsufficientDataError):
        inter_commit_quantile(h, 0.9)


def test_quantile_monotone_in_q(rng):
    h = random_history(rng, n_commits=60, n_authors=5)
    qs = [0.05, 0.2, 0.4, 0.6, 0.8, 0.95]
    values = [inter_commit_quantile(h, q) for q in qs]
    assert values == sorted(values)


def test_single_commit_window():
    h = make_history([("a@x", 100)])
    series = active_team_series(h, FixedWindow(5 * DAY))
    assert len(series) == 1
    assert series[0].n == 1


def test_two_commits_ten_days_apart():
    h = make_history([("a@x", 0), ("b@x", 10 * DAY)])
    series = active_team_series(h, FixedWindow(5 * DAY))
    assert [w.n for w in series] == [1, 0, 1]
    assert series[0].start_ts == 0
    assert series[1].start_ts == 5 * DAY
    wide = active_team_series(h, FixedWindow(30 * DAY))
    assert [w.n for w in wide] == [2]


def test_quantile_window_resolution():
    # same-author gaps pooled: a@x has gap 2d, so quantile window = 2d
    h = make_history([("a@x", 0), ("a@x", 2 * DAY), ("b@x", 3 * DAY)])
    series = active_team_series(h, QuantileWindow(0.9))
    assert series[0].end_ts - series[0].start_ts == 2 * DAY


def test_window_commit_conservation(rng):
    for _ in range(10):
        h = random_history(rng, n_commits=80, n_authors=6)
        series = active_team_series(h, FixedWindow(rng.uniform(1000, 30000)))
        assert sum(w.commit_count for w in series) == len(h)
        assert all(w.n <= len(h.authors) for w in series)


def test_longer_window_never_reduces_max_team(rng):
    h = random_history(rng, n_commits=100, n_authors=10)
    lengths = [2000.0, 10000.0, 50000.0, 200000.0]
    maxima = [
        max(w.n for w in active_team_series(h, FixedWindow(length)))
        for length in lengths
    ]
    assert maxima == sorted(maxima)


def test_share_no_single_authors():
    h = make_history([("a@x", 1), ("a@x", 2), ("b@x", 3), ("b@x", 4)])
    assert single_commit_share(h) == 0.0


def test_share_forty_percent():
    specs = [("core@x", i) for i in range(6)]
    specs += [(f"drive-by{i}@x", 100 + i) for i in range(4)]
    assert single_commit_share(make_history(specs)) == pytest.approx(0.4)


def test_share_all_single():
    h = make_history([(f"d{i}@x", i) for i in range(5)])
    assert single_commit_share(h) == 1.0


def _sparse_rows(team):
    return list(zip(team.start_ts.tolist(), team.end_ts.tolist(),
                    team.n.tolist(), team.commit_count.tolist()))


_ONE_COMMIT = (make_history([("a@x", 1.4e9)]), 0.1)
# one author, tied commits on the bounds t0 + k*0.3 of an epoch-sized t0
_ONE_AUTHOR = (make_history([("a@x", 1.4e9 + k * 0.3) for k in (0, 0, 1, 3, 3, 7)]), 0.3)


@settings(max_examples=300, deadline=None)
@given(timed_histories())
@example(_ONE_COMMIT)
@example(_ONE_AUTHOR)
def test_windows_match_loop_oracle(case):
    h, length = case
    dense = oracle.loop_active_team_series(h, FixedWindow(length))
    assert active_team_series(h, FixedWindow(length)) == dense
    team = team_windows(h, length)
    assert team.count == len(dense)
    assert _sparse_rows(team) == [(w.start_ts, w.end_ts, w.n, w.commit_count)
                                  for w in dense if w.n > 0]


@settings(max_examples=300, deadline=None)
@given(timed_histories(), st.sampled_from([0.05, 0.1, 0.5, 0.9, 0.99]))
@example(_ONE_COMMIT, 0.9)
@example(_ONE_AUTHOR, 0.5)
def test_quantile_and_share_match_loop_oracle(case, q):
    h, _ = case
    try:
        expected = oracle.loop_inter_commit_quantile(h, q)
    except InsufficientDataError:
        with pytest.raises(InsufficientDataError):
            inter_commit_quantile(h, q)
    else:
        assert inter_commit_quantile(h, q) == expected
        span = h.commits[-1].timestamp - h.commits[0].timestamp
        if expected > 0 and span / expected < 1000:  # a dense series of a size to list
            assert (active_team_series(h, QuantileWindow(q))
                    == oracle.loop_active_team_series(h, QuantileWindow(q)))
    assert single_commit_share(h) == oracle.loop_single_commit_share(h)
    assert (list(h.commits_per_author().items())
            == list(oracle.loop_commits_per_author(h).items()))


def test_windows_keep_only_nonempty():
    h = make_history([("a@x", 1000), ("b@x", 2000)])
    team = team_windows(h, 1e-6)
    assert team.count == 10**9 + 1
    assert team.index.tolist() == [0, 10**9]
    assert team.n.tolist() == [1, 1]


def test_dense_series_is_bounded():
    h = make_history([("a@x", 1000), ("b@x", 2000)])
    with pytest.raises(DegenerateDataError, match="more than 1000000"):
        active_team_series(h, FixedWindow(1e-6))


def test_window_count_bound_is_two_to_the_53():
    at_bound = make_history([("a@x", 0), ("b@x", 2**53 - 1)])
    assert team_windows(at_bound, 1.0).count == 2**53
    past = make_history([("a@x", 0), ("b@x", 2**53)])
    with pytest.raises(DegenerateDataError):
        team_windows(past, 1.0)
    with pytest.raises(DegenerateDataError):
        team_windows(make_history([("a@x", 0), ("b@x", 1e300)]), 5 * DAY)
