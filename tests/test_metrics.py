import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalemetrics import metrics
from scalemetrics.errors import MeasureUnavailableError
from scalemetrics.ingest import ProjectHistory
from scalemetrics.metrics import (
    DEFAULT_CELL_BUDGET,
    ProductionMeasure,
    commit_productions,
    levenshtein_distance,
    observations_to_csv,
    series_observations,
    window_observations_with_coverage,
)
from scalemetrics.windows import DAY, FixedWindow, QuantileWindow, team_windows

from conftest import (
    make_commit,
    make_history,
    productions_for,
    random_history,
    random_payload_history,
    timed_histories,
)
from oracle import (
    commit_production,
    loop_series_observations,
    per_pass_window_observations,
    rows_of,
    two_row_levenshtein,
)

# a small byte alphabet keeps distances well below the maximum
_few_bytes = st.lists(st.sampled_from(b"ab\xc3\xa9\xff"), max_size=300).map(bytes)
# lengths either side of one and two 64-bit words
_word_edges = st.sampled_from([63, 64, 65, 127, 128, 129]).flatmap(
    lambda n: st.lists(st.sampled_from(b"abc"), min_size=n, max_size=n).map(bytes))
_byte_sides = st.one_of(st.binary(max_size=300), _few_bytes, _word_edges)
# at most 75 code points keeps a UTF-8 side within 300 bytes
_str_sides = st.one_of(st.text(max_size=75), st.text(alphabet="abé€😀", max_size=75))


def window_observations(history, definition, measure):
    return window_observations_with_coverage(history, definition, measure)[0]


def oracle_levenshtein(a, b):
    """Independent top-down memoized edit distance for small strings."""

    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            d(i - 1, j) + 1,
            d(i, j - 1) + 1,
            d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return d(len(a), len(b))


def test_lev_insertions_only():
    assert levenshtein_distance("", "abc") == 3


def test_lev_identity():
    for s in ["", "a", "kitten", "héllo"]:
        assert levenshtein_distance(s, s) == 0


def test_lev_kitten_sitting():
    assert levenshtein_distance("kitten", "sitting") == 3
    assert oracle_levenshtein("kitten", "sitting") == 3


def test_lev_matches_oracle_random_pairs():
    rng = random.Random(7)
    alphabet = "abcd"
    for _ in range(300):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
        assert levenshtein_distance(a, b) == oracle_levenshtein(a, b)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(_byte_sides, _byte_sides), st.tuples(_str_sides, _str_sides)))
def test_lev_matches_two_row_dp(pair):
    a, b = pair
    expected = two_row_levenshtein(a, b)
    assert levenshtein_distance(a, b) == expected
    assert levenshtein_distance(b, a) == expected


def test_lev_symmetry_and_triangle():
    rng = random.Random(11)
    alphabet = "abc"
    for _ in range(500):
        a, b, c = (
            "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 10)))
            for _ in range(3)
        )
        dab = levenshtein_distance(a, b)
        assert dab == levenshtein_distance(b, a)
        assert dab <= levenshtein_distance(a, c) + levenshtein_distance(c, b)
        assert (dab == 0) == (a == b)


def test_lev_size_cap(monkeypatch):
    # the budget bounds len(a) * len(b) in bytes: a pair one cell past it is
    # refused before the DP runs, either way round, two 1 MiB sides too,
    # and a pair with an empty side costs no cells
    side = "x" * 2**16
    assert len(side) ** 2 == DEFAULT_CELL_BUDGET
    for a, b in [(side, side + "y"), (side + "y", side), ("x" * 2**20, b"y" * 2**20)]:
        with pytest.raises(MeasureUnavailableError, match="cell budget"):
            levenshtein_distance(a, b)
    assert levenshtein_distance("", b"x" * 2**20) == 2**20
    monkeypatch.setattr(metrics, "DEFAULT_CELL_BUDGET", 12)
    assert levenshtein_distance("abc", b"abcd") == 1  # 12 cells
    for a, b in [("abc", "abcde"), ("é", "abcdefg")]:  # 15 cells; 14, "é" being 2 bytes
        with pytest.raises(MeasureUnavailableError, match="cell budget"):
            levenshtein_distance(a, b)


@pytest.mark.parametrize("side", [5, None, ["a"], memoryview(b"ab")])
def test_lev_rejects_non_text_sides(side):
    with pytest.raises(TypeError):
        levenshtein_distance(side, "ab")
    with pytest.raises(TypeError):
        levenshtein_distance("ab", side)
    assert levenshtein_distance(bytearray(b"ab"), "b") == 1


def _one_commit(commit, measure):
    """(the library's production of ``commit`` alone, its unavailable count)"""
    values, unavailable = commit_productions(ProjectHistory.build("t", [commit]), measure)
    return values.tolist(), unavailable


def test_commit_production_measures():
    c = make_commit("c1", "a@x", 1, added=5, deleted=2)
    for measure, expected in [(ProductionMeasure.COMMITS, 1), (ProductionMeasure.LOC_ADDED, 5),
                              (ProductionMeasure.LOC_DELETED, 2),
                              (ProductionMeasure.LOC_TOTAL, 7)]:
        assert commit_production(c, measure) == expected
        assert _one_commit(c, measure) == ([expected], 0)


def test_commit_production_levenshtein():
    c = make_commit("c1", "a@x", 1, payload=(("abc", "abd"), ("", "xy")))
    assert commit_production(c, ProductionMeasure.LEVENSHTEIN) == 3
    assert _one_commit(c, ProductionMeasure.LEVENSHTEIN) == ([3.0], 0)


def test_levenshtein_requires_payload():
    c = make_commit("c1", "a@x", 1)
    with pytest.raises(MeasureUnavailableError):
        commit_production(c, ProductionMeasure.LEVENSHTEIN)
    values, unavailable = _one_commit(c, ProductionMeasure.LEVENSHTEIN)
    assert np.isnan(values).all() and unavailable == 1


def test_single_commit_observation():
    h = make_history([("a@x", 0)])
    obs = window_observations(h, FixedWindow(5 * DAY), ProductionMeasure.COMMITS)
    assert rows_of(obs) == [(0.0, 5 * DAY, 1, 1.0)]


def test_window_counting():
    h = make_history([("a@x", 0), ("a@x", 100), ("b@x", 200)])
    obs = window_observations(h, FixedWindow(5 * DAY), ProductionMeasure.COMMITS)
    assert rows_of(obs) == [(0.0, 5 * DAY, 2, 3.0)]


def test_commits_production_at_least_n(rng):
    # each active author has >= 1 commit in the window by construction
    for _ in range(10):
        h = random_history(rng, n_commits=60, n_authors=8)
        obs = window_observations(
            h, FixedWindow(rng.uniform(2000, 20000)), ProductionMeasure.COMMITS
        )
        assert np.all(obs.production >= obs.n)


def test_production_additive_over_windows(rng):
    for measure in (ProductionMeasure.COMMITS, ProductionMeasure.LOC_TOTAL):
        h = random_history(rng, n_commits=50, n_authors=5)
        total = sum(commit_production(c, measure) for c in h.commits)
        obs = window_observations(h, FixedWindow(5000.0), measure)
        assert sum(obs.production.tolist()) == pytest.approx(total)


def test_unavailable_commits_counted_not_fatal():
    commits = [
        make_commit("c0", "a@x", 0, payload=(("ab", "ac"),)),
        make_commit("c1", "a@x", 10),  # no payload
    ]
    h = ProjectHistory.build("t", commits)
    obs, unavailable = window_observations_with_coverage(
        h, FixedWindow(5 * DAY), ProductionMeasure.LEVENSHTEIN
    )
    assert unavailable == 1
    assert obs.production.tolist() == [1.0]


def test_observations_match_per_pass_oracle(rng):
    # the shared per-commit pass windows the same production as one
    # commit_production call per commit per pass
    for _ in range(5):
        h = random_payload_history(rng)
        for measure in ProductionMeasure:
            for definition in (FixedWindow(20_000.0), QuantileWindow(0.9)):
                obs, unavailable = window_observations_with_coverage(h, definition,
                                                                     measure)
                expected, expected_unavailable = per_pass_window_observations(
                    h, definition, measure)
                assert (rows_of(obs), unavailable) == (rows_of(expected),
                                                       expected_unavailable)


def test_observations_csv_shape():
    h = make_history([("a@x", 0), ("b@x", 100)])
    obs = window_observations(h, FixedWindow(5 * DAY), ProductionMeasure.COMMITS)
    csv = observations_to_csv(obs, ProductionMeasure.COMMITS)
    lines = csv.strip().splitlines()
    assert lines[0] == "start_ts,end_ts,n,measure,production"
    assert lines[1].endswith("commits,2")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_series_observations_match_loop_oracle(data):
    h, length = data.draw(timed_histories())
    productions = data.draw(productions_for(h))
    assert (rows_of(series_observations(team_windows(h, length), productions))
            == rows_of(loop_series_observations(h, length, productions)))
