import math
import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import strategies as st

from scalemetrics.ingest import AuthorId, CommitRecord, ProjectHistory


@contextmanager
def no_rows():
    """Within the block, making a CommitRecord fails: for the paths that must
    work on a history's columns alone."""
    original = CommitRecord.__post_init__

    def refuse(self):
        raise AssertionError(f"a CommitRecord was made: {self.commit_id!r}")

    CommitRecord.__post_init__ = refuse
    try:
        yield
    finally:
        CommitRecord.__post_init__ = original


def make_commit(cid, email, ts, added=1, deleted=0, parents=1, payload=None):
    return CommitRecord(
        commit_id=cid,
        author=AuthorId.from_raw(email, ""),
        timestamp=float(ts),
        lines_added=added,
        lines_deleted=deleted,
        raw_email=email,
        raw_name="",
        parent_count=parents,
        diff_payload=payload,
    )


def make_history(specs, name="test"):
    """specs: iterable of (email, ts) or (email, ts, added, deleted)."""
    commits = [make_commit(f"c{i}", *spec) for i, spec in enumerate(specs)]
    return ProjectHistory.build(name, commits)


def random_history(rng, n_commits=50, n_authors=8, span=100_000.0, name="rand"):
    commits = [
        make_commit(
            f"r{i}",
            f"dev{rng.randrange(n_authors)}@x",
            rng.uniform(0, span),
            added=rng.randrange(0, 50),
            deleted=rng.randrange(0, 20),
        )
        for i in range(n_commits)
    ]
    return ProjectHistory.build(name, commits)


def random_payload_history(rng, n_commits=120, n_authors=60, span=400_000.0,
                           missing=0.1, name="payload"):
    """Random history whose commits carry short multi-byte diff payloads;
    a ``missing`` fraction carry none. Author activity is skewed, so a few
    frequent authors set the inter-commit gaps while many rare ones fill
    the tail of the per-author distribution."""
    alphabet = "abcé€"

    def text():
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))

    commits = [
        make_commit(
            f"p{i}",
            f"dev{int(n_authors * rng.random() ** 3)}@x",
            rng.uniform(0, span),
            added=rng.randrange(0, 50),
            deleted=rng.randrange(0, 20),
            payload=None if rng.random() < missing else tuple(
                (text(), text()) for _ in range(rng.randrange(0, 3))),
        )
        for i in range(n_commits)
    ]
    return ProjectHistory.build(name, commits)


# anchors near today's epoch seconds make (ts - t0) round; the short
# lengths are not binary fractions
T0S = (0.0, 1_400_000_000.0, 1_399_999_999.7)
LENGTHS = (0.1, 0.3, 1.0, 7.5, 5 * 86400.0)


@st.composite
def timed_histories(draw, max_commits=40):
    """(history, length): a history whose first commit is at t0 and whose
    others sit on window bounds t0 + k*length (often tied) or anywhere in
    the first dozen windows, by one to five authors."""
    t0 = draw(st.sampled_from(T0S))
    length = draw(st.sampled_from(LENGTHS))
    n_authors = draw(st.integers(1, 5))
    offsets = st.one_of(st.integers(0, 12).map(lambda k: k * length),
                        st.floats(0, 12 * length))
    specs = draw(st.lists(st.tuples(st.integers(0, n_authors - 1), offsets),
                          min_size=1, max_size=max_commits))
    specs[0] = (specs[0][0], 0.0)
    commits = [make_commit(f"h{i}", f"dev{a}@x", t0 + off, added=i % 7)
               for i, (a, off) in enumerate(specs)]
    return ProjectHistory.build("timed", commits), length


def productions_for(history):
    """Per-commit productions for ``history`` as ``commit_productions``
    gives them: a float64 array, nan where the measure is unavailable."""
    value = st.one_of(st.just(math.nan), st.sampled_from([0.0, 0.1, 1.0, 3.0]),
                      st.floats(0, 1e6))
    return st.lists(value, min_size=len(history), max_size=len(history)).map(
        lambda values: np.array(values, dtype=float))


@pytest.fixture
def rng():
    return random.Random(12345)
