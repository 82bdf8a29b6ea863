import random

import pytest

from scalemetrics.ingest import AuthorId, CommitRecord, ProjectHistory


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


@pytest.fixture
def rng():
    return random.Random(12345)
