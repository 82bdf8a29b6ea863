"""Slow reference implementations that the fast paths are tested against.

``two_row_levenshtein`` is the two-row dynamic program the bit-parallel
kernel replaced. The ``per_pass_*`` functions compute production the way
the analysis did before each commit's production was shared: one
``commit_production`` call per commit in every pass. The ``loop_*``
functions are the per-commit Python loops that the columnar index
(``ProjectHistory.columns``) and its array passes replaced.
``per_member_trend`` is arm B's own copy of the fit, which arm B replaced
by the arm-A fit of ln(P/n) on ln n.
"""

import math
from collections import Counter
from dataclasses import replace

from scalemetrics.errors import (
    DegenerateDataError,
    InsufficientDataError,
    MeasureUnavailableError,
)
from scalemetrics.ingest import AuthorId, ProjectHistory, _normalize_alias_map
from scalemetrics.metrics import WindowObservation, commit_production
from scalemetrics.scaling import Z_95, fit_points
from scalemetrics.windows import ActivityWindow, FixedWindow, QuantileWindow


def two_row_levenshtein(a, b):
    """Unit-cost edit distance, byte-level on UTF-8, by the two-row DP."""
    xs = a.encode("utf-8") if isinstance(a, str) else bytes(a)
    ys = b.encode("utf-8") if isinstance(b, str) else bytes(b)
    if len(xs) < len(ys):
        xs, ys = ys, xs
    if not ys:
        return len(xs)
    prev = list(range(len(ys) + 1))
    for i, cx in enumerate(xs, start=1):
        cur = [i] + [0] * len(ys)
        for j, cy in enumerate(ys, start=1):
            cur[j] = min(
                prev[j] + 1,  # delete
                cur[j - 1] + 1,  # insert
                prev[j - 1] + (cx != cy),  # substitute
            )
        prev = cur
    return prev[-1]


def per_pass_window_observations(history, definition, measure):
    """(observations, unavailable_commit_count) from a pass of its own."""
    productions = []
    for c in history.commits:
        try:
            productions.append(commit_production(c, measure))
        except MeasureUnavailableError:
            productions.append(None)
    length = loop_window_length(history, definition)
    return (loop_series_observations(history, length, productions),
            productions.count(None))


def per_pass_author_totals(history, measure):
    """Positive per-author production totals, first-commit order."""
    totals = {}
    for c in history.commits:
        try:
            p = commit_production(c, measure)
        except MeasureUnavailableError:
            continue
        totals[c.author] = totals.get(c.author, 0.0) + p
    values = tuple(v for v in totals.values() if v > 0)
    if not values:
        raise InsufficientDataError("no author has positive production")
    return values


def per_member_trend(observations):
    """(slope, CI, mean) of arm B: OLS of ln(P/n) on ln n over the windows
    with n >= 1 and P > 0, and the mean P/n over them."""
    points = [(o.n, o.production / o.n) for o in observations
              if o.n >= 1 and o.production > 0]
    if len(points) < 5:
        raise InsufficientDataError(
            f"need >= 5 usable observations, got {len(points)}"
        )
    ns, ratios = zip(*points)
    slope, _, se, _ = fit_points(ns, ratios)
    mean_ratio = sum(ratios) / len(ratios)
    return slope, (slope - Z_95 * se, slope + Z_95 * se), mean_ratio


def _nearest_rank(sorted_values, q):
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def loop_inter_commit_quantile(history, q):
    """Pooled same-author gaps, gathered per author in dicts and lists."""
    per_author = {}
    for c in history.commits:
        per_author.setdefault(c.author, []).append(c.timestamp)
    gaps = []
    for times in per_author.values():
        times.sort()
        gaps.extend(b - a for a, b in zip(times, times[1:]))
    if not gaps:
        raise InsufficientDataError("no author has two or more commits")
    gaps.sort()
    return _nearest_rank(gaps, q)


def loop_window_length(history, definition):
    if isinstance(definition, FixedWindow):
        return definition.length
    length = loop_inter_commit_quantile(history, definition.q)
    if length <= 0:
        raise DegenerateDataError("quantile window length is zero")
    return length


def loop_active_team_series(history, definition):
    """The dense window series, one set per window, filled commit by commit."""
    length = loop_window_length(history, definition)
    t0 = history.commits[0].timestamp
    t_last = history.commits[-1].timestamp
    count = int((t_last - t0) // length) + 1
    authors = [set() for _ in range(count)]
    commit_counts = [0] * count
    for c in history.commits:
        idx = min(int((c.timestamp - t0) // length), count - 1)
        authors[idx].add(c.author)
        commit_counts[idx] += 1
    return [
        ActivityWindow(
            start_ts=t0 + i * length,
            end_ts=t0 + (i + 1) * length,
            active_authors=frozenset(authors[i]),
            commit_count=commit_counts[i],
        )
        for i in range(count)
    ]


def loop_series_observations(history, length, productions):
    """Per-window production summed commit by commit over the dense series
    of windows of ``length`` seconds; non-empty windows only."""
    series = loop_active_team_series(history, FixedWindow(length))
    t0 = history.commits[0].timestamp
    count = len(series)
    production = [0.0] * count
    for c, p in zip(history.commits, productions):
        if p is not None:
            idx = min(int((c.timestamp - t0) // length), count - 1)
            production[idx] += p
    return [
        WindowObservation(w.start_ts, w.end_ts, w.n, production[i])
        for i, w in enumerate(series)
        if w.n > 0
    ]


def loop_commits_per_author(history):
    counts = {}
    for c in history.commits:
        counts[c.author] = counts.get(c.author, 0) + 1
    return counts


def loop_single_commit_share(history):
    counts = loop_commits_per_author(history)
    return sum(1 for v in counts.values() if v == 1) / len(history)


def loop_author_totals(history, productions):
    """Positive per-author totals of the available ``productions``, in the
    order of each author's first available commit."""
    totals = {}
    for c, p in zip(history.commits, productions):
        if p is not None:
            totals[c.author] = totals.get(c.author, 0.0) + p
    values = tuple(v for v in totals.values() if v > 0)
    if not values:
        raise InsufficientDataError("no author has positive production")
    return values


def loop_default_tau(history):
    ts = [c.timestamp for c in history.commits]
    gaps = sorted(b - a for a, b in zip(ts, ts[1:]))
    if not gaps:
        raise InsufficientDataError("need >= 2 commits to derive a gap threshold")
    tau = _nearest_rank(gaps, 0.1)
    if tau <= 0:
        raise InsufficientDataError("10th-percentile gap is zero; pass tau explicitly")
    return tau


def loop_cascade_groups(history, tau):
    """Commits split into runs wherever the gap to the previous one exceeds tau."""
    groups = [[history.commits[0]]]
    for prev, cur in zip(history.commits, history.commits[1:]):
        if cur.timestamp - prev.timestamp > tau:
            groups.append([cur])
        else:
            groups[-1].append(cur)
    return groups


def loop_cascade_size_distribution(history, tau):
    sizes = Counter(len(g) for g in loop_cascade_groups(history, tau))
    return tuple(sorted(sizes.items()))


def raw_key(commit):
    """The author key the commit's raw email (name fallback) normalises to;
    a copy of the rule in ``AuthorId``, so the oracle does not share it."""
    return ((commit.raw_email or "").strip().lower()
            or (commit.raw_name or "").strip().lower())


def loop_resolve_authors(history, alias_map=None, drop_authors=()):
    """A new record with a new AuthorId for every kept commit."""
    aliases = _normalize_alias_map(alias_map or {})
    drop = {str(a).strip().lower() for a in drop_authors}
    commits = []
    for c in history.commits:
        key = raw_key(c) or c.author.canonical_key
        while key in aliases:
            key = aliases[key]
        if key in drop:
            continue
        commits.append(replace(c, author=AuthorId(key)))
    return ProjectHistory.build(history.project_name, commits)
