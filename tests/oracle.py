"""Slow reference implementations that the fast paths are tested against.

``two_row_levenshtein`` is the two-row dynamic program the bit-parallel
kernel replaced. The ``per_pass_*`` functions compute production the way
the analysis did before each commit's production was shared: one
``commit_production`` call per commit in every pass.
"""

from scalemetrics.errors import InsufficientDataError, MeasureUnavailableError
from scalemetrics.metrics import WindowObservation, commit_production
from scalemetrics.windows import active_team_series


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
    series = active_team_series(history, definition)
    t0 = history.commits[0].timestamp
    length = series[0].end_ts - series[0].start_ts
    count = len(series)
    production = [0.0] * count
    unavailable = 0
    for c in history.commits:
        idx = min(int((c.timestamp - t0) // length), count - 1)
        try:
            production[idx] += commit_production(c, measure)
        except MeasureUnavailableError:
            unavailable += 1
    obs = [
        WindowObservation(w.start_ts, w.end_ts, w.n, production[i])
        for i, w in enumerate(series)
        if w.n > 0
    ]
    return obs, unavailable


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
