"""Slow reference implementations that the fast paths are tested against.

``two_row_levenshtein`` is the two-row dynamic program the bit-parallel
kernel replaced. ``commit_production`` is the row-at-a-time production
rule that ``metrics.commit_productions`` replaced, and the ``per_pass_*``
functions compute production the way the analysis did before each commit's
production was shared: one ``commit_production`` call per commit in every
pass. The ``loop_*`` functions are the per-commit Python loops that the
columnar index (``ProjectHistory.columns``) and its array passes replaced;
``loop_log_bin`` is the per-window loop that binned arm A's windows before
they were columns.
``per_member_trend`` is arm B's own copy of the fit, which arm B replaced
by the arm-A fit of ln(P/n) on ln n. ``loop_parse_jsonl``,
``loop_parse_commit_log`` and ``loop_write_jsonl`` are the row-by-row
parsers and writer that the columns-first history replaced: every record
becomes a ``CommitRecord`` through ``_record``, and the writer serialises
each row with ``json.dumps``. ``loop_branching_times`` is the event loop
that drew the branching stream one event at a time before it was drawn one
generation at a time.
"""

import json
import math
from collections import Counter
from dataclasses import replace
from operator import attrgetter

import numpy as np

from scalemetrics import simulate
from scalemetrics.errors import (
    DegenerateDataError,
    InsufficientDataError,
    MeasureUnavailableError,
)
from scalemetrics.errors import ParseError
from scalemetrics.ingest import (
    AuthorId,
    CommitRecord,
    ProjectHistory,
    _lines,
    _normalize_alias_map,
    _parse_numstat_field,
    _parse_payload,
)
from scalemetrics.metrics import Observations, ProductionMeasure, levenshtein_distance
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


def commit_production(commit, measure):
    """Production contributed by one commit under the given measure."""
    if measure is ProductionMeasure.COMMITS:
        return 1.0
    if measure is ProductionMeasure.LOC_ADDED:
        return float(commit.lines_added)
    if measure is ProductionMeasure.LOC_DELETED:
        return float(commit.lines_deleted)
    if measure is ProductionMeasure.LOC_TOTAL:
        return float(commit.lines_added + commit.lines_deleted)
    if measure is ProductionMeasure.LEVENSHTEIN:
        if commit.diff_payload is None:
            raise MeasureUnavailableError(
                f"commit {commit.commit_id} has no diff payload"
            )
        return float(
            sum(levenshtein_distance(o, n) for o, n in commit.diff_payload)
        )
    raise ValueError(f"unknown measure {measure!r}")


def observations_of(rows):
    """The :class:`Observations` columns of (start_ts, end_ts, n, production)
    rows."""
    start, end, n, production = zip(*rows) if rows else ((),) * 4
    return Observations(np.array(start, dtype=float), np.array(end, dtype=float),
                        np.array(n, dtype=np.intp), np.array(production, dtype=float))


def rows_of(observations):
    """The windows of ``observations`` as (start_ts, end_ts, n, production)
    tuples of Python numbers, which compare exactly."""
    return list(zip(*(column.tolist() for column in observations)))


def loop_usable(observations):
    """The (n, P) pairs of the windows with n >= 1 and P > 0."""
    return [(n, p) for _, _, n, p in rows_of(observations) if n >= 1 and p > 0]


def loop_log_bin(observations, bins_per_decade=5):
    """Geometric bins over n; within-bin arithmetic means of n and P, one
    (mean n, mean P) pair per bin."""
    bins = {}
    for n, p in loop_usable(observations):
        idx = math.floor(math.log10(n) * bins_per_decade + 1e-9)
        bins.setdefault(idx, []).append((n, p))
    out = []
    for idx in sorted(bins):
        members = bins[idx]
        out.append(
            (
                sum(n for n, _ in members) / len(members),
                sum(p for _, p in members) / len(members),
            )
        )
    return out


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
    points = [(n, p / n) for n, p in loop_usable(observations)]
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
    of windows of ``length`` seconds; non-empty windows only. A production
    that is None or nan is unavailable and skipped."""
    series = loop_active_team_series(history, FixedWindow(length))
    t0 = history.commits[0].timestamp
    count = len(series)
    production = [0.0] * count
    for c, p in zip(history.commits, productions):
        if p is not None and not math.isnan(p):
            idx = min(int((c.timestamp - t0) // length), count - 1)
            production[idx] += p
    return observations_of([
        (w.start_ts, w.end_ts, w.n, production[i])
        for i, w in enumerate(series)
        if w.n > 0
    ])


def loop_commits_per_author(history):
    counts = {}
    for c in history.commits:
        counts[c.author] = counts.get(c.author, 0) + 1
    return counts


def loop_single_commit_share(history):
    counts = loop_commits_per_author(history)
    return sum(1 for v in counts.values() if v == 1) / len(history)


def loop_author_totals(history, productions):
    """Positive per-author totals of the available ``productions`` (None or
    nan is unavailable), in the order of each author's first available commit."""
    totals = {}
    for c, p in zip(history.commits, productions):
        if p is not None and not math.isnan(p):
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


def loop_branching_times(model):
    """The sorted event times of ``model``'s stream, drawn in queue order:
    the immigrants by time, then each queued event's Poisson(eta) children,
    each child drawn when its parent leaves the queue; only the first
    ``simulate.DEFAULT_EVENT_CAP`` events are kept."""
    rng = np.random.default_rng(model.seed)
    n_imm = rng.poisson(model.immigrant_rate * model.horizon)
    times = list(np.sort(rng.random(min(n_imm, simulate.DEFAULT_EVENT_CAP))
                         * model.horizon))
    i = 0
    while i < len(times) <= simulate.DEFAULT_EVENT_CAP:
        k = rng.poisson(model.eta)
        children = times[i] + rng.exponential(model.offspring_delay_scale, size=k)
        times.extend(t for t in children if t <= model.horizon)
        i += 1
    return sorted(times[:simulate.DEFAULT_EVENT_CAP])


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


def _record(authors, line_no, commit_id, email, name, ts, added, deleted,
            parents=1, payload=None):
    """A CommitRecord; ``authors`` caches one AuthorId per raw (email, name)
    and per canonical key; a refused field is a ParseError on ``line_no``."""
    try:
        author = authors.get((email, name))
        if author is None:
            author = AuthorId.from_raw(email, name)
            author = authors[email, name] = authors.setdefault(author.canonical_key,
                                                               author)
        return CommitRecord(commit_id, author, float(ts), added, deleted, email,
                            name, parents, payload)
    except (ValueError, OverflowError) as exc:  # float() of a huge integer
        raise ParseError(str(exc), line=line_no) from None


def _build(project_name, commits, line_nos):
    """The records sorted by (timestamp, id); a duplicate id is a ParseError
    on the line of its second record."""
    seen = set()
    for c, line_no in zip(commits, line_nos):
        if c.commit_id in seen:
            raise ParseError(f"duplicate commit id {c.commit_id!r}", line=line_no)
        seen.add(c.commit_id)
    return ProjectHistory(project_name, tuple(sorted(
        commits, key=attrgetter("timestamp", "commit_id"))))


def loop_parse_commit_log(text, project_name="project", include_merges=False):
    """A header is a line that starts with "C|", every other line that is
    not blank a numstat row of the header before it; a record is made when
    the next header or the end is reached, or before its malformed row's
    error is raised, so that its own error, on its header line, comes first."""
    commits, line_nos = [], []
    authors = {}
    record = None  # [header_no, id, email, name, ts, added, deleted, parents]

    def close():
        if record is not None and (record[7] < 2 or include_merges):
            commits.append(_record(authors, *record))
            line_nos.append(record[0])

    for line_no, line in enumerate(_lines(text), start=1):
        if line.startswith("C|"):
            close()
            parts = line.split("|")
            if len(parts) != 6:
                raise ParseError(f"malformed header {line!r}", line=line_no)
            _, commit_id, email, name, ts_raw, parents_raw = parts
            if not commit_id:
                raise ParseError("empty commit id", line=line_no)
            try:
                record = [line_no, commit_id, email, name, float(ts_raw), 0, 0,
                          int(parents_raw)]
            except ValueError:
                raise ParseError(f"malformed header {line!r}", line=line_no) from None
        elif line.strip():
            try:
                if record is None:
                    raise ParseError(f"malformed header {line!r}", line=line_no)
                cols = line.split("\t")
                if len(cols) < 3:
                    raise ParseError(f"malformed numstat row {line!r}", line=line_no)
                record[5] += _parse_numstat_field(cols[0], line_no)
                record[6] += _parse_numstat_field(cols[1], line_no)
            except ParseError:
                close()
                raise
    close()
    return _build(project_name, commits, line_nos)


# the JSON types each record field may take; a bool is not an integer here
_FIELD_TYPES = {"id": (str,), "email": (str, type(None)), "name": (str, type(None)),
                "ts": (int, float), "added": (int,), "deleted": (int,), "parents": (int,)}


def loop_parse_jsonl(text, project_name="project", include_merges=False):
    commits, line_nos = [], []
    authors = {}
    for line_no, line in enumerate(_lines(text), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # also an integer past Python's digit limit
            raise ParseError(f"bad JSON: {getattr(exc, 'msg', exc)}",
                             line=line_no) from None
        if not isinstance(obj, dict) or "id" not in obj or "ts" not in obj:
            raise ParseError("record must be an object with 'id' and 'ts'", line=line_no)
        for key, types in _FIELD_TYPES.items():
            if key in obj and type(obj[key]) not in types:
                raise ParseError(f"bad {key!r}: {json.dumps(obj[key])}", line=line_no)
        files = obj.get("files")
        payload = None if files is None else _parse_payload(files, line_no)
        parents = obj.get("parents", 1)
        if parents >= 2 and not include_merges:
            continue
        commits.append(_record(authors, line_no, obj["id"], obj.get("email") or "",
                               obj.get("name") or "", obj["ts"], obj.get("added", 0),
                               obj.get("deleted", 0), parents, payload))
        line_nos.append(line_no)
    return _build(project_name, commits, line_nos)


def loop_write_jsonl(history):
    out = []
    for c in history.commits:
        email = c.raw_email
        if not email or AuthorId.normalize(email, c.raw_name) != c.author.canonical_key:
            email = c.author.canonical_key
        obj = {
            "id": c.commit_id,
            "email": email,
            "name": c.raw_name,
            "ts": c.timestamp,
            "added": c.lines_added,
            "deleted": c.lines_deleted,
        }
        if c.parent_count != 1:
            obj["parents"] = c.parent_count
        if c.diff_payload is not None:
            obj["files"] = [{"old": o, "new": n} for o, n in c.diff_payload]
        out.append(json.dumps(obj, sort_keys=False))
    return "\n".join(out) + ("\n" if out else "")


def first_line_format(text):
    """The input format ``analyze`` and ``ingest`` sniff: "log" if the first
    line that is not blank starts with "C|", else "jsonl"."""
    first = next((ln for ln in _lines(text) if ln.strip()), "")
    return "log" if first.startswith("C|") else "jsonl"
