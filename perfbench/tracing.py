"""Spans for the traced run, and the per-layer metrics derived from them.

The traced run calls each module's public functions in pipeline order, from
this file, and records one span around each call: name, start, end, parent
span and workload. Spans stay in memory until the run ends. Nothing inside
the package is edited; the one counter that needs the package's own calls
(Levenshtein calls per pair) wraps the module attribute for the duration of
an in-process ``cli.main`` call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from scalemetrics import cascades, ingest, metrics, scaling, simulate, tails, windows
from scalemetrics.errors import ScaleMetricsError

ARM_A = windows.FixedWindow(5 * windows.DAY)
QUANTILE = 0.9
BINS_PER_DECADE = 5

#: per-layer metrics: name -> (unit, better); a time metric "<span>_s" is
#: the summed duration of the spans named "<span>"
LAYER_METRICS = {
    "ingest.parse_jsonl_s": ("s", "lower"),
    "ingest.parse_commit_log_s": ("s", "lower"),
    "ingest.resolve_authors_s": ("s", "lower"),
    "ingest.write_jsonl_s": ("s", "lower"),
    "ingest.commits": ("count", "higher"),
    "ingest.authors": ("count", "higher"),
    "windows.active_team_series_s": ("s", "lower"),
    "windows.inter_commit_quantile_s": ("s", "lower"),
    "windows.arm_a_total": ("count", "lower"),
    "windows.arm_a_nonempty_ratio": ("ratio", "higher"),
    "windows.arm_b_total": ("count", "lower"),
    "windows.arm_b_nonempty_ratio": ("ratio", "higher"),
    "metrics.window_observations_s": ("s", "lower"),
    "metrics.levenshtein_s": ("s", "lower"),
    "metrics.lev_cells": ("count", "lower"),
    "metrics.lev_calls_per_pair": ("ratio", "lower"),
    "metrics.unavailable_commits": ("count", "lower"),
    "metrics.lev_mcells_per_s": ("Mcells/s", "higher"),
    "scaling.methodology_compare_s": ("s", "lower"),
    "scaling.fit_s": ("s", "lower"),
    "tails.distribution_s": ("s", "lower"),
    "tails.hill_s": ("s", "lower"),
    "tails.pareto_mle_s": ("s", "lower"),
    "cascades.default_tau_s": ("s", "lower"),
    "cascades.branching_ratio_s": ("s", "lower"),
    "cascades.count": ("count", "lower"),
    "simulate.branching_stream_s": ("s", "lower"),
    "simulate.events_per_s": ("events/s", "higher"),
    "cli.import_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.compare_jobs_speedup": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """In-memory span recorder for one workload's traced run."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self.counts = {}
        self._stack = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "workload": self.workload, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter() - self._origin
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def call(self, name, fn, *args, cli=False, **kwargs):
        """Run ``fn`` inside a span. ``cli`` marks a call that ``cli.main``
        makes itself, so its time is not counted as CLI self time. A layer
        that refuses the input (ScaleMetricsError) is recorded and yields
        None, as the CLI records it and carries on."""
        with self.span(name, cli=cli) as record:
            try:
                return fn(*args, **kwargs)
            except ScaleMetricsError as exc:
                record["error"] = str(exc)
                return None

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def total(self, name):
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


@contextmanager
def count_calls(module, attr):
    """Count calls that go through ``module.attr`` while the block runs.
    Yields None, and counts nothing, when the attribute does not exist."""
    original = getattr(module, attr, None)
    if original is None:
        yield None
        return
    counter = {"calls": 0}

    def counting(*args, **kwargs):
        counter["calls"] += 1
        return original(*args, **kwargs)

    setattr(module, attr, counting)
    try:
        yield counter
    finally:
        setattr(module, attr, original)


def _windows(tr, history, definition, arm):
    series = tr.call("windows.active_team_series", windows.active_team_series,
                     history, definition)
    if series is not None:
        tr.add(f"windows.arm_{arm}_total", len(series))
        tr.add(f"windows.arm_{arm}_nonempty", sum(1 for w in series if w.n > 0))


def _levenshtein_pass(tr, history):
    """One direct pass of the edit distance over every payload pair."""
    lev = getattr(metrics, "levenshtein_distance", None)
    pairs = [pair for c in history.commits if c.diff_payload
             for pair in c.diff_payload]
    tr.add("metrics.lev_pairs", len(pairs))
    tr.add("metrics.lev_cells", sum(len(a.encode()) * len(b.encode())
                                    for a, b in pairs))
    if lev is not None:
        tr.call("metrics.levenshtein",
                lambda: [lev(a, b) for a, b in pairs])


def trace_analysis(tr, path, measure_name, seed):
    """The layers ``analyze`` (and ``compare``, per project) run on one
    JSONL history, each called directly."""
    measure = metrics.ProductionMeasure.from_string(measure_name)
    with tr.span("project", project=path.stem):
        text = path.read_text(encoding="utf-8")
        parsed = tr.call("ingest.parse_jsonl", ingest.parse_jsonl, text,
                         project_name=path.stem, cli=True)
        history = tr.call("ingest.resolve_authors", ingest.resolve_authors,
                          parsed, cli=True)
        del parsed, text
        tr.add("ingest.commits", len(history))
        tr.add("ingest.authors", len(history.authors))
        _windows(tr, history, ARM_A, "a")
        tr.call("windows.inter_commit_quantile", windows.inter_commit_quantile,
                history, QUANTILE)
        _windows(tr, history, windows.QuantileWindow(QUANTILE), "b")
        observed = tr.call("metrics.window_observations",
                           metrics.window_observations_with_coverage,
                           history, ARM_A, measure)
        if observed is not None:
            tr.add("metrics.unavailable_commits", observed[1])
        _levenshtein_pass(tr, history)
        if observed is not None:
            tr.call("scaling.fit", lambda: (
                scaling.log_bin(observed[0], BINS_PER_DECADE),
                scaling.fit_scaling_exponent(observed[0], use_binning=True,
                                             bins_per_decade=BINS_PER_DECADE)))
        dist = tr.call("tails.distribution",
                       tails.ContributionDistribution.from_history,
                       history, measure)
        if dist is not None:
            k = max(tails.MIN_TAIL_POINTS, int(0.1 * len(dist.values)))
            tr.call("tails.hill", tails.hill_estimator, dist, k=k, seed=seed)
            tr.call("tails.pareto_mle", tails.pareto_mle_fit, dist, seed=seed)
        tr.call("scaling.methodology_compare", scaling.methodology_compare,
                history, measure, fixed_window=ARM_A, quantile=QUANTILE,
                use_binning=True, bins_per_decade=BINS_PER_DECADE, seed=seed,
                cli=True)
        tau = tr.call("cascades.default_tau", cascades.default_tau, history,
                      cli=True)
        if tau is not None:
            stats = tr.call("cascades.branching_ratio", cascades.branching_ratio,
                            history, tau, cli=True)
            if stats is not None:
                tr.add("cascades.count", stats.cascade_count)


def trace_write_path(tr, model, participants, participation_mu, log_path,
                     alias_map, drop_authors):
    """The layers ``simulate branching`` and ``ingest`` run, plus the
    round trip of the ingested JSONL through ``parse_jsonl``."""
    with tr.span("simulate"):
        result = tr.call("simulate.branching_stream",
                         simulate.simulate_branching_stream, model,
                         participants=participants,
                         participation_mu=participation_mu, cli=True)
        tr.add("simulate.events", result.events)
        tr.call("ingest.write_jsonl", ingest.write_jsonl, result.history, cli=True)
        del result
    with tr.span("ingest"):
        text = log_path.read_text(encoding="utf-8")
        parsed = tr.call("ingest.parse_commit_log", ingest.parse_commit_log,
                         text, project_name=log_path.stem, cli=True)
        history = tr.call("ingest.resolve_authors", ingest.resolve_authors,
                          parsed, alias_map=alias_map,
                          drop_authors=drop_authors, cli=True)
        tr.add("ingest.commits", len(history))
        tr.add("ingest.authors", len(history.authors))
        out = tr.call("ingest.write_jsonl", ingest.write_jsonl, history, cli=True)
    with tr.span("check"):
        tr.call("ingest.parse_jsonl", ingest.parse_jsonl, out)


def layer_metrics(tr):
    """Per-layer values from the spans and counts. A layer that did no work
    on this workload reads 0."""
    values = {name: tr.total(name[:-2]) for name in LAYER_METRICS
              if name.endswith("_s") and not name.startswith(("cli.", "trace."))}
    counts = tr.counts
    for name in ("ingest.commits", "ingest.authors", "windows.arm_a_total",
                 "windows.arm_b_total", "metrics.lev_cells",
                 "metrics.unavailable_commits", "cascades.count"):
        values[name] = counts.get(name, 0)
    for arm in "ab":
        total = counts.get(f"windows.arm_{arm}_total", 0)
        values[f"windows.arm_{arm}_nonempty_ratio"] = (
            counts.get(f"windows.arm_{arm}_nonempty", 0) / total if total else 0.0)
    lev_s = values["metrics.levenshtein_s"]
    values["metrics.lev_mcells_per_s"] = (
        counts.get("metrics.lev_cells", 0) / lev_s / 1e6
        if counts.get("metrics.lev_pairs") and lev_s else 0.0)
    sim_s = values["simulate.branching_stream_s"]
    values["simulate.events_per_s"] = (
        counts.get("simulate.events", 0) / sim_s if sim_s else 0.0)
    return values
