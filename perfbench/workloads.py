"""Seeded inputs, CLI commands and output checks for the benchmark workloads.

Every input is generated here from the workload seed; the program only ever
sees the generated files and the command-line flags. Each workload knows
its commands (argument lists for ``python -m scalemetrics.cli``), how to
check one timed run's outputs, and how to replay its pipeline in-process,
layer by layer, for the traced run (see ``tracing.py``).
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import numpy as np

from scalemetrics import ingest, simulate
from scalemetrics.windows import DAY

from tracing import trace_analysis, trace_write_path

WINDOW = "5d"
COMPARE_JOBS = min(2, len(os.sched_getaffinity(0)))


def reference_levenshtein(a, b):
    """Textbook full-matrix edit distance on UTF-8 bytes; the oracle the
    lev-analyze check compares the CLI's window sums against."""
    xs, ys = a.encode("utf-8"), b.encode("utf-8")
    rows = [[0] * (len(ys) + 1) for _ in range(len(xs) + 1)]
    for i in range(len(xs) + 1):
        rows[i][0] = i
    for j in range(len(ys) + 1):
        rows[0][j] = j
    for i in range(1, len(xs) + 1):
        for j in range(1, len(ys) + 1):
            rows[i][j] = min(
                rows[i - 1][j] + 1,
                rows[i][j - 1] + 1,
                rows[i - 1][j - 1] + (xs[i - 1] != ys[j - 1]),
            )
    return rows[-1][-1]


def _write_history(history, path):
    path.write_text(ingest.write_jsonl(history), encoding="utf-8")


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _analyze_flags(measure, seed, fmt):
    return ["--measure", measure, "--window", WINDOW, "--seed", str(seed),
            "--format", fmt]


class Workload:
    """One benchmark workload: inputs under ``work_dir`` plus commands."""

    name = ""

    #: commits the timed command(s) consume, for commits_per_s
    commits = 0
    #: output files whose sha256 is recorded (information, not a gate)
    hashed_outputs = ()

    def __init__(self, seed, size, work_dir):
        self.seed = seed
        self.work_dir = Path(work_dir)

    def commands(self, out_dir):
        raise NotImplementedError

    def check(self, out_dir, stderr_texts):
        """Problems found in one run's outputs; empty when correct."""
        raise NotImplementedError

    def serial_commands(self, out_dir):
        """The same commands on one worker, where the workload has a
        parallel option; None otherwise."""
        return None

    def traced(self, tracer):
        """Replay the commands' pipeline in-process, one span per layer call."""
        raise NotImplementedError


class HeavyAnalyze(Workload):
    """One large heavy-tail history analysed by commit counts."""

    name = "heavy-analyze"

    MU = 0.7
    # |beta - 1/mu| allowed for the arm-A fit. At this size the fit sits
    # ~0.1 below 1/mu (finite-size bias) with a seed-to-seed sd of ~0.06.
    BETA_BAND = 0.35
    SIZES = {"full": dict(n_windows=400, min_events=12, max_events=1300),
             "toy": dict(n_windows=60, min_events=5, max_events=200)}
    hashed_outputs = ("report.json",)

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        history = simulate.simulate_heavy_tail_participation(
            self.MU, seed=seed, project_name="heavy", **self.SIZES[size])
        self.commits = len(history)
        self.input = self.work_dir / "heavy.jsonl"
        _write_history(history, self.input)

    def commands(self, out_dir):
        return [["analyze", str(self.input), "-o", str(out_dir),
                 *_analyze_flags("commits", self.seed, "json")]]

    def check(self, out_dir, stderr_texts):
        report = _read_json(out_dir / "report.json")
        fit = report["arm_a"]["fit"]
        if fit is None:
            return [f"arm A failed: {report['arm_a']['error']}"]
        if abs(fit["beta"] - 1 / self.MU) > self.BETA_BAND:
            return [f"arm-A beta {fit['beta']:.4f} outside "
                    f"{1 / self.MU:.4f} +- {self.BETA_BAND}"]
        return []

    def traced(self, tracer):
        trace_analysis(tracer, self.input, "commits", self.seed)


class LevAnalyze(Workload):
    """Two hundred commits with small diff payloads, measured by edit
    distance, so the Levenshtein dynamic program dominates."""

    name = "lev-analyze"

    N_WINDOWS = 36
    CORE = 8
    SIZES = {"full": dict(max_team=14, commits=200, min_len=60, max_len=180,
                          no_payload=6, sampled_windows=4),
             "toy": dict(max_team=12, commits=130, min_len=8, max_len=24,
                         no_payload=2, sampled_windows=2)}
    hashed_outputs = ("report.json",)

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        p = self.SIZES[size]
        rng = random.Random(seed)
        nrng = np.random.default_rng([seed, 1])
        teams = np.round(np.logspace(0, np.log10(p["max_team"]),
                                     self.N_WINDOWS)).astype(int)
        nrng.shuffle(teams)
        # A core of regular committers (short gaps, so arm B resolves a
        # short window) fills ~60% of each team; one-off authors, one
        # commit each, fill the rest and give the tail fits enough authors.
        weights = np.arange(1, self.CORE + 1) ** -0.5
        weights /= weights.sum()
        slots, core_slots, next_author = [], [], self.CORE
        for w, n in enumerate(teams):
            k = min(int(n), self.CORE, max(1, round(0.6 * n)))
            core = nrng.choice(self.CORE, size=k, replace=False, p=weights)
            core_slots.extend((w, int(a)) for a in core)
            slots.extend((w, a) for a in range(next_author, next_author + n - k))
            next_author += n - k
        slots += core_slots
        while len(slots) < p["commits"]:
            slots.append(rng.choice(core_slots))
        # stratified payload lengths keep the DP work nearly seed-independent
        lengths = np.linspace(p["min_len"], p["max_len"], len(slots)).round()
        nrng.shuffle(lengths)
        no_payload = set(rng.sample(range(len(slots)), p["no_payload"]))
        by_window = {}
        for i, (w, a) in enumerate(sorted(slots)):
            by_window.setdefault(w, []).append((i, a))
        records = []
        pairs_by_window = {}
        for w in sorted(by_window):
            group = by_window[w]
            ts = np.sort(w * 5 * DAY + nrng.random(len(group)) * 5 * DAY * 0.99)
            if w == 0:
                ts[0] = 0.0
            pairs = []
            for t, (i, a) in zip(ts, group):
                rec = {"id": f"lev-{i:05d}", "email": f"dev{a}@lev",
                       "name": f"dev {a}", "ts": float(t), "added": 1,
                       "deleted": 0}
                if i not in no_payload:
                    old, new = _edited_pair(rng, int(lengths[i]))
                    rec["files"] = [{"old": old, "new": new}]
                    pairs.append((old, new))
                records.append(rec)
            pairs_by_window[w] = pairs
        self.commits = len(records)
        self.no_payload = len(no_payload)
        self.input = self.work_dir / "lev.jsonl"
        self.input.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        self.team_sizes = [int(n) for n in teams]
        sample = rng.sample(range(self.N_WINDOWS), p["sampled_windows"])
        self.expected = {
            w: sum(reference_levenshtein(a, b) for a, b in pairs_by_window[w])
            for w in sample
        }

    def commands(self, out_dir):
        return [["analyze", str(self.input), "-o", str(out_dir),
                 *_analyze_flags("lev", self.seed, "json")]]

    def check(self, out_dir, stderr_texts):
        problems = []
        report = _read_json(out_dir / "report.json")
        if report["unavailable_commits"] != self.no_payload:
            problems.append(f"unavailable_commits {report['unavailable_commits']}"
                            f" != {self.no_payload} commits without payload")
        rows = (out_dir / "observations.csv").read_text().splitlines()[1:]
        if len(rows) != self.N_WINDOWS:
            return problems + [f"{len(rows)} observation rows, "
                               f"expected {self.N_WINDOWS}"]
        for w, expected in sorted(self.expected.items()):
            _, _, n, _, production = rows[w].split(",")
            if int(n) != self.team_sizes[w] or float(production) != expected:
                problems.append(f"window {w}: n={n} P={production}, reference "
                                f"n={self.team_sizes[w]} P={expected}")
        return problems

    def traced(self, tracer):
        trace_analysis(tracer, self.input, "lev", self.seed)


def _edited_pair(rng, length):
    """An ASCII text and a copy with one local edit (delete and insert a
    few bytes at one position)."""
    letters = "abcdefghijklmnopqrstuvwxyz     ()=;"
    old = "".join(rng.choice(letters) for _ in range(length))
    pos = rng.randrange(length)
    cut = rng.randint(0, 8)
    ins = "".join(rng.choice(letters) for _ in range(rng.randint(1, 8)))
    return old, old[:pos] + ins + old[pos + cut:]


class CorpusCompare(Workload):
    """Four mid-size projects analysed by ``compare``: two heavy-tail
    projects on either side of mu = 1/2 and two bursty branching streams."""

    name = "corpus-compare"

    SIZES = {"full": dict(ht=dict(n_windows=150, min_events=10, max_events=700),
                          events=25_000),
             "toy": dict(ht=dict(n_windows=40, min_events=20, max_events=800),
                         events=2_000)}
    # (project, generator, parameter, regime the generator implies)
    PROJECTS = (
        ("ht-mu030", "heavy-tail", 0.30, "superlinear-productivity"),
        ("ht-mu075", "heavy-tail", 0.75, "superlinear-production"),
        ("br-eta050", "branching", 0.50, "linear-production"),
        ("br-eta090", "branching", 0.90, "linear-production"),
    )
    PARTICIPANTS = 400
    PARTICIPATION_MU = 2.0
    DELAY_SCALE = 600.0
    hashed_outputs = ("summary.json",) + tuple(f"{p[0]}.report.json"
                                               for p in PROJECTS)

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        p = self.SIZES[size]
        self.corpus = self.work_dir / "corpus"
        self.corpus.mkdir()
        self.commits = 0
        for i, (name, kind, param, _) in enumerate(self.PROJECTS):
            if kind == "heavy-tail":
                history = simulate.simulate_heavy_tail_participation(
                    param, seed=seed + 1000 * i, project_name=name, **p["ht"])
            else:
                history = branching_prefix(param, p["events"], seed + 1000 * i,
                                           self.PARTICIPANTS,
                                           self.PARTICIPATION_MU,
                                           self.DELAY_SCALE, name)
            self.commits += len(history)
            _write_history(history, self.corpus / f"{name}.jsonl")

    def commands(self, out_dir, jobs=COMPARE_JOBS):
        return [["compare", str(self.corpus), "-o", str(out_dir),
                 "--jobs", str(jobs), *_analyze_flags("commits", self.seed, "text")]]

    def serial_commands(self, out_dir):
        return self.commands(out_dir, jobs=1)

    def check(self, out_dir, stderr_texts):
        summary = _read_json(out_dir / "summary.json")
        if summary["project_count"] != len(self.PROJECTS):
            return [f"project_count {summary['project_count']}"]
        rows = {row["project"]: row for row in summary["projects"]}
        problems = []
        for name, _, _, regime in self.PROJECTS:
            got = rows[name]["regimes"]
            if not got or set(got.values()) != {regime}:
                problems.append(f"{name}: regimes {got}, expected {regime}")
        return problems

    def traced(self, tracer):
        for path in sorted(self.corpus.glob("*.jsonl")):
            trace_analysis(tracer, path, "commits", self.seed)


def branching_prefix(eta, events, seed, participants, participation_mu,
                     delay_scale, name):
    """The first ``events`` commits of a branching stream, so the size of
    the history does not depend on the seed."""
    rate = 1 / 3600  # one immigrant an hour; twice the events needed
    model = simulate.BranchingModel(eta=eta, immigrant_rate=rate,
                                    offspring_delay_scale=delay_scale,
                                    horizon=2 * events * (1 - eta) / rate,
                                    seed=seed)
    result = simulate.simulate_branching_stream(model, participants,
                                                participation_mu, name)
    if len(result.history) < events:
        raise RuntimeError(f"branching stream gave {len(result.history)} "
                           f"< {events} events")
    return ingest.ProjectHistory(name, result.history.commits[:events])


class WritePath(Workload):
    """``simulate branching`` then ``ingest`` of a pinned-format log with
    merges, binary rows, chained aliases and a bot: the write side."""

    name = "write-path"

    SIZES = {"full": dict(sim_rate=0.005, log_commits=100_000, humans=2_000),
             "toy": dict(sim_rate=0.0002, log_commits=5_000, humans=200)}
    SIM_ETA = 0.5
    SIM_HORIZON = 10_000_000  # seconds
    SIM_PARTICIPANTS = 500
    SIM_PARTICIPATION_MU = 0.7
    BOT = "bot@ci"
    hashed_outputs = ("ingested.jsonl", "simulated.jsonl")

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        p = self.SIZES[size]
        self.sim_rate = p["sim_rate"]
        rng = random.Random(seed)
        n = p["log_commits"]
        humans = [f"dev{i}@corp.example" for i in range(p["humans"])]
        # chained aliases: legacy -> old -> canonical, for a tenth of the
        # humans and for the bot, whose commits are all dropped
        self.alias_map = {}
        identities = {h: [h] for h in humans + [self.BOT]}
        for h in humans[::10] + [self.BOT]:
            user, host = h.split("@")
            old, legacy = f"{user}.old@{host}", f"{user}.legacy@{host.upper()}"
            self.alias_map[old] = h
            self.alias_map[legacy] = old
            identities[h] += [old, legacy]
        weights = [1.0 / (r + 1) for r in range(len(humans))]
        authors = rng.choices(humans, weights=weights, k=n)
        bot_idx = set(rng.sample(range(n), n // 100))
        merge_idx = set(rng.sample(sorted(set(range(n)) - bot_idx), n // 50))
        ts = sorted(rng.randrange(1_400_000_000, 1_500_000_000) for _ in range(n))
        lines = []
        kept_authors = set()
        for i in range(n):
            canon = self.BOT if i in bot_idx else authors[i]
            email = rng.choice(identities[canon])
            parents = 2 if i in merge_idx else 1
            lines.append(f"C|{i:040x}|{email}|{canon.split('@')[0]}|{ts[i]}|{parents}")
            for _ in range(0 if parents == 2 else rng.randint(1, 4)):
                if rng.random() < 0.05:
                    lines.append(f"-\t-\tassets/img{rng.randrange(99)}.png")
                else:
                    lines.append(f"{rng.randrange(200)}\t{rng.randrange(80)}\t"
                                 f"src/mod{rng.randrange(500)}.py")
            lines.append("")
            if parents == 1 and canon != self.BOT:
                kept_authors.add(canon)
        self.log = self.work_dir / "history.log"
        self.log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.aliases = self.work_dir / "aliases.json"
        self.aliases.write_text(json.dumps(self.alias_map), encoding="utf-8")
        self.expected_commits = n - len(bot_idx) - len(merge_idx)
        self.expected_authors = len(kept_authors)
        self.commits = n

    def _simulate_args(self, out_dir):
        return ["simulate", "branching", "-o", str(out_dir / "simulated.jsonl"),
                "--eta", str(self.SIM_ETA), "--immigrant-rate", str(self.sim_rate),
                "--horizon", f"{self.SIM_HORIZON}s",
                "--participants", str(self.SIM_PARTICIPANTS),
                "--participation-mu", str(self.SIM_PARTICIPATION_MU),
                "--seed", str(self.seed)]

    def _ingest_args(self, out_dir):
        return ["ingest", str(self.log), "-o", str(out_dir / "ingested.jsonl"),
                "--alias-map", str(self.aliases), "--drop-author", self.BOT]

    def commands(self, out_dir):
        return [self._simulate_args(out_dir), self._ingest_args(out_dir)]

    def check(self, out_dir, stderr_texts):
        problems = []
        meta = _read_json(out_dir / "simulated.jsonl.meta.json")
        with open(out_dir / "simulated.jsonl", encoding="utf-8") as fh:
            sim_lines = sum(1 for _ in fh)
        if sim_lines != meta["events"]:
            problems.append(f"simulate wrote {sim_lines} lines for "
                            f"{meta['events']} events")
        text = (out_dir / "ingested.jsonl").read_text(encoding="utf-8")
        history = ingest.parse_jsonl(text)
        if len(history) != self.expected_commits:
            problems.append(f"round trip gave {len(history)} commits, expected "
                            f"{self.expected_commits}")
        if any("bot" in c.raw_email.lower() for c in history.commits):
            problems.append("dropped bot commits survived ingest")
        summary = stderr_texts[-1].strip().splitlines()[-1]
        expected = f"{self.expected_commits} commits, {self.expected_authors} authors"
        if not summary.startswith(expected):
            problems.append(f"ingest summary {summary!r}, expected {expected!r}")
        return problems

    def traced(self, tracer):
        model = simulate.BranchingModel(
            eta=self.SIM_ETA, immigrant_rate=self.sim_rate,
            offspring_delay_scale=1.0, horizon=float(self.SIM_HORIZON),
            seed=self.seed)
        trace_write_path(tracer, model, self.SIM_PARTICIPANTS,
                         self.SIM_PARTICIPATION_MU, self.log, self.alias_map,
                         [self.BOT])


WORKLOADS = {w.name: w for w in (HeavyAnalyze, LevAnalyze, CorpusCompare, WritePath)}
