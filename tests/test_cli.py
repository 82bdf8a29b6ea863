import json
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import scalemetrics
from scalemetrics import (
    cascades, cli, ingest, metrics, scaling, simulate, tails, windows,
)
from scalemetrics.cli import main, parse_duration
from scalemetrics.errors import ConfigError
from scalemetrics.metrics import csv_number

REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "project", "measure", "arm_a", "arm_b", "tails", "regimes",
        "single_commit_share", "min_commit_inequality_holds", "cascades",
        "config",
    ],
    "properties": {
        "project": {"type": "string"},
        "measure": {"type": "string"},
        "arm_a": {
            "type": "object",
            "required": ["description", "window_length_seconds", "fit", "error"],
            "properties": {
                "fit": {
                    "type": ["object", "null"],
                    "required": ["beta", "intercept", "ci", "r_squared",
                                 "n_points", "binned", "superlinear"],
                },
            },
        },
        "arm_b": {
            "type": "object",
            "required": ["description", "per_member_slope", "error"],
        },
        "tails": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["method", "mu", "xmin", "k", "ci"],
            },
        },
        "single_commit_share": {"type": "number", "minimum": 0, "maximum": 1},
        "cascades": {"type": "object"},
    },
}

SUMMARY_SCHEMA = {
    "type": "object",
    "required": ["projects", "regime_counts", "project_count"],
    "properties": {
        "projects": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["project", "beta", "superlinear", "regimes",
                             "single_commit_share"],
            },
        },
        "regime_counts": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 0},
        },
        "project_count": {"type": "integer", "minimum": 0},
    },
}


def test_parse_duration():
    assert parse_duration("5d") == 5 * 86400
    assert parse_duration("12h") == 12 * 3600
    assert parse_duration("90") == 90
    with pytest.raises(ConfigError):
        parse_duration("5x")
    with pytest.raises(ConfigError):
        parse_duration("-3d")
    for text in ("nan", "inf", "-inf", "infd", "1e308d"):
        with pytest.raises(ConfigError):
            parse_duration(text)


def test_window_nan_is_usage_error(tmp_path, capsys):
    src = tmp_path / "h.jsonl"
    src.write_text('{"id": "a", "email": "a@x", "ts": 1}\n')
    assert main(["analyze", str(src), "-o", str(tmp_path / "out"),
                 "--window", "nan"]) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "compare"])
@pytest.mark.parametrize("flags", [
    ["--quantile", "1.5"], ["--quantile", "0"], ["--quantile", "nan"],
    ["--tau", "nan"], ["--tau", "inf"], ["--tau", "0"], ["--tau", "-5"],
    ["--bins-per-decade", "-1"], ["--window", "0"], ["--seed", "-1"],
])
def test_out_of_range_analysis_flag_is_usage_error(command, flags, tmp_path, capsys):
    src = tmp_path / "h.jsonl"
    src.write_text("".join(f'{{"id": "c{i}", "email": "a@x", "ts": {i * 1000}}}\n'
                           for i in range(10)))
    # every flag is checked before the input is read, even a missing one
    for target in (src if command == "analyze" else tmp_path, tmp_path / "missing"):
        assert main([command, str(target), "-o", str(tmp_path / "out"), *flags]) == 1
        assert flags[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_seed_is_usage_error(tmp_path, capsys, monkeypatch):
    out = tmp_path / "sim.jsonl"
    assert main(["simulate", "branching", "-o", str(out), "--seed", "-3"]) == 1
    assert "--seed" in capsys.readouterr().err
    monkeypatch.setenv("SCALEMETRICS_SEED", "-3")
    for argv in (["simulate", "branching", "-o", str(out)],
                 ["analyze", str(tmp_path / "missing.jsonl")],
                 ["compare", str(tmp_path)]):
        assert main(argv) == 1
        assert "SCALEMETRICS_SEED" in capsys.readouterr().err
    assert not out.exists()


def test_package_root_exports_every_public_name():
    # the 41 names the package root listed by hand before it re-exported
    # each module's __all__
    listed = {
        "branching_ratio", "detect_cascades", "AuthorId", "CommitRecord",
        "ProjectHistory", "parse_commit_log", "parse_jsonl", "resolve_authors",
        "write_jsonl", "ProductionMeasure", "WindowObservation",
        "commit_production", "levenshtein_distance", "window_observations",
        "MethodologyReport", "ScalingFit", "fit_scaling_exponent", "log_bin",
        "methodology_compare", "BranchingModel", "ZipfTeamModel",
        "max_team_size", "sample_pareto", "simulate_branching_stream",
        "simulate_sum_scaling", "zipf_asymptotic_check", "zipf_total",
        "ContributionDistribution", "Regime", "TailFit", "ccdf",
        "classify_regime", "hill_estimator", "pareto_mle_fit",
        "productivity_exponent", "ActivityWindow", "FixedWindow",
        "QuantileWindow", "active_team_series", "inter_commit_quantile",
        "single_commit_share",
    }
    modules = (cascades, ingest, metrics, scaling, simulate, tails, windows)
    public = {name: m for m in modules for name in m.__all__}
    assert len(public) == sum(len(m.__all__) for m in modules)  # none shared
    assert len(listed) == 41 and listed <= set(public)
    for name, module in public.items():
        assert getattr(scalemetrics, name) is getattr(module, name), name


def _run_limited(argv, cwd):
    """``scalemetrics`` in a child process limited to 1 GiB of address
    space and 60 s, so that a runaway window count fails the test instead
    of exhausting the host."""
    src = str(Path(scalemetrics.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")

    def limit():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, "-m", "scalemetrics.cli", *argv],
                          cwd=cwd, env=env, preexec_fn=limit, timeout=60,
                          capture_output=True, text=True)


def test_tiny_window_keeps_only_nonempty_windows(tmp_path):
    src = tmp_path / "two.jsonl"
    src.write_text('{"id": "a", "email": "a@x", "ts": 1000}\n'
                   '{"id": "b", "email": "b@x", "ts": 2000}\n')
    run = _run_limited(["analyze", str(src), "-o", "out", "--window", "1e-6s"],
                       tmp_path)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    rows = (tmp_path / "out" / "observations.csv").read_text().splitlines()
    assert len(rows) == 1 + 2


def test_huge_timestamp_is_a_data_error(tmp_path):
    src = tmp_path / "huge.jsonl"
    src.write_text('{"id": "a", "email": "a@x", "ts": 0}\n'
                   '{"id": "b", "email": "a@x", "ts": 1e300}\n')
    run = _run_limited(["analyze", str(src), "-o", "out"], tmp_path)
    assert run.returncode == 2, run.stderr
    assert "Traceback" not in run.stderr
    assert "2**53 windows" in run.stderr


def test_cli_import_loads_no_scipy():
    src = str(Path(scalemetrics.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, scalemetrics.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_ingest_empty_file(tmp_path, capsys):
    src = tmp_path / "empty.log"
    src.write_text("")
    assert main(["ingest", str(src), "-o", str(tmp_path / "out.jsonl")]) == 0
    assert "0 commits" in capsys.readouterr().err


def test_ingest_malformed_header_exit_2(tmp_path, capsys):
    src = tmp_path / "bad.log"
    src.write_text("garbage line\n")
    assert main(["ingest", str(src), "--input-format", "log"]) == 2
    assert "line 1" in capsys.readouterr().err


def test_usage_error_exit_1():
    assert main(["analyze"]) == 1
    assert main(["no-such-command"]) == 1


def test_simulate_zipf_sidecar(tmp_path):
    out = tmp_path / "zipf.jsonl"
    assert main(["simulate", "zipf", "--N", "10", "--alpha", "0.5",
                 "--team-size", "25", "-o", str(out)]) == 0
    meta = json.loads(out.with_suffix(".jsonl.meta.json").read_text())
    assert meta["S"] == pytest.approx(86.3931, abs=1e-3)
    assert meta["alpha"] == 0.5
    assert meta["expected_beta"] == 0.5


def test_simulate_rejects_invalid_team(tmp_path, capsys):
    out = tmp_path / "bad.jsonl"
    code = main(["simulate", "zipf", "--N", "10", "--alpha", "0.5",
                 "--team-size", "101", "-o", str(out)])
    assert code == 2
    assert "N^(1/alpha)" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["heavy-tail", "--windows", "-3"], "n_windows must be >= 0, got -3"),
    (["branching", "--immigrant-rate", "inf"], "positive and finite"),
    (["branching", "--immigrant-rate", "nan"], "positive and finite"),
    (["branching", "--delay-scale", "inf"], "positive and finite"),
    # no generator draws past its event cap (10**6 commits)
    (["heavy-tail", "--windows", "10000000"], "DEFAULT_EVENT_CAP = 1000000"),
    (["heavy-tail", "--windows", "1000000"], "DEFAULT_EVENT_CAP = 1000000"),
    (["zipf", "--N", "1e6", "--alpha", "0.1"], "DEFAULT_EVENT_CAP = 1000000"),
    (["zipf", "--N", "1000", "--team-size", "1000"], "DEFAULT_EVENT_CAP = 1000000"),
    (["zipf", "--N", "inf"], "N^(1/alpha) must be finite"),
    (["zipf", "--N", "1e308"], "N^(1/alpha) must be finite"),
    (["zipf", "--team-size", "3", "--N", "1e300"], "N^(1/alpha) must be finite"),
])
def test_simulate_rejects_out_of_range_parameters(argv, message, tmp_path, capsys):
    assert main(["simulate", *argv, "-o", str(tmp_path / "bad.jsonl")]) == 2
    assert message in capsys.readouterr().err


def test_simulate_branching_truncation_flag(tmp_path, monkeypatch):
    monkeypatch.setattr(simulate, "DEFAULT_EVENT_CAP", 5000)
    out = tmp_path / "crit.jsonl"
    # at eta = 1, and with more immigrants due than the cap, of which only a
    # sample of the cap's worth is drawn
    for argv in (["--eta", "1.0", "--immigrant-rate", "0.01", "--horizon", "100000s"],
                 ["--immigrant-rate", "1e9", "--horizon", "1e9s"]):
        assert main(["simulate", "branching", *argv, "-o", str(out)]) == 0
        meta = json.loads(out.with_suffix(".jsonl.meta.json").read_text())
        assert meta["truncated"] is True
        assert meta["events"] == len(out.read_text().splitlines()) == 5000
    assert meta["immigrants"] > 10**17  # the Poisson count, not the sample


def test_seed_repetition_identical_files(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        main(["simulate", "branching", "--eta", "0.4", "--seed", "7",
              "-o", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_roundtrip_simulator_output_through_ingest(tmp_path):
    out = tmp_path / "sim.jsonl"
    main(["simulate", "zipf", "--team-size", "20", "-o", str(out)])
    re_out = tmp_path / "reingested.jsonl"
    assert main(["ingest", str(out), "-o", str(re_out)]) == 0
    assert re_out.read_text() == out.read_text()


def test_ingest_persists_alias_resolution(tmp_path, capsys):
    src = tmp_path / "aliased.jsonl"
    src.write_text(
        '{"id": "a", "email": "old@x", "name": "Old", "ts": 1}\n'
        '{"id": "b", "email": "New@X", "name": "New", "ts": 2}\n'
        '{"id": "c", "email": "", "name": "Nick", "ts": 3}\n'
    )
    aliases = tmp_path / "aliases.json"
    aliases.write_text(json.dumps({"old@x": "new@x", "nick": "new@x"}))
    once, twice = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
    assert main(["ingest", str(src), "--alias-map", str(aliases),
                 "-o", str(once)]) == 0
    assert main(["ingest", str(once), "-o", str(twice)]) == 0
    first, second = capsys.readouterr().err.splitlines()
    assert first.startswith("3 commits, 1 authors")
    assert second.startswith("3 commits, 1 authors")
    assert twice.read_text() == once.read_text()
    # the unaliased commit keeps its raw email bytes
    assert json.loads(once.read_text().splitlines()[1])["email"] == "New@X"


def test_load_history_builds_once_per_file(tmp_path, monkeypatch):
    builds = []
    build = ingest.ProjectHistory.build.__func__

    def counting_build(cls, project_name, commits):
        builds.append(project_name)
        return build(cls, project_name, commits)

    monkeypatch.setattr(ingest.ProjectHistory, "build", classmethod(counting_build))
    log = tmp_path / "h.log"
    log.write_text("C|a|b@x|B|2|1\n1\t0\tf\n\nC|b|Old@X|O|1|1\n\nC|m|c@x|C|3|2\n\n")
    jsonl = tmp_path / "h.jsonl"
    jsonl.write_text('{"id": "a", "email": "b@x", "ts": 2}\n'
                     '{"id": "b", "email": "old@x", "ts": 1}\n')
    for path in (log, jsonl):
        for alias_map, drop in [(None, ()), ({"old@x": "b@x"}, ["c@x"])]:
            # the load and the alias pass that ingest runs on it
            history = ingest.resolve_authors(cli._load_history(path, "auto"),
                                             alias_map=alias_map, drop_authors=drop)
            assert builds == ["h"]
            assert [c.commit_id for c in history.commits] == ["b", "a"]
            assert len(history.authors) == (1 if alias_map else 2)
            builds.clear()


def test_only_ingest_resolves_authors(zipf_corpus, tmp_path, monkeypatch):
    calls = []
    original = ingest.resolve_authors

    def counting(*args, **kwargs):
        calls.append(args[0].project_name)
        return original(*args, **kwargs)

    monkeypatch.setattr(ingest, "resolve_authors", counting)
    src = zipf_corpus / "proj0.jsonl"
    assert main(["analyze", str(src), "-o", str(tmp_path / "a")]) == 0
    assert main(["compare", str(zipf_corpus), "-o", str(tmp_path / "c")]) == 0
    assert calls == []
    assert main(["ingest", str(src), "-o", str(tmp_path / "i.jsonl")]) == 0
    assert calls == ["proj0"]


def test_analyze_csv_values_are_exact(tmp_path):
    # 40 hourly commits at epoch-sized times with seven-digit productions
    src = tmp_path / "hourly.jsonl"
    src.write_text("".join(json.dumps({"id": f"c{i}", "email": "a@x",
                                       "ts": 1_400_000_000 + 3600 * i,
                                       "added": 1_234_567 + i}) + "\n"
                           for i in range(40)))
    out = tmp_path / "out"
    assert main(["analyze", str(src), "-o", str(out), "--window", "1h",
                 "--measure", "loc-added"]) == 0
    rows = [f"{1_400_000_000 + 3600 * i},{1_400_003_600 + 3600 * i},1,loc-added,"
            f"{1_234_567 + i}" for i in range(40)]
    assert (out / "observations.csv").read_text() == "\n".join(
        ["start_ts,end_ts,n,measure,production", *rows, ""])
    assert (out / "binned.csv").read_text() == "n_mean,production_mean\n1,1234586.5\n"
    for x in (0.1 + 0.2, 1 / 3, 1e-7, 2.5e20, 1_400_000_000.25):
        assert float(csv_number(x)) == x


def test_analyze_computes_each_edit_distance_once(tmp_path, monkeypatch):
    from scalemetrics import metrics

    rng = random.Random(3)
    records, pairs = [], 0
    for i in range(60):
        files = [{"old": "ab" * rng.randrange(5), "new": "ba" * rng.randrange(5)}
                 for _ in range(rng.randrange(3))]
        pairs += len(files)
        records.append({"id": f"c{i}", "email": f"d{i % 12}@x", "ts": i * 7000.0,
                        "files": files})
    src = tmp_path / "lev.jsonl"
    src.write_text("".join(json.dumps(r) + "\n" for r in records))
    calls = []
    original = metrics.levenshtein_distance

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(metrics, "levenshtein_distance", counting)
    assert main(["analyze", str(src), "-o", str(tmp_path / "out"),
                 "--measure", "lev"]) == 0
    assert len(calls) == pairs > 0


@pytest.fixture(scope="module")
def zipf_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for i, team in enumerate([40, 60, 80]):
        main(["simulate", "zipf", "--team-size", str(team), "--seed", str(i),
              "-o", str(root / f"proj{i}.jsonl")])
    return root


def test_analyze_zipf_input(zipf_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["analyze", str(zipf_corpus / "proj2.jsonl"), "-o", str(out),
                 "--format", "json"])
    assert code == 0
    bundle = json.loads((out / "report.json").read_text())
    jsonschema.validate(bundle, REPORT_SCHEMA)
    beta = bundle["arm_a"]["fit"]["beta"]
    assert 0.4 <= beta <= 0.75  # sublinear, near 1 - alpha = 0.5
    assert (out / "observations.csv").exists()
    assert (out / "binned.csv").exists()


def test_analyze_single_author_warns_exit_0(tmp_path, capsys):
    src = tmp_path / "solo.jsonl"
    lines = [
        json.dumps({"id": f"c{i}", "email": "solo@x", "name": "S",
                    "ts": i * 1000.0, "added": 1, "deleted": 0})
        for i in range(20)
    ]
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["analyze", str(src), "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    bundle = json.loads((out / "report.json").read_text())
    jsonschema.validate(bundle, REPORT_SCHEMA)
    assert bundle["arm_a"]["fit"] is None


def test_analyze_deterministic_bytes(zipf_corpus, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["analyze", str(zipf_corpus / "proj0.jsonl"),
                     "-o", str(out), "--seed", "42"]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_compare_corpus_summary(zipf_corpus, tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", str(zipf_corpus), "-o", str(out),
                 "--jobs", "2"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    jsonschema.validate(summary, SUMMARY_SCHEMA)
    assert summary["project_count"] == 3
    assert sum(summary["regime_counts"].values()) >= 3
    for i in range(3):
        report = json.loads((out / f"proj{i}.report.json").read_text())
        jsonschema.validate(report, REPORT_SCHEMA)


def test_compare_jobs_do_not_change_outputs(zipf_corpus, tmp_path, capsys):
    outs, stdouts = [tmp_path / "jobs1", tmp_path / "jobs2"], []
    for jobs, out in zip(("1", "2"), outs):
        assert main(["compare", str(zipf_corpus), "-o", str(out),
                     "--jobs", jobs]) == 0
        stdouts.append(capsys.readouterr().out)
    assert stdouts[0] == stdouts[1]
    names = sorted(p.name for p in outs[0].iterdir())
    assert "summary.json" in names
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_compare_empty_dir_exit_2(tmp_path):
    assert main(["compare", str(tmp_path), "-o", str(tmp_path / "x")]) == 2


def test_report_renders_saved_json(zipf_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    main(["analyze", str(zipf_corpus / "proj1.jsonl"), "-o", str(out)])
    capsys.readouterr()
    assert main(["report", str(out / "report.json")]) == 0
    text = capsys.readouterr().out
    assert "arm A" in text and "cascades" in text


@pytest.mark.parametrize("corrupt, named", [
    (lambda bundle: "{}", "no 'arm_a'"),
    (lambda bundle: "[1, 2]", "got list"),
    (lambda bundle: json.dumps({k: v for k, v in bundle.items() if k != "arm_a"}),
     "no 'arm_a'"),
    (lambda bundle: json.dumps({**bundle, "arm_a": {}}), "no 'fit'"),
    (lambda bundle: "nope", "Expecting value"),
], ids=["empty-object", "array", "no-arm-a", "arm-a-without-fit", "not-json"])
def test_report_of_a_non_report_is_a_data_error(corrupt, named, zipf_corpus,
                                                tmp_path, capsys):
    out = tmp_path / "out"
    main(["analyze", str(zipf_corpus / "proj1.jsonl"), "-o", str(out)])
    src = tmp_path / "not-a-report.json"
    src.write_text(corrupt(json.loads((out / "report.json").read_text())))
    capsys.readouterr()
    assert main(["report", str(src)]) == 2
    err = capsys.readouterr().err
    assert f"{src} is not a report bundle" in err and named in err


@pytest.mark.parametrize("solo", [False, True])
def test_analyze_text_equals_report_of_saved_json(solo, zipf_corpus, tmp_path, capsys):
    src = zipf_corpus / "proj1.jsonl"
    if solo:  # arm A and the tail fits refuse
        src = tmp_path / "solo.jsonl"
        src.write_text("".join(
            json.dumps({"id": f"c{i}", "email": "solo@x", "ts": i * 1000.0}) + "\n"
            for i in range(20)))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["analyze", str(src), "-o", str(out), "--format", "text"]) == 0
    analyzed = capsys.readouterr().out
    assert main(["report", str(out / "report.json")]) == 0
    assert capsys.readouterr().out == analyzed
    assert "\ncascades: " in analyzed
    if solo:
        assert "  unavailable: " in analyzed
    else:  # arm A's r2 and points, arm B's CI, the tails' xmin and k
        for part in ("  r2 = ", "  points = ", "slope of ln(P/n)", "  xmin = ",
                     "  k = "):
            assert part in analyzed


def test_format_csv_is_not_offered(zipf_corpus, tmp_path):
    assert main(["analyze", str(zipf_corpus / "proj0.jsonl"), "-o",
                 str(tmp_path / "out"), "--format", "csv"]) == 1


def test_env_seed_used(tmp_path, monkeypatch):
    monkeypatch.setenv("SCALEMETRICS_SEED", "123")
    a = tmp_path / "a.jsonl"
    main(["simulate", "branching", "-o", str(a)])
    meta = json.loads(a.with_suffix(".jsonl.meta.json").read_text())
    assert meta["seed"] == 123
