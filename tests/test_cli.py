import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalemetrics
from scalemetrics import (
    cascades, cli, ingest, metrics, scaling, simulate, tails, windows,
)
from scalemetrics.cli import main, parse_duration
from scalemetrics.errors import ConfigError
from scalemetrics.metrics import csv_number

from conftest import no_rows
from oracle import first_line_format

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
    ["--bins-per-decade", str(10**308)], ["--bins-per-decade", str(10**309)],
    ["--bins-per-decade", "1" + "0" * 4000],
])
def test_out_of_range_analysis_flag_is_usage_error(command, flags, tmp_path, capsys):
    src = tmp_path / "h.jsonl"
    src.write_text("".join(f'{{"id": "c{i}", "email": "a@x", "ts": {i * 1000}}}\n'
                           for i in range(10)))
    # every flag is checked before the input is read, even a missing one
    for target in (src if command == "analyze" else tmp_path, tmp_path / "missing"):
        assert main([command, str(target), "-o", str(tmp_path / "out"), *flags]) == 1
        err = capsys.readouterr().err
        assert flags[0] in err
        assert len(err.encode()) < 300  # a huge value is not echoed in full
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
    # the names the package root listed by hand before it re-exported each
    # module's __all__, less MethodologyReport and commit_production, which
    # no longer exist, and with the windows' columns in place of their rows
    listed = {
        "branching_ratio", "detect_cascades", "AuthorId", "CommitRecord",
        "ProjectHistory", "parse_commit_log", "parse_jsonl", "resolve_authors",
        "write_jsonl", "ProductionMeasure", "Observations",
        "levenshtein_distance", "window_observations_with_coverage",
        "ScalingFit", "fit_scaling_exponent", "log_bin",
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
    assert len(listed) == 39 and listed <= set(public)
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


@pytest.mark.parametrize("days, printed", [
    (1.5, "1.5"), (9e14, "900000000000000.0"), (2e15, "2e+15"),
    (1e300 / 86400, "1.15741e+295")])
def test_history_span_prints_short(days, printed, tmp_path, capsys):
    # a span of 10**15 days or more prints in :.6g form, a shorter one in full
    src = tmp_path / "span.jsonl"
    src.write_text('{"id": "a", "email": "a@x", "ts": 0}\n'
                   f'{{"id": "b", "email": "a@x", "ts": {days * 86400!r}}}\n')
    assert main(["ingest", str(src), "-o", str(tmp_path / "out.jsonl")]) == 0
    assert capsys.readouterr().err == f"2 commits, 1 authors, span {printed} days\n"


def test_cli_import_loads_no_scipy():
    src = str(Path(scalemetrics.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; before = set(sys.modules); import scalemetrics.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print('numpy.ma' in set(sys.modules) - before); "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    scipy, numpy_ma, packages = out.splitlines()
    assert scipy == "[]"
    assert numpy_ma == "False"
    # the import loads no third-party package but numpy, so setup time stays
    # that of numpy and the package's own modules
    assert packages == "['numpy', 'scalemetrics']"


def test_analysis_loads_no_numpy_ma(tmp_path):
    # a plain np.unique imports numpy.ma (numpy 2.x): simulate, analyze and
    # compare do without it
    src = str(Path(scalemetrics.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    corpus.mkdir()
    history = str(corpus / "h.jsonl")
    code = ("import sys; from scalemetrics.cli import main; "
            f"assert main(['simulate', 'heavy-tail', '--windows', '30', '-o', {history!r}]) == 0; "
            f"assert main(['analyze', {history!r}, '-o', {str(out)!r}]) == 0; "
            f"assert main(['compare', {str(corpus)!r}, '-o', {str(out)!r}]) == 0; "
            "print('numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def _payload_jsonl(seed):
    """A small JSONL history whose commits mostly carry short diff payloads."""
    rng = random.Random(seed)
    lines = []
    for i in range(150):
        record = {"id": f"p{i:04d}", "email": f"dev{int(15 * rng.random() ** 2)}@x",
                  "name": rng.choice(["Ann", "", None]),
                  "ts": round(rng.uniform(0, 200 * 86400), rng.choice([0, 3])),
                  "added": rng.randrange(40), "deleted": rng.randrange(15)}
        if rng.random() > 0.1:
            record["files"] = [{"old": "ab" * rng.randrange(6),
                                "new": "ba" * rng.randrange(6)}
                               for _ in range(rng.randrange(3))]
        lines.append(json.dumps(record))
    return "\n".join(lines) + "\n"


def _pinned_log(seed):
    """A small pinned-format log with merges, binary rows, alias chains and a
    bot, and the alias map for it."""
    rng = random.Random(seed)
    entries = []
    for i in range(300):
        email = rng.choice(["a@x", "A.old@X", "a.legacy@x", "b@x", "c@x", "bot@ci", "",
                            "d@y"])
        parents = rng.choice([1, 1, 1, 2, 0])
        rows = [("-", "-", "img.png") if rng.random() < 0.1 else
                (rng.randrange(50), rng.randrange(20), f"f{j}.py")
                for j in range(rng.randrange(3))] if parents < 2 else []
        ts = rng.randrange(10**9, 10**9 + 10**7)
        entries.append(f"C|{i:08x}|{email}|Dev {i % 7}|{ts}|{parents}\n"
                       + "".join(f"{a}\t{d}\t{p}\n" for a, d, p in rows))
    aliases = {"a.legacy@x": "a.old@x", "a.old@x": "a@x", "dev 3": "c@x"}
    return "\n".join(entries) + "\n", aliases


# sha256 of every output of the commands below, recorded before the history
# became columns-first; they pin the CLI's bytes
PINNED_OUTPUTS = {
    7: {
        "simulate.stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "simulate.stderr":
            "91347ea131608545a8a0089cdd5efde8714fc107795b189e841170a7a597bfd4",
        "analyze-json.stdout":
            "bbd4a37281b3f322d38e1d0bfafc3bf95083270237e593929fc267dbd8c58a45",
        "analyze-json.stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "analyze-text.stdout":
            "051efffea1c02771324fcfc7fa256c77f451b7d70d9a2a9f099f4b8a457bb204",
        "analyze-text.stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "analyze-loc.stdout":
            "f7f0fa7c15dc232ced78f3956474b2a873528761f036530b590a52c249869279",
        "analyze-loc.stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "analyze-lev.stdout":
            "1141463ce4a1c113bf3cefcc37e8c863d092f6522e02d01ba1a332f32809cc14",
        "analyze-lev.stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ingest.stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ingest.stderr":
            "9e09104896ed1ad5c38657ae2cf800e63e0bd3c285075eb552e5380489e69934",
        "ht.jsonl":
            "e77f4dcfac38c839182897d747d1a3b4875ac581e73d047b1c8539e263c7145a",
        "ht.jsonl.meta.json":
            "e546f1f2261cefe62ccf97dcfad4ffc406850de1f3b11dfb43278ed94fc2ea75",
        "ingested.jsonl":
            "f8d859c87cd788ee6b810525d60f9d8df723d3012acdde3179585627798162f0",
        "json/binned.csv":
            "2902f5dfbce6477cc6ff64fbe3b1f4399349cf0ec7ee554b458910e6c8354858",
        "json/observations.csv":
            "99fd5d6ed0b8841b2908a165ee19a18408aaea1d28e5c70a9eb41de38cf9010e",
        "json/report.json":
            "bbd4a37281b3f322d38e1d0bfafc3bf95083270237e593929fc267dbd8c58a45",
        "lev/binned.csv":
            "f101e3ba15640a85a0562ad2b63c7a0027fb2e3e19d3ad8b03463cfca94420b6",
        "lev/observations.csv":
            "1149792bb72aafa93db3255bf06244cf416bd3c329d67d17c6c510bdf0e67125",
        "lev/report.json":
            "1141463ce4a1c113bf3cefcc37e8c863d092f6522e02d01ba1a332f32809cc14",
        "loc/binned.csv":
            "529c2f2ec6330a2f4839ec1158034317e2fbbfa1140249188ca1c971aeed7481",
        "loc/observations.csv":
            "1da850ebf14225853859f2a463a78772bda7da50975c054663797e68276b5477",
        "loc/report.json":
            "02e1fbe2b18a65e81f284368cffe8683a7b696c047ab4fa7df0cb877cf0da2d6",
        "text/binned.csv":
            "2902f5dfbce6477cc6ff64fbe3b1f4399349cf0ec7ee554b458910e6c8354858",
        "text/observations.csv":
            "99fd5d6ed0b8841b2908a165ee19a18408aaea1d28e5c70a9eb41de38cf9010e",
        "text/report.json":
            "bbd4a37281b3f322d38e1d0bfafc3bf95083270237e593929fc267dbd8c58a45",
    },
    21: {
        "simulate.stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "simulate.stderr":
            "b3c792c3306a8f457defe67b7aa1d56eeff132ddbe8560c8b763c0b2b56f9480",
        "analyze-json.stdout":
            "167958e4a4677197af6ca79ca501edeb35d116755b6bc9ac1c1f5d32c74f487d",
        "analyze-json.stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "analyze-text.stdout":
            "c026d1b513d10618b322714978dca9f4e7528ac809cdd15ee94e0a9cbfb00997",
        "analyze-text.stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "analyze-loc.stdout":
            "7ca5ec12fd2446d28f395de0b78f5a4d736d2c5a2c01b1dec4bf2263f79a0a89",
        "analyze-loc.stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "analyze-lev.stdout":
            "f265142d1b556ccb3d92d5f7015df3b3c5e1ccfc1d10bcc90e851ca59d747e96",
        "analyze-lev.stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ingest.stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ingest.stderr":
            "cebd14a0a00a5b1219846574ae738d90ffce47ccaa1acc7af76be2fc70c57266",
        "ht.jsonl":
            "787d0ea17600bae082d032415c60db10246d7cc83eb6126975ecc21d04330673",
        "ht.jsonl.meta.json":
            "fb005af7d6f9d648038dd4e37e43d6cde609c797c840721e6654c9db855321f0",
        "ingested.jsonl":
            "9465d3123e0d0d42dd48ed0026a41452c07048dcee920423e4821427af0532a3",
        "json/binned.csv":
            "47d373f76c31fd5af3381af9394f14a1f86eb86d5c49bd1b105cccae4381967a",
        "json/observations.csv":
            "f26506443e60e91617c4846b75dcd68d7b7fff619d3e8ddb4c30801e473045d2",
        "json/report.json":
            "167958e4a4677197af6ca79ca501edeb35d116755b6bc9ac1c1f5d32c74f487d",
        "lev/binned.csv":
            "aead5db4579fe4f01ecfc3ac76cc9a8d7fcc229f1e4521b8e59c6faa85bfb4b9",
        "lev/observations.csv":
            "9f58e3d4d90080eb5c83c7fac1e0aad2185ae2f8d993aae8786381fc0231cceb",
        "lev/report.json":
            "f265142d1b556ccb3d92d5f7015df3b3c5e1ccfc1d10bcc90e851ca59d747e96",
        "loc/binned.csv":
            "8827fa50f9d2104d36054e1698f812e5e4e8f2bbbc0092899c1c876c6c0d5a00",
        "loc/observations.csv":
            "1164f5dc598b96325813fdce239e9d259dc5cb0f32ecbccb92d8f2bfe57f115b",
        "loc/report.json":
            "0bf3e585880a75c040924a824f49cc5495f96c8d8e0bfb9b46894d50fc833757",
        "text/binned.csv":
            "47d373f76c31fd5af3381af9394f14a1f86eb86d5c49bd1b105cccae4381967a",
        "text/observations.csv":
            "f26506443e60e91617c4846b75dcd68d7b7fff619d3e8ddb4c30801e473045d2",
        "text/report.json":
            "167958e4a4677197af6ca79ca501edeb35d116755b6bc9ac1c1f5d32c74f487d",
    },
}


@pytest.mark.parametrize("seed", [7, 21])
def test_cli_outputs_are_pinned(seed, tmp_path, capsys):
    import hashlib

    src, out = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    out.mkdir()
    payload = src / "payload.jsonl"
    payload.write_text(_payload_jsonl(seed))
    log_text, aliases = _pinned_log(seed)
    (src / "history.log").write_text(log_text)
    (src / "aliases.json").write_text(json.dumps(aliases))
    streams = {}
    commands = {
        "simulate": ["simulate", "heavy-tail", "--windows", "30", "--seed", str(seed),
                     "-o", str(out / "ht.jsonl")],
        "analyze-json": ["analyze", str(out / "ht.jsonl"), "-o", str(out / "json"),
                         "--format", "json", "--seed", str(seed)],
        "analyze-text": ["analyze", str(out / "ht.jsonl"), "-o", str(out / "text"),
                         "--format", "text", "--seed", str(seed)],
        "analyze-loc": ["analyze", str(payload), "-o", str(out / "loc"), "--measure", "loc",
                        "--window", "2d", "--bins-per-decade", "0", "--seed", str(seed)],
        "analyze-lev": ["analyze", str(payload), "-o", str(out / "lev"), "--measure", "lev",
                        "--window", "2d", "--bins-per-decade", "0", "--format", "json",
                        "--seed", str(seed)],
        "ingest": ["ingest", str(src / "history.log"), "-o", str(out / "ingested.jsonl"),
                   "--alias-map", str(src / "aliases.json"), "--drop-author", "bot@ci",
                   "--include-merges"],
    }
    for name, argv in commands.items():
        assert main(argv) == 0, name
        captured = capsys.readouterr()
        streams[f"{name}.stdout"], streams[f"{name}.stderr"] = captured.out, captured.err
    digests = {name: hashlib.sha256(text.encode()).hexdigest()
               for name, text in streams.items()}
    digests.update({str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(out.rglob("*")) if p.is_file()})
    assert digests == PINNED_OUTPUTS[seed]


@settings(max_examples=300, deadline=None)
@given(st.text("\n\r \t\x85 C|{", max_size=12))
def test_format_sniff_matches_first_line_oracle(text):
    assert cli._sniff_format(text) == first_line_format(text)


_IDENTITIES = st.sampled_from([("a@x", "Ann"), ("B@x", ""), ("", "Jos\u00e9 \u00d1"),
                               ("li@y", "\u674e \U0001f600")])


@st.composite
def _valid_inputs(draw):
    """(text, parser): the write_jsonl text of a generated history, or a
    pinned-format log of the same records, some of them empty commits, with
    a blank line after each commit's rows, before them or nowhere; after 0-3
    blank or whitespace-only lines and with one kind of line end; and the
    parser of its format."""
    records = draw(st.lists(st.tuples(_IDENTITIES, st.integers(0, 10**9),
                                      st.integers(0, 50), st.integers(0, 50),
                                      st.sampled_from([0, 1, 2]),
                                      st.sampled_from([("", "\n"), ("\n", ""), ("", "")]),
                                      st.booleans()),
                            min_size=1, max_size=8))
    if draw(st.booleans()):
        parse = ingest.parse_jsonl
        text = ingest.write_jsonl(ingest.ProjectHistory.build("h", [
            ingest.CommitRecord(f"c{i}", ingest.AuthorId.from_raw(email, name), float(ts),
                                added, deleted, email, name, parents)
            for i, ((email, name), ts, added, deleted, parents, _, _)
            in enumerate(records)]))
    else:
        parse = ingest.parse_commit_log
        text = "".join(f"C|c{i}|{email}|{name}|{ts}|{parents}\n" + before
                       + (f"{added}\t{deleted}\tf.py\n" if parents < 2 and rows else "")
                       + after
                       for i, ((email, name), ts, added, deleted, parents, (before, after), rows)
                       in enumerate(records))
    lead = "".join(line + "\n" for line in draw(
        st.lists(st.sampled_from(["", " ", "\t", " \t "]), max_size=3)))
    return (lead + text).replace("\n", draw(st.sampled_from(["\n", "\r\n", "\r"]))), parse


@settings(max_examples=200, deadline=None)
@given(_valid_inputs(), st.booleans())
def test_sniff_reads_each_valid_input_as_its_own_parser_does(text_parse, include_merges):
    # the sniffed format is the one a valid input was written in, so no
    # input format needs to be given
    text, parse = text_parse
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.txt"
        path.write_bytes(text.encode())
        got = cli._load_history(path, include_merges)
    expected = parse(text, project_name="h", include_merges=include_merges)
    assert got.project_name == expected.project_name
    for a, b in zip(got.columns, expected.columns, strict=True):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype
            assert a.tolist() == b.tolist()
        else:
            assert a == b


def test_cli_paths_make_no_rows(tmp_path, capsys):
    # analyze, ingest and simulate work on the columns alone
    src = tmp_path / "payload.jsonl"
    src.write_text(_payload_jsonl(3))
    log_text, aliases = _pinned_log(3)
    (tmp_path / "history.log").write_text(log_text)
    (tmp_path / "aliases.json").write_text(json.dumps(aliases))
    with no_rows():
        for measure in ("commits", "loc", "lev"):
            assert main(["analyze", str(src), "-o", str(tmp_path / measure),
                         "--measure", measure]) == 0
        assert main(["ingest", str(tmp_path / "history.log"), "-o",
                     str(tmp_path / "ingested.jsonl"), "--alias-map",
                     str(tmp_path / "aliases.json"), "--drop-author", "bot@ci"]) == 0
        assert main(["simulate", "heavy-tail", "--windows", "20", "-o",
                     str(tmp_path / "ht.jsonl")]) == 0
        assert main(["compare", str(tmp_path), "-o", str(tmp_path / "cmp")]) == 0


def test_ingest_empty_file(tmp_path, capsys):
    src = tmp_path / "empty.log"
    src.write_text("")
    assert main(["ingest", str(src), "-o", str(tmp_path / "out.jsonl")]) == 0
    assert "0 commits" in capsys.readouterr().err


def test_ingest_malformed_header_exit_2(tmp_path, capsys):
    src = tmp_path / "bad.log"
    src.write_text("garbage line\n")
    assert main(["ingest", str(src)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_usage_error_exit_1():
    assert main(["analyze"]) == 1
    assert main(["no-such-command"]) == 1
    # the format of an input is read from the input
    assert main(["analyze", "h.jsonl", "--input-format", "jsonl"]) == 1
    assert main(["ingest", "h.log", "--input-format", "log"]) == 1


def test_simulate_zipf_sidecar(tmp_path):
    out = tmp_path / "zipf.jsonl"
    assert main(["simulate", "zipf", "--N", "10", "--alpha", "0.5",
                 "--team-size", "25", "-o", str(out)]) == 0
    meta = json.loads(out.with_suffix(".jsonl.meta.json").read_text())
    assert meta["S"] == pytest.approx(86.3931, abs=1e-3)
    assert meta["alpha"] == 0.5
    assert meta["expected_beta"] == 0.5


@pytest.mark.parametrize("argv, expected_beta", [
    (["zipf", "--team-size", "25"], 0.5),
    (["branching"], None),
    (["heavy-tail", "--windows", "20"], 1 / 0.7),
    # production is linear in n for mu >= 1
    (["heavy-tail", "--windows", "20", "--participation-mu", "1"], 1.0),
    (["heavy-tail", "--windows", "20", "--participation-mu", "1.3"], 1.0),
])
def test_simulate_sidecar_is_standard_json(argv, expected_beta, tmp_path):
    def refuse(constant):
        raise ValueError(f"{constant} is not standard JSON")

    out = tmp_path / "sim.jsonl"
    assert main(["simulate", *argv, "-o", str(out)]) == 0
    meta = json.loads(out.with_suffix(".jsonl.meta.json").read_text(),
                      parse_constant=refuse)
    assert meta.get("expected_beta") == expected_beta


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
    # windows whose times pass the float range, refused before any draw
    (["heavy-tail", "--window", "1e308s"], "window_length = 1e+308 s is too long"),
    (["zipf", "--N", "10", "--alpha", "0.5", "--window", "1e308s"],
     "window_length = 1e+308 s is too long: 100 windows"),
    # a Poisson mean past numpy's limit, and a nan, refused by name
    (["branching", "--immigrant-rate", "1e10", "--horizon", "1e10s"],
     "immigrant_rate * horizon, the mean immigrant count, must be at most"),
    (["branching", "--participation-mu", "nan"], "participation_mu must be positive"),
    (["heavy-tail", "--participation-mu", "nan"], "mu must be positive"),
    (["branching", "--participation-mu", "inf"],
     "participation_mu must be positive and finite"),
    (["heavy-tail", "--participation-mu", "inf"], "mu must be positive and finite"),
    (["heavy-tail", "--participation-mu", "1e-320"], "with 1/mu finite"),
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


def test_simulate_branching_participants_are_bounded(tmp_path, monkeypatch, capsys):
    # no more authors than the event cap are drawn, refused before any draw
    monkeypatch.setattr(simulate, "DEFAULT_EVENT_CAP", 5000)
    model = simulate.BranchingModel(eta=0.5, immigrant_rate=0.002,
                                    offspring_delay_scale=1.0, horizon=1e6, seed=1)
    with pytest.raises(ValueError, match="DEFAULT_EVENT_CAP = 5000], got 5001"):
        simulate.simulate_branching_stream(model, participants=5001,
                                           participation_mu=0.7)
    out = tmp_path / "sim.jsonl"
    assert main(["simulate", "branching", "--participants", "5001", "-o", str(out)]) == 2
    assert "participants must be in [1, DEFAULT_EVENT_CAP = 5000]" in \
        capsys.readouterr().err
    assert not out.exists()
    assert simulate.simulate_branching_stream(model, participants=5000,
                                              participation_mu=0.7).events > 0
    assert main(["simulate", "branching", "--participants", "5000", "-o", str(out)]) == 0


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
            history = ingest.resolve_authors(cli._load_history(path),
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


@pytest.mark.parametrize("generator", [["heavy-tail", "--windows", "20"],
                                       ["zipf", "--team-size", "30"]])
def test_methodology_compare_returns_the_saved_report(generator, tmp_path):
    src, out = tmp_path / "sim.jsonl", tmp_path / "out"
    assert main(["simulate", *generator, "--seed", "5", "-o", str(src)]) == 0
    assert main(["analyze", str(src), "-o", str(out), "--seed", "5"]) == 0
    saved = json.loads((out / "report.json").read_text())
    config = saved.pop("config")
    del saved["cascades"]
    measure = metrics.ProductionMeasure.from_string(config["measure"])
    report, observations = scaling.methodology_compare(
        ingest.parse_jsonl(src.read_text(), project_name=src.stem), measure,
        fixed_window=windows.FixedWindow(parse_duration(config["window"])),
        quantile=config["quantile"], bins_per_decade=config["bins_per_decade"],
        seed=config["seed"], estimator=config["estimator"])
    assert report == saved
    assert metrics.observations_to_csv(observations, measure) == \
        (out / "observations.csv").read_text()


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


@pytest.mark.parametrize("data, message", [
    (b'{"id":"a","ts":1}\n', "line 1: author identity must be non-empty"),
    (b"\xff\n", "line 1: not UTF-8: byte 0xff (invalid start byte)"),
    (b"", "history has no commits"),
])
def test_compare_names_the_project_that_failed(data, message, zipf_corpus, tmp_path,
                                               capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.jsonl").write_bytes((zipf_corpus / "proj0.jsonl").read_bytes())
    (corpus / "b.jsonl").write_bytes(data)
    assert main(["compare", str(corpus), "-o", str(tmp_path / "cmp")]) == 2
    assert capsys.readouterr().err == f"error: {corpus / 'b.jsonl'}: {message}\n"
    # analyze reads one project: its error names no file
    assert main(["analyze", str(corpus / "b.jsonl"), "-o", str(tmp_path / "one")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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
