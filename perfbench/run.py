"""Benchmark of the scalemetrics CLI on seeded, generated inputs.

    python3 perfbench/run.py --workload heavy-analyze --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory. With ``--trace 0`` each timed run is a fresh
single-threaded ``python -m scalemetrics.cli`` subprocess, repeated for
``--seconds``, and the end-to-end metrics are printed. With ``--trace 1``
the same timed runs are made, then a traced run replays the pipeline
in-process with one span per layer call and prints the per-layer metrics.
Every run's outputs are checked. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Full results
and spans are also written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
RUN_BUDGET_S = 165  # a run must end within 180 s, hung children included
SETUP_REPS = 3
MIN_SAMPLES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "commits_per_s": "commits/s",
    "peak_rss_mb": "MiB",
}


def child_env():
    env = dict(os.environ)
    env.pop("SCALEMETRICS_SEED", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Deadline:
    def __init__(self, seconds):
        self.at = time.perf_counter() + seconds

    def left(self):
        return max(1.0, self.at - time.perf_counter())


def run_child(argv, out_dir, tag, deadline):
    """Run one Python child; (wall seconds, peak RSS MiB, exit code, stderr).
    The RSS comes from wait4 on this child alone."""
    stdout_path = out_dir / f"{tag}.stdout"
    stderr_path = out_dir / f"{tag}.stderr"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        killer = threading.Timer(deadline.left(), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
    return wall, usage.ru_maxrss / 1024, proc.returncode, stderr


def measure_setup(work, deadline):
    """Median wall time of a fresh interpreter importing scalemetrics.cli."""
    walls = []
    for i in range(SETUP_REPS):
        wall, _, code, stderr = run_child(["-c", "import scalemetrics.cli"],
                                          work, f"setup{i}", deadline)
        if code != 0:
            raise RuntimeError(f"importing scalemetrics.cli failed:\n{stderr}")
        walls.append(wall)
    return statistics.median(walls), walls


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_sample(workload, out_dir, deadline, commands=None):
    """One timed run of the workload's command(s), with its output check."""
    out_dir.mkdir(parents=True)
    wall = rss = 0.0
    problems, stderrs = [], []
    for i, argv in enumerate(commands or workload.commands(out_dir)):
        w, r, code, stderr = run_child(["-m", "scalemetrics.cli", *argv],
                                       out_dir, f"cmd{i}", deadline)
        wall += w
        rss = max(rss, r)
        stderrs.append(stderr)
        if code != 0:
            problems.append(f"{argv[0]} exited {code}: {stderr.strip()[-300:]}")
        if "Traceback (most recent call last)" in stderr:
            problems.append(f"{argv[0]} printed a traceback")
    if not problems:
        problems = check_outputs(workload, out_dir, stderrs)
    hashes = {name: sha256(out_dir / name) for name in workload.hashed_outputs
              if (out_dir / name).is_file()}
    return {"wall_s": wall, "rss_mb": rss, "problems": problems, "sha256": hashes}


def check_outputs(workload, out_dir, stderrs):
    try:
        return workload.check(out_dir, stderrs)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"output check could not read the outputs: {exc!r}"]


def timed_runs(workload, work, seconds, deadline):
    """Repeat the workload for about ``seconds`` (at least MIN_SAMPLES
    times), stopping before a run would overshoot by more than half, or
    when another run would not fit in the run's time budget."""
    samples = []
    start = time.perf_counter()
    while True:
        out_dir = work / f"run{len(samples)}"
        samples.append(run_sample(workload, out_dir, deadline))
        shutil.rmtree(out_dir)
        elapsed = time.perf_counter() - start
        mean = elapsed / len(samples)
        if (len(samples) >= MIN_SAMPLES and elapsed + mean / 2 > seconds
                or deadline.left() < 3 * mean):
            return samples


def passed(samples):
    """The samples whose checks passed, or all of them if none did."""
    return [s for s in samples if not s["problems"]] or samples


def median_wall(samples):
    return statistics.median(s["wall_s"] for s in passed(samples))


def end_to_end(workload, samples, setup_s):
    wall = median_wall(samples)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "commits_per_s": workload.commits / wall,
        "peak_rss_mb": max(s["rss_mb"] for s in passed(samples)),
    }


def import_seconds(work, deadline):
    """Cumulative ``-X importtime`` of scalemetrics.cli in a fresh child."""
    _, _, code, stderr = run_child(["-X", "importtime", "-c", "import scalemetrics.cli"],
                                   work, "importtime", deadline)
    for line in stderr.splitlines():
        parts = line.split("|")
        if code == 0 and len(parts) == 3 and parts[2].strip() == "scalemetrics.cli":
            return int(parts[1]) / 1e6
    raise RuntimeError(f"no import time for scalemetrics.cli:\n{stderr[-500:]}")


def traced_run(workload, work, samples, deadline):
    """Per-layer metrics: spans around direct layer calls, then cli.main
    in-process on the same inputs. Returns (metrics, problems, spans)."""
    import tracing
    from scalemetrics import cli, metrics as sm_metrics

    tracer = tracing.Tracer(workload.name)
    workload.traced(tracer)
    out_dir = work / "traced"
    out_dir.mkdir()
    problems, stderrs = [], []
    with tracing.count_calls(sm_metrics, "levenshtein_distance") as lev_calls:
        for i, argv in enumerate(workload.commands(out_dir)):
            with open(out_dir / f"cmd{i}.stdout", "w") as out, \
                    open(out_dir / f"cmd{i}.stderr", "w") as err, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with tracer.span("cli.main", command=argv[0]):
                    code = cli.main(argv)
            stderrs.append((out_dir / f"cmd{i}.stderr").read_text())
            if code != 0:
                problems.append(f"in-process {argv[0]} exited {code}")
    if not problems:
        problems = check_outputs(workload, out_dir, stderrs)

    values = tracing.layer_metrics(tracer)
    pairs = tracer.counts.get("metrics.lev_pairs", 0)
    if lev_calls is not None:
        values["metrics.lev_calls_per_pair"] = lev_calls["calls"] / pairs if pairs else 0.0
    import_s = import_seconds(work, deadline)
    values["cli.import_s"] = import_s
    cli_s = tracer.total("cli.main")
    values["cli.self_s"] = cli_s - sum(s["end"] - s["start"] for s in tracer.spans
                                       if s.get("cli"))
    wall = median_wall(samples)
    n_commands = len(workload.commands(out_dir))
    values["trace.overhead_s"] = cli_s + n_commands * import_s - wall
    serial = workload.serial_commands(work / "serial")
    values["cli.compare_jobs_speedup"] = 0.0
    if serial is not None:
        sample = run_sample(workload, work / "serial", deadline, commands=serial)
        problems += sample["problems"]
        values["cli.compare_jobs_speedup"] = sample["wall_s"] / wall
    return values, problems, tracer.spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="input size; toy is for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "scalemetrics" / "cli.py").is_file():
        print(f"error: no scalemetrics sources under {SRC}; run from the root "
              "of a scalemetrics checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    deadline = Deadline(RUN_BUDGET_S)
    work = STATE / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, WORKLOADS[args.workload], work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(args, workload_cls, work, deadline):
    import tracing

    workload = workload_cls(args.seed, args.size, work)
    setup_s, setup_walls = measure_setup(work, deadline)
    samples = timed_runs(workload, work, args.seconds, deadline)
    attempted = len(samples)
    failed = sum(1 for s in samples if s["problems"])
    problems = [p for s in samples for p in s["problems"]]
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "commits": workload.commits,
              "setup_walls_s": setup_walls, "samples": samples}
    if args.trace:
        if deadline.left() < 3 * max(s["wall_s"] for s in samples):
            raise RuntimeError("no time left for the traced run")
        metrics, traced_problems, spans = traced_run(workload, work, samples, deadline)
        attempted += 1
        failed += bool(traced_problems)
        problems += traced_problems
        units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
        write_state("traces", args, {"workload": args.workload, "seed": args.seed,
                                     "spans": spans})
    else:
        metrics = end_to_end(workload, samples, setup_s)
        units = END_TO_END
    record.update(attempted=attempted, failed=failed, problems=problems,
                  failed_frac=failed / attempted, metrics=metrics)
    write_state("results", args, record)
    report(args, workload, samples, setup_walls, record, units)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def write_state(kind, args, obj):
    path = STATE / kind / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def report(args, workload, samples, setup_walls, record, units):
    """Human-readable lines before the final JSON line."""
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"input {workload.commits} commits")
    print(f"runs attempted {record['attempted']}  failed {record['failed']}  "
          f"failed_frac {record['failed_frac']:.3f}")
    for problem in record["problems"][:10]:
        print(f"  check failed: {problem}")
    counts = {"setup_s": len(setup_walls), "wall_s": len(samples),
              "commits_per_s": len(samples), "peak_rss_mb": len(samples)}
    for name, value in record["metrics"].items():
        n = counts.get(name, 1)
        print(f"  {name:<34} {value:>14.6g} {units[name]:<10} n={n}")
    hashes = {}
    for s in samples:
        for name, digest in s["sha256"].items():
            hashes.setdefault(name, set()).add(digest)
    for name, digests in sorted(hashes.items()):
        print(f"  sha256 {name} {' '.join(sorted(digests))}")


if __name__ == "__main__":
    sys.exit(main())
