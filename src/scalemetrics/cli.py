"""Command-line interface.

Subcommands: ingest | analyze | simulate | compare | report.
Exit codes: 0 success (possibly with warnings), 1 usage/config errors,
2 data errors. All commands are deterministic given (inputs, flags, seed);
the seed defaults to 42 and may be set via SCALEMETRICS_SEED or --seed.
``analyze --format text`` and ``report`` both print :func:`render_text`.
``compare`` analyses its projects serially; ``--jobs`` is accepted and ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import cascades, ingest, scaling, simulate
from .errors import ConfigError, ParseError, ScaleMetricsError
from .metrics import ProductionMeasure, csv_number, observations_to_csv
from .windows import DAY, FixedWindow

DEFAULT_SEED = 42

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def parse_duration(text):
    """'5d', '12h', '30m', '45s' or plain seconds."""
    text = text.strip().lower()
    units = {"d": DAY, "h": 3600.0, "m": 60.0, "s": 1.0}
    factor = units.get(text[-1:], None)
    digits = text[:-1] if factor else text
    factor = factor or 1.0
    try:
        value = float(digits) * factor
    except ValueError:
        raise ConfigError(f"bad duration {text!r}") from None
    if not 0 < value < math.inf:
        raise ConfigError(f"duration must be positive and finite, got {text!r}")
    return value


def _default_seed():
    env = os.environ.get("SCALEMETRICS_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        seed = int(env)
    except ValueError:
        raise ConfigError(f"SCALEMETRICS_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise ConfigError(f"SCALEMETRICS_SEED must be >= 0, got {env!r}")
    return seed


def _load_history(path, input_format, include_merges=False):
    text = Path(path).read_text(encoding="utf-8")
    if input_format == "auto":
        first = next((ln for ln in text.splitlines() if ln.strip()), "")
        input_format = "log" if first.startswith("C|") else "jsonl"
    parse = ingest.parse_commit_log if input_format == "log" else ingest.parse_jsonl
    return parse(text, project_name=Path(path).stem, include_merges=include_merges)


def _json_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _history_summary(history):
    if len(history) == 0:
        return "0 commits"
    span = history.commits[-1].timestamp - history.commits[0].timestamp
    return (
        f"{len(history)} commits, {len(history.authors)} authors, "
        f"span {span / DAY:.1f} days"
    )


def cmd_ingest(args):
    alias_map = None
    if args.alias_map:
        try:
            alias_map = json.loads(Path(args.alias_map).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # unreadable, or not JSON
            raise ConfigError(f"alias map {args.alias_map}: {exc}") from None
    history = ingest.resolve_authors(
        _load_history(args.input, args.input_format, args.include_merges),
        alias_map=alias_map, drop_authors=args.drop_author)
    out = ingest.write_jsonl(history)
    if args.output:
        Path(args.output).write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)
    print(_history_summary(history), file=sys.stderr)
    return EXIT_OK


def _check_analysis_flags(args):
    """The arm-A window; out-of-range analysis flags are usage errors."""
    if not 0 < args.quantile < 1:
        raise ConfigError(f"--quantile must be in (0, 1), got {args.quantile}")
    if args.tau is not None and not 0 < args.tau < math.inf:
        raise ConfigError(f"--tau must be positive and finite, got {args.tau}")
    if args.bins_per_decade < 0:
        raise ConfigError(
            f"--bins-per-decade must be >= 0, got {args.bins_per_decade}")
    try:
        return FixedWindow(parse_duration(args.window))
    except ConfigError as exc:
        raise ConfigError(f"--window: {exc}") from None


def _analyze_history(history, args, window):
    """Full per-project analysis bundle as a plain dict."""
    measure = ProductionMeasure.from_string(args.measure)
    report = scaling.methodology_compare(
        history,
        measure,
        fixed_window=window,
        quantile=args.quantile,
        use_binning=args.bins_per_decade > 0,
        bins_per_decade=args.bins_per_decade or 5,
        seed=args.seed,
        estimator=args.estimator,
    )
    bundle = report.to_json()
    stats, error = scaling._attempt(lambda: cascades.branching_ratio(history, (
        cascades.default_tau(history) if args.tau is None else args.tau)))
    bundle["cascades"] = {"error": error} if stats is None else stats.to_json()
    bundle["config"] = {
        "window": args.window,
        "quantile": args.quantile,
        "measure": args.measure,
        "estimator": args.estimator,
        "bins_per_decade": args.bins_per_decade,
        "seed": args.seed,
    }
    return bundle, report


def cmd_analyze(args):
    window = _check_analysis_flags(args)
    history = _load_history(args.input, args.input_format)
    bundle, report = _analyze_history(history, args, window)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(_json_dumps(bundle), encoding="utf-8")
    measure = ProductionMeasure.from_string(args.measure)
    obs = report.arm_a_observations
    (outdir / "observations.csv").write_text(
        observations_to_csv(obs, measure), encoding="utf-8"
    )
    binned = scaling.log_bin(obs, args.bins_per_decade or 5)
    lines = ["n_mean,production_mean"] + [f"{csv_number(n)},{csv_number(p)}"
                                        for n, p in binned]
    (outdir / "binned.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.format == "json":
        sys.stdout.write(_json_dumps(bundle))
    else:
        sys.stdout.write(render_text(bundle))
    warnings = [e for e in (report.arm_a_error, report.arm_b_error) if e]
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_OK


def cmd_simulate(args):
    meta = {"generator": args.generator, "seed": args.seed}
    if args.generator == "zipf":
        history = simulate.simulate_zipf_growth(
            args.N, args.alpha, max_n=args.team_size,
            window_length=parse_duration(args.window), seed=args.seed,
        )
        max_n = len(history.authors)  # members 1..max_n all commit
        meta.update(
            alpha=args.alpha, N=args.N, max_n=max_n,
            S=simulate.zipf_total(args.N, args.alpha, max_n),
            expected_beta=1.0 - args.alpha,
        )
    elif args.generator == "branching":
        model = simulate.BranchingModel(
            eta=args.eta,
            immigrant_rate=args.immigrant_rate,
            offspring_delay_scale=args.delay_scale,
            horizon=parse_duration(args.horizon),
            seed=args.seed,
        )
        result = simulate.simulate_branching_stream(
            model, participants=args.participants,
            participation_mu=args.participation_mu,
        )
        history = result.history
        meta.update(
            eta=args.eta, immigrants=result.immigrants, events=result.events,
            truncated=result.truncated, participation_mu=args.participation_mu,
        )
    else:  # heavy-tail
        history = simulate.simulate_heavy_tail_participation(
            args.participation_mu, n_windows=args.windows,
            window_length=parse_duration(args.window), seed=args.seed,
        )
        meta.update(
            participation_mu=args.participation_mu,
            expected_beta=1.0 / args.participation_mu,
        )
    out = Path(args.output)
    out.write_text(ingest.write_jsonl(history), encoding="utf-8")
    out.with_suffix(out.suffix + ".meta.json").write_text(
        _json_dumps(meta), encoding="utf-8"
    )
    print(_history_summary(history), file=sys.stderr)
    return EXIT_OK


def cmd_compare(args):
    window = _check_analysis_flags(args)
    corpus = sorted(Path(args.corpus_dir).glob("*.jsonl"))
    if not corpus:
        print(f"no *.jsonl files in {args.corpus_dir}", file=sys.stderr)
        return EXIT_DATA
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    regime_counts = {}
    projects = []
    for path in corpus:
        name = path.stem
        bundle, _ = _analyze_history(_load_history(path, "jsonl"), args, window)
        (outdir / f"{name}.report.json").write_text(
            _json_dumps(bundle), encoding="utf-8"
        )
        arm_a = bundle["arm_a"]["fit"]
        row = {
            "project": name,
            "beta": arm_a["beta"] if arm_a else None,
            "superlinear": arm_a["superlinear"] if arm_a else None,
            "regimes": bundle["regimes"],
            "single_commit_share": bundle["single_commit_share"],
        }
        projects.append(row)
        for regime in bundle["regimes"].values():
            regime_counts[regime] = regime_counts.get(regime, 0) + 1
    summary = {
        "projects": projects,
        "regime_counts": dict(sorted(regime_counts.items())),
        "project_count": len(projects),
    }
    (outdir / "summary.json").write_text(_json_dumps(summary), encoding="utf-8")
    for row in projects:
        beta = "-" if row["beta"] is None else f"{row['beta']:.3f}"
        print(f"{row['project']:<30} beta={beta:>8} regimes={row['regimes']}")
    print(f"regime counts: {summary['regime_counts']}")
    return EXIT_OK


def render_text(bundle):
    """Plain-text summary of a report.json bundle: both arms, the tail fits
    and the cascades. ``analyze --format text`` and ``report`` print it."""
    a, b, casc = bundle["arm_a"], bundle["arm_b"], bundle.get("cascades")
    fit, slope, ci = a["fit"], b["per_member_slope"], b["per_member_slope_ci"]
    wl = b["window_length_seconds"]
    lines = [
        f"project: {bundle['project']}   measure: {bundle['measure']}",
        f"single-commit share: {bundle['single_commit_share']:.3f}",
        f"P(commits) >= n in every window: {bundle['min_commit_inequality_holds']}",
        "",
        f"arm A (production scaling, window {a['window_length_seconds'] / DAY:g} d):",
        f"  beta = {fit['beta']:.4f}  CI [{fit['ci'][0]:.4f}, {fit['ci'][1]:.4f}]"
        f"  r2 = {fit['r_squared']:.3f}  points = {fit['n_points']}"
        f"  superlinear = {fit['superlinear']}" if fit else f"  unavailable: {a['error']}",
        f"arm B (mean productivity, window {wl / DAY:g} d):" if wl
        else "arm B (mean productivity):",
        f"  slope of ln(P/n) = {slope:.4f}  CI [{ci[0]:.4f}, {ci[1]:.4f}]"
        f"  mean P/n = {b['mean_output_per_member']:.3f}" if slope is not None
        else f"  unavailable: {b['error']}",
        "tail fits:",
    ]
    lines += [f"  {m}: mu = {f['mu']:.4f}  CI [{f['ci'][0]:.4f}, {f['ci'][1]:.4f}]"
              f"  xmin = {f['xmin']:g}  k = {f['k']}  regime = {bundle['regimes'][m]}"
              for m, f in bundle["tails"].items()]
    lines += [f"  {m}: unavailable: {reason}" for m, reason in bundle["tail_errors"].items()]
    if casc:
        lines.append(f"cascades: unavailable: {casc['error']}" if "error" in casc else
                     f"cascades: {casc['cascades']} over {casc['events']} events,"
                     f" eta_hat = {casc['eta_hat']:.3f} (tau = {casc['tau']:g} s)")
    return "\n".join(lines) + "\n"


def cmd_report(args):
    try:
        bundle = json.loads(Path(args.report).read_text(encoding="utf-8"))
        if not isinstance(bundle, dict):
            raise TypeError(f"an object is needed, got {type(bundle).__name__}")
        text = render_text(bundle)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        part = f"no {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
        raise ParseError(f"{args.report} is not a report bundle: {part}") from None
    sys.stdout.write(text)
    return EXIT_OK


def _add_analysis_flags(p):
    p.add_argument("--window", default="5d", help="arm A window length (default 5d)")
    p.add_argument("--quantile", type=float, default=0.9,
                   help="arm B inter-commit gap quantile (default 0.9)")
    p.add_argument("--measure", default="commits",
                   choices=[m.value for m in ProductionMeasure])
    p.add_argument("--estimator", default="both", choices=list(scaling.TAIL_METHODS))
    p.add_argument("--bins-per-decade", type=int, default=5,
                   help="log-binning density for arm A; 0 disables binning")
    p.add_argument("--tau", type=float, default=None,
                   help="cascade gap threshold in seconds (default: 10th pct gap)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", default="text", choices=["json", "text"])


def build_parser():
    parser = _Parser(prog="scalemetrics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a commit log into canonical JSONL")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--input-format", default="auto", choices=["auto", "log", "jsonl"])
    p.add_argument("--include-merges", action="store_true")
    p.add_argument("--alias-map", default=None,
                   help="JSON file mapping raw identities to canonical ones")
    p.add_argument("--drop-author", action="append", default=[],
                   help="canonical key to drop (repeatable, e.g. bots)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("analyze", help="run both methodologies on one history")
    p.add_argument("input")
    p.add_argument("-o", "--output-dir", default="scalemetrics-out")
    p.add_argument("--input-format", default="auto", choices=["auto", "log", "jsonl"])
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="generate a synthetic history + sidecar")
    p.add_argument("generator", choices=["zipf", "branching", "heavy-tail"])
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--window", default="5d")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--N", type=float, default=10.0, help="top contributor commits")
    p.add_argument("--alpha", type=float, default=0.5, help="Zipf rank exponent")
    p.add_argument("--team-size", type=int, default=None)
    p.add_argument("--eta", type=float, default=0.5, help="branching ratio")
    p.add_argument("--immigrant-rate", type=float, default=0.002)
    p.add_argument("--delay-scale", type=float, default=1.0)
    p.add_argument("--horizon", default="1000000s")
    p.add_argument("--participants", type=int, default=500)
    p.add_argument("--participation-mu", type=float, default=0.7)
    p.add_argument("--windows", type=int, default=60)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="analyze a corpus directory, tally regimes")
    p.add_argument("corpus_dir")
    p.add_argument("-o", "--output-dir", default="scalemetrics-compare")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: projects are analysed one by one")
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="render a saved report.json as text")
    p.add_argument("report")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        elif getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except SystemExit as exc:
        return exc.code or EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ScaleMetricsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
