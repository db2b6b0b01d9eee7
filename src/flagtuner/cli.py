"""Command-line campaign runner.

Subcommands: ric, ce, suite-ce, oracle, report, xval, predict-1nn.

Campaigns are described by a JSON config file (paths to the flag space,
suite or synthetic model, cache file, plus seed and algorithm parameters)
and write their artifacts into an output directory: trace file, final
configuration, resume checkpoint and a summary. Artifact files are
byte-reproducible for identical inputs and seed; timestamps go only to
run.log.

Exit codes: 0 success, 1 usage/parse error, 2 campaign failure,
3 interrupted with a valid checkpoint. An OSError once a campaign is built
interrupts it (3), or fails it (2) if the checkpoint cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime
from functools import partial
from pathlib import Path
from statistics import fmean
from typing import Callable

from flagtuner.analysis import (
    compare_to_baseline,
    floored_best_so_far,
    load_features,
    make_folds,
    performance_table,
    predict_1nn,
    run_xval,
)
from flagtuner.artifacts import (
    file_digest,
    read_checkpoint,
    read_trace,
    write_checkpoint,
    write_compare,
    write_csv,
    write_final_config,
    write_json,
    write_series,
    write_text,
    write_trace,
)
from flagtuner.evaluator import (
    Benchmark,
    CacheLockedError,
    CommandEvaluator,
    EvalCache,
    SyntheticEvaluator,
    SyntheticModel,
    load_suite,
    load_synthetic_model,
)
from flagtuner.flagspace import FlagSpace, FlagSpaceError, load_flag_space, render_args
from flagtuner.oracle import (
    DEFAULT_MAX_FLAGS,
    per_benchmark_optimum,
    suite_constrained_optimum,
)
from flagtuner.search import (
    AGGREGATES,
    BudgetedEvaluator,
    CampaignError,
    CampaignInterrupted,
    CampaignTrace,
    CEState,
    SuiteCEParams,
    best_known_record,
    run_ce,
    run_ric,
    run_suite_ce,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAMPAIGN = 2
EXIT_INTERRUPTED = 3


class ConfigError(ValueError):
    """Bad campaign config file or inconsistent resume request."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are exit code 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass
class CampaignConfig:
    command: str
    flag_space: Path
    mode: str
    model: Path | None
    suite: Path | None
    cache: str
    out_dir: Path | None
    seed: int
    n_configs: int
    threshold_t: float
    aggregate: str
    k: int
    benchmark: str | None
    benchmarks: list[str] | None


def load_campaign_config(
    path: str | Path,
    command: str,
    seed_override: int | None = None,
    threshold_override: float | None = None,
) -> CampaignConfig:
    """The config of ``path`` for ``command``, with the command line's seed
    and threshold, checked field by field. What depends on the model or
    suite is checked by ``_load_inputs``."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: a campaign config must be a JSON object")
    base = path.parent

    def resolve(key: str, required: bool) -> Path | None:
        value = data.get(key)
        if value is None:
            if required:
                raise ConfigError(f"{path}: missing required field {key!r}")
            return None
        p = Path(value)
        if not p.is_absolute():
            p = base / p
        if not p.exists():
            raise ConfigError(f"{path}: {key} file not found: {p}")
        return p

    mode = data.get("mode", "synthetic")
    if mode not in ("synthetic", "external"):
        raise ConfigError(f"{path}: mode must be 'synthetic' or 'external'")
    try:
        cfg = CampaignConfig(
            command=command,
            flag_space=resolve("flag_space", required=True),
            mode=mode,
            model=resolve("model", required=(mode == "synthetic")),
            suite=resolve("suite", required=(mode == "external")),
            cache="cache.jsonl" if data.get("cache") is None else str(data["cache"]),
            out_dir=None if data.get("out_dir") is None else base / data["out_dir"],
            seed=int(data.get("seed", 0)) if seed_override is None else seed_override,
            n_configs=int(data.get("n_configs", 100)),
            threshold_t=(
                float(data.get("threshold_t", 0.0)) if threshold_override is None
                else threshold_override
            ),
            aggregate=str(data.get("aggregate", "mean")),
            k=int(data.get("k", 10)),
            benchmark=data.get("benchmark"),
            benchmarks=list(data["benchmarks"]) if data.get("benchmarks") else None,
        )
    except TypeError as exc:  # a field of the wrong JSON type
        raise ConfigError(f"{path}: {exc}") from exc
    if cfg.aggregate not in AGGREGATES:
        raise ConfigError(f"{path}: unknown aggregate {cfg.aggregate!r}")
    if not cfg.threshold_t >= 0:  # NaN as well
        raise ConfigError(f"{path}: threshold_t must be >= 0, got {cfg.threshold_t}")
    if cfg.n_configs < 1:
        raise ConfigError(f"{path}: n_configs must be >= 1, got {cfg.n_configs}")
    if cfg.k < 2:
        raise ConfigError(f"{path}: k must be >= 2, got {cfg.k}")
    return cfg


def input_digests(cfg: CampaignConfig) -> dict[str, str]:
    return {
        "flag_space": file_digest(cfg.flag_space),
        "model": file_digest(cfg.model) if cfg.model else "",
        "suite": file_digest(cfg.suite) if cfg.suite else "",
    }


@dataclass
class Campaign:
    cfg: CampaignConfig
    out: Path
    space: object
    evaluator: object
    counters: object  # the concrete evaluator carrying executions/cache_hits
    benchmarks: list[str]
    cache: EvalCache


def _load_space(path: str | Path) -> FlagSpace:
    try:
        return load_flag_space(path)
    except (FlagSpaceError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_inputs(
    cfg: CampaignConfig,
) -> tuple[FlagSpace, SyntheticModel | list[Benchmark], list[str]]:
    """The flag space, the model (checked against the space) or suite, which
    must hold a benchmark, and the benchmarks the config selects: its
    ``benchmarks`` (default: all available), which must hold ``benchmark``
    and, for ``xval``, at least ``k`` names."""
    space = _load_space(cfg.flag_space)
    source = cfg.model if cfg.mode == "synthetic" else cfg.suite
    try:
        if cfg.mode == "synthetic":
            model_or_suite = load_synthetic_model(source)
            model_or_suite.validate(space)
            available = model_or_suite.benchmark_names
        else:
            model_or_suite = load_suite(source)
            available = [b.name for b in model_or_suite]
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    if not available:
        raise ConfigError(f"{source}: no benchmarks")
    benchmarks = available if cfg.benchmarks is None else list(cfg.benchmarks)
    missing = [b for b in benchmarks if b not in available]
    if missing:
        raise ConfigError(f"unknown benchmarks in config: {missing}")
    if cfg.benchmark and cfg.benchmark not in benchmarks:
        raise ConfigError(f"unknown benchmark: {[cfg.benchmark]}")
    if cfg.command == "xval" and cfg.k > len(benchmarks):
        raise ConfigError(f"k={cfg.k} is above the {len(benchmarks)} selected benchmarks")
    return space, model_or_suite, benchmarks


def build_campaign(cfg: CampaignConfig, out: Path, max_evals: int | None = None) -> Campaign:
    """Check every input, then create the out dir and open the cache, so a
    rejected config leaves nothing behind."""
    space, model_or_suite, benchmarks = _load_inputs(cfg)
    if cfg.mode == "synthetic":
        evaluator = SyntheticEvaluator(space, model_or_suite)
    else:
        evaluator = CommandEvaluator(
            space, model_or_suite, workdir=cfg.suite.parent, build_dir=out / "build"
        )
    out.mkdir(parents=True, exist_ok=True)
    cache_path = Path(cfg.cache)
    if not cache_path.is_absolute():
        cache_path = out / cache_path
    evaluator.cache = cache = EvalCache(cache_path)
    counters = evaluator
    if max_evals is not None:
        evaluator = BudgetedEvaluator(evaluator, max_evals)
    return Campaign(cfg, out, space, evaluator, counters, benchmarks, cache)


def _log(out: Path, message: str) -> None:
    with open(out / "run.log", "a", encoding="utf-8") as fh:
        fh.write(f"{datetime.now().isoformat()} {message}\n")


def _write_summary(out: Path, lines: list[str]) -> None:
    write_text(out / "summary.txt", "\n".join(lines) + "\n")
    for line in lines:
        print(line)


def _check_resume(resume: str, cfg: CampaignConfig) -> None:
    ck = read_checkpoint(resume)
    if not isinstance(ck, dict):
        raise ConfigError(f"{resume}: a checkpoint must be a JSON object")
    if ck.get("command") != cfg.command:
        raise ConfigError(f"checkpoint is for {ck.get('command')!r}, not {cfg.command!r}")
    if ck.get("seed") != cfg.seed:
        raise ConfigError(f"checkpoint seed {ck.get('seed')} != requested seed {cfg.seed}")
    if ck.get("inputs") != input_digests(cfg):
        raise ConfigError("checkpoint input files differ from the current config")


def _baseline_reference(trace: CampaignTrace) -> dict[str, float]:
    if not trace.records:
        raise ValueError("trace has no records")
    rec = trace.records[0]
    if rec.annotation != "baseline":
        raise ValueError("trace does not start with a baseline record")
    refs = {b: m.time for b, m in rec.measurements.items() if m.ok}
    if not refs:
        raise ValueError("baseline record has no ok measurements")
    return refs


def _load_config(args, command: str) -> tuple[CampaignConfig, Path]:
    """The checked config with the command line's seed and threshold, and
    the out dir."""
    cfg = load_campaign_config(args.config, command, args.seed, getattr(args, "threshold", None))
    return cfg, Path(args.out) if args.out else (cfg.out_dir or Path("out"))


# ---------------------------------------------------------------------------
# Campaign commands: ric, ce, suite-ce, xval
# ---------------------------------------------------------------------------

@dataclass
class _Run:
    """What a campaign command has reached, for its checkpoint.

    ``trace``, the trace being built, is written to ``trace_path`` when the
    command ends, complete or interrupted, and its length leads the
    checkpoint's progress.
    """

    params: dict = field(default_factory=dict)
    trace: CampaignTrace | None = None
    trace_path: Path | None = None
    state: CEState | None = None
    progress: dict = field(default_factory=dict)


def _run_campaign(args, command: str, body: Callable[[Campaign, _Run], list[str]]) -> int:
    """The lifecycle the campaign commands share.

    ``--resume`` is validated before the out dir or the cache is touched.
    ``body`` runs the search, writes the command's own artifacts, records in
    its ``_Run`` what the checkpoint needs and returns the summary lines.
    An interruption, Ctrl-C or a spent ``--max-evals`` budget, ends the
    body early and leaves an interrupted checkpoint. So does an ``OSError``
    once the campaign is built (a full disk, a compiler that cannot be
    started); when even the trace or the checkpoint cannot be written, the
    campaign fails instead.
    """
    cfg, out = _load_config(args, command)
    if args.resume:
        _check_resume(args.resume, cfg)
    camp = build_campaign(cfg, out, args.max_evals)
    run = _Run()
    try:
        try:
            summary = body(camp, run)
        finally:
            camp.cache.close()
    except (CampaignInterrupted, KeyboardInterrupt):
        summary = None
    except OSError as exc:
        print(f"flagtuner: {exc}", file=sys.stderr)
        summary = None
    progress = run.progress if run.trace is None else {"records": len(run.trace), **run.progress}
    try:
        if run.trace is not None:
            write_trace(run.trace_path, run.trace)
        write_checkpoint(
            out / "checkpoint.json",
            command=command,
            status="interrupted" if summary is None else "complete",
            seed=cfg.seed,
            input_digests=input_digests(cfg),
            params=run.params,
            state=run.state,
            progress=progress,
        )
        if summary is None:
            _log(out, f"{command} interrupted, progress {json.dumps(progress)}")
        else:
            _write_summary(out, summary)
            _log(out, f"{command} complete")
    except OSError as exc:
        print(f"flagtuner: campaign failed: {exc}", file=sys.stderr)
        return EXIT_CAMPAIGN
    if summary is None:
        print(
            f"{command}: interrupted; checkpoint written to {out / 'checkpoint.json'}",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    return EXIT_OK


def _ric(camp: Campaign, run: _Run) -> list[str]:
    cfg, out = camp.cfg, camp.out
    run.params = {"n_configs": cfg.n_configs}
    run.trace, run.trace_path = CampaignTrace(), out / "ric.trace"
    _log(out, f"ric start seed={cfg.seed} n_configs={cfg.n_configs}")
    trace = run_ric(
        camp.space, camp.benchmarks, camp.evaluator, cfg.n_configs, cfg.seed, trace=run.trace
    )

    best = {}
    for bench in camp.benchmarks:
        try:
            _, rec, meas = best_known_record([trace], bench)
        except CampaignError:
            best[bench] = {"error": "no ok measurement"}
            continue
        best[bench] = {
            "base_level": rec.config.base_level,
            "bitstring": rec.config.bitstring,
            "time": meas.time,
            "args": render_args(camp.space, rec.config),
        }
    write_json(out / "ric.best.json", best)
    try:
        final = floored_best_so_far(trace, _baseline_reference(trace)).points[-1][1]
        ratio_text = f"{final:.6g}"
    except ValueError:
        ratio_text = "n/a"
    return [
        f"ric: evaluations={camp.counters.executions} cache_hits={camp.counters.cache_hits} "
        f"configs_tested={len(trace)} floored_best_ratio={ratio_text}"
    ]


def _ce(camp: Campaign, run: _Run) -> list[str]:
    targets = [camp.cfg.benchmark] if camp.cfg.benchmark else camp.benchmarks
    run.params = {"benchmarks": targets}
    summary = []
    completed: list[str] = []
    _log(camp.out, f"ce start targets={targets}")
    for bench in targets:
        run.trace, run.state = CampaignTrace(), CEState()
        run.trace_path = camp.out / f"ce_{bench}.trace"
        run.progress = {"completed": completed, "current": bench}
        config, trace = run_ce(camp.space, bench, camp.evaluator, trace=run.trace, state=run.state)
        write_trace(run.trace_path, trace)
        write_final_config(camp.out / f"ce_{bench}.config.json", camp.space, config)
        base_time = trace.records[0].measurements[bench].time
        final_time = best_known_record([trace], bench)[2].time
        summary.append(
            f"ce {bench}: configs_tested={len(trace)} final_ratio={final_time / base_time:.6g}"
        )
        completed.append(bench)
    run.trace = run.state = None
    run.progress = {"completed": completed}
    summary.append(
        f"ce: evaluations={camp.counters.executions} cache_hits={camp.counters.cache_hits}"
    )
    return summary


def _suite_ce(camp: Campaign, run: _Run) -> list[str]:
    cfg = camp.cfg
    run.params = {"threshold_t": cfg.threshold_t, "aggregate": cfg.aggregate}
    run.trace, run.state = CampaignTrace(), CEState()
    run.trace_path = camp.out / "suite_ce.trace"
    _log(camp.out, f"suite-ce start t={cfg.threshold_t}")
    config, trace = run_suite_ce(
        camp.space, camp.benchmarks, camp.evaluator,
        SuiteCEParams(threshold_t=cfg.threshold_t, aggregate=cfg.aggregate),
        trace=run.trace, state=run.state,
    )
    write_final_config(camp.out / "suite_ce.config.json", camp.space, config)
    # The final configuration is measured once, fully: it is the baseline or
    # the last accepted toggle.
    final = next(rec for rec in trace if rec.config == config)
    refs = _baseline_reference(trace)
    aggregate = AGGREGATES[cfg.aggregate](
        [final.measurements[b].time / refs[b] for b in camp.benchmarks]
    )
    return [
        f"suite-ce: evaluations={camp.counters.executions} "
        f"cache_hits={camp.counters.cache_hits} configs_tested={len(trace)} "
        f"final_aggregate={aggregate:.6g}"
    ]


def _xval(camp: Campaign, run: _Run) -> list[str]:
    cfg, out = camp.cfg, camp.out
    run.params = {"k": cfg.k, "threshold_t": cfg.threshold_t, "aggregate": cfg.aggregate}
    plan = make_folds(camp.benchmarks, cfg.k, cfg.seed)
    write_json(out / "folds.json", {"k": plan.k, "seed": cfg.seed, "assignment": plan.assignment})
    _log(out, f"xval start k={cfg.k} t={cfg.threshold_t}")
    suite_params = SuiteCEParams(threshold_t=cfg.threshold_t, aggregate=cfg.aggregate)
    results = run_xval(camp.space, camp.benchmarks, camp.evaluator, suite_params, plan)

    all_ratios, rows = [], []
    for res in results:
        if res.error is not None:
            rows.append(["", res.fold, "", res.error])
            continue
        write_trace(out / f"fold_{res.fold}.trace", res.trace)
        write_final_config(out / f"fold_{res.fold}.config.json", camp.space, res.config)
        for program, ratio in res.test_ratios.items():
            rows.append([program, res.fold, repr(ratio), ""])
            all_ratios.append(ratio)
    if all_ratios:
        rows.append(["overall_mean", "", repr(fmean(all_ratios)), ""])
    write_csv(out / "xval_report.csv", ["program", "fold", "ratio", "error"], rows)
    run.progress = {"folds": plan.k}
    mean_text = f"{fmean(all_ratios):.6g}" if all_ratios else "n/a"
    return [
        f"xval: folds={plan.k} evaluations={camp.counters.executions} "
        f"cache_hits={camp.counters.cache_hits} mean_test_ratio={mean_text}"
    ]


# ---------------------------------------------------------------------------
# Other commands
# ---------------------------------------------------------------------------

def cmd_oracle(args) -> int:
    cfg, out = _load_config(args, "oracle")
    if cfg.mode != "synthetic":
        raise ConfigError("oracle requires a synthetic-mode config")
    space, model, benchmarks = _load_inputs(cfg)
    if len(space) > args.max_flags:
        raise ConfigError(
            f"flag space has {len(space)} flags, above --max-flags {args.max_flags}"
        )
    out.mkdir(parents=True, exist_ok=True)
    stock = space.stock_config()
    reference = {b: model.time_for(space, stock, b) for b in benchmarks}

    rows = []
    for b in benchmarks:
        t, config = per_benchmark_optimum(space, model, b, max_flags=args.max_flags)
        rows.append([b, repr(t), repr(reference[b]), repr(t / reference[b]),
                     config.base_level, config.bitstring])
    header = ["benchmark", "best_time", "ref_time", "ratio", "base_level", "bitstring"]
    write_csv(out / "oracle_per_benchmark.csv", header, rows)

    constrained = suite_constrained_optimum(
        space, model, benchmarks, cfg.threshold_t, reference,
        base_level=stock.base_level, aggregate_fn=AGGREGATES[cfg.aggregate],
        max_flags=args.max_flags,
    )
    if constrained is None:
        raise CampaignError("no feasible configuration under the threshold")
    agg, config = constrained
    data = {
        "threshold_t": cfg.threshold_t,
        "aggregate_ratio": agg,
        "base_level": config.base_level,
        "bitstring": config.bitstring,
        "args": render_args(space, config),
    }
    write_json(out / "oracle_constrained.json", data)
    _write_summary(
        out,
        [f"oracle: benchmarks={len(benchmarks)} constrained_aggregate={agg:.6g}"],
    )
    return EXIT_OK


def cmd_report(args) -> int:
    out = Path(args.out) if args.out else Path("out")
    space = _load_space(args.space)
    named = []
    for p in args.traces:
        path = Path(p)
        if not path.exists():
            raise ConfigError(f"trace not found: {path}")
        named.append((path.stem, read_trace(path, space)))
    ref_trace = named[0][1]
    if args.reference:
        ref_trace = read_trace(args.reference, space)
    reference = _baseline_reference(ref_trace)

    table = compare_to_baseline(named, reference)
    series = [(name, floored_best_so_far(trace, reference)) for name, trace in named]
    out.mkdir(parents=True, exist_ok=True)
    write_compare(out / "compare.csv", table)
    for name, points in series:
        write_series(out / f"{name}.series.csv", points)
    _write_summary(
        out,
        [
            f"report: benchmarks={len(table.rows)} mean_ratio={table.mean_ratio:.6g} "
            f"mean_ratio_floored={table.mean_ratio_floored:.6g}"
        ],
    )
    return EXIT_OK


def cmd_predict_1nn(args) -> int:
    out = Path(args.out) if args.out else Path("out")
    space = _load_space(args.space)
    features = {fv.name: fv for fv in load_features(args.features)}
    if args.query not in features:
        raise ConfigError(f"query program {args.query!r} not in the feature table")
    manifest_path = Path(args.training)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{manifest_path}: {exc}") from exc
    if not isinstance(manifest, list):
        raise ConfigError(f"{manifest_path}: a training manifest must be a JSON list")
    training = []
    for i, rec in enumerate(manifest):
        if not isinstance(rec, dict) or not all(
            isinstance(rec.get(k), str) for k in ("program", "trace")
        ) or not isinstance(rec.get("benchmark", ""), str):
            raise ConfigError(
                f"{manifest_path}: record {i} needs string program, trace and optional benchmark"
            )
        program = rec["program"]
        if program == args.query:
            continue
        if program not in features:
            raise ConfigError(f"training program {program!r} not in the feature table")
        trace_path = Path(rec["trace"])
        if not trace_path.is_absolute():
            trace_path = manifest_path.parent / trace_path
        trace = read_trace(trace_path, space)
        table = performance_table(trace, rec.get("benchmark", program))
        training.append((features[program], table))
    config = predict_1nn(features[args.query], training)
    out.mkdir(parents=True, exist_ok=True)
    write_final_config(out / "predicted.config.json", space, config)
    _write_summary(
        out,
        [f"predict-1nn {args.query}: {' '.join(render_args(space, config))}"],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="flagtuner", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    config_opts = _Parser(add_help=False)
    config_opts.add_argument("--config", required=True, help="campaign config JSON")
    config_opts.add_argument("--seed", type=int, default=None, help="override config seed")
    config_opts.add_argument("--out", default=None, help="output directory")

    campaign_opts = _Parser(add_help=False, parents=[config_opts])
    campaign_opts.add_argument("--resume", default=None, help="resume from a checkpoint file")
    campaign_opts.add_argument(
        "--max-evals", type=int, default=None,
        help="interrupt after this many fresh evaluations (writes a checkpoint)",
    )

    p = sub.add_parser("ric", parents=[campaign_opts], help="random iterative compilation")
    p.set_defaults(handler=partial(_run_campaign, command="ric", body=_ric))

    p = sub.add_parser("ce", parents=[campaign_opts], help="per-benchmark combined elimination")
    p.set_defaults(handler=partial(_run_campaign, command="ce", body=_ce))

    p = sub.add_parser("suite-ce", parents=[campaign_opts], help="suite-wide combined elimination")
    p.add_argument("--threshold", type=float, default=None, help="override threshold t percent")
    p.set_defaults(handler=partial(_run_campaign, command="suite-ce", body=_suite_ce))

    p = sub.add_parser("oracle", parents=[config_opts], help="brute-force optimum (synthetic only)")
    p.add_argument("--max-flags", type=int, default=DEFAULT_MAX_FLAGS)
    p.add_argument("--threshold", type=float, default=None, help="override threshold t percent")
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("report", help="comparison table and progress series from traces")
    p.add_argument("traces", nargs="+", help="trace files")
    p.add_argument("--space", required=True, help="flag-space JSON the traces were produced with")
    p.add_argument("--reference", default=None, help="trace whose baseline supplies reference times")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("xval", parents=[campaign_opts], help="k-fold cross-validation of suite-ce")
    p.add_argument("--threshold", type=float, default=None, help="override threshold t percent")
    p.set_defaults(handler=partial(_run_campaign, command="xval", body=_xval))

    p = sub.add_parser("predict-1nn", help="nearest-neighbor configuration prediction")
    p.add_argument("features", help="feature table CSV")
    p.add_argument("training", help="training manifest JSON: [{program, trace, benchmark?}]")
    p.add_argument("query", help="program to predict for")
    p.add_argument("--space", required=True, help="flag-space JSON")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_predict_1nn)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"flagtuner: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CacheLockedError as exc:
        print(f"flagtuner: {exc}", file=sys.stderr)
        return EXIT_CAMPAIGN
    except CampaignError as exc:
        print(f"flagtuner: campaign failed: {exc}", file=sys.stderr)
        return EXIT_CAMPAIGN


if __name__ == "__main__":
    sys.exit(main())
