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
from typing import Callable, get_args, get_type_hints

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
    CampaignInterrupted,
    CommandEvaluator,
    EvalCache,
    SyntheticEvaluator,
    SyntheticModel,
    load_suite,
    load_synthetic_model,
)
from flagtuner.flagspace import (
    DEFAULT_MAX_FLAGS,
    FlagSpace,
    json_field,
    json_value,
    load_flag_space,
    render_args,
)
from flagtuner.search import (
    AGGREGATES,
    CampaignError,
    CampaignTrace,
    CEState,
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
    """The command a config is loaded for, then the fields of its file with
    their defaults. A field's annotation gives the JSON kind its file value
    must have (see ``_FILE_KINDS``)."""

    command: str
    flag_space: Path | None = None
    mode: str = "synthetic"
    model: Path | None = None
    suite: Path | None = None
    cache: str = "cache.jsonl"
    out_dir: Path | None = None
    seed: int = 0
    n_configs: int = 100
    threshold_t: float = 0.0
    aggregate: str = "mean"
    k: int = 10
    benchmark: str | None = None
    benchmarks: list | None = None


# Each field a config file may hold, with its JSON kind: X's for an ``X | None``
# annotation, and a string for a path. The command is argv's.
_FILE_KINDS = {name: str if Path in get_args(hint) else (get_args(hint) or [hint])[0]
               for name, hint in get_type_hints(CampaignConfig).items() if name != "command"}


def input_digests(cfg: CampaignConfig) -> dict[str, str]:
    return {
        "flag_space": file_digest(cfg.flag_space),
        "model": file_digest(cfg.model) if cfg.model else "",
        "suite": file_digest(cfg.suite) if cfg.suite else "",
    }


def _load_config(args, command: str) -> tuple[CampaignConfig, Path]:
    """The config of ``--config`` for ``command``, with the command line's
    seed and threshold, checked field by field, and the out dir. An unknown
    field and a ``--max-evals`` below 1 are rejected too. What depends on
    the model or suite is checked by ``_load_inputs``, and ``--resume`` and
    the cache path by ``build_campaign``."""
    path = Path(args.config)
    try:
        data = json_value(json.loads(path.read_text(encoding="utf-8")), dict, "a campaign config")
        unknown = [key for key in data if key not in _FILE_KINDS]
        if unknown:
            raise ValueError(f"unknown fields {unknown}")
        cfg = CampaignConfig(command, **{key: json_value(value, _FILE_KINDS[key], key)
                                         for key, value in data.items() if value is not None})
        if cfg.mode not in ("synthetic", "external"):
            raise ValueError("mode must be 'synthetic' or 'external'")
        for key in ("flag_space", "model" if cfg.mode == "synthetic" else "suite"):
            json_field(data, key, str)  # required: raises if missing
        names = [json_value(b, str, f"benchmarks[{i}]") for i, b in enumerate(cfg.benchmarks or [])]
        if cfg.benchmarks is not None and not (names and len(set(names)) == len(names)):
            raise ValueError("benchmarks must be a non-empty list of distinct names")
    except (OSError, ValueError) as exc:  # a missing file or malformed JSON too
        raise ConfigError(f"{path}: {exc}") from exc
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "threshold", None) is not None:
        cfg.threshold_t = args.threshold
    for key in ("flag_space", "model", "suite", "out_dir"):  # relative to the config
        if getattr(cfg, key) is not None:
            setattr(cfg, key, path.parent / getattr(cfg, key))
            if key != "out_dir" and not getattr(cfg, key).exists():
                raise ConfigError(f"{path}: {key} file not found: {getattr(cfg, key)}")
    if cfg.aggregate not in AGGREGATES:
        raise ConfigError(f"{path}: unknown aggregate {cfg.aggregate!r}")
    if not cfg.threshold_t >= 0:  # NaN as well
        raise ConfigError(f"{path}: threshold_t must be >= 0, got {cfg.threshold_t}")
    if cfg.n_configs < 1:
        raise ConfigError(f"{path}: n_configs must be >= 1, got {cfg.n_configs}")
    if cfg.k < 2:
        raise ConfigError(f"{path}: k must be >= 2, got {cfg.k}")
    max_evals = getattr(args, "max_evals", None)
    if max_evals is not None and max_evals < 1:
        raise ConfigError(f"--max-evals must be >= 1, got {max_evals}")
    return cfg, Path(args.out) if args.out else (cfg.out_dir or Path("out"))


@dataclass
class Campaign:
    """A built campaign, and what its command has reached, for its checkpoint.

    ``trace``, the trace being built, is written to ``trace_path`` when the
    command ends, complete or interrupted, and its length leads the
    checkpoint's progress.
    """

    cfg: CampaignConfig
    out: Path
    space: object
    evaluator: SyntheticEvaluator | CommandEvaluator
    benchmarks: list[str]
    params: dict
    trace: CampaignTrace | None = None
    trace_path: Path | None = None
    state: CEState | None = None
    progress: dict = field(default_factory=dict)

    @property
    def counters(self) -> SyntheticEvaluator | CommandEvaluator:
        """The evaluator, under the name the benchmark's worker reads."""
        return self.evaluator

    def counts(self) -> str:
        return f"evaluations={self.evaluator.executions} cache_hits={self.evaluator.cache_hits}"


def _load_space(path: str | Path) -> FlagSpace:
    try:
        return load_flag_space(path)
    except ValueError as exc:
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


def _params(cfg: CampaignConfig, benchmarks: list[str]) -> dict:
    """The parameters of a campaign, as its checkpoint records them."""
    if cfg.command == "ric":
        return {"n_configs": cfg.n_configs}
    if cfg.command == "ce":  # the benchmarks it tunes, one by one
        return {"benchmarks": [cfg.benchmark] if cfg.benchmark else benchmarks}
    suite = {"threshold_t": cfg.threshold_t, "aggregate": cfg.aggregate}
    return {"k": cfg.k, **suite} if cfg.command == "xval" else suite


def build_campaign(
    cfg: CampaignConfig, out: Path, max_evals: int | None = None, resume: str | None = None
) -> Campaign:
    """Check every input, a ``resume`` checkpoint too, which must be for the
    same command, seed, input files and parameters, then create the out dir
    and open the cache, so a rejected config leaves nothing behind."""
    space, model_or_suite, benchmarks = _load_inputs(cfg)
    params = _params(cfg, benchmarks)
    if resume:  # each of these checkpoint fields must hold what this campaign would write
        want = {"command": cfg.command, "seed": cfg.seed, "inputs": input_digests(cfg),
                "params": params}
        try:
            ck = json_value(read_checkpoint(resume), dict, "a checkpoint")
            for key, value in want.items():
                if json_field(ck, key, type(value)) != value:
                    raise ValueError(f"checkpoint {key} {ck[key]} != requested {key} {value}")
        except ValueError as exc:  # malformed JSON too
            raise ConfigError(f"{resume}: {exc}") from exc
    cache_path = out / cfg.cache  # an absolute cache path stays as it is
    if cache_path.is_dir() or out.resolve().is_relative_to(cache_path.resolve()):
        raise ConfigError(f"cache {cfg.cache!r} names a directory, not a file")
    if cfg.mode == "synthetic":
        evaluator = SyntheticEvaluator(space, model_or_suite, max_evals=max_evals)
    else:
        evaluator = CommandEvaluator(space, model_or_suite, workdir=cfg.suite.parent,
                                     build_dir=out / "build", max_evals=max_evals)
    out.mkdir(parents=True, exist_ok=True)
    evaluator.cache = EvalCache(cache_path)
    return Campaign(cfg, out, space, evaluator, benchmarks, params)


def _log(out: Path, message: str) -> None:
    with open(out / "run.log", "a", encoding="utf-8") as fh:
        fh.write(f"{datetime.now().isoformat()} {message}\n")


def _write_summary(out: Path, lines: list[str]) -> None:
    write_text(out / "summary.txt", "\n".join(lines) + "\n")
    for line in lines:
        print(line)


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


# ---------------------------------------------------------------------------
# Campaign commands: ric, ce, suite-ce, xval
# ---------------------------------------------------------------------------

def _run_campaign(args, body: Callable[[Campaign], list[str]]) -> int:
    """The lifecycle the campaign commands share.

    Every input, ``--resume`` too, is checked before the out dir or the
    cache is touched. ``body`` runs the search, writes the command's own
    artifacts, records in the campaign what the checkpoint needs and
    returns the summary lines. An interruption, Ctrl-C or a spent
    ``--max-evals`` budget, ends the body early and leaves an interrupted
    checkpoint. So does an ``OSError`` once the campaign is built (a full
    disk, a compiler that cannot be started); when even the trace or the
    checkpoint cannot be written, the campaign fails instead.
    """
    command = args.command
    cfg, out = _load_config(args, command)
    camp = build_campaign(cfg, out, args.max_evals, args.resume)
    try:
        try:
            summary = body(camp)
        finally:
            camp.evaluator.cache.close()
    except (CampaignInterrupted, KeyboardInterrupt):
        summary = None
    except OSError as exc:
        print(f"flagtuner: {exc}", file=sys.stderr)
        summary = None
    progress = camp.progress if camp.trace is None else {"records": len(camp.trace), **camp.progress}
    try:
        if camp.trace is not None:
            write_trace(camp.trace_path, camp.trace)
        write_checkpoint(
            out / "checkpoint.json",
            command=command,
            status="interrupted" if summary is None else "complete",
            seed=cfg.seed,
            input_digests=input_digests(cfg),
            params=camp.params,
            state=camp.state,
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


def _ric(camp: Campaign) -> list[str]:
    cfg, out = camp.cfg, camp.out
    camp.trace, camp.trace_path = CampaignTrace(), out / "ric.trace"
    _log(out, f"ric start seed={cfg.seed} n_configs={cfg.n_configs}")
    trace = run_ric(
        camp.space, camp.benchmarks, camp.evaluator, cfg.n_configs, cfg.seed, trace=camp.trace
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
    return [f"ric: {camp.counts()} configs_tested={len(trace)} floored_best_ratio={ratio_text}"]


def _ce(camp: Campaign) -> list[str]:
    targets = camp.params["benchmarks"]
    summary = []
    completed: list[str] = []
    _log(camp.out, f"ce start targets={targets}")
    for bench in targets:
        camp.trace, camp.state = CampaignTrace(), CEState()
        camp.trace_path = camp.out / f"ce_{bench}.trace"
        camp.progress = {"completed": completed, "current": bench}
        config, trace = run_ce(camp.space, bench, camp.evaluator, trace=camp.trace, state=camp.state)
        write_trace(camp.trace_path, trace)
        write_final_config(camp.out / f"ce_{bench}.config.json", camp.space, config)
        summary.append(f"ce {bench}: configs_tested={len(trace)} final_ratio={camp.state.score:.6g}")
        completed.append(bench)
    camp.trace = camp.state = None
    camp.progress = {"completed": completed}
    summary.append(f"ce: {camp.counts()}")
    return summary


def _suite_ce(camp: Campaign) -> list[str]:
    cfg = camp.cfg
    camp.trace, camp.state = CampaignTrace(), CEState()
    camp.trace_path = camp.out / "suite_ce.trace"
    _log(camp.out, f"suite-ce start t={cfg.threshold_t}")
    config, trace = run_suite_ce(
        camp.space, camp.benchmarks, camp.evaluator, cfg.threshold_t, cfg.aggregate,
        trace=camp.trace, state=camp.state,
    )
    write_final_config(camp.out / "suite_ce.config.json", camp.space, config)
    return [f"suite-ce: {camp.counts()} configs_tested={len(trace)} "
            f"final_aggregate={camp.state.score:.6g}"]


def _xval(camp: Campaign) -> list[str]:
    cfg, out = camp.cfg, camp.out
    plan = make_folds(camp.benchmarks, cfg.k, cfg.seed)
    write_json(out / "folds.json", {"k": plan.k, "seed": cfg.seed, "assignment": plan.assignment})
    _log(out, f"xval start k={cfg.k} t={cfg.threshold_t}")
    results = run_xval(camp.space, camp.benchmarks, camp.evaluator, cfg.threshold_t,
                       cfg.aggregate, plan)

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
    camp.progress = {"folds": plan.k}
    mean_text = f"{fmean(all_ratios):.6g}" if all_ratios else "n/a"
    return [f"xval: folds={plan.k} {camp.counts()} mean_test_ratio={mean_text}"]


# ---------------------------------------------------------------------------
# Other commands
# ---------------------------------------------------------------------------

def cmd_oracle(args) -> int:
    cfg, out = _load_config(args, "oracle")
    if cfg.mode != "synthetic":
        raise ConfigError("oracle requires a synthetic-mode config")
    space, model, benchmarks = _load_inputs(cfg)
    # imported here: the oracle loads numpy, which no other command needs
    from flagtuner.oracle import per_benchmark_optimum, suite_constrained_optimum

    stock = space.stock_config()
    reference = {b: model.time_for(space, stock, b) for b in benchmarks}

    rows = []
    for b in benchmarks:  # raises, before the out dir exists, above --max-flags
        t, config = per_benchmark_optimum(space, model, b, max_flags=args.max_flags)
        rows.append([b, repr(t), repr(reference[b]), repr(t / reference[b]),
                     config.base_level, config.bitstring])
    out.mkdir(parents=True, exist_ok=True)
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
    out = Path(args.out)
    space = _load_space(args.space)
    names = [Path(p).stem for p in args.traces]
    if len(set(names)) < len(names):  # each names its series file and compare.csv's method
        raise ConfigError(f"two traces share a file stem: {names}")
    named = [(name, read_trace(p, space)) for name, p in zip(names, args.traces)]
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
    out = Path(args.out)
    space = _load_space(args.space)
    features = {fv.name: fv for fv in load_features(args.features)}
    if args.query not in features:
        raise ConfigError(f"query program {args.query!r} not in the feature table")
    manifest_path = Path(args.training)
    records = []  # (program, trace path, benchmark) of each manifest record
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        for i, rec in enumerate(json_value(manifest, list, "a training manifest")):
            rec = json_value(rec, dict, f"[{i}]")
            program = json_field(rec, "program", str, where=f"[{i}]")
            records.append((program, json_field(rec, "trace", str, where=f"[{i}]"),
                            json_field(rec, "benchmark", str, program, f"[{i}]")))
    except (OSError, ValueError) as exc:  # malformed JSON too
        raise ConfigError(f"{manifest_path}: {exc}") from exc
    training = []
    for program, trace_file, benchmark in records:
        if program == args.query:
            continue
        if program not in features:
            raise ConfigError(f"training program {program!r} not in the feature table")
        trace = read_trace(manifest_path.parent / trace_file, space)
        training.append((features[program], performance_table(trace, benchmark)))
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

    threshold_opt = _Parser(add_help=False)
    threshold_opt.add_argument("--threshold", type=float, default=None,
                               help="override threshold t percent")

    for command, body, help_text, extra in (
        ("ric", _ric, "random iterative compilation", []),
        ("ce", _ce, "per-benchmark combined elimination", []),
        ("suite-ce", _suite_ce, "suite-wide combined elimination", [threshold_opt]),
        ("xval", _xval, "k-fold cross-validation of suite-ce", [threshold_opt]),
    ):
        p = sub.add_parser(command, parents=[campaign_opts, *extra], help=help_text)
        p.set_defaults(handler=partial(_run_campaign, body=body))

    p = sub.add_parser("oracle", parents=[config_opts, threshold_opt],
                       help="brute-force optimum (synthetic only)")
    p.add_argument("--max-flags", type=int, default=DEFAULT_MAX_FLAGS)
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("report", help="comparison table and progress series from traces")
    p.add_argument("traces", nargs="+", help="trace files")
    p.add_argument("--space", required=True, help="flag-space JSON the traces were produced with")
    p.add_argument("--reference", default=None, help="trace whose baseline supplies reference times")
    p.add_argument("--out", default="out")
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("predict-1nn", help="nearest-neighbor configuration prediction")
    p.add_argument("features", help="feature table CSV")
    p.add_argument("training", help="training manifest JSON: [{program, trace, benchmark?}]")
    p.add_argument("query", help="program to predict for")
    p.add_argument("--space", required=True, help="flag-space JSON")
    p.add_argument("--out", default="out")
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

