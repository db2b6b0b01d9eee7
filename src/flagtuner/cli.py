"""Command-line campaign runner.

Subcommands: ric, ce, suite-ce, oracle, report, xval, predict-1nn.

Campaigns are described by a JSON config file (paths to the flag space,
suite or synthetic model, cache file, plus seed and algorithm parameters)
and write their artifacts into an output directory: trace file, final
configuration, resume checkpoint and a summary. Artifact files are
byte-reproducible for identical inputs and seed; timestamps go only to
run.log.

Exit codes: 0 success, 1 usage error or rejected input, 2 campaign
failure, 3 interrupted with a valid checkpoint; ``main`` gives the rule.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
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
    append_line,
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
    nul_or_surrogate,
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
        raise ValueError(f"{path}: {exc}") from exc
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "threshold", None) is not None:
        cfg.threshold_t = args.threshold
    for key in ("flag_space", "model", "suite", "out_dir"):  # relative to the config
        if getattr(cfg, key) is not None:
            setattr(cfg, key, path.parent / getattr(cfg, key))
            if key != "out_dir" and not getattr(cfg, key).exists():
                raise ValueError(f"{path}: {key} file not found: {getattr(cfg, key)}")
    if cfg.aggregate not in AGGREGATES:
        raise ValueError(f"{path}: unknown aggregate {cfg.aggregate!r}")
    if not 0 <= cfg.threshold_t < math.inf:  # NaN as well
        raise ValueError(f"{path}: threshold_t must be finite and >= 0, got {cfg.threshold_t}")
    if cfg.n_configs < 1:
        raise ValueError(f"{path}: n_configs must be >= 1, got {cfg.n_configs}")
    if cfg.k < 2:
        raise ValueError(f"{path}: k must be >= 2, got {cfg.k}")
    max_evals = getattr(args, "max_evals", None)
    if max_evals is not None and max_evals < 1:
        raise ValueError(f"--max-evals must be >= 1, got {max_evals}")
    return cfg, Path(args.out) if args.out else (cfg.out_dir or Path("out"))


@dataclass
class Campaign:
    """A built campaign, and what its command has reached, for its checkpoint.

    ``identity`` (command, seed, input digests, parameters) is built once, as
    the inputs load: ``--resume`` checks it and the checkpoint records it.
    ``trace``, the trace being built, is written to ``trace_path`` when the
    command ends, complete or interrupted, and its length leads the
    checkpoint's progress.
    """

    cfg: CampaignConfig
    out: Path
    space: FlagSpace
    evaluator: SyntheticEvaluator | CommandEvaluator
    benchmarks: list[str]
    identity: dict
    trace: CampaignTrace | None = None
    trace_path: Path | None = None
    state: CEState | None = None
    progress: dict = field(default_factory=dict)

    @property
    def counters(self) -> SyntheticEvaluator | CommandEvaluator:
        """The evaluator, under the name the benchmark's worker reads."""
        return self.evaluator

    def counts(self) -> str:
        return f"evaluations={self.evaluator.used} cache_hits={self.evaluator.cache_hits}"


def _load_space(path: str | Path) -> FlagSpace:
    try:
        return load_flag_space(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_inputs(
    cfg: CampaignConfig,
) -> tuple[FlagSpace, SyntheticModel | list[Benchmark], list[str]]:
    """The flag space, the model (checked against the space) or suite, which
    must hold a benchmark and no name that is empty or holds a '/', a NUL or
    a lone surrogate, and the benchmarks the config selects: its
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
        raise ValueError(f"{source}: {exc}") from exc
    if not available:
        raise ValueError(f"{source}: no benchmarks")
    # names go into file names
    unnamable = [b for b in available if not b or "/" in b or nul_or_surrogate(b)]
    if unnamable:
        raise ValueError(f"{source}: a benchmark name must be non-empty and hold no '/', NUL "
                         f"or lone surrogate: {unnamable}")
    benchmarks = available if cfg.benchmarks is None else list(cfg.benchmarks)
    missing = [b for b in benchmarks if b not in available]
    if missing:
        raise ValueError(f"unknown benchmarks in config: {missing}")
    if cfg.benchmark is not None and cfg.benchmark not in benchmarks:
        raise ValueError(f"unknown benchmark: {[cfg.benchmark]}")
    if cfg.command == "xval" and cfg.k > len(benchmarks):
        raise ValueError(f"k={cfg.k} is above the {len(benchmarks)} selected benchmarks")
    return space, model_or_suite, benchmarks


def _params(cfg: CampaignConfig, benchmarks: list[str]) -> dict:
    """The parameters of a campaign, as its checkpoint records them."""
    if cfg.command == "ric":
        return {"n_configs": cfg.n_configs}
    if cfg.command == "ce":  # the benchmarks it tunes, one by one
        return {"benchmarks": benchmarks if cfg.benchmark is None else [cfg.benchmark]}
    suite = {"threshold_t": cfg.threshold_t, "aggregate": cfg.aggregate}
    return {"k": cfg.k, **suite} if cfg.command == "xval" else suite


def build_campaign(
    cfg: CampaignConfig, out: Path, max_evals: int | None = None, resume: str | None = None
) -> Campaign:
    """The campaign of ``cfg``, every input checked, a ``resume`` checkpoint
    too, which must hold the campaign's identity: the same command, seed,
    digests of the input files as loaded here, and parameters."""
    space, model_or_suite, benchmarks = _load_inputs(cfg)
    identity = {"command": cfg.command, "seed": cfg.seed, "inputs": input_digests(cfg),
                "params": _params(cfg, benchmarks)}
    if resume:
        try:
            ck = json_value(read_checkpoint(resume), dict, "a checkpoint")
            for key, value in identity.items():
                if json_field(ck, key, type(value)) != value:
                    raise ValueError(f"checkpoint {key} {ck[key]} != requested {key} {value}")
        except ValueError as exc:  # malformed JSON too
            raise ValueError(f"{resume}: {exc}") from exc
    cache_path = out / cfg.cache  # an absolute cache path stays as it is
    if cache_path.is_dir() or out.resolve().is_relative_to(cache_path.resolve()):
        raise ValueError(f"cache {cfg.cache!r} names a directory, not a file")
    if cfg.mode == "synthetic":
        evaluator = SyntheticEvaluator(space, model_or_suite, max_evals=max_evals)
    else:
        evaluator = CommandEvaluator(space, model_or_suite, workdir=cfg.suite.parent,
                                     build_dir=out / "build", max_evals=max_evals)
    return Campaign(cfg, out, space, evaluator, benchmarks, identity)


def _log(out: Path, message: str) -> None:
    append_line(out / "run.log", f"{datetime.now().isoformat()} {message}")


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

def _run_campaign(args, body: Callable[[Campaign], list[str]]) -> tuple[Path, Callable]:
    """The lifecycle the campaign commands share.

    The run opens the cache, and ``body`` runs the search, writes the
    command's own artifacts, records in the campaign what the checkpoint
    needs and returns the summary lines. An interruption, Ctrl-C or a spent
    ``--max-evals`` budget, ends the body early and leaves an interrupted
    checkpoint. So does an ``OSError`` from the cache or the toolchain (a
    full disk, a compiler gone mid-campaign); a failed write of an
    artifact or the run log fails the campaign instead (``artifacts``). An
    ``E2BIG`` (a command line past the kernel's limits) fails it at once,
    with no checkpoint, as every resume would meet it again. The trace, the
    checkpoint and the log line are written last.
    """
    command = args.command
    cfg, out = _load_config(args, command)
    camp = build_campaign(cfg, out, args.max_evals, args.resume)

    def run() -> list[str] | None:
        cache = camp.evaluator.cache = EvalCache(out / cfg.cache)
        try:
            with cache:
                summary = body(camp)
        except (CampaignInterrupted, KeyboardInterrupt):
            summary = None
        except OSError as exc:
            if exc.errno == errno.E2BIG:
                raise
            print(f"flagtuner: {exc}", file=sys.stderr)
            summary = None
        records = {} if camp.trace is None else {"records": len(camp.trace)}
        progress = {**records, **camp.progress}
        if camp.trace is not None:
            write_trace(camp.trace_path, camp.trace)
        status = "interrupted" if summary is None else "complete"
        write_checkpoint(out / "checkpoint.json", status=status, state=camp.state,
                         progress=progress, **camp.identity)
        if summary is None:
            _log(out, f"{command} interrupted, progress {json.dumps(progress)}")
            print(f"{command}: interrupted; checkpoint written to {out / 'checkpoint.json'}",
                  file=sys.stderr)
        else:
            _log(out, f"{command} complete")
        return summary

    return out, run


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
        final = floored_best_so_far(trace, _baseline_reference(trace))[-1][1]
        ratio_text = f"{final:.6g}"
    except ValueError:
        ratio_text = "n/a"
    return [f"ric: {camp.counts()} configs_tested={len(trace)} floored_best_ratio={ratio_text}"]


def _ce(camp: Campaign) -> list[str]:
    targets = camp.identity["params"]["benchmarks"]
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
        write_trace(out / f"fold_{res.fold}.trace", res.trace)
        write_final_config(out / f"fold_{res.fold}.config.json", camp.space, res.config)
        for program, ratio in res.test_ratios.items():
            rows.append([program, res.fold, repr(ratio), ""])
            all_ratios.append(ratio)
    mean = fmean(all_ratios)
    rows.append(["overall_mean", "", repr(mean), ""])
    # the always-empty error column keeps the report's columns those of earlier runs
    write_csv(out / "xval_report.csv", ["program", "fold", "ratio", "error"], rows)
    camp.progress = {"folds": plan.k}
    return [f"xval: folds={plan.k} {camp.counts()} mean_test_ratio={mean:.6g}"]


# ---------------------------------------------------------------------------
# Other commands
# ---------------------------------------------------------------------------

def cmd_oracle(args) -> tuple[Path, Callable]:
    cfg, out = _load_config(args, "oracle")
    if cfg.mode != "synthetic":
        raise ValueError("oracle requires a synthetic-mode config")
    space, model, benchmarks = _load_inputs(cfg)
    # imported here: the oracle loads numpy, which no other command needs
    from flagtuner.oracle import per_benchmark_optimum, suite_constrained_optimum

    stock = space.stock_config()
    reference = {b: model.time_for(space, stock, b) for b in benchmarks}

    # one pass over the stock level gives the constrained optimum and each
    # benchmark's first minimum there, which per_benchmark_optimum then does
    # not score again; raises above --max-flags
    minima: dict = {}
    # never None: the stock configuration meets its own times at any t >= 0
    agg, config = suite_constrained_optimum(
        space, model, benchmarks, cfg.threshold_t, reference,
        base_level=stock.base_level, aggregate_fn=AGGREGATES[cfg.aggregate],
        max_flags=args.max_flags, minima=minima,
    )
    rows = []
    for b in benchmarks:
        t, best = per_benchmark_optimum(space, model, b, max_flags=args.max_flags,
                                        scored=minima[b])
        rows.append([b, repr(t), repr(reference[b]), repr(t / reference[b]),
                     best.base_level, best.bitstring])
    data = {
        "threshold_t": cfg.threshold_t,
        "aggregate_ratio": agg,
        "base_level": config.base_level,
        "bitstring": config.bitstring,
        "args": render_args(space, config),
    }

    def run() -> list[str]:
        header = ["benchmark", "best_time", "ref_time", "ratio", "base_level", "bitstring"]
        write_csv(out / "oracle_per_benchmark.csv", header, rows)
        write_json(out / "oracle_constrained.json", data)
        return [f"oracle: benchmarks={len(benchmarks)} constrained_aggregate={agg:.6g}"]

    return out, run


def cmd_report(args) -> tuple[Path, Callable]:
    out = Path(args.out)
    space = _load_space(args.space)
    names = [Path(p).stem for p in args.traces]
    if len(set(names)) < len(names):  # each names its series file and compare.csv's method
        raise ValueError(f"two traces share a file stem: {names}")
    named = [(name, read_trace(p, space)) for name, p in zip(names, args.traces)]
    ref_trace = named[0][1]
    if args.reference:
        ref_trace = read_trace(args.reference, space)
    reference = _baseline_reference(ref_trace)

    table = compare_to_baseline(named, reference)
    series = [(name, floored_best_so_far(trace, reference)) for name, trace in named]

    def run() -> list[str]:
        write_compare(out / "compare.csv", table)
        for name, points in series:
            write_series(out / f"{name}.series.csv", points)
        return [
            f"report: benchmarks={len(table.rows)} mean_ratio={table.mean_ratio:.6g} "
            f"mean_ratio_floored={table.mean_ratio_floored:.6g}"
        ]

    return out, run


def cmd_predict_1nn(args) -> tuple[Path, Callable]:
    out = Path(args.out)
    space = _load_space(args.space)
    features = {fv.name: fv for fv in load_features(args.features)}
    if args.query not in features:
        raise ValueError(f"query program {args.query!r} not in the feature table")
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
        raise ValueError(f"{manifest_path}: {exc}") from exc
    training = []
    for program, trace_file, benchmark in records:
        if program == args.query:
            continue
        if program not in features:
            raise ValueError(f"training program {program!r} not in the feature table")
        trace = read_trace(manifest_path.parent / trace_file, space)
        training.append((features[program], performance_table(trace, benchmark)))
    config = predict_1nn(features[args.query], training)

    def run() -> list[str]:
        write_final_config(out / "predicted.config.json", space, config)
        return [f"predict-1nn {args.query}: {' '.join(render_args(space, config))}"]

    return out, run


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
    """Run one command; the phase an error comes in sets the exit code.

    The handler reads and checks every input and creates nothing: an error
    there exits 1. Then the out dir is created and the run called: an error
    in either exits 2. Each prints one line. The run returns the summary
    lines, or None when a campaign was interrupted with a checkpoint (3).
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    failures = (ValueError, OSError, CacheLockedError, CampaignError)
    try:
        out, run = args.handler(args)
    except failures as exc:
        print(f"flagtuner: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        out.mkdir(parents=True, exist_ok=True)
        summary = run()
        if summary is None:
            return EXIT_INTERRUPTED
        write_text(out / "summary.txt", "\n".join(summary) + "\n")
    except failures as exc:
        print(f"flagtuner: campaign failed: {exc}", file=sys.stderr)
        return EXIT_CAMPAIGN
    for line in summary:
        print(line)
    return EXIT_OK

