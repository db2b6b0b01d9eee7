"""One benchmark worker: generate inputs, run campaigns, check outputs.

The worker is started by run.py. It imports flagtuner from the checkout's
``src/``, writes the workload's inputs, prints ``ready`` (the end of set-up)
and, unless ``--setup-only`` is given, runs cycles until ``--seconds`` have
passed, and at least one. A cycle is a cold phase, every campaign
of the workload once, then ``REPLAYS`` replay phases, the same campaigns
again against the state the cold phase left (``--resume`` for campaigns
that take it). Each campaign is one call into ``flagtuner.cli.main``; one
runs at a time, so this is a closed loop with a single client. Each
campaign's wall time is recorded with the host speed sampled around and
during it (``calibrate.Sampler``), without the sampling time. The
output checks run after each phase, outside the timed region, in a
separate process (``checks.py``) that idles while campaigns run. The
result goes to ``<work>/result.json``.

With ``--pause`` the worker prints ``cycle`` after each cycle and waits
for a line on stdin, so that run.py can time a set-up probe between
cycles; the pause does not count against ``--seconds``.

With ``--trace 1`` each cycle is an untraced cold phase followed by a
traced cycle of one cold and at most one replay phase, and the
per-module numbers come from the traced cycles.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import flagtuner.cli as cli  # noqa: E402
import numpy  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import inputs as gen  # noqa: E402
from tracing import Tracer  # noqa: E402

STUB_COMPILER = str(ROOT / "demo" / "stub" / "stubcc.py")
# Replay phases per cycle. A synth-search replay is short, so it gets more
# samples; oracle-16 keeps no state between runs, so it has no replay.
REPLAYS = {"synth-search": 3, "stub-external": 1, "oracle-16": 0}
# The host-speed kernel that stands in for the work dominating each
# workload's campaigns (see calibrate.py).
KERNEL = {"synth-search": calibrate.PYTHON, "oracle-16": calibrate.PYTHON,
          "stub-external": calibrate.PROCESS}


@dataclass
class Step:
    """One campaign: its CLI arguments, output directory and what to check."""

    name: str
    argv: list[str]
    out: Path
    resumable: bool = True  # replay passes --resume <out>/checkpoint.json
    times: str | None = None  # which generated model the trace rows follow
    threshold: float | None = None  # suite-ce: the t% bound to check
    oracle: float | None = None  # oracle: the constrained threshold to check

    def replay_argv(self) -> list[str]:
        if not self.resumable:
            return self.argv
        return self.argv + ["--resume", str(self.out / "checkpoint.json")]


def plan(inp: dict, base: Path) -> list[Step]:
    workload = inp["workload"]
    d = Path(inp["dir"])
    if workload == "oracle-16":
        out = base / "oracle"
        return [Step("oracle", ["oracle", "--config", inp["narrow_config"], "--out", str(out)],
                     out, resumable=False, oracle=gen.NARROW_T)]
    if workload == "stub-external":
        cfg = inp["stub_config"]
        return [
            Step("ric", ["ric", "--config", cfg, "--out", str(base / "ric")], base / "ric",
                 times="stub"),
            Step("suite-ce", ["suite-ce", "--config", cfg, "--out", str(base / "suite")],
                 base / "suite", times="stub", threshold=gen.STUB_T),
        ]
    narrow, wide = inp["narrow_config"], inp["wide_config"]
    steps = [
        Step("ric", ["ric", "--config", narrow, "--out", str(base / "ric")], base / "ric",
             times="narrow"),
        Step("ce", ["ce", "--config", narrow, "--out", str(base / "ce")], base / "ce",
             times="narrow"),
    ]
    for t in (0.0, 1.0, 3.0):
        out = base / f"suite_t{t:g}"
        steps.append(Step(f"suite-ce t={t:g}", ["suite-ce", "--config", narrow, "--threshold",
                                                repr(t), "--out", str(out)],
                          out, times="narrow", threshold=t))
    steps += [
        Step("xval", ["xval", "--config", narrow, "--out", str(base / "xval")], base / "xval",
             times="narrow"),
        Step("wide ce", ["ce", "--config", wide, "--out", str(base / "wide_ce")],
             base / "wide_ce", times="wide"),
        Step("wide suite-ce", ["suite-ce", "--config", wide, "--out", str(base / "wide_suite")],
             base / "wide_suite", times="wide", threshold=gen.WIDE_T),
    ]
    benches = list(inp["narrow"]["model"]["benchmarks"])
    traces = [str(base / "ric" / "ric.trace")]
    traces += [str(base / "ce" / f"ce_{b}.trace") for b in benches]
    traces.append(str(base / "suite_t1" / "suite_ce.trace"))
    steps.append(Step("report", ["report", *traces, "--space", str(d / "narrow_space.json"),
                                 "--out", str(base / "report")],
                      base / "report", resumable=False))
    return steps


@dataclass
class Phase:
    wall_s: float = 0.0
    measurements: int = 0
    compilations: int = 0
    executions: int = 0
    cache_hits: int = 0
    codes: list[int] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)  # wall time of each campaign
    step_span: list[tuple[float, float]] = field(default_factory=list)  # start, end
    step_scale: list[float] = field(default_factory=list)  # calibrate.Sampler.scale()


def run_phase(steps: list[Step], replay: bool, built: list, sampler: calibrate.Sampler,
              tracer: Tracer | None = None) -> Phase:
    """Run every campaign once, back to back, and time the whole phase.
    Times leave out the time spent sampling the host's speed."""
    phase = Phase()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            sampler.during(periodic=tracer is None):
        start, spent = time.perf_counter(), sampler.spent_s
        for i, step in enumerate(steps):
            if tracer is not None:
                tracer.campaign = i + (len(steps) if replay else 0)
            sampler.mark()
            began, sampling = time.perf_counter(), sampler.spent_s
            try:
                code = cli.main(step.replay_argv() if replay else step.argv)
            except Exception:  # a crashing campaign is a failed operation, not a crashed run
                traceback.print_exc()
                code = -1
            ended = time.perf_counter()
            phase.step_s.append(ended - began - (sampler.spent_s - sampling))
            phase.step_span.append((began, ended))
            phase.codes.append(code)
        sampler.mark()
        phase.wall_s = time.perf_counter() - start - (sampler.spent_s - spent)
    for camp in built:
        counters = camp.counters
        phase.executions += counters.executions
        phase.cache_hits += counters.cache_hits
        phase.compilations += getattr(counters, "compilations", 0)
    phase.measurements = phase.executions + phase.cache_hits
    built.clear()
    return phase


def capture_campaigns(built: list) -> None:
    """Keep every Campaign the cli builds so the evaluator counters can be read."""
    original = cli.build_campaign

    def build_campaign(*args, **kwargs):
        camp = original(*args, **kwargs)
        built.append(camp)
        return camp

    cli.build_campaign = build_campaign


def oracle_pairs(inp: dict) -> int:
    """(configuration, benchmark) pairs the exhaustive enumeration covers:
    every level for the per-benchmark optima, the stock level for the
    constrained one. A constant of the model's shape; the constrained
    search stops scoring a configuration at its first infeasible
    benchmark, so it scores fewer."""
    space = inp["narrow"]["space"]
    n_configs = 2 ** len(space["flags"])
    n_bench = len(inp["narrow"]["model"]["benchmarks"])
    return (len(space["base_levels"]) + 1) * n_configs * n_bench


class Ops:
    """Operations attempted and failed: one per campaign call."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, steps: list[Step], codes: list[int], checker=None, phase="") -> None:
        """Count one phase's campaign calls; check those that exited 0."""
        passed = [i for i, code in enumerate(codes) if code == 0]
        found = checker.check(phase, [steps[i] for i in passed]) if checker else []
        found = dict(zip(passed, found))
        for i, (step, code) in enumerate(zip(steps, codes)):
            self.attempted += 1
            problems = found.get(i, []) if code == 0 else [f"{step.name}: exit code {code}"]
            if problems:
                self.failed += 1
                self.problems.extend(problems)


class Checker:
    """The output checks (checks.py), in a child process that waits on its
    stdin while campaigns run, so that its memory stays out of the
    worker's peak resident size."""

    def __init__(self, inp: dict) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "checks.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        models = {key: inp[key] for key in ("narrow", "wide") if key in inp}
        init: dict = {"models": models}
        if "stub" in inp:
            init["stub"] = {"space": inp["stub"]["space"], "benches": gen.STUB_BENCHES}
        if self._ask(init) != "ready":
            raise RuntimeError("check process did not start")

    def _ask(self, message: dict):
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"check process ended (exit code {self.proc.wait()})")
        return json.loads(line)

    def check(self, phase: str, steps: list[Step]) -> list[list[str]]:
        if not steps:
            return []
        return self._ask({"phase": phase, "steps": [
            {"name": s.name, "out": str(s.out), "times": s.times, "threshold": s.threshold,
             "oracle": s.oracle} for s in steps]})

    def __enter__(self) -> "Checker":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()  # the check process ends at end of input
        self.proc.wait()


def search_counts(steps: list[Step]) -> dict[str, int]:
    """Probes, accepted toggles and threshold-skipped evaluations, read from
    the trace annotations of one cold phase."""
    counts = {"search.probes": 0, "search.accepted_toggles": 0, "search.evals_skipped": 0}
    for step in steps:
        for path in sorted(step.out.glob("*.trace")):
            records: dict[str, list] = {}
            for seq, *_rest, annotation in checks.read_rows(path):
                records.setdefault(seq, []).append(annotation)
            n_bench = len(records.get("1", []))
            for annotations in records.values():
                note = annotations[0]
                if note.startswith(("probe ", "accepted toggle ")):
                    counts["search.probes"] += 1
                if note.startswith("accepted toggle "):
                    counts["search.accepted_toggles"] += 1
                if "(skipped at " in note:
                    counts["search.evals_skipped"] += n_bench - len(annotations)
    return counts


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    t, c = tracer, tracer.counts
    return {
        "oracle.self_s": t.self_time("oracle"),
        "oracle.configs_scored": c["oracle.configs_scored"],
        "evaluator.time_for_s": t.total("evaluator.time_for"),
        "evaluator.time_for_calls": t.calls("evaluator.time_for"),
        "evaluator.synthetic.self_s": t.self_time("evaluator.synthetic"),
        "evaluator.synthetic.calls": t.calls("evaluator.synthetic"),
        "evaluator.cache.put_s": t.total("evaluator.cache.put"),
        "evaluator.cache.puts": t.calls("evaluator.cache.put"),
        "evaluator.cache.load_s": t.total("evaluator.cache.load"),
        "evaluator.cache.load_lines": c["evaluator.cache.load_lines"],
        "evaluator.cache.get_s": t.total("evaluator.cache.get"),
        "evaluator.cache.hits": c["evaluator.cache.hits"],
        "evaluator.external.self_s": t.self_time("evaluator.external"),
        "evaluator.external.compile_s": t.total("toolchain.compile"),
        "evaluator.external.compiles": t.calls("toolchain.compile"),
        "evaluator.external.run_s": t.total("toolchain.run"),
        "evaluator.external.runs": t.calls("toolchain.run"),
        "evaluator.external.digest_hits": c["evaluator.external.digest_hits"],
        "evaluator.external.failure_hits": c["evaluator.external.failure_hits"],
        "search.self_s": t.self_time("search"),
        "artifacts.write_s": t.total("artifacts.write"),
        "artifacts.bytes_written": c["artifacts.bytes_written"],
        "artifacts.read_s": t.total("artifacts.read"),
        "analysis.xval_s": t.self_time("analysis.xval"),
        "analysis.report_s": t.self_time("analysis.report"),
        "cli.build_campaign_s": t.total("cli.build_campaign"),
        "trace.unaccounted_s": wall_s - c["root_s"],
    }


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    src = hashlib.md5()
    for path in sorted((ROOT / "src" / "flagtuner").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_md5": src.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pause", action="store_true")
    args = parser.parse_args()

    inp = gen.generate(args.workload, args.seed, ROOT, args.work / "inputs")
    built: list = []
    capture_campaigns(built)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    ops = Ops()
    cycles = []
    layers = []
    spans_tracer = None
    # a traced cycle is one cold and at most one replay phase, whatever REPLAYS says
    replays = min(REPLAYS[args.workload], 1) if args.trace else REPLAYS[args.workload]
    sampler = calibrate.Sampler(KERNEL[args.workload])
    timed: list[Phase] = []
    with Checker(inp) as checker:
        deadline = time.perf_counter() + args.seconds
        while not cycles or time.perf_counter() < deadline:
            base = args.work / f"cycle{len(cycles)}"
            steps = plan(inp, base)
            untraced_cold = None
            if args.trace:
                untraced = run_phase(steps, False, built, sampler)
                ops.record(steps, untraced.codes)
                untraced_cold = untraced.wall_s
                shutil.rmtree(base)
            tracer = Tracer() if args.trace else None
            if tracer is not None:
                tracer.install(STUB_COMPILER)
            try:
                cold = run_phase(steps, False, built, sampler, tracer)
                ops.record(steps, cold.codes, checker, "cold")
                build_bytes = sum(dir_bytes(s.out / "build") for s in steps
                                  if (s.out / "build").is_dir())
                replayed = []
                for _ in range(replays):
                    replay = run_phase(steps, True, built, sampler, tracer)
                    ops.record(steps, replay.codes, checker, "replay")
                    replayed.append(replay)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            timed += [cold, *replayed]
            cycles.append({"cold": vars(cold), "replays": [vars(r) for r in replayed],
                           "build_dir_bytes": build_bytes})
            if tracer is not None:
                metrics = layer_metrics(tracer, cold.wall_s + sum(r.wall_s for r in replayed))
                metrics.update(search_counts(steps))
                metrics["trace.overhead_s"] = cold.wall_s - untraced_cold
                layers.append(metrics)
                spans_tracer = tracer
            shutil.rmtree(base)
            if args.pause:
                paused = time.perf_counter()
                print("cycle", flush=True)
                sys.stdin.readline()
                deadline += time.perf_counter() - paused

    # Scales need the samples taken after each campaign, so they are set
    # at the end; ``cycles`` holds these same objects' attribute dicts.
    for phase in timed:
        phase.step_scale = [sampler.scale(a, b) for a, b in phase.step_span]
    if spans_tracer is not None:
        spans_tracer.write_spans(args.work / "spans.jsonl")
    result = {
        "cycles": cycles,
        "layers": layers,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "problems": ops.problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_pairs": oracle_pairs(inp) if args.workload == "oracle-16" else None,
        "env": environment(),
    }
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
