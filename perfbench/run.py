"""Campaign benchmark for flagtuner: end-to-end and per-module numbers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload synth-search --seed 1 --seconds 12 --trace 0

Workloads (why each was chosen is in inputs.py): ``synth-search``,
``oracle-16`` and ``stub-external``. The run starts worker processes
(worker.py), one at a time. One of them runs the campaigns, checks their
outputs and reports. The others are set-up probes, which only import
flagtuner and generate the inputs: two before the main worker, one in
each pause the main worker makes between its cycles, and the rest after
it. Nothing runs in parallel. Every reported time is scaled to a
reference host speed, measured next to it (calibrate.py).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-module ones
from traced cycles. Lines above it give the environment, the known
defects the workloads touch and every number in readable form.

Exits with code 2, printing no result, when the directory it sits in is
not a flagtuner checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("synth-search", "oracle-16", "stub-external")
SETUP_BEFORE = 2  # probes before the main worker
SETUP_SAMPLES = 11  # set-up samples in all, the main worker's included
RUN_LIMIT_S = 170.0

KNOWN_DEFECTS = (
    "a truncated last line in cache.jsonl makes the cache reload raise and the campaign exit 1",
    "the suite-ce summary always reports the arithmetic mean, even under aggregate geomean",
    "external-mode replay recompiles every configuration to recover its digest",
    "out/build keeps one binary per configuration (see build_dir_bytes)",
)

# Printed for reading, not reported: the counts are 0 by design on some
# workloads, and raw times drift with the host.
PRINTED_UNITS = {"compilations": "count", "replay_compilations": "count",
                 "executions": "count", "failed_frac": "ratio",
                 "raw_campaign_s": "s", "raw_replay_s": "s"}


def declared_units() -> dict[str, dict[str, str]]:
    """The units of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in declared[kind]}
            for kind in ("end_to_end", "per_layer")}


def start_worker(args, work: Path, *flags: str) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns it and its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work), *flags]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - started
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup_s


def finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker ran past its {timeout:.0f} s limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")


def host_samples() -> list[float]:
    """Set-up is mostly process start, so it is scaled by that kernel."""
    return [calibrate.sample(calibrate.PROCESS) for _ in range(calibrate.MARK_SAMPLES)]


def measure(args, run_dir: Path) -> tuple[dict, list[float]]:
    began = time.perf_counter()
    setups = []

    def probe() -> None:
        before = host_samples()
        proc, setup_s = start_worker(args, run_dir / f"probe{len(setups)}", "--setup-only")
        try:
            finish(proc, 60.0)
        finally:
            if proc.poll() is None:  # interrupted: leave no probe behind
                proc.kill()
                proc.wait()
        setups.append(setup_s * calibrate.scale(calibrate.PROCESS, before + host_samples()))

    # Set-up is sampled before, during and after the main worker, so that
    # the samples are spread over the run rather than taken in one burst.
    # Traced runs report no set-up time and take no probes.
    sample = not args.trace
    for _ in range(SETUP_BEFORE if sample else 0):
        probe()
    flags = ("--pause",) if sample else ()
    before = host_samples()
    proc, setup_s = start_worker(args, run_dir / "main", *flags)
    setups.append(setup_s * calibrate.scale(calibrate.PROCESS, before))
    limit = RUN_LIMIT_S - 15.0 - (time.perf_counter() - began)
    timed_out = threading.Event()

    def kill() -> None:
        timed_out.set()
        proc.kill()

    watchdog = threading.Timer(limit, kill)
    watchdog.start()
    try:
        for line in proc.stdout:  # "cycle": the worker waits while a probe runs
            if line.strip() == "cycle":
                probe()
                proc.stdin.write("go\n")
                proc.stdin.flush()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:  # interrupted: leave no worker behind
            proc.kill()
        proc.wait()
    if timed_out.is_set():
        raise RuntimeError(f"worker ran past its {limit:.0f} s limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    while sample and len(setups) < SETUP_SAMPLES:
        probe()
    result = json.loads((run_dir / "main" / "result.json").read_text(encoding="utf-8"))
    spans = run_dir / "main" / "spans.jsonl"
    if spans.is_file():  # kept for inspection after the run directory is removed
        spans.replace(run_dir.parent / f"spans-{args.workload}.jsonl")
    return result, setups


def raw(phases: list[dict]) -> float:
    """``scaled`` without the scaling, for reading."""
    return sum(median(times) for times in zip(*(p["step_s"] for p in phases)))


def scaled(phases: list[dict]) -> float:
    """The sum, over the campaigns of a phase, of each campaign's median
    scaled wall time across ``phases``."""
    steps = zip(*([t * k for t, k in zip(p["step_s"], p["step_scale"])] for p in phases))
    return sum(median(times) for times in steps)


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    """Times are medians of scaled times (see calibrate.py), so that the
    host's drift between runs cancels out. ``oracle-16`` has no replay
    phase, so its ``replay_s`` repeats ``campaign_s``: every end-to-end
    metric is reported on every workload."""
    cycles = result["cycles"]
    colds = [c["cold"] for c in cycles]
    replays = [r for c in cycles for r in c["replays"]]
    cold_s = scaled(colds)
    first_replay = replays[0] if replays else {"compilations": 0}
    measurements = result["oracle_pairs"] or colds[0]["measurements"]
    return {
        "setup_s": median(setups),
        "campaign_s": cold_s,
        "replay_s": scaled(replays) if replays else cold_s,
        "meas_per_s": measurements / cold_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "compilations": colds[0]["compilations"],
        "replay_compilations": first_replay["compilations"],
        "executions": colds[0]["executions"],
        "failed_frac": result["failed"] / result["attempted"],
        "raw_campaign_s": raw(colds),
        "raw_replay_s": raw(replays) if replays else raw(colds),
    }


def per_layer(result: dict) -> dict[str, float]:
    cycle = result["cycles"][-1]
    cold = cycle["cold"]
    replay = cycle["replays"][0] if cycle["replays"] else dict.fromkeys(cold, 0)
    metrics = {name: median(layer[name] for layer in result["layers"])
               for name in result["layers"][0]}
    metrics.update({
        "phase.cold_compilations": cold["compilations"],
        "phase.replay_compilations": replay["compilations"],
        "phase.cold_executions": cold["executions"],
        "phase.replay_executions": replay["executions"],
        "phase.cold_cache_hits": cold["cache_hits"],
        "phase.replay_cache_hits": replay["cache_hits"],
        "phase.cold_measurements": cold["measurements"],
        "phase.build_dir_bytes": cycle["build_dir_bytes"],
        # measurements served from an already-seen binary or model result
        "phase.cold_hit_share": cold["cache_hits"] / max(cold["measurements"], 1),
    })
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    needed = [ROOT / "src" / "flagtuner" / "cli.py", ROOT / "demo" / "stub" / "stubcc.py",
              ROOT / "demo" / "stub" / "stubrun.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a flagtuner checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the clean-up below
    run_dir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, setups = measure(args, run_dir)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("env: " + json.dumps(result["env"], sort_keys=True))
    for defect in KNOWN_DEFECTS:
        print(f"known defect: {defect}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print(f"workload {args.workload}, seed {args.seed}: {len(result['cycles'])} cycles, "
          f"{result['attempted']} campaign calls, {result['failed']} failed")
    units = declared_units()["per_layer" if args.trace else "end_to_end"]
    # traced cycles are slower, so a traced run reports no end-to-end times
    values = per_layer(result) if args.trace else end_to_end(result, setups)
    for name, value in values.items():
        print(f"  {name:<34} {value:>14.6g} {units.get(name) or PRINTED_UNITS[name]}")
    metrics = {n: {"value": values[n], "unit": unit} for n, unit in units.items()}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
