"""Output checks that do not trust flagtuner's own code.

Times are recomputed from the coefficients the benchmark generated (or,
for the stub toolchain, from what ``demo/stub/`` is documented to do),
never through ``SyntheticModel.time_for``. Each function returns a list of
problems; an empty list means the check passed. They run outside the
timed phases, in a process of their own (``serve``), so that their memory
does not count in the worker's peak.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import sys
from pathlib import Path
from statistics import fmean

import numpy as np


_INVOCATION_COUNTS = re.compile(rb"\b(evaluations|cache_hits)=\d+")


class ModelTimes:
    """Scalar recomputation of the synthetic model, term order as documented:
    base x level multiplier, then enabled flag deltas in flag order, then
    matching pair terms in model order."""

    def __init__(self, space: dict, model: dict):
        self.names = [f["name"] for f in space["flags"]]
        self.index = {n: i for i, n in enumerate(self.names)}
        self.benches = model["benchmarks"]
        self.bench_names = list(self.benches)
        self.levels = list(space["base_levels"])
        self.stock = (space["default_baseline"],
                      "".join("1" if f.get("stock", True) else "0" for f in space["flags"]))
        self._memo: dict = {}

    def time(self, bench: str, level: str, bits: str) -> float:
        key = (bench, level, bits)
        if key not in self._memo:
            bm = self.benches[bench]
            t = bm["base_time"] * bm["level_multiplier"].get(level, 1.0)
            for name, bit in zip(self.names, bits):
                if bit == "1":
                    t += bm["flag_delta"].get(name, 0.0)
            for p in bm["pair_delta"]:
                a, b = (bits[self.index[f]] == "1" for f in p["flags"])
                if a == p["when"][0] and b == p["when"][1]:
                    t += p["delta"]
            self._memo[key] = t
        return self._memo[key]

    def all_times(self, bench: str, level: str) -> np.ndarray:
        """Times of all 2**n assignments at one level, indexed by bitmask
        (bit j drives flag j). Adding 0.0 leaves a positive float unchanged,
        so the masked column sums are bit-identical to the scalar sums."""
        n = len(self.names)
        masks = np.arange(2**n, dtype=np.int64)
        bits = [((masks >> j) & 1).astype(bool) for j in range(n)]
        bm = self.benches[bench]
        t = np.full(2**n, bm["base_time"] * bm["level_multiplier"].get(level, 1.0))
        for j, name in enumerate(self.names):
            t = t + np.where(bits[j], bm["flag_delta"].get(name, 0.0), 0.0)
        for p in bm["pair_delta"]:
            a, b = (bits[self.index[f]] for f in p["flags"])
            t = t + np.where((a == p["when"][0]) & (b == p["when"][1]), p["delta"], 0.0)
        return t


class StubTimes:
    """What demo/stub does: the binary holds the rendered arguments minus
    those mentioning "prefetch"; the runner reports 0.8 s for -O3 binaries
    (1.0 s otherwise) plus an md5 jitter salted by the benchmark name."""

    def __init__(self, space: dict, bench_names: list[str]):
        self.flags = space["flags"]
        self.bench_names = bench_names
        self.stock = (space["default_baseline"],
                      "".join("1" if f.get("stock", True) else "0" for f in space["flags"]))

    def binary(self, level: str, bits: str) -> bytes:
        args = [f"-{level}"] + [f["on"] if b == "1" else f["off"] for f, b in zip(self.flags, bits)]
        return ("\n".join(a for a in args if "prefetch" not in a) + "\n").encode()

    def time(self, bench: str, level: str, bits: str) -> float:
        data = self.binary(level, bits)
        base = 0.8 if b"-O3" in data else 1.0
        return float(str(base + int(hashlib.md5(data + bench.encode()).hexdigest(), 16) % 1000 / 10000.0))


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


def check_trace_times(out: Path, times) -> list[str]:
    """Every ok row of every trace under ``out`` matches the recomputation."""
    problems = []
    traces = sorted(out.glob("*.trace"))
    if not traces:
        return [f"{out.name}: no trace files"]
    for path in traces:
        for seq, bits, level, bench, t, status, _ in read_rows(path):
            if status != "ok":
                problems.append(f"{path.name} seq {seq} {bench}: status {status}")
            elif float(t) != times.time(bench, level, bits):
                problems.append(
                    f"{path.name} seq {seq} {bench}: time {t} != {times.time(bench, level, bits)!r}"
                )
    return problems


def check_threshold(out: Path, times, threshold: float) -> list[str]:
    """The suite-ce final configuration keeps every benchmark within t% of stock."""
    final = json.loads((out / "suite_ce.config.json").read_text(encoding="utf-8"))
    problems = []
    for b in times.bench_names:
        ref = times.time(b, *times.stock)
        t = times.time(b, final["base_level"], final["bitstring"])
        if t > (1.0 + threshold / 100.0) * ref:
            problems.append(f"{out.name}: {b} at {t!r} exceeds {threshold}% over stock {ref!r}")
    return problems


def check_oracle(out: Path, times: ModelTimes, threshold: float) -> list[str]:
    """Brute-force the per-benchmark and suite-constrained optima again."""
    problems = []
    n = len(times.names)
    benches = times.bench_names
    stock_level, stock_bits = times.stock
    ref = {b: times.time(b, stock_level, stock_bits) for b in benches}
    at_stock = {}

    def bitstring(mask: int) -> str:
        return "".join("1" if (mask >> j) & 1 else "0" for j in range(n))

    rows = {r[0]: r for r in read_rows(out / "oracle_per_benchmark.csv")}
    for b in benches:
        grid = np.stack([times.all_times(b, level) for level in times.levels])
        at_stock[b] = grid[times.levels.index(stock_level)].copy()
        flat = int(np.argmin(grid))  # first minimum: levels in order, then masks
        level, mask = times.levels[flat // 2**n], flat % 2**n
        expect = [b, repr(float(grid.flat[flat])), repr(ref[b]),
                  repr(float(grid.flat[flat]) / ref[b]), level, bitstring(mask)]
        if rows.get(b) != expect:
            problems.append(f"oracle {b}: {rows.get(b)} != {expect}")
        del grid

    bound = {b: (1.0 + threshold / 100.0) * ref[b] for b in benches}
    feasible = np.ones(2**n, dtype=bool)
    for b in benches:
        feasible &= at_stock[b] <= bound[b]
    approx = np.where(feasible, sum(at_stock[b] / ref[b] for b in benches) / len(benches), np.inf)
    # the oracle aggregates with fmean; settle near-ties exactly, in mask order
    near = np.flatnonzero(approx <= approx.min() * (1 + 1e-12))
    exact = [(fmean(float(at_stock[b][m]) / ref[b] for b in benches), int(m)) for m in near]
    best_agg, best_mask = min(exact, key=lambda e: e[0])
    got = json.loads((out / "oracle_constrained.json").read_text(encoding="utf-8"))
    if (got["aggregate_ratio"], got["base_level"], got["bitstring"]) != (
        best_agg, stock_level, bitstring(best_mask)
    ):
        problems.append(
            f"oracle constrained: {got['aggregate_ratio']!r} {got['bitstring']} != "
            f"{best_agg!r} {bitstring(best_mask)}"
        )
    return problems


def artifact_digests(out: Path) -> dict[str, str]:
    """Digests of the replay-comparable artifacts under ``out``.

    run.log carries timestamps; JSON-lines files are the append-only cache
    and event logs, state rather than artifacts; build/ holds binaries.
    A summary reports how many evaluations and cache hits its own
    invocation made, which a replay changes by design, so those two
    counts are masked and the rest of the line must match.
    """
    digests = {}
    for path in sorted(out.rglob("*")):
        rel = path.relative_to(out)
        if not path.is_file() or rel.parts[0] == "build":
            continue
        if path.name == "run.log" or path.suffix == ".jsonl":
            continue
        data = path.read_bytes()
        if path.name == "summary.txt":
            data = _INVOCATION_COUNTS.sub(rb"\1=#", data)
        digests[str(rel)] = hashlib.md5(data).hexdigest()
    return digests


def check_replay(before: dict[str, str], out: Path) -> list[str]:
    after = artifact_digests(out)
    if after == before:
        return []
    changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    return [f"{out.name}: replay changed {changed}"]


def check_cold(out: Path, check: dict, models: dict) -> list[str]:
    """The checks of one cold campaign, as the worker describes them."""
    problems = []
    times = models.get(check["times"])
    if times is not None:
        problems += check_trace_times(out, times)
        if check["threshold"] is not None:
            problems += check_threshold(out, times, check["threshold"])
    if check["oracle"] is not None:
        problems += check_oracle(out, models["narrow"], check["oracle"])
    return problems


def serve() -> None:
    """Answer check requests, one JSON line each, on stdin.

    The first line holds the generated models. Each later line is a phase,
    ``{"phase": "cold" | "replay", "steps": [{"name", "out", "times",
    "threshold", "oracle"}, ...]}``, and gets one line back: a list of
    problem lists, one per step. A cold check also records the step's
    artifact digests, which the replay checks compare against.
    """
    init = json.loads(sys.stdin.readline())
    models = {key: ModelTimes(m["space"], m["model"]) for key, m in init["models"].items()}
    if "stub" in init:
        models["stub"] = StubTimes(init["stub"]["space"], init["stub"]["benches"])
    snapshots: dict[str, dict[str, str]] = {}
    print(json.dumps("ready"), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        replies = []
        for step in request["steps"]:
            out = Path(step["out"])
            try:
                if request["phase"] == "cold":
                    problems = check_cold(out, step, models)
                    snapshots[step["out"]] = artifact_digests(out)
                else:
                    problems = check_replay(snapshots[step["out"]], out)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"{step['name']}: outputs unreadable: {exc!r}"]
            replies.append(problems)
        print(json.dumps(replies), flush=True)


if __name__ == "__main__":
    serve()
