"""Seeded inputs for the campaign benchmark.

Everything a workload feeds to flagtuner is generated here and written as
ordinary input files: flag spaces, synthetic models, the stub suite and
the campaign configs. The same seed always gives the same files. The program under test sees only
those files. The generated dictionaries are also what the output checks
recompute times from, so the checks never go through flagtuner's own
model code.

Why each workload exists:

* ``synth-search``: the searches (``ric``, ``ce``, ``suite-ce`` at three
  thresholds, ``xval``, ``report``) on the 16-flag x 3-level x
  10-benchmark model, plus ``ce`` and ``suite-ce`` on a 64-flag model
  where elimination rounds dominate. Pair terms are dense and flag effects
  are correlated across benchmarks, so both eliminations run several
  rounds. It runs cold (mostly cache writes), then replays every campaign
  against the warm cache (mostly cache loads and reads). No oracle, no
  subprocesses. The two models are the same for every seed, because the
  number of elimination rounds, and so the work, swings by about 15 %
  from one model to the next; the seed drives the campaigns themselves
  (ric's sample, xval's folds).
* ``oracle-16``: the exhaustive oracle on the 16 x 3 x 10 model. Nearly
  all of its time is enumeration plus the model's scalar time function;
  it uses no cache, no search and no subprocesses.
* ``stub-external``: ``ric`` and ``suite-ce`` in external mode against
  the stub toolchain in ``demo/stub/``. Half of the flags are spelled
  with ``prefetch``, which the stub compiler drops, so a known share of
  configurations compiles to an already-seen binary. Compiler and runner
  processes dominate, and compilation count is the cost that matters.
"""

from __future__ import annotations

import json
import random
import shlex
import sys
from pathlib import Path

LEVELS = ["O1", "O2", "O3"]
STOCK_LEVEL = "O3"
N_BENCH = 10
NARROW_FLAGS = 16
WIDE_FLAGS = 64
TRADEOFF_FLAGS = 3
# Config thresholds (t %): xval and the oracle's constrained optimum use the
# narrow one; suite-ce on the narrow model sweeps its own, set by the worker.
NARROW_T = 1.0
WIDE_T = 0.5
STUB_T = 5.0

# Stub flags: every second one is spelled with "prefetch" and is dropped by
# stubcc.py, so configurations differing only there share a binary.
STUB_FLAGS = 6
STUB_LEVELS = ["O2", "O3"]
STUB_BENCHES = ["alpha", "beta"]


def _flag_space(rng: random.Random, n: int, prefix: str) -> dict:
    flags = []
    for i in range(n):
        name = f"{prefix}{i:02d}"
        flags.append(
            {"name": name, "on": f"-f{name}", "off": f"-fno-{name}", "stock": rng.random() < 0.75}
        )
    return {"base_levels": LEVELS, "default_baseline": STOCK_LEVEL, "flags": flags}


def _model(rng: random.Random, space: dict) -> dict:
    """Additive model with dense pair terms.

    Each flag has an effect shared by all benchmarks plus a per-benchmark
    part as large, so a toggle that helps the suite can hurt a few
    benchmarks. On top of that, moving a trade-off flag away from its
    stock state saves 1.5 % of the base time on every benchmark but one,
    which loses 4 %: only the threshold keeps suite-ce from taking it.
    Deltas scale so that the interval lower bound the loader checks
    (base x multiplier + every negative term) stays above a twentieth of
    the base time whatever the flag count.
    """
    names = [f["name"] for f in space["flags"]]
    stock = {f["name"]: f["stock"] for f in space["flags"]}
    n = len(names)
    shared = {name: rng.uniform(-0.3, 0.2) for name in names}
    victims = {names[i]: rng.randrange(N_BENCH) for i in rng.sample(range(n), TRADEOFF_FLAGS)}
    benches = {}
    for b in range(N_BENCH):
        base = round(rng.uniform(0.5, 5.0), 6)
        flag_delta = {
            name: round(base * (shared[name] + rng.uniform(-0.3, 0.3)) / n, 9) for name in names
        }
        for name, victim in victims.items():
            share = -0.04 if b == victim else 0.015  # when the flag is in its stock state
            flag_delta[name] = round(base * (share if stock[name] else -share), 9)
        pairs = []
        for _ in range(n):
            a, c = sorted(rng.sample(range(n), 2))
            pairs.append(
                {
                    "flags": [names[a], names[c]],
                    "when": [rng.random() < 0.5, rng.random() < 0.5],
                    "delta": round(base * rng.uniform(-0.25, 0.25) / n, 9),
                }
            )
        benches[f"b{b:02d}"] = {
            "base_time": base,
            "level_multiplier": {
                "O1": round(rng.uniform(1.15, 1.35), 6),
                "O2": round(rng.uniform(1.0, 1.08), 6),
                "O3": 1.0,
            },
            "flag_delta": flag_delta,
            "pair_delta": pairs,
        }
    return {"benchmarks": benches}


def _stub_space() -> dict:
    """Fixed across seeds, so that suite-ce does the same work on every
    seed and only the ric sample (drawn from the campaign seed) varies."""
    flags = []
    for i in range(STUB_FLAGS):
        name = f"prefetch-x{i}" if i % 2 else f"opt-x{i}"
        flags.append({"name": name, "on": f"-f{name}", "off": f"-fno-{name}", "stock": i % 3 != 2})
    return {"base_levels": STUB_LEVELS, "default_baseline": "O3", "flags": flags}


def _stub_suite(root: Path) -> dict:
    """The stub scripts use only the standard library, so they run with
    ``-S``: without the site import, a stub process starts in about 25 ms
    rather than 85 ms, which leaves more of each measurement to flagtuner
    and gives a run more cycles to take its medians over."""
    stub = root / "demo" / "stub"
    py = shlex.quote(sys.executable)
    cc = shlex.quote(str(stub / "stubcc.py"))
    run = shlex.quote(str(stub / "stubrun.py"))
    return {
        "benchmarks": [
            {
                "name": b,
                "compile_command": f"{py} -S {cc} {{flags}} --out {{out}}",
                "run_command": f"{py} -S {run} {{bin}} {b}",
                "timeout": 60.0,
                "repeat_runs": 1,
                "timing": "reported",
            }
            for b in STUB_BENCHES
        ]
    }


def _dump(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def _campaign(path: Path, **fields) -> str:
    _dump(path, {"cache": "cache.jsonl", "aggregate": "mean", **fields})
    return str(path)


def generate(workload: str, seed: int, root: Path, dest: Path) -> dict:
    """Write one workload's inputs under ``dest`` and describe them.

    Returns the generated documents (for the output checks) and the paths
    of the campaign configs.
    """
    dest.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "synth-search":
        rng = random.Random(workload)
    inputs: dict = {"workload": workload, "seed": seed, "dir": str(dest)}
    if workload in ("synth-search", "oracle-16"):
        space = _flag_space(rng, NARROW_FLAGS, "n")
        model = _model(rng, space)
        _dump(dest / "narrow_space.json", space)
        _dump(dest / "narrow_model.json", model)
        inputs["narrow"] = {"space": space, "model": model}
        common = {"flag_space": "narrow_space.json", "mode": "synthetic",
                  "model": "narrow_model.json", "seed": seed}
        inputs["narrow_config"] = _campaign(
            dest / "narrow.json", n_configs=500, threshold_t=NARROW_T, k=5, **common
        )
    if workload == "synth-search":
        space = _flag_space(rng, WIDE_FLAGS, "w")
        model = _model(rng, space)
        _dump(dest / "wide_space.json", space)
        _dump(dest / "wide_model.json", model)
        inputs["wide"] = {"space": space, "model": model}
        inputs["wide_config"] = _campaign(
            dest / "wide.json", flag_space="wide_space.json", mode="synthetic",
            model="wide_model.json", seed=seed, threshold_t=WIDE_T,
        )
    if workload == "stub-external":
        space = _stub_space()
        _dump(dest / "stub_space.json", space)
        _dump(dest / "stub_suite.json", _stub_suite(root))
        inputs["stub"] = {"space": space}
        inputs["stub_config"] = _campaign(
            dest / "stub.json", flag_space="stub_space.json", mode="external",
            suite="stub_suite.json", seed=seed, n_configs=20, threshold_t=STUB_T,
        )
    return inputs
