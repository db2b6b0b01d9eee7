"""Builders for synthetic spaces, models and suites used across the tests."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import shlex
from pathlib import Path

from hypothesis import strategies as st

from flagtuner.evaluator import (
    Benchmark,
    BenchmarkModel,
    EvalCache,
    Measurement,
    PairDelta,
    SyntheticModel,
    _digest_bytes,
    _program_path,
)
from flagtuner.flagspace import Configuration, Flag, FlagSpace, _check_member, json_field


def artifact_digests(root: Path) -> dict[str, str]:
    """sha256 of every reproducible artifact under ``root``: all files but
    ``run.log``, the ``*.jsonl`` caches and anything under ``build/``."""
    digests = {}
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root)
        if (
            not path.is_file()
            or path.name == "run.log"
            or path.suffix == ".jsonl"
            or "build" in rel.parts[:-1]
        ):
            continue
        digests[rel.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def space_of(
    n: int,
    levels: tuple[str, ...] = ("O3",),
    default: str | None = None,
    stock: tuple[bool, ...] | None = None,
) -> FlagSpace:
    """Flag space with n generic flags f0..f{n-1}."""
    if stock is None:
        stock = (True,) * n
    flags = tuple(
        Flag(name=f"f{i}", on=f"-ff{i}", off=f"-fno-f{i}", stock=stock[i])
        for i in range(n)
    )
    return FlagSpace(flags, levels, default or levels[-1])


def model_of(
    benchmarks: dict[str, dict],
) -> SyntheticModel:
    """Model from {bench: {base, deltas, multipliers, pairs}} shorthand.

    ``pairs`` entries are (flag_a, flag_b, state_a, state_b, delta).
    """
    out = {}
    for name, recipe in benchmarks.items():
        out[name] = BenchmarkModel(
            base_time=recipe.get("base", 100.0),
            level_multiplier=recipe.get("multipliers", {}),
            flag_delta=recipe.get("deltas", {}),
            pair_delta=tuple(PairDelta(*p) for p in recipe.get("pairs", ())),
        )
    return SyntheticModel(out)


def time_for_reference(
    model: SyntheticModel, space: FlagSpace, config: Configuration, bench_name: str
) -> float:
    """``SyntheticModel.time_for`` read straight from the model's mappings:
    a name-to-state dict per call, and two lookups per pair term."""
    if bench_name not in model.benchmarks:
        raise ValueError(f"benchmark {bench_name!r} not modeled")
    _check_member(space, config)
    bm = model.benchmarks[bench_name]
    state = {f.name: on for f, on in zip(space.flags, config.assignment)}
    t = bm.base_time * bm.level_multiplier.get(config.base_level, 1.0)
    for name, on in state.items():
        if on:
            t += bm.flag_delta.get(name, 0.0)
    for p in bm.pair_delta:
        if state.get(p.flag_a) == p.state_a and state.get(p.flag_b) == p.state_b:
            t += p.delta
    return t


def fill_reference(template: str, flags: list[str] | None = None, **values) -> list[str]:
    """The argv of a command template, split with ``shlex.split`` at every
    call and then filled in word by word: ``{flags}`` alone becomes one
    argument per flag, and any other word is formatted with the flags
    space-joined."""
    if flags is not None:
        values["flags"] = " ".join(flags)
    argv = []
    for arg in shlex.split(template):
        argv += flags if arg == "{flags}" and flags is not None else [arg.format(**values)]
    return argv


def toolchain_fingerprint_reference(bench: Benchmark, workdir: Path) -> str:
    """md5 of ``repr(bench)`` and of the content of each file its templates
    name, each template split with ``shlex.split`` here: ``argv[0]`` as the
    command resolves it, and any other word naming a file relative to
    ``workdir``."""
    parts = [repr(bench)]
    for template in (bench.compile_command, bench.run_command):
        for i, token in enumerate(shlex.split(template)):
            path = _program_path(token, workdir) if i == 0 else os.path.join(workdir, token)
            if path is not None and os.path.isfile(path):
                parts.append(_digest_bytes(Path(path).read_bytes()))
    return _digest_bytes(repr(parts).encode())


def csv_reference(rows: list[list]) -> str:
    """What ``csv.writer`` writes for ``rows``, one line per row ending in
    LF: the artifacts' CSV writer before they formatted rows themselves.
    It leaves a field that holds a CR unquoted, so ``csv.reader`` splits
    the row there."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def cache_read_line_by_line(path: Path) -> EvalCache:
    """A cache without a file, holding what ``EvalCache`` reads from ``path``,
    read with one ``json.loads`` per line: blank lines are skipped, and a
    final line without its newline is dropped."""
    cache = EvalCache()
    *lines, _torn = path.read_bytes().split(b"\n")
    for line in lines:
        if line.strip():
            rec = json.loads(line)
            meas = Measurement(status=rec["status"], time=json_field(rec, "time", float, None),
                               digest=rec["digest"], cached=True, detail=rec.get("detail") or "")
            cache._store(rec["benchmark"], rec["key"], meas)
    return cache


def pair_dependency_model() -> tuple[FlagSpace, SyntheticModel]:
    """Two flags whose joint disabling is a win while each alone is a loss.

    Times: all-enabled 100, either flag disabled alone 105, both disabled 90,
    identical across base levels.
    """
    space = space_of(2, levels=("O1", "O2", "O3"))
    model = model_of(
        {
            "cover": {
                "base": 110.0,
                "deltas": {"f0": -5.0, "f1": -5.0},
                "pairs": [("f0", "f1", False, False, -20.0)],
            }
        }
    )
    return space, model


def random_additive_instance(
    rng: random.Random, max_flags: int = 12
) -> tuple[FlagSpace, SyntheticModel]:
    """Purely additive single-benchmark model with nonzero per-flag deltas."""
    n = rng.randint(1, max_flags)
    space = space_of(n)
    deltas = {}
    for i in range(n):
        d = 0.0
        while d == 0.0:
            d = rng.uniform(-5.0, 5.0)
        deltas[f"f{i}"] = d
    base = rng.uniform(80.0, 150.0)
    return space, model_of({"bench": {"base": base, "deltas": deltas}})


def random_suite_instance(
    rng: random.Random, max_benches: int = 6, max_flags: int = 10
) -> tuple[FlagSpace, SyntheticModel, list[str]]:
    """Multi-benchmark model with mixed stock states and some pair terms."""
    n = rng.randint(1, max_flags)
    stock = tuple(rng.random() < 0.5 for _ in range(n))
    space = space_of(n, stock=stock)
    n_benches = rng.randint(1, max_benches)
    benches = {}
    names = [f"b{j}" for j in range(n_benches)]
    for name in names:
        deltas = {
            f"f{i}": rng.uniform(-4.0, 4.0) for i in range(n) if rng.random() < 0.6
        }
        pairs = []
        if n >= 2 and rng.random() < 0.5:
            i, j = rng.sample(range(n), 2)
            pairs.append(
                (f"f{i}", f"f{j}", rng.random() < 0.5, rng.random() < 0.5, rng.uniform(-6.0, 6.0))
            )
        benches[name] = {"base": 100.0, "deltas": deltas, "pairs": pairs}
    return space, model_of(benches), names


class PairByPair:
    """A test evaluator's ``evaluate_many``: its ``evaluate``, pair by pair."""

    def evaluate_many(self, pairs):
        return (self.evaluate(config, bench) for config, bench in pairs)


def config_of(level: str, mask: int, n: int) -> Configuration:
    """The configuration whose flag j is enabled when bit j of ``mask`` is set."""
    return Configuration(level, tuple(bool((mask >> j) & 1) for j in range(n)))


@st.composite
def quantised_models(
    draw, max_flags: int = 6, max_benches: int = 3
) -> tuple[FlagSpace, SyntheticModel]:
    """Space and model with positive times and deltas in steps of 0.1, so
    sums tie often; the deltas are large next to the times, so the rounding
    of a sum often depends on the order its terms are added in.

    Some flags have no delta and some levels no multiplier; pairs may name
    their flags in either order, the same flag twice, or a flag outside the
    space.
    """
    n = draw(st.integers(0, max_flags))
    levels = draw(st.sampled_from([("O3",), ("O1", "O3"), ("O1", "O2", "O3")]))
    rng = draw(st.randoms(use_true_random=False))
    names = [f"f{i}" for i in range(n + 1)]
    benches = {}
    for b in range(rng.randint(1, max_benches)):
        deltas = {name: rng.randint(-30, 30) / 10 for name in names[:n] if rng.random() < 0.7}
        pairs = [
            (rng.choice(names), rng.choice(names), rng.random() < 0.5, rng.random() < 0.5,
             rng.randint(-30, 30) / 10)
            for _ in range(rng.randint(0, 4))
        ]
        worst = sum(min(0.0, d) for d in [*deltas.values(), *(p[4] for p in pairs)])
        benches[f"b{b}"] = {
            # multipliers are at least 1 - 2^-53, so every time is about the
            # margin above 0 or more
            "base": rng.randint(1, 40) / 10 - worst,
            # 1 + 2^-52 and 1 - 2^-53 put levels within the oracle's rounding bound
            "multipliers": {
                level: rng.choice([1.1, 1.3, 2.0, 1.0 + 2**-52, 1.0 - 2**-53])
                for level in levels if rng.random() < 0.5
            },
            "deltas": deltas,
            "pairs": pairs,
        }
    return space_of(n, levels=levels), model_of(benches)
