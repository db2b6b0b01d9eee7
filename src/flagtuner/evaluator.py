"""Execution-time measurement for (configuration, benchmark) pairs.

Two interchangeable backends produce Measurements: an external
compile-and-run pipeline driven by command templates, and a deterministic
synthetic cost model (base time + per-flag deltas + pairwise interaction
terms) that stands in for real hardware at desk scale.

Results are cached by content digest of the compiled binary: if a future
compilation hashes the same, the cached measurement is returned instead of
re-executing the binary. Failed configurations are cached by configuration
identity so they are never retried. A synthetic measurement's digest covers
the model as well as the configuration, as a binary's would cover what the
compiler produced.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import math
import shlex
import subprocess
import time as _time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from flagtuner.flagspace import (
    Configuration,
    FlagSpace,
    FlagSpaceError,
    _check_member,
    render_args,
)

STATUS_OK = "ok"
STATUS_COMPILE_ERROR = "compile_error"
STATUS_RUN_ERROR = "run_error"
STATUS_TIMEOUT = "timeout"
STATUSES = (STATUS_OK, STATUS_COMPILE_ERROR, STATUS_RUN_ERROR, STATUS_TIMEOUT)

TIMING_REPORTED = "reported"
TIMING_EXTERNAL = "external"


class CacheLockedError(RuntimeError):
    """Another process holds the advisory lock on the cache file."""


@dataclass(frozen=True)
class Benchmark:
    """One benchmark: command templates plus measurement policy.

    ``compile_command`` may use the placeholders ``{flags}`` (the rendered
    argument list, space-joined) and ``{out}`` (output binary path);
    ``run_command`` may use ``{bin}``. With ``timing="reported"`` the run
    command must print a single floating-point time in seconds on its last
    output line; with ``timing="external"`` the harness wall-clocks the
    process instead.
    """

    name: str
    compile_command: str
    run_command: str
    timeout: float = 60.0
    repeat_runs: int = 1
    timing: str = TIMING_REPORTED

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("benchmark name must be non-empty")
        if self.timeout <= 0:
            raise ValueError(f"benchmark {self.name}: timeout must be > 0")
        if self.repeat_runs < 1:
            raise ValueError(f"benchmark {self.name}: repeat_runs must be >= 1")
        if self.timing not in (TIMING_REPORTED, TIMING_EXTERNAL):
            raise ValueError(f"benchmark {self.name}: bad timing {self.timing!r}")


@dataclass(frozen=True)
class Measurement:
    """One evaluated (configuration, benchmark) result.

    ``time`` is the minimum over the repeat runs and is present iff the
    status is ok; ``digest`` is present iff compilation succeeded.
    """

    status: str
    time: float | None = None
    digest: str | None = None
    cached: bool = False
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"bad status {self.status!r}")
        if self.status == STATUS_OK:
            if self.time is None or not math.isfinite(self.time) or self.time <= 0:
                raise ValueError(f"ok measurement needs finite positive time, got {self.time}")
        elif self.time is not None:
            raise ValueError(f"{self.status} measurement must not carry a time")

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def _digest_bytes(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


_FAILURE_PREFIX = "cfg:"


def _failure_key(config: Configuration) -> str:
    return _FAILURE_PREFIX + config.key()


class EvalCache:
    """Digest-keyed measurement cache with an append-only backing file.

    Ok measurements are keyed by (benchmark, binary digest); failed ones by
    (benchmark, configuration identity) so broken flag combinations are not
    retried. Every put is appended and flushed immediately, which makes the
    cache kill-safe: a final line without its newline is a torn append and
    is dropped on load, while a bad line anywhere else still raises. When
    backed by a file, an exclusive advisory lock is held, and taken before
    the file is read, so concurrent campaigns cannot share one cache file.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.entries: dict[tuple[str, str], Measurement] = {}
        self._handle = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a+b")
            try:
                try:
                    fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                except BlockingIOError as exc:
                    raise CacheLockedError(f"cache file {self.path} is locked") from exc
                self._load()
            except BaseException:
                self.close()
                raise

    def _load(self) -> None:
        self._handle.seek(0)
        complete = 0
        for line in self._handle:
            if not line.endswith(b"\n"):
                self._handle.truncate(complete)
                break
            complete += len(line)
            if not line.strip():
                continue
            rec = json.loads(line)
            meas = Measurement(status=rec["status"], time=rec["time"], digest=rec["digest"])
            self.entries[(rec["benchmark"], rec["key"])] = meas

    def _key_for(self, config: Configuration, measurement: Measurement) -> str:
        if measurement.ok:
            assert measurement.digest is not None
            return measurement.digest
        return _failure_key(config)

    def get(self, benchmark: str, digest: str) -> Measurement | None:
        return self.entries.get((benchmark, digest))

    def get_failure(self, benchmark: str, config: Configuration) -> Measurement | None:
        return self.entries.get((benchmark, _failure_key(config)))

    def put(self, benchmark: str, config: Configuration, measurement: Measurement) -> None:
        stored = replace(measurement, cached=False)
        key = self._key_for(config, measurement)
        self.entries[(benchmark, key)] = stored
        if self._handle is not None:
            rec = {
                "benchmark": benchmark,
                "key": key,
                "digest_algo": "md5",
                "digest": stored.digest,
                "status": stored.status,
                "time": stored.time,
                "config_bitstring": config.bitstring,
                "base_level": config.base_level,
            }
            self._handle.write(json.dumps(rec).encode() + b"\n")
            self._handle.flush()

    def __len__(self) -> int:
        return len(self.entries)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> EvalCache:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# External compile-and-run pipeline
# ---------------------------------------------------------------------------

def _run_command(cmd: str, timeout: float, cwd: str | Path | None):
    return subprocess.run(
        shlex.split(cmd),
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=cwd,
    )


def _parse_reported_time(stdout: str) -> float | None:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        return None
    try:
        return float(lines[-1].strip())
    except ValueError:
        return None


class CommandEvaluator:
    """Evaluator backed by external compile/run commands, with counters.

    ``compilations`` counts compiler invocations, ``executions`` the
    evaluations that ran the binary at least once and ``cache_hits`` the
    failure and digest hits, which run nothing. Timed executions are
    strictly serialized in submission order. Each binary is deleted from
    ``build_dir`` once it has been digested and run, or has failed.
    """

    def __init__(
        self,
        space: FlagSpace,
        suite: Sequence[Benchmark],
        cache: EvalCache | None = None,
        *,
        workdir: str | Path | None = None,
        build_dir: str | Path,
    ):
        names = [b.name for b in suite]
        if len(set(names)) != len(names):
            raise ValueError("benchmark names must be unique within a suite")
        self.space = space
        self.suite = {b.name: b for b in suite}
        self.cache = cache if cache is not None else EvalCache()
        self.workdir = workdir
        # commands may run with a different cwd, so the binary path must be absolute
        self.build_dir = Path(build_dir).resolve()
        self.executions = 0
        self.compilations = 0
        self.cache_hits = 0

    def evaluate(self, config: Configuration, bench_name: str) -> Measurement:
        """Compile, digest and (if the digest is unseen) run one configuration.

        Cache hits return the stored measurement with ``cached=True`` and spawn
        no run process; every fresh outcome is put in the cache. The measured
        time is the minimum over ``repeat_runs`` timed executions.
        """
        if bench_name not in self.suite:
            raise ValueError(f"unknown benchmark {bench_name!r}")
        _check_member(self.space, config)
        out_path = self.build_dir / f"{bench_name}-{config.base_level}-{config.bitstring}.bin"
        try:
            meas = self._measure(config, self.suite[bench_name], out_path)
        finally:
            out_path.unlink(missing_ok=True)
        if not meas.cached:
            self.cache.put(bench_name, config, meas)
        return meas

    def _measure(self, config: Configuration, bench: Benchmark, out_path: Path) -> Measurement:
        """A cache hit, marked ``cached``, or the fresh outcome of the pipeline,
        which builds ``out_path``."""
        hit = self.cache.get_failure(bench.name, config)
        if hit is not None:
            self.cache_hits += 1
            return replace(hit, cached=True)

        self.build_dir.mkdir(parents=True, exist_ok=True)
        flags = " ".join(render_args(self.space, config))
        compile_cmd = bench.compile_command.format(flags=flags, out=out_path)
        self.compilations += 1
        try:
            proc = _run_command(compile_cmd, bench.timeout, self.workdir)
        except subprocess.TimeoutExpired:
            return Measurement(STATUS_COMPILE_ERROR, detail="compile timed out")
        if proc.returncode != 0 or not out_path.exists():
            stderr = proc.stderr.strip()
            detail = stderr.splitlines()[-1] if stderr else "compile failed"
            return Measurement(STATUS_COMPILE_ERROR, detail=detail)

        digest = _digest_bytes(out_path.read_bytes())
        hit = self.cache.get(bench.name, digest)
        if hit is not None:
            self.cache_hits += 1
            return replace(hit, cached=True)

        run_cmd = bench.run_command.format(bin=out_path)
        self.executions += 1
        times = []
        for _ in range(bench.repeat_runs):
            started = _time.perf_counter()
            try:
                proc = _run_command(run_cmd, bench.timeout, self.workdir)
            except subprocess.TimeoutExpired:
                return Measurement(STATUS_TIMEOUT, digest=digest)
            elapsed = _time.perf_counter() - started
            if proc.returncode != 0:
                return Measurement(
                    STATUS_RUN_ERROR, digest=digest, detail=f"exit status {proc.returncode}"
                )
            if bench.timing == TIMING_EXTERNAL:
                times.append(elapsed)
                continue
            reported = _parse_reported_time(proc.stdout)
            if reported is None or reported <= 0:
                return Measurement(
                    STATUS_RUN_ERROR,
                    digest=digest,
                    detail="run command did not report a positive time",
                )
            times.append(reported)
        return Measurement(STATUS_OK, time=min(times), digest=digest)


# ---------------------------------------------------------------------------
# Synthetic model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairDelta:
    """Additive term applied when two flags are jointly in the given states."""

    flag_a: str
    flag_b: str
    state_a: bool
    state_b: bool
    delta: float


@dataclass(frozen=True)
class BenchmarkModel:
    base_time: float
    level_multiplier: dict[str, float] = field(default_factory=dict)
    flag_delta: dict[str, float] = field(default_factory=dict)
    pair_delta: tuple[PairDelta, ...] = ()


@dataclass(frozen=True)
class SyntheticModel:
    """Deterministic cost model: base time x level multiplier + flag terms.

    time(config) = base_time * level_multiplier[base_level]
                 + sum of flag_delta[f] over enabled flags f
                 + sum of pair deltas whose joint state matches.

    Multipliers and deltas absent from the mappings default to 1.0 and 0.0.
    Terms are added left to right in a fixed order: the base term, then the
    delta of each enabled flag of the space in flag order, then each matching
    pair term in model order (a pair naming a flag outside the space never
    matches). ``time_for`` and ``times`` both keep this order, so they give
    the same float for the same configuration, bit for bit; the oracle's
    tie-breaks depend on that.
    """

    benchmarks: dict[str, BenchmarkModel]

    @property
    def benchmark_names(self) -> list[str]:
        return list(self.benchmarks)

    def time_for(self, space: FlagSpace, config: Configuration, bench_name: str) -> float:
        """Time of one configuration, in the term order of the class docstring.

        The scalar reference for ``times``.
        """
        if bench_name not in self.benchmarks:
            raise ValueError(f"benchmark {bench_name!r} not modeled")
        _check_member(space, config)
        bm = self.benchmarks[bench_name]
        state = {f.name: on for f, on in zip(space.flags, config.assignment)}
        t = bm.base_time * bm.level_multiplier.get(config.base_level, 1.0)
        for name, on in state.items():
            if on:
                t += bm.flag_delta.get(name, 0.0)
        for p in bm.pair_delta:
            if state.get(p.flag_a) == p.state_a and state.get(p.flag_b) == p.state_b:
                t += p.delta
        return t

    def times(
        self, space: FlagSpace, bench_name: str, level: str, masks: np.ndarray
    ) -> np.ndarray:
        """Times of many flag assignments at one base level, as float64.

        ``masks`` is an int64 array in which bit j drives flag j. Each term is
        added only where it is active, in the term order of the class
        docstring, so element i equals ``time_for`` of mask i exactly.
        """
        if bench_name not in self.benchmarks:
            raise ValueError(f"benchmark {bench_name!r} not modeled")
        if level not in space.base_levels:
            raise FlagSpaceError(f"unknown base level {level!r}")
        bm = self.benchmarks[bench_name]
        state = {f.name: ((masks >> j) & 1) == 1 for j, f in enumerate(space.flags)}
        t = np.full(masks.shape, bm.base_time * bm.level_multiplier.get(level, 1.0))
        for name, on in state.items():
            np.add(t, bm.flag_delta.get(name, 0.0), out=t, where=on)
        for p in bm.pair_delta:
            if p.flag_a in state and p.flag_b in state:
                on = (state[p.flag_a] == p.state_a) & (state[p.flag_b] == p.state_b)
                np.add(t, p.delta, out=t, where=on)
        return t

    def validate(self, space: FlagSpace) -> None:
        """Reject a model that names a flag outside ``space`` or that some
        configuration could drive to a time <= 0.

        The time bound is an interval bound: base time x multiplier plus every
        negative flag and pair delta, at each of the space's levels and at each
        level the benchmark gives a multiplier for.
        """
        known = {f.name for f in space.flags}
        for name, bm in self.benchmarks.items():
            unknown = set(bm.flag_delta).union(*((p.flag_a, p.flag_b) for p in bm.pair_delta))
            unknown -= known
            if unknown:
                raise ValueError(f"{name}: model references flags not in the space: "
                                 f"{sorted(unknown)}")
            worst_flags = sum(min(0.0, d) for d in bm.flag_delta.values())
            worst_pairs = sum(min(0.0, p.delta) for p in bm.pair_delta)
            for level in dict.fromkeys([*space.base_levels, *bm.level_multiplier]):
                mult = bm.level_multiplier.get(level, 1.0)
                if mult <= 0:
                    raise ValueError(f"{name}: multiplier for {level} must be > 0")
                lower = bm.base_time * mult + worst_flags + worst_pairs
                if lower <= 0:
                    raise ValueError(
                        f"{name}: model can reach non-positive time at {level} "
                        f"(lower bound {lower})"
                    )


def load_synthetic_model(path: str | Path) -> SyntheticModel:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    benches = {}
    for name, raw in data["benchmarks"].items():
        pairs = []
        for rec in raw.get("pair_delta", []):
            a, b = rec["flags"]
            sa, sb = rec["when"]
            pairs.append(PairDelta(str(a), str(b), bool(sa), bool(sb), float(rec["delta"])))
        benches[name] = BenchmarkModel(
            base_time=float(raw["base_time"]),
            level_multiplier={k: float(v) for k, v in raw.get("level_multiplier", {}).items()},
            flag_delta={k: float(v) for k, v in raw.get("flag_delta", {}).items()},
            pair_delta=tuple(pairs),
        )
    return SyntheticModel(benches)


class SyntheticEvaluator:
    """Evaluator backed by a SyntheticModel, optionally cache-fronted.

    Model computations stand in for timed executions, so ``executions``
    counts fresh model evaluations and cache replays count none. The digest
    of a measurement covers the flag names, the model and the configuration,
    so a cache filled under another model or space never answers.
    """

    def __init__(self, space: FlagSpace, model: SyntheticModel, cache: EvalCache | None = None):
        model.validate(space)
        self.space = space
        self.model = model
        self.cache = cache if cache is not None else EvalCache()
        self._fingerprint = _digest_bytes(repr(([f.name for f in space.flags], model)).encode())
        self.executions = 0
        self.cache_hits = 0

    def evaluate(self, config: Configuration, bench_name: str) -> Measurement:
        digest = _digest_bytes(f"{self._fingerprint}:{config.key()}".encode())
        hit = self.cache.get(bench_name, digest)
        if hit is not None:
            self.cache_hits += 1
            return replace(hit, cached=True)
        time = self.model.time_for(self.space, config, bench_name)
        meas = Measurement(STATUS_OK, time=time, digest=digest)
        self.executions += 1
        self.cache.put(bench_name, config, meas)
        return meas


def load_suite(path: str | Path) -> list[Benchmark]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    benches = []
    for rec in data["benchmarks"]:
        benches.append(
            Benchmark(
                name=str(rec["name"]),
                compile_command=str(rec["compile_command"]),
                run_command=str(rec["run_command"]),
                timeout=float(rec.get("timeout", 60.0)),
                repeat_runs=int(rec.get("repeat_runs", 1)),
                timing=str(rec.get("timing", TIMING_REPORTED)),
            )
        )
    names = [b.name for b in benches]
    if len(set(names)) != len(names):
        raise ValueError("duplicate benchmark names in suite")
    return benches
