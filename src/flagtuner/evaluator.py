"""Execution-time measurement for (configuration, benchmark) pairs.

Two interchangeable backends produce Measurements: an external
compile-and-run pipeline driven by command templates, and a deterministic
synthetic cost model (base time + per-flag deltas + pairwise interaction
terms) that stands in for real hardware at desk scale.

Outcomes are cached (``EvalCache``). Both backends file every outcome under
its configuration, scoped by a fingerprint of what produced it: the
benchmark's toolchain for an external outcome, the flag names and the model
for a synthetic one. An external outcome answers its binary's digest too, so
neither a configuration seen before nor one that compiles to a binary seen
before is run again.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import math
import os
import shlex
import shutil
import signal
import subprocess
import time as _time
from dataclasses import dataclass, field, fields
from itertools import compress
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence, get_type_hints

from flagtuner.flagspace import (
    Configuration,
    FlagSpace,
    _check_member,
    json_field,
    json_value,
    render_args,
)

if TYPE_CHECKING:
    from concurrent.futures import Future

STATUS_OK = "ok"
STATUS_COMPILE_ERROR = "compile_error"
STATUS_RUN_ERROR = "run_error"
STATUS_TIMEOUT = "timeout"
STATUSES = (STATUS_OK, STATUS_COMPILE_ERROR, STATUS_RUN_ERROR, STATUS_TIMEOUT)

TIMING_REPORTED = "reported"
TIMING_EXTERNAL = "external"


class CacheLockedError(RuntimeError):
    """Another process holds the advisory lock on the cache file."""


class CampaignInterrupted(RuntimeError):
    """Raised by an evaluator when its evaluation budget is spent."""


@dataclass(frozen=True)
class Benchmark:
    """One benchmark: command templates plus measurement policy.

    ``compile_command`` may use the placeholders ``{flags}`` (the rendered
    arguments) and ``{out}`` (output binary path); ``run_command`` may use
    ``{bin}``. A template is split as a shell splits it, then filled in: an
    argument that is exactly ``{flags}`` becomes one argument per flag, and
    a placeholder inside an argument is filled in there (``{flags}``
    space-joined), so no value is split again. Each template is filled in
    once when the benchmark is made, so one that a campaign could not fill
    is rejected as the suite loads. With ``timing="reported"``
    the run command must print a single floating-point time in seconds,
    finite and above 0, on its last output line; with ``timing="external"``
    the harness wall-clocks the process instead.
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
        if not self.timeout > 0:  # NaN as well
            raise ValueError(f"benchmark {self.name}: timeout must be > 0")
        if self.repeat_runs < 1:
            raise ValueError(f"benchmark {self.name}: repeat_runs must be >= 1")
        if self.timing not in (TIMING_REPORTED, TIMING_EXTERNAL):
            raise ValueError(f"benchmark {self.name}: bad timing {self.timing!r}")
        try:
            _fill(self.compile_command, ["-O3"], out=Path("x"))
            _fill(self.run_command, bin=Path("x"))
        except (KeyError, IndexError, ValueError, AttributeError, TypeError) as exc:
            raise ValueError(f"benchmark {self.name}: unfillable template: {exc!r}") from None


class _MeasurementFields(NamedTuple):
    """The fields; their defaults are ``Measurement.__new__``'s."""

    status: str
    time: float | None
    digest: str | None
    cached: bool
    detail: str


class Measurement(_MeasurementFields):
    """One evaluated (configuration, benchmark) result, immutable.

    ``time`` is the minimum over the repeat runs and is present iff the
    status is ok; ``digest`` is present iff compilation succeeded.

    A tuple underneath, because campaigns build one per probe and a tuple
    is built far faster than a frozen dataclass; every way to build one,
    ``_make`` and ``_replace`` too, runs the checks. It equals only
    another ``Measurement``, never a plain tuple.
    """

    __slots__ = ()

    def __new__(cls, status: str, time: float | None = None, digest: str | None = None,
                cached: bool = False, detail: str = "") -> Measurement:
        if status == STATUS_OK:
            if time is None or not 0 < time < math.inf:  # NaN as well
                raise ValueError(f"ok measurement needs finite positive time, got {time}")
        elif status not in STATUSES:
            raise ValueError(f"bad status {status!r}")
        elif time is not None:
            raise ValueError(f"{status} measurement must not carry a time")
        return tuple.__new__(cls, (status, time, digest, cached, detail))

    @classmethod
    def _make(cls, iterable) -> Measurement:
        return cls(*iterable)

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def _digest_bytes(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def _json(value) -> str:
    """``json.dumps(value)``, with the types a record holds written directly:
    a string, null, or a float, which a ``Measurement`` holds finite."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if kind is float:
        return float.__repr__(value)  # as json writes a finite float
    return json.dumps(value)


def _config_key(config: Configuration, fingerprint: str = "") -> str:
    """The key of an outcome filed under the configuration itself; a
    fingerprint scopes it to one toolchain or model."""
    return f"cfg:{fingerprint}:{config.key()}" if fingerprint else f"cfg:{config.key()}"


# Bytes of cache lines that EvalCache reads and parses at once: many records
# per json.loads, and never the whole file in memory.
_LOAD_BATCH = 1 << 16


def _parse_batch(lines: list[bytes]) -> list | None:
    """The records of complete cache ``lines`` from one ``json.loads``, when
    each line is one object of its own: it starts with ``{``, ends with
    ``}``, and the batch holds no other ``{``. A string cannot span a line,
    so the i-th object parsed is then the i-th line's. Otherwise, or when
    the batch does not parse, None: the lines are parsed one by one, which
    names a bad line."""
    joined = b",".join(lines)
    if joined.count(b"{") != len(lines) or not all(
            line[:1] == b"{" and line.endswith(b"}\n") for line in lines):
        return None
    try:
        return json.loads(b"[" + joined + b"]")
    except ValueError:
        return None


class EvalCache:
    """Measurement cache keyed by (benchmark, key), with an append-only file.

    The caller chooses the key: both evaluators file every outcome, failed
    or not, under ``_config_key`` of its configuration and their
    fingerprint, so no configuration is measured twice. Each put appends one
    record of six fields: ``benchmark``, ``key``, ``digest``, ``status``,
    ``time`` and ``detail``. A record whose digest is not its key answers the
    digest too, unless the digest has a record already: ``aliases`` points
    the key at the digest's entry, so ``entries`` keeps one measurement per
    binary. Every measurement it holds, and so every hit it answers, is
    marked ``cached``. Every put is flushed at once, which makes the cache
    kill-safe: a final line without its newline is a torn append and is
    dropped on load, while a bad line anywhere else still raises. When
    backed by a file, an exclusive advisory lock is held, and taken before
    the file is read, so concurrent campaigns cannot share one cache file.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.entries: dict[tuple[str, str], Measurement] = {}
        self.aliases: dict[tuple[str, str], str] = {}
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
        complete = number = 0
        while lines := self._handle.readlines(_LOAD_BATCH):
            torn = not lines[-1].endswith(b"\n")  # only the file's last line can be
            if torn:
                lines.pop()
            numbered = [(n, line) for n, line in enumerate(lines, number + 1) if line.strip()]
            number += len(lines)
            complete += sum(map(len, lines))
            parsed = _parse_batch([line for _, line in numbered])
            for i, (n, line) in enumerate(numbered):
                try:
                    rec = json.loads(line) if parsed is None else parsed[i]
                    meas = Measurement(status=rec["status"],
                                       time=json_field(rec, "time", float, None),
                                       digest=rec["digest"], cached=True,
                                       detail=rec.get("detail", ""))
                    self._store(rec["benchmark"], rec["key"], meas)
                except (ValueError, KeyError, TypeError) as exc:
                    raise ValueError(f"{self.path}: line {n} is not a cache record "
                                     f"({type(exc).__name__}: {exc})") from exc
            if torn:
                self._handle.truncate(complete)

    def _store(self, benchmark: str, key: str, measurement: Measurement) -> None:
        digest = measurement.digest
        if digest is None or key == digest:
            self.entries[(benchmark, key)] = measurement
        else:
            self.entries.setdefault((benchmark, digest), measurement)
            self.aliases[(benchmark, key)] = digest

    def get(self, benchmark: str, key: str) -> Measurement | None:
        key = self.aliases.get((benchmark, key), key)
        return self.entries.get((benchmark, key))

    def __contains__(self, item: tuple[str, str]) -> bool:
        """Whether ``get(*item)`` would answer, without serving a hit."""
        benchmark, key = item
        return (benchmark, self.aliases.get(item, key)) in self.entries

    def get_failure(self, benchmark: str, config: Configuration) -> Measurement | None:
        """The outcome filed under the configuration with no fingerprint, as
        caches written before fingerprints filed a failure."""
        return self.get(benchmark, _config_key(config))

    def put(self, benchmark: str, key: str, measurement: Measurement) -> None:
        """File ``measurement``, marked ``cached``, under ``key`` (see the class)."""
        m = measurement
        stored = Measurement(m.status, m.time, m.digest, True, m.detail)
        self._store(benchmark, key, stored)
        if self._handle is not None:
            # json.dumps of the record's dict, field by field
            self._handle.write(
                f'{{"benchmark": {encode_basestring_ascii(benchmark)}, '
                f'"key": {encode_basestring_ascii(key)}, "digest": {_json(m.digest)}, '
                f'"status": {encode_basestring_ascii(m.status)}, "time": {_json(m.time)}, '
                f'"detail": {encode_basestring_ascii(m.detail)}}}\n'.encode())
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> EvalCache:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _CachedEvaluator:
    """The evaluation path both backends share.

    ``evaluate`` checks the pair and keys it (``_key``): its configuration
    under the fingerprint the backend gives its benchmark in
    ``_fingerprints``. It returns the cache's answer to the key; only on a
    miss does it call the backend's ``_measure``, and it puts that outcome
    under the key. Three counters follow the outcomes: one marked
    ``cached`` counts in ``cache_hits``; any other is fresh and spends one
    of ``max_evals`` fresh evaluations (``used``), and a fresh one that is
    not a compile error, which ran nothing, counts in ``executions`` too.
    Once the budget is spent, the next pair raises ``CampaignInterrupted``,
    a hit too, so a campaign that ends exactly on budget completes.
    """

    def __init__(self, space: FlagSpace, cache: EvalCache | None, max_evals: int | None):
        if max_evals is not None and max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        self.space = space
        self.cache = cache if cache is not None else EvalCache()
        self.max_evals = math.inf if max_evals is None else max_evals
        self.used = 0
        self.executions = 0
        self.cache_hits = 0

    def _check_budget(self) -> None:
        if self.used >= self.max_evals:
            raise CampaignInterrupted(f"budget of {self.max_evals} fresh evaluations spent")

    def _key(self, config: Configuration, bench_name: str) -> str:
        """The configuration key of a checked pair."""
        if bench_name not in self._fingerprints:
            raise ValueError(f"unknown benchmark {bench_name!r}")
        _check_member(self.space, config)
        return _config_key(config, self._fingerprints[bench_name])

    def evaluate(self, config: Configuration, bench_name: str) -> Measurement:
        self._check_budget()
        key = self._key(config, bench_name)
        meas = self.cache.get(bench_name, key)
        if meas is None:
            meas = self._measure(config, bench_name, key)
            self.cache.put(bench_name, key, meas)
        if meas.cached:
            self.cache_hits += 1
        else:
            self.used += 1
            self.executions += meas.status != STATUS_COMPILE_ERROR
        return meas

    def evaluate_many(self, pairs: Sequence[tuple[Configuration, str]]) -> Iterator[Measurement]:
        """The measurements of independent ``pairs``, in order."""
        for config, bench_name in pairs:
            yield self.evaluate(config, bench_name)


# ---------------------------------------------------------------------------
# External compile-and-run pipeline
# ---------------------------------------------------------------------------

def _fill(template: str, flags: list[str] | None = None, **values) -> list[str]:
    """The argv of a command template, split first and then filled in
    argument by argument, as ``Benchmark`` describes."""
    if flags is not None:
        values["flags"] = " ".join(flags)
    argv = []
    for arg in shlex.split(template):
        argv += flags if arg == "{flags}" and flags is not None else [arg.format(**values)]
    return argv


def _kill_group(proc: subprocess.Popen) -> None:
    with contextlib.suppress(ProcessLookupError):  # the group is gone
        os.killpg(proc.pid, signal.SIGKILL)


def _run_command(
    argv: list[str], timeout: float, cwd: str | Path | None, running: set[subprocess.Popen]
):
    """Run ``argv`` in a session of its own, held in ``running`` while it
    runs, so another thread can kill its process group. On timeout, or when
    anything else (a Ctrl-C) interrupts the wait, the whole process group is
    killed, so no background child outlives the command, and the call waits
    only for the command itself, so a child that escaped the group and holds
    the pipes cannot hang it. Output is read as UTF-8, a byte that is not
    UTF-8 as U+FFFD."""
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, encoding="utf-8",
                          errors="replace", cwd=cwd, start_new_session=True) as proc:
        running.add(proc)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except BaseException:
            _kill_group(proc)
            proc.wait()
            raise
        finally:
            running.discard(proc)
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def _parse_reported_time(stdout: str) -> float | None:
    """The number on the last line of ``stdout`` that is not blank, if it is
    finite and above 0."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    try:
        reported = float(lines[-1])
    except (IndexError, ValueError):
        return None
    return reported if 0 < reported < math.inf else None


def _toolchain_fingerprint(
    bench: Benchmark, workdir: str | Path | None, file_digests: dict[str, str]
) -> str:
    """md5 of the entry's fields and of the content of every file its command
    templates name: ``argv[0]`` as the ``PATH`` resolves a bare name, and any
    token naming a file relative to ``workdir``. ``file_digests`` memoizes
    the content digests by path."""
    parts = [repr(bench)]
    for template in (bench.compile_command, bench.run_command):
        for i, token in enumerate(shlex.split(template)):
            if i == 0 and os.sep not in token:
                path = shutil.which(token)
            else:
                path = os.path.join(workdir or ".", token)
            if path is None or not os.path.isfile(path):
                continue
            if path not in file_digests:
                file_digests[path] = _digest_bytes(Path(path).read_bytes())
            parts.append(file_digests[path])
    return _digest_bytes(repr(parts).encode())


class CommandEvaluator(_CachedEvaluator):
    """Evaluator backed by external compile/run commands.

    Each suite entry gets a toolchain fingerprint once, at construction
    (``_toolchain_fingerprint``); every cache key of the entry is taken
    under it, so an edited command or toolchain file is not answered from
    a stale cache. ``compilations`` counts compiler invocations; a digest
    hit runs nothing and is answered as a configuration hit is. Each binary
    is deleted from ``build_dir`` once it has been digested and run, or has
    failed.
    """

    def __init__(
        self,
        space: FlagSpace,
        suite: Sequence[Benchmark],
        cache: EvalCache | None = None,
        *,
        workdir: str | Path | None = None,
        build_dir: str | Path,
        max_evals: int | None = None,
    ):
        super().__init__(space, cache, max_evals)
        self.suite = {b.name: b for b in suite}
        if len(self.suite) != len(suite):
            raise ValueError("benchmark names must be unique within a suite")
        file_digests: dict[str, str] = {}
        self._fingerprints = {
            b.name: _toolchain_fingerprint(b, workdir, file_digests) for b in suite
        }
        self.workdir = workdir
        # commands may run with a different cwd, so the binary path must be absolute
        self.build_dir = Path(build_dir).resolve()
        self.compilations = 0
        # compiles joined by _build_ahead, by (benchmark, configuration key)
        self._prebuilt: dict[tuple[str, str], Future] = {}
        # the commands running now, in any thread
        self._running: set[subprocess.Popen] = set()

    def _out_path(self, bench_name: str, key: str) -> Path:
        """The binary of a configuration key: a name of fixed length, however
        many flags the space holds."""
        return self.build_dir / f"{bench_name}-{_digest_bytes(key.encode())}.bin"

    def evaluate_many(self, pairs: Sequence[tuple[Configuration, str]]) -> Iterator[Measurement]:
        """The measurements of independent ``pairs``, in order, each from
        ``evaluate``.

        Pairs go through in chunks holding at most one compile per CPU, and
        a spent budget interrupts before a chunk is built. A
        chunk's compiles are the pairs whose configuration the cache does not
        hold when the chunk starts, each distinct pair once; ``_build_ahead``
        runs them, a lone one too, before the chunk's first ``evaluate``,
        which then uses the prebuilt binary. As a pair is only compiled when
        its configuration is missed, the compiles, runs and hits are those of
        evaluating the pairs one by one. Digests and timed runs stay in the
        main thread, in order, so a timed run never overlaps a compile or
        another run that flagtuner started. A chunk that ends early deletes
        the binaries it built ahead, so ``build_dir`` never holds more than
        one chunk of binaries.
        """
        width = len(os.sched_getaffinity(0))
        start = 0
        while start < len(pairs):
            self._check_budget()
            misses: dict[tuple[str, str], Configuration] = {}
            end = start
            while end < len(pairs):
                config, bench_name = pairs[end]
                key = (bench_name, self._key(config, bench_name))
                if key not in misses and key not in self.cache:
                    if len(misses) == width:
                        break
                    misses[key] = config
                end += 1
            try:
                if misses:  # a pool of no threads raises
                    self._build_ahead(misses)
                for config, bench_name in pairs[start:end]:
                    yield self.evaluate(config, bench_name)
            finally:
                for key in misses:
                    self._prebuilt.pop(key, None)
                    self._out_path(*key).unlink(missing_ok=True)
            start = end

    def _build_ahead(self, misses: dict[tuple[str, str], Configuration]) -> None:
        """Compile ``misses`` on a thread pool, join it and file the futures in
        ``_prebuilt``. A Ctrl-C, which the threads never see, files none: it
        kills every running compile's process group and waits for them first."""
        # imported here: it adds some 7 ms to every start-up otherwise
        from concurrent.futures import ThreadPoolExecutor, wait

        with ThreadPoolExecutor(len(misses)) as pool:
            pending = []
            try:
                for key, config in misses.items():
                    self.compilations += 1
                    bench, out_path = self.suite[key[0]], self._out_path(*key)
                    pending.append(pool.submit(self._compile, config, bench, out_path))
                wait(pending)
            except BaseException:
                while pending:  # a thread may start its command after a sweep
                    for proc in list(self._running):
                        _kill_group(proc)
                    pending = wait(pending, timeout=0.05).not_done
                raise
        self._prebuilt.update(zip(misses, pending))

    def _measure(self, config: Configuration, bench_name: str, key: str) -> Measurement:
        """The outcome of a configuration the cache does not hold.

        ``_build_ahead`` builds the binary (here, unless ``evaluate_many`` did)
        and an error its compile raised is raised here. The binary's digest is
        looked up before it is run, and a hit is returned as the cache answers
        it; the cache files an outcome that carries a digest under the digest
        as well, so a binary that failed its run is not run again either. The
        measured time is the minimum over ``repeat_runs`` timed executions.
        """
        out_path = self._out_path(bench_name, key)
        try:
            if (bench_name, key) not in self._prebuilt:  # a direct evaluate
                self._build_ahead({(bench_name, key): config})
            failed = self._prebuilt.pop((bench_name, key)).result()
            return failed if failed is not None else self._run(self.suite[bench_name], out_path)
        finally:
            out_path.unlink(missing_ok=True)

    def _compile(
        self, config: Configuration, bench: Benchmark, out_path: Path
    ) -> Measurement | None:
        """Build ``out_path``: None once the binary exists, else the compile
        error. Runs on a pool thread of ``_build_ahead``."""
        self.build_dir.mkdir(parents=True, exist_ok=True)
        argv = _fill(bench.compile_command, render_args(self.space, config), out=out_path)
        try:
            proc = _run_command(argv, bench.timeout, self.workdir, self._running)
        except subprocess.TimeoutExpired:
            return Measurement(STATUS_COMPILE_ERROR, detail="compile timed out")
        if proc.returncode != 0 or not out_path.exists():
            stderr = proc.stderr.strip()
            detail = stderr.splitlines()[-1] if stderr else "compile failed"
            return Measurement(STATUS_COMPILE_ERROR, detail=detail)
        return None

    def _run(self, bench: Benchmark, out_path: Path) -> Measurement:
        """The fresh outcome of running the built ``out_path``, or a digest
        hit marked ``cached``."""
        digest = _digest_bytes(self._fingerprints[bench.name].encode() + out_path.read_bytes())
        hit = self.cache.get(bench.name, digest)
        if hit is not None:
            return hit

        argv = _fill(bench.run_command, bin=out_path)
        times = []
        for _ in range(bench.repeat_runs):
            started = _time.perf_counter()
            try:
                proc = _run_command(argv, bench.timeout, self.workdir, self._running)
            except subprocess.TimeoutExpired:
                return Measurement(
                    STATUS_TIMEOUT, digest=digest, detail=f"run timed out after {bench.timeout} s"
                )
            elapsed = _time.perf_counter() - started
            if proc.returncode != 0:
                return Measurement(
                    STATUS_RUN_ERROR, digest=digest, detail=f"exit status {proc.returncode}"
                )
            if bench.timing == TIMING_EXTERNAL:
                times.append(elapsed)
                continue
            reported = _parse_reported_time(proc.stdout)
            if reported is None:
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
    pair term in model order (a pair naming a flag outside the space, or one
    flag in both states, never matches). ``_terms_for`` lays these terms out
    once per space and benchmark, the pairs as flag indices and states, and
    ``time_for`` adds them up from there, so a model must not change once it
    has scored. The oracle's block scorer reads the same terms in the same
    order, so it gives the same float as ``time_for`` for the same
    configuration, bit for bit; its tie-breaks depend on that.
    """

    benchmarks: dict[str, BenchmarkModel]
    # time_for's tables by (id(space), benchmark), each holding its space, so
    # no other space takes that id while the table lives; out of repr, so an
    # evaluator's fingerprint of the model does not depend on what has run
    _terms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def benchmark_names(self) -> list[str]:
        return list(self.benchmarks)

    def _terms_for(self, space: FlagSpace, bench_name: str) -> tuple:
        """``(space, base term by level, flag deltas, pairs)`` of one
        benchmark over ``space``, in the order of the class docstring."""
        if bench_name not in self.benchmarks:
            raise ValueError(f"benchmark {bench_name!r} not modeled")
        bm = self.benchmarks[bench_name]
        index = {f.name: j for j, f in enumerate(space.flags)}
        pairs = tuple(
            (index[p.flag_a], p.state_a, index[p.flag_b], p.state_b, p.delta)
            for p in bm.pair_delta
            if p.flag_a in index and p.flag_b in index
            and not (p.flag_a == p.flag_b and p.state_a != p.state_b)
        )
        terms = (space,
                 {level: bm.base_time * bm.level_multiplier.get(level, 1.0)
                  for level in space.base_levels},
                 tuple(bm.flag_delta.get(f.name, 0.0) for f in space.flags),
                 pairs)
        self._terms[id(space), bench_name] = terms
        return terms

    def time_for(self, space: FlagSpace, config: Configuration, bench_name: str) -> float:
        """Time of one configuration, in the term order of the class docstring.

        The scalar reference for the oracle's block scorer.
        """
        terms = self._terms.get((id(space), bench_name))
        if terms is None:
            terms = self._terms_for(space, bench_name)
        _check_member(space, config)
        _, base, deltas, pairs = terms
        on = config.assignment
        t = base[config.base_level]
        for delta in compress(deltas, on):
            t += delta
        for a, state_a, b, state_b, delta in pairs:
            if on[a] == state_a and on[b] == state_b:
                t += delta
        return t

    def validate(self, space: FlagSpace) -> None:
        """Reject a model that names a flag outside ``space``, holds a number
        that is not finite, or that some configuration could drive to a
        time <= 0.

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
            numbers = [bm.base_time, *bm.level_multiplier.values(),
                       *bm.flag_delta.values(), *(p.delta for p in bm.pair_delta)]
            if not all(math.isfinite(x) for x in numbers):
                raise ValueError(f"{name}: model numbers must be finite")
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
    """The model in ``path``; a file of the wrong shape raises ``ValueError``."""
    with open(path, encoding="utf-8") as fh:
        data = json_value(json.load(fh), dict, "a model")
    benches = {}
    for name, raw in json_field(data, "benchmarks", dict).items():
        at = f"benchmarks.{name}"
        raw = json_value(raw, dict, at)
        pairs = []
        for i, rec in enumerate(json_field(raw, "pair_delta", list, [], at)):
            where = f"{at}.pair_delta[{i}]"
            rec = json_value(rec, dict, where)
            terms = []  # the two flags, then the two states they must be in
            for key, kind in (("flags", str), ("when", bool)):
                values = json_field(rec, key, list, where=where)
                if len(values) != 2:
                    raise ValueError(f"{where}.{key} must hold 2 values, got {len(values)}")
                terms += (json_value(v, kind, f"{where}.{key}") for v in values)
            pairs.append(PairDelta(*terms, json_field(rec, "delta", float, where=where)))
        benches[name] = BenchmarkModel(
            base_time=json_field(raw, "base_time", float, where=at),
            level_multiplier={k: json_value(v, float, f"{at}.level_multiplier.{k}")
                              for k, v in json_field(raw, "level_multiplier", dict, {}, at).items()},
            flag_delta={k: json_value(v, float, f"{at}.flag_delta.{k}")
                        for k, v in json_field(raw, "flag_delta", dict, {}, at).items()},
            pair_delta=tuple(pairs),
        )
    return SyntheticModel(benches)


class SyntheticEvaluator(_CachedEvaluator):
    """Evaluator backed by a SyntheticModel.

    Model computations stand in for timed executions. Each measurement,
    which carries no digest, is filed under its configuration and a
    fingerprint of the flag names and the model, so a cache filled under
    another model or space never answers.
    """

    def __init__(self, space: FlagSpace, model: SyntheticModel, cache: EvalCache | None = None,
                 *, max_evals: int | None = None):
        model.validate(space)
        super().__init__(space, cache, max_evals)
        self.model = model
        fingerprint = _digest_bytes(repr(([f.name for f in space.flags], model)).encode())
        self._fingerprints = dict.fromkeys(model.benchmarks, fingerprint)

    def _measure(self, config: Configuration, bench_name: str, key: str) -> Measurement:
        return Measurement(STATUS_OK, time=self.model.time_for(self.space, config, bench_name))


def load_suite(path: str | Path) -> list[Benchmark]:
    """The suite in ``path``; a file of the wrong shape raises ``ValueError``."""
    with open(path, encoding="utf-8") as fh:
        data = json_value(json.load(fh), dict, "a suite")
    kinds = get_type_hints(Benchmark)  # each field's JSON kind
    benches = []
    for i, rec in enumerate(json_field(data, "benchmarks", list)):
        rec = json_value(rec, dict, f"benchmarks[{i}]")
        benches.append(Benchmark(**{
            f.name: json_field(rec, f.name, kinds[f.name], f.default, f"benchmarks[{i}]")
            for f in fields(Benchmark)
        }))
    return benches
