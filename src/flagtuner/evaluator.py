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
from itertools import compress, filterfalse
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence, get_type_hints

from flagtuner.flagspace import (
    Configuration,
    FlagSpace,
    _check_member,
    json_field,
    json_value,
    nul_or_surrogate,
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


# the longest timeout a command's wait takes: poll() gets it as a C int of ms
_MAX_TIMEOUT = (2**31 - 1) / 1000


@dataclass(frozen=True)
class Benchmark:
    """One benchmark: command templates plus measurement policy.

    ``compile_command`` may use the placeholders ``{flags}`` (the rendered
    arguments) and ``{out}`` (output binary path); ``run_command`` may use
    ``{bin}``. Each template is split once, as a shell splits it, when the
    benchmark is made (``_words``, by field), and every compile and run
    fills those words in: a word that is exactly ``{flags}`` becomes one
    argument per flag, and a placeholder inside a word is filled in there
    (``{flags}`` space-joined), so no value is split again. A template that
    a campaign could not fill, that splits into no word or that holds a NUL
    or a lone surrogate is rejected as the suite loads. With
    ``timing="reported"`` the run command must print a single floating-point
    time in seconds, finite and above 0, on its last output line; with
    ``timing="external"`` the harness wall-clocks the process instead.
    """

    name: str
    compile_command: str
    run_command: str
    timeout: float = 60.0
    repeat_runs: int = 1
    timing: str = TIMING_REPORTED
    _words: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("benchmark name must be non-empty")
        if not 0 < self.timeout <= _MAX_TIMEOUT:  # NaN as well
            raise ValueError(f"benchmark {self.name}: timeout must be > 0 and "
                             f"<= {_MAX_TIMEOUT} s")
        if self.repeat_runs < 1:
            raise ValueError(f"benchmark {self.name}: repeat_runs must be >= 1")
        if self.timing not in (TIMING_REPORTED, TIMING_EXTERNAL):
            raise ValueError(f"benchmark {self.name}: bad timing {self.timing!r}")
        try:
            for key, values in (("compile_command", {"flags": ["-O3"], "out": Path("x")}),
                                ("run_command", {"bin": Path("x")})):
                self._words[key] = tuple(shlex.split(getattr(self, key)))
                _fill(self._words[key], **values)
        except (KeyError, IndexError, ValueError, AttributeError, TypeError) as exc:
            raise ValueError(f"benchmark {self.name}: unfillable template: {exc!r}") from None
        for key, words in self._words.items():  # no exec takes an empty argv
            if not words:
                raise ValueError(f"benchmark {self.name}: {key} is empty")
            if nul_or_surrogate(getattr(self, key)):
                held = "a NUL" if "\0" in getattr(self, key) else "a lone surrogate"
                raise ValueError(f"benchmark {self.name}: {key} holds {held}")


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
    ``_make`` and ``_replace`` too, runs the checks.
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


# The fields of a cache record, as EvalCache.put writes them
_RECORD_FIELDS = frozenset(("benchmark", "key", "digest", "status", "time", "detail"))

# Bytes of cache lines that EvalCache reads and parses at once: many records
# per json.loads, and never the whole file in memory.
_LOAD_BATCH = 1 << 16


def _parse_batch(lines: list[bytes]) -> list | None:
    """The records of complete cache ``lines`` from one ``json.loads``, when
    each line is one object of its own: it starts with ``{``, ends with
    ``}``, and the batch holds no other ``{``. A string cannot span a line,
    so the i-th object parsed is then the i-th line's. Otherwise, or when
    the batch does not parse, None: ``EvalCache`` then parses the lines one
    by one, and reads each record by the same rule."""
    joined = b",".join(lines)
    # a newline ends each line and only there, so "}\n,{" is found only where
    # one line ends with } and the next starts with {
    if (joined.count(b"{") != len(lines) or joined.count(b"}\n,{") != len(lines) - 1
            or joined[:1] != b"{" or not joined.endswith(b"}\n")):
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

    The load reads every record by one rule, however its batch parsed
    (``_parse_batch``): one with the six fields and types ``put`` writes
    that ``Measurement`` takes is filed as it is, any other read field by
    field, which accepts older records and names a bad line. Records share
    one string per benchmark name, and those the type test takes one per
    status.
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
        entries, aliases = self.entries, self.aliases
        strings = dict(zip(STATUSES, STATUSES))  # one object per benchmark name, status
        number = 0  # the lines of the batches before
        self._handle.seek(0)
        while lines := self._handle.readlines(_LOAD_BATCH):
            # only the file's last line can lack its newline: a torn append
            tail = b"" if lines[-1].endswith(b"\n") else lines.pop()
            records = list(filterfalse(bytes.isspace, lines))  # a blank line is skipped
            parsed = _parse_batch(records)
            for i, rec in enumerate(records if parsed is None else parsed):
                try:
                    if parsed is None:
                        rec = json.loads(rec)
                    meas = None
                    if (type(rec) is dict and rec.keys() == _RECORD_FIELDS
                            and type(benchmark := rec["benchmark"]) is str
                            and type(key := rec["key"]) is str
                            and type(status := rec["status"]) is str
                            and type(detail := rec["detail"]) is str
                            and ((digest := rec["digest"]) is None or type(digest) is str)
                            and ((time := rec["time"]) is None or type(time) is float)):
                        try:
                            meas = Measurement(strings.setdefault(status, status), time, digest,
                                               True, detail)
                        except ValueError:
                            pass
                    if meas is None:  # field by field, which names what is wrong
                        meas = Measurement(status=rec["status"],
                                           time=json_field(rec, "time", float, None),
                                           # a digest may be null, but not absent
                                           digest=json_field(rec, "digest", str, rec["digest"]),
                                           cached=True, detail=json_field(rec, "detail", str, ""))
                        benchmark = json_field(rec, "benchmark", str)
                        key, digest = json_field(rec, "key", str), meas.digest
                except (ValueError, KeyError, TypeError) as exc:
                    line = [n for n, text in enumerate(lines, number + 1) if not text.isspace()][i]
                    raise ValueError(f"{self.path}: line {line} is not a cache record "
                                     f"({type(exc).__name__}: {exc})") from exc
                benchmark = strings.setdefault(benchmark, benchmark)
                if digest is None or key == digest:  # as _store files it
                    entries[benchmark, key] = meas
                else:
                    entries.setdefault((benchmark, digest), meas)
                    aliases[benchmark, key] = digest
            number += len(lines)
            if tail:  # cut once its batch has loaded, so a bad line raises first
                self._handle.truncate(self._handle.tell() - len(tail))

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

def _fill(words: tuple[str, ...], flags: list[str] | None = None, **values) -> list[str]:
    """The argv of a command template's ``words``, filled in as ``Benchmark`` describes."""
    if flags is not None:
        values["flags"] = " ".join(flags)
    argv = []
    for arg in words:
        argv += flags if arg == "{flags}" and flags is not None else [arg.format(**values)]
    return argv


# Linux's MAX_ARG_STRLEN: the bytes one argument of a command may take, its NUL
# included; a longer one fails the exec with E2BIG
_MAX_ARG_STRLEN = 131072


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


def _program_path(program: str, workdir: str | Path | None) -> str | None:
    """The file a command whose ``argv[0]`` is ``program`` runs, a bare name
    as the ``PATH`` resolves it and any other relative to ``workdir``, or
    None if that is no executable file."""
    path = shutil.which(program) if os.sep not in program else os.path.join(workdir or ".", program)
    return path if path and os.path.isfile(path) and os.access(path, os.X_OK) else None


def _toolchain_fingerprint(
    bench: Benchmark, workdir: str | Path | None, file_digests: dict[str, str]
) -> str:
    """md5 of the entry's fields and of the content of every file its command
    templates name: ``argv[0]`` by ``_program_path``, and any other token
    naming a file relative to ``workdir``. ``file_digests`` memoizes the
    content digests by path."""
    parts = [repr(bench)]
    for words in bench._words.values():
        for i, token in enumerate(words):
            path = _program_path(token, workdir) if i == 0 else os.path.join(workdir or ".", token)
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
    a stale cache. A suite whose compile command could render one argument
    longer than Linux lets a command carry (``{flags}`` inside a longer
    argument, at each flag's longer spelling and the longest level) is
    rejected there too, before any compile. ``compilations`` counts
    compiler invocations; a digest hit runs nothing and is answered as a
    configuration hit is. ``evaluate_many`` compiles a window of the pairs
    ahead on a thread pool, under reported timing while the pairs before
    them run; a direct ``evaluate`` compiles its pair in the calling
    thread. Each binary is deleted from ``build_dir`` once it has been
    digested and run, or has failed.
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

        def size(arg: str) -> int:
            return len(os.fsencode(arg)) + 1  # the NUL

        # the longest rendering: the longest level, each flag's longer spelling
        longest = [max((f"-{level}" for level in space.base_levels), key=size)]
        longest += (max(f.on, f.off, key=size) for f in space.flags)
        for b in suite:
            argv = _fill(b._words["compile_command"], longest, out=self._out_path(b.name, ""))
            over = max(map(size, argv))
            if over > _MAX_ARG_STRLEN:  # every compile would fail with E2BIG
                raise ValueError(f"benchmark {b.name}: a compile argument can take {over} bytes, "
                                 f"past the {_MAX_ARG_STRLEN} one argument may hold")
        self.compilations = 0
        # evaluate_many's window: the compiles it submitted, by (benchmark,
        # configuration key), until their pair is measured
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

        Compiles go through one window, ``_prebuilt``: before each pair the
        pairs ahead are scanned in order, and each miss (a configuration that
        neither the cache nor the window holds) is submitted once, counted in
        ``compilations``, to a pool of one thread per CPU made at the first
        miss. The window holds at most two compiles per CPU, and takes a miss
        only while ``used`` plus its size is below ``max_evals``, so the
        compiles, runs and hits are those of evaluating the pairs one by one.
        Digests and runs stay in the main thread, in order, so no two runs
        overlap. When every benchmark reports its own time, the window is
        topped up before each pair, which runs once its own compile is done
        (``_measure``); otherwise it is refilled only when empty, and all its
        compiles end before its first run, so a run overlaps no compile
        either. However the batch ends, compiles not yet started are
        cancelled, those running (which never see a Ctrl-C) are killed and
        waited for, and unrun binaries are deleted, so ``build_dir`` holds at
        most two per CPU.
        """
        width = len(os.sched_getaffinity(0))
        reported = all(b.timing == TIMING_REPORTED for b in self.suite.values())
        pool = None
        scanned = 0  # the pairs before pairs[scanned] are measured, cached or in the window
        try:
            for config, bench_name in pairs:
                if reported or not self._prebuilt:
                    while (scanned < len(pairs) and len(self._prebuilt) < 2 * width
                           and self.used + len(self._prebuilt) < self.max_evals):
                        ahead, name = pairs[scanned]
                        key = (name, self._key(ahead, name))
                        if key not in self._prebuilt and key not in self.cache:
                            if pool is None:
                                # imported with the pool, which every use of wait follows:
                                # at module level it adds some 7 ms to every start-up
                                from concurrent.futures import ThreadPoolExecutor, wait

                                pool = ThreadPoolExecutor(width)
                            self.compilations += 1
                            self._prebuilt[key] = pool.submit(self._compile, ahead, self.suite[name],
                                                              self._out_path(*key))
                        scanned += 1
                    if not reported and self._prebuilt:
                        wait(self._prebuilt.values())
                yield self.evaluate(config, bench_name)
        finally:
            if pool is not None:
                pending = [f for f in self._prebuilt.values() if not f.cancel() and not f.done()]
                while pending:  # a thread may start its command after a sweep
                    for proc in list(self._running):
                        _kill_group(proc)
                    pending = wait(pending, timeout=0.05).not_done
                pool.shutdown()
            for key in self._prebuilt:
                self._out_path(*key).unlink(missing_ok=True)
            self._prebuilt.clear()

    def _measure(self, config: Configuration, bench_name: str, key: str) -> Measurement:
        """The outcome of a configuration the cache does not hold.

        The binary is the one ``evaluate_many`` built, and an error its
        compile raised is raised here; for a direct ``evaluate`` it is
        compiled here, in the calling thread, where an interrupt kills the
        compile (``_run_command``) before the binary is deleted. The
        binary's digest is looked up before it is run, and a hit is returned
        as the cache answers it; the cache files an outcome that carries a
        digest under the digest as well, so a binary that failed its run is
        not run again either. The measured time is the minimum over
        ``repeat_runs`` timed executions.
        """
        bench = self.suite[bench_name]
        out_path = self._out_path(bench_name, key)
        try:
            built = self._prebuilt.pop((bench_name, key), None)
            if built is not None:
                failed = built.result()
            else:  # a direct evaluate
                self.compilations += 1
                failed = self._compile(config, bench, out_path)
            return failed if failed is not None else self._run(bench, out_path)
        finally:
            out_path.unlink(missing_ok=True)

    def _compile(
        self, config: Configuration, bench: Benchmark, out_path: Path
    ) -> Measurement | None:
        """Build ``out_path``: None once the binary exists, else the compile
        error. Runs on a pool thread of ``evaluate_many``, or in the thread
        of a direct ``evaluate``."""
        self.build_dir.mkdir(parents=True, exist_ok=True)
        argv = _fill(bench._words["compile_command"], render_args(self.space, config), out=out_path)
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

        argv = _fill(bench._words["run_command"], bin=out_path)
        times = []
        for _ in range(bench.repeat_runs):
            started = _time.perf_counter()
            try:
                proc = _run_command(argv, bench.timeout, self.workdir, self._running)
            except subprocess.TimeoutExpired:
                return Measurement(STATUS_TIMEOUT, digest=digest,
                                   detail=f"run timed out after {bench.timeout} s")
            elapsed = _time.perf_counter() - started
            if proc.returncode != 0:
                return Measurement(STATUS_RUN_ERROR, digest=digest,
                                   detail=f"exit status {proc.returncode}")
            if bench.timing == TIMING_EXTERNAL:
                times.append(elapsed)
                continue
            reported = _parse_reported_time(proc.stdout)
            if reported is None:
                return Measurement(STATUS_RUN_ERROR, digest=digest,
                                   detail="run command did not report a positive time")
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
        time <= 0 or to one that is not finite.

        The time bounds are interval bounds, at each of the space's levels and
        at each level the benchmark gives a multiplier for: base time x
        multiplier plus every negative flag and pair delta from below, and
        |base time x multiplier| plus the magnitude of every delta, the sum
        the oracle bounds its rounding with, from above.
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
            flags_size = sum(map(abs, bm.flag_delta.values()))
            pairs_size = sum(abs(p.delta) for p in bm.pair_delta)
            for level in dict.fromkeys([*space.base_levels, *bm.level_multiplier]):
                mult = bm.level_multiplier.get(level, 1.0)
                if mult <= 0:
                    raise ValueError(f"{name}: multiplier for {level} must be > 0")
                upper = abs(bm.base_time * mult) + flags_size + pairs_size
                if not math.isfinite(upper):
                    raise ValueError(f"{name}: model times can overflow at {level} "
                                     f"(upper bound {upper})")
                lower = bm.base_time * mult + worst_flags + worst_pairs
                if not lower > 0:  # NaN as well
                    raise ValueError(
                        f"{name}: model can reach non-positive time at {level} "
                        f"(lower bound {lower})"
                    )


def load_synthetic_model(path: str | Path) -> SyntheticModel:
    """The model in ``path``; a file of the wrong shape raises ``ValueError``.

    A number that json already read as a finite float, and a pair term of
    two strings, two booleans and such a float, are taken as they are;
    anything else is read by ``json_value``, which names what is wrong."""
    with open(path, encoding="utf-8") as fh:
        data = json_value(json.load(fh), dict, "a model")
    benches = {}
    for name, raw in json_field(data, "benchmarks", dict).items():
        at = f"benchmarks.{name}"
        raw = json_value(raw, dict, at)
        pairs = []
        for i, rec in enumerate(json_field(raw, "pair_delta", list, [], at)):
            if (type(rec) is dict and type(flags := rec.get("flags")) is list
                    and type(when := rec.get("when")) is list and len(flags) == len(when) == 2
                    and type(flags[0]) is str and type(flags[1]) is str
                    and type(when[0]) is bool and type(when[1]) is bool
                    and type(delta := rec.get("delta")) is float and math.isfinite(delta)):
                pairs.append(PairDelta(*flags, *when, delta))
                continue
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
            level_multiplier=_numbers(raw, "level_multiplier", at),
            flag_delta=_numbers(raw, "flag_delta", at),
            pair_delta=tuple(pairs),
        )
    return SyntheticModel(benches)


def _numbers(raw: dict, key: str, at: str) -> dict[str, float]:
    """The numbers ``raw[key]`` maps names to, each read by ``json_value``
    unless it is a finite float already."""
    return {k: v if type(v) is float and math.isfinite(v)
            else json_value(v, float, f"{at}.{key}.{k}")
            for k, v in json_field(raw, key, dict, {}, at).items()}


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


_SUITE_KINDS = get_type_hints(Benchmark)  # the JSON kind of each field, taken once


def load_suite(path: str | Path) -> list[Benchmark]:
    """The suite in ``path``; a file of the wrong shape, or a command whose
    program (unless a placeholder names it) is no executable file, raises
    ``ValueError``."""
    with open(path, encoding="utf-8") as fh:
        data = json_value(json.load(fh), dict, "a suite")
    benches = []
    for i, rec in enumerate(json_field(data, "benchmarks", list)):
        rec = json_value(rec, dict, f"benchmarks[{i}]")
        benches.append(Benchmark(**{
            f.name: json_field(rec, f.name, _SUITE_KINDS[f.name], f.default, f"benchmarks[{i}]")
            for f in fields(Benchmark) if f.init
        }))
        for key, (program, *_) in benches[-1]._words.items():
            if "{" not in program and _program_path(program, Path(path).parent) is None:
                raise ValueError(f"benchmarks[{i}].{key}: {program!r} is no executable file")
    return benches
