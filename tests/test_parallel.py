"""The concurrency contract of external evaluation: a batch compiles in
parallel through a window of at most two compiles per CPU, no two runs
overlap, when every benchmark reports its own time a pair runs as soon as
its own binary is built while the window keeps compiling, and a
wall-clocked run overlaps nothing flagtuner started.

A logging stub toolchain appends ``kind start end`` (monotonic clock, which
every process shares) to a log file for each compile and run, so the
intervals can be checked after the fact.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import flagtuner
from flagtuner.cli import main
from flagtuner.evaluator import (
    Benchmark,
    CampaignInterrupted,
    CommandEvaluator,
    EvalCache,
    _CachedEvaluator,
)
from flagtuner.flagspace import load_flag_space
from helpers import config_of
from test_evaluator import _gone_soon, _running

DEMO = Path(__file__).resolve().parent.parent / "demo"
STUB_CAMPAIGN = str(DEMO / "stub_campaign.json")

STUB = '''\
import os, sys, time
start = time.monotonic()
kind, args = sys.argv[1], sys.argv[2:]
if kind == "compile":
    cut = args.index("--out")
    time.sleep(0.3 if "-O2" in args else 0.1)  # so a batch's compiles end apart
    with open(args[cut + 1], "w") as fh:
        fh.write(" ".join(a for a in args[:cut] if "prefetch" not in a))
else:
    data = open(args[0]).read()
    time.sleep(0.02)
    print(1.0 + len(data) % 97 / 100)
end = time.monotonic()
log = os.open(os.path.join(os.path.dirname(__file__), "log.txt"),
              os.O_WRONLY | os.O_APPEND | os.O_CREAT)
os.write(log, f"{kind} {start} {end}\\n".encode())
'''


# the logging stub with one straggler: a compile at -O2 takes 1.5 s, any other 0.05 s
STRAGGLER_STUB = STUB.replace("0.3 if", "1.5 if").replace("else 0.1)", "else 0.05)")


def logging_suite(tmp_path: Path, stub: str = STUB) -> list[Benchmark]:
    (tmp_path / "stub.py").write_text(stub)
    return [
        Benchmark(name, "python3 -S stub.py compile {flags} --out {out}",
                  "python3 -S stub.py run {bin}", timeout=30.0)
        for name in ("alpha", "beta")
    ]


def intervals(tmp_path: Path, kind: str) -> list[tuple[float, float]]:
    lines = (tmp_path / "log.txt").read_text().splitlines()
    return [(float(a), float(b)) for k, a, b in (ln.split() for ln in lines) if k == kind]


def overlap(x: tuple[float, float], y: tuple[float, float]) -> bool:
    return x[0] < y[1] and y[0] < x[1]


@pytest.fixture
def space():
    return load_flag_space(DEMO / "stub_space.json")


@pytest.fixture
def wide(monkeypatch):
    """Four CPUs as the evaluator sees them, so the window holds up to
    eight compiles, two per CPU, on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})


def distinct_configs(space, n):
    configs = [config_of(level, mask, len(space))
               for level in space.base_levels for mask in range(2 ** len(space))]
    return configs[:n]


def run_ric_and_suite_ce(tmp_path: Path, timing: str) -> None:
    """``ric`` then ``suite-ce`` on the logging suite under ``timing``."""
    (tmp_path / "suite.json").write_text(json.dumps({"benchmarks": [
        {"name": b.name, "compile_command": b.compile_command, "run_command": b.run_command,
         "timing": timing}
        for b in logging_suite(tmp_path)
    ]}))
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({
        "flag_space": str(DEMO / "stub_space.json"), "mode": "external",
        "suite": "suite.json", "seed": 3, "n_configs": 4, "threshold_t": 5.0,
    }))
    for command in ("ric", "suite-ce"):
        assert main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0


def test_timed_runs_overlap_nothing(tmp_path, wide):
    run_ric_and_suite_ce(tmp_path, "external")
    compiles, runs = intervals(tmp_path, "compile"), intervals(tmp_path, "run")
    assert compiles and runs
    assert not [(c, r) for c in compiles for r in runs if overlap(c, r)]
    assert not [(r, s) for i, r in enumerate(runs) for s in runs[i + 1:] if overlap(r, s)]


def test_reported_runs_overlap_the_next_chunks_compiles(tmp_path, wide, monkeypatch):
    """Under reported timing the window keeps compiling the pairs ahead
    while a pair runs, so ``build/`` holds up to two binaries per CPU, and
    never more."""
    counts = []

    def counting(method):
        def call(self, *args):
            result = method(self, *args)
            counts.append(len(list(self.build_dir.iterdir())))
            return result
        return call

    for name in ("_compile", "_run"):
        monkeypatch.setattr(CommandEvaluator, name, counting(getattr(CommandEvaluator, name)))
    run_ric_and_suite_ce(tmp_path, "reported")
    compiles, runs = intervals(tmp_path, "compile"), intervals(tmp_path, "run")
    assert [(c, r) for c in compiles for r in runs if overlap(c, r)]
    assert not [(r, s) for i, r in enumerate(runs) for s in runs[i + 1:] if overlap(r, s)]
    assert counts and max(counts) <= 2 * 4  # a full window: two compiles per (wide) CPU


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs at least 2 CPUs")
def test_compiles_of_one_batch_overlap(tmp_path, space):
    ev = CommandEvaluator(space, logging_suite(tmp_path), workdir=tmp_path,
                          build_dir=tmp_path / "build")
    pairs = [(config, "alpha") for config in distinct_configs(space, 2)]
    assert all(m.ok for m in ev.evaluate_many(pairs))
    first, second = intervals(tmp_path, "compile")
    assert overlap(first, second)


def test_a_pair_runs_once_its_own_binary_is_built(tmp_path, space, monkeypatch):
    """Under reported timing a straggler compile holds up only its own pair:
    the pair before it runs while it still compiles."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ev = CommandEvaluator(space, logging_suite(tmp_path, STRAGGLER_STUB), workdir=tmp_path,
                          build_dir=tmp_path / "build")
    pairs = [(config_of(level, mask, len(space)), "alpha")
             for level, mask in (("O3", 0), ("O2", 0), ("O3", 1), ("O2", 1))]
    assert all(m.ok for m in ev.evaluate_many(pairs))
    straggler = max(intervals(tmp_path, "compile"), key=lambda c: c[1] - c[0])
    assert straggler[1] - straggler[0] > 1.0
    assert intervals(tmp_path, "run")[0][0] < straggler[1]


def test_configuration_twice_in_one_batch_compiles_once(tmp_path, space, wide):
    ev = CommandEvaluator(space, logging_suite(tmp_path), workdir=tmp_path,
                          build_dir=tmp_path / "build")
    a, b = distinct_configs(space, 2)
    results = list(ev.evaluate_many([(a, "alpha"), (b, "alpha"), (a, "alpha")]))
    assert ev.compilations == len(intervals(tmp_path, "compile")) == 2
    assert [m.cached for m in results] == [False, False, True]
    assert results[2].time == results[0].time


def test_budget_interrupt_mid_chunk_leaves_build_empty(tmp_path, space, wide):
    """A budget of one lets the window take one of four misses: the second
    pair interrupts with nothing submitted for it, and ``build/`` ends
    empty."""
    build = tmp_path / "build"
    ev = CommandEvaluator(space, logging_suite(tmp_path), workdir=tmp_path, build_dir=build,
                          max_evals=1)
    pairs = [(config, "alpha") for config in distinct_configs(space, 4)]
    with pytest.raises(CampaignInterrupted):
        for _ in ev.evaluate_many(pairs):
            pass
    assert ev.compilations == ev.executions == 1  # nothing is built past the budget
    assert list(build.iterdir()) == []


def test_budget_spent_on_a_chunk_boundary_builds_no_further_chunk(tmp_path, space, wide):
    """A budget of four lets the window take four of eight misses: the
    fifth pair interrupts before anything is submitted for it, so every
    binary built was run."""
    build = tmp_path / "build"
    ev = CommandEvaluator(space, logging_suite(tmp_path), workdir=tmp_path, build_dir=build,
                          max_evals=4)
    # both levels with unroll-loops on and off: four distinct binaries per benchmark
    configs = [config_of(level, mask, len(space)) for level in space.base_levels for mask in (0, 1)]
    pairs = [(config, bench) for bench in ("alpha", "beta") for config in configs]
    with pytest.raises(CampaignInterrupted):
        for _ in ev.evaluate_many(pairs):
            pass
    assert ev.compilations == ev.executions == 4
    assert list(build.iterdir()) == []


def test_batch_closed_early_deletes_both_chunks(tmp_path, space, wide):
    """A batch its caller stops reading after one pair, once every compile
    the window submitted has ended, deletes the binaries left unrun."""
    build = tmp_path / "build"
    ev = CommandEvaluator(space, logging_suite(tmp_path), workdir=tmp_path, build_dir=build)
    batch = ev.evaluate_many([(config, "alpha") for config in distinct_configs(space, 8)])
    assert next(batch).ok
    deadline = time.monotonic() + 10.0
    while len(intervals(tmp_path, "compile")) < 8:  # the window's compiles end
        assert time.monotonic() < deadline, "the window's compiles did not end"
        time.sleep(0.01)
    assert len(list(build.iterdir())) == 8 - 1  # 8 submitted less 1 run
    batch.close()
    assert (ev.compilations, ev.executions) == (8, 1)
    assert list(build.iterdir()) == [] and ev._prebuilt == {}


def test_cli_budget_interrupt_leaves_build_empty(tmp_path, wide):
    out = tmp_path / "o"
    assert main(["ric", "--config", STUB_CAMPAIGN, "--out", str(out),
                 "--max-evals", "1"]) == 3
    assert list((out / "build").iterdir()) == []


def test_compile_that_raises_leaves_build_empty(tmp_path, space, wide, monkeypatch):
    """A compiler that cannot start raises at its own pair, and leaves no
    compile of the batch running and no binary behind."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self.pid)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    build = tmp_path / "build"
    missing = Benchmark("missing", "no-such-compiler-anywhere {flags} -o {out}", "true")
    ev = CommandEvaluator(space, [missing, *logging_suite(tmp_path)], workdir=tmp_path,
                          build_dir=build)
    config = space.stock_config()
    with pytest.raises(FileNotFoundError):
        list(ev.evaluate_many([(config, "missing"), (config, "alpha")]))
    assert not [pid for pid in started if _running(pid)]  # finished, or killed and reaped
    assert list(build.iterdir()) == []


def compile_threads(monkeypatch) -> list[threading.Thread]:
    """The thread of each ``_compile`` from now on, in order."""
    threads = []
    compile_on = CommandEvaluator._compile

    def compile_(self, *args):
        threads.append(threading.current_thread())
        return compile_on(self, *args)

    monkeypatch.setattr(CommandEvaluator, "_compile", compile_)
    return threads


def test_batch_compiles_run_on_the_pool(tmp_path, space, monkeypatch):
    """A batch compiles on pool threads, a lone miss in the window too."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    threads = compile_threads(monkeypatch)
    ev = CommandEvaluator(space, logging_suite(tmp_path), workdir=tmp_path,
                          build_dir=tmp_path / "build")
    a, b = distinct_configs(space, 2)
    assert all(m.ok for m in ev.evaluate_many([(a, "alpha"), (b, "alpha")]))
    assert ev.compilations == len(threads) == 2
    assert threading.main_thread() not in threads
    assert list((tmp_path / "build").iterdir()) == []


def test_direct_evaluate_compiles_in_the_calling_thread(tmp_path, space, monkeypatch):
    """A pair passed straight to ``evaluate`` is compiled where it is
    evaluated, and no thread is started for it."""
    threads = compile_threads(monkeypatch)
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    ev = CommandEvaluator(space, logging_suite(tmp_path), workdir=tmp_path,
                          build_dir=tmp_path / "build")
    assert ev.evaluate(space.stock_config(), "alpha").ok
    assert (ev.compilations, threads, started) == (1, [threading.main_thread()], [])
    assert list((tmp_path / "build").iterdir()) == []


# a compiler whose first build appends its pid to pids.txt, then takes its time
FIRST_SLOW_CC = """\
import os, sys, time
first = not os.path.exists("pids.txt")
with open("pids.txt", "a") as fh:
    fh.write(f"{os.getpid()}\\n")
time.sleep(3 if first else 0)
open(sys.argv[-1], "w").write(" ".join(sys.argv[1:-1]))
"""


def test_interrupted_direct_evaluate_files_no_compile(tmp_path, space):
    """A Ctrl-C while ``evaluate`` compiles in the calling thread kills the
    compile at once and leaves nothing behind that a later ``evaluate`` of
    the pair would take as built or measured."""
    (tmp_path / "cc.py").write_text(FIRST_SLOW_CC)
    pids_file = tmp_path / "pids.txt"
    ev = CommandEvaluator(space, [Benchmark("alpha", "python3 -S cc.py {flags} {out}",
                                            "python3 -S -c 'print(1.0)'")],
                          workdir=tmp_path, build_dir=tmp_path / "build")
    sent: list[float] = []

    def ctrl_c_once_the_compile_runs():
        deadline = time.monotonic() + 10.0
        while not (pids_file.exists() and pids_file.read_text().endswith("\n")):
            if time.monotonic() > deadline:
                return  # the test fails: no KeyboardInterrupt
            time.sleep(0.01)
        sent.append(time.monotonic())
        os.kill(os.getpid(), signal.SIGINT)

    helper = threading.Thread(target=ctrl_c_once_the_compile_runs)
    config = space.stock_config()
    helper.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            ev.evaluate(config, "alpha")
        raised = time.monotonic()
        helper.join()
        (pid,) = map(int, pids_file.read_text().split())
        assert raised - sent[0] < 1.0
        assert _gone_soon(pid)
        assert list((tmp_path / "build").iterdir()) == []
        assert ev.cache.entries == {} and ev.compilations == 1
        assert ev.evaluate(config, "alpha").ok
        assert ev.compilations == 2
    finally:
        helper.join()
        for pid in map(int, pids_file.read_text().split() if pids_file.exists() else []):
            with contextlib.suppress(ProcessLookupError):  # a compile leads its own group
                os.killpg(pid, signal.SIGKILL)


def test_pipelined_batch_equals_one_by_one(tmp_path, space, wide, monkeypatch):
    """A window built ahead gives the measurements, counters and cache bytes
    of evaluating the pairs one by one, with configurations that the stub
    compiles to one binary (it drops the prefetch flag) and pairs repeated
    within one window and across windows; a replay from the warm cache then
    starts no thread."""
    configs = [config_of("O3", mask, len(space)) for mask in range(4)]
    pairs = [(configs[i], bench) for i in (0, 1, 0, 2, 3, 1, 2, 3, 0)
             for bench in ("alpha", "beta")]
    evaluators, measured = [], []
    for name, evaluate_many in (("pipelined", CommandEvaluator.evaluate_many),
                                ("one_by_one", _CachedEvaluator.evaluate_many)):
        ev = CommandEvaluator(space, logging_suite(tmp_path), EvalCache(tmp_path / f"{name}.jsonl"),
                              workdir=tmp_path, build_dir=tmp_path / name)
        with ev.cache:
            measured.append(list(evaluate_many(ev, pairs)))
        evaluators.append(ev)
    assert measured[0] == measured[1]
    assert any(m.cached for m in measured[0])
    pipelined, one_by_one = ([ev.compilations, ev.executions, ev.cache_hits, ev.used]
                             for ev in evaluators)
    assert pipelined == one_by_one
    assert one_by_one[0] == 8 and one_by_one[1] == 4  # half the binaries are digest hits
    assert ((tmp_path / "pipelined.jsonl").read_bytes()
            == (tmp_path / "one_by_one.jsonl").read_bytes())

    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    with EvalCache(tmp_path / "pipelined.jsonl") as cache:
        replay = CommandEvaluator(space, logging_suite(tmp_path), cache, workdir=tmp_path,
                                  build_dir=tmp_path / "replay")
        assert all(m.cached for m in replay.evaluate_many(pairs))
    assert (replay.compilations, started) == (0, [])


def test_stub_ric_counters_hold_in_parallel(tmp_path, wide):
    out = tmp_path / "o"
    assert main(["ric", "--config", STUB_CAMPAIGN, "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert summary.startswith("ric: evaluations=8 cache_hits=6 configs_tested=7 ")


def test_cli_import_leaves_the_pool_module_out():
    """The pool and numpy are imported on first use: at module level they
    add to every start-up, numpy about half of it."""
    src = str(Path(flagtuner.__file__).resolve().parents[1])
    code = "import sys, flagtuner.cli; print({'concurrent.futures', 'numpy'} & set(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "set()\n"


def test_warm_replay_leaves_the_pool_module_out(tmp_path):
    """A campaign the cache answers whole compiles nothing, so it neither
    starts a pool nor imports one."""
    out = tmp_path / "o"
    argv = ["ric", "--config", STUB_CAMPAIGN, "--out", str(out)]
    assert main(argv) == 0
    src = str(Path(flagtuner.__file__).resolve().parents[1])
    code = ("import sys; from flagtuner.cli import main; code = main(sys.argv[1:]); "
            "print(code, 'concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.splitlines()[-1] == "0 False"


# a compiler that records its pid, then takes its time
SLOW_CC = """\
import os, sys, time
open(os.path.join("pids", str(os.getpid())), "w").close()
time.sleep(3)
open(sys.argv[1], "w").write("x")
"""

# a flagtuner that sees four CPUs, whatever the machine has
FOUR_CPUS = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1, 2, 3}; "
             "from flagtuner.cli import main; sys.exit(main(sys.argv[1:]))")


def test_ctrl_c_mid_chunk_kills_the_compiles(tmp_path):
    """A Ctrl-C reaches only the main thread, not the pool's: it must kill
    the compiles still running rather than wait for them, and leave
    ``build/`` empty."""
    (tmp_path / "cc.py").write_text(SLOW_CC)
    (tmp_path / "pids").mkdir()
    # no flags: the stock and the sampled configuration are one, so the
    # window holds one compile per benchmark
    (tmp_path / "space.json").write_text(json.dumps(
        {"base_levels": ["O3"], "default_baseline": "O3", "flags": []}))
    (tmp_path / "suite.json").write_text(json.dumps({"benchmarks": [
        {"name": name, "compile_command": "python3 -S cc.py {out}", "run_command": "true"}
        for name in ("alpha", "beta")
    ]}))
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({"flag_space": str(tmp_path / "space.json"),
                                  "mode": "external", "suite": "suite.json", "n_configs": 1}))
    out = tmp_path / "o"
    src = str(Path(flagtuner.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, "-c", FOUR_CPUS, "ric", "--config", str(config), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src}, stderr=subprocess.DEVNULL,
    )
    pids: list[int] = []
    try:
        deadline = time.monotonic() + 10.0
        while len(pids) < 2:
            assert time.monotonic() < deadline, "the compiles never started"
            time.sleep(0.01)
            pids = [int(p.name) for p in (tmp_path / "pids").iterdir()]
        child.send_signal(signal.SIGINT)
        assert child.wait(timeout=1.0) == 3
        assert all(_gone_soon(pid) for pid in pids)
        assert list((out / "build").iterdir()) == []
    finally:
        for pid in pids:  # each compile leads a process group of its own
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pid, signal.SIGKILL)
        child.kill()
        child.wait()


# a compiler that takes the next number in started/ and records its pid
# there: the first four build at once, every later one slowly
NUMBERED_CC = """\
import os, sys, time
n = 0
while True:
    try:
        fd = os.open(os.path.join("started", str(n)), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        break
    except FileExistsError:
        n += 1
os.write(fd, str(os.getpid()).encode())
os.close(fd)
time.sleep(0 if n < 4 else 3)
open(sys.argv[-1], "w").write(" ".join(sys.argv[1:-1]))
"""

# a benchmark that records its pid, then takes its time to report one
SLOW_RUN = """\
import os, time
open(os.path.join("runs", str(os.getpid())), "w").close()
time.sleep(3)
print(1.0)
"""


def test_ctrl_c_mid_run_kills_the_next_chunks_compiles(tmp_path):
    """A Ctrl-C while a pair runs and the window still compiles the pairs
    ahead kills the run and every compile, and deletes every binary left
    unrun."""
    (tmp_path / "cc.py").write_text(NUMBERED_CC)
    (tmp_path / "run.py").write_text(SLOW_RUN)
    for name in ("started", "runs"):
        (tmp_path / name).mkdir()
    (tmp_path / "space.json").write_text(json.dumps({
        "base_levels": ["O3"], "default_baseline": "O3",
        "flags": [{"name": f"f{i}", "on": f"-ff{i}", "off": f"-fno-f{i}"} for i in range(10)],
    }))
    (tmp_path / "suite.json").write_text(json.dumps({"benchmarks": [
        {"name": "alpha", "compile_command": "python3 -S cc.py {flags} {out}",
         "run_command": "python3 -S run.py {bin}"}
    ]}))
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({"flag_space": str(tmp_path / "space.json"),
                                  "mode": "external", "suite": "suite.json", "n_configs": 8}))
    out = tmp_path / "o"
    src = str(Path(flagtuner.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, "-c", FOUR_CPUS, "ric", "--config", str(config), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src}, stderr=subprocess.DEVNULL,
    )
    pids: list[int] = []
    try:
        deadline = time.monotonic() + 10.0
        while len(pids) < 8 + 1:  # 8 submitted, a full window, and 1 run
            assert time.monotonic() < deadline, "the window never filled"
            time.sleep(0.01)
            pids = [int(p.read_text() or 0) for p in (tmp_path / "started").iterdir()]
            pids += [int(p.name) for p in (tmp_path / "runs").iterdir()]
            pids = [pid for pid in pids if pid]  # a compile between its open and its write
        child.send_signal(signal.SIGINT)
        assert child.wait(timeout=1.0) == 3
        assert all(_gone_soon(pid) for pid in pids)
        assert list((out / "build").iterdir()) == []
    finally:
        for pid in pids:  # each command leads a process group of its own
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pid, signal.SIGKILL)
        child.kill()
        child.wait()
