"""The concurrency contract of external evaluation: a batch compiles in
parallel, and timed runs overlap nothing flagtuner started.

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
import time
from pathlib import Path

import pytest

import flagtuner
from flagtuner.cli import main
from flagtuner.evaluator import Benchmark, CampaignInterrupted, CommandEvaluator
from flagtuner.flagspace import load_flag_space
from helpers import config_of
from test_evaluator import _gone_soon

DEMO = Path(__file__).resolve().parent.parent / "demo"
STUB_CAMPAIGN = str(DEMO / "stub_campaign.json")

STUB = '''\
import os, sys, time
start = time.monotonic()
kind, args = sys.argv[1], sys.argv[2:]
if kind == "compile":
    cut = args.index("--out")
    time.sleep(0.3 if "-O2" in args else 0.1)  # so a chunk's compiles end apart
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


def logging_suite(tmp_path: Path) -> list[Benchmark]:
    (tmp_path / "stub.py").write_text(STUB)
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
    """Four CPUs as the evaluator sees them, so chunks hold up to four
    compiles on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})


def distinct_configs(space, n):
    configs = [config_of(level, mask, len(space))
               for level in space.base_levels for mask in range(2 ** len(space))]
    return configs[:n]


def test_timed_runs_overlap_nothing(tmp_path, wide):
    suite = logging_suite(tmp_path)
    (tmp_path / "suite.json").write_text(json.dumps({"benchmarks": [
        {"name": b.name, "compile_command": b.compile_command, "run_command": b.run_command}
        for b in suite
    ]}))
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({
        "flag_space": str(DEMO / "stub_space.json"), "mode": "external",
        "suite": "suite.json", "seed": 3, "n_configs": 4, "threshold_t": 5.0,
    }))
    for command in ("ric", "suite-ce"):
        assert main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0
    compiles, runs = intervals(tmp_path, "compile"), intervals(tmp_path, "run")
    assert compiles and runs
    assert not [(c, r) for c in compiles for r in runs if overlap(c, r)]
    assert not [(r, s) for i, r in enumerate(runs) for s in runs[i + 1:] if overlap(r, s)]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs at least 2 CPUs")
def test_compiles_of_one_batch_overlap(tmp_path, space):
    ev = CommandEvaluator(space, logging_suite(tmp_path), workdir=tmp_path,
                          build_dir=tmp_path / "build")
    pairs = [(config, "alpha") for config in distinct_configs(space, 2)]
    assert all(m.ok for m in ev.evaluate_many(pairs))
    first, second = intervals(tmp_path, "compile")
    assert overlap(first, second)


def test_configuration_twice_in_one_batch_compiles_once(tmp_path, space, wide):
    ev = CommandEvaluator(space, logging_suite(tmp_path), workdir=tmp_path,
                          build_dir=tmp_path / "build")
    a, b = distinct_configs(space, 2)
    results = list(ev.evaluate_many([(a, "alpha"), (b, "alpha"), (a, "alpha")]))
    assert ev.compilations == len(intervals(tmp_path, "compile")) == 2
    assert [m.cached for m in results] == [False, False, True]
    assert results[2].time == results[0].time


def test_budget_interrupt_mid_chunk_leaves_build_empty(tmp_path, space, wide):
    build = tmp_path / "build"
    ev = CommandEvaluator(space, logging_suite(tmp_path), workdir=tmp_path, build_dir=build,
                          max_evals=1)
    pairs = [(config, "alpha") for config in distinct_configs(space, 4)]
    with pytest.raises(CampaignInterrupted):
        for _ in ev.evaluate_many(pairs):
            pass
    assert ev.compilations == 4  # the whole chunk was built ahead
    assert ev.executions == 1
    assert list(build.iterdir()) == []


def test_budget_spent_on_a_chunk_boundary_builds_no_further_chunk(tmp_path, space, wide):
    """A budget spent on the last pair of one chunk interrupts before the
    next chunk is compiled ahead."""
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


def test_cli_budget_interrupt_leaves_build_empty(tmp_path, wide):
    out = tmp_path / "o"
    assert main(["ric", "--config", STUB_CAMPAIGN, "--out", str(out),
                 "--max-evals", "1"]) == 3
    assert list((out / "build").iterdir()) == []


def test_compile_that_raises_leaves_build_empty(tmp_path, space, wide):
    build = tmp_path / "build"
    missing = Benchmark("missing", "no-such-compiler-anywhere {flags} -o {out}", "true")
    ev = CommandEvaluator(space, [missing, *logging_suite(tmp_path)], workdir=tmp_path,
                          build_dir=build)
    config = space.stock_config()
    with pytest.raises(FileNotFoundError):
        list(ev.evaluate_many([(config, "missing"), (config, "alpha")]))
    assert len(intervals(tmp_path, "compile")) == 1  # alpha was built ahead
    assert list(build.iterdir()) == []


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
    # first chunk holds one compile per benchmark
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
