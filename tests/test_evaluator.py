import hashlib
import json
import math
import shlex
import subprocess

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flagtuner.evaluator import (
    Benchmark,
    CacheLockedError,
    CommandEvaluator,
    EvalCache,
    Measurement,
    SyntheticEvaluator,
    load_suite,
    load_synthetic_model,
)
from flagtuner.flagspace import Configuration, load_flag_space, render_args, toggle
from helpers import config_of, model_of, pair_dependency_model, quantised_models, space_of


def measure(config, bench_name, model, space):
    """One fresh synthetic measurement."""
    return SyntheticEvaluator(space, model).evaluate(config, bench_name)


# ---------------------------------------------------------------------------
# synthetic model
# ---------------------------------------------------------------------------

def test_synthetic_constant_model():
    space = space_of(3)
    model = model_of({"b": {"base": 100.0}})
    for bits in range(8):
        config = Configuration.from_bitstring("O3", format(bits, "03b"))
        assert measure(config, "b", model, space).time == 100.0


def test_synthetic_additive_deltas():
    space = space_of(2)
    model = model_of({"b": {"base": 100.0, "deltas": {"f0": 10.0, "f1": -5.0}}})
    both_on = Configuration("O3", (True, True))
    assert measure(both_on, "b", model, space).time == 105.0


def test_synthetic_pair_dependency():
    space, model = pair_dependency_model()
    both_off = Configuration("O3", (False, False))
    one_off = Configuration("O3", (False, True))
    all_on = Configuration("O3", (True, True))
    assert measure(all_on, "cover", model, space).time == 100.0
    assert measure(one_off, "cover", model, space).time == 105.0
    assert measure(both_off, "cover", model, space).time == 90.0


def test_synthetic_level_multiplier():
    space = space_of(0, levels=("O1", "O3"))
    model = model_of({"b": {"base": 100.0, "multipliers": {"O1": 1.5, "O3": 1.0}}})
    assert measure(Configuration("O1", ()), "b", model, space).time == 150.0


def test_synthetic_is_deterministic():
    space, model = pair_dependency_model()
    config = Configuration("O2", (True, False))
    a = measure(config, "cover", model, space)
    b = measure(config, "cover", model, space)
    assert a == b
    assert a.digest == b.digest


def test_synthetic_rejects_unmodeled_benchmark():
    space, model = pair_dependency_model()
    with pytest.raises(ValueError):
        measure(space.all_enabled(), "nope", model, space)


def test_model_positivity_validation():
    space = space_of(1)
    model = model_of({"b": {"base": 10.0, "deltas": {"f0": -20.0}}})
    with pytest.raises(ValueError):
        SyntheticEvaluator(space, model)


def test_model_rejects_unknown_flags():
    space = space_of(1)
    model = model_of({"b": {"base": 100.0, "deltas": {"zz": 1.0}}})
    with pytest.raises(ValueError):
        SyntheticEvaluator(space, model)


def test_model_check_covers_space_and_multiplier_levels():
    space = space_of(1, levels=("O2", "O3"))
    # O2 has no multiplier (1.0): 20 - 30 < 0 there, though O3 is positive
    model = model_of({"b": {"base": 20.0, "deltas": {"f0": -30.0}, "multipliers": {"O3": 2.0}}})
    with pytest.raises(ValueError, match="at O2"):
        model.validate(space)
    # a level the space lacks is still checked when the model names it
    model = model_of({"b": {"base": 20.0, "multipliers": {"O0": -1.0}}})
    with pytest.raises(ValueError, match="multiplier for O0"):
        model.validate(space)
    model_of({"b": {"base": 20.0, "multipliers": {"O0": 0.5}}}).validate(space)


@given(quantised_models(max_flags=10, max_benches=1))
def test_batched_times_equal_time_for(instance):
    space, model = instance
    n = len(space)
    masks = np.arange(2**n, dtype=np.int64)[::-1]
    for level in space.base_levels:
        got = model.times(space, "b0", level, masks).tolist()
        want = [model.time_for(space, config_of(level, m, n), "b0") for m in masks.tolist()]
        assert got == want


def test_load_synthetic_model(demo_dir):
    model = load_synthetic_model(demo_dir / "pair_model.json")
    assert model.benchmark_names == ["cover"]
    pair = model.benchmarks["cover"].pair_delta[0]
    assert (pair.state_a, pair.state_b, pair.delta) == (False, False, -20.0)


# ---------------------------------------------------------------------------
# measurement invariants
# ---------------------------------------------------------------------------

def test_measurement_requires_time_iff_ok():
    with pytest.raises(ValueError):
        Measurement("ok")
    with pytest.raises(ValueError):
        Measurement("ok", time=0.0)
    with pytest.raises(ValueError):
        Measurement("ok", time=math.inf)
    with pytest.raises(ValueError):
        Measurement("timeout", time=1.0)
    assert Measurement("ok", time=1.0).ok


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def test_cache_round_trip(tmp_path):
    path = tmp_path / "cache.jsonl"
    config = Configuration("O3", (True, False))
    with EvalCache(path) as cache:
        cache.put("a", config, Measurement("ok", time=1.5, digest="d1"))
        cache.put("a", toggle(config, 0), Measurement("compile_error"))
        cache.put("b", config, Measurement("timeout", digest="d2"))
        entries = dict(cache.entries)
    with EvalCache(path) as again:
        assert again.entries == entries
    assert len(entries) == 3


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b"]),
            st.integers(0, 7),
            st.floats(0.001, 1000.0),
        ),
        max_size=20,
    )
)
def test_cache_reload_matches_any_history(tmp_path_factory, history):
    path = tmp_path_factory.mktemp("cache") / "c.jsonl"
    with EvalCache(path) as cache:
        for bench, bits, t in history:
            config = Configuration.from_bitstring("O3", format(bits, "03b"))
            cache.put(bench, config, Measurement("ok", time=t, digest=f"d{bits}"))
        entries = dict(cache.entries)
    with EvalCache(path) as again:
        assert again.entries == entries


def test_cache_lock_excludes_second_writer(tmp_path):
    path = tmp_path / "cache.jsonl"
    with EvalCache(path):
        with pytest.raises(CacheLockedError):
            EvalCache(path)
    # released on close
    EvalCache(path).close()


def test_torn_tail_is_dropped_at_every_offset(tmp_path):
    path = tmp_path / "cache.jsonl"
    config = Configuration("O3", (True, False))
    with EvalCache(path) as cache:
        cache.put("a", config, Measurement("ok", time=1.5, digest="d1"))
        cache.put("a", toggle(config, 0), Measurement("compile_error"))
        kept = dict(cache.entries)
        prefix = path.read_bytes()
        cache.put("b", config, Measurement("timeout", digest="d2"))
    last = path.read_bytes()[len(prefix):]
    for cut in range(1, len(last)):
        path.write_bytes(prefix + last[:cut])
        with EvalCache(path) as cache:
            assert cache.entries == kept
            assert path.read_bytes() == prefix
            cache.put("b", config, Measurement("ok", time=2.0, digest="d3"))
            entries = dict(cache.entries)
        with EvalCache(path) as again:
            assert again.entries == entries


def test_corrupt_middle_line_still_raises(tmp_path):
    path = tmp_path / "cache.jsonl"
    with EvalCache(path) as cache:
        cache.put("a", Configuration("O3", (True,)), Measurement("ok", time=1.0, digest="d1"))
    path.write_bytes(b"{ torn\n" + path.read_bytes())
    with pytest.raises(ValueError):
        EvalCache(path)
    # the failed open released its lock
    with pytest.raises(ValueError):
        EvalCache(path)


def test_locked_cache_is_neither_read_nor_truncated(tmp_path):
    path = tmp_path / "cache.jsonl"
    with EvalCache(path) as cache:
        cache.put("a", Configuration("O3", (True,)), Measurement("ok", time=1.0, digest="d1"))
        # the holder is mid-append: its record lacks the newline so far
        with open(path, "ab") as fh:
            fh.write(b'{"benchmark": "a", "ke')
        before = path.read_bytes()
        with pytest.raises(CacheLockedError):
            EvalCache(path)
        assert path.read_bytes() == before


def test_synthetic_evaluator_cache_contract():
    space, model = pair_dependency_model()
    ev = SyntheticEvaluator(space, model)
    config = space.all_enabled()
    first = ev.evaluate(config, "cover")
    second = ev.evaluate(config, "cover")
    assert not first.cached and second.cached
    assert second.time == first.time
    assert ev.executions == 1 and ev.cache_hits == 1


# ---------------------------------------------------------------------------
# external pipeline (stub toolchain)
# ---------------------------------------------------------------------------

@pytest.fixture
def stub(demo_dir, tmp_path):
    space = load_flag_space(demo_dir / "stub_space.json")
    suite = load_suite(demo_dir / "stub_suite.json")
    cache = EvalCache()
    ev = CommandEvaluator(
        space, suite, cache, workdir=demo_dir, build_dir=tmp_path / "build"
    )
    return space, ev


def test_command_evaluate_and_cache(stub):
    space, ev = stub
    stock = space.stock_config()
    first = ev.evaluate(stock, "alpha")
    assert first.ok and not first.cached and first.digest
    second = ev.evaluate(stock, "alpha")
    assert second.cached and second.time == first.time
    assert ev.executions == 1


def test_ignored_flag_collapses_to_one_execution(stub):
    space, ev = stub
    stock = space.stock_config()
    a = ev.evaluate(stock, "alpha")
    ignored = toggle(stock, [f.name for f in space.flags].index("prefetch-loop-arrays"))
    b = ev.evaluate(ignored, "alpha")
    assert a.digest == b.digest
    assert b.cached
    assert ev.executions == 1


def test_execution_count_matches_distinct_digests(stub):
    space, ev = stub
    configs = [
        space.stock_config(),
        toggle(space.stock_config(), 0),
        toggle(space.stock_config(), 1),  # digest-identical to stock
        space.stock_config(),  # repeat
        Configuration("O2", (True, False)),
    ]
    for config in configs:
        for bench in ev.suite:
            ev.evaluate(config, bench)
    ok_digests = {
        (bench, key) for (bench, key), m in ev.cache.entries.items() if m.ok
    }
    assert ev.executions == len(ok_digests)


def test_compile_error_is_cached_not_retried(demo_dir, tmp_path):
    space = load_flag_space(demo_dir / "stub_space.json")
    bench = Benchmark(
        name="broken",
        compile_command="python3 -c 'import sys; sys.exit(1)'",
        run_command="python3 -c 'print(1.0)'",
        timeout=10.0,
    )
    ev = CommandEvaluator(space, [bench], build_dir=tmp_path)
    config = space.stock_config()
    first = ev.evaluate(config, "broken")
    assert first.status == "compile_error"
    assert first.digest is None and first.time is None
    second = ev.evaluate(config, "broken")
    assert second.cached and second.status == "compile_error"
    assert ev.compilations == 1


def test_counters_on_mixed_outcomes(demo_dir, tmp_path):
    space = load_flag_space(demo_dir / "stub_space.json")
    stubcc = "python3 stub/stubcc.py {flags} --out {out}"
    suite = load_suite(demo_dir / "stub_suite.json") + [
        Benchmark("broken", "python3 -c 'import sys; sys.exit(1)'", "true", timeout=10.0),
        Benchmark("crashy", stubcc, "python3 -c 'import sys; sys.exit(3)'", timeout=10.0),
        Benchmark("slow", stubcc, "python3 -c 'import time; time.sleep(30)'", timeout=0.5),
    ]
    ev = CommandEvaluator(space, suite, workdir=demo_dir, build_dir=tmp_path)
    stock = space.stock_config()
    ignored = toggle(stock, [f.name for f in space.flags].index("prefetch-loop-arrays"))
    steps = [
        (stock, "alpha", "ok", False, (1, 1, 0)),  # fresh
        (ignored, "alpha", "ok", True, (2, 1, 1)),  # digest hit: compiles, runs nothing
        (stock, "alpha", "ok", True, (2, 1, 2)),  # repeat: a configuration hit, compiles nothing
        (stock, "broken", "compile_error", False, (3, 1, 2)),
        (stock, "broken", "compile_error", True, (3, 1, 3)),  # failure hit: compiles nothing
        (stock, "crashy", "run_error", False, (4, 2, 3)),
        (stock, "slow", "timeout", False, (5, 3, 3)),
    ]
    for config, bench, status, cached, counters in steps:
        meas = ev.evaluate(config, bench)
        assert (meas.status, meas.cached) == (status, cached)
        assert (ev.compilations, ev.executions, ev.cache_hits) == counters


def test_timeout_is_keyed_by_digest(demo_dir, tmp_path):
    space = load_flag_space(demo_dir / "stub_space.json")
    bench = Benchmark("slow", "python3 stub/stubcc.py {flags} --out {out}",
                      "python3 -c 'import time; time.sleep(30)'", timeout=0.5)
    ev = CommandEvaluator(space, [bench], workdir=demo_dir, build_dir=tmp_path)
    stock = space.stock_config()
    ignored = toggle(stock, [f.name for f in space.flags].index("prefetch-loop-arrays"))
    assert ev.evaluate(stock, "slow").status == "timeout"
    same_binary = ev.evaluate(ignored, "slow")
    assert (same_binary.status, same_binary.cached) == ("timeout", True)
    assert (ev.compilations, ev.executions) == (2, 1)


def test_failure_detail_survives_reload(demo_dir, tmp_path):
    space = load_flag_space(demo_dir / "stub_space.json")
    bench = Benchmark("broken", "python3 -c 'import sys; sys.exit(\"no such target\")'", "true",
                      timeout=10.0)
    config = space.stock_config()
    for expect_cached in (False, True):
        with EvalCache(tmp_path / "cache.jsonl") as cache:
            ev = CommandEvaluator(space, [bench], cache, build_dir=tmp_path / "build")
            meas = ev.evaluate(config, "broken")
        assert (meas.status, meas.cached, meas.detail) == (
            "compile_error", expect_cached, "no such target")


def test_records_without_fingerprint_load_but_do_not_answer(demo_dir, tmp_path):
    space = load_flag_space(demo_dir / "stub_space.json")
    suite = load_suite(demo_dir / "stub_suite.json")
    stock = space.stock_config()
    other = toggle(stock, 0)
    binary = tmp_path / "stock.bin"
    flags = " ".join(render_args(space, stock))
    subprocess.run(shlex.split(f"python3 stub/stubcc.py {flags} --out {binary}"),
                   cwd=demo_dir, check=True)
    digest = hashlib.md5(binary.read_bytes()).hexdigest()
    # records as written before toolchain fingerprints: no fingerprint in
    # the keys and no detail field
    records = [
        {"benchmark": "alpha", "key": digest, "digest_algo": "md5", "digest": digest,
         "status": "ok", "time": 9.0, "config_bitstring": stock.bitstring, "base_level": "O3"},
        {"benchmark": "alpha", "key": f"cfg:{other.key()}", "digest_algo": "md5",
         "digest": None, "status": "compile_error", "time": None,
         "config_bitstring": other.bitstring, "base_level": "O3"},
    ]
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    with EvalCache(path) as cache:
        assert cache.get("alpha", digest).time == 9.0
        assert cache.get_failure("alpha", other).detail == ""
        ev = CommandEvaluator(space, suite, cache, workdir=demo_dir, build_dir=tmp_path / "b")
        fresh = [ev.evaluate(stock, "alpha"), ev.evaluate(other, "alpha")]
    assert [(m.status, m.cached) for m in fresh] == [("ok", False), ("ok", False)]
    assert fresh[0].time != 9.0
    assert ev.executions == 2


def test_run_error_status(demo_dir, tmp_path):
    space = load_flag_space(demo_dir / "stub_space.json")
    bench = Benchmark(
        name="crashy",
        compile_command="python3 stub/stubcc.py {flags} --out {out}",
        run_command="python3 -c 'import sys; sys.exit(3)'",
        timeout=10.0,
    )
    ev = CommandEvaluator(space, [bench], workdir=demo_dir, build_dir=tmp_path)
    meas = ev.evaluate(space.stock_config(), "crashy")
    assert meas.status == "run_error"
    assert meas.digest is not None and meas.time is None


def test_timeout_status(demo_dir, tmp_path):
    space = load_flag_space(demo_dir / "stub_space.json")
    bench = Benchmark(
        name="slow",
        compile_command="python3 stub/stubcc.py {flags} --out {out}",
        run_command="python3 -c 'import time; time.sleep(30)'",
        timeout=0.5,
    )
    ev = CommandEvaluator(space, [bench], workdir=demo_dir, build_dir=tmp_path)
    meas = ev.evaluate(space.stock_config(), "slow")
    assert meas.status == "timeout"
    assert meas.time is None
    # not retried either
    again = ev.evaluate(space.stock_config(), "slow")
    assert again.cached


def test_unparsable_time_is_run_error(demo_dir, tmp_path):
    space = load_flag_space(demo_dir / "stub_space.json")
    bench = Benchmark(
        name="mute",
        compile_command="python3 stub/stubcc.py {flags} --out {out}",
        run_command="python3 -c \"print('hello')\"",
        timeout=10.0,
    )
    ev = CommandEvaluator(space, [bench], workdir=demo_dir, build_dir=tmp_path)
    assert ev.evaluate(space.stock_config(), "mute").status == "run_error"


def test_repeat_runs_take_minimum(tmp_path):
    space = space_of(0)
    runner = tmp_path / "runner.py"
    counter = tmp_path / "count"
    runner.write_text(
        "import sys\n"
        "from pathlib import Path\n"
        "c = Path(sys.argv[1])\n"
        "n = int(c.read_text()) if c.exists() else 0\n"
        "c.write_text(str(n + 1))\n"
        "print([3.0, 1.5, 2.5][n % 3])\n"
    )
    bench = Benchmark(
        name="varied",
        compile_command="python3 -c \"import sys; open(sys.argv[1], 'w').write('x')\" {out}",
        run_command=f"python3 {runner} {counter}",
        timeout=10.0,
        repeat_runs=3,
    )
    ev = CommandEvaluator(space, [bench], build_dir=tmp_path / "build")
    meas = ev.evaluate(space.stock_config(), "varied")
    assert meas.ok and meas.time == 1.5


def test_external_timing_wall_clock(tmp_path):
    space = space_of(0)
    bench = Benchmark(
        name="walled",
        compile_command="python3 -c \"import sys; open(sys.argv[1], 'w').write('x')\" {out}",
        run_command="python3 -c 'import time; time.sleep(0.05)'",
        timeout=10.0,
        timing="external",
    )
    ev = CommandEvaluator(space, [bench], build_dir=tmp_path)
    meas = ev.evaluate(space.stock_config(), "walled")
    assert meas.ok and meas.time >= 0.05


def test_relative_build_dir_survives_foreign_workdir(demo_dir, tmp_path, monkeypatch):
    # binaries must land where the harness looks for them even though the
    # compile command runs in the suite's directory, not the caller's
    monkeypatch.chdir(tmp_path)
    space = load_flag_space(demo_dir / "stub_space.json")
    suite = load_suite(demo_dir / "stub_suite.json")
    ev = CommandEvaluator(space, suite, workdir=demo_dir, build_dir="relbuild")
    meas = ev.evaluate(space.stock_config(), "alpha")
    assert meas.ok, meas.detail


def test_load_suite(demo_dir):
    suite = load_suite(demo_dir / "stub_suite.json")
    assert [b.name for b in suite] == ["alpha", "beta"]
    assert suite[0].timing == "reported"


def test_benchmark_validation():
    with pytest.raises(ValueError):
        Benchmark(name="x", compile_command="c", run_command="r", timeout=0.0)
    with pytest.raises(ValueError):
        Benchmark(name="x", compile_command="c", run_command="r", repeat_runs=0)
