import copy
import hashlib
import json
import math
import pickle
import re
import shlex
import subprocess
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from flagtuner import evaluator, oracle
from flagtuner.evaluator import (
    Benchmark,
    CacheLockedError,
    CommandEvaluator,
    EvalCache,
    Measurement,
    PairDelta,
    SyntheticEvaluator,
    _config_key,
    load_suite,
    _run_command,
    _toolchain_fingerprint,
    load_synthetic_model,
)
from flagtuner.flagspace import Configuration, FlagSpace, load_flag_space, render_args, toggle
from helpers import (
    cache_read_line_by_line,
    config_of,
    fill_reference,
    model_of,
    pair_dependency_model,
    quantised_models,
    space_of,
    time_for_reference,
    toolchain_fingerprint_reference,
)


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


@pytest.mark.parametrize("recipe", [
    {"base": math.inf},
    {"multipliers": {"O3": math.nan}},
    {"deltas": {"f0": math.nan}},
    {"pairs": [("f0", "f0", True, True, math.inf)]},
])
def test_model_rejects_numbers_that_are_not_finite(recipe):
    with pytest.raises(ValueError, match="must be finite"):
        model_of({"b": recipe}).validate(space_of(1))


@given(quantised_models(max_flags=10, max_benches=1), st.sampled_from([1, 2, 4, None]))
def test_batched_times_equal_time_for(instance, block):
    """The oracle's block scorer against ``time_for``, every level and mask,
    with 0 to all flags varying inside a block (None: a block above 2^n)."""
    space, model = instance
    n = len(space)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "BLOCK_SIZE", 2**n + 1 if block is None else block)
        scorer = oracle._Scorer(space, model, "b0")
    assert scorer.block == (2**n if block is None else min(2**n, block))
    for level in space.base_levels:
        prefix = scorer.prefix(level)
        got = [t for start in range(0, 2**n, scorer.block) for t in scorer.times(prefix, start).tolist()]
        want = [model.time_for(space, config_of(level, m, n), "b0") for m in range(2**n)]
        assert [t.hex() for t in got] == [t.hex() for t in want]


@example((space_of(3, levels=("O1", "O3")), model_of({"b0": {
    "base": 10.0,
    "multipliers": {"O3": 1.3},  # none for O1
    "deltas": {"f0": 1.5, "f2": -0.5},  # none for f1
    "pairs": [("f1", "f1", True, True, 0.25), ("f0", "f0", True, False, 9.0),
              ("f2", "f0", False, True, 0.125), ("f0", "f9", True, True, 7.0)],
}})))
@given(quantised_models())
def test_time_for_equals_reference(instance):
    """``time_for`` from its precomputed terms equals the model read straight
    from its mappings, float for float, on the space and on a second space
    of the same flags in reverse order, scored in turn with one model."""
    space, model = instance
    reverse = FlagSpace(space.flags[::-1], space.base_levels, space.default_baseline)
    n = len(space)
    for bench in model.benchmarks:
        for level in space.base_levels:
            for mask in range(2**n):
                config = config_of(level, mask, n)
                for sp in (space, reverse):
                    assert model.time_for(sp, config, bench) == \
                        time_for_reference(model, sp, config, bench)


def test_load_synthetic_model(demo_dir, tmp_path):
    model = load_synthetic_model(demo_dir / "pair_model.json")
    assert model.benchmark_names == ["cover"]
    pair = model.benchmarks["cover"].pair_delta[0]
    assert (pair.state_a, pair.state_b, pair.delta) == (False, False, -20.0)
    # a pair term's flags and states are two each, and the error names the term
    data = json.loads((demo_dir / "pair_model.json").read_text())
    term = data["benchmarks"]["cover"]["pair_delta"][0]
    for key, values in (("when", [False, True, True]), ("flags", ["ivopts"])):
        data["benchmarks"]["cover"]["pair_delta"] = [{**term, key: values}]
        (tmp_path / "m.json").write_text(json.dumps(data))
        with pytest.raises(ValueError, match=rf"^benchmarks\.cover\.pair_delta\[0\]\.{key} "
                                             rf"must hold 2 values, got {len(values)}$"):
            load_synthetic_model(tmp_path / "m.json")


def _model_text(**raw: str) -> str:
    """A one-benchmark model file, with each field given written as that
    raw JSON text."""
    text = {"base_time": "100.0", "multiplier": "1.5", "flag_delta": "-2.0",
            "pair_delta": "0.5", "flags": '["f0", "f1"]', "when": "[true, false]", **raw}
    return ('{"benchmarks": {"b": {"base_time": %(base_time)s, '
            '"level_multiplier": {"O3": %(multiplier)s}, "flag_delta": {"f0": %(flag_delta)s}, '
            '"pair_delta": [{"flags": %(flags)s, "when": %(when)s, "delta": %(pair_delta)s}]}}}'
            % text)


_MODEL_NUMBERS = {"base_time": "benchmarks.b.base_time",
                  "multiplier": "benchmarks.b.level_multiplier.O3",
                  "flag_delta": "benchmarks.b.flag_delta.f0",
                  "pair_delta": "benchmarks.b.pair_delta[0].delta"}


@pytest.mark.parametrize("raw, message", [
    *((f"{name}={value}", f"{at} must be a number, got {shown}")
      for name, at in _MODEL_NUMBERS.items()
      for value, shown in (('"1.0"', "'1.0'"), ("true", "True"), ("NaN", "nan"),
                           ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf"))),
    ('flags=["f0", "f1", "f0"]', "benchmarks.b.pair_delta[0].flags must hold 2 values, got 3"),
    ("when=[true, false, true]", "benchmarks.b.pair_delta[0].when must hold 2 values, got 3"),
    ('flags=[1, "f1"]', "benchmarks.b.pair_delta[0].flags must be a string, got 1"),
    ("when=[true, 0]", "benchmarks.b.pair_delta[0].when must be true or false, got 0"),
    ('flags="f0"', "benchmarks.b.pair_delta[0].flags must be a list, got 'f0'"),
])
def test_model_file_error_names_the_field(tmp_path, raw, message):
    name, value = raw.split("=", 1)
    (tmp_path / "m.json").write_text(_model_text(**{name: value}))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_synthetic_model(tmp_path / "m.json")


def test_model_file_integers_load_as_floats(tmp_path):
    (tmp_path / "m.json").write_text(_model_text())
    (tmp_path / "i.json").write_text(_model_text(base_time="100", multiplier="2",
                                                 flag_delta="-2", pair_delta="1"))
    floats, integers = (load_synthetic_model(tmp_path / name) for name in ("m.json", "i.json"))
    bm = integers.benchmarks["b"]
    numbers = [bm.base_time, *bm.level_multiplier.values(), *bm.flag_delta.values(),
               bm.pair_delta[0].delta]
    assert numbers == [100.0, 2.0, -2.0, 1.0] and {type(x) for x in numbers} == {float}
    assert floats.benchmarks["b"].pair_delta == (PairDelta("f0", "f1", True, False, 0.5),)


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


# Unpickling and copying build through __new__ as well.
_BUILDERS = {
    "positional": lambda status, time: Measurement(status, time),
    "keyword": lambda status, time: Measurement(status=status, time=time),
    "new": lambda status, time: Measurement.__new__(Measurement, status, time),
    "make": lambda status, time: Measurement._make((status, time, None, False, "")),
    "replace": lambda status, time: Measurement("run_error")._replace(status=status, time=time),
}


@pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS)
@pytest.mark.parametrize("status,time", [("bogus", None), ("ok", None), ("ok", 0.0),
                                         ("ok", -1.0), ("ok", math.inf), ("ok", math.nan),
                                         ("timeout", 1.0)])
def test_every_constructor_checks_a_measurement(build, status, time):
    assert build("ok", 1.5) == Measurement("ok", time=1.5)
    assert build("timeout", None) == Measurement("timeout")
    with pytest.raises(ValueError):
        build(status, time)


def test_measurement_is_an_immutable_record():
    m = Measurement("ok", time=1.5, digest="d")
    with pytest.raises(AttributeError):
        m.time = 2.0
    with pytest.raises(AttributeError):
        m.note = "x"
    assert repr(m) == "Measurement(status='ok', time=1.5, digest='d', cached=False, detail='')"
    assert m.ok and not m.cached
    hit = Measurement("ok", 1.5, "d", True)
    assert hit.cached and hit != m and hit == m._replace(cached=True)
    assert hash(hit) == hash(m._replace(cached=True))
    assert not Measurement("run_error", digest="d").ok
    assert pickle.loads(pickle.dumps(m)) == m == copy.deepcopy(m)


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def test_cache_round_trip(tmp_path):
    path = tmp_path / "cache.jsonl"
    config = Configuration("O3", (True, False))
    with EvalCache(path) as cache:
        cache.put("a", "d1", Measurement("ok", time=1.5, digest="d1"))
        cache.put("a", _config_key(toggle(config, 0)), Measurement("compile_error"))
        cache.put("b", _config_key(config), Measurement("timeout", digest="d2"))
        entries = dict(cache.entries)
    with EvalCache(path) as again:
        assert again.entries == entries
    assert len(entries) == 3


def test_cache_writes_an_int_time_as_json_does(tmp_path):
    """An int time, which a ``Measurement`` accepts, is written as
    ``json.dumps`` writes it and reloads as a float."""
    path = tmp_path / "cache.jsonl"
    with EvalCache(path) as cache:
        cache.put("a", "k", Measurement("ok", time=2))
    assert '"time": 2, ' in path.read_text()
    with EvalCache(path) as again:
        reloaded = again.get("a", "k")
    assert reloaded == Measurement("ok", 2.0, cached=True) and type(reloaded.time) is float


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
            cache.put(bench, f"d{bits}", Measurement("ok", time=t, digest=f"d{bits}"))
        entries = dict(cache.entries)
    with EvalCache(path) as again:
        assert again.entries == entries


@given(st.text(), st.text(), st.one_of(st.none(), st.text()), st.text(),
       st.one_of(st.none(), st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)))
def test_put_writes_the_json_of_its_record(tmp_path_factory, benchmark, key, digest, detail,
                                           seconds):
    """A record's line is ``json.dumps`` of its six fields, whatever they hold."""
    meas = Measurement("run_error" if seconds is None else "ok", time=seconds, digest=digest,
                       detail=detail)
    path = tmp_path_factory.mktemp("put") / "cache.jsonl"
    with EvalCache(path) as cache:
        cache.put(benchmark, key, meas)
    rec = {"benchmark": benchmark, "key": key, "digest": digest, "status": meas.status,
           "time": seconds, "detail": detail}
    assert path.read_text() == json.dumps(rec) + "\n"


def test_cache_marks_what_it_answers(tmp_path):
    path = tmp_path / "cache.jsonl"
    config = Configuration("O3", (True, False))
    fresh = [Measurement("ok", time=1.5, digest="d1"), Measurement("compile_error")]

    def answers(cache):
        return [cache.get("a", "d1"), cache.get("a", "cfg:x"),
                cache.get_failure("a", toggle(config, 0))]

    with EvalCache(path) as cache:
        cache.put("a", "d1", fresh[0])
        cache.put("a", "cfg:x", fresh[0])
        cache.put("a", _config_key(toggle(config, 0)), fresh[1])
        answered = answers(cache)
    with EvalCache(path) as again:
        answered += answers(again)
    assert all(m is not None and m.cached for m in answered)
    assert not any(m.cached for m in fresh)


def test_synthetic_hit_is_the_cached_measurement():
    space, model = pair_dependency_model()
    ev = SyntheticEvaluator(space, model)
    config = space.all_enabled()
    assert not ev.evaluate(config, "cover").cached
    hit = ev.evaluate(config, "cover")
    assert hit.cached and hit is ev.cache.get("cover", _config_key(config, ev._fingerprints["cover"]))


def test_fingerprint_does_not_see_what_the_model_has_scored():
    """The synthetic fingerprint is an md5 of the model's ``repr``, so the
    terms ``time_for`` keeps must stay out of it: else an evaluator built
    after a first score would miss the whole cache of one built before."""
    space, model = pair_dependency_model()
    before = SyntheticEvaluator(space, model)._fingerprints
    model.time_for(space, space.all_enabled(), "cover")
    assert SyntheticEvaluator(space, model)._fingerprints == before


@pytest.mark.parametrize("backend", ["synthetic", "external"])
def test_pair_is_checked_before_the_cache_answers(demo_dir, tmp_path, backend):
    """Both backends share the key rule: an unknown benchmark or a
    configuration outside the space raises, even one the cache holds."""
    if backend == "synthetic":
        space, model = pair_dependency_model()
        ev = SyntheticEvaluator(space, model)
    else:
        space = load_flag_space(demo_dir / "stub_space.json")
        suite = load_suite(demo_dir / "stub_suite.json")
        ev = CommandEvaluator(space, suite, workdir=demo_dir, build_dir=tmp_path)
    bench = next(iter(ev._fingerprints))
    stock = space.stock_config()
    for config in (Configuration("O9", stock.assignment), Configuration(stock.base_level)):
        ev.cache.put(bench, _config_key(config, ev._fingerprints[bench]), Measurement("ok", time=1.0))
        with pytest.raises(ValueError):
            ev.evaluate(config, bench)
    with pytest.raises(ValueError, match="unknown benchmark"):
        ev.evaluate(stock, "nope")
    assert (ev.used, ev.cache_hits) == (0, 0)


def test_two_record_history_still_loads(tmp_path):
    """A cache written when a fresh external outcome took two records, one
    under its digest and one under its configuration, answers as before."""
    outcome = {"benchmark": "a", "digest_algo": "md5", "digest": "d1", "status": "ok",
               "time": 1.5, "detail": "", "base_level": "O3"}
    records = [
        {**outcome, "key": "d1", "config_bitstring": "10"},
        {**outcome, "key": "cfg:fp:O3:10", "config_bitstring": "10"},
        {**outcome, "key": "cfg:fp:O3:00", "config_bitstring": "00"},  # the same binary
    ]
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    with EvalCache(path) as cache:
        assert list(cache.entries) == [("a", "d1")]
        assert cache.aliases == {("a", "cfg:fp:O3:10"): "d1", ("a", "cfg:fp:O3:00"): "d1"}
        for key in ("d1", "cfg:fp:O3:10", "cfg:fp:O3:00"):
            assert cache.get("a", key).time == 1.5


def test_cache_record_bytes(tmp_path):
    """A record is six fields, keyed by configuration and fingerprint: one
    line each from a synthetic and an external put, pinned byte for byte,
    under a benchmark name that needs JSON escaping."""
    space = space_of(2)
    model = model_of({'a"b': {"base": 100.0, "deltas": {"f0": -2.5}}})
    path = tmp_path / "cache.jsonl"
    with EvalCache(path) as cache:
        SyntheticEvaluator(space, model, cache).evaluate(Configuration("O3", (True, False)), 'a"b')
        cache.put('a"b', "cfg:fp:O3:10",
                  Measurement("run_error", digest="d1", detail="exit status 1"))
    assert path.read_text().splitlines(keepends=True) == [
        '{"benchmark": "a\\"b", "key": "cfg:deafdde97f1856b84a5d5332350d6548:O3:10", '
        '"digest": null, "status": "ok", "time": 97.5, "detail": ""}\n',
        '{"benchmark": "a\\"b", "key": "cfg:fp:O3:10", "digest": "d1", "status": "run_error", '
        '"time": null, "detail": "exit status 1"}\n',
    ]


def test_external_record_with_dropped_fields_still_answers(demo_dir, tmp_path):
    """A record written when records also carried ``digest_algo``,
    ``config_bitstring`` and ``base_level`` answers its configuration and
    its digest, so nothing is compiled or run again."""
    space = load_flag_space(demo_dir / "stub_space.json")
    suite = load_suite(demo_dir / "stub_suite.json")
    stock = space.stock_config()
    ev = CommandEvaluator(space, suite, workdir=demo_dir, build_dir=tmp_path / "b")
    record = {"benchmark": "alpha", "key": _config_key(stock, ev._fingerprints["alpha"]),
              "digest_algo": "md5", "digest": "d1", "status": "ok", "time": 9.0, "detail": "",
              "config_bitstring": stock.bitstring, "base_level": stock.base_level}
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with EvalCache(path) as cache:
        ev.cache = cache
        hit = ev.evaluate(stock, "alpha")
        assert cache.get("alpha", "d1") is hit
    assert (hit.time, hit.cached, ev.compilations, ev.executions) == (9.0, True, 0, 0)


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
        cache.put("a", "d1", Measurement("ok", time=1.5, digest="d1"))
        cache.put("a", _config_key(toggle(config, 0)), Measurement("compile_error"))
        kept = dict(cache.entries)
        prefix = path.read_bytes()
        cache.put("b", _config_key(config), Measurement("timeout", digest="d2"))
    last = path.read_bytes()[len(prefix):]
    for cut in range(1, len(last)):
        path.write_bytes(prefix + last[:cut])
        with EvalCache(path) as cache:
            assert cache.entries == kept
            assert path.read_bytes() == prefix
            cache.put("b", "d3", Measurement("ok", time=2.0, digest="d3"))
            entries = dict(cache.entries)
        with EvalCache(path) as again:
            assert again.entries == entries


def test_corrupt_middle_line_still_raises(tmp_path):
    path = tmp_path / "cache.jsonl"
    with EvalCache(path) as cache:
        cache.put("a", "d1", Measurement("ok", time=1.0, digest="d1"))
    record = path.read_bytes()
    path.write_bytes(b"{ torn\n" + record)
    with pytest.raises(ValueError):
        EvalCache(path)
    # the failed open released its lock
    with pytest.raises(ValueError):
        EvalCache(path)
    # complete JSON lines that are not records: a record's benchmark and key
    # are strings, its detail a string or absent, its digest a string or null
    ok_true = b'{"benchmark": "a", "key": "k", "digest": "k", "status": "ok", "time": true}\n'
    good = {"benchmark": "a", "key": "k", "digest": "d", "status": "run_error", "detail": "x"}
    wrong = [{**good, name: value} for name, value in (
        ("detail", 5), ("detail", ["x"]), ("benchmark", 5), ("key", None), ("key", 7),
        ("digest", 5), ("digest", False))]
    wrong.append({name: value for name, value in good.items() if name != "digest"})
    for line in (b'{"benchmark": "cover"}\n', b"5\n", b'"x"\n', b"[1]\n", ok_true,
                 *(json.dumps(rec).encode() + b"\n" for rec in wrong)):
        path.write_bytes(record + line + record)
        with pytest.raises(ValueError, match=r"cache\.jsonl: line 2 is not a cache record"):
            EvalCache(path)


def _long_cache(path: Path) -> list[bytes]:
    """Write a cache of four times ``_LOAD_BATCH`` bytes or more, with blank
    lines, aliases, failures, and details holding a ``{`` near the start;
    its lines."""
    with EvalCache(path) as cache:
        i = 0
        while path.stat().st_size < 4 * evaluator._LOAD_BATCH:
            key = f"cfg:fp:O3:{i:012b}"
            if i % 7 == 0:  # a { in a detail sends the first batch down the slow path
                cache.put(f"b{i % 3}", key, Measurement(
                    "run_error", digest=f"d{i}", detail="exit {status} 1" if i < 99 else "exit 1"))
            elif i % 11 == 0:
                cache.put(f"b{i % 3}", key, Measurement("compile_error", detail="ld: no"))
            else:  # one binary for every 40 keys
                cache.put(f"b{i % 3}", key, Measurement("ok", time=1 + i / 7, digest=f"d{i % 40}"))
            i += 1
    lines = path.read_bytes().splitlines(keepends=True)
    for i in range(len(lines) - 1, 0, -37):
        lines.insert(i, b"\n" if i % 2 else b"  \n")
    path.write_bytes(b"".join(lines))
    return lines


@pytest.mark.parametrize("batch", [1, 500, None])
def test_batched_load_reads_what_line_by_line_reads(tmp_path, monkeypatch, batch):
    """Lines are parsed in batches of ``_LOAD_BATCH`` bytes (here also one
    line and 500 bytes), and the cache still holds what a line-by-line read
    gives; a torn tail is still cut."""
    path = tmp_path / "cache.jsonl"
    _long_cache(path)
    if batch is not None:
        monkeypatch.setattr(evaluator, "_LOAD_BATCH", batch)
    want = cache_read_line_by_line(path)
    assert len(want.entries) > 500 and len(want.aliases) > 500
    with EvalCache(path) as cache:
        assert (cache.entries, cache.aliases) == (want.entries, want.aliases)
    whole = path.read_bytes()
    path.write_bytes(whole + b'{"benchmark": "b0", "key": "cfg:fp:O3:1", "dig')
    with EvalCache(path) as cache:
        assert (cache.entries, cache.aliases) == (want.entries, want.aliases)
    assert path.read_bytes() == whole


_RECORD = b'"benchmark": "b0", "key": "k", "digest": null, "status": "ok", "time": 1.0'


@pytest.mark.parametrize("bad", [
    b"{ torn\n",
    b"{ torn }\n",
    b'{"benchmark": "b0"}\n',
    b"[1]\n",
    # lines that are not one object each, though joined they parse: two
    # objects on one line; an object over two lines, then a line of two values
    b"{" + _RECORD + b'}, {"x": 1}\n',
    b"{" + _RECORD + b', "x": {"y": 1}\n"detail": ""}\n1, {' + _RECORD + b"}\n",
])
def test_bad_record_past_the_first_batch_names_its_line(tmp_path, bad):
    path = tmp_path / "cache.jsonl"
    lines = _long_cache(path)
    number = len(lines) - 3  # in the last batch
    assert sum(map(len, lines[:number])) > 3 * evaluator._LOAD_BATCH
    lines[number - 1] = bad
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError, match=rf"cache\.jsonl: line {number} is not a cache record"):
        EvalCache(path)


def _counting(calls: list, function):
    """``function``, appending the arguments of each call to ``calls``."""
    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return function(*args, **kwargs)
    return counted


# Every line of these caches is this long, so that a batch is 256 lines.
_WIDTH = 256


def _padded(text: bytes) -> bytes:
    """A record's text as one line of ``_WIDTH`` bytes, blanks after its ``{``."""
    assert text[:1] == b"{" and len(text) < _WIDTH
    return b"{" + b" " * (_WIDTH - 1 - len(text)) + text[1:] + b"\n"


def _good_record(kind: str, i: int, keys: int) -> bytes:
    """One line of ``kind``, each kind one that the cache accepts."""
    if kind == "blank":
        return b" " * (_WIDTH - 1) + b"\n"
    rec = {"benchmark": f"b{i % 3}", "key": f"cfg:fp:O3:{i % keys:012b}", "digest": None,
           "status": "ok", "time": 1 + i / 7, "detail": ""}
    if kind == "alias":  # one binary for every 5 keys
        rec.update(digest=f"d{i % 5}", status="run_error", time=None, detail="exit 1")
    elif kind == "failure":
        rec.update(status="compile_error", time=None, detail="ld: no")
    elif kind == "legacy":
        rec.update(digest_algo="md5", config_bitstring=f"{i:012b}", base_level="O3")
    elif kind == "int_time":
        rec["time"] = i + 1
    elif kind == "no_detail":
        del rec["detail"]
    elif kind == "null_detail":
        rec["detail"] = None
    elif kind == "brace_detail":
        rec.update(status="run_error", time=None, detail="exit {1}")
    elif kind == "reordered":
        rec = dict(reversed(rec.items()))
    return _padded(json.dumps(rec).encode())


_GOOD_KINDS = ["plain", "alias", "failure", "legacy", "int_time", "no_detail", "null_detail",
               "brace_detail", "reordered", "blank"]

_RECORD_TEXT = b'{"benchmark": "b0", "key": "k", "digest": null, "status": "ok", "time": 1.5}'

# What a bad record changes in _RECORD_TEXT, and the reason the per-field
# read gives for it
_BAD_RECORDS = {
    "nan_time": (b'"time": 1.5', b'"time": NaN', "ValueError: time must be a number, got nan"),
    "infinite_time": (b'"time": 1.5', b'"time": Infinity',
                      "ValueError: time must be a number, got inf"),
    "overflowing_time": (b'"time": 1.5', b'"time": 1e400',
                         "ValueError: time must be a number, got inf"),
    "listed_status": (b'"status": "ok"', b'"status": ["ok"]', "ValueError: bad status ['ok']"),
    "numbered_status": (b'"status": "ok"', b'"status": 5', "ValueError: bad status 5"),
    "numbered_benchmark": (b'"benchmark": "b0"', b'"benchmark": 5',
                           "ValueError: benchmark must be a string, got 5"),
}


@pytest.mark.parametrize("where", [0, 128, 255])  # the first, a middle and the last line
@pytest.mark.parametrize("bad", [None, *_BAD_RECORDS])
@settings(max_examples=5, deadline=None)
@given(kinds=st.lists(st.sampled_from(_GOOD_KINDS), min_size=1, max_size=12),
       keys=st.integers(1, 800), batch=st.integers(0, 2), torn=st.booleans())
def test_well_formed_records_load_as_the_per_field_read_loads_them(where, bad, kinds, keys,
                                                                   batch, torn):
    """Three 64 KB batches that mix every kind of line the cache accepts, a
    key repeated with another time too. The cache holds what a line-by-line
    read gives, having built one measurement per record, and cuts a torn
    tail; a bad record at the first, a middle or the last line of a batch
    raises the per-field read's error, naming its line."""
    lines = [_good_record(kinds[i % len(kinds)], i, keys) for i in range(3 * 256)]
    number = 256 * batch + where + 1
    if bad is not None:
        good, wrong, reason = _BAD_RECORDS[bad]
        lines[number - 1] = _padded(_RECORD_TEXT.replace(good, wrong))
    whole = b"".join(lines)
    written = whole + (b'{"benchmark": "b0", "key": "k", "dig' if torn else b"")
    built = []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "cache.jsonl"
        path.write_bytes(written)
        if bad is not None:
            message = f"cache.jsonl: line {number} is not a cache record ({reason})"
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                EvalCache(path)
            assert path.read_bytes() == written  # a torn tail is cut only past every bad line
            return
        want = cache_read_line_by_line(path)
        mp.setattr(evaluator, "Measurement", _counting(built, Measurement))
        with EvalCache(path) as cache:
            assert (cache.entries, cache.aliases) == (want.entries, want.aliases)
        assert len(built) == sum(1 for line in lines if line.strip())
        assert path.read_bytes() == whole


@pytest.mark.parametrize("brace", [False, True], ids=["brace_free", "brace_every_200"])
def test_well_formed_cache_loads_one_json_parse_per_batch(tmp_path, monkeypatch, brace):
    """A well-formed cache of 5,000 records builds one measurement per record
    from one ``json.loads`` per batch, and the records of one benchmark, or
    of one status, hold one string object. So they do when every 200th
    record is a compile error whose detail holds a ``{``, which makes each
    batch parse line by line."""
    path = tmp_path / "cache.jsonl"
    with EvalCache(path) as cache:
        for i in range(5000):
            status = evaluator.STATUSES[i % 4]
            meas = (Measurement(status, time=1 + i / 7) if status == "ok" else
                    Measurement(status, digest=None if status == "compile_error" else f"d{i % 40}"))
            if brace and i % 200 == 0:
                meas = Measurement("compile_error", detail="x.c:3: error: expected '{' before 'int'")
            cache.put(f"b{i % 3}", f"cfg:fp:O3:{i:013b}", meas)
    with open(path, "rb") as fh:
        batches = sum(1 for _ in iter(lambda: fh.readlines(evaluator._LOAD_BATCH), []))
    assert batches > 1
    built, parsed = [], []
    monkeypatch.setattr(evaluator, "Measurement", _counting(built, Measurement))
    monkeypatch.setattr(evaluator.json, "loads", _counting(parsed, json.loads))
    with EvalCache(path) as cache:
        pass
    assert (len(built), len(parsed)) == (5000, 5000 if brace else batches)
    names = [b for b, _ in [*cache.entries, *cache.aliases]]
    assert len(set(names)) == len(set(map(id, names))) == 3
    statuses = [m.status for m in cache.entries.values()]
    assert len(set(statuses)) == len(set(map(id, statuses))) == 4


def test_locked_cache_is_neither_read_nor_truncated(tmp_path):
    path = tmp_path / "cache.jsonl"
    with EvalCache(path) as cache:
        cache.put("a", "d1", Measurement("ok", time=1.0, digest="d1"))
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


# A run command whose background child outlives it by about a second
FORKS = "sh -c 'sleep 1.5 & echo $! > child.pid; sleep 2'"


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"  # a zombie has been killed


def _gone_soon(pid: int) -> bool:
    """Whether ``pid`` stops running within 0.3 s: a killed process group
    goes in milliseconds, a surviving ``sleep 1.5`` runs on for a second."""
    deadline = time.monotonic() + 0.3
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    return not _running(pid)


def test_timeout_kills_background_children(tmp_path):
    """A timed-out command takes its whole process group with it: a
    background child must not keep running into the next timed run."""
    space = space_of(0)
    bench = Benchmark(
        name="forks",
        compile_command="python3 -c \"import sys; open(sys.argv[1], 'w').write('x')\" {out}",
        run_command=FORKS,
        timeout=0.5,
    )
    ev = CommandEvaluator(space, [bench], workdir=tmp_path, build_dir=tmp_path / "build")
    assert ev.evaluate(space.stock_config(), "forks").status == "timeout"
    assert _gone_soon(int((tmp_path / "child.pid").read_text()))


def test_interrupt_kills_background_children(tmp_path, monkeypatch):
    """A Ctrl-C during the wait kills the whole process group too: the
    command runs in a session of its own, so the terminal's SIGINT does not
    reach it."""
    pid_file = tmp_path / "child.pid"

    def interrupted(self, input=None, timeout=None):
        deadline = time.monotonic() + 5.0
        while not (pid_file.exists() and pid_file.read_text().strip()):
            assert time.monotonic() < deadline, "the command never started its child"
            time.sleep(0.01)
        raise KeyboardInterrupt

    monkeypatch.setattr(subprocess.Popen, "communicate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _run_command(shlex.split(FORKS), 10.0, tmp_path, set())
    assert _gone_soon(int(pid_file.read_text()))


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
        Benchmark(name="x", compile_command="c", run_command="r", timeout=math.nan)
    with pytest.raises(ValueError):
        Benchmark(name="x", compile_command="c", run_command="r", repeat_runs=0)
    # poll() takes a command's timeout as a C int of milliseconds
    Benchmark(name="x", compile_command="c", run_command="r", timeout=2147483.647)
    for timeout in (2147483.648, math.inf):
        with pytest.raises(ValueError, match="timeout must be > 0 and <= 2147483.647 s"):
            Benchmark(name="x", compile_command="c", run_command="r", timeout=timeout)


@pytest.mark.parametrize("field, template, problem", [
    ("compile_command", "", "is empty"),
    ("run_command", " \t", "is empty"),
    ("compile_command", "cc {flags} -o {out}\0", "holds a NUL"),
    ("run_command", "{bin} '\0'", "holds a NUL"),
])
def test_template_without_argv_or_with_nul_is_rejected_by_name(field, template, problem):
    templates = {"compile_command": "cc {flags} -o {out}", "run_command": "{bin}", field: template}
    with pytest.raises(ValueError, match=f"^benchmark x: {field} {problem}$"):
        Benchmark(name="x", **templates)


@pytest.mark.parametrize("template, error", [
    ("cc '{flags} -o {out}", "ValueError('No closing quotation')"),
    ("cc {flags} -o {oops}", "KeyError('oops')"),
    ("cc {flags} -o {}", "IndexError('Replacement index 0 out of range for positional args tuple')"),
    ("cc {flags} -o {out.x}", "AttributeError(\"'PosixPath' object has no attribute 'x'\")"),
    ("cc {flags} -o {out:d}",
     "TypeError('unsupported format string passed to PosixPath.__format__')"),
    ("cc {flags} -o {", "ValueError(\"Single '{' encountered in format string\")"),
])
def test_unfillable_template_is_rejected_with_its_error(template, error):
    with pytest.raises(ValueError) as raised:
        Benchmark("x", template, "{bin}")
    assert str(raised.value) == f"benchmark x: unfillable template: {error}"


# the pieces of a template word: quotes, backslash escapes and doubled braces
_WORD_PIECES = ["a", "-o", "=", "'q r'", '"s t"', "\\ ", "\\'", '"\\""', "{{", "}}", "'{flags}'"]


@st.composite
def _templates(draw, placeholders: list[str]) -> str:
    """A command template: a program, then words that are a file in the
    toolchain directory, a placeholder alone, or pieces (placeholders
    among them) run together; now and then it ends in a stray quote, brace
    or backslash."""
    program = draw(st.sampled_from(["./tool", "'./tool'", "sh", "no-such-tool", *placeholders]))
    pieces = st.sampled_from(_WORD_PIECES + placeholders)
    words = draw(st.lists(st.one_of(
        st.sampled_from(["data.txt", "sub/data.txt", "'data.txt'", *placeholders]),
        st.lists(pieces, min_size=1, max_size=4).map("".join),
    ), max_size=6))
    stray = draw(st.sampled_from(["", "", "", "", "'", '"', "{", "}", "\\"]))
    return " ".join([program, *words]) + stray


@pytest.fixture(scope="module")
def toolchain_dir(tmp_path_factory):
    """A workdir holding an executable ``tool`` and two data files."""
    root = tmp_path_factory.mktemp("toolchain")
    (root / "tool").write_text("#!/bin/sh\n")
    (root / "tool").chmod(0o755)
    (root / "sub").mkdir()
    (root / "data.txt").write_text("data\n")
    (root / "sub" / "data.txt").write_text("sub data\n")
    return root


@settings(max_examples=150, deadline=None)
@given(compile_command=_templates(["{flags}", "{out}"]), run_command=_templates(["{bin}"]),
       mask=st.integers(0, 7))
def test_split_once_templates_fill_and_fingerprint_as_split_at_each_use(
    toolchain_dir, compile_command, run_command, mask
):
    """A benchmark splits its templates once; the argv each compile and run
    fills, and the toolchain fingerprint, equal those of splitting the
    template string at every use, and an unfillable template is refused
    with the error that splitting and filling it raises."""
    try:
        fill_reference(compile_command, ["-O3"], out=Path("x"))
        fill_reference(run_command, bin=Path("x"))
    except (KeyError, IndexError, ValueError, AttributeError, TypeError) as exc:
        with pytest.raises(ValueError) as raised:
            Benchmark("b", compile_command, run_command)
        assert str(raised.value) == f"benchmark b: unfillable template: {exc!r}"
        return
    bench = Benchmark("b", compile_command, run_command)
    space = space_of(3, levels=("O2", "O3"))
    config = config_of("O2", mask, 3)
    ev = CommandEvaluator(space, [bench], workdir=toolchain_dir,
                          build_dir=toolchain_dir / "build")
    fingerprint = toolchain_fingerprint_reference(bench, toolchain_dir)
    assert ev._fingerprints["b"] == _toolchain_fingerprint(bench, toolchain_dir, {}) == fingerprint
    out = toolchain_dir / "build" / "b.bin"
    argvs = []

    def run_command_stub(argv, timeout, cwd, running):
        argvs.append(argv)
        out.write_bytes(b"binary")
        return subprocess.CompletedProcess(argv, 0, "1.0\n", "")

    with mock.patch.object(evaluator, "_run_command", run_command_stub):
        assert ev._compile(config, bench, out) is None
        assert ev._run(bench, out).ok
    assert argvs == [fill_reference(compile_command, render_args(space, config), out=out),
                     fill_reference(run_command, bin=out)]
