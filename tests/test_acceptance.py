"""Acceptance suite: one test per release criterion, tolerances pinned.

Every criterion is property- or oracle-based against the bundled demo
models or seeded random instances; nothing here depends on real hardware.
The conftest hook prints one PASS/FAIL line per criterion.
"""

import json
import random
from statistics import fmean

from flagtuner.analysis import (
    FeatureVector,
    floored_best_so_far,
    make_folds,
    predict_1nn,
    run_xval,
)
from flagtuner.cli import main
from flagtuner.evaluator import CommandEvaluator, EvalCache, SyntheticEvaluator, load_suite
from flagtuner.flagspace import Configuration, load_flag_space
from flagtuner.oracle import per_benchmark_optimum
from flagtuner.search import (
    best_known,
    rip,
    run_ce,
    run_ric,
    run_suite_ce,
)
from flagtuner.artifacts import read_checkpoint, write_trace
from helpers import model_of, random_additive_instance, random_suite_instance, space_of


def test_criterion_01_rip_arithmetic():
    assert abs(rip(110.0, 100.0) - 10.0) <= 1e-12
    assert abs(rip(100.0, 100.0) - 0.0) <= 1e-12
    assert abs(rip(150.0, 200.0) - (-25.0)) <= 1e-12


def test_criterion_02_ce_equals_oracle_on_additive_models():
    rng = random.Random(20260810)
    for _ in range(100):
        space, model = random_additive_instance(rng, max_flags=12)
        ev = SyntheticEvaluator(space, model)
        config, _ = run_ce(space, "bench", ev)
        optimum, _ = per_benchmark_optimum(
            space, model, "bench", base_level=space.default_baseline
        )
        assert model.time_for(space, config, "bench") == optimum


def test_criterion_03_dependency_pathology(demo_dir, pair_space, pair_model):
    ev = SyntheticEvaluator(pair_space, pair_model)
    stock = pair_space.stock_config()
    ref = pair_model.time_for(pair_space, stock, "cover")

    ce_config, _ = run_ce(pair_space, "cover", SyntheticEvaluator(pair_space, pair_model))
    assert pair_model.time_for(pair_space, ce_config, "cover") / ref == 1.0

    optimum, _ = per_benchmark_optimum(pair_space, pair_model, "cover")
    assert optimum / ref == 0.9

    seed = json.loads((demo_dir / "pair_campaign.json").read_text())["seed"]
    trace = run_ric(pair_space, ["cover"], ev, 200, seed)
    assert best_known([trace], "cover").time / ref == 0.9


def test_criterion_04_suite_ce_threshold_guarantee():
    rng = random.Random(90210)
    for _ in range(50):
        space, model, benches = random_suite_instance(rng, max_benches=6, max_flags=10)
        for t in (0.0, 2.0, 5.0):
            ev = SyntheticEvaluator(space, model)
            config, trace = run_suite_ce(space, benches, ev, t)
            refs = {b: m.time for b, m in trace.records[0].measurements.items()}
            for b in benches:
                assert model.time_for(space, config, b) <= (1 + t / 100.0) * refs[b]
            aggs = [1.0]
            for rec in trace.records:
                if rec.annotation.startswith("accepted"):
                    aggs.append(fmean(rec.measurements[b].time / refs[b] for b in benches))
            assert all(a <= 1.0 for a in aggs)
            assert all(b < a for a, b in zip(aggs, aggs[1:]))


def test_criterion_05_threshold_tradeoff_shape(tradeoff_space, tradeoff_model):
    benches = tradeoff_model.benchmark_names
    stock = tradeoff_space.stock_config()
    refs = {b: tradeoff_model.time_for(tradeoff_space, stock, b) for b in benches}
    worse_counts = []
    aggregates = []
    for t in range(0, 7):
        ev = SyntheticEvaluator(tradeoff_space, tradeoff_model)
        config, _ = run_suite_ce(
            tradeoff_space, benches, ev, float(t)
        )
        times = {b: tradeoff_model.time_for(tradeoff_space, config, b) for b in benches}
        worse_counts.append(sum(1 for b in benches if times[b] > refs[b]))
        aggregates.append(fmean(times[b] / refs[b] for b in benches))
    assert worse_counts == sorted(worse_counts)
    assert all(b <= a for a, b in zip(aggregates, aggregates[1:]))


def test_criterion_06_cache_contract(demo_dir, tmp_path):
    space = load_flag_space(demo_dir / "stub_space.json")
    suite = load_suite(demo_dir / "stub_suite.json")
    cache_path = tmp_path / "cache.jsonl"

    cold_cache = EvalCache(cache_path)
    cold = CommandEvaluator(
        space, suite, cold_cache, workdir=demo_dir, build_dir=tmp_path / "b1"
    )
    cold_trace = run_ric(space, [b.name for b in suite], cold, 8, 11)
    cold_cache.close()

    ok_keys = {k for k, m in cold_cache.entries.items() if m.ok}
    failure_keys = set(cold_cache.entries) - ok_keys
    assert cold.executions == len(ok_keys) + len(failure_keys)

    warm_cache = EvalCache(cache_path)
    warm = CommandEvaluator(
        space, suite, warm_cache, workdir=demo_dir, build_dir=tmp_path / "b2"
    )
    warm_trace = run_ric(space, [b.name for b in suite], warm, 8, 11)
    warm_cache.close()
    assert warm.executions == 0
    assert all(
        m.cached for rec in warm_trace.records for m in rec.measurements.values()
    )

    cold_file, warm_file = tmp_path / "cold.trace", tmp_path / "warm.trace"
    write_trace(cold_file, cold_trace)
    write_trace(warm_file, warm_trace)
    assert cold_file.read_bytes() == warm_file.read_bytes()


def test_criterion_07_floored_series(pair_space, pair_model):
    ev = SyntheticEvaluator(pair_space, pair_model)
    trace = run_ric(pair_space, ["cover"], ev, 200, 42)
    refs = {"cover": trace.records[0].measurements["cover"].time}
    series = floored_best_so_far(trace, refs)
    values = [v for _, v in series]
    assert all(0.0 < v <= 1.0 for v in values)
    assert all(b <= a for a, b in zip(values, values[1:]))
    first_joint = next(
        rec.seq for rec in trace.records if rec.config.assignment == (False, False)
    )
    for seq, value in series:
        assert value == (1.0 if seq < first_joint else 0.9)


def test_criterion_08_cross_validation_hygiene():
    generic = [f"g{i:02d}" for i in range(80)]
    programs = generic + ["uniq"]
    space = space_of(2, stock=(False, False))
    recipes = {p: {"base": 100.0, "deltas": {"f0": -2.0}} for p in generic}
    recipes["uniq"] = {"base": 100.0, "deltas": {"f1": -10.0}}
    model = model_of(recipes)

    plan = make_folds(programs, 10, 20260810)
    sizes = sorted(plan.fold_size(i) for i in range(10))
    assert sizes == [8] * 9 + [9]
    folds = [set(plan.test_set(i)) for i in range(10)]
    assert set().union(*folds) == set(programs)
    assert sum(len(f) for f in folds) == len(programs)

    ev = SyntheticEvaluator(space, model)
    results = run_xval(space, programs, ev, 0.0, "mean", plan)
    for res in results:
        held_out = set(plan.test_set(res.fold))
        seen = {b for rec in res.trace.records for b in rec.measurements}
        assert not (seen & held_out)
    uniq_fold = plan.assignment["uniq"]
    assert results[uniq_fold].test_ratios["uniq"] == 1.0


def test_criterion_09_nearest_neighbor_contract():
    rng = random.Random(7)
    training = []
    for i in range(5):
        fv = FeatureVector(f"p{i}", tuple(rng.uniform(0, 50) for _ in range(6)))
        best = Configuration("O3", (bool(i % 2), True))
        table = [(best, 1.0 + i), (Configuration("O3", (True, False)), 5.0 + i)]
        training.append((fv, table))

    query = FeatureVector("q", training[3][0].values)
    assert predict_1nn(query, training) == training[3][1][0][0]

    off_query = FeatureVector("q", tuple(v + 0.5 for v in training[2][0].values))
    base_prediction = predict_1nn(off_query, training)
    for a, b in [(3.0, 0.0), (0.25, -40.0), (-2.0, 11.0)]:
        scaled = [
            (FeatureVector(fv.name, tuple(a * v + b for v in fv.values)), table)
            for fv, table in training
        ]
        scaled_query = FeatureVector("q", tuple(a * v + b for v in off_query.values))
        assert predict_1nn(scaled_query, scaled) == base_prediction


def test_criterion_10_determinism_and_resume(demo_dir, tmp_path):
    config = str(demo_dir / "tradeoff_campaign.json")

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["suite-ce", "--config", config, "--out", str(out_a)]) == 0
    assert main(["suite-ce", "--config", config, "--out", str(out_b)]) == 0
    for artifact in ("suite_ce.trace", "suite_ce.config.json", "checkpoint.json"):
        assert (out_a / artifact).read_bytes() == (out_b / artifact).read_bytes()

    out_c = tmp_path / "c"
    assert main(["suite-ce", "--config", config, "--out", str(out_c), "--max-evals", "9"]) == 3
    assert read_checkpoint(out_c / "checkpoint.json")["status"] == "interrupted"
    assert (
        main(
            [
                "suite-ce",
                "--config",
                config,
                "--out",
                str(out_c),
                "--resume",
                str(out_c / "checkpoint.json"),
            ]
        )
        == 0
    )
    for artifact in ("suite_ce.trace", "suite_ce.config.json"):
        assert (out_c / artifact).read_bytes() == (out_a / artifact).read_bytes()
