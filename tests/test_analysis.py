import random

import pytest
from hypothesis import given, strategies as st

from flagtuner.analysis import (
    FeatureVector,
    compare_to_baseline,
    floored_best_so_far,
    load_features,
    make_folds,
    performance_table,
    predict_1nn,
    run_xval,
)
from flagtuner.evaluator import Measurement, SyntheticEvaluator
from flagtuner.flagspace import Configuration
from flagtuner.oracle import per_benchmark_optimum
from flagtuner.search import (
    CampaignTrace,
    run_ce,
    run_ric,
)
from helpers import PairByPair, model_of, pair_dependency_model, space_of


def _trace(rows):
    """rows: list of dicts bench -> time (None means a failed measurement)."""
    trace = CampaignTrace()
    for row in rows:
        trace.append(
            Configuration("O3", ()),
            {
                b: Measurement("ok", time=t) if t is not None else Measurement("run_error")
                for b, t in row.items()
            },
            "sample",
        )
    return trace


# ---------------------------------------------------------------------------
# floored best-so-far
# ---------------------------------------------------------------------------

def test_floored_mean_example():
    trace = _trace([{"a": 120.0, "b": 80.0}])
    series = floored_best_so_far(trace, {"a": 100.0, "b": 100.0})
    assert series.points == ((1, 0.9),)


def test_reference_only_trace_is_constant_one():
    trace = _trace([{"a": 100.0}, {"a": 100.0}])
    series = floored_best_so_far(trace, {"a": 100.0})
    assert [v for _, v in series.points] == [1.0, 1.0]


def test_unmeasured_benchmark_contributes_one():
    trace = _trace([{"a": 50.0}])
    series = floored_best_so_far(trace, {"a": 100.0, "b": 100.0})
    assert series.points == ((1, 0.75),)


def test_failed_measurements_do_not_count():
    trace = _trace([{"a": None}, {"a": 90.0}])
    series = floored_best_so_far(trace, {"a": 100.0})
    assert [v for _, v in series.points] == [1.0, 0.9]


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        floored_best_so_far(CampaignTrace(), {"a": 1.0})


def test_pair_ric_series_drops_at_first_joint_disable():
    space, model = pair_dependency_model()
    trace = run_ric(space, ["cover"], SyntheticEvaluator(space, model), 200, 42)
    refs = {"cover": trace.records[0].measurements["cover"].time}
    series = floored_best_so_far(trace, refs)
    first_joint = next(
        r.seq for r in trace.records if r.config.assignment == (False, False)
    )
    for seq, value in series.points:
        assert value == (1.0 if seq < first_joint else 0.9)


@given(
    st.lists(
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.one_of(st.none(), st.floats(1.0, 500.0)),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_series_is_non_increasing_within_unit_interval(rows):
    trace = _trace(rows)
    series = floored_best_so_far(trace, {"a": 100.0, "b": 100.0, "c": 100.0})
    values = [v for _, v in series.points]
    assert all(0.0 < v <= 1.0 for v in values)
    assert all(b <= a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# compare_to_baseline
# ---------------------------------------------------------------------------

def test_compare_single_benchmark():
    trace = _trace([{"a": 87.0}])
    table = compare_to_baseline([("ce", trace)], {"a": 100.0})
    assert table.rows[0].ratio == 0.87
    assert table.rows[0].method == "ce"
    assert table.mean_ratio == 0.87


def test_compare_does_not_floor_rows():
    trace = _trace([{"a": 130.0}])
    table = compare_to_baseline([("ric", trace)], {"a": 100.0})
    assert table.rows[0].ratio == 1.3
    assert table.mean_ratio == 1.3
    assert table.mean_ratio_floored == 1.0


def test_compare_winner_matches_brute_force():
    space = space_of(2, levels=("O1", "O2", "O3"))
    model = model_of(
        {
            "add": {"base": 100.0, "deltas": {"f0": 10.0}},
            "cover": {
                "base": 110.0,
                "deltas": {"f0": -5.0, "f1": -5.0},
                "pairs": [("f0", "f1", False, False, -20.0)],
            },
        }
    )
    benches = ["add", "cover"]
    stock = space.stock_config()
    refs = {b: model.time_for(space, stock, b) for b in benches}

    _, ce_add = run_ce(space, "add", SyntheticEvaluator(space, model))
    _, ce_cover = run_ce(space, "cover", SyntheticEvaluator(space, model))
    ric = run_ric(space, benches, SyntheticEvaluator(space, model), 60, 42)
    table = compare_to_baseline(
        [("ce-add", ce_add), ("ce-cover", ce_cover), ("ric", ric)], refs
    )
    by_bench = {r.benchmark: r for r in table.rows}
    for b in benches:
        optimum, _ = per_benchmark_optimum(space, model, b, base_level="O3")
        assert by_bench[b].best_time == optimum
    # greedy elimination cannot reach the joint-disable optimum, sampling can
    assert by_bench["cover"].method == "ric"
    assert by_bench["add"].method == "ce-add"


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------

def test_ten_programs_ten_singleton_folds():
    programs = [f"p{i}" for i in range(10)]
    plan = make_folds(programs, 10, 1)
    assert sorted(plan.fold_size(i) for i in range(10)) == [1] * 10


def test_81_programs_balance():
    programs = [f"p{i}" for i in range(81)]
    plan = make_folds(programs, 10, 3)
    sizes = sorted(plan.fold_size(i) for i in range(10))
    assert sizes == [8] * 9 + [9]


def test_folds_deterministic_per_seed():
    programs = [f"p{i}" for i in range(17)]
    assert make_folds(programs, 4, 9) == make_folds(programs, 4, 9)
    assert make_folds(programs, 4, 9) != make_folds(programs, 4, 10)


def test_folds_reject_bad_k():
    with pytest.raises(ValueError):
        make_folds(["a", "b"], 1, 0)
    with pytest.raises(ValueError):
        make_folds(["a", "b"], 3, 0)


@given(st.integers(2, 6), st.integers(6, 40), st.integers(0, 10_000))
def test_folds_partition_properties(k, n, seed):
    programs = [f"p{i}" for i in range(n)]
    plan = make_folds(programs, k, seed)
    assert set(plan.assignment) == set(programs)
    sizes = [plan.fold_size(i) for i in range(k)]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1


def test_fold_plan_validates_itself():
    from flagtuner.analysis import FoldPlan

    with pytest.raises(ValueError):
        FoldPlan(2, {"a": 0, "b": 0, "c": 0})  # one fold empty
    with pytest.raises(ValueError):
        FoldPlan(2, {"a": 0, "b": 5})  # index out of range
    with pytest.raises(ValueError):
        FoldPlan(3, {"a": 0, "b": 0, "c": 1, "d": 1, "e": 1, "f": 2})  # imbalance > 1


def test_fold_assignment_is_roughly_uniform():
    programs = [f"p{i}" for i in range(6)]
    k = 3
    counts = [0] * k
    trials = 3000
    for seed in range(trials):
        counts[make_folds(programs, k, seed).assignment["p0"]] += 1
    for c in counts:
        assert 0.28 <= c / trials <= 0.39


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

def test_xval_identical_benchmarks_are_symmetric():
    benches = [f"b{i}" for i in range(6)]
    space = space_of(1)
    model = model_of({b: {"base": 100.0, "deltas": {"f0": 5.0}} for b in benches})
    ev = SyntheticEvaluator(space, model)
    plan = make_folds(benches, 3, 0)
    results = run_xval(space, benches, ev, 0.0, "mean", plan)
    configs = {r.config for r in results}
    assert configs == {Configuration("O3", (False,))}
    for r in results:
        train_ratio = model.time_for(space, r.config, "b0") / 105.0
        assert all(v == train_ratio for v in r.test_ratios.values())


def test_xval_covers_each_program_exactly_once():
    benches = [f"b{i}" for i in range(7)]
    space = space_of(1)
    model = model_of({b: {"base": 100.0} for b in benches})
    ev = SyntheticEvaluator(space, model)
    plan = make_folds(benches, 3, 5)
    results = run_xval(space, benches, ev, 0.0, "mean", plan)
    tested = [p for r in results for p in r.test_ratios]
    assert sorted(tested) == sorted(benches)


def test_xval_training_never_sees_held_out_programs():
    benches = [f"b{i}" for i in range(8)]
    space = space_of(2)
    model = model_of({b: {"base": 100.0, "deltas": {"f0": 2.0}} for b in benches})
    ev = SyntheticEvaluator(space, model)
    plan = make_folds(benches, 4, 2)
    results = run_xval(space, benches, ev, 0.0, "mean", plan)
    for r in results:
        held_out = set(plan.test_set(r.fold))
        seen = {b for rec in r.trace.records for b in rec.measurements}
        assert not (seen & held_out)


def test_xval_reports_fold_campaign_errors():
    benches = [f"b{i}" for i in range(4)]
    space = space_of(1)
    model = model_of({b: {"base": 100.0} for b in benches})
    inner = SyntheticEvaluator(space, model)

    class FlakyAfterReference(PairByPair):
        # behaves until the reference pass (4 calls) is done, then breaks b0
        def __init__(self):
            self.calls = 0

        def evaluate(self, config, bench):
            self.calls += 1
            if self.calls > len(benches) and bench == "b0":
                from flagtuner.evaluator import Measurement

                return Measurement("run_error")
            return inner.evaluate(config, bench)

    plan = make_folds(benches, 2, 0)
    results = run_xval(space, benches, FlakyAfterReference(), 0.0, "mean", plan)
    b0_fold = plan.assignment["b0"]
    for r in results:
        if r.fold == b0_fold:
            assert r.error is None  # b0 held out: training never touches it
        else:
            assert r.error is not None and "b0" in r.error


def test_xval_unique_requirement_program_tests_at_one():
    generic = [f"g{i}" for i in range(9)]
    benches = generic + ["uniq"]
    space = space_of(2, stock=(False, False))
    recipes = {b: {"base": 100.0, "deltas": {"f0": -2.0}} for b in generic}
    recipes["uniq"] = {"base": 100.0, "deltas": {"f1": -10.0}}
    model = model_of(recipes)
    ev = SyntheticEvaluator(space, model)
    plan = make_folds(benches, 5, 4)
    results = run_xval(space, benches, ev, 0.0, "mean", plan)
    uniq_fold = plan.assignment["uniq"]
    for r in results:
        if r.fold == uniq_fold:
            assert r.test_ratios["uniq"] == 1.0
            assert r.config.assignment[1] is False
        else:
            # every training fold containing uniq enables its private flag
            assert r.config.assignment[1] is True


# ---------------------------------------------------------------------------
# 1NN prediction
# ---------------------------------------------------------------------------

def _table(*pairs):
    return [(Configuration("O3", bits), t) for bits, t in pairs]


def test_identical_vector_returns_neighbor_best():
    fv = FeatureVector("train", (1.0, 2.0, 3.0))
    table = _table(((True, True), 10.0), ((False, True), 7.0), ((True, False), 9.0))
    query = FeatureVector("query", (1.0, 2.0, 3.0))
    assert predict_1nn(query, [(fv, table)]) == Configuration("O3", (False, True))


def test_nearer_program_wins():
    near = FeatureVector("near", (1.0, 0.0))
    far = FeatureVector("far", (4.0, 0.0))
    t_near = _table(((True,), 1.0))
    t_far = _table(((False,), 1.0))
    query = FeatureVector("q", (0.0, 0.0))
    got = predict_1nn(query, [(far, t_far), (near, t_near)])
    assert got == Configuration("O3", (True,))


def test_distance_ties_go_to_earliest_training_program():
    a = FeatureVector("a", (1.0,))
    b = FeatureVector("b", (1.0,))
    got = predict_1nn(
        FeatureVector("q", (1.0,)),
        [(a, _table(((True,), 1.0))), (b, _table(((False,), 1.0)))],
    )
    assert got == Configuration("O3", (True,))


def test_prediction_invariant_under_affine_rescaling():
    rng = random.Random(0)
    training = []
    for i in range(6):
        values = tuple(rng.uniform(0, 100) for _ in range(4))
        training.append(
            (FeatureVector(f"p{i}", values), _table(((True, bool(i % 2)), float(i + 1))))
        )
    query = FeatureVector("q", tuple(rng.uniform(0, 100) for _ in range(4)))
    base = predict_1nn(query, training)
    for a, b in [(2.0, 0.0), (0.5, 100.0), (-3.0, -7.0), (10.0, 1e4)]:
        scaled_training = [
            (FeatureVector(fv.name, tuple(a * v + b for v in fv.values)), tb)
            for fv, tb in training
        ]
        scaled_query = FeatureVector("q", tuple(a * v + b for v in query.values))
        assert predict_1nn(scaled_query, scaled_training) == base


def test_training_source_changes_prediction():
    # tables gathered from an elimination campaign versus random sampling can
    # disagree on the best configuration for the same program
    space, model = pair_dependency_model()
    _, ce_trace = run_ce(space, "cover", SyntheticEvaluator(space, model))
    ric_trace = run_ric(space, ["cover"], SyntheticEvaluator(space, model), 200, 42)
    ce_table = performance_table(ce_trace, "cover")
    ric_table = performance_table(ric_trace, "cover")
    fv = FeatureVector("cover", (1.0, 2.0))
    query = FeatureVector("q", (1.0, 2.0))
    from_ce = predict_1nn(query, [(fv, ce_table)])
    from_ric = predict_1nn(query, [(fv, ric_table)])
    assert from_ce.assignment == (True, True)
    assert from_ric.assignment == (False, False)
    assert from_ce != from_ric


def test_dimension_mismatch_rejected():
    fv = FeatureVector("a", (1.0, 2.0))
    with pytest.raises(ValueError):
        predict_1nn(FeatureVector("q", (1.0,)), [(fv, _table(((True,), 1.0)))])


def test_empty_neighbor_table_rejected():
    fv = FeatureVector("a", (1.0,))
    with pytest.raises(ValueError):
        predict_1nn(FeatureVector("q", (1.0,)), [(fv, [])])


def test_empty_training_set_rejected():
    with pytest.raises(ValueError):
        predict_1nn(FeatureVector("q", (1.0,)), [])


# ---------------------------------------------------------------------------
# feature files
# ---------------------------------------------------------------------------

def test_load_features_demo(demo_dir):
    vectors = load_features(demo_dir / "features.csv")
    assert [fv.name for fv in vectors][:2] == ["crc32", "matmult"]
    assert all(len(fv.values) == 4 for fv in vectors)


def test_load_features_rejects_ragged_rows(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("program,x,y\na,1,2\nb,3\n")
    with pytest.raises(ValueError):
        load_features(path)


def test_load_features_requires_header(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("a,1,2\n")
    with pytest.raises(ValueError):
        load_features(path)
