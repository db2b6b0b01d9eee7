import csv
import json
import tempfile
from pathlib import Path
from statistics import fmean, geometric_mean

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from flagtuner import oracle
from flagtuner.cli import main
from flagtuner.flagspace import Configuration
from flagtuner.oracle import (
    enumerate_configurations,
    per_benchmark_optimum,
    suite_constrained_optimum,
)
from flagtuner.search import AGGREGATES
from helpers import config_of, model_of, pair_dependency_model, quantised_models, space_of


def scalar_per_benchmark(space, model, bench, base_level=None):
    """The oracle's loop before blocks: ``time_for`` in enumeration order."""
    best = None
    for config in enumerate_configurations(space, base_level):
        t = model.time_for(space, config, bench)
        if best is None or t < best[0]:
            best = (t, config)
    return best


def scalar_constrained(space, model, benches, threshold_t, reference, base_level, aggregate_fn):
    """The constrained loop before blocks: a configuration stops at its first
    benchmark over the bound."""
    bound = {b: (1.0 + threshold_t / 100.0) * reference[b] for b in benches}
    best = None
    for config in enumerate_configurations(space, base_level):
        times = {}
        for b in benches:
            t = model.time_for(space, config, b)
            if t > bound[b]:
                break
            times[b] = t
        else:
            agg = aggregate_fn([times[b] / reference[b] for b in benches])
            if best is None or agg < best[0]:
                best = (agg, config)
    return best


def test_zero_flags_picks_best_base_level():
    space = space_of(0, levels=("O1", "O2", "O3"))
    model = model_of(
        {"b": {"base": 100.0, "multipliers": {"O1": 1.3, "O2": 0.9, "O3": 1.0}}}
    )
    t, config = per_benchmark_optimum(space, model, "b")
    assert t == 90.0
    assert config == Configuration("O2", ())


def _scored_levels(monkeypatch) -> list[str]:
    """The levels ``_Scorer.prefix`` is called for, listed as the calls come."""
    levels = []
    prefix = oracle._Scorer.prefix

    def counted(self, level):
        levels.append(level)
        return prefix(self, level)

    monkeypatch.setattr(oracle._Scorer, "prefix", counted)
    return levels


@pytest.mark.parametrize("multipliers, best_level", [
    ({"O1": 1.0, "O2": 1.0, "O3": 1.0}, "O1"),
    # the bases 1 + 2^-52, 1 - 2^-53 and 1 all round to 2.0 once f0 adds 1.0
    ({"O1": 1.0 + 2**-52, "O2": 1.0 - 2**-53, "O3": 1.0}, "O1"),
    # 1 + 2^-51 plus 1.0 is 2 + 2^-51, one ulp above the others' 2.0
    ({"O1": 1.0 + 2**-51, "O2": 1.0, "O3": 1.0}, "O2"),
])
def test_levels_a_few_ulp_apart_are_all_scored(monkeypatch, multipliers, best_level):
    space = space_of(1, levels=("O1", "O2", "O3"))
    # f0 off adds 5.0 through a pair that names it twice
    model = model_of({"b": {"base": 1.0, "multipliers": multipliers, "deltas": {"f0": 1.0},
                            "pairs": [("f0", "f0", False, False, 5.0)]}})
    scored = _scored_levels(monkeypatch)
    got = per_benchmark_optimum(space, model, "b")
    assert scored == ["O1", "O2", "O3"]
    assert got == scalar_per_benchmark(space, model, "b") == (2.0, config_of(best_level, 1, 1))


def test_only_the_cheapest_level_is_scored_when_the_others_are_far_slower(monkeypatch):
    space = space_of(6, levels=("O1", "O2", "O3"))
    model = model_of({"b": {"multipliers": {"O1": 1.3, "O2": 1.05, "O3": 1.0},
                            "deltas": {f"f{i}": (-1.0) ** i * (i + 1) for i in range(6)},
                            "pairs": [("f0", "f5", False, True, -3.0)]}})
    scored = _scored_levels(monkeypatch)
    got = per_benchmark_optimum(space, model, "b")
    assert scored == ["O3"]
    assert got == scalar_per_benchmark(space, model, "b")


def test_pair_dependency_optimum():
    space, model = pair_dependency_model()
    t, config = per_benchmark_optimum(space, model, "cover")
    assert t == 90.0
    assert config.assignment == (False, False)


def test_enumeration_is_exhaustive_and_unique():
    space = space_of(3, levels=("O1", "O3"))
    configs = list(enumerate_configurations(space))
    assert len(configs) == 2 * 8
    assert len(set(configs)) == len(configs)
    restricted = list(enumerate_configurations(space, "O3"))
    assert len(restricted) == 8
    assert all(c.base_level == "O3" for c in restricted)


def test_flag_cap_enforced():
    space, model = pair_dependency_model()
    with pytest.raises(ValueError):
        per_benchmark_optimum(space, model, "cover", max_flags=1)


def test_constrained_optimum_respects_threshold(tradeoff_space, tradeoff_model):
    benches = tradeoff_model.benchmark_names
    stock = tradeoff_space.stock_config()
    refs = {b: tradeoff_model.time_for(tradeoff_space, stock, b) for b in benches}
    for t in (0.0, 1.0, 5.0):
        agg, config = suite_constrained_optimum(
            tradeoff_space, tradeoff_model, benches, t, refs, base_level="O3"
        )
        for b in benches:
            time = tradeoff_model.time_for(tradeoff_space, config, b)
            assert time <= (1 + t / 100.0) * refs[b]
        assert agg <= 1.0


def test_constrained_equals_unconstrained_when_threshold_is_huge(
    tradeoff_space, tradeoff_model
):
    benches = tradeoff_model.benchmark_names
    stock = tradeoff_space.stock_config()
    refs = {b: tradeoff_model.time_for(tradeoff_space, stock, b) for b in benches}
    from statistics import fmean

    agg, _ = suite_constrained_optimum(
        tradeoff_space, tradeoff_model, benches, 1000.0, refs, base_level="O3"
    )
    best = None
    for config in enumerate_configurations(tradeoff_space, "O3"):
        a = fmean(
            tradeoff_model.time_for(tradeoff_space, config, b) / refs[b] for b in benches
        )
        best = a if best is None else min(best, a)
    assert agg == best


@given(
    quantised_models(),
    st.sampled_from([1, 2, 3, 8, oracle.BLOCK_SIZE, None]),
    st.sampled_from([None, "O1", "O3"]),
    st.sampled_from([fmean, AGGREGATES["geomean"], geometric_mean]),
    st.sampled_from([0.0, 1.0, 5.0]),
)
def test_blocked_oracle_equals_scalar_brute_force(instance, block, base_level, agg_fn, t):
    space, model = instance
    if base_level not in (None, *space.base_levels):
        base_level = None
    benches = model.benchmark_names
    stock = space.stock_config()
    refs = {b: model.time_for(space, stock, b) for b in benches}
    with pytest.MonkeyPatch.context() as mp:
        # None: a block above 2^n, so the whole space is one block
        mp.setattr(oracle, "BLOCK_SIZE", 2 ** len(space) + 1 if block is None else block)
        for b in benches:
            got = per_benchmark_optimum(space, model, b, base_level=base_level)
            assert got == scalar_per_benchmark(space, model, b, base_level)
        got = suite_constrained_optimum(
            space, model, benches, t, refs, base_level=base_level, aggregate_fn=agg_fn
        )
    assert got == scalar_constrained(space, model, benches, t, refs, base_level, agg_fn)


@given(
    quantised_models(),
    st.randoms(use_true_random=False),
    st.sampled_from([1, 2, 4, oracle.BLOCK_SIZE]),
    st.sampled_from([fmean, AGGREGATES["geomean"], geometric_mean]),
)
def test_constrained_oracle_keeps_random_survivors(instance, rng, block, agg_fn):
    """Each benchmark's reference is the time of a random configuration, so
    each benchmark passes a random subset of a block on to the next."""
    space, model = instance
    n = len(space)
    benches = model.benchmark_names
    refs = {
        b: model.time_for(space, config_of(rng.choice(space.base_levels), rng.randrange(2**n), n), b)
        for b in benches
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "BLOCK_SIZE", block)
        got = suite_constrained_optimum(space, model, benches, 0.0, refs, aggregate_fn=agg_fn)
    assert got == scalar_constrained(space, model, benches, 0.0, refs, None, agg_fn)


@pytest.mark.parametrize("block", [1, 2, 3, oracle.BLOCK_SIZE])
def test_ties_go_to_the_first_configuration_enumerated(monkeypatch, block):
    # f1 alone, f2 alone and both together all give 99.0; so does every level
    space = space_of(3, levels=("O1", "O2", "O3"))
    recipe = {"deltas": {"f0": 1.0, "f1": -1.0, "f2": -1.0},
              "pairs": [("f1", "f2", True, True, 1.0)]}
    model = model_of({"a": recipe, "b": recipe})
    monkeypatch.setattr(oracle, "BLOCK_SIZE", block)
    assert per_benchmark_optimum(space, model, "a") == (99.0, config_of("O1", 0b010, 3))
    assert per_benchmark_optimum(space, model, "a", base_level="O3") == (
        99.0, config_of("O3", 0b010, 3))
    refs = {"a": 101.0, "b": 101.0}
    for agg_fn in (fmean, geometric_mean):
        agg, config = suite_constrained_optimum(space, model, ["a", "b"], 0.0, refs,
                                                aggregate_fn=agg_fn)
        assert config == config_of("O1", 0b010, 3)
        assert agg == agg_fn([99.0 / 101.0] * 2)


def test_candidates_keep_an_exact_tie_the_stand_in_ranks_higher():
    # fsum gives both rows the same sum, 1 + 2^-52; numpy's sum of the
    # second loses its two 2^-53 terms, so its stand-in mean is one ulp lower
    first, second = [1.0 + 2**-52, 2**-1074, 2**-1074], [1.0, 2**-53, 2**-53]
    assert fmean(first) == fmean(second)
    ratios = np.array([first, second]).T  # one column per configuration
    assert ratios[:, 0].sum() > ratios[:, 1].sum()
    assert oracle._candidates(ratios, np.array([True, True]), fmean).tolist() == [0, 1]


@pytest.mark.parametrize("agg_fn, kept", [
    (fmean, [0]), (AGGREGATES["geomean"], [1]), (geometric_mean, [0, 1]),
])
def test_candidates_rank_by_the_aggregate_they_stand_in_for(agg_fn, kept):
    # (1, 1) has the lower mean, (0.5, 1.6) the lower geometric mean; an
    # aggregate without a stand-in keeps every feasible column
    ratios = np.array([[1.0, 0.5], [1.0, 1.6]])
    assert oracle._candidates(ratios, np.array([True, True]), agg_fn).tolist() == kept


def test_candidates_keep_every_feasible_column_unless_ratios_are_positive():
    # numpy sums the first column to 0 and fsum to 1: once terms cancel, no
    # relative bound holds, so the second column, the true minimum, must stay
    ratios = np.array([[1e16, 0.1, 5.0], [1.0, 0.1, 5.0], [-1e16, 0.1, 5.0]])
    feasible = np.array([True, True, False])
    assert oracle._candidates(ratios, feasible, fmean).tolist() == [0, 1]


def test_infeasible_threshold_returns_none(monkeypatch):
    space = space_of(4, levels=("O1", "O3"))
    model = model_of({"b": {"multipliers": {"O1": 2.0}, "deltas": {"f0": -5.0, "f3": 5.0}}})
    refs = {"b": model.time_for(space, space.stock_config(), "b")}
    monkeypatch.setattr(oracle, "BLOCK_SIZE", 4)
    assert suite_constrained_optimum(space, model, ["b"], 5.0, refs, base_level="O1") is None
    assert suite_constrained_optimum(space, model, ["b"], 5.0, refs) is not None


def _every_flag_helps(n):
    return space_of(n), model_of({"b": {"deltas": {f"f{i}": -1.0 for i in range(n)}}})


def test_default_cap_admits_17_flags_and_rejects_23():
    space, model = _every_flag_helps(17)
    assert per_benchmark_optimum(space, model, "b") == (83.0, space.all_enabled())
    assert suite_constrained_optimum(space, model, ["b"], 0.0, {"b": 84.0}) == (
        83.0 / 84.0, space.all_enabled())
    space, model = _every_flag_helps(23)
    with pytest.raises(ValueError, match="cap of 22"):
        per_benchmark_optimum(space, model, "b")
    with pytest.raises(ValueError, match="cap of 22"):
        suite_constrained_optimum(space, model, ["b"], 0.0, {"b": 77.0})


def run_oracle(root: Path, space, model, *, threshold_t=0.0, aggregate="mean"):
    """The ``oracle`` command's per-benchmark rows and constrained optimum on
    ``space`` and ``model``, written out as JSON under ``root``. A pair that
    names a flag outside the space never matches, so it is left out: the
    command rejects it."""
    names = {f.name for f in space.flags}
    (root / "space.json").write_text(json.dumps({
        "base_levels": list(space.base_levels),
        "default_baseline": space.default_baseline,
        "flags": [{"name": f.name, "on": f.on, "off": f.off, "stock": f.stock}
                  for f in space.flags],
    }))
    (root / "model.json").write_text(json.dumps({"benchmarks": {
        b: {"base_time": bm.base_time, "level_multiplier": bm.level_multiplier,
            "flag_delta": bm.flag_delta,
            "pair_delta": [{"flags": [p.flag_a, p.flag_b], "when": [p.state_a, p.state_b],
                            "delta": p.delta}
                           for p in bm.pair_delta if {p.flag_a, p.flag_b} <= names]}
        for b, bm in model.benchmarks.items()
    }}))
    (root / "campaign.json").write_text(json.dumps({
        "flag_space": "space.json", "mode": "synthetic", "model": "model.json",
        "cache": "cache.jsonl", "seed": 1, "n_configs": 1,
        "threshold_t": threshold_t, "aggregate": aggregate,
    }))
    out = root / "out"
    assert main(["oracle", "--config", str(root / "campaign.json"), "--out", str(out)]) == 0
    with open(out / "oracle_per_benchmark.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return rows, json.loads((out / "oracle_constrained.json").read_text(encoding="utf-8"))


# a wins at O1, a non-stock level; b at O3, the stock level, is far slower
# than at O1 and O2, so its optimum does not score O3, though the constrained
# optimum does; O1 and O2 tie for b, and every level ties for c
_LEVELS_WIN_TIE_AND_PRUNE = (
    space_of(3, levels=("O1", "O2", "O3")),
    model_of({
        "a": {"multipliers": {"O1": 0.9}, "deltas": {"f0": -1.0, "f2": 2.0},
              "pairs": [("f0", "f1", False, True, -3.0)]},
        "b": {"multipliers": {"O3": 1.3}, "deltas": {"f1": 1.5, "f2": -0.5}},
        "c": {"deltas": {"f0": 0.5, "f1": -1.0, "f2": -1.0},
              "pairs": [("f1", "f2", True, True, 1.0)]},
    }),
)


@given(
    quantised_models(),
    st.sampled_from([1, 2, 3, None]),
    st.sampled_from(["mean", "geomean"]),
    st.sampled_from([0.0, 1.0, 5.0]),
)
@example(_LEVELS_WIN_TIE_AND_PRUNE, 1, "mean", 0.0)
@example(_LEVELS_WIN_TIE_AND_PRUNE, 2, "geomean", 5.0)
@example(_LEVELS_WIN_TIE_AND_PRUNE, 3, "mean", 1.0)
@example(_LEVELS_WIN_TIE_AND_PRUNE, None, "geomean", 0.0)
def test_oracle_command_equals_scalar_brute_force(instance, block, aggregate, t):
    space, model = instance
    benches = model.benchmark_names
    stock = space.stock_config()
    refs = {b: model.time_for(space, stock, b) for b in benches}
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as root:
        # None: a block above 2^n, so the whole space is one block
        mp.setattr(oracle, "BLOCK_SIZE", 2 ** len(space) + 1 if block is None else block)
        rows, constrained = run_oracle(Path(root), space, model, threshold_t=t,
                                       aggregate=aggregate)
    expected = []
    for b in benches:
        best, config = scalar_per_benchmark(space, model, b)
        expected.append([b, repr(best), repr(refs[b]), repr(best / refs[b]),
                         config.base_level, config.bitstring])
    assert rows == expected
    agg, config = scalar_constrained(space, model, benches, t, refs, stock.base_level,
                                     AGGREGATES[aggregate])
    assert (constrained["aggregate_ratio"], constrained["base_level"],
            constrained["bitstring"]) == (agg, config.base_level, config.bitstring)


def test_oracle_scores_each_block_once(tmp_path, monkeypatch):
    """16 flags, 10 benchmarks, and O1 and O2 far slower than O3, the stock
    level: the constrained pass scores each benchmark's 2^16 / 2^13 blocks at
    O3 once, and the per-benchmark optima take their O3 minima from it."""
    n = 16
    space = space_of(n, levels=("O1", "O2", "O3"))
    model = model_of({
        f"b{k}": {"multipliers": {"O1": 1.3, "O2": 1.1},
                  "deltas": {f"f{i}": ((i * 7 + k) % 11 - 5) / 10 for i in range(n)},
                  "pairs": [(f"f{k}", f"f{k + 3}", False, True, -0.7)]}
        for k in range(10)
    })
    calls = []
    times = oracle._Scorer.times

    def counted(self, prefix, start):
        calls.append(start)
        return times(self, prefix, start)

    monkeypatch.setattr(oracle._Scorer, "times", counted)
    scored = _scored_levels(monkeypatch)
    rows, _ = run_oracle(tmp_path, space, model, threshold_t=1.0)
    assert len(calls) == 10 * 2**n // oracle.BLOCK_SIZE == 80
    assert scored == ["O3"] * 10
    assert [row[4] for row in rows] == ["O3"] * 10
