import hashlib
import math
import random
from statistics import fmean

import pytest
from hypothesis import given, strategies as st

from flagtuner.evaluator import (
    BenchmarkModel,
    CampaignInterrupted,
    Measurement,
    PairDelta,
    SyntheticEvaluator,
    SyntheticModel,
)
from flagtuner.flagspace import Configuration, Flag, FlagSpace, _check_member, toggle
from flagtuner.oracle import per_benchmark_optimum, suite_constrained_optimum
from flagtuner.search import (
    AGGREGATES,
    CampaignError,
    CampaignTrace,
    CEState,
    _eliminate,
    best_known,
    best_known_record,
    rip,
    run_ce,
    run_ric,
    run_suite_ce,
    sample_ric,
)
from helpers import (
    PairByPair,
    model_of,
    pair_dependency_model,
    random_additive_instance,
    random_suite_instance,
    space_of,
)


def trace_fingerprint(trace: CampaignTrace):
    """Trace identity ignoring cache markers and digests."""
    return [
        (
            rec.seq,
            rec.config,
            tuple((b, m.status, m.time) for b, m in rec.measurements.items()),
            rec.annotation,
        )
        for rec in trace.records
    ]


# ---------------------------------------------------------------------------
# rip
# ---------------------------------------------------------------------------

def test_rip_examples():
    assert rip(110.0, 100.0) == 10.0
    assert rip(100.0, 100.0) == 0.0
    assert rip(150.0, 200.0) == -25.0


def test_rip_rejects_nonpositive_base():
    with pytest.raises(ValueError):
        rip(1.0, 0.0)


# ---------------------------------------------------------------------------
# sample_ric
# ---------------------------------------------------------------------------

def test_sample_empty_space():
    space = space_of(0, levels=("O1", "O2", "O3"))
    config = sample_ric(space, random.Random(1))
    assert config.assignment == ()
    assert config.base_level in space.base_levels


def test_sample_deterministic_per_seed():
    space = space_of(5, levels=("O1", "O2", "O3"))
    assert sample_ric(space, random.Random(7)) == sample_ric(space, random.Random(7))
    rng_a, rng_b = random.Random(3), random.Random(3)
    seq_a = [sample_ric(space, rng_a) for _ in range(20)]
    seq_b = [sample_ric(space, rng_b) for _ in range(20)]
    assert seq_a == seq_b


def test_sample_frequencies_within_bounds():
    space = space_of(4, levels=("O1", "O2", "O3"))
    rng = random.Random(123)
    n = 10_000
    level_counts = {lv: 0 for lv in space.base_levels}
    flag_counts = [0] * len(space)
    for _ in range(n):
        config = sample_ric(space, rng)
        level_counts[config.base_level] += 1
        for i, on in enumerate(config.assignment):
            flag_counts[i] += on
    for lv, count in level_counts.items():
        assert 0.30 <= count / n <= 0.37, (lv, count / n)
    for i, count in enumerate(flag_counts):
        assert 0.47 <= count / n <= 0.53, (i, count / n)


# ---------------------------------------------------------------------------
# run_ric
# ---------------------------------------------------------------------------

def test_ric_trace_has_baseline_plus_samples():
    space, model = pair_dependency_model()
    trace = run_ric(space, ["cover"], SyntheticEvaluator(space, model), 1000, 5)
    assert len(trace) == 1001
    assert trace.records[0].annotation == "baseline"
    assert all(r.annotation == "sample" for r in trace.records[1:])
    assert [r.seq for r in trace.records] == list(range(1, 1002))


def test_ric_empty_space_samples_base_levels():
    space = space_of(0, levels=("O1", "O2", "O3"))
    model = model_of({"b": {"base": 50.0}})
    trace = run_ric(space, ["b"], SyntheticEvaluator(space, model), 1, 0)
    assert len(trace) == 2
    assert trace.records[1].config.base_level in space.base_levels


def test_ric_finds_pair_dependency_optimum():
    space, model = pair_dependency_model()
    trace = run_ric(space, ["cover"], SyntheticEvaluator(space, model), 200, 42)
    assert best_known([trace], "cover").time == 90.0


def test_ric_reproducible():
    space, model = pair_dependency_model()
    a = run_ric(space, ["cover"], SyntheticEvaluator(space, model), 50, 9)
    b = run_ric(space, ["cover"], SyntheticEvaluator(space, model), 50, 9)
    assert trace_fingerprint(a) == trace_fingerprint(b)


def test_ric_rejects_bad_count():
    space, model = pair_dependency_model()
    with pytest.raises(ValueError):
        run_ric(space, ["cover"], SyntheticEvaluator(space, model), 0, 1)


# ---------------------------------------------------------------------------
# run_ce
# ---------------------------------------------------------------------------

def test_ce_additive_example():
    space = space_of(3)
    model = model_of(
        {"b": {"base": 100.0, "deltas": {"f0": 10.0, "f1": -5.0, "f2": 0.0}}}
    )
    ev = SyntheticEvaluator(space, model)
    config, trace = run_ce(space, "b", ev)
    assert config.assignment == (False, True, True)
    assert model.time_for(space, config, "b") == 95.0

    base = trace.records[0].measurements["b"]
    assert base.time == 105.0
    probe_rips = {
        rec.annotation.split()[-1]: rip(rec.measurements["b"].time, base.time)
        for rec in trace.records[1:4]
    }
    assert probe_rips["f0"] == pytest.approx(-100.0 * 10 / 105, abs=1e-12)
    assert probe_rips["f1"] == pytest.approx(100.0 * 5 / 105, abs=1e-12)
    assert probe_rips["f2"] == 0.0
    accepted = [r for r in trace.records if r.annotation.startswith("accepted")]
    assert [r.annotation for r in accepted] == ["accepted toggle f0"]


def test_ce_empty_space_returns_after_one_evaluation():
    space = space_of(0)
    model = model_of({"b": {"base": 42.0}})
    ev = SyntheticEvaluator(space, model)
    config, trace = run_ce(space, "b", ev)
    assert len(trace) == 1
    assert ev.executions == 1
    assert config == space.all_enabled()


def test_ce_misses_pair_dependency():
    space, model = pair_dependency_model()
    config, trace = run_ce(space, "cover", SyntheticEvaluator(space, model))
    assert config == space.all_enabled()
    assert model.time_for(space, config, "cover") == 100.0
    # brute force knows better
    best_time, _ = per_benchmark_optimum(space, model, "cover", base_level="O3")
    assert best_time == 90.0


def test_ce_fails_fast_on_broken_baseline():
    space = space_of(1)

    class Broken(PairByPair):
        def evaluate(self, config, bench):
            return Measurement("compile_error")

    with pytest.raises(CampaignError):
        run_ce(space, "b", Broken())


def test_ce_survives_failing_probes():
    space = space_of(2)
    model = model_of({"b": {"base": 100.0, "deltas": {"f0": 10.0}}})
    inner = SyntheticEvaluator(space, model)

    class FlakyProbe(PairByPair):
        # the probe disabling f1 always breaks; search must carry on
        def evaluate(self, config, bench):
            if not config.assignment[1]:
                return Measurement("run_error")
            return inner.evaluate(config, bench)

    config, trace = run_ce(space, "b", FlakyProbe())
    assert config.assignment == (False, True)
    statuses = [r.measurements["b"].status for r in trace.records]
    assert "run_error" in statuses


@pytest.mark.parametrize("seed", range(20))
def test_ce_equals_oracle_on_additive_models(seed):
    rng = random.Random(1000 + seed)
    space, model = random_additive_instance(rng)
    n = len(space)
    ev = SyntheticEvaluator(space, model)
    config, trace = run_ce(space, "bench", ev)
    best_time, best_config = per_benchmark_optimum(
        space, model, "bench", base_level=space.default_baseline
    )
    assert model.time_for(space, config, "bench") == best_time
    assert config == best_config
    assert len(trace) <= 1 + n + n * (n + 1)


@pytest.mark.parametrize("seed", range(10))
def test_ce_terminates_within_bound_on_interacting_models(seed):
    rng = random.Random(400 + seed)
    space, model, benches = random_suite_instance(rng, max_benches=1, max_flags=12)
    n = len(space)
    config, trace = run_ce(space, benches[0], SyntheticEvaluator(space, model))
    assert len(trace) <= 1 + n + n * (n + 1)
    assert len(config.assignment) == n and config.base_level in space.base_levels


def test_ce_accepted_times_strictly_decrease():
    rng = random.Random(77)
    space, model = random_additive_instance(rng, max_flags=8)
    _, trace = run_ce(space, "bench", SyntheticEvaluator(space, model))
    times = [trace.records[0].measurements["bench"].time]
    times += [
        r.measurements["bench"].time
        for r in trace.records
        if r.annotation.startswith("accepted")
    ]
    assert all(b < a for a, b in zip(times, times[1:]))


# ---------------------------------------------------------------------------
# run_suite_ce
# ---------------------------------------------------------------------------

def two_bench_instance():
    """One flag; toggling it off makes A 10% faster and B 6% slower."""
    space = space_of(1)
    model = model_of(
        {
            "A": {"base": 90.0, "deltas": {"f0": 10.0}},
            "B": {"base": 106.0, "deltas": {"f0": -6.0}},
        }
    )
    return space, model


def test_suite_ce_threshold_rejects_candidate():
    space, model = two_bench_instance()
    ev = SyntheticEvaluator(space, model)
    config, trace = run_suite_ce(
        space, ["A", "B"], ev, 5.0
    )
    assert config == space.stock_config()
    skipped = [r for r in trace.records if "skipped" in r.annotation]
    assert len(skipped) == 1
    assert list(skipped[0].measurements) == ["A", "B"]  # aborted at B


def test_suite_ce_threshold_accepts_candidate():
    space, model = two_bench_instance()
    ev = SyntheticEvaluator(space, model)
    config, trace = run_suite_ce(
        space, ["A", "B"], ev, 8.0
    )
    assert config.assignment == (False,)
    final = next(r for r in trace.records if r.annotation.startswith("accepted"))
    agg = fmean([final.measurements["A"].time / 100.0, final.measurements["B"].time / 100.0])
    assert agg == pytest.approx(0.98, abs=1e-12)


def test_suite_ce_early_skip_stops_at_first_violation():
    space = space_of(1, stock=(False,))
    model = model_of(
        {
            "first": {"base": 100.0, "deltas": {"f0": 50.0}},
            "second": {"base": 100.0, "deltas": {"f0": -20.0}},
        }
    )
    ev = SyntheticEvaluator(space, model)
    config, trace = run_suite_ce(
        space, ["first", "second"], ev, 5.0
    )
    assert config == space.stock_config()
    probe = trace.records[1]
    assert list(probe.measurements) == ["first"]
    assert probe.annotation == "probe f0 (skipped at first)"


def test_suite_ce_skipped_flag_unlocks_in_later_round(tradeoff_space, tradeoff_model):
    # at t=1 the unroll flag violates the bound against the stock baseline but
    # passes once ipa-pta has been accepted, so it must stay in the search space
    ev = SyntheticEvaluator(tradeoff_space, tradeoff_model)
    config, trace = run_suite_ce(
        tradeoff_space,
        tradeoff_model.benchmark_names,
        ev,
        1.0,
    )
    assert config.bitstring == "0101"
    annotations = [r.annotation for r in trace.records]
    assert "probe unroll-all-loops (skipped at crc32)" in annotations
    assert "accepted toggle unroll-all-loops" in annotations


def test_suite_ce_zero_threshold_never_worse_anywhere():
    space, model = two_bench_instance()
    ev = SyntheticEvaluator(space, model)
    config, trace = run_suite_ce(space, ["A", "B"], ev, 0.0)
    refs = {b: m.time for b, m in trace.records[0].measurements.items()}
    for b in refs:
        assert model.time_for(space, config, b) <= refs[b]


def test_suite_ce_baseline_failure_is_fatal():
    space = space_of(1)

    class Broken(PairByPair):
        def evaluate(self, config, bench):
            if bench == "B":
                return Measurement("timeout")
            return Measurement("ok", time=1.0)

    with pytest.raises(CampaignError):
        run_suite_ce(space, ["A", "B"], Broken(), 0.0)


@pytest.mark.parametrize("seed,t", [(s, t) for s in range(8) for t in (0.0, 2.0, 5.0)])
def test_suite_ce_threshold_guarantee_random_instances(seed, t):
    rng = random.Random(5000 + seed)
    space, model, benches = random_suite_instance(rng)
    ev = SyntheticEvaluator(space, model)
    config, trace = run_suite_ce(space, benches, ev, t)
    refs = {b: m.time for b, m in trace.records[0].measurements.items()}
    for b in benches:
        assert model.time_for(space, config, b) <= (1 + t / 100.0) * refs[b]
    # aggregate over accepted toggles never increases and is never above 1
    aggs = [1.0]
    for rec in trace.records:
        if rec.annotation.startswith("accepted"):
            aggs.append(fmean(rec.measurements[b].time / refs[b] for b in benches))
    assert all(b < a for a, b in zip(aggs, aggs[1:]))
    assert all(a <= 1.0 for a in aggs)


_delta = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([-2.0, -1.0, -0.5, 0.0, 1.0]))


@given(st.data())
def test_ce_is_suite_ce_on_one_benchmark(data):
    """Per-benchmark CE is suite CE on one benchmark, from all flags enabled,
    with no threshold; without failures, no probe is annotated differently."""
    n = data.draw(st.integers(1, 8))
    deltas = {f"f{i}": data.draw(_delta) for i in range(n)}
    pairs = []
    for _ in range(data.draw(st.integers(0, 3)) if n >= 2 else 0):
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        pairs.append((f"f{i}", f"f{j}", data.draw(st.booleans()), data.draw(st.booleans()),
                      data.draw(_delta)))
    base = 100.0 + sum(abs(d) for d in deltas.values()) + sum(abs(p[4]) for p in pairs)
    space = space_of(n)
    model = model_of({"b": {"base": base, "deltas": deltas, "pairs": pairs}})

    config, trace = run_ce(space, "b", SyntheticEvaluator(space, model))
    suite_config, suite_trace = run_suite_ce(
        space, ["b"], SyntheticEvaluator(space, model), math.inf
    )
    assert config == suite_config
    assert trace_fingerprint(trace) == trace_fingerprint(suite_trace)


def test_suite_ce_reproducible(tradeoff_space, tradeoff_model):
    benches = tradeoff_model.benchmark_names
    runs = []
    for _ in range(2):
        ev = SyntheticEvaluator(tradeoff_space, tradeoff_model)
        _, trace = run_suite_ce(
            tradeoff_space, benches, ev, 5.0
        )
        runs.append(trace_fingerprint(trace))
    assert runs[0] == runs[1]


@given(
    rng=st.randoms(use_true_random=False),
    threshold_t=st.sampled_from([None, 0.0, 1.0, 5.0]),
    aggregate=st.sampled_from(sorted(AGGREGATES)),
)
def test_elimination_score_is_the_final_configurations_aggregate(rng, threshold_t, aggregate):
    space, model, benches = random_suite_instance(rng)
    ev = SyntheticEvaluator(space, model)
    B = space.stock_config() if threshold_t is not None else space.all_enabled()
    trace, state = CampaignTrace(), CEState()
    config, _ = _eliminate(space, benches, ev, B, AGGREGATES[aggregate], threshold_t, trace,
                           state)
    # the final configuration is the baseline or the last accepted toggle
    final = [rec for rec in trace.records
             if rec.annotation == "baseline" or rec.annotation.startswith("accepted")][-1]
    assert final.config == config
    base = trace.records[0].measurements
    ratios = [final.measurements[b].time / base[b].time for b in benches]
    assert state.score == AGGREGATES[aggregate](ratios)

    bench, trace, state = benches[0], CampaignTrace(), CEState()
    run_ce(space, bench, ev, trace=trace, state=state)
    assert state.score == best_known([trace], bench).time / trace.records[0].measurements[bench].time


# ---------------------------------------------------------------------------
# the oracle checks the search
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("aggregate", sorted(AGGREGATES))
@pytest.mark.parametrize("t", [0.0, 2.0, 5.0])
def test_search_never_beats_the_oracle(t, aggregate):
    """Elimination is greedy, so the exact optima bound it. The comparison is
    exact: the oracle's scorer gives ``time_for``'s floats bit for bit, and
    both sides aggregate the same ratios."""
    for seed in range(50):
        space, model, benches = random_suite_instance(random.Random(seed))
        ev = SyntheticEvaluator(space, model)
        state = CEState()
        run_suite_ce(space, benches, ev, t, aggregate, state=state)
        stock = space.stock_config()
        reference = {b: model.time_for(space, stock, b) for b in benches}
        optimum, _ = suite_constrained_optimum(space, model, benches, t, reference,
                                               base_level=stock.base_level,
                                               aggregate_fn=AGGREGATES[aggregate])
        assert state.score >= optimum, seed
        for b in benches:
            config, _ = run_ce(space, b, ev)
            assert model.time_for(space, config, b) >= per_benchmark_optimum(space, model, b)[0]


def test_suite_ce_stalls_at_zero_threshold():
    """Greedy elimination's known limit (Pan & Eigenmann, CGO 2006): at t = 0
    every single toggle slows one of the two benchmarks, so ``suite-ce``
    keeps the stock configuration, while turning f1 and f2 off together
    speeds both up. The search is meant to stall here."""
    flags = tuple(Flag(f"f{i}", f"-ff{i}", f"-fno-f{i}") for i in range(4))
    space = FlagSpace(flags, ("O3",), "O3")
    model = SyntheticModel({
        "b0": BenchmarkModel(100.0, flag_delta={"f0": 3.99, "f1": 1.13, "f2": -0.37,
                                                "f3": -2.46}),
        "b1": BenchmarkModel(100.0, flag_delta={"f0": -2.13, "f1": -1.87, "f2": 3.22,
                                                "f3": -3.09},
                             pair_delta=(PairDelta("f0", "f1", False, True, 1.93),)),
    })
    state = CEState()
    config, trace = run_suite_ce(space, ["b0", "b1"], SyntheticEvaluator(space, model), 0.0,
                                 "mean", state=state)
    assert (config.bitstring, state.score) == ("1111", 1.0)
    assert not [rec for rec in trace.records if rec.annotation.startswith("accepted")]
    stock = space.stock_config()
    reference = {b: model.time_for(space, stock, b) for b in ("b0", "b1")}
    optimum, best = suite_constrained_optimum(space, model, ["b0", "b1"], 0.0, reference)
    assert best.bitstring == "1001"
    assert optimum == pytest.approx(0.98926, abs=1e-5)


# ---------------------------------------------------------------------------
# best_known
# ---------------------------------------------------------------------------

def _single_measurement_trace(times):
    trace = CampaignTrace()
    for t in times:
        trace.append(
            Configuration("O3", (True,)), {"b": Measurement("ok", time=t)}, "sample"
        )
    return trace


def test_best_known_single_record():
    trace = _single_measurement_trace([3.0])
    assert best_known([trace], "b").time == 3.0


def test_best_known_takes_minimum_across_traces():
    ric = _single_measurement_trace([95.0, 90.0])
    ce = _single_measurement_trace([87.0])
    assert best_known([ric, ce], "b").time == 87.0


def test_best_known_tie_goes_to_earliest_sequence():
    trace = _single_measurement_trace([5.0, 2.0, 9.0, 1.0, 1.0])
    ti, rec, meas = best_known_record([trace], "b")
    assert (ti, rec.seq, meas.time) == (0, 4, 1.0)


def test_best_known_requires_an_ok_measurement():
    trace = CampaignTrace()
    trace.append(Configuration("O3", ()), {"b": Measurement("run_error")}, "sample")
    with pytest.raises(CampaignError):
        best_known([trace], "b")


# ---------------------------------------------------------------------------
# budget interruption
# ---------------------------------------------------------------------------

def test_budget_interrupts_and_resume_matches(tradeoff_space, tradeoff_model):
    benches = tradeoff_model.benchmark_names
    t = 5.0

    full_ev = SyntheticEvaluator(tradeoff_space, tradeoff_model)
    _, full_trace = run_suite_ce(tradeoff_space, benches, full_ev, t)

    from flagtuner.evaluator import EvalCache

    cache = EvalCache()
    ev = SyntheticEvaluator(tradeoff_space, tradeoff_model, cache, max_evals=9)
    partial = CampaignTrace()
    with pytest.raises(CampaignInterrupted):
        run_suite_ce(tradeoff_space, benches, ev, t, trace=partial)
    assert ev.used == 9
    assert 0 < len(partial) < len(full_trace)

    resumed_ev = SyntheticEvaluator(tradeoff_space, tradeoff_model, cache)
    _, resumed_trace = run_suite_ce(tradeoff_space, benches, resumed_ev, t)
    assert trace_fingerprint(resumed_trace) == trace_fingerprint(full_trace)
    assert resumed_ev.executions == full_ev.executions - 9


def test_budget_allows_exact_fit():
    space, model = pair_dependency_model()
    ev = SyntheticEvaluator(space, model, max_evals=3)
    config, trace = run_ce(space, "cover", ev)  # needs exactly 3 evaluations
    assert len(trace) == 3
    assert config == space.all_enabled()


# ---------------------------------------------------------------------------
# staged elimination against the candidate-major loop
# ---------------------------------------------------------------------------

def candidate_major_eliminate(space, benches, evaluator, B, aggregate, threshold_t, trace,
                              state):
    """Combined elimination that evaluates each candidate across the whole
    suite before the next one: ``_eliminate`` as it was before its probes
    were staged benchmark by benchmark."""
    _check_member(space, B)
    ref_meas = {b: evaluator.evaluate(B, b) for b in benches}
    trace.append(B, ref_meas, "baseline")
    failed = [f"{b} ({m.status})" for b, m in ref_meas.items() if not m.ok]
    if failed:
        raise CampaignError(f"baseline configuration failed on: {', '.join(failed)}")
    t_ref = {b: ref_meas[b].time for b in benches}
    slack = math.inf if threshold_t is None else 1.0 + threshold_t / 100.0
    bound = {b: slack * t_ref[b] for b in benches}
    score_b = 1.0

    def probe(cand, flag_name):
        measurements = {}
        for b in benches:
            m = measurements[b] = evaluator.evaluate(cand, b)
            if not m.ok or m.time > bound[b]:
                note = "" if threshold_t is None else f" (skipped at {b})"
                return math.inf, trace.append(cand, measurements, f"probe {flag_name}{note}")
        rec = trace.append(cand, measurements, f"probe {flag_name}")
        return aggregate([measurements[b].time / t_ref[b] for b in benches]), rec

    S = list(range(len(space)))
    state.capture(S, B, [])
    while True:
        candidates = {}
        for i in S:
            score, rec = probe(toggle(B, i), space.flags[i].name)
            if score < score_b:
                candidates[i] = (score, rec)
        X = [i for _, i in sorted((score, i) for i, (score, _) in candidates.items())]
        state.capture(S, B, X)
        if not X:
            break
        first = X[0]
        score_b, rec = candidates[first]
        B = toggle(B, first)
        rec.annotation = f"accepted toggle {space.flags[first].name}"
        S.remove(first)
        for i in X[1:]:
            cand = toggle(B, i)
            score, rec = probe(cand, space.flags[i].name)
            if score < score_b:
                B = cand
                score_b = score
                rec.annotation = f"accepted toggle {space.flags[i].name}"
                S.remove(i)
        state.capture(S, B, [])
    return B, trace


class RecordingState(CEState):
    """A CEState that keeps every capture."""

    def __init__(self):
        super().__init__()
        self.captures = []

    def capture(self, S, B, X):
        super().capture(S, B, X)
        self.captures.append((self.S, self.B, self.X))


class FailingEvaluator(PairByPair):
    """A synthetic evaluator that fails a fixed share of pairs, chosen by a
    hash of the pair, and logs the order it evaluated the pairs in. Pairs of
    the configuration ``spared`` never fail."""

    def __init__(self, inner, fail_pct, salt, spared=None):
        self.inner, self.fail_pct, self.salt, self.spared = inner, fail_pct, salt, spared
        self.log = []

    def evaluate(self, config, bench):
        self.log.append((config.key(), bench))
        digest = hashlib.md5(f"{self.salt}:{config.key()}:{bench}".encode()).digest()
        if config != self.spared and digest[0] * 100 < self.fail_pct * 256:
            return Measurement("run_error")
        return self.inner.evaluate(config, bench)


def _outcome(run):
    try:
        return run(), None
    except CampaignError as exc:
        return None, type(exc)


@given(
    rng=st.randoms(use_true_random=False),
    fail_pct=st.sampled_from([0, 10, 30]),
    threshold_t=st.sampled_from([None, 0.0, 1.0, 5.0]),
    aggregate=st.sampled_from(sorted(AGGREGATES)),
    baseline_fails=st.booleans(),
)
def test_staged_elimination_equals_candidate_major(rng, fail_pct, threshold_t, aggregate,
                                                   baseline_fails):
    space, model, benches = random_suite_instance(rng)
    B = space.stock_config() if threshold_t is not None else space.all_enabled()
    salt, spared = rng.random(), None if baseline_fails else B
    runs = []
    for eliminate in (_eliminate, candidate_major_eliminate):
        ev = FailingEvaluator(SyntheticEvaluator(space, model), fail_pct, salt, spared)
        trace, state = CampaignTrace(), RecordingState()
        result, error = _outcome(lambda: eliminate(
            space, benches, ev, B, AGGREGATES[aggregate], threshold_t, trace, state
        ))
        per_bench = {b: [key for key, bench in ev.log if bench == b] for b in benches}
        runs.append((result and result[0], error, trace_fingerprint(trace), state.captures,
                     per_bench))
    assert runs[0] == runs[1]
