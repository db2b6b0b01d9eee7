"""Search strategies over the flag space.

Three campaign styles:

* random iterative compilation (``run_ric``): evaluate many randomly
  sampled configurations;
* suite-wide combined elimination (``run_suite_ce``): tune one
  configuration against a whole benchmark suite, toggling flags in either
  direction from a stock baseline, under a per-benchmark degradation
  threshold with early skipping of doomed candidates;
* per-benchmark combined elimination (``run_ce``): the same elimination
  core on a one-benchmark suite, from all flags enabled and with no
  threshold, greedily disabling the flag with the most negative relative
  improvement percentage and re-probing survivors against the updated
  baseline.

Every tested configuration is logged to a CampaignTrace, the input to all
downstream analysis.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from statistics import fmean
from typing import Callable, Iterable, Iterator, Protocol, Sequence

from flagtuner.evaluator import Measurement
from flagtuner.flagspace import Configuration, FlagSpace, _check_member, toggle


class CampaignError(RuntimeError):
    """The campaign cannot produce a valid result (e.g. baseline failed)."""


class Evaluator(Protocol):
    """``evaluate_many`` gives the measurements of pairs that do not depend on
    each other, in order; it may work ahead (``CommandEvaluator`` compiles in
    parallel)."""

    def evaluate_many(self, pairs: Sequence[tuple[Configuration, str]]) -> Iterator[Measurement]:
        ...


@dataclass
class TraceRecord:
    """One tested configuration with its per-benchmark measurements."""

    seq: int
    config: Configuration
    measurements: dict[str, Measurement]
    annotation: str


@dataclass
class CampaignTrace:
    """Ordered log of every configuration tested; sequence numbers run from 1."""

    records: list[TraceRecord] = field(default_factory=list)

    def append(
        self, config: Configuration, measurements: dict[str, Measurement], annotation: str
    ) -> TraceRecord:
        rec = TraceRecord(len(self.records) + 1, config, dict(measurements), annotation)
        self.records.append(rec)
        return rec

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


@dataclass
class CEState:
    """Live elimination state: remaining search space, baseline, candidates
    and, once the elimination ends, ``score``: the aggregate of ``B``'s time
    ratios to the starting baseline's (1.0 if no toggle was accepted)."""

    S: list[int] = field(default_factory=list)
    B: Configuration | None = None
    X: list[int] = field(default_factory=list)
    score: float | None = None

    def capture(self, S: Iterable[int], B: Configuration, X: Iterable[int]) -> None:
        self.S = list(S)
        self.B = B
        self.X = list(X)


def _geomean(values: Sequence[float]) -> float:
    return math.exp(fmean(math.log(v) for v in values))


AGGREGATES = {"mean": fmean, "geomean": _geomean}


def rip(t_toggled: float, t_base: float) -> float:
    """Relative improvement percentage: (t_toggled - t_base) / t_base * 100.

    Negative values mean the toggled configuration is faster.
    """
    if t_base <= 0:
        raise ValueError("t_base must be > 0")
    return (t_toggled - t_base) / t_base * 100.0


def sample_ric(space: FlagSpace, rng: int | random.Random) -> Configuration:
    """Draw one random configuration: uniform base level, each flag on with p=1/2.

    Passing an int seeds a fresh generator; passing a Random advances it,
    which is how a campaign draws a reproducible sequence.
    """
    r = random.Random(rng) if isinstance(rng, int) else rng
    level = space.base_levels[r.randrange(len(space.base_levels))]
    assignment = tuple(r.random() < 0.5 for _ in space.flags)
    return Configuration(level, assignment)


def _as_bench_list(benchmarks: Sequence[str]) -> list[str]:
    benches = list(benchmarks)
    if not benches:
        raise ValueError("need at least one benchmark")
    return benches


def run_ric(
    space: FlagSpace,
    benchmarks: Sequence[str],
    evaluator: Evaluator,
    n_configs: int,
    seed: int,
    *,
    trace: CampaignTrace | None = None,
) -> CampaignTrace:
    """Random iterative compilation: the stock baseline plus n sampled configs.

    Per-configuration failures are recorded in the trace, not fatal.
    """
    if n_configs < 1:
        raise ValueError("n_configs must be >= 1")
    benches = _as_bench_list(benchmarks)
    trace = trace if trace is not None else CampaignTrace()
    rng = random.Random(seed)
    configs = [space.stock_config()] + [sample_ric(space, rng) for _ in range(n_configs)]
    results = evaluator.evaluate_many([(cfg, b) for cfg in configs for b in benches])
    for n, cfg in enumerate(configs):
        trace.append(cfg, dict(zip(benches, results)), "sample" if n else "baseline")
    return trace


def run_ce(
    space: FlagSpace,
    benchmark: str,
    evaluator: Evaluator,
    *,
    trace: CampaignTrace | None = None,
    state: CEState | None = None,
) -> tuple[Configuration, CampaignTrace]:
    """Combined elimination against a single benchmark.

    This is the suite core on a one-benchmark suite, with no threshold:
    it starts with every flag enabled and disables, one at a time, the flag
    with the most negative RIP against the current baseline.
    """
    return _eliminate(
        space, [benchmark], evaluator, space.all_enabled(), fmean, None, trace, state
    )


def run_suite_ce(
    space: FlagSpace,
    benchmarks: Sequence[str],
    evaluator: Evaluator,
    threshold_t: float,
    aggregate: str = "mean",
    *,
    trace: CampaignTrace | None = None,
    state: CEState | None = None,
) -> tuple[Configuration, CampaignTrace]:
    """Suite-wide combined elimination building a platform optimization level.

    Flags are toggled in either direction from the stock baseline, and a
    candidate is aborted the moment any benchmark exceeds (1 + t/100) x its
    baseline time, for ``threshold_t`` = t percent; one exactly at the bound
    passes. ``aggregate`` names the suite objective in ``AGGREGATES``. The
    returned configuration satisfies the threshold bound on every benchmark.
    """
    return _eliminate(
        space, _as_bench_list(benchmarks), evaluator, space.stock_config(),
        AGGREGATES[aggregate], threshold_t, trace, state,
    )


def _eliminate(
    space: FlagSpace,
    benches: list[str],
    evaluator: Evaluator,
    B: Configuration,
    aggregate: Callable[[list[float]], float],
    threshold_t: float | None,
    trace: CampaignTrace | None,
    state: CEState | None,
) -> tuple[Configuration, CampaignTrace]:
    """Combined elimination (Pan & Eigenmann, CGO 2006) over a suite.

    A candidate's score is ``aggregate`` over its per-benchmark time ratios
    to the baseline ``B``'s times. Each round toggles every remaining flag
    away from the current configuration and evaluates the candidate across
    the suite in order, stopping at its first failed benchmark or, with a
    threshold, at the first one over (1 + t/100) x its baseline time; only
    with a threshold is such a probe annotated ``(skipped at ...)``.
    Candidates that lower the score are ranked by it (equal scores go to the
    lowest flag index): the best is accepted, and the others are re-probed
    against the updated configuration and accepted if they still lower the
    score. The rest stay in the search space for later rounds.

    A round's probes do not depend on each other, so they go to the
    evaluator in stages, one batch per benchmark holding every candidate
    still alive; the pairs of one benchmark keep the candidate order, and
    the trace records are appended in flag order once the round's stages
    are done.
    """
    trace = trace if trace is not None else CampaignTrace()
    state = state if state is not None else CEState()
    _check_member(space, B)
    batch = evaluator.evaluate_many([(B, b) for b in benches])
    ref_meas = dict(zip(benches, batch, strict=True))
    trace.append(B, ref_meas, "baseline")
    failed = [f"{b} ({m.status})" for b, m in ref_meas.items() if not m.ok]
    if failed:
        raise CampaignError(f"baseline configuration failed on: {', '.join(failed)}")
    t_ref = {b: ref_meas[b].time for b in benches}
    slack = math.inf if threshold_t is None else 1.0 + threshold_t / 100.0
    bound = {b: slack * t_ref[b] for b in benches}
    score_b = 1.0  # every ratio of the baseline to itself is 1

    def probe(flags: list[int]) -> dict[int, tuple[float, TraceRecord]]:
        """The score and trace record of toggling each of ``flags`` in
        ``B``, appended in the order given."""
        cands = {i: toggle(B, i) for i in flags}
        measured: dict[int, dict[str, Measurement]] = {i: {} for i in flags}
        alive = flags
        for b in benches:
            batch = evaluator.evaluate_many([(cands[i], b) for i in alive])
            limit, survivors = bound[b], []
            for i, m in zip(alive, batch, strict=True):
                measured[i][b] = m
                if m.ok and m.time <= limit:
                    survivors.append(i)
            alive = survivors
        passed = set(alive)
        scored = {}
        for i in flags:
            ms, name = measured[i], space.flags[i].name
            if i in passed:
                score = aggregate([ms[b].time / t_ref[b] for b in benches])
                scored[i] = score, trace.append(cands[i], ms, f"probe {name}")
            else:
                note = "" if threshold_t is None else f" (skipped at {list(ms)[-1]})"
                scored[i] = math.inf, trace.append(cands[i], ms, f"probe {name}{note}")
        return scored

    S = list(range(len(space)))
    while True:
        state.capture(S, B, [])
        candidates = {i: sr for i, sr in probe(S).items() if sr[0] < score_b}
        X = [i for _, i in sorted((score, i) for i, (score, _) in candidates.items())]
        state.capture(S, B, X)
        if not X:
            break
        for i in X:  # the best as probed, which lowers the score; the rest re-probed
            score, rec = candidates[i] if i == X[0] else probe([i])[i]
            if score < score_b:
                B, score_b = rec.config, score
                rec.annotation = f"accepted toggle {space.flags[i].name}"
                S.remove(i)
    state.score = score_b
    return B, trace


def best_known_record(
    traces: Sequence[CampaignTrace], benchmark: str
) -> tuple[int, TraceRecord, Measurement]:
    """Locate the minimum-time ok measurement for a benchmark across traces.

    Ties go to the earliest trace, then the earliest sequence number.
    """
    best: tuple[int, TraceRecord, Measurement] | None = None
    for ti, tr in enumerate(traces):
        for rec in tr.records:
            m = rec.measurements.get(benchmark)
            if m is None or not m.ok:
                continue
            if best is None or m.time < best[2].time:
                best = (ti, rec, m)
    if best is None:
        raise CampaignError(f"no ok measurement for benchmark {benchmark!r}")
    return best


def best_known(traces: Sequence[CampaignTrace], benchmark: str) -> Measurement:
    """Best-known measurement for a benchmark across all supplied traces."""
    return best_known_record(traces, benchmark)[2]
