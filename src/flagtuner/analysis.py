"""Campaign trace analysis: progress series, comparisons, cross-validation
and nearest-neighbor configuration prediction.

All functions here are pure consumers of CampaignTraces (plus an evaluator
for cross-validation); they never mutate traces.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean
from typing import Sequence

from flagtuner.flagspace import Configuration, FlagSpace
from flagtuner.search import (
    CampaignError,
    CampaignTrace,
    best_known_record,
    run_suite_ce,
)


@dataclass(frozen=True)
class RelativeSeries:
    """Dimensionless progress series: (configurations tested, value) points."""

    points: tuple[tuple[int, float], ...]


def floored_best_so_far(
    trace: CampaignTrace, reference: dict[str, float]
) -> RelativeSeries:
    """Mean over benchmarks of the floored best-so-far ratio after each test.

    At each prefix of the trace, every benchmark contributes
    min(1.0, best_time_so_far / reference_time); benchmarks without an ok
    measurement yet contribute 1.0. The result is non-increasing and lies
    in (0, 1].
    """
    if not trace.records:
        raise ValueError("empty trace")
    for b, t in reference.items():
        if not (math.isfinite(t) and t > 0):
            raise ValueError(f"reference time for {b!r} must be finite and > 0")
    benches = list(reference)
    best: dict[str, float] = {}
    points = []
    for rec in trace.records:
        for b in benches:
            m = rec.measurements.get(b)
            if m is not None and m.ok and (b not in best or m.time < best[b]):
                best[b] = m.time
        value = fmean(
            min(1.0, best[b] / reference[b]) if b in best else 1.0 for b in benches
        )
        points.append((rec.seq, value))
    return RelativeSeries(tuple(points))


@dataclass(frozen=True)
class CompareRow:
    benchmark: str
    best_time: float
    ref_time: float
    ratio: float
    method: str
    config: Configuration
    seq: int


@dataclass(frozen=True)
class CompareTable:
    rows: tuple[CompareRow, ...]
    mean_ratio: float
    mean_ratio_floored: float


def compare_to_baseline(
    traces: Sequence[tuple[str, CampaignTrace]], reference: dict[str, float]
) -> CompareTable:
    """Best-known result per benchmark across named campaigns.

    Ratios are not floored in the rows; the suite mean is reported both
    unfloored and floored.
    """
    rows = []
    for bench, ref in reference.items():
        ti, rec, meas = best_known_record([t for _, t in traces], bench)
        rows.append(
            CompareRow(
                benchmark=bench,
                best_time=meas.time,
                ref_time=ref,
                ratio=meas.time / ref,
                method=traces[ti][0],
                config=rec.config,
                seq=rec.seq,
            )
        )
    ratios = [r.ratio for r in rows]
    return CompareTable(
        rows=tuple(rows),
        mean_ratio=fmean(ratios),
        mean_ratio_floored=fmean(min(1.0, r) for r in ratios),
    )


@dataclass(frozen=True)
class FoldPlan:
    """Partition of programs into k folds with sizes differing by at most 1."""

    k: int
    assignment: dict[str, int]

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be >= 2")
        indices = set(self.assignment.values())
        if not indices <= set(range(self.k)):
            raise ValueError("fold indices out of range")
        sizes = [self.fold_size(i) for i in range(self.k)]
        if min(sizes) == 0:
            raise ValueError("every fold must be non-empty")
        if max(sizes) - min(sizes) > 1:
            raise ValueError("fold sizes must differ by at most 1")

    def fold_size(self, fold: int) -> int:
        return sum(1 for f in self.assignment.values() if f == fold)

    def test_set(self, fold: int) -> list[str]:
        return [p for p, f in self.assignment.items() if f == fold]


def make_folds(programs: Sequence[str], k: int, seed: int) -> FoldPlan:
    """Uniform random partition into k folds, deterministic per seed."""
    programs = list(programs)
    if k < 2 or len(programs) < k:
        raise ValueError(f"need 2 <= k <= number of programs, got k={k}, n={len(programs)}")
    if len(set(programs)) != len(programs):
        raise ValueError("program names must be unique")
    shuffled = programs[:]
    random.Random(seed).shuffle(shuffled)
    q, r = divmod(len(shuffled), k)
    assignment: dict[str, int] = {}
    pos = 0
    for fold in range(k):
        size = q + 1 if fold < r else q
        for p in shuffled[pos : pos + size]:
            assignment[p] = fold
        pos += size
    # report folds in original program order
    return FoldPlan(k, {p: assignment[p] for p in programs})


@dataclass
class FoldResult:
    fold: int
    config: Configuration | None
    trace: CampaignTrace | None
    test_ratios: dict[str, float] = field(default_factory=dict)
    error: str | None = None


def run_xval(
    space: FlagSpace,
    benchmarks: Sequence[str],
    evaluator,
    threshold_t: float,
    aggregate: str,
    plan: FoldPlan,
) -> list[FoldResult]:
    """Per-fold ``run_suite_ce`` on the training set, tested on the rest.

    Training never sees measurements of held-out programs; test ratios are
    against the stock-baseline reference times. A failing test measurement
    yields an infinite ratio; a failing fold campaign is reported in the
    fold's ``error`` field.
    """
    benches = list(benchmarks)
    if set(plan.assignment) != set(benches):
        raise ValueError("fold plan does not cover exactly the given benchmarks")
    stock = space.stock_config()
    measured = dict(zip(benches, evaluator.evaluate_many([(stock, b) for b in benches]),
                        strict=True))
    reference = {}
    for b, m in measured.items():
        if not m.ok:
            raise CampaignError(f"baseline configuration failed on {b}")
        reference[b] = m.time

    results = []
    for fold in range(plan.k):
        train = [b for b in benches if plan.assignment[b] != fold]
        test = [b for b in benches if plan.assignment[b] == fold]
        try:
            config, trace = run_suite_ce(space, train, evaluator, threshold_t, aggregate)
        except CampaignError as exc:
            results.append(FoldResult(fold, None, None, {}, error=str(exc)))
            continue
        ratios = {
            b: m.time / reference[b] if m.ok else math.inf
            for b, m in zip(test, evaluator.evaluate_many([(config, b) for b in test]),
                            strict=True)
        }
        results.append(FoldResult(fold, config, trace, ratios))
    return results


@dataclass(frozen=True)
class FeatureVector:
    """Whole-program feature vector; all vectors in a dataset share dimension."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError(f"{self.name}: features must be finite")


PerformanceTable = list[tuple[Configuration, float]]


def performance_table(trace: CampaignTrace, benchmark: str) -> PerformanceTable:
    """All ok (configuration, time) pairs for one benchmark, in trace order."""
    table = []
    for rec in trace.records:
        m = rec.measurements.get(benchmark)
        if m is not None and m.ok:
            table.append((rec.config, m.time))
    return table


def predict_1nn(
    query: FeatureVector,
    training: Sequence[tuple[FeatureVector, PerformanceTable]],
) -> Configuration:
    """Copy the best configuration of the nearest training program.

    Features are z-scored with the training set's statistics (constant
    features are dropped), which makes the prediction invariant under
    per-feature affine rescaling of the raw inputs. Distance ties go to the
    earliest training program.
    """
    # imported here: numpy costs every start-up of every other command
    import numpy as np

    if not training:
        raise ValueError("empty training set")
    dim = len(query.values)
    for fv, _ in training:
        if len(fv.values) != dim:
            raise ValueError(
                f"dimension mismatch: query has {dim}, {fv.name} has {len(fv.values)}"
            )
    X = np.array([fv.values for fv, _ in training], dtype=float)
    q = np.array(query.values, dtype=float)
    keep = X.max(axis=0) > X.min(axis=0)
    X = X[:, keep]
    q = q[keep]
    if X.shape[1] > 0:
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        X = (X - mean) / std
        q = (q - mean) / std
    d2 = ((X - q) ** 2).sum(axis=1)
    nearest = int(np.argmin(d2))
    table = training[nearest][1]
    if not table:
        raise ValueError("empty performance table for nearest neighbor")
    return min(table, key=lambda row: row[1])[0]


def load_features(path: str | Path) -> list[FeatureVector]:
    """Read a feature table: CSV with a header, first column the program name,
    one row per program; a ``ValueError`` names the file and the line."""
    vectors: dict[str, FeatureVector] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or header[0].strip().lower() != "program":
                raise ValueError("feature table must start with a 'program,...' header")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"feature row for {row[0]!r} has wrong width")
                if row[0] in vectors:
                    raise ValueError(f"program {row[0]!r} is repeated")
                vectors[row[0]] = FeatureVector(row[0], tuple(float(v) for v in row[1:]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {max(reader.line_num, 1)}: {exc}") from exc
    return list(vectors.values())
