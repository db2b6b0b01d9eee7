"""Exhaustive brute-force optima over small flag spaces.

Enumerates every base level x 2^n flag assignment against a synthetic
model. This is the independent ground truth that heuristic searches are
checked against; it never goes near the search code paths.

Assignments are scored in blocks of bitmasks through ``SyntheticModel.times``,
which is bit-identical to ``time_for``; blocks are visited in enumeration
order, so every tie still goes to the first configuration enumerated.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from flagtuner.evaluator import SyntheticModel
from flagtuner.flagspace import Configuration, FlagSpace

DEFAULT_MAX_FLAGS = 22

# Masks scored at once; memory stays bounded whatever the flag count. On a
# 16-flag, 10-benchmark model 2^13 adds 0.7 MB to peak RSS, 2^14 adds 1.9 MB.
BLOCK_SIZE = 1 << 13


def _config(level: str, mask: int, n: int) -> Configuration:
    return Configuration(level, tuple(bool((mask >> j) & 1) for j in range(n)))


def enumerate_configurations(
    space: FlagSpace, base_level: str | None = None
) -> Iterator[Configuration]:
    """All configurations of the space, levels in order, assignments by bitmask.

    Bit j of the mask drives flag j, so the all-disabled assignment comes
    first; enumeration order is the tie-breaking order everywhere below.
    """
    levels = space.base_levels if base_level is None else (base_level,)
    n = len(space)
    for level in levels:
        for mask in range(2**n):
            yield _config(level, mask, n)


def _blocks(
    space: FlagSpace, base_level: str | None
) -> Iterator[tuple[str, np.ndarray]]:
    """(level, masks) blocks covering ``enumerate_configurations`` in its order."""
    levels = space.base_levels if base_level is None else (base_level,)
    total = 2 ** len(space)
    for level in levels:
        for start in range(0, total, BLOCK_SIZE):
            yield level, np.arange(start, min(start + BLOCK_SIZE, total), dtype=np.int64)


def _check_cap(space: FlagSpace, max_flags: int) -> None:
    if len(space) > max_flags:
        raise ValueError(
            f"flag space has {len(space)} flags, above the brute-force cap of {max_flags}"
        )


def per_benchmark_optimum(
    space: FlagSpace,
    model: SyntheticModel,
    bench_name: str,
    *,
    base_level: str | None = None,
    max_flags: int = DEFAULT_MAX_FLAGS,
) -> tuple[float, Configuration]:
    """Exact minimum time and its configuration for one benchmark."""
    _check_cap(space, max_flags)
    best = None
    for level, masks in _blocks(space, base_level):
        times = model.times(space, bench_name, level, masks)
        i = int(np.argmin(times))
        if best is None or times[i] < best[0]:
            best = (float(times[i]), level, int(masks[i]))
    assert best is not None
    best_time, level, mask = best
    return best_time, _config(level, mask, len(space))


def suite_constrained_optimum(
    space: FlagSpace,
    model: SyntheticModel,
    benchmarks: Sequence[str],
    threshold_t: float,
    reference: dict[str, float],
    *,
    base_level: str | None = None,
    aggregate_fn=None,
    max_flags: int = DEFAULT_MAX_FLAGS,
) -> tuple[float, Configuration] | None:
    """Best aggregate ratio subject to the per-benchmark threshold bound.

    A configuration is feasible when every benchmark's time stays at or
    below (1 + t/100) x its reference time. Returns None when nothing is
    feasible (possible only if the reference itself is excluded by
    ``base_level``). A block drops each configuration at its first
    benchmark over the bound; the aggregate of each feasible configuration
    is ``aggregate_fn`` over Python floats, in enumeration order.
    """
    _check_cap(space, max_flags)
    if aggregate_fn is None:
        from statistics import fmean

        aggregate_fn = fmean
    bound = {b: (1.0 + threshold_t / 100.0) * reference[b] for b in benchmarks}
    best = None
    for level, masks in _blocks(space, base_level):
        ratios = np.empty((len(masks), 0))
        for b in benchmarks:
            times = model.times(space, b, level, masks)
            feasible = times <= bound[b]
            masks = masks[feasible]
            ratios = np.column_stack([ratios[feasible], times[feasible] / reference[b]])
        for mask, row in zip(masks.tolist(), ratios):
            agg = aggregate_fn(row.tolist())
            if best is None or agg < best[0]:
                best = (agg, level, mask)
    if best is None:
        return None
    agg, level, mask = best
    return agg, _config(level, mask, len(space))
