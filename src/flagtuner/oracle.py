"""Exhaustive brute-force optima over small flag spaces.

Scores every base level x 2^n flag assignment of a synthetic model, less
the levels a rounding bound proves slower at every assignment. This is the
independent ground truth that heuristic searches are checked against; it
never goes near the search code paths.

Assignments are scored in blocks of consecutive bitmasks by ``_Scorer``,
which is bit-identical to ``SyntheticModel.time_for``. Both read the same
precomputed terms (``SyntheticModel._terms_for``: each level's base term,
the flag deltas in flag order and the pairs that can match, as flag indices
and states in model order). The sums over the low flags that vary inside a
block are computed once per benchmark and level and shared by every block,
and the constant high flags and the pair terms are added on top in
``time_for``'s order. Blocks are visited in enumeration order, so every
tie still goes to the first configuration enumerated. The constrained
optimum calls its Python ``aggregate_fn`` only on the configurations that
a numpy stand-in, within a derived rounding bound, cannot rule out.

Both optima go through one block loop, ``_scan``, which scores each
benchmark's block at a level once and records each benchmark's first
minimum there as well. So one pass over the constrained level serves both:
``per_benchmark_optimum`` takes the minima the constrained pass recorded
and scores only the other levels that can win.
"""

from __future__ import annotations

from functools import cache, reduce
from statistics import fmean
from typing import Iterator, Sequence

import numpy as np

from flagtuner.evaluator import SyntheticModel
from flagtuner.flagspace import DEFAULT_MAX_FLAGS, Configuration, FlagSpace, FlagSpaceError
from flagtuner.search import AGGREGATES

# Masks scored at once, rounded down to a power of two; memory stays bounded
# whatever the flag count. On a 16-flag, 10-benchmark model 2^13 adds 1.4 MB
# to the peak RSS of `oracle` over 2^8, 2^14 adds 3.4 MB.
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


def _levels(space: FlagSpace, base_level: str | None) -> tuple[str, ...]:
    if base_level is None:
        return space.base_levels
    if base_level not in space.base_levels:
        raise FlagSpaceError(f"unknown base level {base_level!r}")
    return (base_level,)


@cache
def _low_bits(low: int) -> np.ndarray:
    """Row j: whether bit j of each offset of a block of 2^low masks is set."""
    table = ((np.arange(1 << low) >> np.arange(low)[:, None]) & 1).astype(bool)
    table.flags.writeable = False  # shared by every scorer
    return table


class _Scorer:
    """One benchmark's times, block by block, bit for bit equal to ``time_for``.

    A block holds the ``block`` masks that share their high bits (flags low
    and up), where ``block`` = 2^low is ``BLOCK_SIZE`` rounded down to a
    power of two, and at most the whole space. So a block is scored in
    ``time_for``'s term order from parts built once: the level's ``prefix``
    (base term plus the enabled low flags, in flag order), then each enabled
    high flag as one scalar add, then each pair whose high-bit states hold
    for the block, as one scalar add or, when it also tests low bits, one
    add of its delta times a boolean mask of the offsets they match. The
    mask costs the same whichever bits it tests, so a block's cost does not
    depend on where the model puts its pairs. Pair deltas are finite
    (``SyntheticModel.validate``), so an unmatched offset adds exactly 0.
    """

    def __init__(self, space: FlagSpace, model: SyntheticModel, bench_name: str):
        # time_for's terms, which leave out the pairs that never match
        _, self._base, self._deltas, pairs = model._terms_for(space, bench_name)
        self._low = low = min(len(space), BLOCK_SIZE.bit_length() - 1)
        self.block = 1 << low
        bits = _low_bits(low)
        self._pairs = []  # (delta, [(high bit, state)], low-bit mask or None)
        for a, state_a, b, state_b, delta in pairs:
            states = {a: state_a, b: state_b}
            high = [(j, s) for j, s in states.items() if j >= low]
            masks = [bits[j] if s else ~bits[j] for j, s in states.items() if j < low]
            self._pairs.append((delta, high, reduce(np.logical_and, masks) if masks else None))

    def prefix(self, level: str) -> np.ndarray:
        """Base term plus the enabled low-flag deltas of every offset, in
        flag order: doubling appends the sums with flag j to those without."""
        t = np.array([self._base[level]])
        for d in self._deltas[: self._low]:
            t = np.concatenate([t, t + d])
        return t

    def times(self, prefix: np.ndarray, start: int) -> np.ndarray:
        """Times of the block of masks from ``start``, a multiple of the block
        size; ``prefix`` is ``self.prefix`` of their level."""
        t = prefix.copy()
        for j in range(self._low, len(self._deltas)):
            if (start >> j) & 1:
                t += self._deltas[j]
        for delta, high, mask in self._pairs:
            if not all(((start >> j) & 1) == state for j, state in high):
                continue
            if mask is None:
                t += delta
            else:
                t += mask * delta
        return t


_U = 2.0**-53  # unit roundoff of a float


def _mean_columns(ratios: np.ndarray) -> tuple[np.ndarray, float]:
    """Column means of positive ``ratios``, and a bound on their relative
    distance from ``fmean``'s: a sum of n positive terms in any order is
    within (n - 1) u of the exact one, ``fsum`` within u, and each side
    divides once."""
    n = ratios.shape[0]
    return ratios.sum(axis=0) / n, (n + 2) * _U


def _geomean_columns(ratios: np.ndarray) -> tuple[np.ndarray, float]:
    """Column geometric means of positive ``ratios``, and a bound on their
    relative distance from ``exp(fmean(log))``'s: on either side each log is
    within 4 ulp, the mean of the logs within (n + 2) u of the mean of their
    absolute values, and exp within 4 ulp of a result whose relative error
    is the absolute error of its argument."""
    logs = np.log(ratios)
    n = ratios.shape[0]
    spread = float(np.abs(logs).mean(axis=0).max())
    return np.exp(logs.mean(axis=0)), 2 * (n + 8) * _U * (1.0 + spread)


# numpy stand-ins, with their error bounds, for the aggregates the commands use
_STAND_INS = {AGGREGATES["mean"]: _mean_columns, AGGREGATES["geomean"]: _geomean_columns}


def _candidates(ratios: np.ndarray, feasible: np.ndarray, aggregate_fn) -> np.ndarray:
    """The feasible columns of ``ratios`` (one row per benchmark, one column
    per configuration) that may hold the first exact minimum of
    ``aggregate_fn``: with a stand-in whose values are within a relative
    ``err`` of the exact ones, a column more than 4 ``err`` above the
    smallest feasible stand-in value cannot. Every feasible column, without
    a stand-in or positive ratios. The stand-in covers the whole block, so
    its cost does not depend on how many configurations are feasible."""
    stand_in = _STAND_INS.get(aggregate_fn)
    if stand_in is None or not ratios.min() > 0:  # NaN as well
        return np.flatnonzero(feasible)
    approx, err = stand_in(ratios)
    bound = approx[feasible].min() * (1.0 + 4.0 * err)
    return np.flatnonzero(feasible & (approx <= bound))


def _check_cap(space: FlagSpace, max_flags: int) -> None:
    if len(space) > max_flags:
        raise ValueError(
            f"flag space has {len(space)} flags, above the brute-force cap of {max_flags}"
        )


Minima = dict[str, tuple[float, Configuration]]  # first minimum (time, configuration) by level


def _scan(space: FlagSpace, model: SyntheticModel, benchmarks: Sequence[str],
          levels: Sequence[str], step=None) -> dict[str, Minima]:
    """The one block loop: each of ``benchmarks`` at each of ``levels``,
    block by block in enumeration order, each block scored once.

    Returns each benchmark's first minimum at each level; ``step(level,
    start, times)``, if given, also sees every block, one row of ``times``
    per benchmark.
    """
    n = len(space)
    scorers = [_Scorer(space, model, b) for b in benchmarks]
    block = scorers[0].block  # the same for every scorer
    times = np.empty((len(scorers), block))
    minima: dict[str, Minima] = {b: {} for b in benchmarks}
    for level in levels:
        prefixes = [(s, s.prefix(level)) for s in scorers]
        best = [None] * len(scorers)
        for start in range(0, 2**n, block):
            for row, (scorer, prefix) in zip(times, prefixes):
                row[:] = scorer.times(prefix, start)
            for k, i in enumerate(times.argmin(axis=1).tolist()):
                if best[k] is None or times[k, i] < best[k][0]:
                    best[k] = (float(times[k, i]), start + i)
            if step is not None:
                step(level, start, times)
        for b, (t, mask) in zip(benchmarks, best):
            minima[b][level] = (t, _config(level, mask, n))
    return minima


def per_benchmark_optimum(
    space: FlagSpace,
    model: SyntheticModel,
    bench_name: str,
    *,
    base_level: str | None = None,
    max_flags: int = DEFAULT_MAX_FLAGS,
    scored: Minima | None = None,
) -> tuple[float, Configuration]:
    """Exact minimum time and its configuration for one benchmark.

    ``scored`` holds the first minimum of levels already scored, as
    ``suite_constrained_optimum`` records them in ``minima``; those levels
    are not scored again.

    Levels differ only in the base term, and a sum of N terms added in turn
    is within gamma_N A of its exact value, A the sum of their magnitudes
    (Higham, Accuracy and Stability of Numerical Algorithms, 4.2; gamma_N =
    N u / (1 - N u); gamma_{N-1} would do, and the margin covers the
    rounding of the bound itself). So a level whose base exceeds the least
    by more than 2 gamma_N A is slower at every mask and is not scored; the
    result, ties included, is the same.
    """
    _check_cap(space, max_flags)
    _, base, deltas, pairs = model._terms_for(space, bench_name)
    levels = _levels(space, base_level)
    n = 1 + len(deltas) + len(pairs)
    a = (max(abs(base[level]) for level in levels) + sum(map(abs, deltas))
         + sum(abs(pair[4]) for pair in pairs))
    slack = 2 * n * _U / (1 - n * _U) * a
    least = min(base[level] for level in levels)
    # False for a NaN, which is scored
    levels = [level for level in levels if not base[level] - least > slack]
    minima = dict(scored or {})
    unscored = [level for level in levels if level not in minima]
    if unscored:
        minima.update(_scan(space, model, [bench_name], unscored)[bench_name])
    best = None
    for level in levels:  # strict <: a tie goes to the first level
        if best is None or minima[level][0] < best[0]:
            best = minima[level]
    assert best is not None
    return best


def suite_constrained_optimum(
    space: FlagSpace,
    model: SyntheticModel,
    benchmarks: Sequence[str],
    threshold_t: float,
    reference: dict[str, float],
    *,
    base_level: str | None = None,
    aggregate_fn=fmean,
    max_flags: int = DEFAULT_MAX_FLAGS,
    minima: dict[str, Minima] | None = None,
) -> tuple[float, Configuration] | None:
    """Best aggregate ratio subject to the per-benchmark threshold bound.

    A configuration is feasible when every benchmark's time stays at or
    below (1 + t/100) x its reference time. Returns None when nothing is
    feasible (possible only if the reference itself is excluded by
    ``base_level``). ``aggregate_fn`` runs, over Python floats and in
    enumeration order, on the feasible configurations of a block that
    ``_candidates`` keeps, so the result is the exhaustive loop's, ties
    included, while the Python calls do not grow with the feasible count.

    The pass scores every benchmark at every level it visits, so it finds
    each benchmark's first minimum there too; a ``minima`` dict receives
    them by benchmark, for ``per_benchmark_optimum``'s ``scored``.
    """
    _check_cap(space, max_flags)
    bounds = np.array([[(1.0 + threshold_t / 100.0) * reference[b]] for b in benchmarks])
    refs = np.array([[reference[b]] for b in benchmarks])
    best = None

    def step(level: str, start: int, times: np.ndarray) -> None:
        nonlocal best
        feasible = (times <= bounds).all(axis=0)
        if not feasible.any():
            return
        ratios = times / refs
        for i in _candidates(ratios, feasible, aggregate_fn).tolist():
            agg = aggregate_fn(ratios[:, i].tolist())
            if best is None or agg < best[0]:
                best = (agg, level, start + i)

    found = _scan(space, model, benchmarks, _levels(space, base_level), step)
    if minima is not None:
        minima.update(found)
    if best is None:
        return None
    agg, level, mask = best
    return agg, _config(level, mask, len(space))
