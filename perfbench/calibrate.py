"""Host speed: the time of a fixed piece of work that flagtuner does not run.

The benchmark runs on shared machines whose speed drifts: the same
interpreter loop can take 20 ms in one minute and 40 ms a few minutes
later, and every timed phase stretches with it. Two kernels stand in for
the work that dominates the timed phases:

* ``PYTHON``: pure-Python work of the kind flagtuner does in process
  (zip a flag assignment into a dict, sum float deltas, render and hash a
  key), on data of its own;
* ``PROCESS``: starting ``python3 -S -c pass``, which is most of what the
  stub toolchain's compiler and runner cost, and of what a set-up costs.

A worker keeps one ``Sampler`` for its whole run. It times its kernel
before each campaign and after the last one of a phase; for ``PYTHON``
it also samples from a ``SIGALRM`` handler every ``INTERVAL_S`` while a
campaign runs. The time spent sampling is kept apart so that it can be
taken out of the campaign's time. A campaign's scale is the mean of
``ref_s / sample`` over the samples taken from ``WINDOW_S`` before it
starts to ``WINDOW_S`` after it ends. The window follows the host's
drift, which takes tens of seconds; short bursts are left to the
campaigns' own medians over a run. Multiplied by the campaign's wall
time, the scale gives the time the same work would take
on a host where the kernel takes ``ref_s``. A change to flagtuner moves
that time as much as the raw one; a change of host speed moves both the
campaign and the kernel, and cancels out.
"""

from __future__ import annotations

import hashlib
import json
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import fmean
from typing import Callable, Iterator

INTERVAL_S = 0.1
MARK_SAMPLES = 3  # samples taken between two campaigns
WINDOW_S = 5.0

_NAMES = [f"f{i:02d}" for i in range(16)]
_DELTAS = {name: (i - 7.5) * 1e-3 for i, name in enumerate(_NAMES)}
_PAIRS = [(_NAMES[i], _NAMES[(5 * i + 3) % 16], 2e-4 * (i - 8)) for i in range(16)]


def _python_work(n: int = 160) -> float:
    acc = 0.0
    for k in range(n):
        state = dict(zip(_NAMES, ((k >> j) & 1 == 1 for j in range(16))))
        t = 1.0
        for name, on in state.items():
            if on:
                t += _DELTAS.get(name, 0.0)
        for a, b, delta in _PAIRS:
            if state.get(a) and not state.get(b):
                t += delta
        key = json.dumps(state, sort_keys=True)
        acc += t + int(hashlib.sha256(key.encode()).hexdigest()[:4], 16) * 1e-9
    return acc


def _process_start() -> None:
    # Popen rather than run: traced runs wrap subprocess.run to count the
    # stub toolchain's processes.
    if subprocess.Popen([sys.executable, "-S", "-c", "pass"]).wait() != 0:
        raise RuntimeError("python3 -S -c pass failed")


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], object]
    # Typical time on the 2-vCPU "Intel Xeon Processor" VM the benchmark
    # was written on, so that scaled times are close to raw ones there.
    ref_s: float
    # A child process keeps running while a signal handler runs in its
    # parent, so a kernel that waits on children would take its wait out
    # of theirs: PROCESS is sampled only between campaigns.
    periodic: bool


PYTHON = Kernel(_python_work, 0.0035, periodic=True)
PROCESS = Kernel(_process_start, 0.017, periodic=False)


def sample(kernel: Kernel) -> float:
    began = time.perf_counter()
    kernel.run()
    return time.perf_counter() - began


def scale(kernel: Kernel, samples: list[float]) -> float:
    """The mean speed over the samples, relative to ``kernel.ref_s``.
    Samples taken at even intervals make this the mean over time, which
    is what stretches a campaign."""
    return fmean(kernel.ref_s / s for s in samples)


class Sampler:
    """Kernel times, with the time each was taken, over a worker's run."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.samples: list[tuple[float, float]] = []
        self.spent_s = 0.0  # wall time spent sampling
        self._busy = False

    def _tick(self, *_) -> None:
        if self._busy:  # the timer fired during a mark's sample
            return
        self._busy = True
        began = time.perf_counter()
        self.samples.append((began, sample(self.kernel)))
        self.spent_s += time.perf_counter() - began
        self._busy = False

    @contextmanager
    def during(self, periodic: bool) -> Iterator["Sampler"]:
        """Sample from the timer too while the block runs, if the kernel
        allows it and ``periodic`` is set (it is not in traced phases,
        whose spans the handler would pad)."""
        if not (periodic and self.kernel.periodic):
            yield self
            return
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> None:
        """Sample between two campaigns."""
        for _ in range(MARK_SAMPLES):
            self._tick()

    def scale(self, start: float, end: float) -> float:
        """The scale of a campaign that ran from ``start`` to ``end``."""
        return scale(self.kernel, [s for t, s in self.samples
                                   if start - WINDOW_S <= t <= end + WINDOW_S])


if __name__ == "__main__":
    for name, kernel in (("PYTHON", PYTHON), ("PROCESS", PROCESS)):
        times = " ".join(f"{sample(kernel) * 1e3:.2f}" for _ in range(10))
        print(f"{name}: {times} ms")
