"""Host-speed calibration, so that time metrics compare across runs.

The benchmark runs on shared machines whose speed drifts by tens of
percent within minutes and flips between a fast and a slow state within
seconds, with every process on the machine slowed alike.  A fixed
calibration task is timed between the benchmark's operations (and right
after every batch of set-ups), so it samples the machine at the same
moments as the work.  A time t measured near calibration time c is
reported as t * REFERENCE_S / c: in seconds of the reference machine at
its usual speed.  Over a run, c is the mean of the task's times, not
the median: an operation of a second or more lives through the fast and
slow states in proportion, and so does the mean.  The task mimics the
solver's hot path on a small made-up network: a scalar function of
numpy scalars per link, arrays built from lists, and small numpy
products.  It touches nothing of the package, so a change to the
package cannot move it.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# Usual duration of one calibration task on the reference machine
# (README.md, "Machine and baseline").
REFERENCE_S = 4.0e-3
# Between operations, a task runs once this much time has passed since
# the last one (about 2 % of the run).
INTERVAL_S = 0.25
TASK_STEPS = 90  # about 4 ms

_T0 = [2.0 + 0.3 * i for i in range(13)]
_CAP = [1000.0 + 50.0 * i for i in range(13)]
_THETA = [0.6 + 0.02 * i for i in range(13)]
_INCIDENCE = (np.arange(6 * 13).reshape(6, 13) % 3 == 0).astype(float)


def _link_mean(i: int, v: float) -> float:
    x = v / (_CAP[i] * _THETA[i])
    return _T0[i] * (1.0 + 0.15 * x ** 4 * (1.0 + _THETA[i]) / 2.0)


def _link_var(i: int, v: float) -> float:
    x = v / _CAP[i]
    return (0.15 * _T0[i] * x ** 4) ** 2 * (1.0 - _THETA[i]) / 3.0


def task() -> float:
    """The calibration task: a fixed number of projected index steps."""
    f = np.full(6, 500.0)
    for _ in range(TASK_STEPS):
        v = _INCIDENCE.T @ f
        mean = np.array([_link_mean(i, x) for i, x in enumerate(v)])
        var = np.array([_link_var(i, x) for i, x in enumerate(v)])
        psi = _INCIDENCE @ mean + 1.28 * np.sqrt(_INCIDENCE @ var)
        f = np.maximum(f - 0.01 * (psi - psi.mean()), 0.0)
    return float(f @ psi)


@dataclass
class Speed:
    """Calibration samples of one run."""

    samples: list[float] = field(default_factory=list)
    spent: float = 0.0  # seconds spent calibrating, to leave out of wall times
    _last: float = field(default_factory=time.perf_counter)

    def sample(self) -> float:
        """Time one calibration task and return its duration."""
        t = time.perf_counter()
        task()
        c = time.perf_counter() - t
        self.samples.append(c)
        self.spent += c
        self._last = time.perf_counter()
        return c

    def tick(self) -> None:
        """Sample if INTERVAL_S has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self) -> float:
        """Factor from this run's seconds to reference seconds."""
        return REFERENCE_S / statistics.fmean(self.samples)
