"""Machine-speed calibration for the benchmark's timings.

On shared virtual machines a neighbour loading the same host core slows
this process by up to about 1.8x for tens of seconds at a time, so whole
runs land in a fast or a slow phase. Each timed operation is therefore
bracketed by a fixed calibration kernel, and its wall time is rescaled to
reference speed:

    reference seconds = wall seconds * REFERENCE_S / (mean calibration time around it)

The kernel mixes the two kinds of work the program does: frozen-dataclass
and tuple churn in the interpreter (circuit construction) and numpy
gather/scatter over a state-sized array (gate application). It uses no
holcus code, so a change to the program cannot move it. REFERENCE_S only
fixes the unit: it is the kernel's median time on an uncontended 2-vCPU
Xeon host, so reference seconds read as wall seconds there.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 1.7e-3
# Untimed calls first: right after an operation the caches hold its data,
# and timing a cold kernel would tie the calibration to the program's
# memory footprint.
WARM_REPS = 2
REPS = 15

# Preallocated, so the kernel's time does not depend on the allocator state
# the program leaves behind.
_QUBITS = 16
_STATE = np.full(1 << _QUBITS, 2.0 ** (-_QUBITS / 2), dtype=np.complex128)
_BASE = np.flatnonzero((np.arange(1 << _QUBITS) >> 5) & 1 == 0)
_PAIR = np.stack([_BASE, _BASE + 32])
_GATHERED = np.empty(_PAIR.shape, dtype=np.complex128)
_PRODUCT = np.empty(_PAIR.shape, dtype=np.complex128)
_MATRIX = np.array([[0.6, 0.8j], [0.8j, 0.6]], dtype=np.complex128)


@dataclass(frozen=True)
class _Item:
    kind: str
    qubits: tuple[int, ...]
    value: float

    def __post_init__(self):
        if not self.qubits:
            raise ValueError("item needs qubits")


def kernel() -> None:
    items: tuple[_Item, ...] = ()
    for i in range(480):
        items = items + (_Item("EXP_ZZ", (i % 7, (i + 3) % 11), 0.5 * i),)
    np.take(_STATE, _PAIR, out=_GATHERED)
    np.matmul(_MATRIX, _GATHERED, out=_PRODUCT)
    np.put(_STATE, _PAIR, _PRODUCT)


def measure() -> float:
    """Mean wall time of the kernel over REPS calls, after WARM_REPS untimed
    ones. The mean, like an operation's own time, integrates the machine's
    speed over the window."""
    for _ in range(WARM_REPS):
        kernel()
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


class Timer:
    """Times operations in reference seconds; keeps the raw wall times too."""

    def __init__(self):
        self._last = measure()
        self.raw: list[float] = []

    def mark(self) -> None:
        """Re-measure machine speed at an operation boundary."""
        self._last = measure()

    def scale(self, wall: float, before: float) -> float:
        """Rescale a wall time measured between a calibration `before` and now."""
        self.mark()
        self.raw.append(wall)
        return wall * REFERENCE_S / ((before + self._last) / 2.0)

    def time(self, fn, *args):
        """(result, reference seconds) of fn(*args), calibrated before and after."""
        before = self._last
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0
        return out, self.scale(wall, before)

    @property
    def last(self) -> float:
        return self._last
