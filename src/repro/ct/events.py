"""Threshold-crossing detection for continuous waveforms.

The synchronization layer uses these helpers to convert continuous-time
behaviour into discrete events (comparators, zero-cross detectors,
switch-mode controllers): crossings are localized between solver
timepoints by interpolation or bisection.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

RISING = "rising"
FALLING = "falling"
EITHER = "either"


def linear_crossing(
    t0: float, v0: float, t1: float, v1: float,
    threshold: float, direction: str = EITHER,
) -> Optional[float]:
    """Crossing time of the segment (t0,v0)-(t1,v1) through ``threshold``.

    Returns None when the segment does not cross (or only touches from
    the disallowed direction).  A sample landing exactly on the threshold
    counts as a crossing at that sample.
    """
    d0, d1 = v0 - threshold, v1 - threshold
    if d0 == 0.0 and d1 == 0.0:
        return None
    rising = d0 < d1
    if direction == RISING and not rising:
        return None
    if direction == FALLING and rising:
        return None
    if d0 == 0.0:
        return None  # crossing was already reported at the previous sample
    if d1 == 0.0:
        return t1
    if (d0 > 0) == (d1 > 0):
        return None
    fraction = d0 / (d0 - d1)
    return t0 + fraction * (t1 - t0)


def refine_crossing(
    waveform: Callable[[float], float],
    t_lo: float,
    t_hi: float,
    threshold: float = 0.0,
    tolerance: float = 1e-12,
    max_iterations: int = 200,
) -> float:
    """Bisection localization of a sign change of ``waveform - threshold``.

    ``waveform(t_lo)`` and ``waveform(t_hi)`` must bracket the threshold.
    """
    f_lo = waveform(t_lo) - threshold
    f_hi = waveform(t_hi) - threshold
    if f_lo == 0.0:
        return t_lo
    if f_hi == 0.0:
        return t_hi
    if (f_lo > 0) == (f_hi > 0):
        raise ValueError(
            f"interval [{t_lo}, {t_hi}] does not bracket threshold "
            f"{threshold}"
        )
    for _ in range(max_iterations):
        t_mid = 0.5 * (t_lo + t_hi)
        f_mid = waveform(t_mid) - threshold
        if f_mid == 0.0 or (t_hi - t_lo) < tolerance:
            return t_mid
        if (f_mid > 0) == (f_lo > 0):
            t_lo, f_lo = t_mid, f_mid
        else:
            t_hi, f_hi = t_mid, f_mid
    return 0.5 * (t_lo + t_hi)


class CrossingDetector:
    """Streaming detector fed sample-by-sample by a solver loop."""

    def __init__(self, threshold: float, direction: str = EITHER):
        if direction not in (RISING, FALLING, EITHER):
            raise ValueError(f"unknown direction {direction!r}")
        self.threshold = threshold
        self.direction = direction
        self._last: Optional[tuple[float, float]] = None
        self.crossings: list[float] = []

    def feed(self, t: float, v: float) -> Optional[float]:
        """Record a sample; return a crossing time if one occurred."""
        crossing = None
        if self._last is not None:
            t0, v0 = self._last
            crossing = linear_crossing(
                t0, v0, t, v, self.threshold, self.direction
            )
            if crossing is not None:
                self.crossings.append(crossing)
        self._last = (t, v)
        return crossing

    def reset(self) -> None:
        self._last = None
        self.crossings = []


def sampled_crossings(
    times: np.ndarray,
    values: np.ndarray,
    threshold: float = 0.0,
    direction: str = EITHER,
) -> np.ndarray:
    """All interpolated crossing times of a sampled waveform."""
    detector = CrossingDetector(threshold, direction)
    for t, v in zip(np.asarray(times), np.asarray(values)):
        detector.feed(float(t), float(v))
    return np.asarray(detector.crossings)
