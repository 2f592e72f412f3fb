"""Input holders: the bridge from sampled TDF inputs to continuous
source waveforms.

A continuous-time solver integrates over ``[t_{a-1}, t_a]`` while the TDF
side supplies samples at the endpoints.  An :class:`InputHolder` exposes
the sample pair as a callable waveform — zero-order hold or linear
interpolation (first-order hold) — that the solver's source functions
read during the step.
"""

from __future__ import annotations

import numpy as np


class InputHolder:
    """A sampled input viewed as a continuous waveform."""

    __slots__ = ("value", "_previous", "_t0", "_t1", "interpolate")

    def __init__(self, initial: float = 0.0, interpolate: bool = True):
        self.value = initial
        self._previous = initial
        self._t0 = 0.0
        self._t1 = 0.0
        self.interpolate = interpolate

    def push(self, value: float, t_prev: float, t_now: float) -> None:
        """Record the new sample ``value`` at ``t_now``; the previous
        sample is taken to hold at ``t_prev``."""
        self._previous = self.value
        self.value = value
        self._t0 = t_prev
        self._t1 = t_now

    def __call__(self, t: float) -> float:
        if not self.interpolate or self._t1 <= self._t0:
            return self.value
        if t <= self._t0:
            return self._previous
        if t >= self._t1:
            return self.value
        fraction = (t - self._t0) / (self._t1 - self._t0)
        return self._previous + fraction * (self.value - self._previous)


def held_values(t, t0, t1, previous, value):
    """Vectorized :meth:`InputHolder.__call__` of interpolating holders.

    Elementwise over instants ``t`` and sample pairs ``previous`` (held
    at ``t0``) / ``value`` (at ``t1``), with ``t1 > t0``; bit-identical
    to the scalar call per element.
    """
    fraction = (t - t0) / (t1 - t0)
    interp = previous + fraction * (value - previous)
    return np.where(t >= t1, value, np.where(t <= t0, previous, interp))
