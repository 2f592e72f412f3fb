"""Input holders: the bridge from sampled TDF inputs to continuous
source waveforms.

A continuous-time solver integrates over ``[t_{a-1}, t_a]`` while the TDF
side supplies samples at the endpoints.  An :class:`InputHolder` exposes
the sample pair as a callable waveform — zero-order hold or linear
interpolation (first-order hold) — that the solver's source functions
read during the step.  The built-in linear solver folds a holder's
interpolation into the operator it steps each activation with
(:meth:`~repro.ct.LinearTransientSolver.hold_inputs`), reading the
holder through ``value`` and :meth:`InputHolder.state`.
"""

from __future__ import annotations


class InputHolder:
    """A sampled input viewed as a continuous waveform."""

    __slots__ = ("value", "_previous", "_t0", "_t1", "interpolate")

    def __init__(self, initial: float = 0.0, interpolate: bool = True):
        self.value = initial
        self._previous = initial
        self._t0 = 0.0
        self._t1 = 0.0
        self.interpolate = interpolate

    def reset(self, value: float) -> None:
        """Hold ``value`` as both the current and the previous sample."""
        self.value = self._previous = value

    def push(self, value: float, t_prev: float, t_now: float) -> None:
        """Record the new sample ``value`` at ``t_now``; the previous
        sample is taken to hold at ``t_prev``."""
        self._previous = self.value
        self.value = value
        self._t0 = t_prev
        self._t1 = t_now

    def push_all(self, values, t_prev: float, t_now: float) -> None:
        """Leave the holder as pushing each of ``values`` in turn would,
        the last one over ``(t_prev, t_now)``."""
        self._previous = float(values[-2]) if len(values) >= 2 \
            else self.value
        self.value = float(values[-1])
        self._t0 = t_prev
        self._t1 = t_now

    def state(self) -> tuple:
        """``(value, previous, t_prev, t_now)``, for checkpoints and
        the solver's activation operator."""
        return (self.value, self._previous, self._t0, self._t1)

    def load_state(self, state) -> None:
        """Reinstall a :meth:`state` tuple."""
        self.value, self._previous, self._t0, self._t1 = state

    def __call__(self, t: float) -> float:
        if not self.interpolate or self._t1 <= self._t0:
            return self.value
        if t <= self._t0:
            return self._previous
        if t >= self._t1:
            return self.value
        fraction = (t - self._t0) / (self._t1 - self._t0)
        return self._previous + fraction * (self.value - self._previous)
