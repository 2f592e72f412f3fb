"""Input holders: the bridge from sampled TDF inputs to continuous
source waveforms.

A continuous-time solver integrates over ``[t_{a-1}, t_a]`` while the TDF
side supplies samples at the endpoints.  An :class:`InputHolder` exposes
the sample pair as a callable waveform — zero-order hold or linear
interpolation (first-order hold) — that the solver's source functions
read during the step.  The built-in linear solver folds a holder's
interpolation into one operator per activation
(:meth:`~repro.ct.LinearTransientSolver.hold_inputs`), reading the
holder through ``value`` and :meth:`InputHolder.state`.
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

    def replay(self, values: np.ndarray, plan):
        """Vectorized :meth:`__call__` over a solver's window ``plan``
        (:class:`~repro.ct.solver_api.WindowPlan`), where ``values[a]``
        is the sample pushed at activation ``a``: the waveform at every
        step's end, and at every step's start where the plan reads it
        (else None), bit-identical to the scalar calls.  The plan's
        weights carry the times, so only the values are computed here.
        Leaves the holder as the last activation's :meth:`push` would.
        Only per-step windows replay holders: sparse sections and
        sections with time-waveform sources.
        """
        previous = np.empty(len(values))
        previous[0] = self.value
        previous[1:] = values[:-1]
        self.push_all(values, float(plan.t_prev[-1]), float(plan.times[-1]))
        owner = plan.owner
        if owner is not None:
            previous, values = previous[owner], values[owner]
        if not self.interpolate:
            return values, values
        at_end = held_values(plan.at_end, previous, values)
        if plan.starts is None:
            return at_end, None
        if owner is None:
            return at_end, previous  # every step starts at its t0
        return at_end, held_values(plan.at_start, previous, values)


def held_values(weights, previous, value):
    """Vectorized :meth:`InputHolder.__call__` of interpolating holders
    (per-step windows, see :meth:`InputHolder.replay`).

    Elementwise over the sample pairs ``previous`` (held at ``t0``) /
    ``value`` (at ``t1``, with ``t1 > t0``) and the instants'
    :class:`~repro.ct.solver_api.HoldWeights`; bit-identical to the
    scalar call per element.
    """
    interp = previous + weights.fraction * (value - previous)
    return np.where(weights.after, value,
                    np.where(weights.before, previous, interp))
