"""Sigma-delta (ΣΔ) modulators and decimation filters.

The "Σ∆ prefi" / "Σ∆ pofi" blocks of the paper's Figure 1 (the ADSL
codec's oversampled converters): first- and second-order single-bit
modulators as TDF modules, a CIC (sinc^K) decimator, and fast NumPy
behavioural equivalents used by the refinement experiment (E12) as the
highest abstraction level.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..core.module import Module
from ..tdf.module import TdfModule
from ..tdf.signal import TdfIn, TdfOut


def _checked_full_scale(full_scale) -> float:
    """``full_scale`` as a float: an int would turn every output bit
    into an int (demoting the stream to object mode), and a
    non-positive value silently breaks the feedback loop."""
    value = float(full_scale)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(
            f"full_scale must be positive and finite, got {full_scale!r}")
    return value


# -- block kernels: each converter's one vector path, shared by its module's
# processing_block() and its L0 model.  Each repeats the scalar
# processing() arithmetic operation for operation, so it is
# bit-identical to it.


def _sd2_kernel(samples: list, i1: float, i2: float, feedback: float,
                full_scale: float):
    """Run the :class:`SigmaDelta2` loop over ``samples`` (a list of
    Python floats: the loop is sequential, and float arithmetic is
    cheaper than NumPy scalars).  Returns the bits and the final
    ``i1``, ``i2`` and feedback."""
    bits = [full_scale] * len(samples)
    for k, value in enumerate(samples):
        i1 += 0.5 * (value - feedback)
        i2 += 0.5 * (i1 - feedback)
        feedback = full_scale if i2 >= 0.0 else -full_scale
        bits[k] = feedback
    return bits, i1, i2, feedback


def _cic_kernel(samples: np.ndarray, factor: int, integrators: np.ndarray,
                combs: np.ndarray, gain: float) -> np.ndarray:
    """Run the :class:`CicDecimator` cascade over ``samples``: one output
    per ``factor`` inputs.  ``integrators`` and ``combs`` carry the stage
    values and are updated in place."""
    x = samples
    for i in range(len(integrators)):
        # accumulate is a sequential running sum, so starting it from
        # the carried value replays the scalar += chain exactly
        # (np.cumsum(x) + carried would round differently).
        x = np.add.accumulate(np.concatenate(([integrators[i]], x)))
        integrators[i] = x[-1]
        x = x[1:]
    x = x[factor - 1::factor]
    for i in range(len(combs)):
        # np.diff with the carried value prepended: value - delayed
        x = np.concatenate(([combs[i]], x))
        combs[i] = x[-1]
        x = np.diff(x)
    return x / gain


class SigmaDelta1(TdfModule):
    """First-order single-bit ΣΔ modulator.

    Discrete-time loop: ``integ += (in - fb); out = sign(integ)``.
    Input must stay within ``(-full_scale, +full_scale)``.
    """

    def __init__(self, name: str, full_scale: float = 1.0,
                 parent: Optional[Module] = None):
        super().__init__(name, parent)
        self.inp = TdfIn("inp")
        self.out = TdfOut("out")
        self.full_scale = _checked_full_scale(full_scale)
        self._integrator = 0.0
        self._feedback = 0.0

    def processing(self):
        self._integrator += self.inp.read() - self._feedback
        bit = self.full_scale if self._integrator >= 0.0 \
            else -self.full_scale
        self._feedback = bit
        self.out.write(bit)

    def checkpoint_state(self):
        return {"integrator": self._integrator,
                "feedback": self._feedback}

    def restore_state(self, data):
        if data is not None:
            self._integrator = float(data["integrator"])
            self._feedback = float(data["feedback"])


class SigmaDelta2(TdfModule):
    """Second-order single-bit ΣΔ modulator (CIFB structure).

    ``i1 += in - fb;  i2 += i1 - fb;  out = sign(i2)``, with the classic
    0.5 inter-stage scaling for stability.
    """

    def __init__(self, name: str, full_scale: float = 1.0,
                 parent: Optional[Module] = None):
        super().__init__(name, parent)
        self.inp = TdfIn("inp")
        self.out = TdfOut("out")
        self.full_scale = _checked_full_scale(full_scale)
        self._i1 = 0.0
        self._i2 = 0.0
        self._feedback = 0.0

    def processing(self):
        value = self.inp.read()
        self._i1 += 0.5 * (value - self._feedback)
        self._i2 += 0.5 * (self._i1 - self._feedback)
        bit = self.full_scale if self._i2 >= 0.0 else -self.full_scale
        self._feedback = bit
        self.out.write(bit)

    def processing_block(self, n):
        if not self.inp.block_readable():
            # Object-mode input: a block read would coerce its payloads.
            self._scalar_fallback(n)
            return
        bits, self._i1, self._i2, self._feedback = _sd2_kernel(
            self.inp.read_block(n).tolist(), self._i1, self._i2,
            self._feedback, self.full_scale)
        self.out.write_block(bits)

    def checkpoint_state(self):
        return {"i1": self._i1, "i2": self._i2,
                "feedback": self._feedback}

    def restore_state(self, data):
        if data is not None:
            self._i1 = float(data["i1"])
            self._i2 = float(data["i2"])
            self._feedback = float(data["feedback"])


class CicDecimator(TdfModule):
    """CIC (sinc^order) decimation filter.

    Consumes ``factor`` samples per activation, produces one.  The
    integrator/comb cascade has unity DC gain (normalized by
    ``factor**order``).
    """

    def __init__(self, name: str, factor: int, order: int = 2,
                 parent: Optional[Module] = None):
        super().__init__(name, parent)
        if factor < 2:
            raise ValueError("decimation factor must be >= 2")
        if order < 1:
            raise ValueError("CIC order must be >= 1")
        self.inp = TdfIn("inp", rate=factor)
        self.out = TdfOut("out")
        self.factor = factor
        self.order = order
        self._integrators = np.zeros(order)
        self._combs = np.zeros(order)
        self._gain = float(factor) ** order

    def processing(self):
        # Integrators run at the input rate.
        for k in range(self.factor):
            value = self.inp.read(k)
            for i in range(self.order):
                self._integrators[i] += value
                value = self._integrators[i]
        # Combs run at the output rate.
        value = self._integrators[-1]
        for i in range(self.order):
            delayed = self._combs[i]
            self._combs[i] = value
            value = value - delayed
        self.out.write(value / self._gain)

    def processing_block(self, n):
        if not self.inp.block_readable():
            # Object-mode input: a block read would coerce its payloads.
            self._scalar_fallback(n)
            return
        self.out.write_block(_cic_kernel(
            self.inp.read_block(n), self.factor, self._integrators,
            self._combs, self._gain))

    def checkpoint_state(self):
        return {"integrators": self._integrators.tolist(),
                "combs": self._combs.tolist()}

    def restore_state(self, data):
        if data is not None:
            self._integrators = np.asarray(data["integrators"],
                                           dtype=float)
            self._combs = np.asarray(data["combs"], dtype=float)


# -- behavioural (array) models: the top abstraction level of E12 -------------


def sigma_delta1_bitstream(samples: np.ndarray,
                           full_scale: float = 1.0) -> np.ndarray:
    """NumPy behavioural model of :class:`SigmaDelta1`."""
    x = np.asarray(samples, dtype=float)
    bits = np.empty_like(x)
    integrator = 0.0
    feedback = 0.0
    for k, value in enumerate(x):
        integrator += value - feedback
        feedback = full_scale if integrator >= 0.0 else -full_scale
        bits[k] = feedback
    return bits


def sigma_delta2_bitstream(samples: np.ndarray,
                           full_scale: float = 1.0) -> np.ndarray:
    """NumPy behavioural model of :class:`SigmaDelta2`."""
    x = np.asarray(samples, dtype=float)
    bits = _sd2_kernel(x.tolist(), 0.0, 0.0, 0.0, float(full_scale))[0]
    return np.array(bits, dtype=float)


def cic_decimate(bits: np.ndarray, factor: int,
                 order: int = 2) -> np.ndarray:
    """NumPy behavioural model of :class:`CicDecimator`."""
    return _cic_kernel(np.asarray(bits, dtype=float), factor,
                       np.zeros(order), np.zeros(order),
                       float(factor) ** order)
