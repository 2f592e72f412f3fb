"""Functional signal-flow blocks: amplifiers, mixers, comparators,
sample-and-hold, sinks.

These are the "more complex functional (signal-flow) models, e.g.
amplifiers, converters" of the paper's Phase 2 library, modeled as TDF
modules.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..core.module import Module
from ..core.time import SimTime
from ..tdf.module import TdfDeOut, TdfModule
from ..tdf.signal import TdfIn, TdfOut
from .seeding import SeedLike, as_generator


class TdfSink(TdfModule):
    """Records all consumed samples together with their sample times.

    A block keeps its samples and times as arrays, and the ``samples``
    and ``times`` lists take them in on first read: until a run's
    record is read it holds a few arrays, not a Python float per
    sample.  Scalar activations append to the lists directly.
    """

    def __init__(self, name: str, parent: Optional[Module] = None,
                 rate: int = 1):
        super().__init__(name, parent)
        self.inp = TdfIn("inp", rate=rate)
        self._samples: list = []
        self._times: list[float] = []
        #: ``(list position, samples, times)`` of the blocks not yet in
        #: the lists: each goes in after the first ``position`` entries
        self._blocks: list = []

    @property
    def samples(self) -> list:
        if self._blocks:
            self._settle()
        return self._samples

    @property
    def times(self) -> list[float]:
        if self._blocks:
            self._settle()
        return self._times

    def _settle(self) -> None:
        """Move the pending blocks into the lists, each after the scalar
        samples that preceded it."""
        positions, samples, times = zip(*self._blocks)
        self._blocks = []
        if positions[0] == len(self._samples):  # no scalar sample between
            self._samples += np.concatenate(samples).tolist()
            self._times += np.concatenate(times).tolist()
            return
        # last block first, so each earlier position still holds
        for position, block_samples, block_times in zip(
                positions[::-1], samples[::-1], times[::-1]):
            self._samples[position:position] = block_samples.tolist()
            self._times[position:position] = block_times.tolist()

    def processing(self):
        base = self.local_time.to_seconds()
        step = self.timestep.to_seconds() / self.inp.rate
        for k in range(self.inp.rate):
            self._samples.append(self.inp.read(k))
            self._times.append(base + k * step)

    def processing_block(self, n):
        if not self.inp.block_readable():
            # Object-mode stream: keep the raw payloads (a block read
            # would coerce them to float).
            self._scalar_fallback(n)
            return
        # a copy: the read may be a view of the signal's buffer
        self._blocks.append((len(self._samples),
                             np.array(self.inp.read_block(n)),
                             self.sample_times(n, self.inp.rate)))

    def as_arrays(self):
        return np.asarray(self.times), np.asarray(self.samples)

    def checkpoint_state(self):
        if self._blocks:
            self._settle()
        return {"samples": list(self._samples),
                "times": list(self._times)}

    def restore_state(self, data):
        if data is not None:
            self._blocks = []
            self._samples = list(data["samples"])
            self._times = list(data["times"])


class LinearAmp(TdfModule):
    """``out = gain * in + offset``."""

    def __init__(self, name: str, gain: float, offset: float = 0.0,
                 parent: Optional[Module] = None):
        super().__init__(name, parent)
        self.inp = TdfIn("inp")
        self.out = TdfOut("out")
        self.gain = gain
        self.offset = offset

    def processing(self):
        self.out.write(self.gain * self.inp.read() + self.offset)

    def processing_block(self, n):
        self.out.write_block(
            self.gain * self.inp.read_block(n) + self.offset
        )


class SaturatingAmp(TdfModule):
    """Amplifier with output saturation.

    ``mode='hard'`` clips at the rails; ``mode='tanh'`` saturates
    smoothly (``limit * tanh(gain * x / limit)``), the usual behavioural
    model of a real amplifier's compression.
    """

    def __init__(self, name: str, gain: float, limit: float,
                 mode: str = "tanh",
                 parent: Optional[Module] = None):
        super().__init__(name, parent)
        if mode not in ("hard", "tanh"):
            raise ValueError(f"unknown saturation mode {mode!r}")
        if limit <= 0:
            raise ValueError("saturation limit must be positive")
        self.inp = TdfIn("inp")
        self.out = TdfOut("out")
        self.gain = gain
        self.limit = limit
        self.mode = mode

    def processing(self):
        raw = self.gain * self.inp.read()
        if self.mode == "hard":
            value = float(np.clip(raw, -self.limit, self.limit))
        else:
            value = self.limit * float(np.tanh(raw / self.limit))
        self.out.write(value)

    def processing_block(self, n):
        raw = self.gain * self.inp.read_block(n)
        if self.mode == "hard":
            self.out.write_block(np.clip(raw, -self.limit, self.limit))
        else:
            self.out.write_block(self.limit * np.tanh(raw / self.limit))


class Vga(TdfModule):
    """Variable-gain amplifier: ``out = in * 10**(gain_db/20)`` where the
    gain in dB is itself a TDF input."""

    def __init__(self, name: str, parent: Optional[Module] = None):
        super().__init__(name, parent)
        self.inp = TdfIn("inp")
        self.gain_db = TdfIn("gain_db")
        self.out = TdfOut("out")

    def processing(self):
        # np.power (not the ** operator) so the scalar and block paths
        # share one libm entry point and stay bit-identical.
        gain = np.power(10.0, self.gain_db.read() / 20.0)
        self.out.write(gain * self.inp.read())

    def processing_block(self, n):
        gain = np.power(10.0, self.gain_db.read_block(n) / 20.0)
        self.out.write_block(gain * self.inp.read_block(n))


class Mixer(TdfModule):
    """Multiplying mixer with conversion gain."""

    def __init__(self, name: str, gain: float = 1.0,
                 parent: Optional[Module] = None):
        super().__init__(name, parent)
        self.rf = TdfIn("rf")
        self.lo = TdfIn("lo")
        self.out = TdfOut("out")
        self.gain = gain

    def processing(self):
        self.out.write(self.gain * self.rf.read() * self.lo.read())

    def processing_block(self, n):
        self.out.write_block(
            self.gain * self.rf.read_block(n) * self.lo.read_block(n)
        )


class QuadratureOscillator(TdfModule):
    """Emits cos (I) and sin (Q) of a running phase."""

    def __init__(self, name: str, frequency: float, phase: float = 0.0,
                 amplitude: float = 1.0,
                 quadrature_error: float = 0.0,
                 gain_imbalance: float = 0.0,
                 parent: Optional[Module] = None,
                 timestep: Optional[SimTime] = None):
        super().__init__(name, parent)
        self.i_out = TdfOut("i_out")
        self.q_out = TdfOut("q_out")
        self.frequency = frequency
        self.phase = phase
        self.amplitude = amplitude
        #: phase error [rad] applied to the Q rail only (I/Q imbalance).
        self.quadrature_error = quadrature_error
        #: relative amplitude error of the Q rail.
        self.gain_imbalance = gain_imbalance
        self._timestep = timestep

    def set_attributes(self):
        if self._timestep is not None:
            self.set_timestep(self._timestep)

    def processing(self):
        angle = (2 * np.pi * self.frequency * self.local_time.to_seconds()
                 + self.phase)
        self.i_out.write(self.amplitude * np.cos(angle))
        self.q_out.write(
            self.amplitude * (1.0 + self.gain_imbalance)
            * np.sin(angle + self.quadrature_error)
        )

    def processing_block(self, n):
        angle = (2 * np.pi * self.frequency * self.activation_times(n)
                 + self.phase)
        self.i_out.write_block(self.amplitude * np.cos(angle))
        self.q_out.write_block(
            self.amplitude * (1.0 + self.gain_imbalance)
            * np.sin(angle + self.quadrature_error)
        )


class Comparator(TdfModule):
    """Threshold comparator with optional hysteresis and input offset.

    Outputs ``high`` / ``low`` levels on a TDF port; with
    ``de_output=True``, also drives a boolean DE signal through a
    converter port (``self.de_out``).
    """

    def __init__(self, name: str, threshold: float = 0.0,
                 hysteresis: float = 0.0, offset: float = 0.0,
                 high: float = 1.0, low: float = 0.0,
                 de_output: bool = False,
                 parent: Optional[Module] = None):
        super().__init__(name, parent)
        self.inp = TdfIn("inp")
        self.out = TdfOut("out")
        self.threshold = threshold
        self.hysteresis = hysteresis
        self.offset = offset
        self.high = high
        self.low = low
        self._state = False
        self.de_out = TdfDeOut("de_out") if de_output else None

    def processing(self):
        value = self.inp.read() + self.offset
        half = self.hysteresis / 2.0
        if self._state:
            if value < self.threshold - half:
                self._state = False
        else:
            if value > self.threshold + half:
                self._state = True
        level = self.high if self._state else self.low
        self.out.write(level)
        if self.de_out is not None:
            self.de_out.write(self._state)

    def processing_block(self, n):
        high, low = self.high, self.low
        if not (self.inp.block_readable() and type(high) is float
                and type(low) is float):
            # Raw payloads and non-float levels (a scalar int write
            # demotes the output stream) keep the scalar path.
            self._scalar_fallback(n)
            return
        offset = self.offset
        half = self.hysteresis / 2.0
        upper = self.threshold + half
        lower = self.threshold - half
        state = self._state
        states = []
        for sample in self.inp.read_block(n).tolist():
            value = sample + offset
            if state:
                if value < lower:
                    state = False
            elif value > upper:
                state = True
            states.append(state)
        self._state = state
        self.out.write_block([high if on else low for on in states])
        if self.de_out is not None:
            self.de_out.write_block(states)

    def checkpoint_state(self):
        return {"state": self._state}

    def restore_state(self, data):
        if data is not None:
            self._state = bool(data["state"])


class SampleHold(TdfModule):
    """Decimating sample-and-hold: samples every ``factor``-th input and
    holds it for ``factor`` output samples (aperture jitter optional)."""

    def __init__(self, name: str, factor: int = 1,
                 jitter_rms: float = 0.0, seed: SeedLike = 0,
                 parent: Optional[Module] = None):
        super().__init__(name, parent)
        if factor < 1:
            raise ValueError("decimation factor must be >= 1")
        self.inp = TdfIn("inp", rate=factor)
        self.out = TdfOut("out", rate=factor)
        self.factor = factor
        self.jitter_rms = jitter_rms
        self._rng = as_generator(seed)
        self._held = 0.0

    def processing(self):
        samples = [self.inp.read(k) for k in range(self.factor)]
        if self.jitter_rms > 0.0 and self.factor > 1:
            # Aperture jitter: perturb the sampling instant by
            # interpolating between neighbouring samples.
            shift = self._rng.normal(0.0, self.jitter_rms)
            shift = float(np.clip(shift, 0.0, self.factor - 1.0))
            k = int(shift)
            frac = shift - k
            k2 = min(k + 1, self.factor - 1)
            self._held = samples[k] * (1 - frac) + samples[k2] * frac
        else:
            self._held = samples[0]
        for k in range(self.factor):
            self.out.write(self._held, k)

    def processing_block(self, n):
        if self.jitter_rms > 0.0 and self.factor > 1:
            # The jitter path draws one RNG sample per activation and
            # interpolates data-dependently; replay it sequentially.
            self._scalar_fallback(n)
            return
        frames = self.inp.read_block(n).reshape(n, self.factor)
        held = frames[:, 0]
        self.out.write_block(np.repeat(held, self.factor))
        self._held = float(held[-1])

    def checkpoint_state(self):
        return {"held": self._held,
                "rng": self._rng.bit_generator.state}

    def restore_state(self, data):
        if data is not None:
            self._held = float(data["held"])
            self._rng.bit_generator.state = data["rng"]


class DeadbandBlock(TdfModule):
    """Deadband nonlinearity: zero output within +/- width/2."""

    def __init__(self, name: str, width: float,
                 parent: Optional[Module] = None):
        super().__init__(name, parent)
        if width < 0:
            raise ValueError("deadband width must be non-negative")
        self.inp = TdfIn("inp")
        self.out = TdfOut("out")
        self.half = width / 2.0

    def processing(self):
        value = self.inp.read()
        if value > self.half:
            self.out.write(value - self.half)
        elif value < -self.half:
            self.out.write(value + self.half)
        else:
            self.out.write(0.0)

    def processing_block(self, n):
        x = self.inp.read_block(n)
        self.out.write_block(np.where(
            x > self.half, x - self.half,
            np.where(x < -self.half, x + self.half, 0.0),
        ))


class MapBlock(TdfModule):
    """Applies an arbitrary unary function sample-by-sample."""

    def __init__(self, name: str, func: Callable[[float], float],
                 parent: Optional[Module] = None):
        super().__init__(name, parent)
        self.inp = TdfIn("inp")
        self.out = TdfOut("out")
        self.func = func

    def processing(self):
        self.out.write(float(self.func(self.inp.read())))

    def processing_block(self, n):
        # The callable stays scalar (arbitrary Python); batch the I/O.
        x = self.inp.read_block(n)
        self.out.write_block(np.fromiter(
            (float(self.func(float(v))) for v in x),
            dtype=float, count=len(x),
        ))


class Add2(TdfModule):
    """Two-input adder with weights."""

    def __init__(self, name: str, wa: float = 1.0, wb: float = 1.0,
                 parent: Optional[Module] = None):
        super().__init__(name, parent)
        self.a = TdfIn("a")
        self.b = TdfIn("b")
        self.out = TdfOut("out")
        self.wa = wa
        self.wb = wb

    def processing(self):
        self.out.write(self.wa * self.a.read() + self.wb * self.b.read())

    def processing_block(self, n):
        self.out.write_block(
            self.wa * self.a.read_block(n)
            + self.wb * self.b.read_block(n)
        )
