"""A library of reusable SDF actors.

These cover the operations the paper attributes to "signal processing
dominated applications": arithmetic on streams, rate conversion, FIR
filtering, sources and sinks.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .graph import Actor


class Source(Actor):
    """Produces tokens by calling ``generator(index)`` once per token."""

    def __init__(self, name: str, generator: Callable[[int], object],
                 rate: int = 1):
        super().__init__(name, output_rates={"out": rate})
        self.generator = generator
        self._index = 0

    def fire(self, inputs):
        rate = self.output_rates["out"]
        values = [self.generator(self._index + i) for i in range(rate)]
        self._index += rate
        return {"out": values}

    def reset(self):
        super().reset()
        self._index = 0


class Const(Source):
    """Produces a constant token stream."""

    def __init__(self, name: str, value, rate: int = 1):
        super().__init__(name, lambda _i, v=value: v, rate)


class Ramp(Source):
    """Produces ``offset + slope * n`` for sample index n."""

    def __init__(self, name: str, slope=1.0, offset=0.0, rate: int = 1):
        super().__init__(name, lambda i: offset + slope * i, rate)


class Sink(Actor):
    """Collects all consumed tokens into :attr:`collected`."""

    def __init__(self, name: str, rate: int = 1):
        super().__init__(name, input_rates={"in": rate})
        self.collected: list = []

    def fire(self, inputs):
        self.collected.extend(inputs["in"])
        return {}

    def reset(self):
        super().reset()
        self.collected = []

    def as_array(self) -> np.ndarray:
        return np.asarray(self.collected)


class Map(Actor):
    """Applies a unary function token-by-token."""

    def __init__(self, name: str, func: Callable, rate: int = 1):
        super().__init__(name, input_rates={"in": rate},
                         output_rates={"out": rate})
        self.func = func

    def fire(self, inputs):
        return {"out": [self.func(v) for v in inputs["in"]]}


class Gain(Map):
    """Multiplies each token by a constant."""

    def __init__(self, name: str, gain: float, rate: int = 1):
        super().__init__(name, lambda v, g=gain: v * g, rate)
        self.gain = gain


class Add(Actor):
    """Token-wise sum of two input streams."""

    def __init__(self, name: str, rate: int = 1):
        super().__init__(name, input_rates={"a": rate, "b": rate},
                         output_rates={"out": rate})

    def fire(self, inputs):
        return {"out": [a + b for a, b in zip(inputs["a"], inputs["b"])]}


class Sub(Actor):
    """Token-wise difference ``a - b``."""

    def __init__(self, name: str, rate: int = 1):
        super().__init__(name, input_rates={"a": rate, "b": rate},
                         output_rates={"out": rate})

    def fire(self, inputs):
        return {"out": [a - b for a, b in zip(inputs["a"], inputs["b"])]}


class Mul(Actor):
    """Token-wise product (e.g. a mixer in a dataflow receiver)."""

    def __init__(self, name: str, rate: int = 1):
        super().__init__(name, input_rates={"a": rate, "b": rate},
                         output_rates={"out": rate})

    def fire(self, inputs):
        return {"out": [a * b for a, b in zip(inputs["a"], inputs["b"])]}


class Downsample(Actor):
    """Consumes ``factor`` tokens, produces the first of each group."""

    def __init__(self, name: str, factor: int):
        super().__init__(name, input_rates={"in": factor},
                         output_rates={"out": 1})
        self.factor = factor

    def fire(self, inputs):
        return {"out": [inputs["in"][0]]}


class Upsample(Actor):
    """Consumes one token, produces it followed by ``factor - 1`` zeros."""

    def __init__(self, name: str, factor: int, fill=0.0):
        super().__init__(name, input_rates={"in": 1},
                         output_rates={"out": factor})
        self.factor = factor
        self.fill = fill

    def fire(self, inputs):
        return {"out": [inputs["in"][0]] + [self.fill] * (self.factor - 1)}


class Fir(Actor):
    """Direct-form FIR filter over the token stream (stateful)."""

    def __init__(self, name: str, taps: Sequence[float], rate: int = 1):
        super().__init__(name, input_rates={"in": rate},
                         output_rates={"out": rate})
        self.taps = np.asarray(taps, dtype=float)
        self._history = np.zeros(len(self.taps))

    def fire(self, inputs):
        out = []
        for value in inputs["in"]:
            self._history = np.roll(self._history, 1)
            self._history[0] = value
            out.append(float(self.taps @ self._history))
        return {"out": out}

    def reset(self):
        super().reset()
        self._history = np.zeros(len(self.taps))


class Accumulator(Actor):
    """Running sum of the input stream."""

    def __init__(self, name: str, rate: int = 1, initial: float = 0.0):
        super().__init__(name, input_rates={"in": rate},
                         output_rates={"out": rate})
        self.initial = initial
        self._state = initial

    def fire(self, inputs):
        out = []
        for value in inputs["in"]:
            self._state += value
            out.append(self._state)
        return {"out": out}

    def reset(self):
        super().reset()
        self._state = self.initial


class Fork(Actor):
    """Copies one input stream onto two outputs."""

    def __init__(self, name: str, rate: int = 1):
        super().__init__(name, input_rates={"in": rate},
                         output_rates={"a": rate, "b": rate})

    def fire(self, inputs):
        return {"a": list(inputs["in"]), "b": list(inputs["in"])}


class Interleave(Actor):
    """Alternates tokens from two inputs onto one double-rate output."""

    def __init__(self, name: str, rate: int = 1):
        super().__init__(name, input_rates={"a": rate, "b": rate},
                         output_rates={"out": 2 * rate})

    def fire(self, inputs):
        out = []
        for a, b in zip(inputs["a"], inputs["b"]):
            out.extend((a, b))
        return {"out": out}


class Deinterleave(Actor):
    """Splits a double-rate input into two single-rate outputs."""

    def __init__(self, name: str, rate: int = 1):
        super().__init__(name, input_rates={"in": 2 * rate},
                         output_rates={"a": rate, "b": rate})

    def fire(self, inputs):
        tokens = inputs["in"]
        return {"a": tokens[0::2], "b": tokens[1::2]}
