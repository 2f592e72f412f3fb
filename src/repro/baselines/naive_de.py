"""The naive analog-on-DE baseline.

Before dedicated dataflow scheduling, analog blocks were modeled as
ordinary DE processes: each block owns a timed self-retriggering process
at the sample period and communicates through DE signals — so every
sample costs one event, one process activation, and one signal update
*per block*, and each signal change can wake downstream readers again
within the same timestep.  Bonnerud et al. (seed work [2]) introduced a
"virtual clock" exactly to avoid these needless executions.

Experiment E8 compares this baseline against the TDF cluster (one kernel
wake-up per cluster period, statically scheduled block executions) on
identical N-block gain chains.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..core.module import Module
from ..core.port import InPort
from ..core.signal import Signal
from ..core.simulator import Simulator
from ..core.time import SimTime
from ..lib.blocks import TdfSink
from ..lib.sources import FunctionSource
from ..tdf.module import TdfModule
from ..tdf.signal import TdfIn, TdfOut, TdfSignal


class NaiveAnalogSource(Module):
    """DE process emitting ``func(t)`` on a signal every ``timestep``."""

    def __init__(self, name: str, func: Callable[[float], float],
                 timestep: SimTime, parent: Optional[Module] = None):
        super().__init__(name, parent)
        self.func = func
        self.timestep = timestep
        self.out = Signal(f"{name}.out", initial=0.0)
        self.thread(self._run)

    def _run(self):
        from ..core.kernel import Kernel

        kernel = Kernel.current()
        while True:
            self.out.write(self.func(kernel.now_ticks * 1e-15))
            yield self.timestep


class NaiveAnalogBlock(Module):
    """DE process recomputing ``out = func(in)`` on every input change.

    This is the pathological pattern the virtual clock fixes: the block
    is *event-driven*, so it re-executes whenever its input signal
    changes — including redundant same-timestep re-evaluations in longer
    chains — rather than once per sample in schedule order.
    """

    def __init__(self, name: str, func: Callable[[float], float],
                 parent: Optional[Module] = None):
        super().__init__(name, parent)
        self.func = func
        self.inp = InPort("inp")
        self.out = Signal(f"{name}.out", initial=0.0)
        self.evaluations = 0
        self.method(self._evaluate, sensitivity=[self.inp],
                    dont_initialize=True)

    def _evaluate(self) -> None:
        self.evaluations += 1
        self.out.write(self.func(self.inp.read()))


class NaiveChain(Module):
    """Source -> N naive blocks -> sink, all on the DE kernel."""

    def __init__(self, n_blocks: int, timestep: SimTime,
                 source_func: Callable[[float], float],
                 block_func: Callable[[float], float]):
        super().__init__("naive_top")
        self.source = NaiveAnalogSource("src", source_func, timestep,
                                        parent=self)
        self.blocks: list[NaiveAnalogBlock] = []
        previous = self.source.out
        for k in range(n_blocks):
            block = NaiveAnalogBlock(f"blk{k}", block_func, parent=self)
            block.inp(previous)
            previous = block.out
            self.blocks.append(block)
        self.collected: list[float] = []
        self.method(
            lambda: self.collected.append(previous.read()),
            sensitivity=[previous], dont_initialize=True,
        )

    @property
    def total_evaluations(self) -> int:
        return sum(block.evaluations for block in self.blocks)


class _TdfChainBlock(TdfModule):
    def __init__(self, name: str, func, parent=None):
        super().__init__(name, parent)
        self.inp = TdfIn("inp")
        self.out = TdfOut("out")
        self.func = func

    def processing(self):
        self.out.write(self.func(self.inp.read()))


class TdfChain(Module):
    """The same chain as a single TDF cluster."""

    def __init__(self, n_blocks: int, timestep: SimTime,
                 source_func, block_func):
        super().__init__("tdf_top")
        self.source = FunctionSource("src", source_func, parent=self,
                                     timestep=timestep)
        signal = TdfSignal("s0")
        self.source.out(signal)
        self.blocks = []
        for k in range(n_blocks):
            block = _TdfChainBlock(f"blk{k}", block_func, parent=self)
            block.inp(signal)
            signal = TdfSignal(f"s{k + 1}")
            block.out(signal)
            self.blocks.append(block)
        self.sink = TdfSink("sink", self)
        self.sink.inp(signal)

    @property
    def total_evaluations(self) -> int:
        return sum(block.activation_count for block in self.blocks)


def run_naive_chain(n_blocks: int, n_samples: int,
                    timestep: SimTime = SimTime(1, "us")):
    """Run the DE baseline chain; returns (samples, stats dict)."""
    top = NaiveChain(n_blocks, timestep,
                     source_func=lambda t: np.sin(2e4 * np.pi * t),
                     block_func=lambda v: 1.01 * v + 1e-4)
    simulator = Simulator(top)
    simulator.run(timestep * n_samples)
    return np.asarray(top.collected), {
        "block_evaluations": top.total_evaluations,
        "kernel_activations": simulator.kernel.activation_count,
        "delta_cycles": simulator.kernel.delta_count,
    }


def run_tdf_chain(n_blocks: int, n_samples: int,
                  timestep: SimTime = SimTime(1, "us")):
    """Run the TDF cluster chain; returns (samples, stats dict)."""
    top = TdfChain(n_blocks, timestep,
                   source_func=lambda t: np.sin(2e4 * np.pi * t),
                   block_func=lambda v: 1.01 * v + 1e-4)
    simulator = Simulator(top)
    simulator.run(timestep * n_samples)
    return np.asarray(top.sink.samples), {
        "block_evaluations": top.total_evaluations,
        "kernel_activations": simulator.kernel.activation_count,
        "delta_cycles": simulator.kernel.delta_count,
    }
