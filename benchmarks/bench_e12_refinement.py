"""E12 — Grimm top-down refinement flow (seed [9]).

The same ΣΔ ADC at three abstraction levels, "from high-level
mathematical models to more physical, pin-accurate, models":

* **L0 math** — vectorized NumPy behavioural model (no kernel at all);
* **L1 signal-flow** — TDF modulator + CIC in the scheduled cluster;
* **L2 pin-accurate** — L1 plus the continuous anti-alias front-end
  (an ELN RC solved by MNA) ahead of the modulator.

Accuracy (ENOB) stays essentially constant through refinement while the
simulation cost grows — the trade the methodology is about.
"""

import time

import numpy as np

from conftest import print_table
from repro.analysis import ToneAnalysis, coherent_tone_frequency
from repro.core import Module, SimTime, Simulator
from repro.eln import Capacitor, Network, Resistor, Vsource
from repro.lib import (
    CicDecimator,
    SigmaDelta2,
    SineSource,
    TdfSink,
    cic_decimate,
    sigma_delta2_bitstream,
)
from repro.sync import ElnTdfModule
from repro.tdf import TdfSignal

FS = 1e6
OSR = 32
N = 1 << 15
FS_DEC = FS / OSR
F_TONE = coherent_tone_frequency(FS_DEC, 512, 1.5e3)
AMPLITUDE = 0.5


def enob_of(decimated: np.ndarray) -> float:
    tail = decimated[len(decimated) - 512:]
    return ToneAnalysis(tail, FS_DEC, tone_frequency=F_TONE).enob


def level0_math():
    t = np.arange(N) / FS
    x = AMPLITUDE * np.sin(2 * np.pi * F_TONE * t)
    bits = sigma_delta2_bitstream(x)
    return cic_decimate(bits, OSR, order=3)


class Level1Top(Module):
    def __init__(self):
        super().__init__("l1")
        self.src = SineSource("src", frequency=F_TONE,
                              amplitude=AMPLITUDE, parent=self,
                              timestep=SimTime(1, "us"))
        self.sd = SigmaDelta2("sd", parent=self)
        self.cic = CicDecimator("cic", factor=OSR, order=3, parent=self)
        self.sink = TdfSink("sink", self)
        a, b, c = TdfSignal("a"), TdfSignal("b"), TdfSignal("c")
        self.src.out(a)
        self.sd.inp(a)
        self.sd.out(b)
        self.cic.inp(b)
        self.cic.out(c)
        self.sink.inp(c)


class Level2Top(Module):
    """Pin-accurate front: the tone passes a physical RC anti-alias
    network (corner ~50 kHz) before the modulator."""

    def __init__(self):
        super().__init__("l2")
        net = Network()
        net.add(Vsource("Vin", "in", "0"))
        net.add(Resistor("R1", "in", "out", 3.2e3))
        net.add(Capacitor("C1", "out", "0", 1e-9))
        self.src = SineSource("src", frequency=F_TONE,
                              amplitude=AMPLITUDE, parent=self,
                              timestep=SimTime(1, "us"))
        self.frontend = ElnTdfModule("aa", net, parent=self,
                                     oversample=2)
        self.sd = SigmaDelta2("sd", parent=self)
        self.cic = CicDecimator("cic", factor=OSR, order=3, parent=self)
        self.sink = TdfSink("sink", self)
        a, b, c, d = (TdfSignal(n) for n in "abcd")
        self.src.out(a)
        self.frontend.drive_voltage("Vin")(a)
        self.frontend.sample_voltage("out")(b)
        self.sd.inp(b)
        self.sd.out(c)
        self.cic.inp(c)
        self.cic.out(d)
        self.sink.inp(d)


def run_level(level: int):
    start = time.perf_counter()
    if level == 0:
        out = level0_math()
    else:
        top = Level1Top() if level == 1 else Level2Top()
        Simulator(top).run(SimTime(N, "us"))
        out = np.asarray(top.sink.samples)
    elapsed = time.perf_counter() - start
    return enob_of(out), elapsed


def test_e12_refinement_levels(benchmark):
    results = {}

    def measure():
        for level in (0, 1, 2):
            results[level] = run_level(level)
        return results

    benchmark.pedantic(measure, rounds=1, iterations=1)
    names = {0: "L0 math (numpy)", 1: "L1 signal-flow (TDF)",
             2: "L2 pin-accurate (TDF+ELN)"}
    base_time = results[0][1]
    rows = [[names[level], round(enob, 2), round(seconds * 1e3, 1),
             round(seconds / base_time, 1)]
            for level, (enob, seconds) in results.items()]
    print_table(
        f"E12: sigma-delta ADC through refinement (OSR {OSR})",
        ["abstraction level", "ENOB", "wall [ms]", "slowdown"],
        rows,
    )
    enobs = [enob for enob, _s in results.values()]
    times = [seconds for _e, seconds in results.values()]
    # Functional behaviour is preserved through refinement ...
    assert max(enobs) - min(enobs) < 1.5
    assert min(enobs) > 9.0
    # ... while cost increases monotonically with physical detail.
    assert times[0] < times[1] < times[2]
