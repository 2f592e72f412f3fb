"""E11 — Coupling with existing continuous-time simulators.

The objective "an open architecture in which existing, mature,
simulators or solvers may be plugged in": the same circuit simulated
through the built-in fixed-step solver and through the SciPy plug-in
behind the identical TransientSolver API, synchronized sample by sample;
waveform agreement and the relative cost of each engine.
"""

import time

import numpy as np

from conftest import print_table
from repro.core import Module, SimTime, Simulator
from repro.ct import LinearDae, LinearTransientSolver, ScipyIvpSolver
from repro.eln import Capacitor, Network, Resistor, Vsource
from repro.lib import SineSource, TdfSink
from repro.sync import ElnTdfModule, InputHolder, SolverTdfModule
from repro.tdf import TdfIn, TdfSignal

R, C = 1e3, 1e-6
TAU = R * C
F_IN = 1 / (2 * np.pi * TAU)


def run_builtin():
    class Top(Module):
        def __init__(self):
            super().__init__("top")
            net = Network()
            net.add(Vsource("Vin", "in", "0"))
            net.add(Resistor("R1", "in", "out", R))
            net.add(Capacitor("C1", "out", "0", C))
            self.src = SineSource("src", frequency=F_IN, parent=self,
                                  timestep=SimTime(20, "us"))
            self.ct = ElnTdfModule("ct", net, parent=self, oversample=8)
            self.sink = TdfSink("sink", self)
            s_in, s_out = TdfSignal("si"), TdfSignal("so")
            self.src.out(s_in)
            self.ct.drive_voltage("Vin")(s_in)
            self.ct.sample_voltage("out")(s_out)
            self.sink.inp(s_out)

    top = Top()
    Simulator(top).run(SimTime(15, "ms"))
    return np.asarray(top.sink.samples)


def run_external():
    class Top(Module):
        def __init__(self):
            super().__init__("top")
            holder = InputHolder()
            solver = ScipyIvpSolver(
                rhs=lambda t, x, h=holder: np.array([(h(t) - x[0]) / TAU]),
                n=1, rtol=1e-9, atol=1e-11,
            )
            self.src = SineSource("src", frequency=F_IN, parent=self,
                                  timestep=SimTime(20, "us"))
            self.ct = SolverTdfModule("ct", solver, parent=self)
            port = TdfIn("in_u")
            port.module = self.ct
            self.ct.in_u = port
            self.ct._inputs.append((port, holder))
            self.ct.add_output("v", lambda x: float(x[0]))
            self.sink = TdfSink("sink", self)
            s_in, s_out = TdfSignal("si"), TdfSignal("so")
            self.src.out(s_in)
            port(s_in)
            self.ct.out_v(s_out)
            self.sink.inp(s_out)

    top = Top()
    Simulator(top).run(SimTime(15, "ms"))
    return np.asarray(top.sink.samples), top.ct._solver.segment_count


def test_e11_plugin_agreement(benchmark):
    builtin = benchmark.pedantic(run_builtin, rounds=1, iterations=1)
    start = time.perf_counter()
    external, segments = run_external()
    external_seconds = time.perf_counter() - start
    start = time.perf_counter()
    run_builtin()
    builtin_seconds = time.perf_counter() - start
    m = min(len(builtin), len(external))
    deviation = float(np.max(np.abs(builtin[:m] - external[:m])))
    print_table(
        "E11: built-in solver vs SciPy plug-in (same sync API)",
        ["metric", "value"],
        [["samples", m],
         ["max |diff| [V]", f"{deviation:.2e}"],
         ["built-in wall [ms]", round(builtin_seconds * 1e3, 1)],
         ["plug-in wall [ms]", round(external_seconds * 1e3, 1)],
         ["plug-in solver segments", segments]],
    )
    assert deviation < 2e-3
    assert segments > 500  # one integration segment per sync interval


def test_e11_raw_solver_api_equivalence(benchmark):
    """The two engines behind the bare TransientSolver protocol."""
    dae = LinearDae(
        C=np.array([[C]]), G=np.array([[1 / R]]),
        source=lambda t: np.array([1.0 / R]),
    )
    builtin = LinearTransientSolver(dae, h_internal=TAU / 500)
    external = ScipyIvpSolver(linear_system=dae, rtol=1e-10, atol=1e-12)

    def run():
        builtin.initialize(0.0, x0=np.zeros(1))
        external.initialize(0.0, x0=np.zeros(1))
        worst = 0.0
        for k in range(1, 21):
            t = k * TAU / 4
            xb = builtin.advance_to(t)
            xe = external.advance_to(t)
            worst = max(worst, abs(float(xb[0] - xe[0])))
        return worst

    worst = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("E11: raw API lockstep", ["metric", "value"],
                [["max |diff| over 20 sync points", f"{worst:.2e}"]])
    assert worst < 1e-6
