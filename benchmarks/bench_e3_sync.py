"""E3 — SDF<->CT fixed-timestep synchronization.

Design objective "a, possibly generic, way to handle interactions
between MoCs": a TDF sine drives an ELN RC through the synchronization
layer at sample rates from 1x to 64x the corner frequency; steady-state
amplitude error vs the analytic transfer, and the cost of oversampling.
"""

import numpy as np

from conftest import print_table
from repro.core import Module, SimTime, Simulator
from repro.eln import Capacitor, Network, Resistor, Vsource
from repro.lib import SineSource, TdfSink
from repro.sync import ElnTdfModule
from repro.tdf import TdfSignal

R, C = 1e3, 1e-6
F_CORNER = 1 / (2 * np.pi * R * C)


def build_and_run(timestep_us: float, oversample: int, duration_ms=25):
    class Top(Module):
        def __init__(self):
            super().__init__("top")
            net = Network()
            net.add(Vsource("Vin", "in", "0"))
            net.add(Resistor("R1", "in", "out", R))
            net.add(Capacitor("C1", "out", "0", C))
            self.src = SineSource("src", frequency=F_CORNER, parent=self,
                                  timestep=SimTime(timestep_us, "us"))
            self.rc = ElnTdfModule("rc", net, parent=self,
                                   oversample=oversample)
            self.sink = TdfSink("sink", self)
            s_in, s_out = TdfSignal("si"), TdfSignal("so")
            self.src.out(s_in)
            self.rc.drive_voltage("Vin")(s_in)
            self.rc.sample_voltage("out")(s_out)
            self.sink.inp(s_out)

    top = Top()
    simulator = Simulator(top)
    simulator.run(SimTime(duration_ms, "ms"))
    samples = np.asarray(top.sink.samples)
    tail = samples[len(samples) // 2:]
    gain = np.max(np.abs(tail))
    return gain, simulator.kernel.activation_count


def test_e3_rate_sweep(benchmark):
    """Amplitude accuracy at the corner vs sample rate (analytic:
    1/sqrt(2))."""
    results = {}

    def measure():
        for step_us in (100, 50, 20, 10, 5):
            results[step_us] = build_and_run(step_us, oversample=1)
        return results

    benchmark.pedantic(measure, rounds=1, iterations=1)
    expected = 1 / np.sqrt(2)
    rows = []
    errors = {}
    for step_us, (gain, activations) in results.items():
        errors[step_us] = abs(gain - expected) / expected
        samples_per_cycle = 1e6 / step_us / F_CORNER
        rows.append([step_us, round(samples_per_cycle, 1),
                     round(gain, 4), f"{errors[step_us]:.2e}",
                     activations])
    print_table(
        "E3: corner-gain error vs TDF sample rate "
        f"(analytic {expected:.4f})",
        ["step [us]", "samples/cycle", "gain", "rel err",
         "kernel activations"],
        rows,
    )
    # Error falls with rate, and even 60 samples/cycle is ~1% accurate.
    assert errors[5] < errors[100]
    assert errors[10] < 0.01


def test_e3_oversampling_inside_solver(benchmark):
    """Internal solver oversampling refines accuracy at a fixed sync
    rate (the cluster period stays the same; only CT substeps grow)."""
    results = {}

    def measure():
        for oversample in (1, 4, 16):
            results[oversample] = build_and_run(50, oversample)
        return results

    benchmark.pedantic(measure, rounds=1, iterations=1)
    expected = 1 / np.sqrt(2)
    rows = [[k, round(g, 5), f"{abs(g - expected) / expected:.2e}", a]
            for k, (g, a) in results.items()]
    print_table(
        "E3: internal oversampling at 50 us sync interval",
        ["oversample", "gain", "rel err", "kernel activations"],
        rows,
    )
    # Kernel activation count must NOT grow with internal oversampling:
    # synchronization cost is decoupled from solver resolution.
    activations = [a for _g, a in results.values()]
    assert max(activations) - min(activations) <= 2


def test_e3_interpolation_ablation(benchmark):
    """DESIGN.md ablation: zero-order hold vs linear interpolation of
    the sampled inputs inside the CT step."""
    results = {}

    def run(interpolate: bool):
        class Top(Module):
            def __init__(self):
                super().__init__("top")
                net = Network()
                net.add(Vsource("Vin", "in", "0"))
                net.add(Resistor("R1", "in", "out", R))
                net.add(Capacitor("C1", "out", "0", C))
                self.src = SineSource("src", frequency=F_CORNER,
                                      parent=self,
                                      timestep=SimTime(50, "us"))
                self.rc = ElnTdfModule("rc", net, parent=self,
                                       interpolate_inputs=interpolate)
                self.sink = TdfSink("sink", self)
                s_in, s_out = TdfSignal("si"), TdfSignal("so")
                self.src.out(s_in)
                self.rc.drive_voltage("Vin")(s_in)
                self.rc.sample_voltage("out")(s_out)
                self.sink.inp(s_out)

        top = Top()
        Simulator(top).run(SimTime(25, "ms"))
        samples = np.asarray(top.sink.samples)
        gain = np.max(np.abs(samples[len(samples) // 2:]))
        return abs(gain - 1 / np.sqrt(2)) * np.sqrt(2)

    def measure():
        results["zero-order hold"] = run(False)
        results["linear (FOH)"] = run(True)
        return results

    benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [[k, f"{v:.2e}"] for k, v in results.items()]
    print_table("E3 ablation: input reconstruction inside the CT step",
                ["input hold", "corner-gain rel err"], rows)
    # First-order hold is the better reconstruction at equal rate.
    assert results["linear (FOH)"] < results["zero-order hold"]


def test_e3_sync_runtime(benchmark):
    """Wall-clock of the coupled simulation (the efficiency claim)."""
    benchmark.pedantic(
        lambda: build_and_run(20, 2, duration_ms=10),
        rounds=3, iterations=1,
    )
