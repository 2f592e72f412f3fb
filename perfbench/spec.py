"""Campaign spec shared by the ``campaign_sweep`` and ``service_jobs``
workloads: short TDF + ELN points, an RC low-pass driven by a tone.

The grid steps through four resistor and two capacitor values; each
point draws its actual R, C, tone frequency and amplitude from the
per-point seed the campaign spawns from ``root_seed``, so the benchmark
seed (which picks ``root_seed``) picks the R/C grid.  Every point
reports its measured gain next to the analytic ``|H(jw)|``, which the
benchmark checks.

The service resolves this file by reference (``spec.py::rc-sweep``),
so it imports nothing from the rest of the benchmark.
"""

import numpy as np

from repro.campaign import Campaign, Sweep
from repro.core import Module, SimTime, Simulator
from repro.eln import Capacitor, Network, Resistor, Vsource
from repro.lib import SineSource, TdfSink
from repro.sync import ElnTdfModule
from repro.tdf import TdfSignal

#: simulated length of one point; the gain is fitted on its second half,
#: after more than 20 time constants of the slowest RC
DURATION_US = 500
R_VALUES = (1.0e3, 1.5e3, 2.2e3, 3.3e3)
C_VALUES = (1.0e-9, 2.2e-9)


class RcPoint(Module):
    """Tone source -> ELN RC low-pass -> sink."""

    def __init__(self, r_ohm: float, c_farad: float, frequency: float,
                 amplitude: float):
        super().__init__("rc")
        self.r_ohm = r_ohm
        self.c_farad = c_farad
        self.frequency = frequency
        self.amplitude = amplitude
        net = Network()
        net.add(Vsource("Vin", "in", "0"))
        net.add(Resistor("R1", "in", "out", r_ohm))
        net.add(Capacitor("C1", "out", "0", c_farad))
        self.src = SineSource("src", frequency=frequency,
                              amplitude=amplitude, parent=self,
                              timestep=SimTime(1, "us"))
        self.rc = ElnTdfModule("rc_net", net, parent=self)
        self.sink = TdfSink("sink", self)
        drive, out = TdfSignal("drive"), TdfSignal("out")
        self.src.out(drive)
        self.rc.drive_voltage("Vin")(drive)
        self.rc.sample_voltage("out")(out)
        self.sink.inp(out)


def build(params):
    rng = np.random.default_rng(params["seed"])
    r_ohm = R_VALUES[params["r_step"]] * rng.uniform(0.8, 1.25)
    c_farad = C_VALUES[params["c_step"]] * rng.uniform(0.8, 1.25)
    # a whole number of cycles in the fitted half of the record
    cycles = int(rng.integers(2, 9))
    frequency = cycles / (DURATION_US * 0.5e-6)
    amplitude = float(rng.uniform(0.2, 1.0))
    return Simulator(RcPoint(r_ohm, c_farad, frequency, amplitude))


def metrics(top):
    samples = np.asarray(top.sink.samples)
    times = np.asarray(top.sink.times)
    tail = slice(len(samples) // 2, None)
    w = 2.0 * np.pi * top.frequency
    basis = np.column_stack([np.sin(w * times[tail]),
                             np.cos(w * times[tail]),
                             np.ones_like(times[tail])])
    coef = np.linalg.lstsq(basis, samples[tail], rcond=None)[0]
    gain = float(np.hypot(coef[0], coef[1]) / top.amplitude)
    expected = float(1.0 / np.hypot(1.0, w * top.r_ohm * top.c_farad))
    return {"gain": gain, "gain_expected": expected,
            "gain_err": abs(gain - expected) / expected,
            "n_samples": int(len(samples))}


CAMPAIGN = Campaign(
    name="rc-sweep",
    description="tone through an ELN RC low-pass over an R/C grid",
    space=Sweep({"r_step": list(range(len(R_VALUES))),
                 "c_step": list(range(len(C_VALUES)))}),
    build=build,
    duration=SimTime(DURATION_US, "us"),
    metrics=metrics,
    root_seed=0,
)
