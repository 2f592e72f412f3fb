"""Models of the two simulation workloads and their correctness checks.

* ``adsl_fig1`` — the paper's Figure 1 ADSL SLIC/codec virtual
  prototype (:class:`repro.adsl.AdslSystem`): DE software, RTL bus and
  registers, TDF dataflow, Σ∆ converters, LSF filters and the ELN line
  in one simulation.
* ``refine_l2`` — the pin-accurate (L2) level of the Σ∆ refinement
  flow: a tone through an ELN RC anti-alias front end (2x oversampled)
  into a second-order Σ∆ modulator and CIC decimator.  The L0 NumPy
  model of the same modulator is the reference it is scored against.

Inputs come from :func:`adsl_inputs` / :func:`refine_inputs`, which
draw everything from a NumPy generator seeded by the benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.adsl import AdslConfig, AdslSystem
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

# -- adsl_fig1 ---------------------------------------------------------------

#: simulated length of one ADSL job (129 decimated receive samples)
ADSL_DURATION_US = 4096
#: tone frequencies, in units of 31.25 kHz / 256 (the decimated receive
#: rate over 256 bins), whose receive SNDR stays above 40 dB over a
#: 4096 us run; the rest of the voice band sits near spurs of the
#: short record.
ADSL_TONE_BINS = (11, 12, 22, 23, 24, 26, 27, 28, 29, 30, 31, 32, 33,
                  34, 35, 36, 37, 42, 43, 44)


def adsl_inputs(rng: np.random.Generator) -> dict:
    """Tone frequency and amplitude; the amplitude keeps the loop
    current above the hook-detector threshold."""
    bin_index = ADSL_TONE_BINS[int(rng.integers(len(ADSL_TONE_BINS)))]
    return {"tone_frequency": bin_index * 31250.0 / 256,
            "tone_amplitude": float(rng.uniform(0.45, 0.6))}


def build_adsl(inputs: dict) -> Simulator:
    return Simulator(AdslSystem(AdslConfig(**inputs)))


def adsl_outputs(simulator: Simulator) -> dict:
    system = simulator.top
    polls = [entry for entry in system.software_log if entry[0] == "poll"]
    return {
        "sndr_db": float(system.rx_snr_db()),
        "level": int(polls[-1][1][0]) if polls else 0,
        "hook_seen": any(poll[1][1] for poll in polls),
    }


def adsl_check(outputs: dict) -> list:
    """The E1 acceptance figures: clean tone through the whole chain,
    software loop alive, hook detector tripped."""
    failures = []
    if not outputs["sndr_db"] > 35.0:
        failures.append(f"SNDR {outputs['sndr_db']:.1f} dB <= 35 dB")
    if not outputs["hook_seen"]:
        failures.append("hook status never seen by software")
    if not 100 < outputs["level"] < 600:
        failures.append(f"level register {outputs['level']} not in "
                        "(100, 600)")
    return failures


# -- refine_l2 ---------------------------------------------------------------

FS = 1e6
OSR = 32
FS_DEC = FS / OSR
#: decimated samples the ENOB is measured on
ENOB_SAMPLES = 512
#: simulated samples of one L2 job: the measured record plus settling
REFINE_SAMPLES = ENOB_SAMPLES * OSR + 4096


def refine_inputs(rng: np.random.Generator) -> dict:
    """A coherent tone, its amplitude, and the front end's RC (corner
    around 40-60 kHz, far above the tone)."""
    return {
        "frequency": coherent_tone_frequency(
            FS_DEC, ENOB_SAMPLES, float(rng.uniform(800.0, 3000.0))),
        # ENOB over 512 decimated samples stays above 9.2 bits here
        "amplitude": float(rng.uniform(0.55, 0.65)),
        "r_ohm": 3.2e3 * float(rng.uniform(0.8, 1.25)),
        "c_farad": 1e-9,
    }


class Level2Top(Module):
    """Pin-accurate front: the tone passes a physical RC anti-alias
    network before the modulator."""

    def __init__(self, frequency: float, amplitude: float, r_ohm: float,
                 c_farad: float):
        super().__init__("l2")
        net = Network()
        net.add(Vsource("Vin", "in", "0"))
        net.add(Resistor("R1", "in", "out", r_ohm))
        net.add(Capacitor("C1", "out", "0", c_farad))
        self.src = SineSource("src", frequency=frequency,
                              amplitude=amplitude, parent=self,
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


def build_refine(inputs: dict) -> Simulator:
    return Simulator(Level2Top(**inputs))


def enob_of(decimated, frequency: float) -> float:
    tail = np.asarray(decimated)[len(decimated) - ENOB_SAMPLES:]
    return float(ToneAnalysis(tail, FS_DEC, tone_frequency=frequency).enob)


def refine_outputs(simulator: Simulator, inputs: dict) -> dict:
    return {"enob": enob_of(simulator.top.sink.samples,
                            inputs["frequency"])}


def level0_enob(inputs: dict) -> float:
    """ENOB of the L0 NumPy model (no kernel at all) on the same tone."""
    t = np.arange(REFINE_SAMPLES) / FS
    x = inputs["amplitude"] * np.sin(2 * np.pi * inputs["frequency"] * t)
    decimated = cic_decimate(sigma_delta2_bitstream(x), OSR, order=3)
    return enob_of(decimated, inputs["frequency"])


def refine_check(outputs: dict, l0_enob: float) -> list:
    """The E12 acceptance figures: the refined model keeps the
    modulator's resolution and agrees with the L0 reference."""
    failures = []
    if not outputs["enob"] > 9.0:
        failures.append(f"L2 ENOB {outputs['enob']:.2f} <= 9 bits")
    if not abs(outputs["enob"] - l0_enob) < 1.5:
        failures.append(f"L2 ENOB {outputs['enob']:.2f} vs L0 "
                        f"{l0_enob:.2f}: differ by >= 1.5 bits")
    return failures
