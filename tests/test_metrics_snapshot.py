"""Golden ``Simulator.metrics_snapshot()`` values for every solver kind.

Each model runs with telemetry off, and its whole snapshot (every key
and value: kernel, TDF, per-module and total solver counters,
resilience tiers and health totals) must equal the recorded one in
``metrics_snapshot_golden.json``.  Key order is not compared.  The
models cover each way a continuous-time solver reports its effort:
dense, sparse and expm steppers (scalar and block), switch
refactorizations, gated activations, resilient wrappers around linear,
nonlinear and plug-in primaries, an LSF network, and the Figure-1 ADSL
system.

Regenerate the golden file only for a change that is meant to alter
simulated statistics::

    PYTHONPATH=src python -m tests.test_metrics_snapshot --write
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from repro.adsl import AdslConfig, AdslSystem
from repro.core import Module, SimTime, Simulator
from repro.ct import ScipyIvpSolver
from repro.sync import ElnTdfModule, NonlinearTdfModule, SolverTdfModule
from repro.tdf import TdfSignal

from .test_resilience import RcTop
from .test_sparse_solver import LadderTop, OdeLadderTop, SwitchedTop
from .test_sync import (
    DiodeClipper,
    LsfLowpassTop,
    Recorder,
    SineSource,
    StepSource,
    rc_network,
)

GOLDEN_PATH = pathlib.Path(__file__).with_name(
    "metrics_snapshot_golden.json")

#: time constant of the plug-in RC model
TAU = 1e-3


def us(x):
    return SimTime(x, "us")


class GatedRcTop(Module):
    """Step into an RC with activation gating: most activations of the
    settled tail are skipped."""

    def __init__(self):
        super().__init__("top")
        self.s_in = TdfSignal("s_in")
        self.s_out = TdfSignal("s_out")
        self.src = StepSource("src", self, timestep=us(10))
        self.rc = ElnTdfModule("rc", rc_network(), parent=self)
        self.rc.enable_gating(tolerance=1e-9)
        self.rec = Recorder("rec", self)
        self.src.out(self.s_in)
        self.rc.drive_voltage("Vin")(self.s_in)
        self.rc.sample_voltage("out")(self.s_out)
        self.rec.inp(self.s_out)


class ClipperTop(Module):
    """Sine into the nonlinear diode clipper (adaptive Newton solver)."""

    def __init__(self, **kwargs):
        super().__init__("top")
        self.s_in = TdfSignal("s_in")
        self.s_out = TdfSignal("s_out")
        self.src = SineSource("src", self, freq=1e3, amplitude=5.0,
                              timestep=us(5))
        system = DiodeClipper(None)
        self.clip = NonlinearTdfModule("clip", system, parent=self,
                                       **kwargs)
        system.holder = self.clip.add_input("u")
        self.clip.add_output("v", lambda x: float(x[0]))
        self.rec = Recorder("rec", self)
        self.src.out(self.s_in)
        self.clip.in_u(self.s_in)
        self.clip.out_v(self.s_out)
        self.rec.inp(self.s_out)


class PluginRcTop(Module):
    """Step into an RC integrated by the SciPy plug-in solver."""

    def __init__(self, **kwargs):
        super().__init__("top")
        self.s_in = TdfSignal("s_in")
        self.s_out = TdfSignal("s_out")
        self.src = StepSource("src", self, timestep=us(20))

        def rhs(t, x):
            return np.array([(holder(t) - x[0]) / TAU])

        self.ct = SolverTdfModule("ct", ScipyIvpSolver(rhs=rhs, n=1),
                                  parent=self, **kwargs)
        holder = self.ct.add_input("u")
        self.ct.add_output("v", lambda x: float(x[0]))
        self.rec = Recorder("rec", self)
        self.src.out(self.s_in)
        self.ct.in_u(self.s_in)
        self.ct.out_v(self.s_out)
        self.rec.inp(self.s_out)


def _resilient_ladder():
    top = LadderTop("sparse")
    top.line.resilient = True
    return top


#: name -> (model factory, Simulator keyword arguments, run length)
MODELS = {
    "dense_eln": (lambda: LadderTop("dense"), {}, us(500)),
    "sparse_ladder": (lambda: LadderTop("sparse"), {}, us(500)),
    "expm_scalar": (lambda: OdeLadderTop("expm"),
                    {"tdf_block": False}, us(200)),
    "expm_block": (lambda: OdeLadderTop("expm"), {}, us(200)),
    "switch_eln": (SwitchedTop, {}, SimTime(4, "ms")),
    "gated_eln": (GatedRcTop, {}, SimTime(10, "ms")),
    "resilient_eln": (lambda: RcTop(resilient=True), {},
                      SimTime(2, "ms")),
    "resilient_sparse_ladder": (_resilient_ladder, {}, us(500)),
    "nonlinear": (ClipperTop, {}, SimTime(1, "ms")),
    "nonlinear_resilient": (lambda: ClipperTop(resilient=True), {},
                            SimTime(1, "ms")),
    "scipy_plugin": (PluginRcTop, {}, SimTime(1, "ms")),
    "scipy_plugin_resilient": (lambda: PluginRcTop(resilient=True), {},
                               SimTime(1, "ms")),
    "lsf_lowpass": (LsfLowpassTop, {}, SimTime(1, "ms")),
    "adsl": (lambda: AdslSystem(AdslConfig()), {}, us(400)),
}


def snapshot_of(name):
    factory, options, duration = MODELS[name]
    sim = Simulator(factory(), **options)
    sim.run(duration)
    return sim.metrics_snapshot()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_model(golden):
    assert sorted(golden) == sorted(MODELS)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_metrics_snapshot_is_pinned(name, golden):
    snapshot = snapshot_of(name)
    expected = golden[name]
    assert sorted(snapshot) == sorted(expected)
    changed = {key: (snapshot[key], expected[key]) for key in expected
               if snapshot[key] != expected[key]}
    assert not changed


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN_PATH.write_text(json.dumps(
        {name: snapshot_of(name) for name in sorted(MODELS)},
        indent=1, sort_keys=True) + "\n")
