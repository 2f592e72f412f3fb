"""Tests for the synchronization layer: CT solvers embedded in TDF
clusters, DE-controlled switches, activation gating, solver plug-ins."""

import numpy as np
import pytest

from repro.core import Clock, Module, SimTime, Simulator
from repro.ct import ScipyIvpSolver, TransientSolver
from repro.ct.nonlinear import NonlinearSystem, dlimexp, limexp
from repro.eln import Capacitor, Network, Resistor, Switch, Vsource
from repro.lsf import LsfLtfNd, LsfNetwork, LsfSource
from repro.sync import (
    ElnTdfModule,
    InputHolder,
    LsfTdfModule,
    NonlinearTdfModule,
    SolverTdfModule,
)
from repro.tdf import TdfIn, TdfModule, TdfOut, TdfSignal


def us(x):
    return SimTime(x, "us")


class SineSource(TdfModule):
    def __init__(self, name, parent=None, freq=1e3, amplitude=1.0,
                 timestep=None):
        super().__init__(name, parent)
        self.out = TdfOut("out")
        self.freq = freq
        self.amplitude = amplitude
        self._ts = timestep

    def set_attributes(self):
        if self._ts is not None:
            self.set_timestep(self._ts)

    def processing(self):
        t = self.local_time.to_seconds()
        self.out.write(self.amplitude * np.sin(2 * np.pi * self.freq * t))


class StepSource(TdfModule):
    def __init__(self, name, parent=None, level=1.0, timestep=None):
        super().__init__(name, parent)
        self.out = TdfOut("out")
        self.level = level
        self._ts = timestep

    def set_attributes(self):
        if self._ts is not None:
            self.set_timestep(self._ts)

    def processing(self):
        self.out.write(self.level)


class Recorder(TdfModule):
    def __init__(self, name, parent=None):
        super().__init__(name, parent)
        self.inp = TdfIn("inp")
        self.samples = []
        self.times = []

    def processing(self):
        self.samples.append(self.inp.read())
        self.times.append(self.local_time.to_seconds())


def rc_network(R=1e3, C=1e-6):
    net = Network()
    net.add(Vsource("Vin", "in", "0"))
    net.add(Resistor("R1", "in", "out", R))
    net.add(Capacitor("C1", "out", "0", C))
    return net


class TestElnTdf:
    def test_rc_step_response(self):
        R, C = 1e3, 1e-6
        tau = R * C  # 1 ms

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.s_in = TdfSignal("s_in")
                self.s_out = TdfSignal("s_out")
                self.src = StepSource("src", self, timestep=us(10))
                self.rc = ElnTdfModule("rc", rc_network(R, C), parent=self,
                                       oversample=4)
                self.rec = Recorder("rec", self)
                self.src.out(self.s_in)
                self.rc.drive_voltage("Vin")(self.s_in)
                self.rc.sample_voltage("out")(self.s_out)
                self.rec.inp(self.s_out)

        top = Top()
        sim = Simulator(top)
        sim.run(SimTime(5, "ms"))
        t = np.array(top.rec.times)
        v = np.array(top.rec.samples)
        # First sample: the capacitor (differential state) still holds
        # its quiescent 0 V (up to the consistency snap's epsilon).
        assert v[0] == pytest.approx(0.0, abs=1e-6)
        # Input steps to 1 at the first activation; the RC charges with
        # tau starting from t=0 (input interpolated over first step).
        expected = 1 - np.exp(-t[5:] / tau)
        np.testing.assert_allclose(v[5:], expected, atol=0.02)

    def test_rc_sine_steady_state_gain(self):
        R, C = 1e3, 1e-6
        f = 1.0 / (2 * np.pi * R * C)  # corner frequency

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.s_in = TdfSignal("s_in")
                self.s_out = TdfSignal("s_out")
                self.src = SineSource("src", self, freq=f,
                                      timestep=us(5))
                self.rc = ElnTdfModule("rc", rc_network(R, C), parent=self,
                                       oversample=4)
                self.rec = Recorder("rec", self)
                self.src.out(self.s_in)
                self.rc.drive_voltage("Vin")(self.s_in)
                self.rc.sample_voltage("out")(self.s_out)
                self.rec.inp(self.s_out)

        top = Top()
        sim = Simulator(top)
        sim.run(SimTime(20, "ms"))
        v = np.array(top.rec.samples)
        n = len(v)
        tail = v[3 * n // 4:]
        assert np.max(np.abs(tail)) == pytest.approx(1 / np.sqrt(2),
                                                     rel=0.02)

    def test_branch_current_output(self):
        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.s_in = TdfSignal("s_in")
                self.s_i = TdfSignal("s_i")
                self.src = StepSource("src", self, level=2.0,
                                      timestep=us(100))
                net = Network()
                net.add(Vsource("Vin", "in", "0"))
                net.add(Resistor("R1", "in", "0", 1e3))
                self.mod = ElnTdfModule("mod", net, parent=self)
                self.rec = Recorder("rec", self)
                self.src.out(self.s_in)
                self.mod.drive_voltage("Vin")(self.s_in)
                self.mod.sample_current("Vin")(self.s_i)
                self.rec.inp(self.s_i)

        top = Top()
        sim = Simulator(top)
        sim.run(SimTime(1, "ms"))
        # Source branch current = -V/R (flows p -> n through source).
        assert top.rec.samples[-1] == pytest.approx(-2e-3, rel=1e-6)

    def test_de_switch_control(self):
        """An RC whose discharge switch is driven by a DE clock."""
        R, C = 1e3, 1e-7  # tau = 0.1 ms

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.s_in = TdfSignal("s_in")
                self.s_out = TdfSignal("s_out")
                self.clk = Clock("clk", period=SimTime(4, "ms"),
                                 duty_cycle=0.25, parent=self,
                                 start_time=SimTime(1, "ms"))
                self.src = StepSource("src", self, timestep=us(20))
                net = rc_network(R, C)
                net.add(Switch("S1", "out", "0", closed=False,
                               r_on=1.0, r_off=1e12))
                self.rc = ElnTdfModule("rc", net, parent=self,
                                       oversample=4)
                self.rec = Recorder("rec", self)
                self.src.out(self.s_in)
                self.rc.drive_voltage("Vin")(self.s_in)
                self.rc.sample_voltage("out")(self.s_out)
                self.rc.bind_switch("S1", self.clk.signal)
                self.rec.inp(self.s_out)

        top = Top()
        sim = Simulator(top)
        sim.run(SimTime(4, "ms"))
        t = np.array(top.rec.times)
        v = np.array(top.rec.samples)
        # Before the switch closes (t < 1 ms) the cap charges to ~1.
        assert v[np.searchsorted(t, 0.9e-3)] == pytest.approx(1.0, abs=0.01)
        # While closed (1..2 ms) the output collapses to ~0 (divider
        # R1 / r_on).
        assert v[np.searchsorted(t, 1.9e-3)] == pytest.approx(0.0, abs=0.01)
        # After reopening (2..4 ms) it recharges.
        assert v[-1] == pytest.approx(1.0, abs=0.01)
        assert top.rc.rebuild_count == 2

    def test_gating_skips_settled_activations(self):
        class Top(Module):
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

        top = Top()
        sim = Simulator(top)
        sim.run(SimTime(20, "ms"))  # 20 tau: long settled tail
        assert top.rc.skipped_activations > 100
        # Output still correct after gating.
        assert top.rec.samples[-1] == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("block", [False, True],
                             ids=["scalar", "block"])
    def test_gated_resilient_module(self, block):
        """A skipped activation moves solver time without a step, a
        health check or a tier record; block runs match scalar ones
        byte for byte."""

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.s_in = TdfSignal("s_in")
                self.s_out = TdfSignal("s_out")
                self.src = StepSource("src", self, timestep=us(10))
                self.rc = ElnTdfModule("rc", rc_network(), parent=self,
                                       resilient=True)
                self.rc.enable_gating(tolerance=1e-9)
                self.rec = Recorder("rec", self)
                self.src.out(self.s_in)
                self.rc.drive_voltage("Vin")(self.s_in)
                self.rc.sample_voltage("out")(self.s_out)
                self.rec.inp(self.s_out)

        def run(tdf_block):
            top = Top()
            sim = Simulator(top, tdf_block=tdf_block)
            sim.run(SimTime(20, "ms"))
            return top, sim.metrics_snapshot()

        top, snapshot = run(block)
        assert top.rc.activation_count == 2001
        assert snapshot["ct.skipped_activations"] == 387
        # one initialization, one consistency snap, then a check per
        # accepted step and per interval
        assert snapshot["health.checked_steps"] == 3228
        assert snapshot["solver.steps"] == 1613
        assert snapshot["resilience.tier.primary"] == 1613
        assert top.rec.samples[-1] == pytest.approx(1.0, abs=1e-3)
        if block:
            reference, ref_snapshot = run(False)
            assert np.asarray(top.rec.samples).tobytes() \
                == np.asarray(reference.rec.samples).tobytes()
            ct_keys = ("solver.", "health.", "resilience.", "ct.")
            assert {k: v for k, v in snapshot.items()
                    if k.startswith(ct_keys)} \
                == {k: v for k, v in ref_snapshot.items()
                    if k.startswith(ct_keys)}


class OversampledRcTop(Module):
    """A 1 us sine into an RC front end with ``oversample=2``, like the
    pin-accurate level of the sigma-delta refinement flow."""

    def __init__(self):
        super().__init__("top")
        self.s_in = TdfSignal("s_in")
        self.s_out = TdfSignal("s_out")
        self.src = SineSource("src", self, freq=3e3, timestep=us(1))
        self.rc = ElnTdfModule("rc", rc_network(1e3, 1e-9), parent=self,
                               oversample=2)
        self.rec = Recorder("rec", self)
        self.src.out(self.s_in)
        self.rc.drive_voltage("Vin")(self.s_in)
        self.rc.sample_voltage("out")(self.s_out)
        self.rec.inp(self.s_out)


class TestOversampledStepCount:
    """``oversample=k`` means exactly k solver steps per activation,
    however late in the run (the absolute times' rounding grows with
    simulated time; the substep count must not), and every step of a
    nominal timestep has the same size."""

    @pytest.fixture(scope="class", params=[True, False],
                    ids=["block", "scalar"])
    def late_run(self, request):
        top = OversampledRcTop()
        sim = Simulator(top, tdf_block=request.param)
        sim.run(SimTime(25, "ms"))
        return top, sim.metrics_snapshot()

    def test_exact_substeps_past_20ms(self, late_run):
        top, snapshot = late_run
        activations = top.rc.activation_count
        assert activations > 20_000
        # the first activation is the consistent initialization
        assert snapshot["solver.steps"] == 2 * (activations - 1)

    def test_one_factorization_per_nominal_step(self, late_run):
        """Tick-exact step sizes: the jittered sync intervals of a 1 us
        timestep all give one ``h``, so one cached factorization."""
        _top, snapshot = late_run
        assert snapshot["solver.factorizations"] == 1
        assert snapshot["solver.refactorizations"] == 0


class TestOversampleRule:
    """ELN and LSF modules accept the same ``oversample`` values: a
    whole number of at least one."""

    @staticmethod
    def _lsf():
        lsf = LsfNetwork()
        u, y = lsf.signal("u"), lsf.signal("y")
        lsf.add(LsfSource("src", u))
        lsf.add(LsfLtfNd("filt", u, y, num=[1.0], den=[1.0, 1e-3]))
        return lsf

    @pytest.mark.parametrize("oversample", [0, -2, 2.5, 1.0, "2", True])
    def test_rejected_by_eln_and_lsf(self, oversample):
        from repro.core import ElaborationError

        with pytest.raises(ElaborationError, match="oversample"):
            ElnTdfModule("rc", rc_network(), oversample=oversample)
        with pytest.raises(ElaborationError, match="oversample"):
            LsfTdfModule("filt", self._lsf(), oversample=oversample)

    @pytest.mark.parametrize("oversample", [1, 3, np.int64(2)])
    def test_whole_numbers_accepted(self, oversample):
        eln = ElnTdfModule("rc", rc_network(), oversample=oversample)
        lsf = LsfTdfModule("filt", self._lsf(), oversample=oversample)
        assert eln.oversample == lsf.oversample == int(oversample)
        assert type(eln.oversample) is type(lsf.oversample) is int


class LsfLowpassTop(Module):
    """Unit step through a first-order LSF low-pass (time constant
    ``tau``); ``lsf_kwargs`` go to the :class:`LsfTdfModule`."""

    def __init__(self, tau=1e-3, **lsf_kwargs):
        super().__init__("top")
        self.s_in = TdfSignal("s_in")
        self.s_out = TdfSignal("s_out")
        self.src = StepSource("src", self, timestep=us(10))
        lsf = LsfNetwork()
        u = lsf.signal("u")
        y = lsf.signal("y")
        lsf.add(LsfSource("src", u))
        lsf.add(LsfLtfNd("filt", u, y, num=[1.0], den=[1.0, tau]))
        self.filt = LsfTdfModule("filt", lsf, parent=self, oversample=4,
                                 **lsf_kwargs)
        self.rec = Recorder("rec", self)
        self.src.out(self.s_in)
        self.filt.drive(u)(self.s_in)
        self.filt.sample(y)(self.s_out)
        self.rec.inp(self.s_out)


class TestLsfTdf:
    def test_lowpass_filter_in_tdf_chain(self):
        tau = 1e-3
        top = LsfLowpassTop(tau)
        sim = Simulator(top)
        sim.run(SimTime(5, "ms"))
        t = np.array(top.rec.times)
        v = np.array(top.rec.samples)
        expected = 1 - np.exp(-t[5:] / tau)
        np.testing.assert_allclose(v[5:], expected, atol=0.02)

    def test_resilient_lowpass_matches_plain(self):
        # The resilient wrapper starts from the LSF network's consistent
        # initial state, exactly like the plain solver.
        plain = LsfLowpassTop()
        Simulator(plain).run(SimTime(5, "ms"))
        resilient = LsfLowpassTop(resilient=True)
        Simulator(resilient).run(SimTime(5, "ms"))
        assert resilient.filt._solver.tier_counts["primary"] > 0
        assert np.asarray(resilient.rec.samples).tobytes() == \
            np.asarray(plain.rec.samples).tobytes()

    def test_drive_requires_source_block(self):
        from repro.core import ElaborationError
        from repro.lsf import LsfGain

        lsf = LsfNetwork()
        u, y = lsf.signal("u"), lsf.signal("y")
        lsf.add(LsfSource("s", u))
        lsf.add(LsfGain("g", u, y, 1.0))
        mod = LsfTdfModule("m", lsf)
        with pytest.raises(ElaborationError):
            mod.drive(y)


class DiodeClipper(NonlinearSystem):
    """Vin -> R -> diode||  : clips positive voltages near 0.6 V."""

    def __init__(self, holder, R=1e3, i_sat=1e-12, vt=0.025, C=1e-9):
        super().__init__(1)
        self.holder = holder
        self.R, self.i_sat, self.vt, self.Cap = R, i_sat, vt, C

    def charge(self, x):
        return np.array([self.Cap * x[0]])

    def charge_jacobian(self, x):
        return np.array([[self.Cap]])

    def static(self, x, t):
        v = x[0]
        i_diode = self.i_sat * (limexp(v / self.vt) - 1.0)
        return np.array([i_diode - (self.holder(t) - v) / self.R])

    def static_jacobian(self, x, t):
        v = x[0]
        g = self.i_sat * dlimexp(v / self.vt) / self.vt
        return np.array([[g + 1.0 / self.R]])


class TestNonlinearTdf:
    def test_diode_clipper_clips(self):
        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.s_in = TdfSignal("s_in")
                self.s_out = TdfSignal("s_out")
                self.src = SineSource("src", self, freq=1e3, amplitude=5.0,
                                      timestep=us(5))
                holder = InputHolder()
                self.clip = NonlinearTdfModule(
                    "clip", DiodeClipper(holder), parent=self,
                )
                # Wire the module input port onto the existing holder.
                port = TdfIn("in_u")
                port.module = self.clip
                self.clip.in_u = port
                self.clip._inputs.append((port, holder))
                self.clip.add_output("v", lambda x: float(x[0]))
                self.rec = Recorder("rec", self)
                self.src.out(self.s_in)
                port(self.s_in)
                self.clip.out_v(self.s_out)
                self.rec.inp(self.s_out)

        top = Top()
        sim = Simulator(top)
        sim.run(SimTime(3, "ms"))
        v = np.array(top.rec.samples)
        assert np.max(v) < 0.8          # positive excursions clipped
        assert np.min(v) < -4.0         # negative excursions pass
        assert top.clip.internal_steps > 0

    def test_add_input_creates_port(self):
        holder_module = NonlinearTdfModule(
            "m", DiodeClipper(InputHolder()),
        )
        holder = holder_module.add_input("u")
        assert isinstance(holder, InputHolder)
        assert hasattr(holder_module, "in_u")


class EulerPlugin(TransientSolver):
    """Minimal plug-in: one forward-Euler step of ``x' = (u - x) / tau``
    per synchronization interval."""

    def __init__(self, tau=1e-3):
        self.tau = tau
        self.holder = None
        self._t, self._x = 0.0, np.zeros(1)
        self.steps = 0

    def initialize(self, t0=0.0, x0=None):
        self._t = t0
        self._x = np.zeros(1) if x0 is None else np.asarray(x0, float)
        return self._x

    def advance_to(self, t):
        self._x = self._x + (t - self._t) * (self.holder(t) - self._x) \
            / self.tau
        self._t = t
        self.steps += 1
        return self._x

    @property
    def time(self):
        return self._t

    @property
    def state(self):
        return self._x


class CountingEulerPlugin(EulerPlugin):
    def stats(self):
        return {"solver.steps": self.steps}


def _plugin_snapshot(solver):
    class Top(Module):
        def __init__(self):
            super().__init__("top")
            self.s_in = TdfSignal("s_in")
            self.s_out = TdfSignal("s_out")
            self.src = StepSource("src", self, timestep=us(20))
            self.ct = SolverTdfModule("ct", solver, parent=self)
            solver.holder = self.ct.add_input("u")
            self.ct.add_output("v", lambda x: float(x[0]))
            self.rec = Recorder("rec", self)
            self.src.out(self.s_in)
            self.ct.in_u(self.s_in)
            self.ct.out_v(self.s_out)
            self.rec.inp(self.s_out)

    sim = Simulator(Top())
    sim.run(SimTime(1, "ms"))
    return sim.metrics_snapshot()


class TestSolverPlugin:
    def test_plugin_without_stats_reports_nothing(self):
        snap = _plugin_snapshot(EulerPlugin())
        assert not any("[module=" in key for key in snap)
        assert snap["solver.steps"] == 0.0
        assert snap["tdf.periods"] == 51.0

    def test_plugin_stats_reach_the_snapshot(self):
        solver = CountingEulerPlugin()
        snap = _plugin_snapshot(solver)
        assert solver.steps == 50
        assert snap["solver.steps[module=top.ct]"] == 50.0
        assert snap["solver.steps"] == 50.0

    def test_scipy_solver_matches_builtin(self):
        R, C = 1e3, 1e-6
        tau = R * C

        def build(use_external):
            class Top(Module):
                def __init__(self):
                    super().__init__("top")
                    self.s_in = TdfSignal("s_in")
                    self.s_out = TdfSignal("s_out")
                    self.src = StepSource("src", self, timestep=us(20))
                    if use_external:
                        holder = InputHolder()
                        solver = ScipyIvpSolver(
                            rhs=lambda t, x, h=holder:
                                np.array([(h(t) - x[0]) / tau]),
                            n=1,
                        )
                        self.ct = SolverTdfModule("ct", solver,
                                                  parent=self)
                        port = TdfIn("in_u")
                        port.module = self.ct
                        self.ct.in_u = port
                        self.ct._inputs.append((port, holder))
                        self.ct.add_output("v", lambda x: float(x[0]))
                        self.src.out(self.s_in)
                        port(self.s_in)
                        self.ct.out_v(self.s_out)
                    else:
                        self.ct = ElnTdfModule("ct", rc_network(R, C),
                                               parent=self, oversample=8)
                        self.src.out(self.s_in)
                        self.ct.drive_voltage("Vin")(self.s_in)
                        self.ct.sample_voltage("out")(self.s_out)
                    self.rec = Recorder("rec", self)
                    self.rec.inp(self.s_out)

            top = Top()
            Simulator(top).run(SimTime(3, "ms"))
            return np.array(top.rec.samples)

        builtin = build(False)
        external = build(True)
        np.testing.assert_allclose(builtin, external, atol=5e-3)


class TestInputHolder:
    def test_zero_order_hold(self):
        h = InputHolder(0.0, interpolate=False)
        h.push(5.0, 0.0, 1.0)
        assert h(0.2) == 5.0
        assert h(0.9) == 5.0

    def test_linear_interpolation(self):
        h = InputHolder(0.0)
        h.push(10.0, 0.0, 1.0)
        assert h(0.0) == pytest.approx(0.0)
        assert h(0.5) == pytest.approx(5.0)
        assert h(1.0) == pytest.approx(10.0)
        assert h(2.0) == pytest.approx(10.0)   # clamped beyond the step
        assert h(-1.0) == pytest.approx(0.0)   # clamped before the step

    def test_degenerate_interval_returns_current(self):
        h = InputHolder(1.0)
        h.push(3.0, 2.0, 2.0)
        assert h(2.0) == 3.0
