"""Tests for the extension blocks: FSM MoC, LMS echo canceller,
behavioral PLL, and multi-cluster TDF designs."""

import numpy as np
import pytest

from repro.core import (
    BitSignal,
    Clock,
    ElaborationError,
    Module,
    Signal,
    SimTime,
    Simulator,
)
from repro.de import Fsm
from repro.lib import (
    BehavioralPll,
    LmsFilter,
    SineSource,
    TdfSink,
    lms_cancel,
)
from repro.tdf import TdfModule, TdfOut, TdfSignal


def ns(x):
    return SimTime(x, "ns")


def us(x):
    return SimTime(x, "us")


class TestFsm:
    def build(self):
        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.clk = Clock("clk", period=ns(10), parent=self)
                self.start = BitSignal("start")
                self.done = BitSignal("done")
                self.fsm = Fsm("ctrl", self.clk,
                               inputs=[self.start, self.done],
                               parent=self)
                self.fsm.state("IDLE", initial=True,
                               outputs={"busy": 0})
                self.fsm.state("RUN", outputs={"busy": 1})
                self.fsm.state("DONE", outputs={"busy": 0})
                self.fsm.transition("IDLE", "RUN",
                                    lambda start, done: start)
                self.fsm.transition("RUN", "DONE",
                                    lambda start, done: done)
                self.fsm.transition("DONE", "IDLE",
                                    lambda start, done: not start)
                self.thread(self.stim)
                self.trace = []

            def stim(self):
                yield ns(15)
                self.start.write(True)
                yield ns(20)
                self.trace.append(self.fsm.current_state)
                self.done.write(True)
                yield ns(20)
                self.trace.append(self.fsm.current_state)
                self.start.write(False)
                self.done.write(False)
                yield ns(20)
                self.trace.append(self.fsm.current_state)

        return Top()

    def test_state_sequence(self):
        top = self.build()
        Simulator(top).run(ns(100))
        assert top.trace == ["RUN", "DONE", "IDLE"]
        assert top.fsm.transition_count == 3

    def test_moore_outputs_follow_state(self):
        top = self.build()
        busy_changes = []
        busy = top.fsm.output("busy")
        top.method(lambda: busy_changes.append(busy.read()),
                   sensitivity=[busy], dont_initialize=True)
        Simulator(top).run(ns(100))
        assert busy_changes == [1, 0]

    def test_declaration_validation(self):
        clk = Clock("clk", period=ns(10))
        fsm = Fsm("f", clk, inputs=[])
        fsm.state("A", initial=True)
        with pytest.raises(ElaborationError):
            fsm.state("A")
        with pytest.raises(ElaborationError):
            fsm.state("B", initial=True)
        fsm.state("B")
        with pytest.raises(ElaborationError):
            fsm.transition("A", "NOPE", lambda: True)
        with pytest.raises(ElaborationError):
            fsm.transition("NOPE", "A", lambda: True)
        with pytest.raises(ElaborationError):
            fsm.output("nonexistent")

    def test_missing_initial_state_detected(self):
        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.clk = Clock("clk", period=ns(10), parent=self)
                self.fsm = Fsm("f", self.clk, inputs=[], parent=self)
                self.fsm.state("A")

        with pytest.raises(ElaborationError):
            Simulator(Top()).run(ns(10))

    def test_first_matching_transition_wins(self):
        clk_sig_seen = []

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.clk = Clock("clk", period=ns(10), parent=self)
                self.fsm = Fsm("f", self.clk, inputs=[], parent=self)
                self.fsm.state("A", initial=True)
                self.fsm.state("B")
                self.fsm.state("C")
                self.fsm.transition("A", "B", lambda: True)
                self.fsm.transition("A", "C", lambda: True)

        top = Top()
        Simulator(top).run(ns(15))
        assert top.fsm.current_state == "B"


class TestLms:
    def test_offline_echo_cancellation(self):
        rng = np.random.default_rng(1)
        n = 8000
        reference = rng.normal(size=n)
        echo_path = np.array([0.8, -0.4, 0.2, 0.1])
        echo = np.convolve(reference, echo_path)[:n]
        wanted = 0.1 * np.sin(2 * np.pi * 0.01 * np.arange(n))
        observed = wanted + echo
        # Small mu: the uncancellable 'wanted' component acts as
        # gradient noise whose excess error scales with the step size.
        error, weights = lms_cancel(reference, observed, taps=8,
                                    mu=0.05)
        # Converged weights identify the echo path.
        np.testing.assert_allclose(weights[:4], echo_path, atol=0.02)
        # Residual echo in the tail is tiny: error ~ wanted.
        tail = slice(n - 1000, n)
        residual = error[tail] - wanted[tail]
        assert np.sqrt(np.mean(residual ** 2)) < 0.02

    def test_tdf_module_converges(self):
        rng = np.random.default_rng(2)
        n = 3000
        reference = rng.normal(size=n)
        echo = 0.5 * np.roll(reference, 1)
        echo[0] = 0.0
        observed = echo  # no wanted signal: error should -> 0

        from repro.lib import SampleListSource

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.ref_src = SampleListSource("ref", reference,
                                                parent=self,
                                                timestep=us(1))
                self.obs_src = SampleListSource("obs", observed,
                                                parent=self)
                self.lms = LmsFilter("lms", taps=4, mu=0.5,
                                     parent=self)
                self.sink = TdfSink("sink", self)
                a, b, c, d = (TdfSignal(x) for x in "abcd")
                self.ref_src.out(a)
                self.obs_src.out(b)
                self.lms.reference(a)
                self.lms.desired(b)
                self.lms.out(c)
                self.lms.estimate(d)
                self.sink.inp(c)
                self.est_sink = TdfSink("est_sink", self)
                self.est_sink.inp(d)

        top = Top()
        Simulator(top).run(us(n - 1))
        error = np.asarray(top.sink.samples)
        early = np.sqrt(np.mean(error[:100] ** 2))
        late = np.sqrt(np.mean(error[-500:] ** 2))
        assert late < early / 20
        assert top.lms.weights[1] == pytest.approx(0.5, abs=0.02)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LmsFilter("l", taps=0)
        with pytest.raises(ValueError):
            LmsFilter("l", taps=4, mu=3.0)


class TestPll:
    def run_pll(self, offset_hz, duration_ms=8.0):
        f_ref = 100e3

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.src = SineSource("src", frequency=f_ref + offset_hz,
                                      parent=self, timestep=us(1))
                self.pll = BehavioralPll("pll", center_frequency=f_ref,
                                         loop_bandwidth=4e3,
                                         parent=self)
                self.freq_sink = TdfSink("freq_sink", self)
                self.out_sink = TdfSink("out_sink", self)
                a, b, c, d = (TdfSignal(x) for x in "abcd")
                self.src.out(a)
                self.pll.inp(a)
                self.pll.out(b)
                self.pll.freq(c)
                self.pll.phase_error(d)
                self.out_sink.inp(b)
                self.freq_sink.inp(c)
                self.err_sink = TdfSink("err_sink", self)
                self.err_sink.inp(d)

        top = Top()
        Simulator(top).run(SimTime(duration_ms, "ms"))
        return (np.asarray(top.freq_sink.samples),
                np.asarray(top.err_sink.samples))

    def test_locks_to_offset_carrier(self):
        freq, err = self.run_pll(offset_hz=2e3)
        tail = freq[-1000:]
        assert np.mean(tail) == pytest.approx(102e3, rel=2e-3)
        # Phase error settles near zero (type-II loop).
        assert abs(np.mean(err[-1000:])) < 0.02

    def test_tracks_negative_offset(self):
        freq, _err = self.run_pll(offset_hz=-3e3)
        assert np.mean(freq[-1000:]) == pytest.approx(97e3, rel=3e-3)

    def test_starts_at_center(self):
        freq, _err = self.run_pll(offset_hz=0.0, duration_ms=2.0)
        assert freq[0] == pytest.approx(100e3, rel=1e-3)


class TestMultipleClusters:
    def test_independent_clusters_with_different_periods(self):
        class Src(TdfModule):
            def __init__(self, name, parent, step):
                super().__init__(name, parent)
                self.out = TdfOut("out")
                self._step = step
                self.n = 0

            def set_attributes(self):
                self.set_timestep(self._step)

            def processing(self):
                self.out.write(float(self.n))
                self.n += 1

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.fast_src = Src("fast", self, us(1))
                self.slow_src = Src("slow", self, us(7))
                self.fast_sink = TdfSink("fast_sink", self)
                self.slow_sink = TdfSink("slow_sink", self)
                a, b = TdfSignal("a"), TdfSignal("b")
                self.fast_src.out(a)
                self.fast_sink.inp(a)
                self.slow_src.out(b)
                self.slow_sink.inp(b)

        top = Top()
        sim = Simulator(top)
        sim.run(us(70))
        assert len(top.fast_sink.samples) == 71
        assert len(top.slow_sink.samples) == 11
        registry = sim.tdf_registry
        assert len(registry.clusters) == 2
        periods = sorted(c.period.ticks for c in registry.clusters)
        assert periods == [us(1).ticks, us(7).ticks]
