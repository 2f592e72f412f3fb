"""Tests for the PWL power-electronics solver and driver models."""

import numpy as np
import pytest

from repro.core import ElaborationError, SolverError
from repro.power import (
    HalfBridgeDriver,
    PwlConfig,
    PwlSolver,
    RCLoad,
    RLLoad,
    RlcLoad,
    run_schedule,
)


class TestPwlSolver:
    def test_exact_first_order_decay(self):
        solver = PwlSolver({"a": PwlConfig([[-10.0]], [0.0])})
        x = solver.advance(np.array([1.0]), "a", 0.3)
        assert x[0] == pytest.approx(np.exp(-3.0), rel=1e-12)

    def test_exact_forced_response(self):
        # x' = -x + 5: x_inf = 5.
        solver = PwlSolver({"a": PwlConfig([[-1.0]], [5.0])})
        x = solver.advance(np.zeros(1), "a", 2.0)
        assert x[0] == pytest.approx(5 * (1 - np.exp(-2.0)), rel=1e-12)

    def test_singular_a_integrator(self):
        # x' = 3 (pure integrator, singular A): augmented-matrix path.
        solver = PwlSolver({"a": PwlConfig([[0.0]], [3.0])})
        x = solver.advance(np.array([1.0]), "a", 2.0)
        assert x[0] == pytest.approx(7.0, rel=1e-12)

    def test_second_order_oscillator_exact(self):
        w = 2 * np.pi * 100.0
        solver = PwlSolver({
            "a": PwlConfig([[0.0, 1.0], [-w * w, 0.0]], [0.0, 0.0])
        })
        x = solver.advance(np.array([1.0, 0.0]), "a", 1.0 / 400.0)
        # Quarter period: x -> (cos(pi/2), ...) = (0, -w).
        assert x[0] == pytest.approx(np.cos(w / 400), abs=1e-9)

    def test_transition_cache_reused(self):
        solver = PwlSolver({"a": PwlConfig([[-1.0]], [0.0])})
        solver.advance(np.ones(1), "a", 0.1)
        solver.advance(np.ones(1), "a", 0.1)
        assert len(solver._cache) == 1
        assert solver.segment_count == 2

    def test_validation(self):
        with pytest.raises(SolverError):
            PwlSolver({})
        with pytest.raises(SolverError):
            PwlSolver({
                "a": PwlConfig([[-1.0]], [0.0]),
                "b": PwlConfig(np.eye(2), np.zeros(2)),
            })
        solver = PwlSolver({"a": PwlConfig([[-1.0]], [0.0])})
        with pytest.raises(SolverError):
            solver.advance(np.ones(1), "nope", 0.1)
        with pytest.raises(SolverError):
            solver.advance(np.ones(1), "a", -0.1)

    def test_zero_duration_identity(self):
        solver = PwlSolver({"a": PwlConfig([[-1.0]], [0.0])})
        np.testing.assert_array_equal(
            solver.advance(np.array([2.0]), "a", 0.0), [2.0]
        )

    def test_run_schedule_concatenates(self):
        solver = PwlSolver({
            "up": PwlConfig([[0.0]], [1.0]),
            "down": PwlConfig([[0.0]], [-1.0]),
        })
        times, states = run_schedule(
            solver, [("up", 1.0), ("down", 0.5)], np.zeros(1),
            samples_per_segment=2,
        )
        np.testing.assert_allclose(times, [0, 0.5, 1.0, 1.25, 1.5])
        np.testing.assert_allclose(states[:, 0], [0, 0.5, 1.0, 0.75, 0.5])


class TestSteadyState:
    def test_rl_steady_state_average(self):
        """Buck-style: average inductor current = duty * V / R."""
        driver = HalfBridgeDriver(
            RLLoad(resistance=1.0, inductance=1e-3),
            v_supply=10.0, r_on=0.0, pwm_frequency=10e3, duty=0.3,
        )
        average = driver.average_output()[0]
        assert average == pytest.approx(3.0, rel=0.01)

    def test_steady_state_is_periodic_fixed_point(self):
        driver = HalfBridgeDriver(
            RLLoad(resistance=2.0, inductance=5e-4),
            v_supply=12.0, pwm_frequency=20e3, duty=0.6,
        )
        x0 = driver.steady_state()
        schedule = driver.period_schedule()
        x1 = driver.solver.advance(x0, schedule[0][0], schedule[0][1])
        x1 = driver.solver.advance(x1, schedule[1][0], schedule[1][1])
        np.testing.assert_allclose(x1, x0, rtol=1e-9)

    def test_ripple_decreases_with_frequency(self):
        def ripple(freq):
            driver = HalfBridgeDriver(
                RLLoad(resistance=1.0, inductance=1e-3),
                v_supply=10.0, pwm_frequency=freq, duty=0.5,
            )
            return driver.steady_ripple()[0]

        assert ripple(100e3) < ripple(10e3) / 5

    def test_rc_load_steady_average(self):
        driver = HalfBridgeDriver(
            RCLoad(resistance=100.0, capacitance=1e-6),
            v_supply=5.0, r_on=0.0, pwm_frequency=50e3, duty=0.4,
        )
        assert driver.average_output()[0] == pytest.approx(2.0, rel=0.01)

    def test_rlc_filter_smooths_output(self):
        driver = HalfBridgeDriver(
            RlcLoad(resistance=0.1, inductance=100e-6,
                    capacitance=100e-6, load_resistance=10.0),
            v_supply=12.0, pwm_frequency=100e3, duty=0.5,
        )
        ripple = driver.steady_ripple()
        average = driver.average_output()
        # Output voltage ~ duty * supply with small ripple.
        assert average[1] == pytest.approx(6.0, rel=0.05)
        assert ripple[1] < 0.05


class TestTransient:
    def test_rl_rise_matches_analytic(self):
        R, L, V = 1.0, 1e-3, 10.0
        driver = HalfBridgeDriver(
            RLLoad(resistance=R, inductance=L), v_supply=V, r_on=0.0,
            pwm_frequency=1e3, duty=0.999,  # essentially always on
        )
        times, states = driver.simulate(3, samples_per_segment=50)
        tau = L / R
        expected = V / R * (1 - np.exp(-times / tau))
        # The 0.1% off-segment barely disturbs the rise.
        np.testing.assert_allclose(states[:, 0], expected, atol=0.05)

    def test_pwm_waveform_shape(self):
        driver = HalfBridgeDriver(
            RLLoad(resistance=1.0, inductance=1e-3),
            v_supply=10.0, r_on=0.0, pwm_frequency=10e3, duty=0.5,
        )
        times, states = driver.simulate(50, samples_per_segment=4)
        current = states[:, 0]
        # Rises toward steady state, then oscillates about the average.
        tail = current[len(current) // 2:]
        assert np.mean(tail) == pytest.approx(5.0, rel=0.05)
        assert np.ptp(tail) > 0.01  # visible switching ripple

    def test_validation(self):
        with pytest.raises(ElaborationError):
            HalfBridgeDriver(RLLoad(1.0, 1e-3), duty=0.0)
        with pytest.raises(ElaborationError):
            HalfBridgeDriver(RLLoad(1.0, 1e-3), pwm_frequency=0.0)
        with pytest.raises(ElaborationError):
            RLLoad(0.0, 1e-3)
        with pytest.raises(ElaborationError):
            RCLoad(1.0, 0.0)
        with pytest.raises(ElaborationError):
            RlcLoad(1.0, 0.0, 1e-6)


class TestPwmDriverModule:
    def test_de_gated_driver_in_tdf(self):
        from repro.core import Clock, Module, SimTime, Simulator
        from repro.lib import TdfSink
        from repro.power import PwmDriverModule
        from repro.tdf import TdfSignal

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                # 10 kHz PWM from a DE clock, 50% duty.
                self.clk = Clock("clk", period=SimTime(100, "us"),
                                 parent=self)
                self.drv = PwmDriverModule(
                    "drv", RLLoad(resistance=1.0, inductance=1e-3),
                    v_supply=10.0, r_on=0.0, parent=self,
                )
                self.drv.set_timestep(SimTime(10, "us"))
                self.drv.bind_gate(self.clk.signal)
                self.sig = TdfSignal("i")
                self.drv.out_i_load(self.sig)
                self.sink = TdfSink("sink", self)
                self.sink.inp(self.sig)

        top = Top()
        Simulator(top).run(SimTime(20, "ms"))
        t, i = top.sink.as_arrays()
        tail = i[len(i) // 2:]
        assert np.mean(tail) == pytest.approx(5.0, rel=0.1)
        assert np.ptp(tail) > 0.05
