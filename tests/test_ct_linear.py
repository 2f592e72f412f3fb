"""Tests for the linear DAE solver: accuracy against analytic solutions,
convergence orders, DC and AC analyses."""

import numpy as np
import pytest

from repro.core import SolverError
from repro.core import SimTime
from repro.ct import (
    LinearDae,
    LinearStepper,
    LinearTransientSolver,
    state_space_to_dae,
)
from repro.ct.solver_api import substep_counts


def rc_dae(R=1e3, C=1e-6, v_in=1.0):
    """RC lowpass: single state v_c with C*dv/dt + v/R = v_in/R."""
    return LinearDae(
        C=np.array([[C]]),
        G=np.array([[1.0 / R]]),
        source=lambda t: np.array([v_in / R]),
    ), R * C


class TestTransientAccuracy:
    def test_rc_step_response_matches_analytic(self):
        dae, tau = rc_dae()
        times, states = dae.transient(5 * tau, tau / 200, x0=np.zeros(1))
        expected = 1.0 - np.exp(-times / tau)
        np.testing.assert_allclose(states[:, 0], expected, atol=2e-5)

    def test_backward_euler_order_one(self):
        dae, tau = rc_dae()
        errors = []
        steps = [tau / 20, tau / 40, tau / 80]
        for h in steps:
            times, states = dae.transient(
                2 * tau, h, x0=np.zeros(1), method="backward_euler"
            )
            exact = 1.0 - np.exp(-times / tau)
            errors.append(np.max(np.abs(states[:, 0] - exact)))
        order1 = np.log2(errors[0] / errors[1])
        order2 = np.log2(errors[1] / errors[2])
        assert 0.8 < order1 < 1.2
        assert 0.8 < order2 < 1.2

    def test_trapezoidal_order_two(self):
        dae, tau = rc_dae()
        errors = []
        for h in [tau / 20, tau / 40, tau / 80]:
            times, states = dae.transient(
                2 * tau, h, x0=np.zeros(1), method="trapezoidal"
            )
            exact = 1.0 - np.exp(-times / tau)
            errors.append(np.max(np.abs(states[:, 0] - exact)))
        order1 = np.log2(errors[0] / errors[1])
        order2 = np.log2(errors[1] / errors[2])
        assert 1.8 < order1 < 2.2
        assert 1.8 < order2 < 2.2

    def test_undamped_oscillator_trap_energy_preserving(self):
        # x'' = -w^2 x as 2-state system; trapezoidal rule is A-stable
        # and exactly preserves the oscillation amplitude.
        w = 2 * np.pi * 10.0
        A = np.array([[0.0, 1.0], [-w * w, 0.0]])
        dae = state_space_to_dae(A, np.zeros((2, 1)), lambda t: [0.0])
        times, states = dae.transient(
            1.0, 1e-4, x0=np.array([1.0, 0.0]), method="trapezoidal"
        )
        energy = states[:, 0] ** 2 + (states[:, 1] / w) ** 2
        np.testing.assert_allclose(energy, 1.0, rtol=1e-9)

    def test_sinusoidal_drive_steady_state_amplitude(self):
        R, C = 1e3, 1e-6
        f = 1.0 / (2 * np.pi * R * C)  # the -3dB point
        dae = LinearDae(
            C=np.array([[C]]),
            G=np.array([[1.0 / R]]),
            source=lambda t: np.array([np.sin(2 * np.pi * f * t) / R]),
        )
        tau = R * C
        times, states = dae.transient(30 * tau, tau / 500, x0=np.zeros(1))
        tail = states[times > 20 * tau, 0]
        # At the corner, |H| = 1/sqrt(2).
        assert np.max(np.abs(tail)) == pytest.approx(1 / np.sqrt(2), rel=1e-2)

    def test_pure_dae_algebraic_constraint(self):
        # Voltage divider stated as a DAE with singular C:
        #   node equation: (v - u)/R1 + v/R2 = 0, no dynamics.
        R1, R2, u = 1e3, 2e3, 3.0
        dae = LinearDae(
            C=np.array([[0.0]]),
            G=np.array([[1 / R1 + 1 / R2]]),
            source=lambda t: np.array([u / R1]),
        )
        times, states = dae.transient(1e-3, 1e-5)
        np.testing.assert_allclose(states[:, 0], u * R2 / (R1 + R2))


class TestDcAnalysis:
    def test_dc_of_rc_equals_input(self):
        dae, _ = rc_dae(v_in=2.5)
        np.testing.assert_allclose(dae.dc(), [2.5])

    def test_singular_g_raises(self):
        # A pure capacitor has G = 0: no DC solution.
        dae = LinearDae(
            C=np.array([[1e-6]]), G=np.array([[0.0]]),
            source=lambda t: np.array([0.0]),
        )
        with pytest.raises(SolverError):
            dae.dc()


class TestAcAnalysis:
    def test_rc_lowpass_magnitude_and_phase(self):
        R, C = 1e3, 1e-6
        dae = LinearDae(
            C=np.array([[C]]), G=np.array([[1 / R]]),
            source=lambda t: np.array([1.0 / R]),
        )
        f0 = 1 / (2 * np.pi * R * C)
        freqs = np.array([f0 / 100, f0, f0 * 100])
        response = dae.ac(freqs)[:, 0]
        assert abs(response[0]) == pytest.approx(1.0, rel=1e-3)
        assert abs(response[1]) == pytest.approx(1 / np.sqrt(2), rel=1e-6)
        assert abs(response[2]) == pytest.approx(0.01, rel=1e-3)
        assert np.degrees(np.angle(response[1])) == pytest.approx(-45, abs=0.1)

    def test_ac_matches_analytic_over_sweep(self):
        R, C = 2e3, 5e-7
        dae = LinearDae(
            C=np.array([[C]]), G=np.array([[1 / R]]),
            source=lambda t: np.array([1.0 / R]),
        )
        freqs = np.logspace(0, 6, 61)
        response = dae.ac(freqs)[:, 0]
        expected = 1.0 / (1 + 2j * np.pi * freqs * R * C)
        np.testing.assert_allclose(response, expected, rtol=1e-10)


class TestStepper:
    def test_invalid_method_rejected(self):
        dae, _ = rc_dae()
        with pytest.raises(SolverError):
            LinearStepper(dae, 1e-6, method="rk9")

    def test_nonpositive_timestep_rejected(self):
        dae, _ = rc_dae()
        with pytest.raises(SolverError):
            LinearStepper(dae, 0.0)
        stepper = LinearStepper(dae, 1e-6)
        with pytest.raises(SolverError):
            stepper.set_timestep(-1.0)

    def test_set_timestep_refactorizes(self):
        dae, tau = rc_dae()
        stepper = LinearStepper(dae, tau / 10)
        x = np.zeros(1)
        x = stepper.step(x, 0.0)
        stepper.set_timestep(tau / 100)
        x2 = stepper.step(x, tau / 10)
        assert np.isfinite(x2[0])
        assert x2[0] > x[0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SolverError):
            LinearDae(np.zeros((2, 2)), np.zeros((3, 3)))


class TestLinearTransientSolver:
    def test_advance_matches_direct_transient(self):
        dae, tau = rc_dae()
        solver = LinearTransientSolver(dae, h_internal=tau / 100)
        solver.initialize(x0=np.zeros(1))
        for k in range(1, 11):
            solver.advance_to(k * tau / 2)
        expected = 1 - np.exp(-5.0)
        assert solver.state[0] == pytest.approx(expected, abs=1e-4)
        assert solver.time == pytest.approx(5 * tau)

    def test_backwards_advance_rejected(self):
        dae, tau = rc_dae()
        solver = LinearTransientSolver(dae)
        solver.initialize()
        solver.advance_to(tau)
        with pytest.raises(SolverError):
            solver.advance_to(tau / 2)

    def test_zero_interval_is_noop(self):
        dae, tau = rc_dae()
        solver = LinearTransientSolver(dae)
        solver.initialize(x0=np.zeros(1))
        state = solver.advance_to(0.0)
        np.testing.assert_allclose(state, [0.0])


class TestSubstepCounts:
    @pytest.mark.parametrize("step_us", [0.1, 1, 3])
    @pytest.mark.parametrize("oversample", [2, 3, 4])
    @pytest.mark.parametrize("start_s", [0.0, 0.02, 1.0, 1000.0])
    def test_sync_intervals_take_exactly_oversample_steps(
            self, step_us, oversample, start_s):
        """Activation instants are integer ticks scaled to seconds, as
        TDF modules compute them; late in a run their rounding exceeds
        a fixed 1e-12 relative slack."""
        step = SimTime(step_us, "us")
        first = int(round(start_s / step.to_seconds()))
        ticks = (first + np.arange(500, dtype=np.int64)) * step.ticks
        times = ticks * 1e-15
        h_internal = step.to_seconds() / oversample
        counts = substep_counts(times[:-1], times[1:], h_internal)
        assert np.all(counts == oversample)
        assert int(substep_counts(times[-2], times[-1], h_internal)) \
            == oversample

    def test_partial_steps_round_up(self):
        assert substep_counts(0.0, 2.5e-6, 1e-6) == 3
        assert substep_counts(0.0, 1e-6 * (1 + 1e-9), 1e-6) == 2
        # an interval far below h_internal still takes one step
        assert substep_counts(1.0, 1.0 + 1e-15, 1e-3) == 1


class TestStateSpaceAdapter:
    def test_first_order_system(self):
        # x' = -x + u, u = 1: x(t) = 1 - exp(-t)
        dae = state_space_to_dae([[-1.0]], [[1.0]], lambda t: [1.0])
        times, states = dae.transient(5.0, 1e-3, x0=np.zeros(1))
        np.testing.assert_allclose(
            states[:, 0], 1 - np.exp(-times), atol=1e-6
        )

    def test_b_shape_validation(self):
        with pytest.raises(SolverError):
            state_space_to_dae(np.eye(2), np.ones((3, 1)), lambda t: [0.0])
