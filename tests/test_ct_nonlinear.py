"""Tests for the nonlinear DAE machinery: Newton iteration, DC operating
point with homotopy, fixed and variable-step transient, stiffness."""

import numpy as np
import pytest

from repro.core import ConvergenceError, SolverError
from repro.ct import (
    FunctionSystem,
    NonlinearStepper,
    NonlinearSystem,
    NonlinearTransientSolver,
    dc_operating_point,
    newton,
    numeric_jacobian,
    variable_step_transient,
)
from repro.ct.nonlinear import dlimexp, limexp


class TestNewton:
    def test_scalar_quadratic(self):
        x, iterations = newton(
            lambda x: np.array([x[0] ** 2 - 4.0]),
            lambda x: np.array([[2 * x[0]]]),
            np.array([3.0]),
        )
        assert x[0] == pytest.approx(2.0, abs=1e-9)
        assert iterations < 10

    def test_two_dimensional_system(self):
        # x^2 + y^2 = 1, y = x  ->  x = y = 1/sqrt(2)
        def residual(v):
            x, y = v
            return np.array([x * x + y * y - 1.0, y - x])

        def jacobian(v):
            x, y = v
            return np.array([[2 * x, 2 * y], [-1.0, 1.0]])

        v, _ = newton(residual, jacobian, np.array([1.0, 0.5]))
        np.testing.assert_allclose(v, [1 / np.sqrt(2)] * 2, atol=1e-10)

    def test_damping_handles_exponential(self):
        # Diode-style equation: exp(x/0.025) - 1 = 1 A. Undamped Newton
        # from 1.0 V overflows; damping must rescue it.
        vt = 0.025

        def residual(v):
            return np.array([np.exp(np.minimum(v[0] / vt, 200.0)) - 2.0])

        def jacobian(v):
            return np.array([[np.exp(np.minimum(v[0] / vt, 200.0)) / vt]])

        v, _ = newton(residual, jacobian, np.array([1.0]))
        assert v[0] == pytest.approx(vt * np.log(2.0), rel=1e-6)

    def test_divergence_raises(self):
        with pytest.raises(ConvergenceError):
            newton(
                lambda x: np.array([x[0] ** 2 + 1.0]),  # no real root
                lambda x: np.array([[2 * x[0]]]),
                np.array([1.0]),
                max_iterations=25,
            )

    def test_numeric_jacobian_accuracy(self):
        def func(x):
            return np.array([x[0] ** 2 + x[1], np.sin(x[0]) * x[1]])

        x = np.array([0.7, 1.3])
        jac = numeric_jacobian(func, x)
        expected = np.array([
            [2 * 0.7, 1.0],
            [np.cos(0.7) * 1.3, np.sin(0.7)],
        ])
        np.testing.assert_allclose(jac, expected, rtol=1e-5)


class DiodeRc(NonlinearSystem):
    """Series resistor + diode with a parallel capacitor on the diode node.

    Unknown: diode node voltage v.  Equations:
        C dv/dt + Is(exp(v/Vt) - 1) - (Vs - v)/R = 0
    """

    def __init__(self, R=1e3, C=1e-9, i_sat=1e-14, vt=0.025, v_supply=5.0):
        super().__init__(1)
        self.R, self.Cap, self.i_sat, self.vt = R, C, i_sat, vt
        self.v_supply = v_supply

    def charge(self, x):
        return np.array([self.Cap * x[0]])

    def charge_jacobian(self, x):
        return np.array([[self.Cap]])

    def _diode_current(self, v):
        return self.i_sat * (limexp(v / self.vt) - 1.0)

    def static(self, x, t):
        v = x[0]
        return np.array([
            self._diode_current(v) - (self.v_supply - v) / self.R
        ])

    def static_jacobian(self, x, t):
        v = x[0]
        g_diode = self.i_sat * dlimexp(v / self.vt) / self.vt
        return np.array([[g_diode + 1.0 / self.R]])


class TestDcOperatingPoint:
    def test_diode_dc_matches_fixed_point(self):
        circuit = DiodeRc()
        v = dc_operating_point(circuit)
        # Verify KCL holds at the solution.
        residual = circuit.static(v, 0.0)
        assert abs(residual[0]) < 1e-9
        assert 0.5 < v[0] < 0.9  # silicon-diode ballpark

    def test_gmin_stepping_rescues_bad_guess(self):
        circuit = DiodeRc(v_supply=100.0)
        # Start from a hopeless guess; homotopy must still converge.
        v = dc_operating_point(circuit, x0=np.array([50.0]))
        assert abs(circuit.static(v, 0.0)[0]) < 1e-7

    def test_linear_system_one_iteration_region(self):
        sys = FunctionSystem(
            n=1,
            static=lambda x, t: np.array([2.0 * x[0] - 4.0]),
            static_jacobian=lambda x, t: np.array([[2.0]]),
        )
        v = dc_operating_point(sys)
        assert v[0] == pytest.approx(2.0)


class TestFixedStepNonlinear:
    def test_matches_linear_limit(self):
        # With the diode removed (i_sat -> 0) the circuit is a linear RC.
        circuit = DiodeRc(i_sat=0.0, v_supply=1.0)
        stepper = NonlinearStepper(circuit, "trapezoidal")
        tau = circuit.R * circuit.Cap
        h = tau / 100
        x = np.zeros(1)
        t = 0.0
        for _ in range(300):
            x = stepper.step(x, t, h)
            t += h
        assert x[0] == pytest.approx(1 - np.exp(-t / tau), abs=1e-5)

    def test_invalid_method(self):
        with pytest.raises(SolverError):
            NonlinearStepper(DiodeRc(), "magic")

    def test_nonpositive_step(self):
        stepper = NonlinearStepper(DiodeRc())
        with pytest.raises(SolverError):
            stepper.step(np.zeros(1), 0.0, 0.0)


class TestVariableStep:
    def test_rc_charging_accuracy(self):
        circuit = DiodeRc(i_sat=0.0, v_supply=1.0)
        tau = circuit.R * circuit.Cap
        result = variable_step_transient(
            circuit, 5 * tau, x0=np.zeros(1), reltol=1e-6, abstol=1e-9,
        )
        exact = 1 - np.exp(-result.times / tau)
        np.testing.assert_allclose(result.states[:, 0], exact, atol=1e-4)

    def test_step_adaptation_on_stiff_flat_regions(self):
        # Diode clamps quickly, then the waveform is nearly constant.
        # The controller must enlarge steps in the flat region.
        circuit = DiodeRc()
        tau = circuit.R * circuit.Cap
        result = variable_step_transient(
            circuit, 200 * tau, x0=np.zeros(1), h0=tau / 100,
            reltol=1e-4, abstol=1e-7,
        )
        deltas = np.diff(result.times)
        assert deltas[-1] > 10 * deltas[0]
        assert result.accepted_steps == len(result.times) - 1

    def test_result_interpolation(self):
        circuit = DiodeRc(i_sat=0.0, v_supply=1.0)
        tau = circuit.R * circuit.Cap
        result = variable_step_transient(circuit, 5 * tau, x0=np.zeros(1))
        v = result.at(tau)
        assert v[0] == pytest.approx(1 - np.exp(-1.0), abs=1e-3)

    def test_bad_span_rejected(self):
        with pytest.raises(SolverError):
            variable_step_transient(DiodeRc(), t_end=0.0)


class TestNonlinearTransientSolver:
    def test_lockstep_advance(self):
        circuit = DiodeRc(i_sat=0.0, v_supply=1.0)
        tau = circuit.R * circuit.Cap
        solver = NonlinearTransientSolver(circuit, reltol=1e-6, abstol=1e-9)
        solver.initialize(x0=np.zeros(1))
        for k in range(1, 6):
            solver.advance_to(k * tau)
        assert solver.state[0] == pytest.approx(1 - np.exp(-5.0), abs=1e-4)
        assert solver.step_count > 0

    def test_dc_initialization(self):
        circuit = DiodeRc()
        solver = NonlinearTransientSolver(circuit)
        x0 = solver.initialize()
        assert abs(circuit.static(x0, 0.0)[0]) < 1e-7

    def test_backwards_rejected(self):
        solver = NonlinearTransientSolver(DiodeRc())
        solver.initialize(x0=np.zeros(1))
        solver.advance_to(1e-6)
        with pytest.raises(SolverError):
            solver.advance_to(1e-7)

    @pytest.mark.parametrize("target", [np.inf, np.nan])
    def test_non_finite_target_rejected(self, target):
        solver = NonlinearTransientSolver(DiodeRc(i_sat=0.0, v_supply=1.0))
        solver.initialize(x0=np.zeros(1))
        solver.advance_to(1e-6)
        counts = (solver.step_count, solver.rejected_count)
        state = solver.state.copy()
        with pytest.raises(SolverError, match="non-finite time"):
            solver.advance_to(target)
        assert solver.time == 1e-6
        assert (solver.step_count, solver.rejected_count) == counts
        assert solver.state.tobytes() == state.tobytes()
        solver.advance_to(2e-6)
        assert solver.time == 2e-6 and solver.step_count > counts[0]
        assert solver.state[0] > state[0]


class TestFunctionSystem:
    def test_numeric_jacobians_used_when_missing(self):
        sys = FunctionSystem(
            n=1,
            static=lambda x, t: np.array([x[0] ** 3 - 8.0]),
        )
        v = dc_operating_point(sys, x0=np.array([1.5]))
        assert v[0] == pytest.approx(2.0, rel=1e-6)

    def test_van_der_pol_relaxation_oscillation(self):
        # Stiff Van der Pol (mu = 20) as a FunctionSystem in charge form:
        #   q = x (both states dynamic), f = -[y, mu(1-x^2)y - x]
        mu = 20.0

        def static(v, t):
            x, y = v
            return np.array([-y, -(mu * (1 - x * x) * y - x)])

        sys = FunctionSystem(
            n=2, static=static, charge=lambda v: v.copy(),
            charge_jacobian=lambda v: np.eye(2),
        )
        result = variable_step_transient(
            sys, 40.0, x0=np.array([2.0, 0.0]), reltol=1e-5, abstol=1e-8,
            h0=1e-3,
        )
        x = result.states[:, 0]
        # Relaxation oscillation: amplitude stays near 2, sign alternates.
        assert np.max(x) == pytest.approx(2.0, abs=0.1)
        assert np.min(x) == pytest.approx(-2.0, abs=0.1)
        sign_changes = np.sum(np.diff(np.sign(x)) != 0)
        assert sign_changes >= 2
