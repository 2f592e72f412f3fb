"""Tests for the linear DAE solver: accuracy against analytic solutions,
convergence orders, DC and AC analyses."""

import cProfile
import pstats

import numpy as np
import pytest

from repro.core import FEMTO, SimTime, SolverError
from repro.ct import (
    LinearDae,
    LinearStepper,
    LinearTransientSolver,
    state_space_to_dae,
)
from repro.ct.linear import ExpmStepper, make_stepper
from repro.ct.solver_api import substep_counts, tick_interval
from repro.eln import (
    Capacitor,
    Isource,
    Network,
    Resistor,
    Vsource,
    transient_analysis,
)


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

    @pytest.mark.parametrize("t_end", [-1e-3, -1e-6, np.nan, np.inf])
    def test_unreachable_end_time_rejected(self, t_end):
        dae, _ = rc_dae()
        with pytest.raises(SolverError, match="t_end"):
            dae.transient(t_end, 1e-6)
        net = Network()
        net.add(Vsource("Vin", "in", "0", voltage=lambda t: 1.0))
        net.add(Resistor("R1", "in", "0", 1e3))
        with pytest.raises(SolverError, match="t_end"):
            transient_analysis(net, t_end, 1e-6)

    def test_zero_span_returns_initial_state(self):
        dae, _ = rc_dae()
        times, states = dae.transient(1e-3, 1e-6, x0=np.zeros(1), t0=1e-3)
        assert times.tolist() == [1e-3] and states.tolist() == [[0.0]]

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

    @pytest.mark.parametrize("h", [np.inf, np.nan])
    def test_non_finite_timestep_rejected(self, h):
        """An infinite step would solve the DC point: a 1 V source into
        an RC must not jump from rest to its final value in one step."""
        dae, _ = rc_dae()
        with pytest.raises(SolverError, match="positive and finite"):
            LinearStepper(dae, h)
        with pytest.raises(SolverError, match="positive and finite"):
            ExpmStepper(dae, h)
        for stepper in (LinearStepper(dae, 1e-6), ExpmStepper(dae, 1e-6)):
            with pytest.raises(SolverError, match="positive and finite"):
                stepper.set_timestep(h)
            assert stepper.h == 1e-6

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


def ode_ladder(nodes=5):
    """An RC ladder with a capacitor on every node, driven by a current
    source: an assembled network (sources laid out in ``source.rows``)
    whose ``C`` is invertible, so every stepper variant accepts it."""
    net = Network()
    net.add(Isource("Iin", "n1", "0",
                    current=lambda t: 1e-3 * np.sin(2e4 * np.pi * t)))
    net.add(Capacitor("C0", "n1", "0", 1e-9))
    net.add(Resistor("R0", "n1", "0", 1e3))
    for k in range(1, nodes):
        net.add(Resistor(f"R{k}", f"n{k}", f"n{k + 1}", 1e3))
        net.add(Capacitor(f"C{k}", f"n{k + 1}", "0", 1e-9))
    return net.assemble()[0]


def plain_ode(nodes=5):
    """The same ladder with a bare callable source (no row layout)."""
    ladder = ode_ladder(nodes)
    C, G = ladder.dense_matrices()

    def source(t):
        return np.linspace(1.0, 2.0, ladder.n) * np.cos(3e4 * t)

    return LinearDae(C, G, source)


class TestWindowPartition:
    """A window's states depend on its steps, not on how they are cut
    into ``step_window`` calls or replayed through ``step``."""

    STEPS = 200

    @pytest.mark.parametrize("system, method, variant", [
        (ode_ladder, "trapezoidal", "dense"),
        (ode_ladder, "backward_euler", "dense"),
        (ode_ladder, "trapezoidal", "expm"),
        (ode_ladder, "trapezoidal", "sparse"),
        (plain_ode, "trapezoidal", "dense"),
        (plain_ode, "trapezoidal", "expm"),
        # one to three unknowns, down to the voltage-driven RC (with
        # algebraic rows) of a Sigma-Delta front end
        (lambda: ode_ladder(1), "trapezoidal", "dense"),
        (lambda: ode_ladder(1), "backward_euler", "dense"),
        (lambda: ode_ladder(2), "trapezoidal", "dense"),
        (lambda: ode_ladder(2), "backward_euler", "dense"),
        (lambda: ode_ladder(3), "trapezoidal", "dense"),
        (lambda: ode_ladder(3), "backward_euler", "dense"),
        (lambda: ode_ladder(2), "trapezoidal", "expm"),
        (lambda: plain_ode(3), "trapezoidal", "dense"),
        (lambda: rc_ladder(1), "trapezoidal", "dense"),
    ], ids=["dense-trap", "dense-be", "expm", "sparse-trap", "plain-dense",
            "plain-expm", "1-trap", "1-be", "2-trap", "2-be", "3-trap",
            "3-be", "2-expm", "plain-3", "rc-3"])
    def test_every_cut_and_step_loop_match(self, system, method, variant):
        dae = system()
        h = 1e-6 / 3  # the stepper is built for 1 us
        times = np.arange(self.STEPS) * h
        b_next = dae.eval_source_block(times + h)
        b_now = dae.eval_source_block(times)
        x0 = np.linspace(-1.0, 1.0, dae.n)
        stepper = make_stepper(dae, 1e-6, method, variant)
        whole = stepper.step_window(x0, h, b_next, b_now, times)
        for cut in range(1, self.STEPS):
            head = stepper.step_window(x0, h, b_next[:cut], b_now[:cut],
                                       times[:cut])
            tail = stepper.step_window(head[-1], h, b_next[cut:],
                                       b_now[cut:], times[cut:])
            assert np.concatenate((head, tail)).tobytes() \
                == whole.tobytes(), f"cut at step {cut}"
        x = x0
        looped = np.empty_like(whole)
        for k in range(self.STEPS):
            x = looped[k] = stepper.step(x, times[k])
        assert looped.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("bad_step", [0, 57, 199])
    def test_non_finite_step_reported_at_its_time(self, bad_step):
        """A source that turns NaN at step ``k`` fails the window with
        the time of step ``k``."""
        dae = rc_ladder(1)
        times = np.arange(self.STEPS) * 1e-6
        b_next = dae.eval_source_block(times + 1e-6)
        b_now = dae.eval_source_block(times)
        b_next[bad_step:] = np.nan
        b_now[bad_step + 1:] = np.nan
        stepper = make_stepper(dae, 1e-6, "trapezoidal", "dense")
        with pytest.raises(SolverError, match="non-finite") as error:
            stepper.step_window(dae.dc(), 1e-6,
                                b_next, b_now, times)
        assert error.value.time_point == times[bad_step]


class TestFloatSteps:
    def test_window_makes_no_call_per_step(self):
        """Three unknowns step on Python floats: a 1,000-step window
        makes a few dozen calls, not one ``np.dot`` per step."""
        dae = ode_ladder(3)
        steps = 1000
        times = np.arange(steps) * 1e-6
        b_next = dae.eval_source_block(times + 1e-6)
        b_now = dae.eval_source_block(times)
        stepper = make_stepper(dae, 1e-6, "trapezoidal", "dense")
        profile = cProfile.Profile()
        states = profile.runcall(stepper.step_window, np.zeros(dae.n),
                                 1e-6, b_next, b_now, times)
        assert states.shape == (steps, 3)
        assert pstats.Stats(profile).total_calls <= 50


class TestOneCallSteps:
    @pytest.mark.parametrize("variant", ["dense", "expm"])
    def test_source_free_network(self, variant):
        """Above three unknowns a step is one mat-vec of ``[phi |
        gain]`` with the state and the source columns side by side; a
        network with no source has no source columns.  Its window
        equals the step loop byte for byte, and the charge decays."""
        net = Network()
        net.add(Capacitor("C0", "n1", "0", 1e-9))
        net.add(Resistor("R0", "n1", "0", 1e3))
        for k in range(1, 4):
            net.add(Resistor(f"R{k}", f"n{k}", f"n{k + 1}", 1e3))
            net.add(Capacitor(f"C{k}", f"n{k + 1}", "0", 1e-9))
        dae = net.assemble()[0]
        assert dae.n == 4 and dae.source.rows == ()
        stepper = make_stepper(dae, 1e-6, "trapezoidal", variant)
        times = np.arange(50) * 1e-6
        x0 = np.array([1.0, 0.0, 0.0, 0.0])
        window = stepper.step_block(x0, times)
        x = x0
        for k, t in enumerate(times):
            x = stepper.step(x, t)
            assert x.tobytes() == window[k].tobytes()
        assert 0.0 < abs(window[-1]).max() < 0.01


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

    @pytest.mark.parametrize("h_internal", [0.0, -1e-6, np.inf, np.nan])
    def test_unusable_internal_step_rejected(self, h_internal):
        dae, _ = rc_dae()
        with pytest.raises(SolverError, match="h_internal"):
            LinearTransientSolver(dae, h_internal=h_internal)

    @pytest.mark.parametrize("target", [np.inf, np.nan])
    def test_non_finite_target_rejected(self, target):
        dae, tau = rc_dae()
        solver = LinearTransientSolver(dae, h_internal=tau / 10)
        solver.initialize(x0=np.zeros(1))
        with pytest.raises(SolverError, match="non-finite time"):
            solver.advance_to(target)
        assert solver.time == 0.0
        solver.advance_to(tau)
        assert solver.step_count == 10

    def test_zero_interval_is_noop(self):
        dae, tau = rc_dae()
        solver = LinearTransientSolver(dae)
        solver.initialize(x0=np.zeros(1))
        state = solver.advance_to(0.0)
        np.testing.assert_allclose(state, [0.0])


class TestSnapAlgebraic:
    @pytest.mark.parametrize("sparse", [False, True],
                             ids=["dense", "sparse"])
    def test_moves_algebraic_unknowns_only(self, sparse):
        level = [1.0]
        net = Network()
        net.add(Vsource("Vin", "in", "0", voltage=lambda t: level[0]))
        net.add(Resistor("R1", "in", "out", 1e3))
        net.add(Capacitor("C1", "out", "0", 1e-9))
        dae, _ = net.assemble(sparse=sparse)
        solver = LinearTransientSolver(dae)
        solver.initialize()
        level[0] = 2.0
        x = solver.snap_algebraic(1e-6)
        names = dae.names
        assert x[names.index("v(in)")] == pytest.approx(2.0, rel=1e-12)
        assert x[names.index("v(out)")] == pytest.approx(1.0, rel=1e-6)
        assert abs(x[names.index("i(Vin)")]) == pytest.approx(1e-3,
                                                              rel=1e-6)
        assert solver.time == 0.0 and solver.step_count == 0

    def test_singular_system_rejected(self):
        solver = LinearTransientSolver(
            LinearDae(C=np.zeros((1, 1)), G=np.zeros((1, 1))))
        solver.initialize(x0=np.zeros(1))
        with pytest.raises(SolverError, match="singular"):
            solver.snap_algebraic(1e-6)


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
        counts = [substep_counts(a, b, h_internal)
                  for a, b in zip(times[:-1].tolist(), times[1:].tolist())]
        assert counts == [oversample] * (len(times) - 1)

    def test_partial_steps_round_up(self):
        assert substep_counts(0.0, 2.5e-6, 1e-6) == 3
        assert substep_counts(0.0, 1e-6 * (1 + 1e-9), 1e-6) == 2
        # an interval far below h_internal still takes one step
        assert substep_counts(1.0, 1.0 + 1e-15, 1e-3) == 1


class TestTickInterval:
    @pytest.mark.parametrize("step_us", [0.1, 1, 3])
    @pytest.mark.parametrize("start_s", [0.02, 1.0])
    def test_grid_intervals_are_tick_exact(self, step_us, start_s):
        """Intervals between tick-grid instants jitter at ULP level;
        each comes out as exactly ``ticks * FEMTO``."""
        step = SimTime(step_us, "us")
        first = int(round(start_s / step.to_seconds()))
        times = (first + np.arange(200, dtype=np.int64)) * step.ticks * FEMTO
        assert len(set(np.diff(times).tolist())) > 1
        exact = [tick_interval(float(a), float(b))
                 for a, b in zip(times[:-1], times[1:])]
        assert all(type(h) is float for h in exact)
        assert exact == [step.ticks * FEMTO] * (len(times) - 1)

    @pytest.mark.parametrize("start_s", [0.0, 0.02])
    def test_off_grid_interval_unchanged(self, start_s):
        t = start_s + 1e-6 / 3
        assert tick_interval(start_s, t) == t - start_s


def rc_ladder(sections=40):
    """A damped RC ladder driven by a sine voltage source."""
    net = Network()
    net.add(Vsource("Vin", "n0", "0",
                    voltage=lambda t: np.sin(2e4 * np.pi * t)))
    for k in range(sections):
        net.add(Resistor(f"R{k}", f"n{k}", f"n{k + 1}", 1e3))
        net.add(Capacitor(f"C{k}", f"n{k + 1}", "0", 1e-9))
    return net.assemble()[0]


class TestPropagatorAccuracy:
    """The dense stepper keeps ``phi = A^-1 M`` and ``A^-1`` per step
    size instead of solving with ``A`` every step; the recurrence it
    runs stays at round-off distance from the per-step solve."""

    STEPS = 10_000

    def test_damped_ladder_matches_per_step_solve(self):
        h = 1e-7
        times = np.arange(self.STEPS) * h
        for sections in (40, 1):
            dae = rc_ladder(sections)
            states = make_stepper(dae, h, "trapezoidal", "dense").step_block(
                np.zeros(dae.n), times)
            C, G = dae.dense_matrices()
            A, M = 2.0 * C / h + G, 2.0 * C / h - G
            forcing = dae.eval_source_block(times + h) \
                + dae.eval_source_block(times)
            x = np.zeros(dae.n)
            reference = np.empty_like(states)
            for k in range(self.STEPS):
                x = reference[k] = np.linalg.solve(A, M @ x + forcing[k])
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(states - reference)) <= 1e-12 * scale, \
                f"{sections} sections"

    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    def test_undamped_tank_matches_extended_precision(self, method):
        """An LC tank (``C v' = -i``, ``L i' = v``) rings for 50
        periods; compare with the same discretization run in
        ``np.longdouble`` through the closed-form 2x2 inverse."""
        cap, ind, h = 1e-6, 1e-3, 1e-6
        C = np.diag([cap, ind])
        G = np.array([[0.0, 1.0], [-1.0, 0.0]])
        dae = LinearDae(C, G, lambda t: np.array([1e-3 * np.cos(3e4 * t),
                                                  0.0]))
        x0 = np.array([1.0, 0.0])
        times = np.arange(self.STEPS) * h
        states = make_stepper(dae, h, method, "dense").step_block(x0, times)

        ld = np.longdouble
        h_ld = ld(h)
        scale = 1 if method == "backward_euler" else 2
        A = np.array(C, dtype=ld) * scale / h_ld + np.array(G, dtype=ld)
        M = np.array(C, dtype=ld) * scale / h_ld
        if method == "trapezoidal":
            M = M - np.array(G, dtype=ld)
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        A_inv = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]]) / det
        x = np.array(x0, dtype=ld)
        reference = np.empty(states.shape, dtype=ld)
        for k, t in enumerate(times):
            rhs = M @ x + np.array(dae.source(t + h), dtype=ld)
            if method == "trapezoidal":
                rhs = rhs + np.array(dae.source(t), dtype=ld)
            x = reference[k] = A_inv @ rhs
        error = np.max(np.abs(states - reference))
        assert error <= 1e-9 * np.max(np.abs(reference))


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
