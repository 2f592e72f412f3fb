"""Tests for AC sweep helpers, noise analysis, threshold crossing
detection, and the external-solver plug-in."""

import numpy as np
import pytest

from repro.core import SolverError
from repro.ct import (
    CrossingDetector,
    LinearDae,
    NoiseSource,
    ScipyIvpSolver,
    ac_sweep,
    corner_frequency,
    flicker_psd,
    integrated_noise,
    linear_crossing,
    magnitude_db,
    output_noise_psd,
    per_source_contributions,
    phase_deg,
    refine_crossing,
    sampled_crossings,
    shot_noise_psd,
    snr_db,
    thermal_current_psd,
    transfer_function,
)
from repro.ct.noise import BOLTZMANN


class TestAcHelpers:
    def setup_method(self):
        self.R, self.C = 1e3, 1e-6
        self.f0 = 1 / (2 * np.pi * self.R * self.C)
        self.Cm = np.array([[self.C]])
        self.Gm = np.array([[1 / self.R]])
        self.b = np.array([1 / self.R])

    def test_transfer_function_matches_analytic(self):
        freqs = np.logspace(0, 5, 41)
        h = transfer_function(self.Cm, self.Gm, self.b, [1.0], freqs)
        expected = 1 / (1 + 1j * freqs / self.f0)
        np.testing.assert_allclose(h, expected, rtol=1e-9)

    def test_magnitude_db_and_phase(self):
        h = np.array([1.0, 1j, -1.0])
        np.testing.assert_allclose(magnitude_db(h), [0.0, 0.0, 0.0],
                                   atol=1e-12)
        phases = phase_deg(h)
        np.testing.assert_allclose(phases, [0.0, 90.0, 180.0], atol=1e-9)

    def test_magnitude_db_floors_zero(self):
        assert magnitude_db(np.array([0.0]))[0] == -400.0

    def test_corner_frequency_rc(self):
        freqs = np.logspace(0, 5, 201)
        h = transfer_function(self.Cm, self.Gm, self.b, [1.0], freqs)
        assert corner_frequency(freqs, h) == pytest.approx(self.f0, rel=1e-2)

    def test_corner_frequency_not_reached(self):
        freqs = np.array([1.0, 2.0])
        with pytest.raises(SolverError):
            corner_frequency(freqs, np.array([1.0, 0.999]))

    def test_ac_sweep_singular_raises(self):
        with pytest.raises(SolverError):
            ac_sweep(np.zeros((1, 1)), np.zeros((1, 1)), [1.0], [1.0])


class TestNoise:
    def test_thermal_psd_value(self):
        psd = thermal_current_psd(1e3, temperature=300.0)
        assert psd == pytest.approx(4 * BOLTZMANN * 300 / 1e3)

    def test_thermal_requires_positive_r(self):
        with pytest.raises(SolverError):
            thermal_current_psd(0.0)

    def test_shot_noise(self):
        assert shot_noise_psd(1e-3) == pytest.approx(2 * 1.602176634e-19 * 1e-3)

    def test_flicker_rolloff(self):
        psd = flicker_psd(1e-12)
        assert psd(10.0) == pytest.approx(1e-13)
        assert psd(100.0) == pytest.approx(1e-14)

    def test_rc_output_noise_integrates_to_kt_over_c(self):
        # The classic result: total output noise of an RC filter driven
        # by the resistor's thermal noise is kT/C, independent of R.
        R, C = 1e4, 1e-9
        Cm, Gm = np.array([[C]]), np.array([[1 / R]])
        source = NoiseSource("R", [1.0], thermal_current_psd(R))
        freqs = np.logspace(0, 9, 4001)
        psd = output_noise_psd(Cm, Gm, [source], [1.0], freqs)
        total = integrated_noise(freqs, psd)
        expected = BOLTZMANN * 300.0 / C
        assert total == pytest.approx(expected, rel=0.02)

    def test_per_source_budget_sums_to_total(self):
        R, C = 1e4, 1e-9
        Cm, Gm = np.array([[C]]), np.array([[1 / R]])
        sources = [
            NoiseSource("a", [1.0], 1e-20),
            NoiseSource("b", [1.0], 3e-20),
        ]
        freqs = np.logspace(1, 6, 31)
        total = output_noise_psd(Cm, Gm, sources, [1.0], freqs)
        parts = per_source_contributions(Cm, Gm, sources, [1.0], freqs)
        np.testing.assert_allclose(parts["a"] + parts["b"], total,
                                   rtol=1e-12)
        np.testing.assert_allclose(parts["b"] / parts["a"], 3.0, rtol=1e-12)

    def test_snr_db(self):
        assert snr_db(1.0, 0.001) == pytest.approx(60.0)
        with pytest.raises(SolverError):
            snr_db(1.0, 0.0)


class TestCrossings:
    def test_linear_crossing_basic(self):
        t = linear_crossing(0.0, -1.0, 1.0, 1.0, 0.0)
        assert t == pytest.approx(0.5)

    def test_direction_filtering(self):
        assert linear_crossing(0, -1, 1, 1, 0, "falling") is None
        assert linear_crossing(0, 1, 1, -1, 0, "falling") == pytest.approx(0.5)
        assert linear_crossing(0, 1, 1, -1, 0, "rising") is None

    def test_no_crossing(self):
        assert linear_crossing(0, 1.0, 1, 2.0, 0.0) is None

    def test_endpoint_hit_counted_once(self):
        # Crossing exactly at t1 reported; then not re-reported from t1.
        det = CrossingDetector(0.0)
        det.feed(0.0, -1.0)
        assert det.feed(1.0, 0.0) == pytest.approx(1.0)
        assert det.feed(2.0, 1.0) is None

    def test_detector_stream(self):
        det = CrossingDetector(0.5, "rising")
        times = np.linspace(0, 1, 101)
        for t in times:
            det.feed(t, np.sin(2 * np.pi * 3 * t))
        assert len(det.crossings) == 3

    def test_sampled_crossings_sine(self):
        t = np.linspace(0, 1, 2001)
        crossings = sampled_crossings(t, np.sin(2 * np.pi * 5 * t),
                                      direction="rising")
        # Rising zero crossings at 0.2, 0.4, 0.6, 0.8 (not the t=0 start).
        np.testing.assert_allclose(crossings, [0.2, 0.4, 0.6, 0.8],
                                   atol=1e-3)

    def test_refine_crossing_bisection(self):
        t = refine_crossing(lambda t: np.cos(t), 1.0, 2.0)
        assert t == pytest.approx(np.pi / 2, abs=1e-9)

    def test_refine_requires_bracket(self):
        with pytest.raises(ValueError):
            refine_crossing(lambda t: 1.0 + t, 0.0, 1.0)

    def test_detector_invalid_direction(self):
        with pytest.raises(ValueError):
            CrossingDetector(0.0, "sideways")

    def test_detector_reset(self):
        det = CrossingDetector(0.0)
        det.feed(0, -1)
        det.feed(1, 1)
        det.reset()
        assert det.crossings == []
        assert det.feed(2, 5) is None  # no stale previous sample


class TestScipyPlugin:
    def test_linear_system_agreement_with_builtin(self):
        from repro.ct import LinearTransientSolver

        R, C = 1e3, 1e-6
        tau = R * C
        dae = LinearDae(
            C=np.array([[C]]), G=np.array([[1 / R]]),
            source=lambda t: np.array([1.0 / R]),
        )
        builtin = LinearTransientSolver(dae, h_internal=tau / 200)
        external = ScipyIvpSolver(linear_system=dae)
        builtin.initialize(x0=np.zeros(1))
        external.initialize(x0=np.zeros(1))
        for k in range(1, 11):
            t = k * tau / 2
            xb = builtin.advance_to(t)
            xe = external.advance_to(t)
            assert xb[0] == pytest.approx(xe[0], abs=1e-4)

    def test_bare_rhs(self):
        solver = ScipyIvpSolver(rhs=lambda t, x: -x, n=1)
        solver.initialize(x0=np.array([1.0]))
        x = solver.advance_to(1.0)
        assert x[0] == pytest.approx(np.exp(-1.0), rel=1e-6)

    @pytest.mark.parametrize("target", [np.inf, np.nan])
    def test_non_finite_target_rejected(self, target):
        solver = ScipyIvpSolver(rhs=lambda t, x: -x, n=1)
        solver.initialize(x0=np.array([1.0]))
        with pytest.raises(SolverError, match="non-finite time"):
            solver.advance_to(target)
        assert solver.time == 0.0 and solver.segment_count == 0
        x = solver.advance_to(1.0)
        assert x[0] == pytest.approx(np.exp(-1.0), rel=1e-6)

    def test_requires_exactly_one_spec(self):
        with pytest.raises(SolverError):
            ScipyIvpSolver()
        with pytest.raises(SolverError):
            ScipyIvpSolver(rhs=lambda t, x: x, n=1,
                           linear_system=LinearDae(np.eye(1), np.eye(1)))

    def test_singular_c_rejected(self):
        dae = LinearDae(np.zeros((1, 1)), np.eye(1))
        with pytest.raises(SolverError):
            ScipyIvpSolver(linear_system=dae)

    def test_rhs_requires_n(self):
        with pytest.raises(SolverError):
            ScipyIvpSolver(rhs=lambda t, x: -x)
