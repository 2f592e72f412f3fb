"""Tests for baselines: golden models agree with the framework, and the
naive DE chain is measurably less efficient than the TDF cluster."""

import numpy as np
import pytest

from repro.analysis import coherent_tone_frequency
from repro.baselines import (
    golden_pipeline_convert,
    golden_quantize,
    linear_dae_reference,
    ode_reference,
    rc_step_response,
    run_naive_chain,
    run_tdf_chain,
    series_rlc_step_response,
    van_der_pol_reference,
)
from repro.ct import LinearDae
from repro.lib import PipelinedAdc, quantize_midrise


class TestScipyReferences:
    def test_rc_reference_matches_framework_transient(self):
        R, C = 1e3, 1e-6
        dae = LinearDae(
            C=np.array([[C]]), G=np.array([[1 / R]]),
            source=lambda t: np.array([1.0 / R]),
        )
        times, states = dae.transient(5e-3, 1e-6, x0=np.zeros(1))
        reference = rc_step_response(R, C, 1.0, times)
        np.testing.assert_allclose(states[:, 0], reference, atol=1e-6)

    def test_rlc_reference_requires_underdamped(self):
        with pytest.raises(ValueError):
            series_rlc_step_response(1e6, 1e-3, 1e-9, 1.0,
                                     np.linspace(0, 1e-6, 10))

    def test_ode_reference_exponential(self):
        times = np.linspace(0, 2, 21)
        trajectory = ode_reference(lambda t, x: -x, [1.0], times)
        np.testing.assert_allclose(trajectory[:, 0], np.exp(-times),
                                   rtol=1e-8)

    def test_linear_dae_reference(self):
        C = np.array([[1e-6]])
        G = np.array([[1e-3]])
        times = np.linspace(0, 5e-3, 11)
        trajectory = linear_dae_reference(
            C, G, lambda t: np.array([1e-3]), np.zeros(1), times
        )
        np.testing.assert_allclose(
            trajectory[:, 0], 1 - np.exp(-times / 1e-3), rtol=1e-6
        )

    def test_van_der_pol_runs(self):
        times = np.linspace(0, 10, 101)
        trajectory = van_der_pol_reference(5.0, [2.0, 0.0], times)
        assert trajectory.shape == (101, 2)
        assert np.max(np.abs(trajectory[:, 0])) < 2.5


class TestGoldenAdc:
    def test_golden_matches_framework_ideal(self):
        fs, n = 1e6, 2048
        f = coherent_tone_frequency(fs, n, 13e3)
        x = 0.9 * np.sin(2 * np.pi * f * np.arange(n) / fs)
        adc = PipelinedAdc(n_stages=6, backend_bits=4)
        framework = adc.convert_array(x)
        golden = golden_pipeline_convert(x, 6, 4)
        np.testing.assert_allclose(framework, golden, atol=1e-12)

    def test_golden_matches_framework_with_gain_errors(self):
        rng = np.random.default_rng(8)
        errors = rng.uniform(-0.02, 0.02, 5).tolist()
        x = rng.uniform(-0.9, 0.9, 500)
        adc = PipelinedAdc(n_stages=5, backend_bits=3,
                           gain_errors=errors)
        for calibrated in (True, False):
            framework = adc.convert_array(x, calibrated=calibrated)
            golden = golden_pipeline_convert(
                x, 5, 3, gain_errors=errors, calibrated=calibrated
            )
            np.testing.assert_allclose(framework, golden, atol=1e-12)

    def test_golden_quantizer_matches(self):
        x = np.linspace(-1.2, 1.2, 1001)
        golden = golden_quantize(x, 6)
        framework = np.array([quantize_midrise(v, 6) for v in x])
        np.testing.assert_allclose(golden, framework, atol=1e-15)


class TestSchedulingBaseline:
    def test_same_numerical_results(self):
        # The naive chain drops the t=0 sample (sin(0)=0 produces no
        # signal change, so nothing propagates); align accordingly.
        naive, _ = run_naive_chain(n_blocks=6, n_samples=40)
        tdf, _ = run_tdf_chain(n_blocks=6, n_samples=40)
        m = min(len(naive), len(tdf) - 1)
        assert m >= 35
        np.testing.assert_allclose(naive[:m], tdf[1:m + 1], atol=1e-12)

    def test_tdf_needs_fewer_kernel_activations(self):
        _, naive_stats = run_naive_chain(n_blocks=16, n_samples=100)
        _, tdf_stats = run_tdf_chain(n_blocks=16, n_samples=100)
        # The naive chain wakes the kernel once per block per sample
        # (plus delta churn); the cluster wakes once per sample.
        assert tdf_stats["kernel_activations"] < \
            naive_stats["kernel_activations"] / 4
        assert tdf_stats["delta_cycles"] < naive_stats["delta_cycles"]

    def test_block_evaluation_counts(self):
        _, naive_stats = run_naive_chain(n_blocks=8, n_samples=50)
        _, tdf_stats = run_tdf_chain(n_blocks=8, n_samples=50)
        # Both execute each block roughly once per sample (the naive
        # chain skips the no-change t=0 sample; the TDF schedule runs
        # one extra period at the end boundary).
        assert abs(tdf_stats["block_evaluations"]
                   - naive_stats["block_evaluations"]) <= 2 * 8
