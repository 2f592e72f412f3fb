"""Tests for single-tone harmonic balance (large-signal frequency
domain, Phase 2)."""

import numpy as np
import pytest

from repro.core import SolverError
from repro.ct import FunctionSystem, variable_step_transient
from repro.ct.harmonic import harmonic_balance
from repro.eln import Capacitor, Isource, Resistor
from repro.nonlin import Diode, NonlinearNetwork


def linear_rc(r=1e3, c=1e-6, amplitude=1.0, frequency=1e3):
    """Driven linear RC as a FunctionSystem (known analytic HB)."""
    w = 2 * np.pi * frequency

    def static(x, t):
        return np.array([
            (x[0] - amplitude * np.sin(w * t)) / r
        ])

    return FunctionSystem(
        n=1, static=static,
        charge=lambda x: np.array([c * x[0]]),
        charge_jacobian=lambda x: np.array([[c]]),
        static_jacobian=lambda x, t: np.array([[1.0 / r]]),
    )


class TestLinearLimit:
    def test_rc_fundamental_matches_analytic(self):
        r, c, f = 1e3, 1e-6, 1e3
        system = linear_rc(r, c, amplitude=1.0, frequency=f)
        result = harmonic_balance(system, f, harmonics=3)
        h = 1 / (1 + 2j * np.pi * f * r * c)
        assert result.magnitude(1) == pytest.approx(abs(h), rel=1e-6)
        # A linear system has no harmonics beyond the fundamental.
        assert result.magnitude(2) < 1e-9
        assert result.magnitude(3) < 1e-9
        assert abs(result.harmonic(0)) < 1e-9

    def test_waveform_reconstruction(self):
        f = 1e3
        system = linear_rc(frequency=f)
        result = harmonic_balance(system, f, harmonics=3)
        t = np.linspace(0, 2e-3, 200)
        wave = result.evaluate(t)
        assert np.max(np.abs(wave)) == pytest.approx(
            result.magnitude(1), rel=1e-3
        )


class CubicResistorDrive(FunctionSystem):
    """v across i = g1*v + g3*v^3 driven by a sinusoidal current."""

    def __init__(self, g1=1e-3, g3=2e-4, i_amp=1e-3, frequency=1e3):
        w = 2 * np.pi * frequency

        def static(x, t):
            v = x[0]
            return np.array([
                g1 * v + g3 * v ** 3 - i_amp * np.sin(w * t)
            ])

        super().__init__(
            n=1, static=static,
            static_jacobian=lambda x, t: np.array(
                [[g1 + 3 * g3 * x[0] ** 2]]
            ),
        )


class TestNonlinearHarmonics:
    def test_cubic_generates_third_harmonic_only(self):
        result = harmonic_balance(
            CubicResistorDrive(), 1e3, harmonics=5,
        )
        # Odd symmetry: even harmonics and DC vanish.
        assert abs(result.harmonic(0)) < 1e-9
        assert result.magnitude(2) < 1e-9
        assert result.magnitude(4) < 1e-9
        assert result.magnitude(3) > 1e-3 * result.magnitude(1)
        assert result.magnitude(5) < result.magnitude(3)

    def test_third_harmonic_small_signal_theory(self):
        """For weak nonlinearity, |V3| ~ g3*|V1|^3 / (4*g1)."""
        g1, g3, i_amp = 1e-3, 1e-5, 1e-4
        result = harmonic_balance(
            CubicResistorDrive(g1, g3, i_amp), 1e3, harmonics=5,
        )
        v1 = result.magnitude(1)
        expected_v3 = g3 * v1 ** 3 / (4 * g1)
        assert result.magnitude(3) == pytest.approx(expected_v3,
                                                    rel=0.05)

    def test_matches_transient_steady_state(self):
        """HB equals the long-transient steady state of a rectifier."""
        f = 1e3
        net = NonlinearNetwork()
        net.add(Isource("Iin", "v", "0",
                        lambda t: 2e-3 * np.sin(2 * np.pi * f * t)))
        net.add(Resistor("R1", "v", "0", 1e3))
        net.add(Capacitor("C1", "v", "0", 1e-7))
        net.add_device(Diode("D1", "v", "0", i_sat=1e-12))
        system, index = net.assemble_nonlinear()
        hb = harmonic_balance(system, f, harmonics=13)
        # tau = RC = 0.1 periods, so 3 periods reach steady state.
        transient = variable_step_transient(
            system, 4 / f, reltol=1e-6, abstol=1e-9, h0=1e-7,
        )
        # Compare the last period against the HB reconstruction.  The
        # rectified waveform has sharp corners, so the truncated series
        # carries a small Gibbs-style ripple: 2% of the swing.
        mask = transient.times >= 3 / f
        t_tail = transient.times[mask]
        v_tail = transient.states[mask, index.node_index["v"]]
        v_hb = hb.evaluate(t_tail, state=index.node_index["v"])
        swing = np.ptp(v_tail)
        assert np.max(np.abs(v_tail - v_hb)) < 0.02 * swing

    def test_diode_rectifier_has_dc_component(self):
        """Rectification: the diode shifts DC away from zero."""
        f = 1e3
        net = NonlinearNetwork()
        net.add(Isource("Iin", "v", "0",
                        lambda t: 1e-3 * np.sin(2 * np.pi * f * t)))
        net.add(Resistor("R1", "v", "0", 1e4))
        net.add_device(Diode("D1", "v", "0", i_sat=1e-12))
        system, _index = net.assemble_nonlinear()
        result = harmonic_balance(system, f, harmonics=9)
        assert result.harmonic(0).real < -0.5  # negative DC offset

    def test_thd_metric(self):
        result = harmonic_balance(CubicResistorDrive(), 1e3, harmonics=5)
        thd = result.thd()
        assert 0 < thd < 0.2
        ratio = result.magnitude(3) / result.magnitude(1)
        assert thd == pytest.approx(ratio, rel=0.01)


class TestValidation:
    def test_bad_parameters(self):
        system = linear_rc()
        with pytest.raises(SolverError):
            harmonic_balance(system, 0.0)
        with pytest.raises(SolverError):
            harmonic_balance(system, 1e3, harmonics=0)

    def test_thd_requires_fundamental(self):
        # A pure-DC system has no fundamental.
        system = FunctionSystem(
            n=1, static=lambda x, t: np.array([x[0] - 1.0]),
            static_jacobian=lambda x, t: np.array([[1.0]]),
        )
        result = harmonic_balance(system, 1e3, harmonics=2)
        with pytest.raises(SolverError):
            result.thd()
