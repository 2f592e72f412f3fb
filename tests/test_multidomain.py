"""Tests for multi-domain modeling: mechanical, thermal, DC motor."""

import numpy as np
import pytest

from repro.core import ElaborationError
from repro.eln import Network, Vsource, dc_analysis, \
    transient_analysis
from repro.multidomain import (
    AmbientTemperature,
    Damper,
    DcMotor,
    ForceSource,
    HeatFlowSource,
    Inertia,
    Mass,
    PositionSensor,
    RotationalDamper,
    Spring,
    ThermalCapacitance,
    ThermalResistance,
)


class TestMechanical:
    def test_mass_spring_damper_resonance(self):
        """Classic MSD: natural frequency and damping ratio."""
        M, k, d = 1.0, 100.0, 2.0
        w0 = np.sqrt(k / M)
        zeta = d / (2 * np.sqrt(k * M))
        net = Network()
        net.add(Mass("m", "v", M))
        net.add(Spring("s", "v", "0", k))
        net.add(Damper("d", "v", "0", d))
        net.add(ForceSource("f", "v", force=1.0))  # step force
        sensor = PositionSensor("pos", net, "v")
        dae, index = net.assemble()
        wd = w0 * np.sqrt(1 - zeta ** 2)
        times, states = dae.transient(10.0, 1e-3,
                                      x0=np.zeros(index.size))
        position = sensor.position_series(index, states)
        # Final position: F/k.
        assert position[-1] == pytest.approx(1.0 / k, rel=1e-2)
        # Damped oscillation frequency.
        from repro.analysis import estimate_frequency

        transient_part = position - 1.0 / k
        f_est = estimate_frequency(times[:5000], transient_part[:5000])
        assert f_est == pytest.approx(wd / (2 * np.pi), rel=0.02)

    def test_velocity_decay_of_free_mass_with_damper(self):
        M, d = 2.0, 4.0
        net = Network()
        net.add(Mass("m", "v", M))
        net.add(Damper("d", "v", "0", d))
        net.add(ForceSource("f", "v", force=0.0))
        dae, index = net.assemble()
        x0 = np.zeros(index.size)
        x0[index.node_index["v"]] = 1.0  # initial velocity
        times, states = dae.transient(3.0, 1e-3, x0=x0)
        v = index.voltage_series(states, "v")
        np.testing.assert_allclose(v, np.exp(-d / M * times), atol=1e-3)

    def test_spring_force_is_branch_current(self):
        # Static: force source pushes against the spring; spring force
        # equals the applied force at rest... at DC the mobility analogy
        # forces velocity = 0 and the spring carries the full force.
        net = Network()
        net.add(Mass("m", "v", 1.0))
        net.add(Spring("s", "v", "0", 50.0))
        net.add(ForceSource("f", "v", force=5.0))
        dc = dc_analysis(net)
        assert dc.current("s") == pytest.approx(5.0)
        assert dc.voltage("v") == pytest.approx(0.0)

    def test_two_mass_mode_split(self):
        """Two identical coupled oscillators show two modal peaks."""
        from repro.eln import ac_analysis
        from repro.multidomain import VelocitySource

        M, k = 1.0, 100.0
        net = Network()
        net.add(Mass("m1", "v1", M))
        net.add(Mass("m2", "v2", M))
        net.add(Spring("s1", "v1", "0", k))
        net.add(Spring("s12", "v1", "v2", k))
        net.add(Spring("s2", "v2", "0", k))
        net.add(ForceSource("f", "v1", force=1.0))
        dae, index = net.assemble()
        freqs = np.linspace(1.0, 4.0, 1201)
        phasors = dae.ac(freqs)
        response = np.abs(phasors[:, index.node_index["v1"]])
        # Modal frequencies: sqrt(k/M) and sqrt(3k/M) rad/s.
        peaks = []
        for k_idx in range(1, len(freqs) - 1):
            if response[k_idx] > response[k_idx - 1] and \
                    response[k_idx] > response[k_idx + 1]:
                peaks.append(freqs[k_idx])
        expected = [np.sqrt(100.0) / (2 * np.pi),
                    np.sqrt(300.0) / (2 * np.pi)]
        assert len(peaks) == 2
        assert peaks[0] == pytest.approx(expected[0], rel=0.02)
        assert peaks[1] == pytest.approx(expected[1], rel=0.02)

    def test_validation(self):
        with pytest.raises(ElaborationError):
            Mass("m", "v", 0.0)
        with pytest.raises(ElaborationError):
            Spring("s", "a", "b", -1.0)
        with pytest.raises(ElaborationError):
            Damper("d", "a", "b", 0.0)
        with pytest.raises(ElaborationError):
            Inertia("j", "w", -2.0)


class TestThermal:
    def test_steady_state_temperature_rise(self):
        """P watts through R_th gives delta-T = P * R_th."""
        net = Network()
        net.add(HeatFlowSource("p", "junction", power=2.0))
        net.add(ThermalResistance("rjc", "junction", "case", 1.5))
        net.add(ThermalResistance("rca", "case", "0", 3.0))
        dc = dc_analysis(net)
        assert dc.voltage("junction") == pytest.approx(2.0 * 4.5)
        assert dc.voltage("case") == pytest.approx(2.0 * 3.0)

    def test_thermal_time_constant(self):
        c_th, r_th = 0.5, 4.0
        tau = r_th * c_th
        net = Network()
        net.add(HeatFlowSource("p", "j", power=1.0))
        net.add(ThermalResistance("r", "j", "0", r_th))
        net.add(ThermalCapacitance("c", "j", c_th))
        result = transient_analysis(net, 5 * tau, tau / 200,
                                    x0=np.zeros(1))
        temperature = result.voltage("j")
        expected = r_th * (1 - np.exp(-result.times / tau))
        np.testing.assert_allclose(temperature, expected, atol=0.02)

    def test_ambient_source(self):
        net = Network()
        net.add(AmbientTemperature("amb", "env", "0", 25.0))
        net.add(ThermalResistance("r", "env", "j", 2.0))
        net.add(HeatFlowSource("p", "j", power=10.0))
        dc = dc_analysis(net)
        assert dc.voltage("j") == pytest.approx(25.0 + 20.0)

    def test_thermal_capacitance_validation(self):
        with pytest.raises(ElaborationError):
            ThermalCapacitance("c", "j", 0.0)


class TestDcMotor:
    def make_motor_rig(self, v_in=12.0, kt=0.05, r_a=1.0, l_a=1e-3,
                       J=1e-3, b=1e-4):
        net = Network()
        net.add(Vsource("Vs", "vin", "0", v_in))
        motor = DcMotor("mot", net, "vin", "0", "w", kt=kt, r_a=r_a,
                        l_a=l_a)
        net.add(Inertia("J", "w", J))
        net.add(RotationalDamper("b", "w", "0", b))
        return net, motor

    def test_steady_state_speed(self):
        """omega_ss = kt*V / (kt*ke + r_a*b)."""
        v_in, kt, r_a, b = 12.0, 0.05, 1.0, 1e-4
        net, motor = self.make_motor_rig(v_in=v_in, kt=kt, r_a=r_a, b=b)
        dc = dc_analysis(net)
        omega = dc.voltage("w")
        expected = kt * v_in / (kt * kt + r_a * b)
        assert omega == pytest.approx(expected, rel=1e-6)

    def test_stall_torque_and_current(self):
        """With the shaft clamped (huge damper), i = V/R."""
        net, motor = self.make_motor_rig(b=1e9)
        dc = dc_analysis(net)
        assert dc.current(motor.current_branch) == pytest.approx(
            12.0 / 1.0, rel=1e-3
        )

    def test_speed_step_response_is_overdamped_rise(self):
        net, motor = self.make_motor_rig(J=1e-4)
        dae, index = net.assemble()
        times, states = dae.transient(1.0, 1e-4,
                                      x0=np.zeros(index.size))
        omega = index.voltage_series(states, "w")
        dc = dc_analysis(net)
        final = dc.voltage("w")
        assert omega[-1] == pytest.approx(final, rel=1e-3)
        assert np.all(np.diff(omega) > -1e-3 * final)  # monotone-ish

    def test_back_emf_reduces_current(self):
        net, motor = self.make_motor_rig()
        dc = dc_analysis(net)
        i_run = dc.current(motor.current_branch)
        assert 0 < i_run < 12.0 / 1.0  # far below stall current

    def test_energy_conservation_of_coupling(self):
        """Electrical power into the EMF equals mechanical power out."""
        net, motor = self.make_motor_rig()
        dc = dc_analysis(net)
        i = dc.current(motor.current_branch)
        omega = dc.voltage("w")
        electrical = motor.ke * omega * i      # EMF voltage * current
        mechanical = motor.kt * i * omega      # torque * speed
        assert electrical == pytest.approx(mechanical, rel=1e-12)

    def test_validation(self):
        net = Network()
        with pytest.raises(ElaborationError):
            DcMotor("m", net, "a", "0", "w", kt=0.0, r_a=1.0, l_a=1e-3)
