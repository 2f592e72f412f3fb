"""E10 — Static analyses: DC operating point, AC, noise.

The objective "static analyses include the computation of the DC
operating point ... transfer functions ... small-signal linear
frequency-domain analysis (including noise analysis)": DC homotopy
robustness on hard nonlinear networks (gmin-stepping ablation), AC of an
amplifier stage at its operating point, and a noise budget.
"""

import numpy as np
import pytest

from conftest import print_table
from repro.core import ConvergenceError
from repro.ct import (
    NoiseSource,
    ac_sweep,
    dc_operating_point,
    linearize,
    output_noise_psd,
    per_source_contributions,
    thermal_current_psd,
)
from repro.eln import Resistor, Vsource
from repro.nonlin import Diode, NMos, NonlinearNetwork


def diode_stack(n_diodes=4, v_supply=20.0):
    """A stack of diodes in series: notoriously bad for plain Newton
    from a zero guess."""
    net = NonlinearNetwork("stack")
    net.add(Vsource("V1", "n0", "0", v_supply))
    net.add(Resistor("R1", "n0", "d1", 100.0))
    for k in range(1, n_diodes):
        net.add_device(Diode(f"D{k}", f"d{k}", f"d{k + 1}"))
    net.add_device(Diode(f"D{n_diodes}", f"d{n_diodes}", "0"))
    return net.assemble_nonlinear()


def test_e10_dc_homotopy_ablation(benchmark):
    system, index = diode_stack()

    def with_homotopy():
        return dc_operating_point(system, gmin_stepping=True)

    x = benchmark(with_homotopy)
    residual = float(np.max(np.abs(system.static(x, 0.0))))
    # Ablation: plain Newton from a deliberately bad guess.
    plain_failed = False
    try:
        dc_operating_point(system, x0=np.full(system.n, 10.0),
                           gmin_stepping=False)
    except ConvergenceError:
        plain_failed = True
    x_bad_guess = dc_operating_point(system,
                                     x0=np.full(system.n, 10.0),
                                     gmin_stepping=True)
    print_table(
        "E10: DC operating point of a 4-diode stack (20 V)",
        ["metric", "value"],
        [["residual |F|", f"{residual:.1e}"],
         ["v(d1) [V]", round(index.voltage(x, "d1"), 3)],
         ["plain Newton from bad guess", "diverged" if plain_failed
          else "converged"],
         ["gmin homotopy from bad guess",
          f"residual {np.max(np.abs(system.static(x_bad_guess, 0.0))):.1e}"]],
    )
    assert residual < 1e-8
    assert np.max(np.abs(system.static(x_bad_guess, 0.0))) < 1e-6
    # The interesting shape: homotopy succeeds where plain Newton is
    # fragile (plain may or may not converge depending on damping luck).


def test_e10_amplifier_ac_at_operating_point(benchmark):
    """Common-source amplifier: small-signal gain = -gm * Rd at the DC
    operating point, straight from the linearized Jacobians."""
    kp, vth, rd = 2e-3, 0.7, 5e3
    vg = 1.5
    net = NonlinearNetwork("cs_amp")
    net.add(Vsource("Vdd", "vdd", "0", 5.0))
    net.add(Vsource("Vg", "g", "0", vg))
    net.add(Resistor("Rd", "vdd", "d", rd))
    net.add_device(NMos("M1", "d", "g", "0", k_prime=kp, vth=vth))
    system, index = net.assemble_nonlinear()

    def run():
        x_op = dc_operating_point(system)
        C, G = linearize(system, x_op)
        b_ac = np.zeros(index.size)
        b_ac[index.current_index["Vg"]] = 1.0  # 1 V AC on the gate
        phasors = ac_sweep(C, G, b_ac, np.array([1e3]))
        return x_op, phasors[0, index.node_index["d"]]

    x_op, gain = benchmark(run)
    gm = kp * (vg - vth)
    expected = -gm * rd
    print_table(
        "E10: common-source small-signal gain",
        ["metric", "value"],
        [["v(d) operating [V]", round(index.voltage(x_op, "d"), 3)],
         ["measured gain", round(float(gain.real), 3)],
         ["-gm*Rd", round(expected, 3)]],
    )
    assert float(gain.real) == pytest.approx(expected, rel=1e-3)
    assert abs(gain.imag) < 1e-9  # no capacitance in this network


def test_e10_noise_budget(benchmark):
    """Per-source noise budget of a two-resistor divider driving a
    capacitor; contributions must sum to the total."""
    r1, r2, c = 10e3, 40e3, 1e-9
    C = np.array([[c]])
    G = np.array([[1 / r1 + 1 / r2]])
    sources = [
        NoiseSource("R1", [1.0], thermal_current_psd(r1)),
        NoiseSource("R2", [1.0], thermal_current_psd(r2)),
    ]
    freqs = np.logspace(1, 8, 301)

    def run():
        total = output_noise_psd(C, G, sources, [1.0], freqs)
        parts = per_source_contributions(C, G, sources, [1.0], freqs)
        return total, parts

    total, parts = benchmark(run)
    ratio_low = parts["R1"][0] / parts["R2"][0]
    print_table(
        "E10: noise budget (divider + C)",
        ["metric", "value"],
        [["total PSD at 10 Hz [V^2/Hz]", f"{total[0]:.3e}"],
         ["R1 share", f"{parts['R1'][0] / total[0]:.2%}"],
         ["R2 share", f"{parts['R2'][0] / total[0]:.2%}"],
         ["R1/R2 ratio", round(ratio_low, 3)]],
    )
    np.testing.assert_allclose(parts["R1"] + parts["R2"], total,
                               rtol=1e-12)
    # Current-noise PSD goes as 1/R: the smaller resistor dominates.
    assert ratio_low == pytest.approx(r2 / r1, rel=1e-9)
