"""E5 — Einwich mixed-signal frequency-domain simulation (seed [6]).

The same equations serve time and frequency domains: AC analysis of an
RLC bandpass and of an LSF biquad against analytic responses, and noise
analysis reproducing the kT/C law.
"""

import numpy as np
import pytest

from conftest import print_table
from repro.ct import integrated_noise, magnitude_db
from repro.ct.noise import BOLTZMANN
from repro.eln import (
    Capacitor,
    Inductor,
    Network,
    Resistor,
    Vsource,
    ac_analysis,
    noise_analysis,
)
from repro.lsf import LsfLtfNd, LsfNetwork, LsfSource, lsf_ac


def test_e5_rlc_bandpass_ac(benchmark):
    R, L, C = 1e3, 1e-3, 1e-9
    f0 = 1 / (2 * np.pi * np.sqrt(L * C))
    q_factor = R * np.sqrt(C / L)

    def run():
        net = Network()
        net.add(Vsource("V1", "in", "0", 1.0))
        net.add(Resistor("R1", "in", "out", R))
        net.add(Inductor("L1", "out", "0", L))
        net.add(Capacitor("C1", "out", "0", C))
        freqs = np.logspace(4, 7, 901)
        return freqs, ac_analysis(net, freqs, input_source="V1")

    freqs, ac = benchmark(run)
    h = np.abs(ac.voltage("out"))
    f_peak = freqs[np.argmax(h)]
    # -3 dB bandwidth around the peak.
    above = freqs[h >= np.max(h) / np.sqrt(2)]
    bandwidth = above[-1] - above[0]
    print_table(
        "E5: RLC bandpass AC analysis",
        ["metric", "measured", "analytic"],
        [["peak frequency [Hz]", f"{f_peak:.3e}", f"{f0:.3e}"],
         ["peak gain", round(np.max(h), 4), 1.0],
         ["-3dB bandwidth [Hz]", f"{bandwidth:.3e}",
          f"{f0 / q_factor:.3e}"]],
    )
    assert f_peak == pytest.approx(f0, rel=0.02)
    assert np.max(h) == pytest.approx(1.0, abs=0.02)
    assert bandwidth == pytest.approx(f0 / q_factor, rel=0.1)


def test_e5_lsf_biquad_bode(benchmark):
    """LSF transfer-function block: AC sweep vs the analytic polynomial."""
    w0, zeta = 2 * np.pi * 1e4, 0.4

    def run():
        net = LsfNetwork()
        u, y = net.signal("u"), net.signal("y")
        net.add(LsfSource("src", u, waveform=0.0, ac=1.0))
        net.add(LsfLtfNd("bq", u, y, num=[w0 ** 2],
                         den=[w0 ** 2, 2 * zeta * w0, 1.0]))
        freqs = np.logspace(2, 6, 401)
        return freqs, lsf_ac(net, freqs, y)

    freqs, h = benchmark(run)
    s = 2j * np.pi * freqs
    analytic = w0 ** 2 / (w0 ** 2 + 2 * zeta * w0 * s + s ** 2)
    deviation = np.max(np.abs(h - analytic))
    peak_db = np.max(magnitude_db(h))
    expected_peak_db = -20 * np.log10(2 * zeta * np.sqrt(1 - zeta ** 2))
    print_table(
        "E5: LSF biquad vs analytic",
        ["metric", "value"],
        [["max |H - H_analytic|", f"{deviation:.2e}"],
         ["resonant peak [dB]", round(peak_db, 2)],
         ["expected peak [dB]", round(expected_peak_db, 2)]],
    )
    assert deviation < 1e-9
    assert peak_db == pytest.approx(expected_peak_db, abs=0.1)


def test_e5_harmonic_balance_large_signal(benchmark):
    """Phase 2 'large-signal nonlinear frequency-domain analysis':
    harmonic balance of a diode rectifier, checked against the
    time-domain steady state."""
    from repro.ct import harmonic_balance, variable_step_transient
    from repro.eln import Capacitor, Isource
    from repro.nonlin import Diode, NonlinearNetwork

    f0 = 1e3
    net = NonlinearNetwork()
    net.add(Isource("Iin", "v", "0",
                    lambda t: 2e-3 * np.sin(2 * np.pi * f0 * t)))
    net.add(Resistor("R1", "v", "0", 1e3))
    net.add(Capacitor("C1", "v", "0", 1e-7))
    net.add_device(Diode("D1", "v", "0", i_sat=1e-12))
    system, index = net.assemble_nonlinear()

    hb = benchmark(lambda: harmonic_balance(system, f0, harmonics=13))
    transient = variable_step_transient(system, 4 / f0, reltol=1e-6,
                                        abstol=1e-9, h0=1e-7)
    mask = transient.times >= 3 / f0
    v_ref = transient.states[mask, index.node_index["v"]]
    v_hb = hb.evaluate(transient.times[mask],
                       state=index.node_index["v"])
    deviation = float(np.max(np.abs(v_ref - v_hb)))
    v_idx = index.node_index["v"]
    print_table(
        "E5: harmonic balance (diode rectifier, 13 harmonics)",
        ["metric", "value"],
        [["DC component [V]", round(hb.harmonic(0, v_idx).real, 4)],
         ["fundamental [V]", round(hb.magnitude(1, v_idx), 4)],
         ["2nd harmonic [V]", round(hb.magnitude(2, v_idx), 4)],
         ["THD", round(hb.thd(v_idx), 4)],
         ["Newton iterations", hb.iterations],
         ["max dev vs transient [V]", f"{deviation:.2e}"]],
    )
    assert deviation < 0.02 * float(np.ptp(v_ref))
    assert hb.harmonic(0, v_idx).real < -0.1  # rectification shifts DC


def test_e5_noise_kt_over_c(benchmark):
    """Noise analysis integrates to kT/C regardless of R."""
    results = {}

    def run():
        for R in (1e3, 1e4, 1e5):
            net = Network()
            net.add(Resistor("R1", "n", "0", R))
            net.add(Capacitor("C1", "n", "0", 1e-9))
            freqs = np.logspace(0, 10, 3001)
            psd = noise_analysis(net, freqs, "n")
            results[R] = integrated_noise(freqs, psd)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    expected = BOLTZMANN * 300.0 / 1e-9
    rows = [[f"{R:.0e}", f"{total:.3e}", f"{expected:.3e}",
             round(total / expected, 3)]
            for R, total in results.items()]
    print_table(
        "E5: integrated output noise vs kT/C",
        ["R [ohm]", "integral [V^2]", "kT/C [V^2]", "ratio"], rows,
    )
    for total in results.values():
        assert total == pytest.approx(expected, rel=0.1)
