"""Integration tests for the Figure 1 ADSL SLIC/codec virtual prototype.

These exercise every layer at once: DE software + bus, RTL register
file, TDF dataflow, ΣΔ converters, LSF filters, the ELN subscriber line,
and the synchronization between them.
"""

import numpy as np
import pytest

from repro.adsl import (
    REG_TX_ENABLE,
    AdslConfig,
    AdslSystem,
    antialias_transfer,
    end_to_end_analog_transfer,
    line_output_noise,
    line_transfer,
    smoothing_transfer,
)
from repro.core import SimTime, Simulator


@pytest.fixture(scope="module")
def ran_system():
    """One 20 ms run shared by the assertions below (expensive)."""
    system = AdslSystem()
    simulator = Simulator(system)
    simulator.run(SimTime(20, "ms"))
    return system


class TestEndToEnd:
    def test_tone_reaches_dsp_with_good_sndr(self, ran_system):
        assert ran_system.rx_snr_db() > 40.0

    def test_software_enabled_transmission(self, ran_system):
        assert ("tx_enabled", None) in ran_system.software_log
        # Before TX enable the line is quiet; afterwards it carries the
        # tone: the first transmitted samples are zero.
        drive = np.asarray(ran_system.tap_drive.samples)
        assert abs(drive[0]) < 1e-9
        assert np.max(np.abs(drive)) > 2.0

    def test_level_meter_reported_to_software(self, ran_system):
        polls = [entry for entry in ran_system.software_log
                 if entry[0] == "poll"]
        assert len(polls) > 10
        final_level = polls[-1][1][0]
        # RMS in milli-units: tone of ~0.3 RMS at the FIR output.
        assert 100 < final_level < 600

    def test_hook_detector_trips(self, ran_system):
        # Loop current exceeds the off-hook threshold at tone peaks;
        # the DE status register must have seen it.
        polls = [entry[1][1] for entry in ran_system.software_log
                 if entry[0] == "poll"]
        assert any(polls), "hook status never reported high"

    def test_subscriber_voltage_is_high_voltage(self, ran_system):
        sub = np.asarray(ran_system.tap_sub.samples)
        assert np.max(np.abs(sub)) > 2.0  # several volts on the line

    def test_decimation_rate(self, ran_system):
        base = len(ran_system.tap_sub.samples)
        decimated = len(ran_system.rx_output())
        assert decimated == pytest.approx(
            base / ran_system.config.decimation, abs=2
        )


class TestFrequencyDomainViews:
    def test_line_transfer_passband_and_rolloff(self):
        cfg = AdslConfig()
        freqs = np.array([1e2, 1e3, 1e4, 1e6])
        h = np.abs(line_transfer(cfg, freqs))
        dc_expected = cfg.subscriber_r / (
            cfg.subscriber_r + cfg.protection_r + 2 * cfg.line_series_r
        )
        assert h[0] == pytest.approx(dc_expected, rel=1e-3)
        assert h[-1] < 1e-2  # ladder cuts off well below 1 MHz

    def test_smoothing_filter_unity_dc(self):
        cfg = AdslConfig()
        h = np.abs(smoothing_transfer(cfg, np.array([1.0, 1e6])))
        assert h[0] == pytest.approx(1.0, rel=1e-3)
        assert h[1] < 1e-3

    def test_antialias_corner(self):
        from repro.ct import corner_frequency

        cfg = AdslConfig()
        freqs = np.logspace(2, 6, 401)
        h = antialias_transfer(cfg, freqs)
        corner = corner_frequency(freqs, h)
        assert corner == pytest.approx(cfg.antialias_corner, rel=0.1)

    def test_end_to_end_transfer_passes_tone_band(self):
        cfg = AdslConfig()
        h_tone = np.abs(end_to_end_analog_transfer(
            cfg, np.array([cfg.tone_frequency])
        ))[0]
        h_high = np.abs(end_to_end_analog_transfer(
            cfg, np.array([500e3])
        ))[0]
        assert h_tone > 1.0   # driver gain dominates in-band
        assert h_high < 1e-2

    def test_line_noise_psd_reasonable(self):
        cfg = AdslConfig()
        freqs = np.logspace(2, 5, 31)
        psd = line_output_noise(cfg, freqs)
        assert np.all(psd > 0)
        # Thermal noise of a few-hundred-ohm network: nV/sqrt(Hz) scale.
        assert np.all(np.sqrt(psd) < 1e-7)


class TestDuplexEchoCancellation:
    """Far-end reception under near-end TX echo (the hybrid-leak
    scenario of a real line card), with and without the DSP's LMS
    echo canceller."""

    @pytest.fixture(scope="class")
    def duplex_runs(self):
        results = {}
        for ec in (False, True):
            cfg = AdslConfig(far_end_amplitude=2.0,
                             echo_cancellation=ec)
            system = AdslSystem(cfg)
            Simulator(system).run(SimTime(20, "ms"))
            results[ec] = system
        return results

    def test_echo_dominates_without_canceller(self, duplex_runs):
        system = duplex_runs[False]
        # The near-end echo buries the far-end tone.
        assert system.far_end_snr_db() < 0.0
        assert system.rx_snr_db() > 10.0

    def test_canceller_recovers_far_end(self, duplex_runs):
        without = duplex_runs[False].far_end_snr_db()
        with_ec = duplex_runs[True].far_end_snr_db()
        assert with_ec > 30.0
        assert with_ec - without > 30.0  # tens of dB of echo rejection

    def test_canceller_suppresses_echo_tone(self, duplex_runs):
        # After cancellation, the TX tone is far below the far-end tone.
        system = duplex_runs[True]
        assert system.rx_snr_db() < -30.0

    def test_echo_estimate_converges(self, duplex_runs):
        system = duplex_runs[True]
        estimate = np.asarray(system.echo_est_sink.samples)
        assert np.max(np.abs(estimate[-100:])) > 0.01  # actively canceling
        weights = system.echo_canceller.weights
        assert np.max(np.abs(weights)) > 0.01


class TestConfigurability:
    def test_custom_program(self):
        events = []

        def program(system):
            yield from system.cpu.write(REG_TX_ENABLE, 1)
            events.append("enabled")
            yield from system.cpu.idle(10)
            value = yield from system.cpu.read(REG_TX_ENABLE)
            events.append(value)

        system = AdslSystem(software_program=program)
        Simulator(system).run(SimTime(1, "ms"))
        assert events == ["enabled", 1]

    def test_gain_register_controls_rx_amplitude(self):
        def measure(gain_db):
            cfg = AdslConfig(rx_gain_db=gain_db)
            system = AdslSystem(cfg)
            Simulator(system).run(SimTime(8, "ms"))
            tail = system.rx_output()[120:]
            return float(np.sqrt(np.mean(tail ** 2)))

        low = measure(-24.0)
        high = measure(-18.0)
        assert high / low == pytest.approx(10 ** (6 / 20), rel=0.1)
