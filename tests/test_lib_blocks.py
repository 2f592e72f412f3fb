"""Tests for library sources, amplifiers, mixers, comparators, filters."""

import numpy as np
import pytest

from repro.analysis import estimate_frequency, rms
from repro.core import Module, SimTime, Simulator
from repro.lib import (
    Add2,
    Comparator,
    DeadbandBlock,
    FirFilter,
    FunctionSource,
    GaussianNoiseSource,
    IirFilter,
    LinearAmp,
    MapBlock,
    Mixer,
    PrbsSource,
    PulseSource,
    QuadratureOscillator,
    SampleHold,
    SaturatingAmp,
    SineSource,
    TdfSink,
    Vga,
    butterworth_lowpass_sections,
    cascade_response,
    filter_samples,
    fir_bandpass,
    fir_frequency_response,
    fir_highpass,
    fir_lowpass,
)
from repro.tdf import TdfSignal


def us(x):
    return SimTime(x, "us")


def run_chain(*modules, duration_us=1000, wiring=None):
    """Wire modules in a simple chain under a fresh top and simulate."""

    class Top(Module):
        def __init__(self):
            super().__init__("top")
            for m in modules:
                m.parent = self
                self._add_child(m)
            wiring(self)

    top = Top()
    Simulator(top).run(us(duration_us))
    return top


class TestSources:
    def test_sine_source_frequency(self):
        src = SineSource("src", frequency=10e3, timestep=us(1))
        sink = TdfSink("sink")

        def wire(top):
            sig = TdfSignal("s")
            src.out(sig)
            sink.inp(sig)

        run_chain(src, sink, duration_us=2000, wiring=wire)
        t, x = sink.as_arrays()
        assert estimate_frequency(t, x) == pytest.approx(10e3, rel=1e-3)
        assert rms(x) == pytest.approx(1 / np.sqrt(2), rel=0.01)

    def test_pulse_source_duty(self):
        src = PulseSource("src", period=100e-6, duty=0.25,
                          timestep=us(1))
        sink = TdfSink("sink")

        def wire(top):
            sig = TdfSignal("s")
            src.out(sig)
            sink.inp(sig)

        run_chain(src, sink, duration_us=999, wiring=wire)
        x = np.asarray(sink.samples)
        assert np.mean(x > 0.5) == pytest.approx(0.25, abs=0.02)

    def test_noise_source_rms_and_reproducibility(self):
        out = []
        for _ in range(2):
            src = GaussianNoiseSource("src", rms=0.5, seed=9,
                                      timestep=us(1))
            sink = TdfSink("sink")

            def wire(top, src=src, sink=sink):
                sig = TdfSignal("s")
                src.out(sig)
                sink.inp(sig)

            run_chain(src, sink, duration_us=5000, wiring=wire)
            out.append(np.asarray(sink.samples))
        np.testing.assert_array_equal(out[0], out[1])
        assert rms(out[0]) == pytest.approx(0.5, rel=0.05)

    def test_prbs_is_binary_and_balanced(self):
        src = PrbsSource("src", amplitude=2.0, timestep=us(1))
        sink = TdfSink("sink")

        def wire(top):
            sig = TdfSignal("s")
            src.out(sig)
            sink.inp(sig)

        run_chain(src, sink, duration_us=4000, wiring=wire)
        x = np.asarray(sink.samples)
        assert set(np.unique(x)) == {-2.0, 2.0}
        assert abs(np.mean(x)) < 0.2

    def test_function_source(self):
        src = FunctionSource("src", lambda t: t * 1e3, timestep=us(1))
        sink = TdfSink("sink")

        def wire(top):
            sig = TdfSignal("s")
            src.out(sig)
            sink.inp(sig)

        run_chain(src, sink, duration_us=10, wiring=wire)
        np.testing.assert_allclose(
            sink.samples, np.arange(len(sink.samples)) * 1e-3, atol=1e-12
        )


class TestAmplifiers:
    def test_linear_amp(self):
        src = SineSource("src", frequency=1e3, timestep=us(10))
        amp = LinearAmp("amp", gain=-3.0, offset=0.5)
        sink = TdfSink("sink")

        def wire(top):
            a, b = TdfSignal("a"), TdfSignal("b")
            src.out(a)
            amp.inp(a)
            amp.out(b)
            sink.inp(b)

        run_chain(src, amp, sink, duration_us=2000, wiring=wire)
        x = np.asarray(sink.samples)
        assert np.max(x) == pytest.approx(3.5, abs=0.01)
        assert np.min(x) == pytest.approx(-2.5, abs=0.01)

    def test_saturating_amp_hard_clip(self):
        src = SineSource("src", frequency=1e3, amplitude=2.0,
                         timestep=us(10))
        amp = SaturatingAmp("amp", gain=1.0, limit=1.0, mode="hard")
        sink = TdfSink("sink")

        def wire(top):
            a, b = TdfSignal("a"), TdfSignal("b")
            src.out(a)
            amp.inp(a)
            amp.out(b)
            sink.inp(b)

        run_chain(src, amp, sink, duration_us=3000, wiring=wire)
        x = np.asarray(sink.samples)
        assert np.max(x) == pytest.approx(1.0)
        assert np.min(x) == pytest.approx(-1.0)

    def test_tanh_mode_produces_odd_harmonics(self):
        from repro.analysis import ToneAnalysis, coherent_tone_frequency

        fs, n = 1e6, 8192
        f = coherent_tone_frequency(fs, n, 10e3)
        t = np.arange(n) / fs
        x = 0.9 * np.sin(2 * np.pi * f * t)
        y = 1.0 * np.tanh(2.0 * x / 1.0)
        analysis = ToneAnalysis(y, fs, tone_frequency=f)
        assert analysis.thd_db > -40  # heavy compression distorts

    def test_invalid_modes(self):
        with pytest.raises(ValueError):
            SaturatingAmp("a", gain=1.0, limit=1.0, mode="soft")
        with pytest.raises(ValueError):
            SaturatingAmp("a", gain=1.0, limit=0.0)

    def test_vga(self):
        src = SineSource("src", frequency=1e3, timestep=us(10))
        gain_src = FunctionSource("gain", lambda t: 20.0)  # +20 dB
        vga = Vga("vga")
        sink = TdfSink("sink")

        def wire(top):
            a, g, b = TdfSignal("a"), TdfSignal("g"), TdfSignal("b")
            src.out(a)
            gain_src.out(g)
            vga.inp(a)
            vga.gain_db(g)
            vga.out(b)
            sink.inp(b)

        run_chain(src, gain_src, vga, sink, duration_us=2000, wiring=wire)
        assert np.max(np.abs(sink.samples)) == pytest.approx(10.0,
                                                             rel=0.01)


class TestMixing:
    def test_mixer_downconversion(self):
        """RF at 110 kHz mixed with 100 kHz LO gives 10 kHz + 210 kHz."""
        rf = SineSource("rf", frequency=110e3, timestep=us(1))
        osc = QuadratureOscillator("osc", frequency=100e3)
        mixer = Mixer("mix", gain=2.0)
        sink = TdfSink("sink")

        def wire(top):
            a, lo_q, b = TdfSignal("a"), TdfSignal("q"), TdfSignal("b")
            lo_i = TdfSignal("i")
            rf.out(a)
            osc.i_out(lo_i)
            osc.q_out(lo_q)
            mixer.rf(a)
            mixer.lo(lo_q)
            mixer.out(b)
            sink.inp(b)
            # A sink for the unused I output keeps the graph connected.
            top.i_sink = TdfSink("i_sink", top)
            top.i_sink.inp(lo_i)

        run_chain(rf, osc, mixer, sink, duration_us=3000, wiring=wire)
        t, x = sink.as_arrays()
        from repro.analysis import amplitude_spectrum

        # 2000 samples at 1 MHz: 10/110/210 kHz are all coherent.
        freqs, amps = amplitude_spectrum(x[-2000:], 1e6)
        # Difference product at 10 kHz with amplitude gain*1/2 = 1.
        k10 = np.argmin(np.abs(freqs - 10e3))
        k210 = np.argmin(np.abs(freqs - 210e3))
        assert amps[k10] == pytest.approx(1.0, rel=0.1)
        assert amps[k210] == pytest.approx(1.0, rel=0.1)


class TestComparatorAndSampling:
    def test_comparator_hysteresis(self):
        src = SineSource("src", frequency=1e3, timestep=us(10))
        comp = Comparator("comp", threshold=0.0, hysteresis=0.5)
        sink = TdfSink("sink")

        def wire(top):
            a, b = TdfSignal("a"), TdfSignal("b")
            src.out(a)
            comp.inp(a)
            comp.out(b)
            sink.inp(b)

        run_chain(src, comp, sink, duration_us=3000, wiring=wire)
        t, x = sink.as_arrays()
        # Square wave at the input frequency.
        transitions = np.sum(np.abs(np.diff(x)) > 0.5)
        assert transitions == pytest.approx(6, abs=1)

    def test_comparator_noise_rejection_via_hysteresis(self):
        def noisy_ramp(t):
            rng = np.random.default_rng(int(t * 1e7) % 100000)
            return 2.0 * t * 1e3 - 1.0 + rng.normal(0, 0.05)

        def count_transitions(hysteresis):
            src = FunctionSource("src", noisy_ramp, timestep=us(1))
            comp = Comparator("comp", hysteresis=hysteresis)
            sink = TdfSink("sink")

            def wire(top):
                a, b = TdfSignal("a"), TdfSignal("b")
                src.out(a)
                comp.inp(a)
                comp.out(b)
                sink.inp(b)

            run_chain(src, comp, sink, duration_us=1000, wiring=wire)
            return int(np.sum(np.abs(np.diff(sink.samples)) > 0.5))

        assert count_transitions(0.5) < count_transitions(0.0)

    def test_sample_hold_decimation(self):
        src = FunctionSource("src", lambda t: t * 1e6, timestep=us(1))
        sh = SampleHold("sh", factor=4)
        sink = TdfSink("sink")

        def wire(top):
            a, b = TdfSignal("a"), TdfSignal("b")
            src.out(a)
            sh.inp(a)
            sh.out(b)
            sink.inp(b)

        run_chain(src, sh, sink, duration_us=16, wiring=wire)
        x = np.asarray(sink.samples)
        # Held over groups of 4.
        assert np.all(x[0:4] == x[0])
        assert np.all(x[4:8] == x[4])

    def test_sample_hold_validation(self):
        with pytest.raises(ValueError):
            SampleHold("sh", factor=0)


class TestMiscBlocks:
    def test_deadband(self):
        src = FunctionSource("src", lambda t: np.sin(2 * np.pi * 1e3 * t),
                             timestep=us(10))
        db = DeadbandBlock("db", width=1.0)
        sink = TdfSink("sink")

        def wire(top):
            a, b = TdfSignal("a"), TdfSignal("b")
            src.out(a)
            db.inp(a)
            db.out(b)
            sink.inp(b)

        run_chain(src, db, sink, duration_us=2000, wiring=wire)
        x = np.asarray(sink.samples)
        assert np.max(x) == pytest.approx(0.5, abs=0.01)
        assert np.mean(np.asarray(x) == 0.0) > 0.2

    def test_deadband_validation(self):
        with pytest.raises(ValueError):
            DeadbandBlock("db", width=-1.0)

    def test_map_and_add(self):
        s1 = FunctionSource("s1", lambda t: 2.0, timestep=us(1))
        s2 = FunctionSource("s2", lambda t: 3.0)
        sq = MapBlock("sq", lambda v: v * v)
        add = Add2("add", wa=1.0, wb=-1.0)
        sink = TdfSink("sink")

        def wire(top):
            a, b, c, d = (TdfSignal(n) for n in "abcd")
            s1.out(a)
            sq.inp(a)
            sq.out(b)
            s2.out(c)
            add.a(b)
            add.b(c)
            add.out(d)
            sink.inp(d)

        run_chain(s1, s2, sq, add, sink, duration_us=5, wiring=wire)
        assert sink.samples[0] == pytest.approx(1.0)  # 4 - 3


class TestFirDesign:
    def test_lowpass_response(self):
        fs = 1e6
        taps = fir_lowpass(101, 50e3, fs)
        freqs = np.array([1e3, 50e3, 200e3])
        h = np.abs(fir_frequency_response(taps, freqs, fs))
        assert h[0] == pytest.approx(1.0, abs=0.01)
        assert h[1] == pytest.approx(0.5, abs=0.05)  # -6 dB at cutoff
        assert h[2] < 0.01

    def test_highpass_response(self):
        fs = 1e6
        taps = fir_highpass(101, 100e3, fs)
        freqs = np.array([1e3, 400e3])
        h = np.abs(fir_frequency_response(taps, freqs, fs))
        assert h[0] < 0.01
        assert h[1] == pytest.approx(1.0, abs=0.02)

    def test_bandpass_response(self):
        fs = 1e6
        taps = fir_bandpass(201, 50e3, 150e3, fs)
        h = np.abs(fir_frequency_response(
            taps, np.array([1e3, 100e3, 400e3]), fs))
        assert h[0] < 0.02
        assert h[1] == pytest.approx(1.0, abs=0.05)
        assert h[2] < 0.02

    def test_design_validation(self):
        with pytest.raises(ValueError):
            fir_lowpass(101, 600e3, 1e6)
        with pytest.raises(ValueError):
            fir_lowpass(2, 10e3, 1e6)
        with pytest.raises(ValueError):
            fir_highpass(100, 10e3, 1e6)  # even tap count
        with pytest.raises(ValueError):
            fir_bandpass(101, 200e3, 100e3, 1e6)

    def test_fir_module_matches_convolution(self):
        fs = 1e6
        taps = fir_lowpass(21, 100e3, fs)
        rng = np.random.default_rng(1)
        data = rng.normal(size=64)
        from repro.lib import SampleListSource

        src = SampleListSource("src", data, timestep=us(1))
        filt = FirFilter("fir", taps)
        sink = TdfSink("sink")

        def wire(top):
            a, b = TdfSignal("a"), TdfSignal("b")
            src.out(a)
            filt.inp(a)
            filt.out(b)
            sink.inp(b)

        run_chain(src, filt, sink, duration_us=63, wiring=wire)
        expected = np.convolve(data, taps)[:64]
        np.testing.assert_allclose(sink.samples, expected, atol=1e-12)


class TestButterworth:
    def test_corner_at_minus_3db(self):
        fs = 1e6
        for order in (1, 2, 3, 4, 5):
            sections = butterworth_lowpass_sections(order, 50e3, fs)
            h = np.abs(cascade_response(sections, np.array([50e3]), fs))
            assert h[0] == pytest.approx(1 / np.sqrt(2), rel=1e-6), order

    def test_rolloff_slope(self):
        fs = 1e6
        order = 4
        sections = butterworth_lowpass_sections(order, 10e3, fs)
        h = np.abs(cascade_response(sections,
                                    np.array([40e3, 80e3]), fs))
        slope_db_per_octave = 20 * np.log10(h[1] / h[0])
        assert slope_db_per_octave == pytest.approx(-6.02 * order, abs=1.5)

    def test_dc_gain_unity(self):
        sections = butterworth_lowpass_sections(3, 10e3, 1e6)
        h = np.abs(cascade_response(sections, np.array([1.0]), 1e6))
        assert h[0] == pytest.approx(1.0, abs=1e-6)

    def test_filter_samples_step(self):
        fs = 1e6
        sections = butterworth_lowpass_sections(2, 10e3, fs)
        out = filter_samples(sections, np.ones(2000))
        assert out[-1] == pytest.approx(1.0, abs=1e-3)
        assert out[0] < 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            butterworth_lowpass_sections(0, 1e3, 1e6)
        with pytest.raises(ValueError):
            butterworth_lowpass_sections(2, 6e5, 1e6)

    def test_iir_module_matches_offline(self):
        fs = 1e6
        sections = butterworth_lowpass_sections(3, 50e3, fs)
        rng = np.random.default_rng(2)
        data = rng.normal(size=64)
        from repro.lib import SampleListSource

        src = SampleListSource("src", data, timestep=us(1))
        filt = IirFilter("iir", butterworth_lowpass_sections(3, 50e3, fs))
        sink = TdfSink("sink")

        def wire(top):
            a, b = TdfSignal("a"), TdfSignal("b")
            src.out(a)
            filt.inp(a)
            filt.out(b)
            sink.inp(b)

        run_chain(src, filt, sink, duration_us=63, wiring=wire)
        expected = filter_samples(sections, data)
        np.testing.assert_allclose(sink.samples, expected, atol=1e-12)
