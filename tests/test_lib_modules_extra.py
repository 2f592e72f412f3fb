"""Extra coverage for TDF library modules: ΣΔ modules in clusters, CIC
module, DAC settling, flash offsets, ADC/DAC round trips."""

import itertools

import numpy as np
import pytest

from repro.analysis import ToneAnalysis, coherent_tone_frequency
from repro.core import Module, SimTime, Simulator
from repro.lib import (
    CicDecimator,
    FlashAdc,
    IdealAdc,
    IdealDac,
    MapBlock,
    SampleListSource,
    SigmaDelta1,
    SigmaDelta2,
    SineSource,
    SwitchedCapDac,
    TdfSink,
    cic_decimate,
    quantize_code,
    sigma_delta2_bitstream,
)
from repro.tdf import TdfModule, TdfOut, TdfSignal


def us(x):
    return SimTime(x, "us")


def run_chain(modules, wires, duration_us, **options):
    class Top(Module):
        def __init__(self):
            super().__init__("top")
            for m in modules:
                m.parent = self
                self._add_child(m)
            signals = {}
            for src_port, dst_port, name in wires:
                sig = signals.get(name)
                if sig is None:
                    sig = TdfSignal(name)
                    signals[name] = sig
                    src_port(sig)
                dst_port(sig)

    top = Top()
    Simulator(top, **options).run(us(duration_us))
    return top


class IntListSource(TdfModule):
    """Plays back Python ints, so its stream runs in object mode."""

    def __init__(self, name, values):
        super().__init__(name)
        self.out = TdfOut("out")
        self.values = [int(v) for v in values]
        self._index = 0

    def set_attributes(self):
        self.set_timestep(us(1))

    def processing(self):
        self.out.write(self.values[self._index % len(self.values)])
        self._index += 1


def converter_against_l0(block, order, payload):
    """Run Σ∆2 + CIC in a cluster and compare the bit stream and the
    decimated output with the L0 NumPy models, byte for byte."""
    case = f"block={block} order={order} payload={payload}"
    n, factor = 2048, 8
    rng = np.random.default_rng(0)
    if payload == "int":
        full_scale = 4.0
        data = rng.integers(-2, 3, n)
        src = IntListSource("src", data)
    else:
        full_scale = 1.0
        data = rng.uniform(-0.6, 0.6, n)
        src = SampleListSource("src", data, timestep=us(1))
    sd = SigmaDelta2("sd", full_scale=full_scale)
    cic = CicDecimator("cic", factor=factor, order=order)
    bits = TdfSink("bits")
    sink = TdfSink("sink")
    run_chain([src, sd, cic, bits, sink],
              [(src.out, sd.inp, "a"), (sd.out, bits.inp, "b"),
               (sd.out, cic.inp, "b"), (cic.out, sink.inp, "c")],
              n - 1, tdf_block=block)
    assert sd.inp.block_readable() is (payload == "float"), case
    expected_bits = sigma_delta2_bitstream(data, full_scale)
    expected = cic_decimate(expected_bits, factor, order)
    assert len(bits.samples) == n, case
    assert np.asarray(bits.samples).tobytes() \
        == expected_bits.tobytes(), case
    assert np.asarray(sink.samples).tobytes() == expected.tobytes(), case


class TestSigmaDeltaModules:
    def test_sd2_module_in_cluster_matches_array_model(self):
        """The whole converter equals the L0 models in block and scalar
        mode, for CIC orders 1-3.  Int payloads keep the modulator's
        input stream in object mode (the scalar fallback)."""
        for block, order, payload in itertools.product(
                (True, False), (1, 2, 3), ("float", "int")):
            converter_against_l0(block, order, payload)

    def test_sd1_module_dc_tracking(self):
        src = SampleListSource("src", [0.25], timestep=us(1))
        sd = SigmaDelta1("sd")
        sink = TdfSink("sink")
        run_chain([src, sd, sink],
                  [(src.out, sd.inp, "a"), (sd.out, sink.inp, "b")],
                  4000)
        assert np.mean(sink.samples) == pytest.approx(0.25, abs=0.01)

    def test_full_adc_chain_enob(self):
        """Σ∆2 + CIC in one cluster: ENOB of the decimated output."""
        fs, osr = 1e6, 32
        fs_dec = fs / osr
        f = coherent_tone_frequency(fs_dec, 256, 1.3e3)
        src = SineSource("src", frequency=f, amplitude=0.5,
                         timestep=us(1))
        sd = SigmaDelta2("sd")
        cic = CicDecimator("cic", factor=osr, order=3)
        sink = TdfSink("sink")
        top = run_chain(
            [src, sd, cic, sink],
            [(src.out, sd.inp, "a"), (sd.out, cic.inp, "b"),
             (cic.out, sink.inp, "c")],
            int(512 * osr),
        )
        out = np.asarray(sink.samples)
        tail = out[len(out) - 256:]
        enob = ToneAnalysis(tail, fs_dec, tone_frequency=f).enob
        assert enob > 9.0

    def test_cic_validation(self):
        with pytest.raises(ValueError):
            CicDecimator("c", factor=1)
        with pytest.raises(ValueError):
            CicDecimator("c", factor=8, order=0)

    @pytest.mark.parametrize("cls", [SigmaDelta1, SigmaDelta2])
    @pytest.mark.parametrize("full_scale",
                             [0, 0.0, -1.0, float("inf"), float("nan")])
    def test_full_scale_validation(self, cls, full_scale):
        with pytest.raises(ValueError):
            cls("sd", full_scale=full_scale)

    @pytest.mark.parametrize("cls", [SigmaDelta1, SigmaDelta2])
    def test_int_full_scale_keeps_a_float_stream(self, cls):
        """An int full_scale must not demote the bit stream to object
        mode, which would keep every reader off the block path."""
        src = SampleListSource("src", [0.3, -0.2, 0.1], timestep=us(1))
        sd = cls("sd", full_scale=1)
        sink = TdfSink("sink")
        run_chain([src, sd, sink],
                  [(src.out, sd.inp, "a"), (sd.out, sink.inp, "b")], 63)
        assert sd.out.signal.is_vector
        assert {type(v) for v in sink.samples} == {float}
        assert set(sink.samples) <= {1.0, -1.0}


class TestDacModules:
    def test_switched_cap_settling_dynamics(self):
        """settling < 1 leaves inter-sample memory (a one-pole step)."""
        codes = [0, 255, 255, 255, 255]
        src = SampleListSource("src", codes, timestep=us(1))
        dac = SwitchedCapDac("dac", bits=8, settling=0.5)
        sink = TdfSink("sink")
        run_chain([src, dac, sink],
                  [(src.out, dac.inp, "a"), (dac.out, sink.inp, "b")],
                  4)
        out = np.asarray(sink.samples)
        full = dac.level(255)
        # Approaches the final level geometrically: 50% closer each step.
        gaps = np.abs(out - full)
        assert gaps[2] == pytest.approx(gaps[1] * 0.5, rel=1e-9)
        assert gaps[3] == pytest.approx(gaps[2] * 0.5, rel=1e-9)

    def test_adc_dac_roundtrip(self):
        """Quantize then reconstruct: error bounded by half an LSB."""
        fs = 1e6
        bits = 8
        f = coherent_tone_frequency(fs, 1024, 10e3)
        src = SineSource("src", frequency=f, amplitude=0.9,
                         timestep=us(1))
        adc = IdealAdc("adc", bits=bits)
        code = MapBlock("code", lambda v: quantize_code(v, bits))

        class Probe(Module):
            pass

        dac = IdealDac("dac", bits=bits)
        sink_in = TdfSink("sink_in")
        sink_out = TdfSink("sink_out")
        run_chain(
            [src, code, dac, sink_in, sink_out],
            [(src.out, code.inp, "a"), (src.out, sink_in.inp, "a"),
             (code.out, dac.inp, "b"), (dac.out, sink_out.inp, "c")],
            1023,
        )
        original = np.asarray(sink_in.samples)
        reconstructed = np.asarray(sink_out.samples)
        lsb = 2.0 / 2 ** bits
        assert np.max(np.abs(original - reconstructed)) <= lsb / 2 + 1e-12


class TestFlashOffsets:
    def test_offsets_degrade_linearity(self):
        fs = 1e6
        f = coherent_tone_frequency(fs, 4096, 10e3)

        def sndr(offset_rms):
            src = SineSource("src", frequency=f, amplitude=0.9,
                             timestep=us(1))
            adc = FlashAdc("adc", bits=6, offset_rms=offset_rms, seed=7)
            sink = TdfSink("sink")
            run_chain([src, adc, sink],
                      [(src.out, adc.inp, "a"),
                       (adc.out, sink.inp, "b")], 4095)
            return ToneAnalysis(np.asarray(sink.samples), fs,
                                tone_frequency=f).sndr_db

        clean = sndr(0.0)
        dirty = sndr(0.02)  # ~1.3 LSB RMS offsets
        assert clean > 37.0          # ideal 6-bit: ~37.9 dB
        assert dirty < clean - 3.0   # offsets visibly degrade linearity
