"""Scalar <-> block execution equivalence (PR 3 acceptance).

The compiled-schedule / batched TDF engine must be *observationally
identical* to the scalar reference engine: every output stream
bit-for-bit equal, and checkpoints interchangeable between the two
modes.  These tests cover the tier-1 model shapes: a TDF-heavy ADC
chain, the bench_e4 pipelined-ADC testbench (shared RNG stream), the
bench_e1 ADSL virtual prototype (DE-coupled clusters), multirate and
mixed block/scalar clusters, feedback delay loops, a CT-embedding
cluster, object-mode (non-float payload) fallbacks, and the modules
that drive or sample DE signals through converter ports.
"""

import cProfile
import pathlib
import pickle
import pstats

import numpy as np
import pytest

from repro.adsl import REG_HOOK_STATUS, REG_LINE_LEVEL, AdslConfig, AdslSystem
from repro.adsl.system import DspToneGenerator, _RegisterToTdf
from repro.core import Module, Signal, SimTime, Simulator
from repro.core.process import METHOD, Process
from repro.ct import LinearTransientSolver
from repro.ct.linear import LinearStepper
from repro.ct.solver_api import HeldWindow
from repro.eln import Capacitor, Isource, Network, Resistor, Vsource
from repro.lib import (
    Add2,
    CicDecimator,
    Comparator,
    FirFilter,
    GaussianNoiseSource,
    IdealAdc,
    IirFilter,
    PipelinedAdc,
    PipelinedAdcModule,
    SampleHold,
    SaturatingAmp,
    SigmaDelta2,
    SineSource,
    TdfSink,
    butterworth_lowpass_sections,
    fir_lowpass,
)
from repro.lsf import LsfAdd, LsfLtfNd, LsfNetwork, LsfSource
from repro.sync import ElnTdfModule, LsfTdfModule
from repro.tdf import TdfIn, TdfModule, TdfOut, TdfSignal


def us(x):
    return SimTime(x, "us")


#: (tdf_batch, tdf_compact_every) block configurations under test —
#: a tiny batch (forces many partial runs), the default, and a large
#: batch crossing several compaction intervals.
BLOCK_CONFIGS = [(4, 16), (16, 64), (256, 1024)]


def run_sim(build, duration, *, block, batch=16, compact=64):
    top = build()
    Simulator(top, tdf_block=block, tdf_batch=batch,
              tdf_compact_every=compact).run(duration)
    return top


def assert_streams_equal(ref: TdfSink, got: TdfSink):
    np.testing.assert_array_equal(np.asarray(ref.times),
                                  np.asarray(got.times))
    np.testing.assert_array_equal(np.asarray(ref.samples),
                                  np.asarray(got.samples))


# -- TDF-heavy chain ----------------------------------------------------------


class ChainTop(Module):
    """sine+noise -> add -> tanh amp -> FIR -> ADC -> IIR -> sink."""

    def __init__(self):
        super().__init__("chain")
        fs = 1e6
        names = ["s_tone", "s_noise", "s_sum", "s_amp", "s_fir",
                 "s_adc", "s_iir"]
        for n in names:
            setattr(self, n, TdfSignal(n))
        self.tone = SineSource("tone", 13e3, amplitude=0.6,
                               parent=self, timestep=us(1))
        self.noise = GaussianNoiseSource("noise", rms=5e-3, seed=3,
                                         parent=self)
        self.add = Add2("add", parent=self)
        self.amp = SaturatingAmp("amp", gain=1.5, limit=1.0,
                                 parent=self)
        self.fir = FirFilter("fir", fir_lowpass(31, 60e3, fs),
                             parent=self)
        self.adc = IdealAdc("adc", bits=8, parent=self)
        self.iir = IirFilter(
            "iir", butterworth_lowpass_sections(3, 80e3, fs),
            parent=self)
        self.sink = TdfSink("sink", parent=self)
        self.tone.out(self.s_tone)
        self.noise.out(self.s_noise)
        self.add.a(self.s_tone)
        self.add.b(self.s_noise)
        self.add.out(self.s_sum)
        self.amp.inp(self.s_sum)
        self.amp.out(self.s_amp)
        self.fir.inp(self.s_amp)
        self.fir.out(self.s_fir)
        self.adc.inp(self.s_fir)
        self.adc.out(self.s_adc)
        self.iir.inp(self.s_adc)
        self.iir.out(self.s_iir)
        self.sink.inp(self.s_iir)


class TestAdcChain:
    @pytest.fixture(scope="class")
    def reference(self):
        return run_sim(ChainTop, us(4000), block=False)

    @pytest.mark.parametrize("batch,compact", BLOCK_CONFIGS)
    def test_bit_identical(self, reference, batch, compact):
        top = run_sim(ChainTop, us(4000), block=True, batch=batch,
                      compact=compact)
        assert_streams_equal(reference.sink, top.sink)

    def test_checkpoint_payloads_match(self):
        def payload(block):
            top = ChainTop()
            sim = Simulator(top, tdf_block=block)
            sim.run(us(2000))
            return sim.capture_checkpoint()
        assert _normalize(payload(False)) == _normalize(payload(True))

    def test_cross_mode_resume(self):
        reference = run_sim(ChainTop, us(4000), block=False)
        # Run half in scalar mode, checkpoint, resume in block mode.
        head_top = ChainTop()
        head_sim = Simulator(head_top, tdf_block=False)
        head_sim.run(us(2000), checkpoint_every=us(2000))
        checkpoint = head_sim.checkpoint_manager.latest()
        tail_top = ChainTop()
        tail_sim = Simulator(tail_top, tdf_block=True)
        tail_sim.restore_checkpoint(checkpoint.payload)
        tail_sim.run(us(2000))
        head = np.asarray(head_top.sink.samples)
        tail = np.asarray(tail_top.sink.samples)
        full = np.asarray(reference.sink.samples)
        # The sink's record is part of the checkpoint: the resumed
        # run's complete record must be bit-identical to the
        # uninterrupted run, not just the post-restore suffix.
        np.testing.assert_array_equal(head, full[:len(head)])
        np.testing.assert_array_equal(tail, full)


def _normalize(value):
    """Checkpoint payloads with numpy members -> comparable builtins."""
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


# -- the sink's record ----------------------------------------------------------


class SinkTop(Module):
    """A sine into a sink: with no DE coupling the cluster batches, so
    run lengths decide which wakes run one period (a scalar activation)
    and which run several (a block)."""

    def __init__(self):
        super().__init__("sink_top")
        self.s = TdfSignal("s")
        self.src = SineSource("src", 3e3, amplitude=0.5, parent=self,
                              timestep=us(1))
        self.sink = TdfSink("sink", parent=self)
        self.src.out(self.s)
        self.sink.inp(self.s)


#: run lengths (us) giving block, scalar, block, block, scalar, block
#: wakes at tdf_batch=4
SINK_SEGMENTS = (4, 6, 1, 9)


def test_sink_record_mixes_scalar_and_block_activations(monkeypatch):
    """Blocks held as arrays take their place among the samples of
    scalar activations, whether the record is read between runs or
    only at the end: byte for byte the scalar engine's record."""
    kinds = []
    processing = TdfSink.processing
    processing_block = TdfSink.processing_block

    def scalar(self):
        kinds.append("scalar")
        processing(self)

    def block(self, n):
        kinds.append("block")
        processing_block(self, n)

    monkeypatch.setattr(TdfSink, "processing", scalar)
    monkeypatch.setattr(TdfSink, "processing_block", block)
    reference = run_sim(SinkTop, us(sum(SINK_SEGMENTS)), block=False)
    kinds.clear()
    for read_between in (False, True):
        top = SinkTop()
        sim = Simulator(top, tdf_block=True, tdf_batch=4)
        for segment in SINK_SEGMENTS:
            sim.run(us(segment))
            if read_between:
                assert len(top.sink.samples) == len(top.sink.times) \
                    == sim.tdf_registry.clusters[0].period_count
        assert_bytes_equal(reference.sink, top.sink)
    assert kinds[:6] == ["block", "scalar", "block", "block", "scalar",
                         "block"]


def test_sink_record_resumes_from_a_checkpoint():
    """A checkpoint taken while blocks are still held as arrays carries
    the whole record, and the resumed block run ends with the
    uninterrupted run's record."""
    reference = run_sim(SinkTop, us(sum(SINK_SEGMENTS)), block=False)
    head_top = SinkTop()
    head_sim = Simulator(head_top, tdf_block=True, tdf_batch=4)
    for segment in SINK_SEGMENTS[:2]:
        head_sim.run(us(segment))
    payload = head_sim.capture_checkpoint()
    tail_top = SinkTop()
    tail_sim = Simulator(tail_top, tdf_block=True, tdf_batch=4)
    tail_sim.restore_checkpoint(payload)
    tail_sim.run(us(sum(SINK_SEGMENTS[2:])))
    assert_bytes_equal(reference.sink, tail_top.sink)
    count = len(head_top.sink.samples)
    assert count == 11
    for attr in ("samples", "times"):
        assert getattr(head_top.sink, attr) \
            == getattr(reference.sink, attr)[:count]


# -- bench_e4: pipelined ADC testbench ---------------------------------------


class PipelinedTop(Module):
    """Coherent tone through the noisy pipelined ADC (both outputs)."""

    def __init__(self):
        super().__init__("e4")
        self.s_in = TdfSignal("s_in")
        self.s_cal = TdfSignal("s_cal")
        self.s_raw = TdfSignal("s_raw")
        adc = PipelinedAdc(
            n_stages=7, backend_bits=3,
            gain_errors=[0.01, -0.008, 0.012, 0.0, -0.01, 0.006, 0.0],
            comparator_offsets=[0.02, -0.01, 0.0, 0.015, 0.0, 0.0, 0.01],
            noise_rms=1e-3, seed=11,
        )
        self.src = SineSource("src", 17e3, amplitude=0.9,
                              parent=self, timestep=us(1))
        self.adc = PipelinedAdcModule("adc", adc, parent=self)
        self.sink_cal = TdfSink("sink_cal", parent=self)
        self.sink_raw = TdfSink("sink_raw", parent=self)
        self.src.out(self.s_in)
        self.adc.inp(self.s_in)
        self.adc.out(self.s_cal)
        self.adc.out_raw(self.s_raw)
        self.sink_cal.inp(self.s_cal)
        self.sink_raw.inp(self.s_raw)


@pytest.mark.parametrize("batch,compact", BLOCK_CONFIGS)
def test_pipelined_adc_bit_identical(batch, compact):
    """The batched noise draws must consume the exact scalar RNG stream."""
    ref = run_sim(PipelinedTop, us(3000), block=False)
    got = run_sim(PipelinedTop, us(3000), block=True, batch=batch,
                  compact=compact)
    assert_streams_equal(ref.sink_cal, got.sink_cal)
    assert_streams_equal(ref.sink_raw, got.sink_raw)


def test_pipelined_adc_cross_mode_resume():
    """Block-mode checkpoint (including the RNG stream position)
    resumed by the scalar engine."""
    reference = run_sim(PipelinedTop, us(2000), block=False)
    head_top = PipelinedTop()
    head_sim = Simulator(head_top, tdf_block=True)
    head_sim.run(us(1000), checkpoint_every=us(1000))
    checkpoint = head_sim.checkpoint_manager.latest()
    tail_top = PipelinedTop()
    tail_sim = Simulator(tail_top, tdf_block=False)
    tail_sim.restore_checkpoint(checkpoint.payload)
    tail_sim.run(us(1000))
    for sink in ("sink_cal", "sink_raw"):
        head = np.asarray(getattr(head_top, sink).samples)
        tail = np.asarray(getattr(tail_top, sink).samples)
        full = np.asarray(getattr(reference, sink).samples)
        # The restored sink carries the pre-checkpoint record, so the
        # resumed run reproduces the uninterrupted record in full.
        np.testing.assert_array_equal(head, full[:len(head)])
        np.testing.assert_array_equal(tail, full)


# -- bench_e1: ADSL virtual prototype ----------------------------------------


def test_adsl_system_bit_identical():
    """The full mixed-signal prototype (DE software, converter ports,
    CT line model, decimating RX path) matches in both modes: the CT
    taps and every CT module's checkpoint byte for byte, through one
    cached operator per CT section and step size, applied with one call
    per activation at 4 and 13 unknowns, and the CIC's block path."""
    ref = AdslSystem()
    Simulator(ref, tdf_block=False).run(SimTime(6, "ms"))
    got = AdslSystem()
    Simulator(got, tdf_block=True).run(SimTime(6, "ms"))
    np.testing.assert_array_equal(ref.rx_output(), got.rx_output())
    np.testing.assert_array_equal(np.asarray(ref.hook_sink.samples),
                                  np.asarray(got.hook_sink.samples))
    for reg in (REG_LINE_LEVEL, REG_HOOK_STATUS):
        assert ref.registers.peek(reg) == got.registers.peek(reg)
    for tap in ("tap_drive", "tap_sub"):
        assert_bytes_equal(getattr(ref, tap), getattr(got, tap))
    for ct in ("smoothing", "line", "antialias"):
        assert pickle.dumps(_normalize(getattr(ref, ct).checkpoint_state())) \
            == pickle.dumps(_normalize(getattr(got, ct).checkpoint_state()))


def test_adsl_block_run_builds_one_operator_per_section(monkeypatch):
    """The three CT sections step every window through their activation
    operator: the block run builds one operator per section and step
    size, which nothing writes to, and the CIC decimator's single
    rate-32 activation per period runs as a block."""
    def freeze(value):
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        elif isinstance(value, tuple):
            for item in value:
                freeze(item)

    operators = []
    lift = LinearStepper._lift

    def frozen_lift(self, substeps, at_start, slope):
        made = lift(self, substeps, at_start, slope)
        freeze(made)
        operators.append((id(self), self.h, substeps))
        return made

    cic_blocks = []
    cic_block = CicDecimator.processing_block

    def counted_block(self, n):
        cic_blocks.append(n)
        cic_block(self, n)

    monkeypatch.setattr(LinearStepper, "_lift", frozen_lift)
    monkeypatch.setattr(CicDecimator, "processing_block", counted_block)
    top = AdslSystem()
    sim = Simulator(top, tdf_block=True)
    sim.run(us(320))
    [cluster] = sim.tdf_registry.clusters
    periods = cluster.period_count
    assert periods == 11
    assert len(operators) == len(set(operators)) == 3
    assert len({stepper for stepper, _h, _k in operators}) == 3
    assert {substeps for _id, _h, substeps in operators} == {2}
    assert cic_blocks == [1] * periods


# -- multirate + mixed block/scalar cluster ----------------------------------


class ScalarGain(TdfModule):
    """Deliberately block-incapable: forces a scalar run inside an
    otherwise compiled schedule."""

    def __init__(self, name, gain, parent=None):
        super().__init__(name, parent)
        self.inp = TdfIn("inp")
        self.out = TdfOut("out")
        self.gain = gain

    def processing(self):
        self.out.write(self.gain * self.inp.read())


class MultirateTop(Module):
    """rate-2 source -> FIR (rate 1) -> scalar-only gain -> S&H(2) -> sink."""

    def __init__(self):
        super().__init__("multirate")
        for n in ["s_src", "s_fir", "s_gain", "s_sh"]:
            setattr(self, n, TdfSignal(n))
        self.src = SineSource("src", 9e3, amplitude=0.8, parent=self,
                              timestep=us(2), rate=2)
        self.fir = FirFilter("fir", fir_lowpass(15, 100e3, 1e6),
                             parent=self)
        self.gain = ScalarGain("gain", 0.5, parent=self)
        self.sh = SampleHold("sh", factor=2, parent=self)
        self.sink = TdfSink("sink", parent=self, rate=2)
        self.src.out(self.s_src)
        self.fir.inp(self.s_src)
        self.fir.out(self.s_fir)
        self.gain.inp(self.s_fir)
        self.gain.out(self.s_gain)
        self.sh.inp(self.s_gain)
        self.sh.out(self.s_sh)
        self.sink.inp(self.s_sh)


@pytest.mark.parametrize("batch,compact", BLOCK_CONFIGS)
def test_multirate_mixed_cluster(batch, compact):
    ref = run_sim(MultirateTop, us(3000), block=False)
    got = run_sim(MultirateTop, us(3000), block=True, batch=batch,
                  compact=compact)
    assert_streams_equal(ref.sink, got.sink)


# -- feedback through a delay port -------------------------------------------


class FeedbackTop(Module):
    """Accumulator: y[n] = x[n] + y[n-1] via a 1-sample feedback delay.

    The self-loop keeps the adder's run non-fusable; the rest of the
    cluster still compiles to block runs.
    """

    def __init__(self):
        super().__init__("feedback")
        self.s_x = TdfSignal("s_x")
        self.s_y = TdfSignal("s_y")
        self.src = SineSource("src", 11e3, amplitude=0.1, parent=self,
                              timestep=us(1))
        self.add = Add2("add", wa=1.0, wb=0.995, parent=self)
        self.sink = TdfSink("sink", parent=self)
        self.src.out(self.s_x)
        self.add.a(self.s_x)
        self.add.b.set_delay(1)
        self.add.b(self.s_y)
        self.add.out(self.s_y)
        self.sink.inp(self.s_y)


@pytest.mark.parametrize("batch,compact", BLOCK_CONFIGS)
def test_feedback_delay_loop(batch, compact):
    ref = run_sim(FeedbackTop, us(3000), block=False)
    got = run_sim(FeedbackTop, us(3000), block=True, batch=batch,
                  compact=compact)
    assert_streams_equal(ref.sink, got.sink)


# -- CT-embedding cluster -----------------------------------------------------


class RcTop(Module):
    def __init__(self):
        super().__init__("rc_top")
        net = Network("rc")
        net.add(Vsource("Vin", "in", "0"))
        net.add(Resistor("R1", "in", "out", 1e3))
        net.add(Capacitor("C1", "out", "0", 1e-9))
        self.s_in = TdfSignal("s_in")
        self.s_out = TdfSignal("s_out")
        self.src = SineSource("src", 40e3, parent=self, timestep=us(1))
        self.rc = ElnTdfModule("rc", net, parent=self)
        self.sink = TdfSink("sink", parent=self)
        self.src.out(self.s_in)
        self.rc.drive_voltage("Vin")(self.s_in)
        self.rc.sample_voltage("out")(self.s_out)
        self.sink.inp(self.s_out)


@pytest.mark.parametrize("batch,compact", BLOCK_CONFIGS)
def test_ct_embedded_cluster(batch, compact):
    ref = run_sim(RcTop, us(2000), block=False)
    got = run_sim(RcTop, us(2000), block=True, batch=batch,
                  compact=compact)
    assert_streams_equal(ref.sink, got.sink)


# -- oversampled CT modules ---------------------------------------------------
#
# ``oversample=k`` makes the solver take k internal steps per activation;
# the block engine replays them inside one window call, which must match
# scalar lockstep byte for byte, solver counters included.


def _rc_network():
    """Vsource-driven two-pole RC (a DAE: the source row is algebraic)."""
    net = Network("rc2")
    net.add(Vsource("Vin", "in", "0"))
    net.add(Resistor("R1", "in", "mid", 1e3))
    net.add(Capacitor("C1", "mid", "0", 1e-9))
    net.add(Resistor("R2", "mid", "out", 2e3))
    net.add(Capacitor("C2", "out", "0", 0.5e-9))
    return net


def _ode_network():
    """Isource-driven RC with a capacitor on every node: invertible C,
    as the expm stepper requires."""
    net = Network("ode2")
    net.add(Isource("Iin", "n1", "0"))
    net.add(Capacitor("C0", "n1", "0", 1e-9))
    net.add(Resistor("R0", "n1", "0", 1e3))
    net.add(Resistor("R1", "n1", "n2", 1e3))
    net.add(Capacitor("C1", "n2", "0", 2e-9))
    return net


class OversampledTop(Module):
    """sine -> oversampled CT module -> sink.

    ``multirate``: the source writes 2 samples per activation and the
    sink reads 4, so one cluster period holds 4 CT activations.
    """

    def __init__(self, kind, oversample, method="trapezoidal",
                 interpolate=True, multirate=False):
        super().__init__("os_top")
        self.s_in = TdfSignal("s_in")
        self.s_out = TdfSignal("s_out")
        self.src = SineSource("src", 23e3, amplitude=0.7, parent=self,
                              timestep=us(2) if multirate else us(1),
                              rate=2 if multirate else 1)
        options = dict(parent=self, oversample=oversample, method=method,
                       interpolate_inputs=interpolate)
        if kind == "lsf":
            lsf = LsfNetwork()
            u, y = lsf.signal("u"), lsf.signal("y")
            lsf.add(LsfSource("src", u))
            lsf.add(LsfLtfNd("lp", u, y, num=[1.0],
                             den=[1.0, 4.5e-6, 1e-11]))
            self.ct = LsfTdfModule("ct", lsf, **options)
            drive, sample = self.ct.drive(u), self.ct.sample(y)
        elif kind == "expm":
            self.ct = ElnTdfModule("ct", _ode_network(),
                                   solver_variant="expm", **options)
            drive = self.ct.drive_current("Iin")
            sample = self.ct.sample_voltage("n2")
        else:
            self.ct = ElnTdfModule("ct", _rc_network(),
                                   solver_variant=kind, **options)
            drive = self.ct.drive_voltage("Vin")
            sample = self.ct.sample_voltage("out")
        self.sink = TdfSink("sink", parent=self,
                            rate=4 if multirate else 1)
        self.src.out(self.s_in)
        drive(self.s_in)
        sample(self.s_out)
        self.sink.inp(self.s_out)


def _oversampled_run(block, duration=us(200), batch=16, **case):
    top = OversampledTop(**case)
    sim = Simulator(top, tdf_block=block, tdf_batch=batch)
    sim.run(duration)
    return top, sim


def _solver_counters(sim):
    return {key: value for key, value in sim.metrics_snapshot().items()
            if key.startswith("solver.")}


def assert_bytes_equal(ref: TdfSink, got: TdfSink):
    """Byte equality (distinguishes -0.0 from 0.0, unlike ==)."""
    for attr in ("times", "samples"):
        assert np.asarray(getattr(ref, attr), float).tobytes() \
            == np.asarray(getattr(got, attr), float).tobytes()


OVERSAMPLED_CASES = [
    (kind, oversample, method, interpolate)
    for kind in ("dense", "sparse", "lsf")
    for oversample in (2, 3, 4)
    for method in ("trapezoidal", "backward_euler")
    for interpolate in (True, False)
] + [
    # expm ignores the integration method
    ("expm", oversample, "trapezoidal", interpolate)
    for oversample in (2, 3, 4)
    for interpolate in (True, False)
]


@pytest.mark.parametrize("kind,oversample,method,interpolate",
                         OVERSAMPLED_CASES)
def test_oversampled_ct_bit_identical(kind, oversample, method,
                                      interpolate):
    case = dict(kind=kind, oversample=oversample, method=method,
                interpolate=interpolate)
    ref, ref_sim = _oversampled_run(False, **case)
    got, got_sim = _oversampled_run(True, **case)
    assert_bytes_equal(ref.sink, got.sink)
    assert _normalize(ref.ct.checkpoint_state()) \
        == _normalize(got.ct.checkpoint_state())
    counters = _solver_counters(got_sim)
    assert counters == _solver_counters(ref_sim)
    # one activation is the consistent initialization, which takes no
    # solver step; every later one takes ``oversample`` steps
    assert counters["solver.steps"] == oversample * (len(ref.sink.samples)
                                                     - 1)


@pytest.mark.parametrize("kind", ["dense", "sparse", "expm", "lsf"])
@pytest.mark.parametrize("batch,compact", BLOCK_CONFIGS)
def test_oversampled_ct_multirate(kind, batch, compact):
    case = dict(kind=kind, oversample=3, multirate=True)
    ref, ref_sim = _oversampled_run(False, **case)
    got, got_sim = _oversampled_run(True, batch=batch, **case)
    assert ref.ct.activation_count == 4 * ref.sink.activation_count
    assert_bytes_equal(ref.sink, got.sink)
    assert _solver_counters(got_sim) == _solver_counters(ref_sim)


@pytest.mark.parametrize("kind", ["dense", "sparse", "expm", "lsf"])
@pytest.mark.parametrize("head_block", [False, True],
                         ids=["scalar-then-block", "block-then-scalar"])
def test_oversampled_ct_cross_mode_resume(kind, head_block):
    case = dict(kind=kind, oversample=3)
    reference, ref_sim = _oversampled_run(False, **case)
    head_top = OversampledTop(**case)
    head_sim = Simulator(head_top, tdf_block=head_block)
    head_sim.run(us(100), checkpoint_every=us(100))
    checkpoint = head_sim.checkpoint_manager.latest()
    tail_top = OversampledTop(**case)
    tail_sim = Simulator(tail_top, tdf_block=not head_block)
    tail_sim.restore_checkpoint(checkpoint.payload)
    tail_sim.run(us(100))
    assert_bytes_equal(reference.sink, tail_top.sink)
    assert _normalize(reference.ct.checkpoint_state()) \
        == _normalize(tail_top.ct.checkpoint_state())
    # the step count is checkpointed; factorization caches are not
    assert tail_sim.metrics_snapshot()["solver.steps"] \
        == ref_sim.metrics_snapshot()["solver.steps"]


# -- Σ∆ converter chains (E12) ------------------------------------------------


class SigmaDeltaTop(Module):
    """E12's L1 chain: sine -> Σ∆2 -> CIC (factor 32, order 3) -> sink.

    ``frontend`` gives the L2 chain: the 2x-oversampled ELN RC
    anti-alias network ahead of the modulator, so the CT window path and
    the Σ∆ block path share one cluster.
    """

    def __init__(self, frontend):
        super().__init__("sd_top")
        self.s_in = TdfSignal("s_in")
        self.s_bits = TdfSignal("s_bits")
        self.s_dec = TdfSignal("s_dec")
        self.src = SineSource("src", 1.5e3, amplitude=0.5, parent=self,
                              timestep=us(1))
        self.sd = SigmaDelta2("sd", parent=self)
        self.cic = CicDecimator("cic", factor=32, order=3, parent=self)
        self.sink = TdfSink("sink", parent=self)
        self.src.out(self.s_in)
        if frontend:
            net = Network("aa")
            net.add(Vsource("Vin", "in", "0"))
            net.add(Resistor("R1", "in", "out", 3.2e3))
            net.add(Capacitor("C1", "out", "0", 1e-9))
            self.s_aa = TdfSignal("s_aa")
            self.frontend = ElnTdfModule("aa", net, parent=self,
                                         oversample=2)
            self.frontend.drive_voltage("Vin")(self.s_in)
            self.frontend.sample_voltage("out")(self.s_aa)
            self.sd.inp(self.s_aa)
        else:
            self.sd.inp(self.s_in)
        self.sd.out(self.s_bits)
        self.cic.inp(self.s_bits)
        self.cic.out(self.s_dec)
        self.sink.inp(self.s_dec)


#: 4,096 modulator samples: 128 periods of 32 activations each.
SD_DURATION = us(4095)


def assert_converter_state_equal(ref: SigmaDeltaTop, got: SigmaDeltaTop):
    """The Σ∆ and CIC checkpoint payloads match exactly (``repr``
    tells -0.0 from 0.0)."""
    for name in ("sd", "cic"):
        assert repr(_normalize(getattr(ref, name).checkpoint_state())) \
            == repr(_normalize(getattr(got, name).checkpoint_state()))


@pytest.fixture(scope="module", params=[False, True], ids=["l1", "l2"])
def sd_chain(request):
    """``(frontend, scalar reference run)`` of one chain."""
    top = run_sim(lambda: SigmaDeltaTop(request.param), SD_DURATION,
                  block=False)
    assert len(top.sink.samples) == 128
    return request.param, top


@pytest.mark.parametrize("batch,compact", BLOCK_CONFIGS)
def test_sigma_delta_chain_bit_identical(sd_chain, batch, compact):
    frontend, reference = sd_chain
    got = run_sim(lambda: SigmaDeltaTop(frontend), SD_DURATION,
                  block=True, batch=batch, compact=compact)
    assert_bytes_equal(reference.sink, got.sink)
    assert_converter_state_equal(reference, got)


@pytest.mark.parametrize("head_block", [False, True],
                         ids=["scalar-then-block", "block-then-scalar"])
def test_sigma_delta_chain_cross_mode_resume(sd_chain, head_block):
    frontend, reference = sd_chain
    head_top = SigmaDeltaTop(frontend)
    head_sim = Simulator(head_top, tdf_block=head_block)
    head_sim.run(us(2048), checkpoint_every=us(2048))
    checkpoint = head_sim.checkpoint_manager.latest()
    tail_top = SigmaDeltaTop(frontend)
    tail_sim = Simulator(tail_top, tdf_block=not head_block)
    tail_sim.restore_checkpoint(checkpoint.payload)
    tail_sim.run(us(2047))
    assert_bytes_equal(reference.sink, tail_top.sink)
    assert_converter_state_equal(reference, tail_top)


def _wobble(t):
    return 1e-4 * np.sin(2 * np.pi * 7e3 * t)


class MixedSourceTop(Module):
    """Two sines drive a CT module whose source rows hold every kind:
    TDF-driven inputs, a constant ``int`` equal to a valid input slot, a
    constant float and a callable waveform, which makes its activations
    step per internal step, in block runs too.

    ``dense``: an ELN DAE, sampled at a node, a node difference and a
    source current.  ``expm`` needs an invertible C, so its network is
    driven by current sources only.  ``lsf``: a signal-flow sum into a
    low-pass, where the constants stay plain numbers in the rows.
    """

    def __init__(self, kind, oversample, method):
        super().__init__("mixed_top")
        options = dict(parent=self, oversample=oversample, method=method)
        if kind == "lsf":
            lsf = LsfNetwork()
            u, a, k, f, c, total, y = (
                lsf.signal(name) for name in "uakfcsy")
            lsf.add(LsfSource("u", u))
            lsf.add(LsfSource("a", a))
            lsf.add(LsfSource("k", k, 1))
            lsf.add(LsfSource("f", f, 0.25))
            lsf.add(LsfSource("c", c, _wobble))
            lsf.add(LsfAdd("sum", [u, a, k, f, c], total,
                           weights=[1.0, 1e3, 1.0, 1.0, 1e3]))
            lsf.add(LsfLtfNd("lp", total, y, num=[1.0],
                             den=[1.0, 4.5e-6, 1e-11]))
            self.ct = LsfTdfModule("ct", lsf, **options)
            inputs = [self.ct.drive(u, initial=0.1), self.ct.drive(a)]
            outputs = [self.ct.sample(y), self.ct.sample(total)]
        elif kind == "expm":
            net = Network("mixed_expm")
            net.add(Isource("Iin", "n1", "0"))
            net.add(Isource("Iaux", "n2", "0"))
            net.add(Isource("Ik", "n2", "0", 1))
            net.add(Isource("If", "n1", "0", -0.25))
            net.add(Isource("Ic", "n2", "0", _wobble))
            net.add(Capacitor("C1", "n1", "0", 1e-6))
            net.add(Capacitor("C2", "n2", "0", 2e-6))
            net.add(Resistor("R1", "n1", "0", 1.0))
            net.add(Resistor("R2", "n1", "n2", 2.0))
            self.ct = ElnTdfModule("ct", net, solver_variant="expm",
                                   **options)
            inputs = [self.ct.drive_current("Iin", initial=0.1),
                      self.ct.drive_current("Iaux")]
            outputs = [self.ct.sample_voltage("n2"),
                       self.ct.sample_voltage("n1", reference="n2")]
        else:
            net = Network("mixed_dense")
            net.add(Vsource("Vin", "in", "0"))
            net.add(Isource("Iaux", "out", "0"))
            net.add(Vsource("Vk", "k", "0", 1))
            net.add(Vsource("Vf", "f", "0", 0.25))
            net.add(Isource("Ic", "mid", "0", _wobble))
            net.add(Resistor("R1", "in", "mid", 1e3))
            net.add(Capacitor("C1", "mid", "0", 1e-9))
            net.add(Resistor("R2", "mid", "out", 2e3))
            net.add(Capacitor("C2", "out", "0", 0.5e-9))
            net.add(Resistor("R3", "k", "out", 4e3))
            net.add(Resistor("R4", "f", "mid", 3e3))
            self.ct = ElnTdfModule("ct", net, solver_variant="dense",
                                   **options)
            inputs = [self.ct.drive_voltage("Vin", initial=0.1),
                      self.ct.drive_current("Iaux")]
            outputs = [self.ct.sample_voltage("out"),
                       self.ct.sample_voltage("mid", reference="out"),
                       self.ct.sample_current("Vk")]
        for index, (port, frequency, amplitude) in enumerate(
                zip(inputs, (23e3, 46e3), (0.7, 0.7e-3))):
            signal = TdfSignal(f"s_in{index}")
            source = SineSource(f"src{index}", frequency,
                                amplitude=amplitude, parent=self,
                                timestep=us(1))
            source.out(signal)
            port(signal)
        self.sinks = []
        for index, port in enumerate(outputs):
            signal = TdfSignal(f"s_out{index}")
            sink = TdfSink(f"sink{index}", parent=self)
            port(signal)
            sink.inp(signal)
            self.sinks.append(sink)


@pytest.mark.parametrize("kind,oversample,method", [
    (kind, oversample, method)
    for kind in ("dense", "lsf", "expm")
    for oversample in (1, 3)
    for method in ("trapezoidal", "backward_euler")
    if kind != "expm" or method == "trapezoidal"  # expm ignores it
])
def test_window_replays_every_source_kind(kind, oversample, method):
    """Scalar and block runs agree byte for byte, and in their solver
    counters, whatever drives the source rows; with a callable row the
    block run steps per activation."""
    def run(block):
        top = MixedSourceTop(kind, oversample, method)
        sim = Simulator(top, tdf_block=block, tdf_batch=16)
        sim.run(us(300))
        return top, _solver_counters(sim)

    reference, ref_counters = run(False)
    got, counters = run(True)
    assert len(got.sinks) == (3 if kind == "dense" else 2)
    for ref_sink, got_sink in zip(reference.sinks, got.sinks):
        assert len(got_sink.samples) == 301
        assert_bytes_equal(ref_sink, got_sink)
    assert counters == ref_counters
    assert counters["solver.steps"] == oversample * 300


def test_window_calls_no_constant_source_waveform():
    """ELN constant sources stay numbers, as LSF constants do, so a
    block run calls nothing for them (8,004 calls over this run when
    each was wrapped in a lambda).  The callable source makes the
    module step per activation: each internal step evaluates the
    source at its end and start, and the first activation's consistent
    initialization once."""
    top = MixedSourceTop("dense", 1, "trapezoidal")
    sim = Simulator(top, tdf_block=True, tdf_batch=16)
    sim.elaborate()
    profile = cProfile.Profile()
    profile.runcall(sim.run, us(2000))
    calls = {}
    for (path, _line, name), stats in pstats.Stats(profile).stats.items():
        key = pathlib.Path(path).name, name
        calls[key] = calls.get(key, 0) + stats[1]
    assert not [key for key in calls if key[0] == "components.py"]
    assert calls[pathlib.Path(__file__).name, "_wobble"] == 2 * 2000 + 1


@pytest.mark.parametrize("kind", ["dense", "sparse", "expm", "lsf"])
def test_oversampled_block_run_takes_the_window_path(monkeypatch, kind):
    """A block run of an oversampled module never steps the solver one
    activation at a time: every window steps each activation from its
    input vector (a held window), whatever the stepper."""
    case = dict(kind=kind, oversample=2)
    reference, _ = _oversampled_run(False, **case)
    windows = []
    advance_window = LinearTransientSolver.advance_window

    def held_only(self, *args):
        assert isinstance(args[0], HeldWindow)
        windows.append(len(args[0]))
        return advance_window(self, *args)

    def scalar_advance(self, t):
        raise AssertionError(f"per-activation advance_to({t})")

    monkeypatch.setattr(LinearTransientSolver, "advance_window", held_only)
    monkeypatch.setattr(LinearTransientSolver, "advance_to",
                        scalar_advance)
    top, sim = _oversampled_run(True, **case)
    assert_bytes_equal(reference.sink, top.sink)
    steps = 2 * (len(top.sink.samples) - 1)
    assert sim.metrics_snapshot()["solver.steps"] == sum(windows) == steps


def test_fine_telemetry_keeps_the_window_path(monkeypatch):
    """Fine telemetry records one ``solver.advance`` span per advance
    call, here one per window, instead of forcing one ``advance_to``
    per activation."""
    def run(block):
        top = OversampledTop(kind="dense", oversample=2)
        sim = Simulator(top, tdf_block=block, observe="fine")
        sim.run(us(200))
        return top, sim.telemetry.tracer.spans_named("solver.advance")

    reference, _spans = run(False)
    windows = []
    advance_window = LinearTransientSolver.advance_window

    def counted_window(self, *args):
        windows.append(len(args[0]))
        return advance_window(self, *args)

    def scalar_advance(self, t):
        raise AssertionError(f"per-activation advance_to({t})")

    monkeypatch.setattr(LinearTransientSolver, "advance_window",
                        counted_window)
    monkeypatch.setattr(LinearTransientSolver, "advance_to",
                        scalar_advance)
    top, spans = run(True)
    assert_bytes_equal(reference.sink, top.sink)
    assert sum(windows) == 2 * (len(top.sink.samples) - 1)
    assert 1 < len(spans) == len(windows) < len(top.sink.samples) // 4


# -- object-mode (non-float payload) fallback --------------------------------


class TokenSource(TdfModule):
    """Writes alternating int / float payloads (scalar only)."""

    def __init__(self, name, parent=None, timestep=None):
        super().__init__(name, parent)
        self.out = TdfOut("out")
        self._timestep = timestep
        self._n = 0

    def set_attributes(self):
        if self._timestep is not None:
            self.set_timestep(self._timestep)

    def processing(self):
        value = self._n if self._n % 2 else float(self._n)
        self.out.write(value)
        self._n += 1


class ObjectModeTop(Module):
    def __init__(self):
        super().__init__("objmode")
        self.s = TdfSignal("s")
        self.src = TokenSource("src", parent=self, timestep=us(1))
        self.sink = TdfSink("sink", parent=self)
        self.src.out(self.s)
        self.sink.inp(self.s)


def test_object_mode_payloads_preserved():
    """A demoted (object-mode) stream must reach the sink with its
    original payload types in both engines."""
    ref = run_sim(ObjectModeTop, us(200), block=False)
    got = run_sim(ObjectModeTop, us(200), block=True)
    assert ref.sink.samples == got.sink.samples
    assert [type(v) for v in ref.sink.samples] \
        == [type(v) for v in got.sink.samples]
    assert any(type(v) is int for v in got.sink.samples)


# -- converter-port modules ----------------------------------------------------


class OscillatingTokens(TdfModule):
    """Writes -2, -1, 0, 1, 2, -2, ... as alternating int and float
    payloads (an object-mode stream)."""

    def __init__(self, name, parent=None):
        super().__init__(name, parent)
        self.out = TdfOut("out")

    def set_attributes(self):
        self.set_timestep(us(1))

    def processing(self):
        n = self.activation_count
        value = n % 5 - 2
        self.out.write(value if n % 2 else float(value))


class ComparatorTop(Module):
    """A sine (or object-mode tokens) into a comparator with hysteresis
    and offset, read eight samples per cluster period."""

    def __init__(self, de_output, levels, tokens):
        super().__init__("cmp_top")
        if tokens:
            self.src = OscillatingTokens("src", parent=self)
        else:
            self.src = SineSource("src", 37e3, amplitude=1.0, parent=self,
                                  timestep=us(1))
        high, low = levels
        self.cmp = Comparator("cmp", threshold=0.1, hysteresis=0.4,
                              offset=0.05, high=high, low=low,
                              de_output=de_output, parent=self)
        self.sink = TdfSink("sink", parent=self, rate=8)
        s_in, s_out = TdfSignal("s_in"), TdfSignal("s_out")
        self.src.out(s_in)
        self.cmp.inp(s_in)
        self.cmp.out(s_out)
        self.sink.inp(s_out)
        self.de_signals = []
        if de_output:
            self.level = Signal("level", initial=False)
            self.cmp.de_out(self.level)
            self.de_signals.append(self.level)


class BridgesTop(Module):
    """The ADSL tone generator and register bridge, each read eight
    samples per cluster period, with a thread that toggles the enable
    and changes the register between period starts."""

    def __init__(self):
        super().__init__("bridges")
        self.enable = Signal("enable", initial=0)
        self.gain = Signal("gain", initial=-18)
        self.tone = DspToneGenerator(
            "tone", AdslConfig(tone_frequency=7812.5, tone_amplitude=0.55),
            parent=self)
        self.tone.enable(self.enable)
        self.bridge = _RegisterToTdf("bridge", self.gain, parent=self)
        self.bridge.out.set_timestep(us(1))
        self.tone_sink = TdfSink("tone_sink", parent=self, rate=8)
        self.gain_sink = TdfSink("gain_sink", parent=self, rate=8)
        s_tone, s_gain = TdfSignal("s_tone"), TdfSignal("s_gain")
        self.tone.out(s_tone)
        self.tone_sink.inp(s_tone)
        self.bridge.out(s_gain)
        self.gain_sink.inp(s_gain)
        self.de_signals = [self.enable, self.gain]
        self.thread(self.stimulus)

    def stimulus(self):
        for wait, enable, gain in ((us(37), 1, -12), (us(50), 0, -6),
                                   (us(41), 1, 3)):
            yield wait
            self.enable.write(enable)
            self.gain.write(gain)


def run_recorded(build, duration, block):
    """Run ``build()`` and record every change of its ``de_signals`` as
    ``(ticks, delta within the instant, signal, value)``."""
    top = build()
    sim = Simulator(top, tdf_block=block)
    sim.elaborate()
    kernel = sim.kernel
    instant = [0]
    kernel.add_time_callback(
        lambda ticks: instant.__setitem__(0, kernel.delta_count))
    changes = []
    for signal in top.de_signals:
        def record(signal=signal):
            changes.append((kernel.now_ticks,
                            kernel.delta_count - instant[0], signal.name,
                            signal.read()))

        kernel.register_process(Process(
            f"record.{signal.name}", METHOD, record,
            [signal.default_event()], dont_initialize=True))
    sim.run(duration)
    return top, changes


def count_block_calls(monkeypatch, module_class):
    """Count ``module_class.processing_block`` calls in a list."""
    calls = []
    original = module_class.processing_block

    def counted(self, n):
        calls.append(n)
        original(self, n)

    monkeypatch.setattr(module_class, "processing_block", counted)
    return calls


def assert_sinks_identical(ref, got):
    """Samples with their payload types, and their times."""
    assert repr(ref.samples) == repr(got.samples)
    assert repr(ref.times) == repr(got.times)


@pytest.mark.parametrize("de_output", [True, False])
@pytest.mark.parametrize("levels,tokens", [
    ((1.0, 0.0), False),
    ((1, 0), False),       # int levels: the scalar fallback
    ((1.0, -1.0), True),   # object-mode input: the scalar fallback
])
def test_comparator_bit_identical(monkeypatch, de_output, levels, tokens):
    def build():
        return ComparatorTop(de_output, levels, tokens)

    ref, ref_changes = run_recorded(build, us(200), block=False)
    calls = count_block_calls(monkeypatch, Comparator)
    got, got_changes = run_recorded(build, us(200), block=True)
    assert calls
    assert_sinks_identical(ref.sink, got.sink)
    assert repr(ref_changes) == repr(got_changes)
    assert ref.cmp._state == got.cmp._state
    if de_output:
        assert len(got_changes) >= 10


def test_tone_generator_and_register_bridge_bit_identical(monkeypatch):
    ref, ref_changes = run_recorded(BridgesTop, us(200), block=False)
    tone_calls = count_block_calls(monkeypatch, DspToneGenerator)
    bridge_calls = count_block_calls(monkeypatch, _RegisterToTdf)
    got, got_changes = run_recorded(BridgesTop, us(200), block=True)
    assert tone_calls and bridge_calls
    assert_sinks_identical(ref.tone_sink, got.tone_sink)
    assert_sinks_identical(ref.gain_sink, got.gain_sink)
    assert repr(ref_changes) == repr(got_changes)
    # The enable and the register changed mid-run and reached the
    # streams.
    assert len(set(got.gain_sink.samples)) == 4
    assert 0.0 in got.tone_sink.samples and max(got.tone_sink.samples) > 0.5
