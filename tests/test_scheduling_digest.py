"""Golden scheduling digests: every process activation, pinned.

Each model below runs with every process body wrapped so that each
activation appends ``(now_ticks, delta_count, process name)`` to a
record.  The record, the kernel/TDF/solver counters of
``metrics_snapshot()`` and the model's output streams are hashed with
SHA-256 and compared with a golden digest: a change to the kernel that
is meant to be a pure speed-up must leave the process order in each
evaluation phase, the delta and timed-event order and every simulated
statistic unchanged.

Float streams are rounded to 9 decimals before hashing so the digest
does not depend on last-bit differences between numerical libraries.

The ADSL *DE-visible pin* is coarser.  It hashes only what a model
outside the kernel can observe: every change of a non-clock DE signal
as ``(ticks, delta within the instant, signal, value)``, sorted within
each delta, with the software's view and the output streams.  It holds
when the kernel visits fewer instants (a clock edge no process
observes is skipped), and when processes within one delta run in
another order.
"""

import hashlib
import inspect

import numpy as np
import pytest

from repro.adsl import AdslConfig, AdslSystem
from repro.core import Clock, Event, Module, Signal, SimTime, Simulator
from repro.core.process import METHOD, Process
from repro.de import (
    Bus,
    CombinationalLogic,
    Counter,
    EdgeDetector,
    Fsm,
    ShiftRegister,
    Synchronizer,
)
from repro.tdf.module import TdfDeIn, TdfDeOut

#: Tone bins of the Figure-1 test tone (coherent with the 31.25 kHz
#: decimated rate over 256 samples).
TONE_BINS = (11, 12, 22, 23, 24, 26, 27, 28, 29, 30, 31, 32, 33, 34)


def ns(x):
    return SimTime(x, "ns")


def _wrap(process, kernel, record):
    """The process body, logging each activation before it runs."""
    func, name = process.func, process.name

    def entry():
        record.append((kernel.now_ticks, kernel.delta_count, name))

    if process.kind == METHOD:
        def method():
            entry()
            func()
        return method

    def thread():
        entry()
        body = func()
        if not inspect.isgenerator(body):
            return
        for request in body:
            yield request
            entry()
    return thread


def _recorded_run(top, duration):
    sim = Simulator(top)
    sim.elaborate()
    record = []
    for process in sim.kernel._processes:
        process.func = _wrap(process, sim.kernel, record)
    sim.run(duration)
    return sim, record


def _stream_bytes(values) -> bytes:
    rounded = np.round(np.asarray(values, dtype=float), 9) + 0.0
    return rounded.tobytes()


def _digest(sim, record, streams) -> tuple[str, dict]:
    snapshot = sim.metrics_snapshot()
    counters = {key: snapshot[key] for key in sorted(snapshot)
                if key.split(".")[0] in ("kernel", "tdf", "solver")}
    sha = hashlib.sha256()
    sha.update(repr(record).encode())
    sha.update(repr(counters).encode())
    for name in sorted(streams):
        sha.update(name.encode())
        value = streams[name]
        if isinstance(value, np.ndarray):
            sha.update(_stream_bytes(value))
        else:
            sha.update(repr(value).encode())
    summary = {"activations": len(record), **counters}
    return sha.hexdigest(), summary


def _adsl_config(seed: int) -> AdslConfig:
    rng = np.random.default_rng(seed)
    tone_bin = TONE_BINS[int(rng.integers(len(TONE_BINS)))]
    return AdslConfig(tone_frequency=tone_bin * 31250.0 / 256,
                      tone_amplitude=float(rng.uniform(0.45, 0.6)))


def _adsl_digest(seed: int):
    top = AdslSystem(_adsl_config(seed))
    sim, record = _recorded_run(top, SimTime(400, "us"))
    streams = {
        "dsp_rx": np.asarray(top.dsp_rx.samples),
        "tap_drive": np.asarray(top.tap_drive.samples),
        "tap_sub": np.asarray(top.tap_sub.samples),
        "hook": np.asarray(top.hook_sink.samples),
        "software_log": top.software_log,
        "registers": list(top.registers.registers),
    }
    return _digest(sim, record, streams)


def _de_signals(top) -> list:
    """Every DE signal the modules of ``top`` hold, drive or sample,
    except the clock's: module attributes, bus bundles and the signals
    bound to TDF converter ports."""
    found = {}
    for module in top.walk():
        for value in vars(module).values():
            if isinstance(value, Bus):
                candidates = [s for s in vars(value).values()
                              if isinstance(s, Signal)]
            elif isinstance(value, (TdfDeIn, TdfDeOut)):
                candidates = [value.port.resolve()]
            elif isinstance(value, Signal):
                candidates = [value]
            else:
                continue
            for signal in candidates:
                found[id(signal)] = signal
    found.pop(id(top.clk.signal))
    return sorted(found.values(), key=lambda signal: signal.name)


def _adsl_de_pin(seed: int):
    top = AdslSystem(_adsl_config(seed))
    sim = Simulator(top)
    sim.elaborate()
    kernel = sim.kernel
    # delta count at the first delta of the instant being simulated
    instant = [0]
    kernel.add_time_callback(
        lambda ticks: instant.__setitem__(0, kernel.delta_count))
    changes = []
    signals = _de_signals(top)
    for signal in signals:
        def record(signal=signal):
            changes.append((kernel.now_ticks,
                            kernel.delta_count - instant[0],
                            signal.name, signal.read()))

        kernel.register_process(Process(
            f"pin.{signal.name}", METHOD, record,
            [signal.default_event()], dont_initialize=True))
    sim.run(SimTime(1, "ms"))
    sha = hashlib.sha256()
    # Changes come in (ticks, delta) order; sorting orders each delta.
    sha.update(repr(sorted(changes)).encode())
    sha.update(repr((top.software_log, top.registers.registers,
                     top.cpu.transaction_count,
                     top.registers.write_count)).encode())
    for stream in ("tap_drive", "tap_sub", "hook_sink", "dsp_rx"):
        sha.update(stream.encode())
        sha.update(_stream_bytes(getattr(top, stream).samples))
    summary = {"signals": [signal.name for signal in signals],
               "changes": len(changes), "software_log": top.software_log}
    return sha.hexdigest(), summary


class RtlTop(Module):
    """Clocked RTL primitives and an FSM around a stimulus thread.

    Exercises method and thread processes, static and dynamic
    sensitivity, wait-any on an event tuple, delta and timed event
    notifications and signal/bit-signal updates.
    """

    def __init__(self):
        super().__init__("rtl")
        self.clk = Clock("clk", period=ns(10), parent=self)
        self.enable = Signal("enable", initial=True)
        self.clear = Signal("clear", initial=False)
        self.serial = Signal("serial", initial=0)
        self.async_in = Signal("async_in", initial=0)
        self.start = Signal("start", initial=False)
        self.kick = Event("kick")
        self.tick = Event("tick")

        self.counter = Counter("cnt", self.clk, width=4, parent=self)
        self.counter.enable(self.enable)
        self.counter.clear(self.clear)
        self.shift = ShiftRegister("shift", self.clk, width=6, parent=self)
        self.shift.serial_in(self.serial)
        self.sync = Synchronizer("sync", self.clk, parent=self)
        self.sync.inp(self.async_in)
        self.edges = EdgeDetector("edges", self.clk, parent=self)
        self.edges.inp(self.start)
        self.parity = CombinationalLogic(
            "parity", [self.counter.value, self.shift.value],
            lambda count, bits: (count ^ bits) & 1, parent=self)

        self.fsm = Fsm("ctrl", self.clk,
                       inputs=[self.start, self.counter.value],
                       parent=self)
        self.fsm.state("IDLE", initial=True, outputs={"busy": 0})
        self.fsm.state("RUN", outputs={"busy": 1})
        self.fsm.state("DONE", outputs={"busy": 0})
        self.fsm.transition("IDLE", "RUN", lambda start, count: start)
        self.fsm.transition("RUN", "DONE", lambda start, count: count >= 12)
        self.fsm.transition("DONE", "IDLE",
                            lambda start, count: not start,
                            action=lambda: self.kick.notify())

        self.samples = []
        self.thread(self.stimulus)
        self.thread(self.waiter)
        self.method(self.monitor, sensitivity=[self.clk.negedge_event()],
                    dont_initialize=True)

    def stimulus(self):
        pattern = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0]
        yield ns(3)
        self.start.write(True)
        for k, bit in enumerate(pattern):
            self.serial.write(bit)
            if k % 3 == 0:
                self.async_in.write(k)
            if k == 5:
                self.tick.notify(ns(17))
            yield ns(7)
        self.start.write(False)
        self.clear.write(True)
        yield ns(20)
        self.clear.write(False)
        yield self.kick
        self.enable.write(False)
        yield ns(25)
        self.enable.write(True)
        self.start.write(True)
        yield ns(40)
        self.start.write(False)

    def waiter(self):
        while True:
            yield (self.kick, self.tick)
            self.samples.append(("woke", self.counter.value.read()))

    def monitor(self):
        self.samples.append((
            self.counter.value.read(), self.shift.value.read(),
            self.sync.out.read(), bool(self.edges.pulse.read()),
            self.parity.out.read(), self.fsm.current_state,
            self.fsm.output("busy").read()))


def _rtl_digest():
    top = RtlTop()
    sim, record = _recorded_run(top, ns(600))
    streams = {"samples": top.samples,
               "transitions": top.fsm.transition_count}
    return _digest(sim, record, streams)


#: SHA-256 digests of the ADSL DE-visible pin (1 ms per seed).
DE_PIN = {
    1: "f5ba8624e1ddb37e7adf7d7ceb8648a1b65c36ebba16288d2fefcfcfbbb34c8b",
    2: "51a5666b8aa55e28ccdb6998767e5ec2f1e54d4d547358ec8ebb500bdf310506",
}

#: SHA-256 digests of the reference scheduling of each model.
GOLDEN = {
    "adsl-seed-1":
        "954e71f170dffc4e0f04a15fc44a82d45f67eb1c9ae810fea2f3a461de32509a",
    "adsl-seed-2":
        "871bc4959a6161411ecf4d635c26e35e807bb182631ecbf5ab447fd3468f9df4",
    "rtl-fsm":
        "027ed1243174f8ed6d1a8eaf5b1820b31eee198909c1d5d5840f713909560a40",
}


@pytest.mark.parametrize("seed", [1, 2])
def test_adsl_scheduling_digest(seed):
    digest, summary = _adsl_digest(seed)
    assert digest == GOLDEN[f"adsl-seed-{seed}"], summary


@pytest.mark.parametrize("seed", [1, 2])
def test_adsl_de_visible_pin(seed):
    digest, summary = _adsl_de_pin(seed)
    assert len(summary["signals"]) == 8, summary
    assert digest == DE_PIN[seed], summary


def test_rtl_fsm_scheduling_digest():
    digest, summary = _rtl_digest()
    assert digest == GOLDEN["rtl-fsm"], summary
