"""The Figure 1 system: ADSL subscriber line interface and codec filter.

The paper's motivating example, modeled exactly as Section 2 prescribes:

* **system environment** (subscriber + subscriber line + protection
  network) — a linear electrical network (`repro.eln` inside an
  :class:`~repro.sync.ElnTdfModule`);
* **high-voltage driver, analog filters** — signal-flow blocks
  (`repro.lib` saturating amplifier, `repro.lsf` continuous filters);
* **converters** (Σ∆ pofi / Σ∆ prefi) — oversampled ΣΔ modulators and a
  CIC decimator;
* **digital filters + DSP block** — dataflow (TDF FIR + level meter);
* **control software** — an event-driven bus-functional model
  (`repro.de`) driving a register file whose mirrors control the AMS
  hardware (receive gain), and polling the hook-detector status;
* **digital interface** — RTL register file on the synchronous bus.

Starred blocks of the figure carry frequency-domain views; these are
produced by :mod:`repro.adsl.views` from the same time-domain equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.clock import Clock
from ..core.module import Module
from ..core.time import SimTime
from ..de.bus import Bus, BusMaster, RegisterFile
from ..eln.components import Capacitor, Inductor, Probe, Resistor, Vsource
from ..eln.network import Network
from ..lib.blocks import Comparator, SaturatingAmp, TdfSink, Vga
from ..lib.filters import FirFilter, fir_lowpass
from ..lib.sigma_delta import CicDecimator, SigmaDelta2
from ..lib.sources import SineSource
from ..lsf.blocks import LsfLtfNd, LsfSource
from ..lsf.network import LsfNetwork
from ..sync.ct_modules import ElnTdfModule, LsfTdfModule
from ..tdf.module import TdfDeIn, TdfModule
from ..tdf.signal import TdfIn, TdfOut, TdfSignal

#: Register map of the codec's software-visible interface.
REG_TX_ENABLE = 0
REG_RX_GAIN_DB = 1
REG_HOOK_STATUS = 2
REG_LINE_LEVEL = 3


@dataclass
class AdslConfig:
    """Parameters of the ADSL SLIC/codec virtual prototype."""

    #: oversampled (modulator) rate timestep.
    base_timestep: SimTime = field(default_factory=lambda: SimTime(1, "us"))
    #: test-tone frequency produced by the DSP (voice-band).
    tone_frequency: float = 3906.25  # coherent with 1 MHz / 256
    tone_amplitude: float = 0.5
    #: line-driver voltage gain and supply rail (the "high voltage").
    driver_gain: float = 8.0
    driver_rail: float = 12.0
    #: subscriber line: two RLC ladder segments + termination.
    line_series_r: float = 50.0
    line_series_l: float = 0.7e-3
    line_shunt_c: float = 15e-9
    subscriber_r: float = 600.0
    #: protection network series resistance.
    protection_r: float = 20.0
    #: CIC decimation factor (prefi output rate = base rate / factor).
    decimation: int = 32
    #: RX anti-alias corner [Hz].
    antialias_corner: float = 30e3
    #: software-programmed receive gain [dB] (negative: the subscriber
    #: voltage is several volts; the Σ∆ prefi needs |x| < 1).
    rx_gain_db: float = -18.0
    #: off-hook loop-current threshold [A].
    hook_threshold: float = 4e-3
    #: far-end (subscriber-side) upstream tone injected onto the line;
    #: zero amplitude disables the duplex scenario.
    far_end_frequency: float = 1953.125  # 31.25 kHz / 16
    far_end_amplitude: float = 0.0
    #: enable the DSP's LMS echo canceller (duplex operation: removes
    #: the near-end TX echo from the received stream).
    echo_cancellation: bool = False
    echo_taps: int = 24
    echo_mu: float = 0.25


class DspToneGenerator(TdfModule):
    """The DSP block's transmit side: synthesizes the test tone,
    gated by the software TX-enable register (a DE converter input)."""

    def __init__(self, name: str, config: AdslConfig,
                 parent: Optional[Module] = None):
        super().__init__(name, parent)
        self.out = TdfOut("out")
        self.enable = TdfDeIn("enable", initial_value=0)
        self.config = config

    def set_attributes(self):
        self.set_timestep(self.config.base_timestep)

    def processing(self):
        if self.enable.read():
            t = self.local_time.to_seconds()
            value = self.config.tone_amplitude * np.sin(
                2 * np.pi * self.config.tone_frequency * t
            )
        else:
            value = 0.0
        self.out.write(value)

    def processing_block(self, n):
        # The enable input is latched once per cluster period, and a
        # cluster with a converter input runs one period per wake, so
        # one branch serves the whole block.
        if self.enable.read():
            t = self.activation_times(n)
            self.out.write_block(self.config.tone_amplitude * np.sin(
                2 * np.pi * self.config.tone_frequency * t
            ))
        else:
            self.out.write_block(np.zeros(n))


class LevelMeter(TdfModule):
    """The DSP block's receive side: exponential RMS level estimate,
    reported to software through the register file (backdoor poke)."""

    #: the register poke is DE-visible state outside any converter
    #: port — running periods ahead of kernel time would let software
    #: observe future levels.
    batch_unsafe = True

    def __init__(self, name: str, registers: RegisterFile,
                 parent: Optional[Module] = None,
                 smoothing: float = 0.01):
        super().__init__(name, parent)
        self.inp = TdfIn("inp")
        self.registers = registers
        self.smoothing = smoothing
        self._mean_square = 0.0
        self.samples: list[float] = []

    def processing(self):
        value = self.inp.read()
        self.samples.append(value)
        self._mean_square += self.smoothing * (
            value * value - self._mean_square
        )
        # Report in milli-units so the integer register is meaningful.
        self.registers.poke(
            REG_LINE_LEVEL, int(1000 * np.sqrt(self._mean_square))
        )

    @property
    def rms(self) -> float:
        return float(np.sqrt(self._mean_square))

    def checkpoint_state(self):
        return {"mean_square": self._mean_square,
                "samples": list(self.samples)}

    def restore_state(self, data) -> None:
        self._mean_square = data["mean_square"]
        self.samples = list(data["samples"])


def build_line_network(config: AdslConfig) -> Network:
    """Protection network + 2-segment subscriber-line ladder +
    subscriber termination, with a loop-current probe for the hook
    detector.  This is the "linear networks (results in linear DAE's)"
    part of Figure 1.  The subscriber termination carries a series EMF
    (``Vfar``) so a far-end upstream signal can be injected for duplex
    scenarios."""
    net = Network("subscriber_line")
    net.add(Vsource("Vdrv", "drv", "0"))
    net.add(Resistor("Rprot", "drv", "line0", config.protection_r))
    previous = "line0"
    for segment in range(2):
        node = f"line{segment + 1}"
        net.add(Resistor(f"Rl{segment}", previous, f"{node}_m",
                         config.line_series_r))
        net.add(Inductor(f"Ll{segment}", f"{node}_m", node,
                         config.line_series_l))
        net.add(Capacitor(f"Cl{segment}", node, "0",
                          config.line_shunt_c))
        previous = node
    net.add(Probe("Ploop", previous, "sub"))
    net.add(Resistor("Rsub", "sub", "sub_emf", config.subscriber_r))
    net.add(Vsource("Vfar", "sub_emf", "0", 0.0))
    return net


def build_smoothing_filter(config: AdslConfig) -> tuple[LsfNetwork, object, object]:
    """TX smoothing filter: 2nd-order lowpass at ~2x voice band,
    realized as a Laplace transfer function (signal flow)."""
    lsf = LsfNetwork("smoothing")
    u = lsf.signal("u")
    y = lsf.signal("y")
    w0 = 2 * np.pi * 12e3
    lsf.add(LsfSource("src", u))
    lsf.add(LsfLtfNd("lp", u, y,
                     num=[w0 * w0],
                     den=[w0 * w0, 2 * 0.707 * w0, 1.0]))
    return lsf, u, y


def build_antialias_filter(config: AdslConfig) -> tuple[LsfNetwork, object, object]:
    """RX anti-alias filter ahead of the Σ∆ prefi."""
    lsf = LsfNetwork("antialias")
    u = lsf.signal("u")
    y = lsf.signal("y")
    w0 = 2 * np.pi * config.antialias_corner
    lsf.add(LsfSource("src", u))
    lsf.add(LsfLtfNd("lp", u, y,
                     num=[w0 * w0],
                     den=[w0 * w0, 2 * 0.707 * w0, 1.0]))
    return lsf, u, y


class AdslSystem(Module):
    """The complete Figure 1 virtual prototype."""

    def __init__(self, config: Optional[AdslConfig] = None,
                 software_program=None):
        super().__init__("adsl")
        self.config = config or AdslConfig()
        cfg = self.config
        step = cfg.base_timestep

        # ---- digital interface: clock, bus, register file ----------------
        self.clk = Clock("clk", period=SimTime(100, "ns"), parent=self)
        self.bus = Bus("bus")
        self.cpu = BusMaster("cpu", self.bus, self.clk, parent=self)
        self.registers = RegisterFile("regs", self.bus, self.clk,
                                      size=8, parent=self)
        tx_enable_sig = self.registers.mirror(REG_TX_ENABLE, initial=0)
        rx_gain_sig = self.registers.mirror(
            REG_RX_GAIN_DB, initial=int(cfg.rx_gain_db)
        )

        # ---- TX path: DSP tone -> sigma-delta pofi -> smoothing ->
        #      high-voltage driver ------------------------------------------
        self.dsp_tx = DspToneGenerator("dsp_tx", cfg, parent=self)
        self.dsp_tx.enable(tx_enable_sig)
        self.sd_pofi = SigmaDelta2("sd_pofi", parent=self)
        lsf_tx, tx_in, tx_out = build_smoothing_filter(cfg)
        self.smoothing = LsfTdfModule("smoothing", lsf_tx, parent=self,
                                      oversample=2)
        self.driver = SaturatingAmp("driver", gain=cfg.driver_gain,
                                    limit=cfg.driver_rail, parent=self)

        s_tone = TdfSignal("s_tone")
        s_bits = TdfSignal("s_bits")
        s_smooth = TdfSignal("s_smooth")
        s_drive = TdfSignal("s_drive")
        self.dsp_tx.out(s_tone)
        self.sd_pofi.inp(s_tone)
        self.sd_pofi.out(s_bits)
        self.smoothing.drive(tx_in)(s_bits)
        self.smoothing.sample(tx_out)(s_smooth)
        self.driver.inp(s_smooth)
        self.driver.out(s_drive)

        # ---- the line (conservative network) ------------------------------
        self.line = ElnTdfModule("line", build_line_network(cfg),
                                 parent=self, oversample=2)
        s_sub = TdfSignal("s_sub")       # subscriber voltage
        s_loop = TdfSignal("s_loop")     # loop current (hook detect)
        s_far = TdfSignal("s_far")       # far-end upstream EMF
        self.line.drive_voltage("Vdrv")(s_drive)
        self.line.sample_voltage("sub")(s_sub)
        self.line.sample_current("Ploop")(s_loop)
        self.far_end = SineSource("far_end",
                                  frequency=cfg.far_end_frequency,
                                  amplitude=cfg.far_end_amplitude,
                                  parent=self)
        self.far_end.out(s_far)
        self.line.drive_voltage("Vfar")(s_far)

        # ---- hook detection (mixed-signal -> DE) ---------------------------
        self.hook = Comparator("hook", threshold=cfg.hook_threshold,
                               hysteresis=cfg.hook_threshold * 0.2,
                               de_output=True, parent=self)
        s_hook = TdfSignal("s_hook")
        self.hook.inp(s_loop)
        self.hook.out(s_hook)
        self.hook_sink = TdfSink("hook_sink", parent=self)
        self.hook_sink.inp(s_hook)
        from ..core.signal import Signal as DeSignal

        self.hook_de = DeSignal("hook_de", initial=False)
        self.hook.de_out(self.hook_de)
        self.method(self._hook_status_update,
                    sensitivity=[self.hook_de], dont_initialize=True)

        # ---- RX path: VGA -> anti-alias -> sigma-delta prefi ->
        #      CIC decimator -> FIR -> DSP level meter -----------------------
        self.vga = Vga("vga", parent=self)
        s_gain = TdfSignal("s_gain")
        self._gain_bridge = _RegisterToTdf("gain_bridge", rx_gain_sig,
                                           parent=self)
        self._gain_bridge.out(s_gain)

        lsf_rx, rx_in, rx_out = build_antialias_filter(cfg)
        self.antialias = LsfTdfModule("antialias", lsf_rx, parent=self,
                                      oversample=2)
        self.sd_prefi = SigmaDelta2("sd_prefi", parent=self)
        self.cic = CicDecimator("cic", factor=cfg.decimation, order=3,
                                parent=self)
        decimated_rate = 1.0 / (step.to_seconds() * cfg.decimation)
        taps = fir_lowpass(63, cfg.tone_frequency * 1.6, decimated_rate)
        self.rx_fir = FirFilter("rx_fir", taps, parent=self)
        self.dsp_rx = LevelMeter("dsp_rx", self.registers, parent=self)

        s_vga = TdfSignal("s_vga")
        s_aa = TdfSignal("s_aa")
        s_adc = TdfSignal("s_adc")
        s_dec = TdfSignal("s_dec")
        s_rx = TdfSignal("s_rx")
        self.vga.inp(s_sub)
        self.vga.gain_db(s_gain)
        self.vga.out(s_vga)
        self.antialias.drive(rx_in)(s_vga)
        self.antialias.sample(rx_out)(s_aa)
        self.sd_prefi.inp(s_aa)
        self.sd_prefi.out(s_adc)
        self.cic.inp(s_adc)
        self.cic.out(s_dec)
        self.rx_fir.inp(s_dec)
        self.rx_fir.out(s_rx)

        if cfg.echo_cancellation:
            # Duplex operation: the DSP removes the near-end TX echo
            # from the received stream with an LMS canceller.  The
            # reference is the transmitted (smoothed) waveform brought
            # to the decimated rate.
            from ..lib.adaptive import LmsFilter
            from ..lib.sigma_delta import CicDecimator as _Cic

            self.echo_ref_dec = _Cic("echo_ref_dec",
                                     factor=cfg.decimation, order=2,
                                     parent=self)
            self.echo_canceller = LmsFilter(
                "echo_canceller", taps=cfg.echo_taps, mu=cfg.echo_mu,
                parent=self,
            )
            s_ref_dec = TdfSignal("s_ref_dec")
            s_clean = TdfSignal("s_clean")
            self.echo_ref_dec.inp(s_smooth)
            self.echo_ref_dec.out(s_ref_dec)
            self.echo_canceller.reference(s_ref_dec)
            self.echo_canceller.desired(s_rx)
            self.echo_canceller.out(s_clean)
            self.echo_est_sink = TdfSink("echo_est_sink", parent=self)
            s_est = TdfSignal("s_est")
            self.echo_canceller.estimate(s_est)
            self.echo_est_sink.inp(s_est)
            self.dsp_rx.inp(s_clean)
        else:
            self.dsp_rx.inp(s_rx)

        # ---- waveform taps for analysis ------------------------------------
        self.tap_drive = TdfSink("tap_drive", parent=self)
        self.tap_drive.inp(s_drive)
        self.tap_sub = TdfSink("tap_sub", parent=self)
        self.tap_sub.inp(s_sub)

        # ---- control software ----------------------------------------------
        program = software_program or default_software_program
        self.software_log: list = []
        self.thread(lambda: program(self), name="software")

    def _hook_status_update(self) -> None:
        self.registers.poke(REG_HOOK_STATUS,
                            int(bool(self.hook_de.read())))

    # -- measurement helpers ---------------------------------------------------

    @property
    def decimated_rate(self) -> float:
        return 1.0 / (self.config.base_timestep.to_seconds()
                      * self.config.decimation)

    def rx_output(self) -> np.ndarray:
        return np.asarray(self.dsp_rx.samples)

    def rx_snr_db(self, settle_fraction: float = 0.5) -> float:
        """SNDR of the received (near-end TX) tone at the DSP output."""
        return self._tone_sndr(self.config.tone_frequency,
                               settle_fraction)

    def far_end_snr_db(self, settle_fraction: float = 0.5) -> float:
        """SNDR of the far-end upstream tone at the DSP output.

        In duplex scenarios the near-end TX echo is the dominant
        impairment; the echo canceller's job is to maximize this.
        """
        return self._tone_sndr(self.config.far_end_frequency,
                               settle_fraction)

    def _tone_sndr(self, frequency: float,
                   settle_fraction: float) -> float:
        from ..analysis.spectrum import ToneAnalysis

        samples = self.rx_output()
        tail = samples[int(len(samples) * settle_fraction):]
        analysis = ToneAnalysis(tail, self.decimated_rate,
                                tone_frequency=frequency)
        return analysis.sndr_db


class _RegisterToTdf(TdfModule):
    """Bridges a register-mirror DE signal into the TDF world."""

    def __init__(self, name: str, de_signal, parent=None):
        super().__init__(name, parent)
        self.out = TdfOut("out")
        self.de_in = TdfDeIn("de_in")
        self.de_in(de_signal)

    def processing(self):
        self.out.write(float(self.de_in.read()))

    def processing_block(self, n):
        self.out.write_block(np.full(n, float(self.de_in.read())))


def default_software_program(system: AdslSystem):
    """The control software: configure the codec, start transmission,
    poll the line level and hook status."""
    cpu = system.cpu
    yield from cpu.idle(4)
    yield from cpu.write(REG_RX_GAIN_DB,
                         int(system.config.rx_gain_db))
    yield from cpu.write(REG_TX_ENABLE, 1)
    system.software_log.append(("tx_enabled", None))
    while True:
        yield from cpu.idle(2000)
        level = yield from cpu.read(REG_LINE_LEVEL)
        hook = yield from cpu.read(REG_HOOK_STATUS)
        system.software_log.append(("poll", (level, hook)))
