"""Tests for sub-sample CT->DE crossing events."""

import numpy as np
import pytest

from repro.core import (
    BitSignal,
    Kernel,
    Module,
    SimTime,
    Simulator,
    SynchronizationError,
)
from repro.lib import SineSource, TdfSink
from repro.sync import CrossingToDe
from repro.tdf import TdfSignal


def us(x):
    return SimTime(x, "us")


def build(direction="rising", threshold=0.0, frequency=1e3,
          timestep_us=37, sink_rate=None):
    """A sine sampled coarsely (odd step so crossings are sub-sample).

    With ``sink_rate``, a sink of that rate also reads the sine, so a
    cluster period holds ``sink_rate`` activations of the detector.
    """

    class Top(Module):
        def __init__(self):
            super().__init__("top")
            self.src = SineSource("src", frequency=frequency,
                                  parent=self,
                                  timestep=us(timestep_us))
            self.det = CrossingToDe("det", threshold=threshold,
                                    direction=direction, parent=self)
            self.level = BitSignal("level")
            self.det.de_out(self.level)
            sig = TdfSignal("s")
            self.src.out(sig)
            self.det.inp(sig)
            if sink_rate is not None:
                self.sink = TdfSink("sink", parent=self, rate=sink_rate)
                self.sink.inp(sig)
            self.edge_times = []
            self.edge_ticks = []
            self.method(self._capture,
                        sensitivity=[self.level],
                        dont_initialize=True)

        def _capture(self):
            ticks = Kernel.current().now_ticks
            self.edge_ticks.append(ticks)
            self.edge_times.append(ticks * 1e-15)

    return Top()


class TestCrossingToDe:
    def test_rising_crossings_at_analytic_times(self):
        top = build()
        Simulator(top).run(SimTime(5, "ms"))
        # Rising zero crossings of sin(2*pi*1kHz*t) at 1, 2, 3, 4 ms
        # (t=0 is the initial sample, not a detected crossing).
        expected = np.array([1e-3, 2e-3, 3e-3, 4e-3])
        measured = np.asarray(top.det.crossings[:4])
        # Interpolated localization: far better than the 37 us sample
        # spacing (linear interpolation of a sine: O(h^2) ~ 2 us here).
        np.testing.assert_allclose(measured, expected, atol=3e-6)

    def test_de_events_fire_at_pipelined_interpolated_ticks(self):
        top = build()
        Simulator(top).run(SimTime(5, "ms"))
        assert len(top.edge_times) >= 4
        latency = 37e-6  # one cluster period
        for measured, expected in zip(top.edge_times,
                                      (1e-3, 2e-3, 3e-3, 4e-3)):
            # DE transition at the interpolated instant plus the
            # constant one-period pipeline latency — NOT quantized to a
            # 37 us sample boundary.
            assert measured == pytest.approx(expected + latency,
                                             abs=3e-6)
            remainder = (measured * 1e6) % 37
            assert min(remainder, 37 - remainder) > 1e-3

    def test_inter_event_spacing_is_sub_sample_accurate(self):
        """The pipeline latency is constant: spacings are exact."""
        top = build()
        Simulator(top).run(SimTime(5, "ms"))
        deltas = np.diff(top.edge_times)
        np.testing.assert_allclose(deltas, 1e-3, atol=5e-6)
        sample_error = 37e-6 / 2
        assert np.max(np.abs(deltas - 1e-3)) < sample_error / 3

    def test_falling_direction(self):
        top = build(direction="falling")
        Simulator(top).run(SimTime(4, "ms"))
        expected = np.array([0.5e-3, 1.5e-3, 2.5e-3, 3.5e-3])
        np.testing.assert_allclose(np.asarray(top.det.crossings[:4]),
                                   expected, atol=3e-6)
        # Direction-filtered: the DE level toggles per crossing.
        assert len(top.edge_times) >= 3

    def test_nonzero_threshold(self):
        top = build(direction="rising", threshold=0.5)
        Simulator(top).run(SimTime(3, "ms"))
        # sin crosses 0.5 upward at t = T/12.
        assert top.det.crossings[0] == pytest.approx(1e-3 / 12,
                                                     abs=5e-6)

    def test_invalid_direction_rejected(self):
        with pytest.raises(SynchronizationError):
            CrossingToDe("d", direction="diagonal")

    def test_both_directions_level_follows_comparator(self):
        top = build(direction="either")
        Simulator(top).run(SimTime(3, "ms"))
        # Crossings at every half millisecond: 0.5, 1.0, 1.5, ...
        assert len(top.det.crossings) >= 5
        deltas = np.diff(top.det.crossings)
        np.testing.assert_allclose(deltas, 0.5e-3, atol=5e-6)
        # DE level alternates (post-crossing comparator state); the
        # first falling crossing writes False onto an already-False
        # signal, so it produces crossings-1 visible transitions.
        assert len(top.edge_times) >= len(top.det.crossings) - 1

    @pytest.mark.parametrize("sink_rate", [None, 4])
    def test_transitions_land_at_their_due_ticks(self, sink_rate):
        """A crossing's transition is due one cluster period after it,
        also when that lies past the next period start (four detector
        activations per period): it is held for that period, not
        moved onto a period boundary."""
        top = build(direction="either", frequency=3e3,
                    sink_rate=sink_rate)
        end = SimTime(2100, "us")
        Simulator(top).run(end)
        period_ticks = top.det._cluster.period.ticks
        due = [round(t_cross / 1e-15) + period_ticks
               for t_cross in top.det.crossings]
        due = [ticks for ticks in due if ticks <= end.ticks]
        assert len(due) >= 10
        # The first crossing falls and writes False onto the initial
        # False; the levels alternate after it.
        assert top.edge_ticks == due[1:]
