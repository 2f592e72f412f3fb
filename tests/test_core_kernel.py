"""Unit tests for the DE kernel: scheduling semantics, delta cycles,
events, signals, processes, clock."""

import pytest

from repro.core import (
    BitSignal,
    Clock,
    Event,
    Module,
    Signal,
    SimTime,
    Simulator,
    Trace,
)


def ns(x):
    return SimTime(x, "ns")


class TestSignalSemantics:
    def test_write_visible_only_after_update(self):
        log = []

        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.sig = Signal("s", initial=0)
                self.thread(self.writer)
                self.method(self.reader, sensitivity=[self.sig],
                            dont_initialize=True)

            def writer(self):
                self.sig.write(42)
                # Within the same evaluation phase the old value is seen.
                log.append(("writer-sees", self.sig.read()))
                yield ns(1)

            def reader(self):
                log.append(("reader-sees", self.sig.read()))

        sim = Simulator(M())
        sim.run(ns(2))
        assert ("writer-sees", 0) in log
        assert ("reader-sees", 42) in log

    def test_same_value_write_generates_no_event(self):
        count = []

        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.sig = Signal("s", initial=5)
                self.thread(self.writer)
                self.method(lambda: count.append(1),
                            sensitivity=[self.sig], dont_initialize=True)

            def writer(self):
                self.sig.write(5)
                yield ns(1)
                self.sig.write(6)
                yield ns(1)

        sim = Simulator(M())
        sim.run(ns(5))
        assert count == [1]

    def test_last_write_wins_within_delta(self):
        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.sig = Signal("s", initial=0)
                self.thread(self.writer)

            def writer(self):
                self.sig.write(1)
                self.sig.write(2)
                self.sig.write(3)
                yield ns(1)

        m = M()
        sim = Simulator(m)
        sim.run(ns(2))
        assert m.sig.read() == 3

    def test_pre_simulation_write_applies_directly(self):
        sig = Signal("s", initial=0)
        # No kernel exists in this code path until a Simulator is built.
        from repro.core.kernel import Kernel

        Kernel._current = None
        sig.write(7)
        assert sig.read() == 7


class TestEvents:
    def test_timed_notification_fires_at_right_time(self):
        seen = []

        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.ev = Event("e")
                self.thread(self.notifier)
                self.thread(self.waiter, dont_initialize=False)

            def notifier(self):
                self.ev.notify(ns(5))
                yield ns(100)

            def waiter(self):
                yield self.ev
                seen.append(self_sim.now.ticks)

        m = M()
        self_sim = Simulator(m)
        self_sim.run(ns(20))
        assert seen == [ns(5).ticks]

    def test_earlier_notification_overrides_later(self):
        times = []

        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.ev = Event("e")
                self.thread(self.notifier)
                self.thread(self.waiter)

            def notifier(self):
                self.ev.notify(ns(10))
                self.ev.notify(ns(3))  # earlier: overrides
                self.ev.notify(ns(7))  # later: discarded
                yield ns(100)

            def waiter(self):
                while True:
                    yield self.ev
                    times.append(sim.kernel.now_ticks)

        m = M()
        sim = Simulator(m)
        sim.run(ns(50))
        assert times == [ns(3).ticks]

    def test_cancel(self):
        fired = []

        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.ev = Event("e")
                self.thread(self.driver)
                self.method(lambda: fired.append(1),
                            sensitivity=[self.ev], dont_initialize=True)

            def driver(self):
                self.ev.notify(ns(5))
                yield ns(1)
                self.ev.cancel()
                yield ns(20)

        sim = Simulator(M())
        sim.run(ns(30))
        assert fired == []

    def test_wait_any_of_multiple_events(self):
        woke = []

        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.a = Event("a")
                self.b = Event("b")
                self.thread(self.driver)
                self.thread(self.waiter)

            def driver(self):
                yield ns(2)
                self.b.notify()
                yield ns(10)

            def waiter(self):
                yield (self.a, self.b)
                woke.append(sim.kernel.now_ticks)

        m = M()
        sim = Simulator(m)
        sim.run(ns(20))
        assert woke == [ns(2).ticks]

    def test_immediate_notification_runs_same_evaluation(self):
        order = []

        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.ev = Event("e")
                self.thread(self.first)
                self.method(self.second, sensitivity=[self.ev],
                            dont_initialize=True)

            def first(self):
                order.append("first")
                self.ev.notify_immediate()
                yield ns(1)

            def second(self):
                order.append("second")

        sim = Simulator(M())
        # "second" must run at time 0, same delta as "first".
        sim.run(SimTime(0, "ns"))
        assert order == ["first", "second"]

    def test_immediate_notification_cancels_pending_one(self):
        fired = []

        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.ev = Event("e")
                self.thread(self.driver)
                self.method(lambda: fired.append(sim.kernel.now_ticks),
                            sensitivity=[self.ev], dont_initialize=True)

            def driver(self):
                self.ev.notify(ns(10))
                yield ns(2)
                self.ev.notify_immediate()
                yield ns(1)
                self.ev.notify(ns(20))
                yield ns(100)

        sim = Simulator(M())
        sim.run(ns(50))
        assert fired == [ns(2).ticks, ns(23).ticks]

    def test_cancelled_entry_does_not_split_an_instant(self):
        # e1 and e3 stay due at 10 ns after e2 is cancelled: both fire
        # in one evaluation phase, so e3's method still reads the value
        # from before e1's method wrote.
        runs = []

        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.sig = Signal("s", initial=0)
                self.events = [Event(f"e{k}") for k in (1, 2, 3)]
                self.thread(self.driver)
                self.method(self.writer, sensitivity=[self.events[0]],
                            dont_initialize=True)
                self.method(self.reader, sensitivity=[self.events[2]],
                            dont_initialize=True)

            def driver(self):
                for event in self.events:
                    event.notify(ns(10))
                self.events[1].cancel()
                yield ns(100)

            def writer(self):
                runs.append(("writer", sim.kernel.delta_count))
                self.sig.write(1)

            def reader(self):
                runs.append(("reader", sim.kernel.delta_count,
                             self.sig.read()))

        sim = Simulator(M())
        sim.elaborate()
        advances = []
        sim.kernel.add_time_callback(advances.append)
        sim.run(ns(50))
        delta = runs[0][1]
        assert runs == [("writer", delta), ("reader", delta, 0)]
        assert advances.count(ns(10).ticks) == 1


class TestProcesses:
    def test_method_retriggers_on_each_change(self):
        runs = []

        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.sig = Signal("s", initial=0)
                self.thread(self.stim)
                self.method(lambda: runs.append(self.sig.read()),
                            sensitivity=[self.sig], dont_initialize=True)

            def stim(self):
                for i in range(1, 4):
                    self.sig.write(i)
                    yield ns(1)

        sim = Simulator(M())
        sim.run(ns(10))
        assert runs == [1, 2, 3]

    def test_thread_terminates_and_notifies(self):
        log = []

        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.p = self.thread(self.short)
                self.thread(self.observer)

            def short(self):
                yield ns(1)

            def observer(self):
                yield self.p.terminated_event
                log.append("done")

        sim = Simulator(M())
        sim.run(ns(5))
        assert log == ["done"]

    def test_static_sensitivity_thread(self):
        wakes = []

        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.sig = Signal("s", initial=0)
                self.thread(self.stim)
                self.thread(self.listener, sensitivity=[self.sig],
                            dont_initialize=True)

            def stim(self):
                self.sig.write(1)
                yield ns(1)
                self.sig.write(2)
                yield ns(1)

            def listener(self):
                while True:
                    wakes.append(self.sig.read())
                    yield  # bare yield: wait for static sensitivity again?

        # A bare `yield` (None) is invalid; use explicit event wait instead.
        # This test documents that static sensitivity applies to the *next*
        # trigger after each suspension on the same event.
        class M2(Module):
            def __init__(self):
                super().__init__("m")
                self.sig = Signal("s", initial=0)
                self.thread(self.stim)
                self.thread(self.listener, dont_initialize=True,
                            sensitivity=[self.sig])

            def stim(self):
                self.sig.write(1)
                yield ns(1)
                self.sig.write(2)
                yield ns(1)

            def listener(self):
                while True:
                    wakes.append(self.sig.read())
                    yield self.sig.default_event()

        sim = Simulator(M2())
        sim.run(ns(10))
        assert wakes == [1, 2]


class TestClock:
    def test_clock_edges(self):
        trace = Trace()

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.clk = Clock("clk", period=ns(10), parent=self)

        top = Top()
        trace.watch(top.clk.signal, "clk")
        sim = Simulator(top, trace=trace)
        sim.run(ns(35))
        chan = trace["clk"]
        # Initial False, rise at 0, fall at 5, rise at 10, ...
        times = [t for t in chan.times]
        assert ns(0).ticks in times
        assert ns(5).ticks in times
        assert ns(10).ticks in times
        assert chan.value_at(ns(12)) is True
        assert chan.value_at(ns(17)) is False

    def test_duty_cycle(self):
        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.clk = Clock("clk", period=ns(10), duty_cycle=0.3,
                                 parent=self)

        top = Top()
        trace = Trace()
        trace.watch(top.clk.signal, "clk")
        sim = Simulator(top, trace=trace)
        sim.run(ns(20))
        chan = trace["clk"]
        assert chan.value_at(ns(1)) is True
        assert chan.value_at(ns(4)) is False  # falls at 3 ns

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Clock("c", period=SimTime(0, "ns"))
        with pytest.raises(ValueError):
            Clock("c", period=ns(10), duty_cycle=1.5)

    @pytest.mark.parametrize("period_fs, duty_cycle", [
        (1, 0.5), (100, 0.004), (100, 0.996), (3, 0.1)])
    def test_phase_shorter_than_one_tick_rejected(self, period_fs,
                                                   duty_cycle):
        with pytest.raises(ValueError, match="shorter than one tick"):
            Clock("c", period=SimTime(period_fs, "fs"),
                  duty_cycle=duty_cycle)

    def test_one_tick_phases_alternate(self):
        levels = []

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.clk = Clock("clk", period=SimTime(2, "fs"),
                                 parent=self)
                self.thread(self.sample)

            def sample(self):
                while True:
                    levels.append(self.clk.read())
                    yield SimTime(1, "fs")

        Simulator(Top()).run(SimTime(5, "fs"))
        # Sampled in delta 0, before each edge's update: the level the
        # previous edge left (low before the first posedge at 0).
        assert levels == [False, True, False, True, False, True]

    def test_posedge_count(self):
        edges = []

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.clk = Clock("clk", period=ns(10), parent=self)
                self.method(lambda: edges.append(1),
                            sensitivity=[self.clk.posedge_event()],
                            dont_initialize=True)

        sim = Simulator(Top())
        sim.run(ns(45))
        assert len(edges) == 5  # at 0, 10, 20, 30, 40


class TestBitSignal:
    def test_edge_events(self):
        rises, falls = [], []

        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.b = BitSignal("b")
                self.thread(self.stim)
                self.method(lambda: rises.append(1),
                            sensitivity=[self.b.posedge_event()],
                            dont_initialize=True)
                self.method(lambda: falls.append(1),
                            sensitivity=[self.b.negedge_event()],
                            dont_initialize=True)

            def stim(self):
                self.b.write(True)
                yield ns(1)
                self.b.write(False)
                yield ns(1)
                self.b.write(True)
                yield ns(1)

        sim = Simulator(M())
        sim.run(ns(10))
        assert len(rises) == 2
        assert len(falls) == 1

    def test_coercion_to_bool(self):
        b = BitSignal("b")
        from repro.core.kernel import Kernel

        Kernel._current = None
        b.write(3)
        assert b.read() is True


class TestSimulatorControl:
    def test_run_uses_its_own_kernel_after_another_is_built(self):
        class M(Module):
            def __init__(self, name):
                super().__init__(name)
                self.sig = Signal("s", initial=0)
                self.seen = []
                self.thread(self.stim)
                self.method(lambda: self.seen.append(self.sig.read()),
                            sensitivity=[self.sig], dont_initialize=True)

            def stim(self):
                for value in (1, 2, 3):
                    self.sig.write(value)
                    yield ns(1)

        a, b = M("a"), M("b")
        sim_a = Simulator(a)
        sim_b = Simulator(b)
        sim_a.run(ns(10))
        assert a.seen == [1, 2, 3]
        sim_b.run(ns(10))
        assert b.seen == [1, 2, 3]

    def test_run_in_segments_preserves_time(self):
        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.count = 0
                self.thread(self.tick)

            def tick(self):
                while True:
                    self.count += 1
                    yield ns(10)

        m = M()
        sim = Simulator(m)
        sim.run(ns(25))
        assert sim.now == ns(25)
        c1 = m.count
        sim.run(ns(20))
        assert sim.now == ns(45)
        assert m.count > c1

    def test_stop(self):
        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.thread(self.tick)

            def tick(self):
                yield ns(5)
                sim.stop()
                yield ns(100)

        m = M()
        sim = Simulator(m)
        sim.run(ns(50))
        assert sim.now == ns(5)

    def test_stop_latches_until_reset(self):
        """run() after stop() must raise instead of silently resuming;
        reset() is the explicit escape hatch."""
        from repro.core import SimulationError

        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.count = 0
                self.thread(self.tick)

            def tick(self):
                while True:
                    yield ns(5)
                    self.count += 1
                    if self.count == 2:
                        sim.stop()

        m = M()
        sim = Simulator(m)
        sim.run(ns(100))
        assert sim.now == ns(10)
        assert sim.stopped
        with pytest.raises(SimulationError):
            sim.run(ns(100))
        assert m.count == 2  # nothing resumed behind our back
        sim.reset()
        assert not sim.stopped
        sim.run(ns(5))  # explicit resumption continues from t=10
        assert sim.now == ns(15)
        assert m.count == 3

    def test_simulator_not_picklable(self):
        import pickle

        from repro.core import SimulationError

        sim = Simulator(Module("m"))
        with pytest.raises(SimulationError):
            pickle.dumps(sim)

    def test_duplicate_child_names_rejected(self):
        from repro.core import ElaborationError

        top = Module("top")
        Module("a", parent=top)
        with pytest.raises(ElaborationError):
            Module("a", parent=top)

    def test_hierarchy_walk_and_find(self):
        top = Module("top")
        a = Module("a", parent=top)
        b = Module("b", parent=a)
        assert [m.name for m in top.walk()] == ["top", "a", "b"]
        assert top.find("a.b") is b
        assert b.full_name() == "top.a.b"
