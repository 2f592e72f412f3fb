"""Additional coverage for core APIs: kernel introspection, port
varieties, event cancellation, hierarchy queries, time callbacks."""

import pytest

from repro.core import (
    BindingError,
    Event,
    InOutPort,
    InPort,
    Module,
    OutPort,
    Signal,
    SimTime,
    Simulator,
)


def ns(x):
    return SimTime(x, "ns")


class TestKernelIntrospection:
    def test_pending_activity_and_next_ticks(self):
        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.thread(self.proc)

            def proc(self):
                yield ns(100)
                yield ns(100)

        sim = Simulator(M())
        sim.run(ns(50))
        assert sim.kernel.pending_activity()
        assert sim.kernel.next_activity_ticks() == ns(100).ticks
        sim.run(ns(500))
        assert not sim.kernel.pending_activity()
        assert sim.kernel.next_activity_ticks() is None

    def test_time_callbacks_invoked(self):
        ticks_seen = []

        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.thread(self.proc)

            def proc(self):
                yield ns(10)
                yield ns(10)

        sim = Simulator(M())
        sim.elaborate()
        sim.kernel.add_time_callback(ticks_seen.append)
        sim.run(ns(50))
        assert ns(10).ticks in ticks_seen
        assert ns(20).ticks in ticks_seen

    def test_activation_count_advances(self):
        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.thread(self.proc)

            def proc(self):
                for _ in range(5):
                    yield ns(1)

        sim = Simulator(M())
        sim.run(ns(10))
        assert sim.kernel.activation_count >= 5


class TestPorts:
    def test_inout_port_read_write(self):
        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.sig = Signal("s", initial=1)
                self.io = InOutPort("io")
                self.io.bind(self.sig)
                self.seen = []
                self.thread(self.proc)

            def proc(self):
                self.seen.append(self.io.read())
                self.io.write(9)
                yield ns(1)
                self.seen.append(self.io.read())

        m = M()
        Simulator(m).run(ns(5))
        assert m.seen == [1, 9]

    def test_port_to_port_binding_chain(self):
        sig = Signal("s", initial=42)
        inner = InPort("inner")
        outer = InPort("outer")
        inner.bind(outer)
        outer.bind(sig)
        assert inner.resolve() is sig
        assert inner.read() == 42

    def test_binding_cycle_detected(self):
        a, b = InPort("a"), InPort("b")
        a.bind(b)
        b.bind(a)
        with pytest.raises(BindingError):
            a.resolve()

    def test_double_bind_rejected(self):
        p = OutPort("p")
        p.bind(Signal("s1"))
        with pytest.raises(BindingError):
            p.bind(Signal("s2"))

    def test_bad_bind_target(self):
        with pytest.raises(BindingError):
            InPort("p").bind(42)

    def test_unbound_read_raises(self):
        with pytest.raises(BindingError):
            InPort("p").read()

    def test_bound_property(self):
        p = InPort("p")
        assert not p.bound
        p.bind(Signal("s"))
        assert p.bound


class TestEvents:
    def test_cancel_timed_notification(self):
        fired = []

        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.ev = Event("e")
                self.method(lambda: fired.append(1),
                            sensitivity=[self.ev], dont_initialize=True)
                self.thread(self.proc)

            def proc(self):
                self.ev.notify(ns(100))
                yield ns(10)
                self.ev.cancel()
                yield ns(200)

        Simulator(M()).run(ns(400))
        assert fired == []

    def test_cancel_without_kernel_is_safe(self):
        ev = Event("lonely")
        ev.cancel()  # must not raise

    def test_notify_without_kernel_raises(self):
        from repro.core.kernel import Kernel

        old = Kernel._current
        Kernel._current = None
        try:
            with pytest.raises(RuntimeError):
                Event("e").notify()
        finally:
            Kernel._current = old


class TestHierarchy:
    def test_find_missing_raises_keyerror(self):
        top = Module("top")
        Module("a", parent=top)
        with pytest.raises(KeyError):
            top.find("a.nope")

    def test_ports_listing(self):
        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.a = InPort("a")
                self.b = OutPort("b")
                self.not_a_port = 42

        m = M()
        assert len(m.ports()) == 2

    def test_check_bindings_raises_for_unbound(self):
        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.a = InPort("a")

        with pytest.raises(BindingError):
            M().check_bindings()

    def test_duplicate_top_level_names_allowed(self):
        # Separate hierarchies may reuse names.
        a = Module("same")
        b = Module("same")
        assert a.full_name() == b.full_name()


class TestSimulatorEdgeCases:
    def test_elaborate_idempotent(self):
        class M(Module):
            def __init__(self):
                super().__init__("m")
                self.thread(self.proc)

            def proc(self):
                yield ns(1)

        sim = Simulator(M())
        sim.elaborate()
        sim.elaborate()  # no-op
        sim.run(ns(5))

    def test_run_with_no_processes(self):
        sim = Simulator(Module("empty"))
        end = sim.run(ns(100))
        # No activity: the kernel stops immediately (time unchanged).
        assert end.ticks in (0, ns(100).ticks)

    def test_elaboration_hook_order(self):
        calls = []

        class M(Module):
            def __init__(self, name, parent=None):
                super().__init__(name, parent)

            def end_of_elaboration(self):
                calls.append(("eoe", self.name))

            def start_of_simulation(self):
                calls.append(("sos", self.name))

        top = M("top")
        M("child", parent=top)
        Simulator(top).elaborate()
        assert calls == [("eoe", "top"), ("eoe", "child"),
                         ("sos", "top"), ("sos", "child")]
