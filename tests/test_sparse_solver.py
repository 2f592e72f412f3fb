"""Tests for the solver variants (dense LAPACK / sparse SuperLU /
exact-expm), the h-keyed factorization cache, switch-event
refactorization via ``rebind``, the batched AC sweep, and the solver
metrics surfaced through ``Simulator.metrics_snapshot``."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import Clock, Module, SimTime, Simulator
from repro.core.errors import SolverError
from repro.ct import ScipyIvpSolver
from repro.ct.ac import ac_sweep
from repro.ct.linear import (
    FACTOR_CACHE_SIZE,
    LinearDae,
    LinearStepper,
    ExpmStepper,
    SPARSE_AUTO_THRESHOLD,
    make_stepper,
)
from repro.eln import Capacitor, Isource, Network, Resistor, Switch, Vsource
from repro.lib import SineSource, TdfSink
from repro.sync import ElnTdfModule
from repro.tdf import TdfSignal


def us(x):
    return SimTime(x, "us")


def ladder(nodes, r=1e3, c=1e-9, waveform=0.0):
    """RC ladder driven by a Vsource at n1 (nodes + 1 MNA unknowns)."""
    net = Network("ladder")
    net.add(Vsource("Vin", "n1", "0", voltage=waveform))
    for k in range(1, nodes):
        net.add(Resistor(f"R{k}", f"n{k}", f"n{k + 1}", r))
        net.add(Capacitor(f"C{k}", f"n{k + 1}", "0", c))
    return net


def ode_ladder(nodes, r=1e3, c=1e-9, waveform=0.0):
    """Isource-driven ladder with a capacitor on every node: an
    invertible-C pure ODE the expm stepper accepts."""
    net = Network("ode_ladder")
    net.add(Isource("Iin", "n1", "0", current=waveform))
    net.add(Capacitor("C0", "n1", "0", c))
    net.add(Resistor("R0", "n1", "0", r))
    for k in range(1, nodes):
        net.add(Resistor(f"R{k}", f"n{k}", f"n{k + 1}", r))
        net.add(Capacitor(f"C{k}", f"n{k + 1}", "0", c))
    return net


# ---------------------------------------------------------------------------
# variant selection and dense/sparse equivalence


class TestVariantSelection:
    def test_auto_picks_dense_for_small_dense_systems(self):
        dae, _ = ladder(4).assemble()
        stepper = make_stepper(dae, 1e-6)
        assert isinstance(stepper, LinearStepper)
        assert stepper.variant == "dense"

    def test_auto_picks_sparse_for_sparse_assembly(self):
        dae, _ = ladder(4).assemble(sparse=True)
        assert dae.is_sparse
        stepper = make_stepper(dae, 1e-6)
        assert stepper.variant == "sparse"

    def test_auto_picks_sparse_above_threshold(self):
        n = SPARSE_AUTO_THRESHOLD
        dae = LinearDae(np.eye(n), np.eye(n), lambda t: np.zeros(n))
        assert make_stepper(dae, 1e-6).variant == "sparse"

    def test_expm_variant_builds_expm_stepper(self):
        dae, _ = ode_ladder(3).assemble()
        assert isinstance(make_stepper(dae, 1e-6, variant="expm"),
                          ExpmStepper)

    def test_unknown_variant_rejected(self):
        dae, _ = ladder(3).assemble()
        with pytest.raises(SolverError, match="unknown solver variant"):
            make_stepper(dae, 1e-6, variant="cholesky")

    def test_module_rejects_unknown_variant(self):
        from repro.core.errors import ElaborationError

        with pytest.raises(ElaborationError, match="solver_variant"):
            ElnTdfModule("m", ladder(3), solver_variant="bogus")


class TestDenseSparseEquivalence:
    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    def test_transient_states_match(self, method):
        h, steps = 1e-6, 400
        wave = lambda t: np.sin(2e4 * np.pi * t)  # noqa: E731
        dense_dae, _ = ladder(40, waveform=wave).assemble()
        sparse_dae, _ = ladder(40, waveform=wave).assemble(sparse=True)
        t_d, x_d = dense_dae.transient(steps * h, h, method=method)
        t_s, x_s = sparse_dae.transient(steps * h, h, method=method)
        np.testing.assert_array_equal(t_d, t_s)
        assert np.max(np.abs(x_d - x_s)) < 1e-9

    def test_dc_matches(self):
        dense_dae, _ = ladder(20, waveform=1.0).assemble()
        sparse_dae, _ = ladder(20, waveform=1.0).assemble(sparse=True)
        np.testing.assert_allclose(dense_dae.dc(), sparse_dae.dc(),
                                   atol=1e-12)

    def test_ac_matches(self):
        dense_dae, _ = ladder(20, waveform=1.0).assemble()
        sparse_dae, _ = ladder(20, waveform=1.0).assemble(sparse=True)
        freqs = np.logspace(2, 6, 7)
        b = np.zeros(dense_dae.n)
        b[0] = 1.0
        np.testing.assert_allclose(
            dense_dae.ac(freqs, b_ac=b), sparse_dae.ac(freqs, b_ac=b),
            atol=1e-12)


# ---------------------------------------------------------------------------
# exact-expm stepping


class TestExpmStepper:
    def test_exact_on_ramp_input(self):
        # x' + a x = beta * t  with  x(0) = 0  has the closed form
        # x(t) = (beta/a) t - beta/a^2 + (beta/a^2) exp(-a t); a ramp
        # is exactly first-order-hold, so expm stepping is exact at the
        # grid points up to roundoff.
        a, beta, h = 3.0e3, 2.0e3, 1e-5
        dae = LinearDae(np.eye(1), np.array([[a]]),
                        lambda t: np.array([beta * t]))
        stepper = make_stepper(dae, h, variant="expm")
        x = np.zeros(1)
        times = (1.0 + np.arange(200)) * h
        for t in times:
            x = stepper.step(x, t - h)
        exact = (beta / a) * times[-1] - beta / a ** 2 \
            + (beta / a ** 2) * np.exp(-a * times[-1])
        assert x[0] == pytest.approx(exact, rel=1e-10)

    def test_singular_c_rejected(self):
        dae, _ = ladder(3).assemble()  # Vsource branch row: C singular
        with pytest.raises(SolverError, match="invertible C"):
            make_stepper(dae, 1e-6, variant="expm")

    def test_matches_dense_for_small_steps(self):
        wave = lambda t: 1e-3 * np.sin(2e4 * np.pi * t)  # noqa: E731
        dae, _ = ode_ladder(6, waveform=wave).assemble()
        h, steps = 1e-8, 200
        expm_st = make_stepper(dae, h, variant="expm")
        dense_st = make_stepper(dae, h, variant="dense")
        x_e = x_d = np.zeros(dae.n)
        for k in range(steps):
            t = k * h
            x_e = expm_st.step(x_e, t)
            x_d = dense_st.step(x_d, t)
        # expm is exact; the trapezoidal comparison carries its own
        # O(h^2) truncation error.
        np.testing.assert_allclose(x_e, x_d, rtol=1e-3, atol=1e-15)

    def test_phi_cache_reuse(self):
        dae, _ = ode_ladder(4).assemble()
        stepper = make_stepper(dae, 1e-6, variant="expm")
        assert stepper.factorizations == 1
        stepper.set_timestep(2e-6)
        assert stepper.factorizations == 2
        stepper.set_timestep(1e-6)  # cached phi for this h
        assert stepper.factorizations == 2
        assert stepper.cache_hits == 1
        assert stepper.stats() == {"solver.factorizations": 2,
                                   "solver.refactorizations": 0,
                                   "solver.expm_cache_hits": 1}


# ---------------------------------------------------------------------------
# factorization reuse and the LRU cache


class TestFactorizationReuse:
    def test_repeated_h_factorizes_once(self):
        dae, _ = ladder(10).assemble()
        stepper = make_stepper(dae, 1e-6)
        x = np.zeros(dae.n)
        for k in range(500):
            x = stepper.step(x, k * 1e-6)
        assert stepper.factorizations == 1
        assert stepper.refactorizations == 0

    def test_alternating_h_hits_cache(self):
        dae, _ = ladder(10).assemble()
        stepper = make_stepper(dae, 1e-6)
        for h in [2e-6, 1e-6, 2e-6, 1e-6, 2e-6]:
            stepper.set_timestep(h)
        assert stepper.factorizations == 2  # one per distinct h
        assert stepper.cache_hits == 4

    def test_cache_is_bounded(self):
        dae, _ = ladder(10).assemble()
        stepper = make_stepper(dae, 1e-6)
        for k in range(2 * FACTOR_CACHE_SIZE):
            stepper.set_timestep((k + 1) * 1e-7)
        assert len(stepper._cache) <= FACTOR_CACHE_SIZE

    def test_invalidate_counts_refactorization(self):
        dae, _ = ladder(10).assemble()
        stepper = make_stepper(dae, 1e-6)
        stepper.invalidate()
        assert stepper.factorizations == 2
        assert stepper.refactorizations == 1


# ---------------------------------------------------------------------------
# scalar vs block equivalence at the simulator level


class LadderTop(Module):
    def __init__(self, variant):
        super().__init__("top")
        self.s_in = TdfSignal("s_in")
        self.s_out = TdfSignal("s_out")
        self.src = SineSource("src", 10e3, amplitude=1.0, parent=self,
                              timestep=us(1))
        self.line = ElnTdfModule("line", ladder(8), parent=self,
                                 solver_variant=variant)
        self.sink = TdfSink("sink", parent=self)
        self.src.out(self.s_in)
        self.line.drive_voltage("Vin")(self.s_in)
        self.line.sample_voltage("n8")(self.s_out)
        self.sink.inp(self.s_out)


class OdeLadderTop(Module):
    def __init__(self, variant):
        super().__init__("top")
        self.s_in = TdfSignal("s_in")
        self.s_out = TdfSignal("s_out")
        self.src = SineSource("src", 10e3, amplitude=1e-3, parent=self,
                              timestep=us(1))
        self.line = ElnTdfModule("line", ode_ladder(6), parent=self,
                                 solver_variant=variant)
        self.sink = TdfSink("sink", parent=self)
        self.src.out(self.s_in)
        self.line.drive_current("Iin")(self.s_in)
        self.line.sample_voltage("n6")(self.s_out)
        self.sink.inp(self.s_out)


def _run(builder, variant, block, duration=us(3000)):
    top = builder(variant)
    Simulator(top, tdf_block=block).run(duration)
    times, samples = top.sink.as_arrays()
    return np.asarray(times, float), np.asarray(samples, float)


class TestScalarBlockEquivalence:
    @pytest.mark.parametrize("variant", ["dense", "sparse"])
    def test_ladder_bit_identical(self, variant):
        t_ref, x_ref = _run(LadderTop, variant, block=False)
        t_blk, x_blk = _run(LadderTop, variant, block=True)
        np.testing.assert_array_equal(t_ref, t_blk)
        np.testing.assert_array_equal(x_ref, x_blk)

    def test_expm_bit_identical(self):
        t_ref, x_ref = _run(OdeLadderTop, "expm", block=False)
        t_blk, x_blk = _run(OdeLadderTop, "expm", block=True)
        np.testing.assert_array_equal(t_ref, t_blk)
        np.testing.assert_array_equal(x_ref, x_blk)

    def test_variants_agree_closely(self):
        _, x_dense = _run(OdeLadderTop, "dense", block=True)
        _, x_expm = _run(OdeLadderTop, "expm", block=True)
        # Different integration rules: close but not identical.
        np.testing.assert_allclose(x_dense, x_expm, atol=1e-3)


# ---------------------------------------------------------------------------
# checkpoint / restart across variants


class TestCheckpointAcrossVariants:
    @pytest.mark.parametrize("variant", ["dense", "sparse"])
    def test_same_variant_resume_bit_identical(self, variant):
        _, full = _run(LadderTop, variant, block=False)
        head_top = LadderTop(variant)
        head_sim = Simulator(head_top, tdf_block=False)
        head_sim.run(us(1500), checkpoint_every=us(1500))
        checkpoint = head_sim.checkpoint_manager.latest()
        tail_top = LadderTop(variant)
        tail_sim = Simulator(tail_top, tdf_block=False)
        tail_sim.restore_checkpoint(checkpoint.payload)
        tail_sim.run(us(1500))
        _, head = head_top.sink.as_arrays()
        _, tail = tail_top.sink.as_arrays()
        # The restored sink carries the pre-checkpoint record, so the
        # resumed run reproduces the uninterrupted record in full.
        np.testing.assert_array_equal(head, full[:len(head)])
        np.testing.assert_array_equal(tail, full)

    def test_cross_variant_resume_matches(self):
        # A dense-run checkpoint restored into a sparse-solver model:
        # the solver state is variant-independent, so the resumed
        # trajectory agrees to solver tolerance.
        _, full = _run(LadderTop, "dense", block=False)
        head_top = LadderTop("dense")
        head_sim = Simulator(head_top, tdf_block=False)
        head_sim.run(us(1500), checkpoint_every=us(1500))
        checkpoint = head_sim.checkpoint_manager.latest()
        tail_top = LadderTop("sparse")
        tail_sim = Simulator(tail_top, tdf_block=False)
        tail_sim.restore_checkpoint(checkpoint.payload)
        tail_sim.run(us(1500))
        _, head = head_top.sink.as_arrays()
        _, tail = tail_top.sink.as_arrays()
        # The restored sink carries the pre-checkpoint record, so the
        # resumed run reproduces the uninterrupted record in full.
        assert len(tail) == len(full)
        np.testing.assert_allclose(tail, full, atol=1e-9)


# ---------------------------------------------------------------------------
# switch events refactorize in place


class SwitchedTop(Module):
    def __init__(self, variant="auto"):
        super().__init__("top")
        self.s_in = TdfSignal("s_in")
        self.s_out = TdfSignal("s_out")
        self.clk = Clock("clk", period=SimTime(4, "ms"), duty_cycle=0.25,
                         parent=self, start_time=SimTime(1, "ms"))
        self.src = SineSource("src", 0.0, amplitude=0.0, offset=1.0,
                              parent=self, timestep=us(20))
        net = ladder(2, r=1e3, c=1e-7)
        net.add(Switch("S1", "n2", "0", closed=False,
                       r_on=1.0, r_off=1e12))
        self.rc = ElnTdfModule("rc", net, parent=self, oversample=4,
                               solver_variant=variant)
        self.sink = TdfSink("sink", parent=self)
        self.src.out(self.s_in)
        self.rc.drive_voltage("Vin")(self.s_in)
        self.rc.sample_voltage("n2")(self.s_out)
        self.rc.bind_switch("S1", self.clk.signal)
        self.sink.inp(self.s_out)


class TestSwitchRefactorization:
    @pytest.mark.parametrize("variant", ["dense", "sparse"])
    def test_toggle_refactorizes_without_rebuild(self, variant):
        top = SwitchedTop(variant)
        Simulator(top).run(SimTime(4, "ms"))
        assert top.rc.rebuild_count == 2  # close + reopen
        solver = top.rc._solver
        assert solver._stepper.refactorizations == 2
        _, v = top.sink.as_arrays()
        v = np.asarray(v, float)
        t = np.asarray(top.sink.as_arrays()[0], float)
        # Charged before the switch closes, collapsed while closed,
        # recharged after it reopens (behavioral continuity).
        assert v[np.searchsorted(t, 0.9e-3)] == pytest.approx(1.0,
                                                              abs=0.01)
        assert v[np.searchsorted(t, 1.9e-3)] == pytest.approx(0.0,
                                                              abs=0.01)
        assert v[-1] == pytest.approx(1.0, abs=0.01)

    def test_toggle_preserves_solver_object(self):
        top = SwitchedTop()
        sim = Simulator(top)
        sim.elaborate()
        sim.run(SimTime(0.5, "ms"))
        solver_before = top.rc._solver
        sim.run(SimTime(1, "ms"))  # crosses the 1 ms closing edge
        assert top.rc.rebuild_count == 1
        assert top.rc._solver is solver_before


# ---------------------------------------------------------------------------
# batched AC sweep


class TestAcSweep:
    def _system(self, n=5, seed=3):
        rng = np.random.default_rng(seed)
        G = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        C = np.eye(n) * 1e-6 + 1e-7 * rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        return C, G, b

    def test_matches_per_frequency_loop(self):
        C, G, b = self._system()
        freqs = np.logspace(1, 6, 9)
        batched = ac_sweep(C, G, b, freqs)
        for k, f in enumerate(freqs):
            ref = np.linalg.solve(G + 2j * np.pi * f * C, b)
            np.testing.assert_allclose(batched[k], ref, atol=1e-12)

    def test_multi_rhs_columns(self):
        C, G, b = self._system()
        cols = np.column_stack([b, 2.0 * b, np.roll(b, 1)])
        freqs = np.array([1e3, 1e5])
        out = ac_sweep(C, G, cols, freqs)
        assert out.shape == (2, 5, 3)
        for j in range(3):
            np.testing.assert_allclose(
                out[:, :, j], ac_sweep(C, G, cols[:, j], freqs),
                atol=1e-12)

    def test_sparse_matches_dense(self):
        C, G, b = self._system()
        freqs = np.logspace(1, 5, 5)
        np.testing.assert_allclose(
            ac_sweep(sp.csr_matrix(C), sp.csr_matrix(G), b, freqs),
            ac_sweep(C, G, b, freqs), atol=1e-10)

    def test_singular_frequency_named(self):
        # G = 0, C = I: singular exactly at f = 0.
        n = 3
        with pytest.raises(SolverError, match="AC sweep at f=0"):
            ac_sweep(np.eye(n), np.zeros((n, n)), np.ones(n),
                     np.array([0.0]))


# ---------------------------------------------------------------------------
# interop: escalation solver and resilience on sparse systems


class TestSparseInterop:
    def test_scipy_ivp_accepts_sparse_dae(self):
        wave = lambda t: 1e-3  # noqa: E731
        dae, _ = ode_ladder(4, waveform=wave).assemble(sparse=True)
        solver = ScipyIvpSolver(linear_system=dae)
        solver.initialize(0.0)
        x = solver.advance_to(1e-5)
        assert np.all(np.isfinite(x))

    def test_resilient_wrapper_on_sparse_primary(self):
        top = LadderTop("sparse")
        top.line.resilient = True
        Simulator(top, tdf_block=True).run(us(500))
        stats = top.line.stats()
        assert stats["resilience.tier.primary"] > 0
        _, x = top.sink.as_arrays()
        assert np.all(np.isfinite(np.asarray(x, float)))

    def test_resilient_matches_plain(self):
        _, plain = _run(LadderTop, "sparse", block=False, duration=us(500))
        top = LadderTop("sparse")
        top.line.resilient = True
        Simulator(top, tdf_block=False).run(us(500))
        _, resilient = top.sink.as_arrays()
        np.testing.assert_array_equal(np.asarray(resilient, float), plain)


# ---------------------------------------------------------------------------
# metrics


class TestSolverMetrics:
    def test_snapshot_exposes_factorization_counters(self):
        top = LadderTop("sparse")
        sim = Simulator(top, tdf_block=True)
        sim.run(us(2000))
        snap = sim.metrics_snapshot()
        assert snap["solver.steps"] >= 1999
        # ULP jitter in the sync times produces a handful of distinct h
        # values; the factor cache keeps the count far below the step
        # count (the pre-cache behavior was one factorization per step).
        assert 1 <= snap["solver.factorizations"] <= 4 * FACTOR_CACHE_SIZE
        assert snap["solver.factorizations"] < 0.05 * snap["solver.steps"]
        assert snap["solver.refactorizations"] == 0
        assert snap["solver.expm_cache_hits"] == 0
        assert snap["solver.factorizations[module=top.line]"] >= 1

    def test_snapshot_counts_switch_refactorizations(self):
        top = SwitchedTop()
        sim = Simulator(top)
        sim.run(SimTime(4, "ms"))
        snap = sim.metrics_snapshot()
        assert snap["solver.refactorizations"] == 2

    def test_snapshot_counts_expm_cache_hits(self):
        top = OdeLadderTop("expm")
        sim = Simulator(top, tdf_block=False)
        sim.run(us(200))
        snap = sim.metrics_snapshot()
        # One phi build, reused every subsequent step.
        assert snap["solver.factorizations[module=top.line]"] >= 1
        assert "solver.expm_cache_hits[module=top.line]" in snap
