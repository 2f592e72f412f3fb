"""Fault-injection tests for the resilience layer.

Each test injects a specific numerical failure — a singular iteration
matrix, a stiffness-driven step collapse, a Newton-hostile device, a
NaN-emitting source — and asserts the stack *recovers* through the
documented tier (halved step, BDF escalation, gmin/source homotopy) or
*fails diagnosably* (enriched errors, DiagnosticReport artifacts,
checkpoints), never silently.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.campaign import Campaign, CampaignRunner, FixedPoints
from repro.campaign.runner import RunTimeout, _deadline, classify_failure
from repro.core import Module, SimTime, Simulator
from repro.core.errors import (
    ConvergenceError,
    ElaborationError,
    SimulationError,
    SolverError,
)
from repro.ct.linear import LinearDae
from repro.ct.nonlinear import (
    NonlinearStepper,
    NonlinearSystem,
    dc_operating_point,
    newton,
)
from repro.ct.solver_api import (
    LinearTransientSolver,
    NonlinearTransientSolver,
    ScipyIvpSolver,
)
from repro.eln import Capacitor, Network, Resistor, Vsource
from repro.nonlin import Diode, NonlinearNetwork
from repro.resilience import (
    CheckpointManager,
    DiagnosticReport,
    HealthError,
    HealthMonitor,
    ResilientTransientSolver,
    continuation_solve,
    diagnostic_of,
    embedding_solve,
    gmin_stepping,
    source_stepping,
)
from repro.sync import ElnTdfModule
from repro.tdf import TdfIn, TdfModule, TdfOut, TdfSignal

H = 1e-3


def us(x):
    return SimTime(x, "us")


# ---------------------------------------------------------------------------
# fault-injection fixtures
# ---------------------------------------------------------------------------

def stiff_all_singular_dae():
    """Trapezoidal iteration matrix ``2C/h + G`` is singular at h, h/2
    AND h/4: with ``max_halvings=2`` the chain must escalate to BDF."""
    return LinearDae(np.eye(3), -np.diag([2 / H, 4 / H, 8 / H]))


def singular_at_h_dae():
    """Singular at h only: the halved tier recovers without BDF."""
    return LinearDae(np.eye(2), -np.diag([2 / H, 1 / H]))


class FlatExponential(NonlinearSystem):
    """f(v) = exp(40(v - 0.8)) - 1 from guess 0.

    The residual is flat (gradient ~ 40*exp(-32)) until v nears 0.8,
    then explodes: plain damped Newton overflows and cannot converge,
    while the gmin/source-stepping homotopy walks to the root at 0.8.
    """

    def __init__(self):
        super().__init__(1)

    def static(self, x, t):
        z = np.clip(40.0 * (x[0] - 0.8), -700.0, 700.0)
        return np.array([np.exp(z) - 1.0])

    def static_jacobian(self, x, t):
        z = np.clip(40.0 * (x[0] - 0.8), -700.0, 700.0)
        return np.array([[40.0 * np.exp(z)]])


class NanAfterSource(TdfModule):
    """Clean sine until ``t_nan``, NaN afterwards."""

    def __init__(self, name, parent=None, t_nan=2.5e-3):
        super().__init__(name, parent)
        self.out = TdfOut("out")
        self.t_nan = t_nan

    def set_attributes(self):
        self.set_timestep(us(10))

    def processing(self):
        t = self.local_time.to_seconds()
        value = np.nan if t >= self.t_nan else np.sin(2e3 * np.pi * t)
        self.out.write(value)


class SineSource(TdfModule):
    def __init__(self, name, parent=None):
        super().__init__(name, parent)
        self.out = TdfOut("out")

    def set_attributes(self):
        self.set_timestep(us(10))

    def processing(self):
        t = self.local_time.to_seconds()
        self.out.write(np.sin(2e3 * np.pi * t))


class Recorder(TdfModule):
    def __init__(self, name, parent=None):
        super().__init__(name, parent)
        self.inp = TdfIn("inp")
        self.samples = []

    def processing(self):
        self.samples.append(self.inp.read())

    def checkpoint_state(self):
        return {"samples": list(self.samples)}

    def restore_state(self, data):
        if data is not None:
            self.samples = list(data["samples"])


def rc_network():
    net = Network()
    net.add(Vsource("Vin", "in", "0"))
    net.add(Resistor("R1", "in", "out", 1e3))
    net.add(Capacitor("C1", "out", "0", 1e-6))
    return net


class RcTop(Module):
    def __init__(self, source_cls=SineSource, record=True, **eln_kwargs):
        super().__init__("top")
        self.s_in = TdfSignal("s_in")
        self.s_out = TdfSignal("s_out")
        self.src = source_cls("src", self)
        self.rc = ElnTdfModule("rc", rc_network(), parent=self,
                               **eln_kwargs)
        self.src.out(self.s_in)
        self.rc.drive_voltage("Vin")(self.s_in)
        self.rc.sample_voltage("out")(self.s_out)
        self.rec = Recorder("rec", self)
        self.rec.inp(self.s_out)


# campaign targets must be module-level (picklable / fork-resolvable)

def _build_elaboration_bomb(params):
    raise ElaborationError("broken hierarchy")


def _build_flaky(params):
    raise RuntimeError("transient infrastructure failure")


def _build_nan_rc(params):
    return Simulator(RcTop(source_cls=NanAfterSource, resilient=True))


def _nan_rc_metrics(top):
    return {"n": len(top.rec.samples)}


# ---------------------------------------------------------------------------
# fallback chains
# ---------------------------------------------------------------------------

class TestFallbackChain:
    def test_bdf_escalation_is_observable_and_accurate(self):
        solver = ResilientTransientSolver(
            LinearTransientSolver(stiff_all_singular_dae())
        )
        solver.initialize(0.0, np.ones(3))
        for k in range(1, 4):
            x = solver.advance_to(k * H)
        assert solver.tier_counts == {"primary": 0, "halved": 0, "bdf": 3}
        expected = np.exp(np.array([2.0, 4.0, 8.0]) * 3)
        np.testing.assert_allclose(x, expected, rtol=1e-4)
        stats = solver.stats()
        assert stats["resilience.tier.bdf"] == 3
        assert stats["resilience.tier.primary"] == 0

    def test_halved_tier_recovers_without_escalation(self):
        solver = ResilientTransientSolver(
            LinearTransientSolver(singular_at_h_dae())
        )
        solver.initialize(0.0, np.ones(2))
        solver.advance_to(H)
        solver.advance_to(2 * H)
        assert solver.tier_counts == {"primary": 0, "halved": 2, "bdf": 0}

    def test_healthy_system_stays_on_primary(self):
        dae = LinearDae(np.eye(1), np.array([[1.0]]))  # x' = -x
        solver = ResilientTransientSolver(LinearTransientSolver(dae))
        solver.initialize(0.0, np.array([1.0]))
        for k in range(1, 6):
            x = solver.advance_to(k * 0.1)
        assert solver.tier_counts == {"primary": 5, "halved": 0, "bdf": 0}
        assert x[0] == pytest.approx(np.exp(-0.5), rel=1e-2)
        stats = solver.stats()
        # the primary's counters come through the wrapper
        assert stats["solver.steps"] == 5
        assert stats["health.checked_steps"] >= 5
        assert stats["health.violations"] == 0

    def test_exhaustion_raises_with_diagnostic_report(self):
        # 1x1 all-zero system: singular at every step size, and the
        # singular C matrix means no ODE escalation path exists.
        dae = LinearDae(np.zeros((1, 1)), np.zeros((1, 1)))
        solver = ResilientTransientSolver(LinearTransientSolver(dae),
                                          max_halvings=1)
        solver.initialize(0.0, np.array([1.0]))
        with pytest.raises(SolverError) as excinfo:
            solver.advance_to(H)
        report = diagnostic_of(excinfo.value)
        assert isinstance(report, DiagnosticReport)
        assert report.tiers_attempted == ["primary", "halved"]
        assert len(report.error_chain) == 2
        assert report.context["target_time"] == H
        # the report serializes to valid JSON for artifact persistence
        parsed = json.loads(report.to_json())
        assert parsed["error_chain"] == report.error_chain
        # the wrapper stays consistent at the last good state
        assert solver.time == 0.0
        assert solver.state[0] == 1.0

    def test_nonlinear_primary_uses_h_max_for_halved_tier(self):
        # A healthy nonlinear system: verify halved-tier bookkeeping
        # does not corrupt the adaptive controller's configuration.
        class Decay(NonlinearSystem):
            def __init__(self):
                super().__init__(1)

            def charge(self, x):
                return x.copy()

            def charge_jacobian(self, x):
                return np.eye(1)

            def static(self, x, t):
                return x.copy()

            def static_jacobian(self, x, t):
                return np.eye(1)

        primary = NonlinearTransientSolver(Decay())
        solver = ResilientTransientSolver(primary)
        solver.initialize(0.0, np.array([1.0]))
        x = solver.advance_to(1.0)
        assert x[0] == pytest.approx(np.exp(-1.0), rel=1e-3)
        assert primary.h_max is None  # restored, not leaked
        assert solver.tier_counts["primary"] == 1

    def test_state_dict_roundtrip(self):
        solver = ResilientTransientSolver(
            LinearTransientSolver(singular_at_h_dae())
        )
        solver.initialize(0.0, np.ones(2))
        solver.advance_to(H)
        data = solver.state_dict()
        other = ResilientTransientSolver(
            LinearTransientSolver(singular_at_h_dae())
        )
        other.load_state_dict(data)
        assert other.time == solver.time
        np.testing.assert_array_equal(other.state, solver.state)
        assert other.tier_counts == solver.tier_counts


# ---------------------------------------------------------------------------
# convergence homotopy
# ---------------------------------------------------------------------------

class TestHomotopy:
    def test_plain_newton_fails_on_flat_exponential(self):
        system = FlatExponential()
        with pytest.raises(ConvergenceError) as excinfo:
            newton(lambda x: system.static(x, 0.0),
                   lambda x: system.static_jacobian(x, 0.0),
                   np.zeros(1))
        error = excinfo.value
        assert error.iterations is not None and error.iterations > 0
        assert error.residual_norm is not None
        assert len(error.residual_history) == error.iterations + 1

    def test_dc_operating_point_recovers_via_homotopy(self):
        x = dc_operating_point(FlatExponential())
        assert x[0] == pytest.approx(0.8, abs=1e-6)

    def test_source_stepping_alone_recovers(self):
        x = dc_operating_point(FlatExponential(), gmin_stepping=False)
        assert x[0] == pytest.approx(0.8, abs=1e-6)
        x2 = source_stepping(FlatExponential(), 0.0, np.zeros(1))
        assert x2[0] == pytest.approx(0.8, abs=1e-6)

    def test_gmin_stepping_alone_recovers(self):
        x = gmin_stepping(FlatExponential(), 0.0, np.zeros(1))
        assert x[0] == pytest.approx(0.8, abs=1e-6)

    def test_continuation_solve_reports_winning_rung(self):
        x, how = continuation_solve(FlatExponential(), 0.0, np.zeros(1))
        assert x[0] == pytest.approx(0.8, abs=1e-6)
        assert how in ("gmin", "source")

    def test_embedding_solve_exact_at_alpha_one(self):
        system = FlatExponential()
        x = embedding_solve(
            lambda v: system.static(v, 0.0),
            lambda v: system.static_jacobian(v, 0.0),
            np.zeros(1),
        )
        assert abs(system.static(x, 0.0)[0]) < 1e-8

    def test_mna_source_scale_protocol(self):
        net = NonlinearNetwork()
        net.add(Vsource("V1", "a", "0", 5.0))
        net.add(Resistor("R1", "a", "b", 1e3))
        net.add_device(Diode("D1", "b", "0"))
        system, _index = net.assemble_nonlinear()
        assert system.source_scale == 1.0
        x = np.zeros(system.n)
        full = system.static(x, 0.0)
        system.source_scale = 0.0
        off = system.static(x, 0.0)
        # scaling removes exactly the independent-source contribution
        assert np.linalg.norm(full - off) > 0
        system.source_scale = 1.0
        solved = dc_operating_point(system)
        assert system.source_scale == 1.0  # restored after homotopy
        # forward-biased diode drop around 0.6-0.8 V
        assert 0.4 < solved[1] < 0.9

    def test_stepper_homotopy_rescues_hostile_step(self):
        system = FlatExponential()
        plain = NonlinearStepper(system, "backward_euler")
        with pytest.raises(ConvergenceError) as excinfo:
            plain.step(np.zeros(1), 0.5, 1e-6)
        assert excinfo.value.time_point == 0.5
        rescued = NonlinearStepper(system, "backward_euler",
                                   homotopy=True)
        x1 = rescued.step(np.zeros(1), 0.5, 1e-6)
        assert x1[0] == pytest.approx(0.8, abs=1e-3)
        assert rescued.homotopy_steps == 1


# ---------------------------------------------------------------------------
# health guards
# ---------------------------------------------------------------------------

class TestHealthMonitor:
    def test_nan_state_raises_health_error_with_report(self):
        monitor = HealthMonitor()
        monitor.after_step(0.5e-3, np.array([1.0, 2.0]))
        with pytest.raises(HealthError) as excinfo:
            monitor.after_step(1e-3, np.array([1.0, np.nan]))
        report = diagnostic_of(excinfo.value)
        assert report is not None
        assert report.time == 1e-3
        assert monitor.violations == 1
        assert monitor.checked_steps == 2

    def test_overflow_limit(self):
        monitor = HealthMonitor(overflow_limit=1e6)
        monitor.after_step(0.0, np.array([1e5]))
        with pytest.raises(HealthError):
            monitor.after_step(1.0, np.array([1e7]))

    def test_condition_estimate_flags_singular_matrix(self):
        monitor = HealthMonitor()
        assert np.isinf(monitor.estimate_condition(np.zeros((2, 2))))
        assert monitor.estimate_condition(np.eye(2)) == \
            pytest.approx(1.0)

    def test_nan_source_in_cluster_fails_diagnosably(self):
        simulator = Simulator(
            RcTop(source_cls=NanAfterSource, resilient=True)
        )
        with pytest.raises(SolverError) as excinfo:
            simulator.run(SimTime(5, "ms"))
        report = diagnostic_of(excinfo.value)
        assert report is not None
        assert "primary" in report.tiers_attempted
        assert any("non-finite" in entry
                   for entry in report.error_chain)

    def test_resilient_module_exposes_metrics(self):
        top = RcTop(resilient=True)
        Simulator(top).run(SimTime(2, "ms"))
        stats = top.rc.stats()
        assert stats["resilience.tier.primary"] > 0
        assert stats["health.violations"] == 0
        # resilient wrapping does not change the trajectory
        reference = RcTop(resilient=False)
        Simulator(reference).run(SimTime(2, "ms"))
        np.testing.assert_array_equal(top.rec.samples,
                                      reference.rec.samples)


# ---------------------------------------------------------------------------
# checkpoint / restart
# ---------------------------------------------------------------------------

class TestCheckpoint:
    def test_manager_prunes_to_keep_last(self):
        manager = CheckpointManager(keep_last=2)
        for k in range(5):
            manager.save({"k": k}, float(k))
        assert len(manager) == 2
        assert manager.latest().payload == {"k": 4}
        assert manager.latest().index == 5

    def test_manager_directory_roundtrip(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt", keep_last=2)
        for k in range(4):
            manager.save({"k": k}, float(k))
        files = sorted((tmp_path / "ckpt").glob("checkpoint_*.pkl"))
        assert len(files) == 2  # pruned on disk too
        # a fresh manager (fresh process) finds the newest snapshot
        revived = CheckpointManager(tmp_path / "ckpt")
        latest = revived.latest_on_disk()
        assert latest.payload == {"k": 3}
        assert latest.time_seconds == 3.0

    def test_bit_identical_resume(self):
        reference_top = RcTop()
        Simulator(reference_top).run(SimTime(4, "ms"))
        reference = np.array(reference_top.rec.samples)

        # run half-way with checkpoints, as if the process then died
        first_top = RcTop()
        first = Simulator(first_top)
        first.run(SimTime(2, "ms"), checkpoint_every=SimTime(1, "ms"))
        checkpoint = first.checkpoint_manager.latest()
        assert checkpoint.time_seconds == pytest.approx(2e-3)
        head = np.array(first_top.rec.samples)

        # resume in a freshly built simulator
        resumed_top = RcTop()
        resumed = Simulator(resumed_top)
        now = resumed.restore_checkpoint(checkpoint.payload)
        assert now.to_seconds() == pytest.approx(2e-3)
        resumed.run(SimTime(2, "ms"))
        tail = np.array(resumed_top.rec.samples)

        # The restored sink carries the pre-checkpoint record, so the
        # resumed run reproduces the uninterrupted record in full.
        np.testing.assert_array_equal(head, reference[:len(head)])
        np.testing.assert_array_equal(tail, reference)

    def test_resume_from_disk_checkpoint(self, tmp_path):
        top = RcTop()
        simulator = Simulator(top)
        simulator.run(
            SimTime(2, "ms"), checkpoint_every=SimTime(1, "ms"),
            checkpoint_manager=CheckpointManager(tmp_path / "ckpt"),
        )
        # "fresh process": reload purely from the checkpoint file
        revived = CheckpointManager(tmp_path / "ckpt").latest_on_disk()
        resumed_top = RcTop()
        resumed = Simulator(resumed_top)
        resumed.restore_checkpoint(revived.payload)
        resumed.run(SimTime(1, "ms"))
        # 201 restored pre-checkpoint samples + 100 new ones: the
        # recorder's record survives the process boundary.
        assert len(resumed_top.rec.samples) == 301

    def test_restore_requires_fresh_simulator(self):
        top = RcTop()
        simulator = Simulator(top)
        simulator.run(SimTime(1, "ms"))
        payload = simulator.capture_checkpoint()
        with pytest.raises(SimulationError):
            simulator.restore_checkpoint(payload)

    def test_checkpoint_every_requires_duration(self):
        simulator = Simulator(RcTop())
        with pytest.raises(SimulationError):
            simulator.run(checkpoint_every=SimTime(1, "ms"))


# ---------------------------------------------------------------------------
# campaign failure classification & artifacts
# ---------------------------------------------------------------------------

class TestCampaignResilience:
    def test_classify_failure(self):
        assert classify_failure(ElaborationError("x")) == "permanent"
        assert classify_failure(TypeError("x")) == "permanent"
        assert classify_failure(RuntimeError("x")) == "retryable"
        assert classify_failure(SolverError("x")) == "retryable"
        assert classify_failure(RunTimeout("x")) == "retryable"

    def test_permanent_failure_fails_fast(self, tmp_path):
        campaign = Campaign(name="broken", space=FixedPoints([{}]),
                            build=_build_elaboration_bomb,
                            duration=SimTime(1, "ms"), seed_key=None)
        runner = CampaignRunner(campaign, use_cache=False,
                                out_dir=tmp_path)
        results = runner.run()
        record = results[0]
        assert record.status == "failed"
        assert record.failure_kind == "permanent"
        assert record.attempts == 1  # not retried
        assert runner.stats["retried"] == 0

    def test_retryable_failure_still_retried_once(self, tmp_path):
        campaign = Campaign(name="flaky", space=FixedPoints([{}]),
                            build=_build_flaky,
                            duration=SimTime(1, "ms"), seed_key=None)
        runner = CampaignRunner(campaign, use_cache=False)
        results = runner.run()
        record = results[0]
        assert record.failure_kind == "retryable"
        assert record.attempts == 2
        assert runner.stats["retried"] == 1

    def test_failed_point_persists_diagnostic_and_checkpoint(
            self, tmp_path):
        campaign = Campaign(name="nan-rc", space=FixedPoints([{}]),
                            build=_build_nan_rc,
                            duration=SimTime(5, "ms"),
                            metrics=_nan_rc_metrics, seed_key=None)
        runner = CampaignRunner(campaign, use_cache=False,
                                out_dir=tmp_path,
                                checkpoint_every=SimTime(1, "ms"))
        results = runner.run()
        record = results[0]
        assert record.status == "failed"
        assert record.failure_kind == "retryable"

        diagnostic_path = tmp_path / "failures" / \
            "run_00000.diagnostic.json"
        checkpoint_path = tmp_path / "failures" / \
            "run_00000.checkpoint.pkl"
        assert diagnostic_path.is_file()
        assert checkpoint_path.is_file()
        diagnostic = json.loads(diagnostic_path.read_text())
        assert diagnostic["failure_kind"] == "retryable"
        assert "tiers_attempted" in diagnostic

        # the persisted checkpoint restarts the failed point
        from repro.resilience.checkpoint import Checkpoint

        checkpoint = Checkpoint.from_bytes(checkpoint_path.read_bytes())
        assert checkpoint.time_seconds == pytest.approx(2e-3)
        resumed = _build_nan_rc({})
        resumed.restore_checkpoint(checkpoint.payload)
        resumed.run(SimTime(0.4, "ms"))  # still before the NaN onset
        assert resumed.now.to_seconds() == pytest.approx(2.4e-3)

        # failure_kind survives the JSONL round-trip
        from repro.campaign.records import CampaignResults

        reloaded = CampaignResults.read_jsonl(tmp_path / "records.jsonl")
        assert reloaded[0].failure_kind == "retryable"

    def test_deadline_is_noop_off_main_thread(self):
        outcome = {}

        def worker():
            try:
                with _deadline(0.01):
                    time.sleep(0.05)
                outcome["ok"] = True
            except BaseException as exc:  # pragma: no cover
                outcome["error"] = exc

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert outcome == {"ok": True}


# ---------------------------------------------------------------------------
# enriched errors
# ---------------------------------------------------------------------------

class TestEnrichedErrors:
    def test_convergence_error_carries_context(self):
        error = ConvergenceError("diverged", iterations=7,
                                 residual_norm=1.5e-2, time_point=1e-3)
        assert error.iterations == 7
        assert error.residual_norm == pytest.approx(1.5e-2)
        assert error.time_point == 1e-3
        message = str(error)
        assert "iterations=7" in message
        assert "t=" in message

    def test_dc_failure_reports_ladder(self):
        class Hopeless(NonlinearSystem):
            """f(x) = 1 + x^2: no real root anywhere on the ladder."""

            def __init__(self):
                super().__init__(1)

            def static(self, x, t):
                return np.array([1.0 + x[0] ** 2])

            def static_jacobian(self, x, t):
                return np.array([[2.0 * x[0]]])

        with pytest.raises(ConvergenceError) as excinfo:
            dc_operating_point(Hopeless())
        assert "ladder exhausted" in str(excinfo.value)

    def test_scipy_adapter_normalizes_value_errors(self):
        solver = ScipyIvpSolver(
            rhs=lambda t, x: np.full_like(x, np.nan), n=1)
        solver.initialize(0.0, np.array([1.0]))
        with pytest.raises(SolverError):
            solver.advance_to(1.0)
