"""Solver fallback chains: retry, shrink, escalate.

:class:`ResilientTransientSolver` wraps any
:class:`~repro.ct.solver_api.TransientSolver` and converts hard solver
failures inside a synchronization interval into a tiered recovery
ladder:

1. **primary** — the wrapped solver, as configured;
2. **halved** — the primary re-initialized from the last good state
   with its internal step halved (up to ``max_halvings`` times);
3. **bdf** — a stiff :class:`~repro.ct.solver_api.ScipyIvpSolver`
   (BDF) integrates the interval from the last good state; on success
   the result is adopted back into the primary so later intervals run
   at full speed again.

Which tier served each interval is counted in ``tier_counts`` and
reported by :meth:`~ResilientTransientSolver.stats` — recovery is
observable, not silent.  If every tier fails, the raised
:class:`~repro.core.errors.SolverError` carries a
:class:`~repro.resilience.health.DiagnosticReport` (failure time, last
good state, residual history, tiers attempted, underlying error chain)
instead of a bare message.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.errors import SolverError
from ..ct.linear import LinearDae
from ..ct.nonlinear import NonlinearSystem
from ..ct.solver_api import (
    LinearTransientSolver,
    NonlinearTransientSolver,
    ScipyIvpSolver,
    TransientSolver,
)
from .health import HealthMonitor, attach_diagnostic


class ResilientTransientSolver(TransientSolver):
    """Fault-tolerant wrapper around any :class:`TransientSolver`.

    Parameters
    ----------
    primary:
        The solver doing the work on the happy path.
    fallback:
        Optional explicit escalation solver; by default a BDF
        :class:`ScipyIvpSolver` is derived from the primary's system
        (linear DAEs with invertible ``C``, or nonlinear charge-form
        systems with invertible charge Jacobian).
    max_halvings:
        How many times the halved tier shrinks the primary's internal
        step before escalating.
    monitor:
        A :class:`~repro.resilience.health.HealthMonitor`; a fresh one
        is created when omitted.  It is also installed onto the primary
        (``primary.monitor``) so every *accepted internal step* is
        guarded, not just interval endpoints.  A linear primary that
        steps an activation as one operator (input holders and
        constants only) has no internal states: the monitor sees the
        activation's end state once.
    """

    #: Telemetry hub (:mod:`repro.observe`), installed by the embedding
    #: CtTdfModule; ``tier_counts`` and :meth:`stats` work with or
    #: without it.
    telemetry = None

    def __init__(self, primary: TransientSolver,
                 fallback: Optional[TransientSolver] = None,
                 max_halvings: int = 2,
                 monitor: Optional[HealthMonitor] = None,
                 bdf_method: str = "BDF",
                 bdf_rtol: float = 1e-8,
                 bdf_atol: float = 1e-10):
        self.primary = primary
        self.max_halvings = max(0, int(max_halvings))
        self.monitor = monitor if monitor is not None else HealthMonitor()
        self.bdf_method = bdf_method
        self.bdf_rtol = bdf_rtol
        self.bdf_atol = bdf_atol
        self.tier_counts = {"primary": 0, "halved": 0, "bdf": 0}
        self._fallback = fallback
        self._fallback_built = fallback is not None
        self._user_fallback = fallback
        self._t_good = 0.0
        self._x_good = np.asarray(primary.state, dtype=float).copy()
        if hasattr(primary, "monitor"):
            primary.monitor = self.monitor

    # -- TransientSolver contract -------------------------------------------

    def initialize(self, t0: float = 0.0, x0=None) -> np.ndarray:
        x = self.primary.initialize(t0, x0)
        self.monitor.check_state(x, t0, context="initialize")
        self._commit(t0, x)
        return x

    def snap_algebraic(self, h_reference: float) -> np.ndarray:
        """Delegate consistent re-initialization to the primary."""
        snap = getattr(self.primary, "snap_algebraic", None)
        if snap is None:
            return np.asarray(self.primary.state, dtype=float)
        x = snap(h_reference)
        self.monitor.check_state(x, self.primary.time,
                                 context="snap_algebraic")
        self._commit(self.primary.time, x)
        return x

    def advance_to(self, t: float) -> np.ndarray:
        failures: list[tuple[str, BaseException]] = []
        tiers_attempted: list[str] = []

        # Tier 1: the primary solver as configured.
        tiers_attempted.append("primary")
        try:
            x = self.primary.advance_to(t)
            self.monitor.check_state(x, t, context="primary tier")
            self._record("primary", t)
            self._commit(t, x)
            return x
        except SolverError as exc:
            failures.append(("primary", exc))

        # Tier 2: re-run the interval with a halved internal step (the
        # built-in solvers' step_limit; unknown plug-ins skip the tier).
        interval = t - self._t_good
        if interval > 0 and self.max_halvings > 0 and isinstance(
                self.primary,
                (LinearTransientSolver, NonlinearTransientSolver)):
            tiers_attempted.append("halved")
            for k in range(1, self.max_halvings + 1):
                try:
                    with self.primary.step_limit(interval / float(2 ** k)):
                        self._reinit_primary(self._t_good, self._x_good)
                        x = self.primary.advance_to(t)
                        self.monitor.check_state(
                            x, t, context=f"halved tier (step/{2 ** k})")
                    self._record("halved", t)
                    self._commit(t, x)
                    return x
                except SolverError as exc:
                    failures.append((f"halved/{2 ** k}", exc))

        # Tier 3: escalate to the stiff external integrator.
        fallback = self._get_fallback()
        if fallback is not None and interval > 0:
            tiers_attempted.append("bdf")
            try:
                fallback.initialize(self._t_good, self._x_good)
                x = fallback.advance_to(t)
                self.monitor.check_state(x, t, context="bdf tier")
                # Adopt the recovered state back into the primary so the
                # next interval retries the fast path.
                self._reinit_primary(t, x)
                self._record("bdf", t)
                self._commit(t, x)
                return x
            except SolverError as exc:
                failures.append(("bdf", exc))

        # Every tier failed: leave the primary consistent at the last
        # good state and raise an enriched, diagnosable error.
        try:
            self._reinit_primary(self._t_good, self._x_good)
        except SolverError:  # pragma: no cover - best effort only
            pass
        chain = [f"{tier}: {type(exc).__name__}: {exc}"
                 for tier, exc in failures]
        error = SolverError(
            f"all fallback tiers exhausted advancing "
            f"{self._t_good:.6e} -> {t:.6e} "
            f"({len(failures)} attempts; last: {chain[-1]})"
        )
        report = self.monitor.report(
            message=str(error),
            time=self._t_good,
            state=[float(v) for v in np.atleast_1d(self._x_good)],
        )
        report.tiers_attempted = tiers_attempted
        report.tier_counts = dict(self.tier_counts)
        report.error_chain = chain
        report.context["target_time"] = t
        if self.telemetry is not None:
            self.telemetry.metrics.counter("resilience.failures").inc()
            self.telemetry.tracer.instant(
                "solver.failure", track="resilience", t=t,
                tiers=",".join(tiers_attempted))
        raise attach_diagnostic(error, report)

    @property
    def time(self) -> float:
        return self.primary.time

    @property
    def state(self) -> np.ndarray:
        return self.primary.state

    def skip_to(self, t: float) -> None:
        """Move the primary to ``t`` with no step, and so no health
        check or tier record (a gated activation)."""
        self.primary.skip_to(t)
        self._t_good = t

    def note_system_change(self) -> None:
        """Tell the wrapper the primary's system was re-stamped in place
        (e.g. ``LinearTransientSolver.rebind`` after a switch event).

        The derived fallback solver caches matrices from the old system,
        so it is dropped and lazily rebuilt; the last-good state is
        refreshed from the primary (the pre-event trajectory is no
        longer a valid restart point for the new topology).
        """
        self._fallback = self._user_fallback
        self._fallback_built = self._user_fallback is not None
        self._t_good = float(self.primary.time)
        self._x_good = np.asarray(self.primary.state, dtype=float).copy()

    # -- observability ------------------------------------------------------

    def stats(self) -> dict:
        """The primary's stats plus the intervals each tier served
        (``resilience.tier.<tier>``) and the health guard's totals."""
        stats = self.primary.stats()
        for tier, count in self.tier_counts.items():
            stats[f"resilience.tier.{tier}"] = count
        stats["health.checked_steps"] = self.monitor.checked_steps
        stats["health.violations"] = self.monitor.violations
        return stats

    # -- checkpoint support -------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "primary": self.primary.state_dict(),
            "tier_counts": dict(self.tier_counts),
            "t_good": float(self._t_good),
            "x_good": np.asarray(self._x_good, dtype=float).tolist(),
        }

    def load_state_dict(self, data: dict) -> None:
        self.primary.load_state_dict(data["primary"])
        self.tier_counts = dict(data["tier_counts"])
        self._t_good = float(data["t_good"])
        self._x_good = np.asarray(data["x_good"], dtype=float)

    # -- internals ----------------------------------------------------------

    def _commit(self, t: float, x: np.ndarray) -> None:
        self._t_good = float(t)
        self._x_good = np.asarray(x, dtype=float).copy()

    def _record(self, tier: str, t: float) -> None:
        self.tier_counts[tier] += 1
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.metrics.counter("resilience.tier", tier=tier).inc()
            if tier != "primary":
                telemetry.tracer.instant(
                    "solver.tier_escalation", track="resilience",
                    tier=tier, t=t)

    def _reinit_primary(self, t: float, x: np.ndarray) -> None:
        self.primary.initialize(t, np.asarray(x, dtype=float).copy())

    def _get_fallback(self) -> Optional[TransientSolver]:
        if not self._fallback_built:
            self._fallback = self._auto_fallback()
            self._fallback_built = True
        return self._fallback

    def _auto_fallback(self) -> Optional[TransientSolver]:
        system = getattr(self.primary, "system", None)
        try:
            if isinstance(system, LinearDae):
                return ScipyIvpSolver(
                    linear_system=system, method=self.bdf_method,
                    rtol=self.bdf_rtol, atol=self.bdf_atol,
                )
            if isinstance(system, NonlinearSystem):
                return ScipyIvpSolver(
                    nonlinear_system=system, method=self.bdf_method,
                    rtol=self.bdf_rtol, atol=self.bdf_atol,
                )
            if isinstance(self.primary, ScipyIvpSolver):
                return ScipyIvpSolver(
                    rhs=self.primary.rhs, n=self.primary.n,
                    method=self.bdf_method,
                    rtol=self.bdf_rtol, atol=self.bdf_atol,
                )
        except SolverError:
            # E.g. a singular C matrix: the ODE escalation path does not
            # exist for this system; the chain ends at the halved tier.
            return None
        return None
