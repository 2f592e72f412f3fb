"""The solver plug-in interface.

The paper requires SystemC-AMS to "support the coupling with existing
continuous-time simulators": an open architecture in which mature solvers
can be plugged in and synchronized with the discrete-time MoCs.  The
:class:`TransientSolver` protocol below is that architecture's contract —
the synchronization layer drives *any* implementation purely through
``initialize`` / ``advance_to``.  Three implementations are provided:

* :class:`LinearTransientSolver` — the built-in fixed-step linear engine;
* :class:`NonlinearTransientSolver` — the built-in adaptive Newton engine;
* :class:`ScipyIvpSolver` — an adapter around ``scipy.integrate.solve_ivp``
  standing in for an external, mature simulator.
"""

from __future__ import annotations

import abc
import contextlib
import math
import warnings
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import lu_factor, lu_solve

from ..core.errors import SolverError
from ..core.time import FEMTO
from .linear import (
    LinearDae,
    backward_euler_step,
    check_step_size,
    make_stepper,
)
from .nonlinear import (
    NonlinearStepper,
    NonlinearSystem,
    dc_operating_point,
)

_EPS = float(np.finfo(float).eps)


class TransientSolver(abc.ABC):
    """Contract every pluggable continuous-time solver fulfils."""

    #: optional :class:`~repro.resilience.health.HealthMonitor`; when
    #: installed, cooperating solvers report every accepted step (an
    #: activation the linear solver steps as one operator, once).
    monitor = None

    @abc.abstractmethod
    def initialize(self, t0: float = 0.0,
                   x0: Optional[np.ndarray] = None) -> np.ndarray:
        """Compute/accept the consistent initial state; returns it."""

    @abc.abstractmethod
    def advance_to(self, t: float) -> np.ndarray:
        """Advance the internal state to time ``t`` and return it."""

    @property
    @abc.abstractmethod
    def time(self) -> float:
        """Current solver time."""

    @property
    @abc.abstractmethod
    def state(self) -> np.ndarray:
        """Current solver state vector."""

    def skip_to(self, t: float) -> None:
        """Move to time ``t`` keeping the current state, with no step
        (an activation that gating skips).  The default re-initializes
        at ``t`` from the current state."""
        self.initialize(t, self.state)

    def stats(self) -> dict:
        """Effort counters under their ``metrics_snapshot`` names, e.g.
        ``{"solver.steps": 120}``; a fresh dict the caller may keep.

        The embedding module reports them and
        :meth:`~repro.core.Simulator.metrics_snapshot` folds them into
        per-module keys and totals.  A solver with nothing to count
        keeps this default.
        """
        return {}

    # -- checkpoint support (see repro.resilience.checkpoint) ---------------

    def state_dict(self) -> dict:
        """Picklable snapshot of the solver's resumable state."""
        return {
            "t": float(self.time),
            "x": np.asarray(self.state, dtype=float).tolist(),
        }

    def load_state_dict(self, data: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.initialize(float(data["t"]),
                        np.asarray(data["x"], dtype=float))


def check_target_time(t: float) -> float:
    """Return ``t`` if a solver can advance to it (finite), else raise
    :class:`SolverError` before any time or state changes."""
    if not math.isfinite(t):
        raise SolverError(f"cannot advance to a non-finite time {t}")
    return t


def substep_counts(t_prev: float, t: float, h_internal: float) -> int:
    """Internal steps a fixed-step solver takes from ``t_prev`` to ``t``:
    the fewest equal steps no longer than ``h_internal``.

    ``t - t_prev`` carries the rounding of the absolute times, up to
    one unit in the last place of the larger.  That error grows with
    simulated time while the interval does not, so a fixed relative
    slack (1e-12) stops covering it late in a run and an exact multiple
    of ``h_internal`` would take one step too many.  The slack therefore
    adds at least four ULPs of the larger absolute time on top of the
    1e-12.
    """
    interval = t - t_prev
    # eps * |x| bounds the ULP of x from above
    slack = 1e-12 + 4.0 * _EPS * (abs(t) + abs(t_prev)) / h_internal
    return max(math.ceil(interval / h_internal - slack), 1)


def tick_interval(t_prev: float, t: float) -> float:
    """The interval from ``t_prev`` to ``t``, exact on the tick grid.

    Activation instants are integer ticks scaled to seconds, so
    ``t - t_prev`` jitters at ULP level from one nominal timestep to
    the next, and so would every step size divided from it.  An
    interval within four ULPs of the absolute times (the
    :func:`substep_counts` bound) of a whole number of ticks is
    returned as exactly ``ticks * FEMTO``; any other interval, such as
    a standalone 1/3 us, unchanged.
    """
    interval = t - t_prev
    bound = 4.0 * _EPS * (abs(t) + abs(t_prev))
    ticks = round(interval / FEMTO)
    snapped = ticks * FEMTO
    if ticks >= 1 and abs(interval - snapped) <= bound:
        return snapped
    return interval


class _HeldInputs(NamedTuple):
    """The input holders :meth:`LinearTransientSolver.hold_inputs`
    bound, and the layout of an activation's input vector: the
    previous samples of the ``previous`` interpolating holders, every
    holder's current sample, then 1 when ``constant``; ``width``
    entries in all."""

    holders: tuple
    interpolating: tuple
    constant: bool
    previous: int
    width: int


class HeldWindow:
    """A window of activations, each stepped from its input vector
    (:meth:`LinearTransientSolver.held_window`): the activations end at
    ``times``, each takes ``substeps`` internal steps of size ``h``, and
    ``inputs[a]`` is activation ``a``'s input vector.  Its length is
    its count of internal steps.
    """

    __slots__ = ("times", "h", "substeps", "inputs")

    def __init__(self, times: np.ndarray, h: float, substeps: int,
                 inputs: np.ndarray):
        self.times = times
        self.h = h
        self.substeps = substeps
        self.inputs = inputs

    def __len__(self) -> int:
        return len(self.times) * self.substeps


class LinearTransientSolver(TransientSolver):
    """Built-in fixed-step solver for :class:`LinearDae` systems.

    ``advance_to`` divides the requested interval (tick-exact, see
    :func:`tick_interval`) into an integer number of internal steps no
    larger than ``h_internal`` (defaulting to the sync interval itself;
    see :func:`substep_counts`).  With input holders bound
    (:meth:`hold_inputs`), an activation takes those steps through one
    cached operator, its sources read from its input vector.
    """

    def __init__(self, system: LinearDae,
                 h_internal: Optional[float] = None,
                 method: str = "trapezoidal",
                 variant: str = "auto"):
        if h_internal is not None:
            check_step_size(h_internal, "h_internal")
        self.system = system
        self.method = method
        self.variant = variant
        self.h_internal = h_internal
        self._stepper = None
        self._t = 0.0
        self._x = np.zeros(system.n)
        self.step_count = 0
        #: the holders :meth:`hold_inputs` bound, else None
        self._held: Optional[_HeldInputs] = None

    def rebind(self, system: LinearDae) -> None:
        """Adopt a re-assembled system (same unknown layout, new matrix
        values) without losing solver time/state — the cheap path for
        switch/topology events.  The stepper refactorizes once."""
        self.system = system
        if self._stepper is not None:
            self._stepper.rebind(system)

    def initialize(self, t0: float = 0.0, x0=None) -> np.ndarray:
        self._t = t0
        self._x = self.system.dc() if x0 is None \
            else np.asarray(x0, dtype=float)
        return self._x

    def snap_algebraic(self, h_reference: float) -> np.ndarray:
        """Consistent (re)initialization after an input discontinuity.

        Differential states must be continuous, but algebraic unknowns
        jump when a source or the topology changes discontinuously.  One
        backward-Euler step of vanishing size (``h_reference * 1e-9``)
        pins the differential states (the C/h term dominates) while the
        algebraic rows re-solve against the current source values.
        """
        h_tiny = h_reference * 1e-9
        self._x = backward_euler_step(self.system, self._x,
                                      self._t - h_tiny, h_tiny)
        return self._x

    def hold_inputs(self, holders: Sequence) -> bool:
        """Bind the input holders some source rows read, by input slot:
        :class:`~repro.sync.InputHolder` objects, read through their
        ``interpolate`` flag, ``value`` and ``state()``, ``(value,
        previous, t_prev, t_now)``.  True when they are bound.

        They are bound when every source row reads one of ``holders``
        or a constant.  An activation whose holders were all last
        pushed over exactly (solver time, target) then takes its
        internal steps through one cached operator, whatever the
        stepper (:meth:`~repro.ct.linear.LinearStepper.step_held`), and
        a block of them is one :meth:`held_window`.  Its input vector
        holds each interpolating holder's previous sample, every
        holder's current one, and 1 when a row is constant.  Other
        activations step their sources per internal step.
        """
        self._held = None
        rows = getattr(self.system.source, "rows", None)
        if rows is None:
            return False
        holders = tuple(holders)
        bound = {id(holder) for holder in holders}
        constant = False
        for _row, waveform, _scale in rows:
            if id(waveform) in bound:
                continue
            if callable(waveform):
                return False
            constant = True
        interpolating = tuple(bool(holder.interpolate) for holder in holders)
        previous = sum(interpolating)
        self._held = _HeldInputs(holders, interpolating, constant, previous,
                                 previous + len(holders) + constant)
        return True

    def _drive(self) -> tuple:
        """``(at_start, slope)`` of the bound holders' input vector in
        the current system's source rows (see
        :meth:`~repro.ct.linear.LinearStepper.step_held`)."""
        held = self._held
        previous = [slot for slot, flag in enumerate(held.interpolating)
                    if flag]
        slots = {id(holder): slot for slot, holder in enumerate(held.holders)}
        shape = (self.system.n, held.width)
        at_start, slope = np.zeros(shape), np.zeros(shape)
        for row, waveform, scale in self.system.source.rows:
            slot = slots.get(id(waveform))
            if slot is None:
                at_start[row, -1] += scale * waveform
                continue
            current = held.previous + slot
            if held.interpolating[slot]:
                # previous + f * (value - previous)
                at_start[row, previous.index(slot)] += scale
                slope[row, previous.index(slot)] -= scale
                slope[row, current] += scale
            else:
                at_start[row, current] += scale
        return at_start, slope

    def _substeps(self, t_prev, t) -> int:
        if self.h_internal is None:
            return 1
        return substep_counts(t_prev, t, self.h_internal)

    def _set_step(self, h: float) -> None:
        if self._stepper is None:
            self._stepper = make_stepper(self.system, h, self.method,
                                         self.variant)
        else:
            self._stepper.set_timestep(h)

    def _held_inputs(self, t: float) -> Optional[list]:
        """The bound holders' input vector for the activation to ``t``,
        or None unless each was last pushed over (solver time, ``t``)."""
        held = self._held
        previous, current = [], []
        for holder, interpolate in zip(held.holders, held.interpolating):
            value, before, t_prev, t_now = holder.state()
            if t_prev != self._t or t_now != t:
                return None
            if interpolate:
                previous += before,  # no call, unlike append
            current += value,
        return previous + current + [1.0] * held.constant

    def advance_to(self, t: float) -> np.ndarray:
        interval = check_target_time(t) - self._t
        if interval < 0:
            raise SolverError("cannot advance a transient solver backwards")
        if interval == 0:
            return self._x
        substeps = self._substeps(self._t, t)
        self._set_step(tick_interval(self._t, t) / substeps)
        inputs = None if self._held is None else self._held_inputs(t)
        if inputs is not None:
            x = self._stepper.step_held(self._x, substeps,
                                        np.array([inputs]), (t,),
                                        self._drive)[0]
            self.step_count += substeps
            if self.monitor is not None:
                self.monitor.after_step(t, x)
        else:
            x, h = self._x, self._stepper.h
            for k in range(substeps):
                x = self._stepper.step(x, self._t + k * h)
                self.step_count += 1
                if self.monitor is not None:
                    self.monitor.after_step(self._t + (k + 1) * h, x)
        self._t = t
        self._x = x
        return x

    def held_window(self, times: np.ndarray,
                    columns: Sequence[np.ndarray]) -> Optional[HeldWindow]:
        """The activations at ``times`` as a :class:`HeldWindow`, the
        bound holders' samples in ``columns`` (by input slot) pushed
        one per activation; :meth:`advance_window` then steps each as
        :meth:`advance_to` would after its push.

        None without bound holders (:meth:`hold_inputs`), or when the
        first activation does not follow the solver time.  ``times``
        are a TDF module's activation instants, evenly spaced ticks, so
        each later interval is the first one's, in ticks and substeps
        alike; only the first is computed (O(1) per window).
        """
        held = self._held
        if held is None or not times[0] > self._t:
            return None
        substeps = self._substeps(self._t, times[0])
        inputs = np.empty((len(times), held.width))
        previous, current = 0, held.previous
        for holder, interpolate, column in zip(held.holders,
                                               held.interpolating, columns):
            if interpolate:
                inputs[0, previous] = holder.value
                inputs[1:, previous] = column[:-1]
                previous += 1
            inputs[:, current] = column
            current += 1
        if held.constant:
            inputs[:, -1] = 1.0
        return HeldWindow(times, tick_interval(self._t, times[0]) / substeps,
                          substeps, inputs)

    def advance_window(self, window: HeldWindow) -> np.ndarray:
        """Advance through a :class:`HeldWindow` (:meth:`held_window`),
        the TDF block fast path: each activation stepped from its input
        vector, bit-identical to :meth:`advance_to` after each
        activation's push.  Returns each activation's state, shape
        ``(len(window.times), n)``.
        """
        times = window.times
        self._set_step(window.h)
        states = self._stepper.step_held(self._x, window.substeps,
                                         window.inputs, times, self._drive)
        self.step_count += len(times) * window.substeps
        self._t = float(times[-1])
        self._x = states[-1].copy()
        return states

    @property
    def time(self) -> float:
        return self._t

    @property
    def state(self) -> np.ndarray:
        return self._x

    @contextlib.contextmanager
    def step_limit(self, h: float):
        """Step at most ``h`` inside the ``with`` block."""
        saved = self.h_internal
        self.h_internal = h
        try:
            yield
        finally:
            self.h_internal = saved

    def stats(self) -> dict:
        stats = {"solver.steps": self.step_count}
        if self._stepper is not None:
            stats.update(self._stepper.stats())
        return stats

    def state_dict(self) -> dict:
        data = super().state_dict()
        data["step_count"] = self.step_count
        return data

    def load_state_dict(self, data: dict) -> None:
        super().load_state_dict(data)
        self.step_count = int(data.get("step_count", 0))


class NonlinearTransientSolver(TransientSolver):
    """Built-in adaptive solver for :class:`NonlinearSystem` systems.

    Between synchronization points it takes variable internal steps with
    the embedded BE/TRAP error estimate, always landing exactly on the
    requested time (lockstep synchronization without backtracking).
    """

    def __init__(
        self,
        system: NonlinearSystem,
        abstol: float = 1e-8,
        reltol: float = 1e-5,
        h_min_fraction: float = 1e-12,
        h_max: Optional[float] = None,
    ):
        self.system = system
        self.abstol = abstol
        self.reltol = reltol
        self.h_min_fraction = h_min_fraction
        self.h_max = h_max
        self._be = NonlinearStepper(system, "backward_euler")
        self._trap = NonlinearStepper(system, "trapezoidal")
        self._t = 0.0
        self._x = np.zeros(system.n)
        self._h = None
        self.step_count = 0
        self.rejected_count = 0

    def initialize(self, t0: float = 0.0, x0=None) -> np.ndarray:
        self._t = t0
        self._x = dc_operating_point(self.system, t0) if x0 is None \
            else np.asarray(x0, dtype=float)
        return self._x

    def snap_algebraic(self, h_reference: float) -> np.ndarray:
        """Consistent re-initialization after an input discontinuity
        (see :meth:`LinearTransientSolver.snap_algebraic`)."""
        h_tiny = h_reference * 1e-9
        self._x = NonlinearStepper(self.system, "backward_euler").step(
            self._x, self._t - h_tiny, h_tiny
        )
        return self._x

    def advance_to(self, t: float) -> np.ndarray:
        from ..core.errors import ConvergenceError

        span = check_target_time(t) - self._t
        if span < 0:
            raise SolverError("cannot advance a transient solver backwards")
        if span == 0:
            return self._x
        if self._h is None:
            self._h = span / 8.0
        h_min = span * self.h_min_fraction
        consecutive_rejects = 0
        while self._t < t - 1e-15 * max(abs(t), 1.0):
            h = min(self._h, t - self._t)
            if self.h_max is not None:
                h = min(h, self.h_max)
            try:
                x_be = self._be.step(self._x, self._t, h)
                x_tr = self._trap.step(self._x, self._t, h)
            except ConvergenceError as exc:
                self._h = h * 0.25
                self.rejected_count += 1
                if self._h < h_min:
                    underflow = SolverError(
                        f"timestep underflow at t={self._t:.6e} "
                        f"(h={self._h:.3e}): {exc}"
                    )
                    underflow.time_point = self._t
                    raise underflow from exc
                continue
            scale = self.abstol + self.reltol * np.maximum(
                np.abs(x_tr), np.abs(self._x)
            )
            error = float(np.max(np.abs(x_tr - x_be) / scale))
            if error <= 1.0:
                self._t += h
                self._x = x_tr
                self.step_count += 1
                consecutive_rejects = 0
                if self.monitor is not None:
                    self.monitor.record_residual(error)
                    self.monitor.after_step(self._t, self._x)
            else:
                self.rejected_count += 1
                consecutive_rejects += 1
                if consecutive_rejects > 60:
                    stalled = SolverError(
                        f"step controller stalled at t={self._t:.6e}; "
                        "error estimate does not shrink with h "
                        "(inconsistent state after a discontinuity?)"
                    )
                    stalled.time_point = self._t
                    raise stalled
            factor = 0.9 / np.sqrt(max(error, 1e-10))
            self._h = float(np.clip(h * np.clip(factor, 0.2, 5.0),
                                    h_min, span))
        self._t = t
        return self._x

    @property
    def time(self) -> float:
        return self._t

    @property
    def state(self) -> np.ndarray:
        return self._x

    @contextlib.contextmanager
    def step_limit(self, h: float):
        """Step at most ``h`` inside the ``with`` block, the step
        controller restarting below it."""
        saved = self.h_max, self._h
        self.h_max, self._h = h, None
        try:
            yield
        finally:
            self.h_max, self._h = saved

    def stats(self) -> dict:
        iterations = (self._be.newton_iterations
                      + self._trap.newton_iterations)
        return {"solver.steps": self.step_count,
                "solver.rejected": self.rejected_count,
                "solver.newton_iterations": iterations}

    def state_dict(self) -> dict:
        data = super().state_dict()
        data.update(h=self._h, step_count=self.step_count,
                    rejected_count=self.rejected_count)
        return data

    def load_state_dict(self, data: dict) -> None:
        super().load_state_dict(data)
        self._h = data.get("h")
        self.step_count = int(data.get("step_count", 0))
        self.rejected_count = int(data.get("rejected_count", 0))


class ScipyIvpSolver(TransientSolver):
    """Adapter plugging SciPy's mature IVP integrators into the framework.

    Accepts an explicit ODE right-hand side ``rhs(t, x)``, a
    :class:`LinearDae` whose ``C`` matrix is invertible (the ODE form the
    paper notes most CSSL-descendant tools support), or a charge-form
    :class:`NonlinearSystem` whose charge Jacobian is invertible
    (``dq/dx · dx/dt = -f(x, t)``).
    """

    def __init__(
        self,
        rhs: Optional[Callable[[float, np.ndarray], np.ndarray]] = None,
        linear_system: Optional[LinearDae] = None,
        nonlinear_system: Optional[NonlinearSystem] = None,
        n: Optional[int] = None,
        method: str = "LSODA",
        rtol: float = 1e-8,
        atol: float = 1e-10,
    ):
        provided = [src is not None
                    for src in (rhs, linear_system, nonlinear_system)]
        if sum(provided) != 1:
            raise SolverError(
                "provide exactly one of rhs=, linear_system= "
                "or nonlinear_system="
            )
        if linear_system is not None:
            C_mat = linear_system.C.toarray() if linear_system.is_sparse \
                else linear_system.C
            try:
                with warnings.catch_warnings():
                    # factor-and-solve instead of an explicit inverse:
                    # promote lu_factor's singularity warning so a
                    # singular C is rejected here, exactly like the old
                    # np.linalg.inv path.
                    warnings.simplefilter("error")
                    c_factors = lu_factor(C_mat)
            except (ValueError, Warning) as exc:
                raise SolverError(
                    "ScipyIvpSolver requires an invertible C matrix "
                    "(a pure ODE system); use the built-in DAE solver "
                    "for singular C"
                ) from exc
            if not np.all(np.isfinite(c_factors[0])):
                raise SolverError(
                    "ScipyIvpSolver requires an invertible C matrix "
                    "(a pure ODE system); use the built-in DAE solver "
                    "for singular C"
                )

            def rhs(t, x, _cf=c_factors, _sys=linear_system):
                return lu_solve(_cf, _sys.source(t) - _sys.G @ x)

            n = linear_system.n
        elif nonlinear_system is not None:
            probe = np.zeros(nonlinear_system.n)
            jac = np.asarray(nonlinear_system.charge_jacobian(probe),
                             dtype=float)
            if not np.isfinite(np.linalg.cond(jac)):
                raise SolverError(
                    "ScipyIvpSolver requires an invertible charge "
                    "Jacobian (a pure ODE system); use the built-in "
                    "DAE solver for algebraic constraints"
                )

            def rhs(t, x, _sys=nonlinear_system):
                return np.linalg.solve(
                    np.asarray(_sys.charge_jacobian(x), dtype=float),
                    -np.asarray(_sys.static(x, t), dtype=float),
                )

            n = nonlinear_system.n
        if n is None:
            raise SolverError("n= is required when passing a bare rhs")
        self.rhs = rhs
        self.n = n
        self.method = method
        self.rtol = rtol
        self.atol = atol
        self._linear = linear_system
        self._nonlinear = nonlinear_system
        self._t = 0.0
        self._x = np.zeros(n)
        self.segment_count = 0

    def initialize(self, t0: float = 0.0, x0=None) -> np.ndarray:
        self._t = t0
        if x0 is not None:
            self._x = np.asarray(x0, dtype=float)
        elif self._linear is not None:
            self._x = self._linear.dc()
        elif self._nonlinear is not None:
            self._x = dc_operating_point(self._nonlinear, t0)
        else:
            self._x = np.zeros(self.n)
        return self._x

    def advance_to(self, t: float) -> np.ndarray:
        if check_target_time(t) < self._t:
            raise SolverError("cannot advance a transient solver backwards")
        if t == self._t:
            return self._x
        try:
            result = solve_ivp(
                self.rhs, (self._t, t), self._x,
                method=self.method, rtol=self.rtol, atol=self.atol,
            )
        except ValueError as exc:
            # solve_ivp rejects NaN/Inf-contaminated inputs with a bare
            # ValueError; normalize to the solver-error contract so
            # fallback chains and campaigns can classify it.
            error = SolverError(f"external solver rejected input: {exc}")
            error.time_point = self._t
            raise error from exc
        if not result.success:
            raise SolverError(
                f"external solver failed: {result.message}"
            )
        x_new = result.y[:, -1]
        if not np.all(np.isfinite(x_new)):
            # some methods (e.g. LSODA) integrate a NaN-producing RHS
            # "successfully"; refuse to adopt a non-finite state.
            error = SolverError(
                f"external solver produced non-finite state at t={t:.6e}"
            )
            error.time_point = self._t
            raise error
        self.segment_count += 1
        self._t = t
        self._x = x_new
        if self.monitor is not None:
            self.monitor.after_step(self._t, self._x)
        return self._x

    @property
    def time(self) -> float:
        return self._t

    @property
    def state(self) -> np.ndarray:
        return self._x

    def stats(self) -> dict:
        return {"solver.segments": self.segment_count}

    def state_dict(self) -> dict:
        data = super().state_dict()
        data["segment_count"] = self.segment_count
        return data

    def load_state_dict(self, data: dict) -> None:
        super().load_state_dict(data)
        self.segment_count = int(data.get("segment_count", 0))
