"""Linear DAE systems and their fixed-timestep solution.

The paper's Phase 1 requires a "linear dynamic continuous-time MoC" with
fixed-timestep time-domain simulation.  Systems have the standard
linear-network / state-space form

    C * dx/dt + G * x = b(t)

where ``C`` may be singular (a genuine DAE, as produced by Modified Nodal
Analysis of an electrical network) and ``b`` collects the independent
sources.  Because the system is linear, each timestep is one solve with a
constant matrix — "the resulting system of equations can be solved without
iterations" — and the matrix is LU-factorized once per timestep value.

Three interchangeable stepper variants share that contract:

* ``dense`` — LAPACK ``lu_factor`` / ``getrs``, best below the sparsity
  crossover;
* ``sparse`` — SuperLU (``splu``) on ``scipy.sparse`` matrices, for the
  large ELN networks where dense solves become quadratic waste;
* ``expm`` — an exact matrix-exponential propagator for LTI sections with
  invertible ``C`` (first-order-hold sources integrated in closed form).

Factorizations are cached per timestep value (an LRU keyed on ``h``) and
invalidated only by :meth:`~LinearStepper.invalidate` /
:meth:`~LinearStepper.rebind` on topology or switch events — never per
step.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm, get_lapack_funcs, lu_factor, lu_solve
from scipy.sparse.linalg import splu

from ..core.errors import SolverError

#: Supported fixed-step integration methods and their theoretical orders.
METHOD_ORDERS = {"backward_euler": 1, "trapezoidal": 2}

#: Solver-variant names accepted by :func:`make_stepper` and the
#: higher-level ``solver_variant=`` APIs.
STEPPER_VARIANTS = ("auto", "dense", "sparse", "expm")

#: System size (unknown count) above which ``variant="auto"`` picks the
#: sparse path.  Measured crossover on RC ladders is ~150-200 unknowns.
SPARSE_AUTO_THRESHOLD = 150

#: Per-stepper LRU capacity of the ``h``-keyed factorization cache.
#: Synchronization intervals vary at ULP level, producing a handful of
#: distinct ``h`` values per run; 8 slots cover them with room to spare.
FACTOR_CACHE_SIZE = 8


class LinearDae:
    """A linear differential-algebraic system ``C x' + G x = b(t)``.

    ``C`` and ``G`` may be dense ``ndarray``s (the historical form) or
    ``scipy.sparse`` matrices; :attr:`is_sparse` records which.  All
    analyses work on either representation.
    """

    def __init__(
        self,
        C,
        G,
        source: Optional[Callable[[float], np.ndarray]] = None,
        names: Optional[Sequence[str]] = None,
    ):
        if sp.issparse(C) or sp.issparse(G):
            self.C = self._as_csr(C)
            self.G = self._as_csr(G)
            self.is_sparse = True
        else:
            self.C = np.asarray(C, dtype=float)
            self.G = np.asarray(G, dtype=float)
            self.is_sparse = False
        n = self.G.shape[0]
        if self.C.shape != (n, n) or self.G.shape != (n, n):
            raise SolverError(
                f"inconsistent system shapes C{self.C.shape} G{self.G.shape}"
            )
        self.n = n
        self.source = source or (lambda t: np.zeros(n))
        self.names = list(names) if names else [f"x{i}" for i in range(n)]

    @staticmethod
    def _as_csr(matrix):
        csr = matrix.tocsr() if sp.issparse(matrix) \
            else sp.csr_matrix(np.asarray(matrix, dtype=float))
        if csr.dtype != np.float64:
            csr = csr.astype(float)
        return csr

    def dense_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """``(C, G)`` as dense ndarrays regardless of representation."""
        if self.is_sparse:
            return self.C.toarray(), self.G.toarray()
        return self.C, self.G

    # -- static analyses --------------------------------------------------------

    def dc(self) -> np.ndarray:
        """DC operating point: solve ``G x = b(0)`` (derivatives zero)."""
        b = np.asarray(self.source(0.0), dtype=float)
        if self.is_sparse:
            try:
                x = splu(self.G.tocsc()).solve(b)
            except RuntimeError as exc:
                raise SolverError(
                    "singular conductance matrix in DC analysis; the "
                    "network likely has a floating node or an inductor "
                    "loop"
                ) from exc
            if not np.all(np.isfinite(x)):
                raise SolverError(
                    "singular conductance matrix in DC analysis; the "
                    "network likely has a floating node or an inductor "
                    "loop"
                )
            return x
        try:
            return np.linalg.solve(self.G, b)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                "singular conductance matrix in DC analysis; the network "
                "likely has a floating node or an inductor loop"
            ) from exc

    def ac(self, frequencies: np.ndarray,
           b_ac: Optional[np.ndarray] = None) -> np.ndarray:
        """Small-signal frequency-domain analysis.

        Solves ``(G + j*2*pi*f*C) X = b_ac`` for each frequency.  Returns a
        complex array of shape ``(len(frequencies), n)``.  ``b_ac`` defaults
        to the source vector at t=0 interpreted as a unit-phasor excitation
        pattern.
        """
        freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
        if b_ac is None:
            b_ac = np.asarray(self.source(0.0), dtype=float).copy()
        if self.is_sparse:
            b = np.asarray(b_ac, dtype=complex)
            out = np.empty((len(freqs), self.n), dtype=complex)
            for k, f in enumerate(freqs):
                A_f = (self.G + 2j * np.pi * f * self.C).tocsc()
                try:
                    out[k] = splu(A_f).solve(b)
                except RuntimeError as exc:
                    raise SolverError(
                        f"singular system matrix in AC analysis at f={f}"
                    ) from exc
            return out
        # Stack (G + j*2*pi*f*C) for all frequencies and solve the whole
        # batch in one LAPACK call instead of a Python loop.
        A = (self.G[None, :, :]
             + 2j * np.pi * freqs[:, None, None] * self.C[None, :, :])
        rhs = np.broadcast_to(
            np.asarray(b_ac, dtype=complex)[None, :, None],
            (len(freqs), self.n, 1),
        )
        try:
            return np.linalg.solve(A, rhs)[:, :, 0]
        except np.linalg.LinAlgError:
            # Batched solve reports failure for the whole stack; redo
            # frequency by frequency to name the singular one.
            for f, A_f in zip(freqs, A):
                try:
                    np.linalg.solve(A_f, np.asarray(b_ac, dtype=complex))
                except np.linalg.LinAlgError as exc:
                    raise SolverError(
                        f"singular system matrix in AC analysis at f={f}"
                    ) from exc
            raise SolverError("singular system matrix in AC analysis")

    # -- transient -----------------------------------------------------------------

    def eval_source_block(self, times: np.ndarray) -> np.ndarray:
        """Source vectors for many time points: shape (len(times), n).

        Each row equals ``source(t)`` exactly (the source callable is
        still invoked once per time point — arbitrary Python callables
        cannot be batched safely — but callers get one contiguous array
        to slice instead of issuing interleaved calls).
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.empty((len(times), self.n))
        for k in range(len(times)):
            out[k] = self.source(times[k])
        return out

    def transient(
        self,
        t_end: float,
        h: float,
        x0: Optional[np.ndarray] = None,
        t0: float = 0.0,
        method: str = "trapezoidal",
        variant: str = "auto",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fixed-step time-domain simulation.

        Returns ``(times, states)`` with ``states[k]`` the solution at
        ``times[k]``; ``times[0] == t0`` holds the initial condition
        (default: the DC operating point).
        """
        stepper = make_stepper(self, h, method, variant)
        x = self.dc() if x0 is None else np.asarray(x0, dtype=float)
        steps = int(round((t_end - t0) / h))
        times = t0 + h * np.arange(steps + 1)
        states = np.empty((steps + 1, self.n))
        states[0] = x
        if steps:
            states[1:] = stepper.step_block(x, times[:steps])
        return times, states


class _Factors:
    """Factorization products for one timestep value."""

    __slots__ = ("solve", "M")

    def __init__(self, solve, M):
        self.solve = solve
        self.M = M


class _ExpmFactors:
    """Exact propagators for one timestep value."""

    __slots__ = ("phi", "P_now", "P_next")

    def __init__(self, phi, P_now, P_next):
        self.phi = phi
        self.P_now = P_now
        self.P_next = P_next


class _FactorCacheMixin:
    """Shared ``h``-keyed LRU factorization cache with reuse counters,
    and the fixed-step :meth:`step_block`.

    Subclasses provide ``_build(h)`` and ``step_window``.
    ``factorizations`` counts every factorization performed,
    ``cache_hits`` every reuse of a cached one, and
    ``refactorizations`` the factorizations forced by
    :meth:`invalidate` (topology/switch events) rather than by a new
    timestep value.
    """

    def _init_cache(self) -> None:
        self._cache: OrderedDict = OrderedDict()
        self._pending_refactor = False
        self.factorizations = 0
        self.refactorizations = 0
        self.cache_hits = 0

    def _factors(self, h: float):
        cache = self._cache
        fac = cache.get(h)
        if fac is not None:
            self.cache_hits += 1
            cache.move_to_end(h)
            return fac
        fac = self._build(h)
        self.factorizations += 1
        if self._pending_refactor:
            self.refactorizations += 1
            self._pending_refactor = False
        cache[h] = fac
        while len(cache) > FACTOR_CACHE_SIZE:
            cache.popitem(last=False)
        return fac

    def set_timestep(self, h: float) -> None:
        if h != self.h:
            if h <= 0:
                raise SolverError(f"timestep must be positive, got {h}")
            self.h = h
            self._fac = self._factors(h)

    def invalidate(self) -> None:
        """Drop every cached factorization and refactorize the current
        timestep (called on topology/switch events)."""
        self._cache.clear()
        self._pending_refactor = True
        self._fac = self._factors(self.h)

    def stats(self) -> dict:
        """Factorization effort under its ``metrics_snapshot`` names
        (see :meth:`repro.ct.TransientSolver.stats`)."""
        return {"solver.factorizations": self.factorizations,
                "solver.refactorizations": self.refactorizations}

    def step_block(self, x: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Advance through ``len(times)`` consecutive steps of the
        current ``h`` (``times[k]`` is the start of step ``k``).

        Evaluates every source vector up front and runs the steps
        through ``step_window``, bit-identical to a loop of ``step``
        calls.  Returns the states after each step, shape
        ``(len(times), n)``.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        h = self.h
        b_next = self.system.eval_source_block(times + h)
        b_now = None if self.method == "backward_euler" \
            else self.system.eval_source_block(times)
        return self.step_window(x, np.full(len(times), h), b_next,
                                b_now, times)


class LinearStepper(_FactorCacheMixin):
    """Reusable one-step integrator for a :class:`LinearDae`.

    Factorizes the iteration matrix once per timestep value and caches
    the factors (LRU over recent ``h`` values), so alternating or
    ULP-jittered synchronization intervals reuse factorizations instead
    of recomputing them.  This is the object the synchronization layer
    drives timestep by timestep in lockstep with a TDF cluster.

    ``variant`` selects the backend: ``"dense"`` (LAPACK), ``"sparse"``
    (SuperLU) or ``"auto"`` (sparse for sparse systems and above
    :data:`SPARSE_AUTO_THRESHOLD` unknowns).
    """

    def __init__(self, system: LinearDae, h: float,
                 method: str = "trapezoidal", variant: str = "auto"):
        if method not in METHOD_ORDERS:
            raise SolverError(
                f"unknown integration method {method!r}; "
                f"expected one of {sorted(METHOD_ORDERS)}"
            )
        if h <= 0:
            raise SolverError(f"timestep must be positive, got {h}")
        if variant not in ("auto", "dense", "sparse"):
            raise SolverError(
                f"unknown LinearStepper variant {variant!r}; "
                "expected 'auto', 'dense' or 'sparse'"
            )
        if variant == "auto":
            variant = "sparse" if (
                system.is_sparse or system.n >= SPARSE_AUTO_THRESHOLD
            ) else "dense"
        self.system = system
        self.method = method
        self.variant = variant
        self.h = h
        self._bind_matrices()
        self._init_cache()
        self._fac = self._factors(h)

    def _bind_matrices(self) -> None:
        system = self.system
        if self.variant == "sparse":
            if system.is_sparse:
                self._C, self._G = system.C, system.G
            else:
                self._C = sp.csr_matrix(system.C)
                self._G = sp.csr_matrix(system.G)
        else:
            if system.is_sparse:
                self._C, self._G = system.C.toarray(), system.G.toarray()
            else:
                self._C, self._G = system.C, system.G

    def rebind(self, system: LinearDae) -> None:
        """Adopt a re-assembled system (same unknowns, new matrices) and
        refactorize — the topology/switch-event invalidation hook."""
        self.system = system
        self._bind_matrices()
        self.invalidate()

    def _build(self, h: float) -> _Factors:
        C, G = self._C, self._G
        if self.method == "backward_euler":
            A = C / h + G
            M = None
        else:  # trapezoidal
            scaled = 2.0 * C / h
            A = scaled + G
            M = scaled - G
        if self.variant == "sparse":
            try:
                factor = splu(sp.csc_matrix(A))
            except RuntimeError as exc:
                raise SolverError(
                    f"iteration matrix is singular for h={h:.3e}"
                ) from exc
            return _Factors(factor.solve, M)
        try:
            with warnings.catch_warnings():
                # lu_factor reports exact singularity through a
                # LinAlgWarning and zero pivots instead of raising;
                # promote it to a deterministic SolverError so fallback
                # tiers see the failure at factorization time.
                warnings.simplefilter("error")
                lu, piv = lu_factor(A)
        except ValueError as exc:
            raise SolverError("cannot factorize iteration matrix") from exc
        except Warning as exc:
            raise SolverError(
                f"iteration matrix is singular for h={h:.3e}"
            ) from exc
        if not np.all(np.isfinite(lu)):
            raise SolverError(
                f"iteration matrix is singular for h={h:.3e}"
            )
        getrs, = get_lapack_funcs(("getrs",), (lu,))

        def solve(rhs, lu=lu, piv=piv, getrs=getrs):
            # Same LAPACK routine lu_solve dispatches to, minus the
            # wrapper overhead; bit-identical results.
            x, _info = getrs(lu, piv, rhs)
            return x

        return _Factors(solve, M)

    def step(self, x: np.ndarray, t: float) -> np.ndarray:
        """Advance from time ``t`` to ``t + h``."""
        h = self.h
        fac = self._fac
        b_next = np.asarray(self.system.source(t + h), dtype=float)
        if fac.M is None:  # backward_euler
            rhs = self._C @ x / h + b_next
        else:
            b_now = np.asarray(self.system.source(t), dtype=float)
            rhs = fac.M @ x
            rhs += b_next
            rhs += b_now
        if not np.all(np.isfinite(rhs)):
            error = SolverError(
                f"non-finite right-hand side at t={t:.6e} "
                "(NaN/Inf source or state)"
            )
            error.time_point = t
            raise error
        return fac.solve(rhs)

    def step_window(self, x: np.ndarray, h_values: np.ndarray,
                    b_next: np.ndarray,
                    b_now: Optional[np.ndarray] = None,
                    times: Optional[np.ndarray] = None) -> np.ndarray:
        """Advance through a window of pre-evaluated source vectors.

        ``h_values[k]`` is the step size of step ``k``; ``b_next[k]`` /
        ``b_now[k]`` are the source vectors at the step's end / start
        (``b_now`` is unused for backward Euler).  Replays the scalar
        :meth:`step` arithmetic bit-for-bit — operand order and the
        cached factorization are identical — while hoisting source
        evaluation and attribute lookups out of the loop.  Returns the
        states after each step, shape ``(len(h_values), n)``.
        """
        steps = len(h_values)
        states = np.empty((steps, self.system.n))
        x = np.asarray(x, dtype=float)
        h_list = h_values.tolist() if isinstance(h_values, np.ndarray) \
            else list(h_values)
        h_cur = self.h
        fac = self._fac
        C = self._C
        if fac.M is None:  # backward_euler
            for k in range(steps):
                hk = h_list[k]
                if hk != h_cur:
                    self.set_timestep(hk)
                    h_cur = hk
                    fac = self._fac
                rhs = C @ x / hk + b_next[k]
                x = fac.solve(rhs)
                states[k] = x
        else:
            solve = fac.solve
            M = fac.M
            for k in range(steps):
                hk = h_list[k]
                if hk != h_cur:
                    self.set_timestep(hk)
                    h_cur = hk
                    fac = self._fac
                    solve = fac.solve
                    M = fac.M
                rhs = M @ x
                rhs += b_next[k]
                rhs += b_now[k]
                x = solve(rhs)
                states[k] = x
        if not np.all(np.isfinite(states)):
            bad = int(np.argwhere(
                ~np.isfinite(states).all(axis=1)
            )[0][0])
            t_bad = float(times[bad]) if times is not None else float("nan")
            error = SolverError(
                f"non-finite right-hand side at t={t_bad:.6e} "
                "(NaN/Inf source or state)"
            )
            error.time_point = t_bad
            raise error
        return states


class ExpmStepper(_FactorCacheMixin):
    """Exact fixed-step propagator for LTI systems with invertible C.

    Rewrites ``C x' + G x = b(t)`` as ``x' = A x + C^-1 b(t)`` with
    ``A = -C^-1 G`` and advances with the closed-form variation-of-
    constants solution under a first-order hold on the sources:

        x(t+h) = phi x(t) + P_now b(t) + P_next b(t+h)

    where ``phi = expm(A h)`` and the source propagators come from one
    Van Loan augmented-matrix exponential

        expm([[A, I, 0], [0, 0, I], [0, 0, 0]] * h)
          = [[phi, F1, F2], ...],
        F1 = int_0^h expm(A (h-s)) ds,
        F2 = int_0^h expm(A (h-s)) s ds,
        P_now  = (F1 - F2/h) C^-1,   P_next = (F2/h) C^-1.

    Each step is then a handful of mat-vecs with *no* per-step solve;
    the propagators are cached per ``h`` like LU factors.  Exact for
    piecewise-linear inputs (and for any input at the sample instants up
    to the hold), so fixed-step LTI sections lose the time-discretization
    error entirely.
    """

    method = "expm"
    variant = "expm"

    def __init__(self, system: LinearDae, h: float):
        if h <= 0:
            raise SolverError(f"timestep must be positive, got {h}")
        self.system = system
        self.h = h
        self._derive()
        self._init_cache()
        self._fac = self._factors(h)

    def _derive(self) -> None:
        C, G = self.system.dense_matrices()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                self._lu_c = lu_factor(C)
        except (ValueError, Warning) as exc:
            raise SolverError(
                "ExpmStepper requires an invertible C matrix (a pure ODE "
                "system); use the dense or sparse variants for DAE "
                "networks"
            ) from exc
        if not np.all(np.isfinite(self._lu_c[0])):
            raise SolverError(
                "ExpmStepper requires an invertible C matrix (a pure ODE "
                "system); use the dense or sparse variants for DAE "
                "networks"
            )
        self._A = -lu_solve(self._lu_c, G)

    def rebind(self, system: LinearDae) -> None:
        """Adopt a re-assembled system and rebuild every propagator."""
        self.system = system
        self._derive()
        self.invalidate()

    def _build(self, h: float) -> _ExpmFactors:
        n = self.system.n
        eye = np.eye(n)
        aug = np.zeros((3 * n, 3 * n))
        aug[:n, :n] = self._A
        aug[:n, n:2 * n] = eye
        aug[n:2 * n, 2 * n:] = eye
        P = expm(aug * h)
        if not np.all(np.isfinite(P)):
            raise SolverError(
                f"matrix exponential overflow for h={h:.3e} "
                "(unstable or badly scaled LTI section)"
            )
        phi = np.ascontiguousarray(P[:n, :n])
        F1 = P[:n, n:2 * n]
        F2 = P[:n, 2 * n:]
        # Fold C^-1 into the source propagators: X C^-1 = solve(C^T, X^T)^T.
        P_now = lu_solve(self._lu_c, (F1 - F2 / h).T, trans=1).T
        P_next = lu_solve(self._lu_c, (F2 / h).T, trans=1).T
        return _ExpmFactors(phi, np.ascontiguousarray(P_now),
                            np.ascontiguousarray(P_next))

    def stats(self) -> dict:
        stats = super().stats()
        stats["solver.expm_cache_hits"] = self.cache_hits
        return stats

    def step(self, x: np.ndarray, t: float) -> np.ndarray:
        """Advance from time ``t`` to ``t + h``."""
        fac = self._fac
        b_now = np.asarray(self.system.source(t), dtype=float)
        b_next = np.asarray(self.system.source(t + self.h), dtype=float)
        y = fac.phi @ x
        y += fac.P_now @ b_now
        y += fac.P_next @ b_next
        if not np.all(np.isfinite(y)):
            error = SolverError(
                f"non-finite right-hand side at t={t:.6e} "
                "(NaN/Inf source or state)"
            )
            error.time_point = t
            raise error
        return y

    def step_window(self, x: np.ndarray, h_values: np.ndarray,
                    b_next: np.ndarray,
                    b_now: Optional[np.ndarray] = None,
                    times: Optional[np.ndarray] = None) -> np.ndarray:
        """Window counterpart of :meth:`step` (see
        :meth:`LinearStepper.step_window`); ``b_now`` is required."""
        steps = len(h_values)
        states = np.empty((steps, self.system.n))
        x = np.asarray(x, dtype=float)
        h_list = h_values.tolist() if isinstance(h_values, np.ndarray) \
            else list(h_values)
        h_cur = self.h
        fac = self._fac
        for k in range(steps):
            hk = h_list[k]
            if hk != h_cur:
                self.set_timestep(hk)
                h_cur = hk
                fac = self._fac
            y = fac.phi @ x
            y += fac.P_now @ b_now[k]
            y += fac.P_next @ b_next[k]
            x = y
            states[k] = x
        if not np.all(np.isfinite(states)):
            bad = int(np.argwhere(
                ~np.isfinite(states).all(axis=1)
            )[0][0])
            t_bad = float(times[bad]) if times is not None else float("nan")
            error = SolverError(
                f"non-finite right-hand side at t={t_bad:.6e} "
                "(NaN/Inf source or state)"
            )
            error.time_point = t_bad
            raise error
        return states


def make_stepper(system: LinearDae, h: float,
                 method: str = "trapezoidal",
                 variant: str = "auto"):
    """Construct the stepper for ``variant`` (the solver-variant API).

    ``"auto"`` picks dense vs sparse from the system representation and
    size; ``"expm"`` selects the exact LTI propagator (which requires an
    invertible ``C``).
    """
    if variant not in STEPPER_VARIANTS:
        raise SolverError(
            f"unknown solver variant {variant!r}; "
            f"expected one of {sorted(STEPPER_VARIANTS)}"
        )
    if variant == "expm":
        return ExpmStepper(system, h)
    return LinearStepper(system, h, method, variant)


def state_space_to_dae(
    A: np.ndarray,
    B: np.ndarray,
    u: Callable[[float], np.ndarray],
    C_out: Optional[np.ndarray] = None,
) -> LinearDae:
    """Wrap a state-space model ``x' = A x + B u(t)`` as a LinearDae.

    The DAE form is ``I x' - A x = B u(t)``.  ``C_out`` is not part of the
    DAE; output selection is applied by the caller on the state vector.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    if B.shape[0] != n:
        raise SolverError(f"B has {B.shape[0]} rows; expected {n}")

    def source(t: float) -> np.ndarray:
        return B @ np.atleast_1d(np.asarray(u(t), dtype=float))

    return LinearDae(np.eye(n), -A, source)
