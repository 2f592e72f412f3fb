"""Linear DAE systems and their fixed-timestep solution.

The paper's Phase 1 requires a "linear dynamic continuous-time MoC" with
fixed-timestep time-domain simulation.  Systems have the standard
linear-network / state-space form

    C * dx/dt + G * x = b(t)

where ``C`` may be singular (a genuine DAE, as produced by Modified Nodal
Analysis of an electrical network) and ``b`` collects the independent
sources.  Because the system is linear, each timestep is one solve with a
constant matrix — "the resulting system of equations can be solved without
iterations" — so the work that depends only on the timestep value is done
once per value.

Three interchangeable stepper variants share that contract:

* ``dense`` — the one-step propagator ``phi = A^-1 M`` of the iteration
  matrix ``A`` beside ``A^-1`` on the source columns, so a step is one
  mat-vec over the state and the source columns; best below the
  sparsity crossover;
* ``sparse`` — SuperLU (``splu``) on ``scipy.sparse`` matrices, one solve
  per step, for the large ELN networks where a dense ``phi`` becomes
  quadratic waste;
* ``expm`` — an exact matrix-exponential propagator for LTI sections with
  invertible ``C`` (first-order-hold sources integrated in closed form),
  stepped by the same loop as ``dense``.

Propagators and factorizations are cached per timestep value (an LRU
keyed on ``h``) and invalidated only by :meth:`~LinearStepper.invalidate`
/ :meth:`~LinearStepper.rebind` on topology or switch events — never per
step.  Beside them, every stepper keeps one operator per (``h``,
substep count) for sources affine in an activation's input vector
(:meth:`~LinearStepper.step_held`): dense and expm fold the k steps of
one synchronization interval into one map, applied like a one-step
propagator; sparse keeps each step's source matrix and solves per step.
"""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm, lu_factor
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

#: Dense and expm systems of at most this many unknowns step on Python
#: floats (:func:`_float_steps`), where NumPy's fixed cost per call
#: outweighs the arithmetic; larger ones take one mat-vec call per step
#: (:meth:`_CachedStepper._advance`).  Per step on 1,000-step RC-ladder
#: windows (best of 7, 2-vCPU Xeon VM, NumPy 2.4), one-call loop
#: against float loop: 0.37/0.14 us at 1 unknown, 0.41/0.36 at 3,
#: 0.41/0.55 at 4 and 0.42/0.95 at 6 (the float loop written out the
#: same way for 4 and 6).
FLOAT_STEP_MAX_UNKNOWNS = 3

#: Per-stepper LRU capacity of the ``h``-keyed factorization cache.
#: Tick-exact synchronization intervals give one ``h`` per nominal
#: timestep; 8 slots cover alternating or off-grid step sizes.
FACTOR_CACHE_SIZE = 8


def check_step_size(h: float, name: str = "timestep") -> float:
    """Return ``h`` if it is a step size a fixed-step solver can honour
    (positive and finite), else raise :class:`SolverError`."""
    if not 0.0 < h < math.inf:  # NaN fails both comparisons
        raise SolverError(f"{name} must be positive and finite, got {h}")
    return h


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
        (default: the DC operating point).  ``t_end`` must be finite and
        not before ``t0``.
        """
        if not t0 <= t_end < math.inf:  # NaN fails both comparisons
            raise SolverError(
                f"t_end must be finite and not before t0={t0}, got {t_end}")
        stepper = make_stepper(self, h, method, variant)
        x = self.dc() if x0 is None else np.asarray(x0, dtype=float)
        steps = int(round((t_end - t0) / h))
        times = t0 + h * np.arange(steps + 1)
        states = np.empty((steps + 1, self.n))
        states[0] = x
        if steps:
            states[1:] = stepper.step_block(x, times[:steps])
        return times, states


def _source_columns(system: LinearDae) -> Optional[list[int]]:
    """The columns of ``b`` a system's source can make nonzero: the
    stamped rows of an assembled ELN/LSF network (``source.rows``), or
    None (every column) for any other source."""
    rows = getattr(system.source, "rows", None)
    if rows is None:
        return None
    return sorted({row for row, _waveform, _scale in rows})


def _require_invertible(A: np.ndarray, singular: str,
                        invalid: Optional[str] = None) -> None:
    """Raise ``SolverError(singular)`` when LAPACK finds ``A`` singular,
    and ``SolverError(invalid)`` when it cannot factorize ``A`` at all
    (non-finite entries)."""
    try:
        with warnings.catch_warnings():
            # lu_factor reports exact singularity through a
            # LinAlgWarning and zero pivots instead of raising;
            # promote it to a deterministic SolverError so fallback
            # tiers see the failure at build time.
            warnings.simplefilter("error")
            lu, _piv = lu_factor(A)
    except ValueError as exc:
        raise SolverError(invalid or singular) from exc
    except Warning as exc:
        raise SolverError(singular) from exc
    if not np.all(np.isfinite(lu)):
        raise SolverError(singular)


def _forcing(b: np.ndarray, fac: _Propagator | _HeldLU) -> np.ndarray:
    """Per-step forcing terms ``w[k]`` of the stacked source vectors
    ``b`` for the float steps (:func:`_float_steps`) and the sparse
    held steps (:func:`_held_lu_steps`, where ``b`` holds input
    vectors), each bit-identical whatever the number of steps.

    A row-layout source sums ``gain * b[:, col]`` over its few ``(col,
    gain)`` terms elementwise for the whole run; any other source takes
    one mat-vec ``gain @ b[k]`` of the same shape per step.  One matrix
    product over the run could let BLAS pick a different summation
    order per shape.
    """
    if fac.terms is None:
        w = np.empty((len(b), len(fac.gain)))
        for k in range(len(b)):
            np.dot(fac.gain, b[k], out=w[k])
        return w
    w = None
    for col, gain in fac.terms:
        term = b[:, col, None] * gain
        if w is None:
            w = term
        else:
            w += term
    return np.zeros((len(b), len(fac.gain))) if w is None else w


def _check_finite(states: np.ndarray, times) -> None:
    """Raise the solver's error at the first step with a NaN/Inf."""
    bad = np.flatnonzero(~np.isfinite(states).all(axis=1))
    if not len(bad):
        return
    t_bad = float(times[bad[0]]) if times is not None else float("nan")
    error = SolverError(
        f"non-finite right-hand side at t={t_bad:.6e} "
        "(NaN/Inf source or state)"
    )
    error.time_point = t_bad
    raise error


def _float_steps(phi: list, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Overwrite the C-contiguous forcing rows ``w`` (as :func:`_forcing`
    makes them) with the states of ``x = phi @ x + w[k]``, stepped on
    Python floats (``phi`` as nested lists) with no call per step: each
    new component is ``w_i + (phi_i0 * x0 + phi_i1 * x1 + ...)``, the
    products summed left to right.  A BLAS may fuse or reorder a short
    dot product, so the NumPy loop can differ in the last place."""
    flat = w.ravel()  # a view of w
    forcing = iter(flat.tolist())
    out: list = []
    n = len(x)
    if n == 1:
        [[p00]] = phi
        [x0] = x.tolist()
        for w0 in forcing:
            x0 = w0 + p00 * x0
            out += x0,
    elif n == 2:
        [p00, p01], [p10, p11] = phi
        x0, x1 = x.tolist()
        for w0, w1 in zip(forcing, forcing):
            x0, x1 = w0 + (p00 * x0 + p01 * x1), w1 + (p10 * x0 + p11 * x1)
            out += x0, x1
    elif n == 3:
        [p00, p01, p02], [p10, p11, p12], [p20, p21, p22] = phi
        x0, x1, x2 = x.tolist()
        for w0, w1, w2 in zip(forcing, forcing, forcing):
            x0, x1, x2 = (w0 + (p00 * x0 + p01 * x1 + p02 * x2),
                          w1 + (p10 * x0 + p11 * x1 + p12 * x2),
                          w2 + (p20 * x0 + p21 * x1 + p22 * x2))
            out += x0, x1, x2
    flat[:] = out
    return w


class _Propagator(NamedTuple):
    """One-step propagators for one timestep value: a step is
    ``x' = phi @ x + gain @ b[cols]`` for its stacked source vector
    ``b``, whose columns ``cols`` (every column when None) the source
    can make nonzero.

    Above :data:`FLOAT_STEP_MAX_UNKNOWNS` unknowns ``aug`` is ``[phi |
    gain]``, so a step is one mat-vec of ``aug`` with the state and the
    source columns side by side (see :func:`_propagate`).  Up to it
    ``phi_floats`` is ``phi`` as nested Python floats (see
    :func:`_float_steps`) and ``terms`` the ``(column, gain column)``
    pairs :func:`_forcing` sums (None when :func:`_forcing` takes one
    mat-vec per step instead); ``aug`` is then None."""

    phi: np.ndarray
    gain: np.ndarray
    cols: Optional[np.ndarray]
    aug: Optional[np.ndarray]
    phi_floats: Optional[list]
    terms: Optional[tuple]


def _propagator(phi, gain, cols, terms=None) -> _Propagator:
    """Pack ``phi`` and the source propagator ``gain``, whose columns
    are the stacked source columns ``cols`` (every column when None).
    Float steps sum ``gain`` column by column over ``terms`` (default
    ``cols``; None takes one mat-vec per step)."""
    index = None if cols is None else np.array(cols, dtype=np.intp)
    if len(phi) > FLOAT_STEP_MAX_UNKNOWNS:
        return _Propagator(phi, gain, index, np.hstack((phi, gain)), None,
                           None)
    terms = cols if terms is None else terms
    if terms is not None:
        terms = tuple((col, np.ascontiguousarray(g))
                      for col, g in zip(terms, gain.T))
    return _Propagator(phi, gain, index, None, phi.tolist(), terms)


def _propagate(fac: _Propagator, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The states of ``len(b)`` steps ``x = phi @ x + gain @ b[k][cols]``
    from ``x``.  Above :data:`FLOAT_STEP_MAX_UNKNOWNS` unknowns one
    buffer holds each step's state and, beside it, its stacked source
    columns, and a step is the one mat-vec ``aug @ buf[k]`` written
    into the next row's state; up to it the steps run on Python floats,
    with the forcing terms formed for the whole run up front.  A step's
    arithmetic is the same whatever the run's length."""
    if fac.aug is None:
        return _float_steps(fac.phi_floats, x, _forcing(b, fac))
    n, steps, aug = len(x), len(b), fac.aug
    buf = np.empty((steps + 1, aug.shape[1]))
    buf[0, :n] = x
    buf[:steps, n:] = b if fac.cols is None else b[:, fac.cols]
    states = buf[1:, :n]
    step = aug.dot  # the method skips np.dot's dispatch
    for k in range(steps):  # indexing beats iterating rows
        step(buf[k], out=states[k])
    return states


class _SuperLU(NamedTuple):
    """Sparse factors for one timestep value: a step solves
    ``A x' = M @ x + w``."""

    M: Any  # a scipy.sparse matrix
    solve: Callable[[np.ndarray], np.ndarray]


def _lu_steps(fac, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The states of ``len(b)`` steps ``A x' = M @ x + b[k]`` from
    ``x`` through the SuperLU factors ``fac``, one solve per step."""
    M, solve = fac.M, fac.solve
    states = np.empty_like(b)
    for k in range(len(b)):
        rhs = M @ x
        rhs += b[k]
        x = states[k] = solve(rhs)
    return states


class _HeldLU(NamedTuple):
    """A sparse stepper's operator for one (``h``, ``substeps``): the
    SuperLU factors, and an activation's source vectors in its input
    vector ``u``.  Step ``j``'s stacked source vector is ``S_j @ u`` on
    the stamped columns ``cols`` and zero elsewhere; ``gain`` stacks
    the ``S_j`` step by step, one row per (step, column), and ``terms``
    pairs each input with its ``gain`` column for :func:`_forcing`."""

    M: Any
    solve: Callable[[np.ndarray], np.ndarray]
    cols: np.ndarray
    substeps: int
    gain: np.ndarray
    terms: tuple


def _held_lu_steps(held: _HeldLU, x: np.ndarray,
                   inputs: np.ndarray) -> np.ndarray:
    """Each activation's end state after ``held.substeps`` solves from
    ``x``, activation ``a`` reading the input vector ``inputs[a]``.
    Its forcing terms are formed elementwise (:func:`_forcing`), so an
    activation's arithmetic is the same whatever the window's length."""
    substeps, cols = held.substeps, held.cols
    steps = inputs.shape[0] * substeps  # sizes read without a call
    b = np.zeros((steps, x.size))
    b[:, cols] = _forcing(inputs, held).reshape(steps, cols.size)
    return _lu_steps(held, x, b)[substeps - 1::substeps]


class _CachedStepper:
    """Shared ``h``-keyed LRU cache of stepping products with reuse
    counters, and the stepping loops of every variant.

    Subclasses provide ``_build(h)`` (a :class:`_Propagator` or a
    :class:`_SuperLU`) and ``_stacked(b_next, b_now)``, the source
    vectors a step's forcing term is formed from.
    ``factorizations`` counts every build performed, ``cache_hits``
    every reuse of a cached one, and ``refactorizations`` the builds
    forced by :meth:`invalidate` (topology/switch events) rather than
    by a new timestep value.  The activation operators of
    :meth:`step_held` are kept beside the cached products and dropped
    with them; building one is not a factorization.
    """

    def _init_cache(self) -> None:
        self._cache: OrderedDict = OrderedDict()
        self._operators: dict = {}
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
            self.h = check_step_size(h)
            self._fac = self._factors(h)

    def invalidate(self) -> None:
        """Drop every cached factorization and refactorize the current
        timestep (called on topology/switch events)."""
        self._cache.clear()
        self._operators.clear()
        self._pending_refactor = True
        self._fac = self._factors(self.h)

    def stats(self) -> dict:
        """Factorization effort under its ``metrics_snapshot`` names
        (see :meth:`repro.ct.TransientSolver.stats`)."""
        return {"solver.factorizations": self.factorizations,
                "solver.refactorizations": self.refactorizations}

    def step(self, x: np.ndarray, t: float) -> np.ndarray:
        """Advance from time ``t`` to ``t + h``: a window of one step."""
        source = self.system.source
        b_next = np.asarray(source(t + self.h), dtype=float)[None]
        b_now = None if self.method == "backward_euler" \
            else np.asarray(source(t), dtype=float)[None]
        return self._advance(x, b_next, b_now, (t,))[0]

    def step_block(self, x: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Advance through ``len(times)`` consecutive steps of the
        current ``h`` (``times[k]`` is the start of step ``k``).

        Evaluates every source vector up front and runs the steps
        through :meth:`step_window`, bit-identical to a loop of
        ``step`` calls.  Returns the states after each step, shape
        ``(len(times), n)``.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        h = self.h
        b_next = self.system.eval_source_block(times + h)
        b_now = None if self.method == "backward_euler" \
            else self.system.eval_source_block(times)
        return self.step_window(x, h, b_next, b_now, times)

    def step_window(self, x: np.ndarray, h: float, b_next: np.ndarray,
                    b_now: Optional[np.ndarray] = None,
                    times: Optional[np.ndarray] = None) -> np.ndarray:
        """Advance through a window of steps of size ``h`` from
        pre-evaluated source vectors.

        ``b_next[k]`` / ``b_now[k]`` are the source vectors at step
        ``k``'s end / start (``b_now`` is unused for backward Euler) and
        ``times[k]`` is the instant a non-finite state is reported at.
        A step's arithmetic does not depend on the run around it: any
        split of a window, and a loop of :meth:`step` calls, give the
        same bits.  Returns the states after each step, shape
        ``(len(b_next), n)``.
        """
        self.set_timestep(float(h))
        return self._advance(x, b_next, b_now, times)

    def step_held(self, x: np.ndarray, substeps: int, inputs: np.ndarray,
                  times, drive: Callable[[], tuple]) -> np.ndarray:
        """Advance ``len(inputs)`` activations of ``substeps`` steps of
        the current ``h`` each, taking each activation's sources from
        its input vector.

        The sources are affine in each activation's input vector: at
        fraction ``f`` of activation ``a`` they are ``(at_start + f *
        slope) @ inputs[a]``, with ``(at_start, slope) = drive()``.  An
        operator built on first use per (``h``, ``substeps``)
        (:meth:`_lift`) then steps an activation: dense and expm
        steppers apply one map ``x' = P x + Q inputs[a]`` through
        :func:`_propagate`, like a one-step propagator whose source
        vector is ``inputs[a]``; a sparse stepper solves each step with
        its source vector ``S_j @ inputs[a]`` (:func:`_held_lu_steps`).
        ``x`` is a float array (a solver's state); ``times[a]`` is the
        instant a non-finite state is reported at.  Returns each
        activation's end state.
        """
        key = self.h, substeps
        operators = self._operators
        if key not in operators:
            operators[key] = self._lift(substeps, *drive())
            if len(operators) > FACTOR_CACHE_SIZE:
                del operators[next(iter(operators))]
        kernel, operator = operators[key]
        states = kernel(operator, x, inputs)
        if not math.isfinite(np.add.reduce(states, axis=None)):
            _check_finite(states, times)
        return states

    def _lift(self, substeps: int, at_start: np.ndarray,
              slope: np.ndarray) -> tuple:
        """``(kernel, operator)`` of :meth:`step_held`.  Step ``j`` of
        an activation reads its sources at fractions ``j / substeps``
        and ``(j + 1) / substeps``; the stacked-source rule
        (:meth:`_stacked`) makes its stacked source vector ``S_j @ u``,
        kept on the stamped columns as the propagators keep ``gain``.
        Propagators fold the ``S_j`` into one map, the basis ``[x |
        u]`` propagated through the ``substeps`` steps; a sparse
        stepper keeps them beside its SuperLU factors
        (:class:`_HeldLU`)."""
        fac, cols = self._fac, self._cols
        sources = []
        for j in range(substeps):
            start = at_start + (j / substeps) * slope
            end = at_start + ((j + 1) / substeps) * slope
            stacked = self._stacked(end.T, start.T)  # a row per input
            sources.append(stacked if cols is None else stacked[:, cols])
        if isinstance(fac, _SuperLU):
            gain = np.hstack(sources).T  # a row per (step, column)
            return _held_lu_steps, _HeldLU(
                fac.M, fac.solve, np.array(cols, dtype=np.intp), substeps,
                gain, tuple(enumerate(np.ascontiguousarray(gain.T))))
        n, width = len(fac.phi), at_start.shape[1]
        lifted = np.hstack((np.eye(n), np.zeros((n, width))))
        for stacked in sources:
            lifted = fac.phi @ lifted
            lifted[:, n:] += fac.gain @ stacked.T
        return _propagate, _propagator(lifted[:, :n], lifted[:, n:], None,
                                       terms=range(width))

    def _advance(self, x, b_next, b_now, times) -> np.ndarray:
        """Run ``len(b_next)`` steps of the current ``h`` from ``x``:
        propagators (dense, expm) through :func:`_propagate`, SuperLU
        (sparse) through :func:`_lu_steps`.  A step's arithmetic is the
        same whatever the run's length.
        """
        fac = self._fac
        x = np.ascontiguousarray(x, dtype=float)
        b = self._stacked(b_next, b_now)
        if isinstance(fac, _SuperLU):
            states = _lu_steps(fac, x, b)
        else:
            states = _propagate(fac, x, b)
        # one reduction; a non-finite sum may also be an overflow
        if not math.isfinite(np.add.reduce(states, axis=None)):
            _check_finite(states, times)
        return states


class LinearStepper(_CachedStepper):
    """Reusable one-step integrator for a :class:`LinearDae`.

    Builds the one-step products once per timestep value and caches
    them (LRU over recent ``h`` values), so alternating timesteps reuse
    them instead of rebuilding.  This is the object the synchronization
    layer drives timestep by timestep in lockstep with a TDF cluster.

    ``variant`` selects the backend: ``"dense"`` keeps the propagators
    ``phi = A^-1 M`` and ``A^-1`` (restricted to the source columns) of
    the iteration matrix ``A``, ``"sparse"`` its SuperLU factors, and
    ``"auto"`` picks sparse for sparse systems and above
    :data:`SPARSE_AUTO_THRESHOLD` unknowns.
    """

    def __init__(self, system: LinearDae, h: float,
                 method: str = "trapezoidal", variant: str = "auto"):
        if method not in METHOD_ORDERS:
            raise SolverError(
                f"unknown integration method {method!r}; "
                f"expected one of {sorted(METHOD_ORDERS)}"
            )
        check_step_size(h)
        if variant not in ("auto", "dense", "sparse"):
            raise SolverError(
                f"unknown LinearStepper variant {variant!r}; "
                "expected 'auto', 'dense' or 'sparse'"
            )
        self.system = system
        self.method = method
        self.variant = stepper_variant(system, variant)
        self.h = h
        self._bind_matrices()
        self._init_cache()
        self._fac = self._factors(h)

    def _bind_matrices(self) -> None:
        system = self.system
        self._cols = _source_columns(system)
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

    def _build(self, h: float):
        # A x' = M x + w, w = b(t+h) (+ b(t) for trapezoidal)
        C, G = self._C, self._G
        if self.method == "backward_euler":
            M = C / h
            A = M + G
        else:  # trapezoidal
            scaled = 2.0 * C / h
            A = scaled + G
            M = scaled - G
        singular = f"iteration matrix is singular for h={h:.3e}"
        if self.variant == "sparse":
            try:
                factor = splu(sp.csc_matrix(A))
            except RuntimeError as exc:
                raise SolverError(singular) from exc
            return _SuperLU(M, factor.solve)
        _require_invertible(A, singular, "cannot factorize iteration matrix")
        # numpy's solve, not scipy's lu_solve: a matrix right-hand side
        # through scipy's getrs costs milliseconds and leaves its BLAS
        # threads spinning.
        n = self.system.n
        cols = self._cols
        eye = np.eye(n)
        solved = np.linalg.solve(
            A, np.hstack((M, eye if cols is None else eye[:, cols])))
        if not np.all(np.isfinite(solved)):
            raise SolverError(singular)
        return _propagator(solved[:, :n], solved[:, n:], cols)

    def _stacked(self, b_next, b_now):
        if self.method == "backward_euler":
            return b_next
        return b_next + b_now


class ExpmStepper(_CachedStepper):
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

    Each step is then one mat-vec and one add, like the dense
    propagator, and the propagators are cached per ``h`` the same way.
    Exact for piecewise-linear inputs (and for any input at the sample
    instants up to the hold), so fixed-step LTI sections lose the
    time-discretization error entirely.
    """

    method = "expm"
    variant = "expm"

    def __init__(self, system: LinearDae, h: float):
        check_step_size(h)
        self.system = system
        self.h = h
        self._derive()
        self._init_cache()
        self._fac = self._factors(h)

    def _derive(self) -> None:
        C, G = self.system.dense_matrices()
        _require_invertible(
            C, "ExpmStepper requires an invertible C matrix (a pure ODE "
            "system); use the dense or sparse variants for DAE networks")
        self._C = C
        self._A = -np.linalg.solve(C, G)
        cols = _source_columns(self.system)
        self._cols = None if cols is None \
            else cols + [self.system.n + col for col in cols]  # [b(t), b(t+h)]

    def rebind(self, system: LinearDae) -> None:
        """Adopt a re-assembled system and rebuild every propagator."""
        self.system = system
        self._derive()
        self.invalidate()

    def _build(self, h: float) -> _Propagator:
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
        F1 = P[:n, n:2 * n]
        F2 = P[:n, 2 * n:]
        # Fold C^-1 into the source propagators: X C^-1 = solve(C^T, X^T)^T;
        # stacked, the columns act on b(t), then on b(t+h).
        held = np.linalg.solve(self._C.T, np.hstack(((F1 - F2 / h).T,
                                                     (F2 / h).T)))
        gain = np.vstack((held[:, :n], held[:, n:])).T
        cols = self._cols
        return _propagator(P[:n, :n],
                           gain if cols is None else gain[:, cols], cols)

    def _stacked(self, b_next, b_now):
        return np.hstack((b_now, b_next))

    def stats(self) -> dict:
        stats = super().stats()
        stats["solver.expm_cache_hits"] = self.cache_hits
        return stats


def stepper_variant(system: LinearDae, variant: str) -> str:
    """The variant :func:`make_stepper` steps ``system`` with:
    ``"auto"`` is sparse for sparse systems and from
    :data:`SPARSE_AUTO_THRESHOLD` unknowns, dense below."""
    if variant != "auto":
        return variant
    sparse = system.is_sparse or system.n >= SPARSE_AUTO_THRESHOLD
    return "sparse" if sparse else "dense"


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


def backward_euler_step(system: LinearDae, x: np.ndarray, t: float,
                        h: float) -> np.ndarray:
    """One backward-Euler step of ``system`` from ``x`` at ``t`` to
    ``t + h``, solved directly: a single step gains nothing from the
    per-``h`` products a stepper builds for repeated steps."""
    check_step_size(h)
    A = system.C / h + system.G
    rhs = system.C @ x / h + np.asarray(system.source(t + h), dtype=float)
    try:
        x = splu(sp.csc_matrix(A)).solve(rhs) if system.is_sparse \
            else np.linalg.solve(A, rhs)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        raise SolverError(
            f"iteration matrix is singular for h={h:.3e}") from exc
    _check_finite(x[None], (t,))
    return x


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
