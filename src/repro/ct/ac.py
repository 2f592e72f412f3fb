"""Small-signal frequency-domain (AC) analysis.

Per the paper, the frequency-domain model is *derived from the time-domain
description*: the same ``C``/``G`` matrices used for transient analysis are
evaluated as complex phasor equations ``(G + j*omega*C) X = B``.  For
nonlinear systems the matrices are the Jacobians at the DC operating point
(:func:`linearize`).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from ..core.errors import SolverError
from .nonlinear import NonlinearSystem


def ac_sweep(
    C: np.ndarray,
    G: np.ndarray,
    b_ac: np.ndarray,
    frequencies: np.ndarray,
) -> np.ndarray:
    """Solve ``(G + j*2*pi*f*C) X = b_ac`` for each frequency.

    ``b_ac`` may be one excitation vector (shape ``(n,)``) or a matrix of
    RHS columns (shape ``(n, m)``, e.g. one column per source): each
    system matrix is factorized once and solved against every column in
    a single batched call.  Dense matrices are solved as one stacked
    LAPACK call over all frequencies; sparse matrices use SuperLU per
    frequency (multi-RHS).  Returns a complex array of shape
    ``(len(frequencies), n)`` or ``(len(frequencies), n, m)``.
    """
    b = np.asarray(b_ac, dtype=complex)
    single = b.ndim == 1
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    if sp.issparse(C) or sp.issparse(G):
        C = C if sp.issparse(C) else sp.csr_matrix(np.asarray(C, float))
        G = G if sp.issparse(G) else sp.csr_matrix(np.asarray(G, float))
        n = G.shape[0]
        cols = b.reshape(n, -1)
        out = np.empty((len(freqs), n, cols.shape[1]), dtype=complex)
        for k, f in enumerate(freqs):
            A = (G + 2j * np.pi * f * C).tocsc()
            try:
                out[k] = splu(A).solve(cols)
            except RuntimeError as exc:
                raise SolverError(
                    f"singular system matrix in AC sweep at f={f}"
                ) from exc
        return out[:, :, 0] if single else out
    C = np.asarray(C, dtype=float)
    G = np.asarray(G, dtype=float)
    n = G.shape[0]
    cols = b.reshape(n, -1)
    # One factorization per frequency, all frequencies and RHS columns
    # in a single stacked LAPACK call instead of a Python loop.
    A = (G[None, :, :]
         + 2j * np.pi * freqs[:, None, None] * C[None, :, :])
    rhs = np.broadcast_to(cols[None, :, :], (len(freqs), n, cols.shape[1]))
    try:
        out = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        # The stacked solve reports failure for the whole batch; redo
        # frequency by frequency to name the singular one.
        for f, A_f in zip(freqs, A):
            try:
                np.linalg.solve(A_f, cols)
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    f"singular system matrix in AC sweep at f={f}"
                ) from exc
        raise SolverError("singular system matrix in AC sweep")
    return out[:, :, 0] if single else out


def linearize(
    system: NonlinearSystem,
    x_op: np.ndarray,
    t: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Small-signal matrices ``(C, G)`` of a nonlinear system at ``x_op``."""
    return (
        system.charge_jacobian(np.asarray(x_op, dtype=float)),
        system.static_jacobian(np.asarray(x_op, dtype=float), t),
    )


def transfer_function(
    C: np.ndarray,
    G: np.ndarray,
    input_vector: np.ndarray,
    output_vector: np.ndarray,
    frequencies: np.ndarray,
) -> np.ndarray:
    """Complex transfer ``H(f) = d^T (G + j*w*C)^{-1} b`` over a sweep."""
    phasors = ac_sweep(C, G, input_vector, frequencies)
    return phasors @ np.asarray(output_vector, dtype=complex)


def magnitude_db(values: np.ndarray) -> np.ndarray:
    """20*log10(|H|), floored at -400 dB to avoid log-of-zero warnings."""
    mags = np.abs(np.asarray(values))
    return 20.0 * np.log10(np.maximum(mags, 1e-20))


def phase_deg(values: np.ndarray, unwrap: bool = True) -> np.ndarray:
    """Phase response in degrees (unwrapped by default)."""
    phases = np.angle(np.asarray(values))
    if unwrap:
        phases = np.unwrap(phases)
    return np.degrees(phases)


def corner_frequency(frequencies: np.ndarray, response: np.ndarray,
                     drop_db: float = 3.0) -> float:
    """First frequency at which |H| falls ``drop_db`` below its DC value.

    Uses log-log interpolation between sweep points.
    """
    mags = magnitude_db(response)
    target = mags[0] - drop_db
    below = np.nonzero(mags <= target)[0]
    if below.size == 0:
        raise SolverError(
            f"response never drops {drop_db} dB within the sweep"
        )
    k = below[0]
    if k == 0:
        return float(frequencies[0])
    f_lo, f_hi = frequencies[k - 1], frequencies[k]
    m_lo, m_hi = mags[k - 1], mags[k]
    fraction = (target - m_lo) / (m_hi - m_lo)
    return float(f_lo * (f_hi / f_lo) ** fraction)
