"""SciPy golden references.

Independent implementations (``scipy.integrate.solve_ivp`` with tight
tolerances) used to validate the framework's solvers — the stand-in for
the "comparable accuracy to MATLAB" comparisons of the seed work.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import lu_factor, lu_solve


def rc_step_response(R: float, C: float, v_in: float,
                     times: np.ndarray) -> np.ndarray:
    """Capacitor voltage of an RC lowpass driven by a step (analytic)."""
    tau = R * C
    return v_in * (1.0 - np.exp(-np.asarray(times) / tau))


def series_rlc_step_response(R: float, L: float, C: float, v_in: float,
                             times: np.ndarray) -> np.ndarray:
    """Capacitor voltage of a series RLC driven by a step (analytic,
    underdamped case)."""
    t = np.asarray(times, dtype=float)
    alpha = R / (2 * L)
    w0 = 1.0 / np.sqrt(L * C)
    if alpha >= w0:
        raise ValueError("analytic reference covers the underdamped case")
    wd = np.sqrt(w0 ** 2 - alpha ** 2)
    return v_in * (1 - np.exp(-alpha * t)
                   * (np.cos(wd * t) + alpha / wd * np.sin(wd * t)))


def ode_reference(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    x0: np.ndarray,
    times: np.ndarray,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    method: str = "LSODA",
) -> np.ndarray:
    """High-accuracy solve_ivp trajectory sampled at ``times``."""
    t = np.asarray(times, dtype=float)
    result = solve_ivp(rhs, (t[0], t[-1]), np.asarray(x0, dtype=float),
                       t_eval=t, rtol=rtol, atol=atol, method=method)
    if not result.success:
        raise RuntimeError(f"reference solver failed: {result.message}")
    return result.y.T


def linear_dae_reference(C: np.ndarray, G: np.ndarray,
                         source: Callable[[float], np.ndarray],
                         x0: np.ndarray,
                         times: np.ndarray) -> np.ndarray:
    """Reference trajectory of ``C x' + G x = b(t)`` with invertible C.

    ``C`` is LU-factorized once and every right-hand-side evaluation is a
    triangular solve — explicitly inverting ``C`` is both slower and
    numerically worse, and fails outright for the singular ``C`` of a
    proper DAE (where this reference is inapplicable anyway).
    """
    c_factors = lu_factor(np.asarray(C, dtype=float))
    G = np.asarray(G, dtype=float)

    def rhs(t, x):
        return lu_solve(c_factors, np.asarray(source(t)) - G @ x)

    return ode_reference(rhs, x0, times)


def van_der_pol_reference(mu: float, x0: np.ndarray,
                          times: np.ndarray) -> np.ndarray:
    """Stiff Van der Pol reference (BDF)."""

    def rhs(t, v):
        x, y = v
        return [y, mu * (1 - x * x) * y - x]

    return ode_reference(rhs, x0, times, method="BDF",
                         rtol=1e-9, atol=1e-11)
