"""Piecewise-linear (PWL) exact simulation of switching circuits.

The AnalogSL approach (seed work [8], Grimm et al.): a power driver with
a capacitive or inductive load visits a *small set of linear circuit
configurations* selected by the switch positions.  Within one
configuration the dynamics are ``x' = A x + B`` (B collects the constant
supply terms), whose solution is exact:

    x(t0 + h) = x_inf + expm(A h) (x(t0) - x_inf),   x_inf = -A^{-1} B

so a whole PWM segment is *one* matrix-vector product — no timestep, no
iteration, no local truncation error.  Transition matrices are cached per
(configuration, duration).  This is the "specialized continuous-time
MoC ... for power electronics" of the paper's Phase 3, and experiment E6
measures its speedup over the general nonlinear solver.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np
from scipy.linalg import expm

from ..core.errors import SolverError


class PwlConfig:
    """One linear configuration: ``x' = A x + B``."""

    def __init__(self, A, B):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.B = np.atleast_1d(np.asarray(B, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n) or self.B.shape != (n,):
            raise SolverError(
                f"inconsistent config shapes A{self.A.shape} B{self.B.shape}"
            )
        self.n = n


class PwlSolver:
    """Exact advancer over a dictionary of configurations."""

    def __init__(self, configs: dict[Hashable, PwlConfig]):
        if not configs:
            raise SolverError("need at least one configuration")
        sizes = {config.n for config in configs.values()}
        if len(sizes) != 1:
            raise SolverError("all configurations must share the state size")
        self.configs = dict(configs)
        self.n = sizes.pop()
        #: cache: (config key, duration) -> (Phi, offset) with
        #: x1 = Phi @ x0 + offset.
        self._cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self.segment_count = 0

    def _transition(self, key: Hashable, h: float):
        cache_key = (key, h)
        hit = self._cache.get(cache_key)
        if hit is not None:
            return hit
        config = self.configs[key]
        phi = expm(config.A * h)
        # offset = (phi - I) A^{-1} B  — computed robustly via the
        # augmented-matrix trick when A is singular.
        try:
            x_inf = np.linalg.solve(config.A, -config.B)
            offset = x_inf - phi @ x_inf
        except np.linalg.LinAlgError:
            # Augment: d/dt [x; 1] = [[A, B], [0, 0]] [x; 1].
            augmented = np.zeros((config.n + 1, config.n + 1))
            augmented[: config.n, : config.n] = config.A
            augmented[: config.n, config.n] = config.B
            phi_aug = expm(augmented * h)
            phi = phi_aug[: config.n, : config.n]
            offset = phi_aug[: config.n, config.n]
        self._cache[cache_key] = (phi, offset)
        return phi, offset

    def advance(self, x: np.ndarray, key: Hashable, h: float) -> np.ndarray:
        """Exact state after spending ``h`` seconds in configuration
        ``key``."""
        if key not in self.configs:
            raise SolverError(f"unknown configuration {key!r}")
        if h < 0:
            raise SolverError("segment duration must be non-negative")
        if h == 0:
            return np.asarray(x, dtype=float)
        phi, offset = self._transition(key, h)
        self.segment_count += 1
        return phi @ np.asarray(x, dtype=float) + offset

    def sample_segment(self, x: np.ndarray, key: Hashable, h: float,
                       points: int) -> tuple[np.ndarray, np.ndarray]:
        """States at ``points`` equidistant times within a segment
        (excluding t=0, including t=h)."""
        dt = h / points
        out = np.empty((points, self.n))
        state = np.asarray(x, dtype=float)
        for k in range(points):
            state = self.advance(state, key, dt)
            out[k] = state
        times = dt * np.arange(1, points + 1)
        return times, out

    def steady_state(self, schedule: Sequence[tuple[Hashable, float]],
                     max_iterations: int = 10000,
                     tolerance: float = 1e-12) -> np.ndarray:
        """Periodic steady state of a repeating segment schedule.

        One period maps ``x -> M x + c`` (both obtained by composing the
        cached segment transitions); the fixed point solves
        ``(I - M) x = c`` directly.
        """
        M = np.eye(self.n)
        c = np.zeros(self.n)
        for key, h in schedule:
            phi, offset = self._transition(key, h)
            M = phi @ M
            c = phi @ c + offset
        try:
            return np.linalg.solve(np.eye(self.n) - M, c)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                "periodic map is singular (undamped circuit?)"
            ) from exc


def run_schedule(
    solver: PwlSolver,
    schedule: Sequence[tuple[Hashable, float]],
    x0: np.ndarray,
    samples_per_segment: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate a segment schedule, sampling within each segment.

    Returns ``(times, states)`` including the initial point.
    """
    times = [0.0]
    states = [np.asarray(x0, dtype=float)]
    t = 0.0
    x = states[0]
    for key, h in schedule:
        seg_times, seg_states = solver.sample_segment(
            x, key, h, samples_per_segment
        )
        times.extend(t + seg_times)
        states.extend(seg_states)
        t += h
        x = seg_states[-1]
    return np.asarray(times), np.asarray(states)
