"""Small-signal noise analysis.

Each noise source is a stationary random current/voltage with a known
one-sided power spectral density injected through a mapping vector into
the linear(ized) system.  The output noise PSD at an observation vector
``d`` is

    S_out(f) = sum_k |d^T (G + j*w*C)^{-1} b_k|^2 * S_k(f)

computed efficiently with one *adjoint* solve per frequency (independent
of the number of sources) — the textbook SPICE noise-analysis method the
paper groups under "static analyses ... (including noise analysis)".
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

from ..core.errors import SolverError

#: Boltzmann constant [J/K].
BOLTZMANN = 1.380649e-23

#: Elementary charge [C].
ELEMENTARY_CHARGE = 1.602176634e-19

PsdFunction = Callable[[np.ndarray], np.ndarray]


class NoiseSource:
    """A noise injection: mapping vector plus PSD function of frequency."""

    __slots__ = ("name", "vector", "psd")

    def __init__(self, name: str, vector: np.ndarray,
                 psd: Union[float, PsdFunction]):
        self.name = name
        self.vector = np.asarray(vector, dtype=float)
        if callable(psd):
            self.psd = psd
        else:
            level = float(psd)
            self.psd = lambda f, s=level: np.full_like(
                np.asarray(f, dtype=float), s
            )


def thermal_current_psd(resistance: float,
                        temperature: float = 300.0) -> float:
    """One-sided thermal (Johnson) current-noise PSD 4kT/R [A^2/Hz]."""
    if resistance <= 0:
        raise SolverError("thermal noise requires positive resistance")
    return 4.0 * BOLTZMANN * temperature / resistance


def shot_noise_psd(dc_current: float) -> float:
    """One-sided shot-noise PSD 2qI [A^2/Hz]."""
    return 2.0 * ELEMENTARY_CHARGE * abs(dc_current)


def flicker_psd(coefficient: float, exponent: float = 1.0) -> PsdFunction:
    """1/f^alpha noise PSD: ``K / f**alpha``."""

    def psd(f):
        f = np.asarray(f, dtype=float)
        return coefficient / np.maximum(f, 1e-30) ** exponent

    return psd


def output_noise_psd(
    C: np.ndarray,
    G: np.ndarray,
    sources: Sequence[NoiseSource],
    output_vector: np.ndarray,
    frequencies: np.ndarray,
) -> np.ndarray:
    """Total output noise PSD over a frequency sweep.

    Returns an array of the same length as ``frequencies``; units are the
    square of the observed quantity per hertz (e.g. V^2/Hz).
    """
    C = np.asarray(C, dtype=float)
    G = np.asarray(G, dtype=float)
    d = np.asarray(output_vector, dtype=complex)
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    total = np.zeros(len(freqs))
    for k, f in enumerate(freqs):
        A = G + 2j * np.pi * f * C
        try:
            # Adjoint solve: y = A^{-T} d, then d^T A^{-1} b == y^T b.
            y = np.linalg.solve(A.T, d)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"singular system matrix in noise analysis at f={f}"
            ) from exc
        for source in sources:
            gain_sq = abs(y @ source.vector) ** 2
            total[k] += gain_sq * float(np.asarray(source.psd(f)))
    return total


def per_source_contributions(
    C: np.ndarray,
    G: np.ndarray,
    sources: Sequence[NoiseSource],
    output_vector: np.ndarray,
    frequencies: np.ndarray,
) -> dict[str, np.ndarray]:
    """Output-referred PSD of each source separately (for noise budgets)."""
    C = np.asarray(C, dtype=float)
    G = np.asarray(G, dtype=float)
    d = np.asarray(output_vector, dtype=complex)
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    out = {s.name: np.zeros(len(freqs)) for s in sources}
    for k, f in enumerate(freqs):
        A = G + 2j * np.pi * f * C
        y = np.linalg.solve(A.T, d)
        for source in sources:
            out[source.name][k] = (
                abs(y @ source.vector) ** 2 * float(np.asarray(source.psd(f)))
            )
    return out


def integrated_noise(frequencies: np.ndarray, psd: np.ndarray) -> float:
    """Total RMS-squared noise: trapezoidal integral of the PSD."""
    return float(np.trapezoid(psd, frequencies))


def snr_db(signal_rms: float, noise_rms: float) -> float:
    """Signal-to-noise ratio in dB from RMS amplitudes."""
    if noise_rms <= 0:
        raise SolverError("noise RMS must be positive for SNR")
    return 20.0 * np.log10(signal_rms / noise_rms)
