"""Convenience analyses on electrical networks.

Thin wrappers tying :class:`~repro.eln.network.Network` to the
:mod:`repro.ct` solvers so users can ask for DC, AC, transient, and noise
results by node name rather than matrix index.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..ct.noise import output_noise_psd
from .network import GROUND, Network, NetworkIndex


class DcResult:
    """DC operating point keyed by node/branch name."""

    def __init__(self, x: np.ndarray, index: NetworkIndex):
        self._x = x
        self._index = index

    def voltage(self, node: str) -> float:
        return self._index.voltage(self._x, node)

    def current(self, component: str) -> float:
        return self._index.current(self._x, component)

    @property
    def raw(self) -> np.ndarray:
        return self._x


class TransientResult:
    """Time-domain waveforms keyed by node/branch name."""

    def __init__(self, times: np.ndarray, states: np.ndarray,
                 index: NetworkIndex):
        self.times = times
        self._states = states
        self._index = index

    def voltage(self, node: str) -> np.ndarray:
        return self._index.voltage_series(self._states, node)

    def current(self, component: str) -> np.ndarray:
        return self._index.current_series(self._states, component)

    @property
    def raw(self) -> np.ndarray:
        return self._states


class AcResult:
    """Frequency-domain phasors keyed by node name."""

    def __init__(self, frequencies: np.ndarray, phasors: np.ndarray,
                 index: NetworkIndex):
        self.frequencies = frequencies
        self._phasors = phasors
        self._index = index

    def voltage(self, node: str) -> np.ndarray:
        if node == GROUND:
            return np.zeros(len(self.frequencies), dtype=complex)
        return self._phasors[:, self._index.node_index[node]]

    def current(self, component: str) -> np.ndarray:
        return self._phasors[:, self._index.current_index[component]]


def dc_analysis(network: Network) -> DcResult:
    """Compute the DC operating point of a network."""
    dae, index = network.assemble()
    return DcResult(dae.dc(), index)


def transient_analysis(
    network: Network,
    t_end: float,
    h: float,
    method: str = "trapezoidal",
    x0: Optional[np.ndarray] = None,
) -> TransientResult:
    """Fixed-timestep transient from the DC operating point (or ``x0``)."""
    dae, index = network.assemble()
    times, states = dae.transient(t_end, h, x0=x0, method=method)
    return TransientResult(times, states, index)


def ac_analysis(
    network: Network,
    frequencies: np.ndarray,
    input_source: Optional[str] = None,
) -> AcResult:
    """Small-signal AC sweep.

    With ``input_source`` given (name of a Vsource), a unit AC phasor is
    applied at that source and all other sources are zeroed; otherwise
    the DC source pattern at t=0 is used as the excitation.
    """
    dae, index = network.assemble()
    if input_source is None:
        phasors = dae.ac(frequencies)
    else:
        b_ac = np.zeros(index.size)
        b_ac[index.current_index[input_source]] = 1.0
        phasors = dae.ac(frequencies, b_ac=b_ac)
    return AcResult(np.atleast_1d(np.asarray(frequencies, dtype=float)),
                    phasors, index)


def noise_analysis(
    network: Network,
    frequencies: np.ndarray,
    output_node: str,
    reference_node: str = GROUND,
) -> np.ndarray:
    """Output noise voltage PSD [V^2/Hz] at ``output_node``."""
    dae, index = network.assemble()
    sources = []
    for component in network.components:
        sources.extend(component.noise_sources(index.stamper))
    d = index.selection_vector(output_node, reference_node)
    return output_noise_psd(dae.C, dae.G, sources, d, frequencies)
