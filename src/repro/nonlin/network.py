"""Nonlinear conservative-law networks.

A :class:`NonlinearNetwork` extends the linear ELN network with
nonlinear devices.  Assembly produces an
:class:`~repro.ct.nonlinear.NonlinearSystem` in charge form:

    d/dt [C0 x + q_nl(x)] + G0 x + i_nl(x) - b(t) = 0

where ``C0``/``G0``/``b`` come from the linear MNA stamps and the
``_nl`` terms from the devices.  The resulting system plugs directly
into DC (with gmin homotopy), variable-step transient, AC linearization
at the operating point, and the TDF synchronization layer — the paper's
Phase 2 ("support of non linear DAEs and their simulation using variable
time steps").
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ElaborationError
from ..ct.nonlinear import NonlinearSystem
from ..eln.network import GROUND, Network, NetworkIndex
from .devices import NonlinearDevice


class MnaNonlinearSystem(NonlinearSystem):
    """Charge-form nonlinear DAE assembled from MNA matrices + devices."""

    def __init__(self, C0: np.ndarray, G0: np.ndarray, source,
                 devices: list[NonlinearDevice]):
        super().__init__(C0.shape[0])
        self.C0 = C0
        self.G0 = G0
        self.source = source
        self.devices = devices
        #: source-stepping homotopy knob: scales the independent-source
        #: vector ``b(t)`` (see :func:`repro.resilience.homotopy.
        #: source_stepping`).  1.0 is the real circuit.
        self.source_scale = 1.0

    def charge(self, x):
        q = self.C0 @ x
        for device in self.devices:
            device.add_charge(x, q)
        return q

    def charge_jacobian(self, x):
        c = self.C0.copy()
        for device in self.devices:
            device.add_charge_jacobian(x, c)
        return c

    def static(self, x, t):
        f = self.G0 @ x \
            - self.source_scale * np.asarray(self.source(t), dtype=float)
        for device in self.devices:
            device.add_static(x, t, f)
        return f

    def static_jacobian(self, x, t):
        jac = self.G0.copy()
        for device in self.devices:
            device.add_static_jacobian(x, t, jac)
        return jac


class NonlinearNetwork(Network):
    """An electrical network with both linear components and nonlinear
    devices.

    Linear primitives (R, L, C, sources, controlled sources, ...) are
    added with :meth:`add`; nonlinear devices with :meth:`add_device`.
    A device-only node still creates an unknown.
    """

    def __init__(self, name: str = "nonlinear_network"):
        super().__init__(name)
        self.devices: list[NonlinearDevice] = []

    def add_device(self, device: NonlinearDevice) -> NonlinearDevice:
        if device.name in self._names:
            raise ElaborationError(
                f"duplicate component name {device.name!r} in network "
                f"{self.name!r}"
            )
        self._names.add(device.name)
        self.devices.append(device)
        return device

    def node_names(self) -> list[str]:
        seen = super().node_names()
        for device in self.devices:
            for node in device.nodes:
                if node != GROUND and node not in seen:
                    seen.append(node)
        return seen

    def assemble_nonlinear(self) -> tuple[MnaNonlinearSystem, NetworkIndex]:
        """Build the charge-form nonlinear DAE plus the name index."""
        if not self.components and not self.devices:
            raise ElaborationError(f"network {self.name!r} is empty")
        if not self.components:
            raise ElaborationError(
                f"network {self.name!r} needs at least one linear "
                "component (typically a source) to anchor the MNA system"
            )
        dae, index = self.assemble()

        def node_of(name: str) -> int:
            if name == GROUND:
                return -1
            return index.node_index[name]

        for device in self.devices:
            device.resolve(node_of)
        system = MnaNonlinearSystem(dae.C, dae.G, dae.source, self.devices)
        return system, index
