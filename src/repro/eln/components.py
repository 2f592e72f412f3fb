"""Electrical linear-network primitives and their MNA stamps.

The Phase 1 "electrical element library: R, L, C, sources", plus the four
controlled sources, ideal transformer, gyrator, ideal op-amp (nullor),
switch, and a zero-volt probe for current measurement.

Conventions
-----------
* Two-terminal elements take ``(positive_node, negative_node)``.
* A voltage source's branch current flows from the positive node through
  the source to the negative node.
* ``Isource`` drives its current *into* the positive node (out of the
  negative node).
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from ..core.errors import ElaborationError
from ..ct.noise import NoiseSource, thermal_current_psd
from .network import Component, Stamper

Waveform = Union[float, Callable[[float], float]]


def _as_waveform(value: Waveform) -> Waveform:
    """A callable waveform as it is, a constant as a float (the source
    closures and the TDF window read a number without a call)."""
    return value if callable(value) else float(value)


class Resistor(Component):
    """Linear resistor.  Contributes thermal noise in noise analysis."""

    def __init__(self, name: str, a: str, b: str, resistance: float,
                 temperature: float = 300.0):
        super().__init__(name, [a, b])
        if resistance <= 0:
            raise ElaborationError(
                f"resistor {name!r} must have positive resistance"
            )
        self.resistance = resistance
        self.temperature = temperature

    def stamp(self, stamper: Stamper) -> None:
        a, b = stamper.node(self.nodes[0]), stamper.node(self.nodes[1])
        stamper.conductance(a, b, 1.0 / self.resistance)

    def noise_sources(self, stamper: Stamper) -> list[NoiseSource]:
        vector = np.zeros(stamper.size)
        a, b = stamper.node(self.nodes[0]), stamper.node(self.nodes[1])
        if a >= 0:
            vector[a] = 1.0
        if b >= 0:
            vector[b] = -1.0
        psd = thermal_current_psd(self.resistance, self.temperature)
        return [NoiseSource(f"{self.name}.thermal", vector, psd)]


class Capacitor(Component):
    """Linear capacitor."""

    def __init__(self, name: str, a: str, b: str, capacitance: float):
        super().__init__(name, [a, b])
        if capacitance <= 0:
            raise ElaborationError(
                f"capacitor {name!r} must have positive capacitance"
            )
        self.capacitance = capacitance

    def stamp(self, stamper: Stamper) -> None:
        a, b = stamper.node(self.nodes[0]), stamper.node(self.nodes[1])
        stamper.capacitance(a, b, self.capacitance)


class Inductor(Component):
    """Linear inductor; introduces a branch-current unknown."""

    needs_current = True

    def __init__(self, name: str, a: str, b: str, inductance: float):
        super().__init__(name, [a, b])
        if inductance <= 0:
            raise ElaborationError(
                f"inductor {name!r} must have positive inductance"
            )
        self.inductance = inductance

    def stamp(self, stamper: Stamper) -> None:
        a, b = stamper.node(self.nodes[0]), stamper.node(self.nodes[1])
        j = stamper.branch(self.name)
        # KCL: branch current leaves node a, enters node b.
        stamper.g_entry(a, j, 1.0)
        stamper.g_entry(b, j, -1.0)
        # Branch equation: v_a - v_b - L * dj/dt = 0.
        stamper.g_entry(j, a, 1.0)
        stamper.g_entry(j, b, -1.0)
        stamper.c_entry(j, j, -self.inductance)


class Vsource(Component):
    """Independent voltage source (constant or waveform-driven)."""

    needs_current = True

    def __init__(self, name: str, p: str, n: str, voltage: Waveform = 0.0):
        super().__init__(name, [p, n])
        self.waveform = _as_waveform(voltage)

    def stamp(self, stamper: Stamper) -> None:
        p, n = stamper.node(self.nodes[0]), stamper.node(self.nodes[1])
        j = stamper.branch(self.name)
        stamper.g_entry(p, j, 1.0)
        stamper.g_entry(n, j, -1.0)
        stamper.g_entry(j, p, 1.0)
        stamper.g_entry(j, n, -1.0)
        stamper.source_entry(j, self.waveform)


class Isource(Component):
    """Independent current source driving current into its positive node."""

    def __init__(self, name: str, p: str, n: str, current: Waveform = 0.0):
        super().__init__(name, [p, n])
        self.waveform = _as_waveform(current)

    def stamp(self, stamper: Stamper) -> None:
        p, n = stamper.node(self.nodes[0]), stamper.node(self.nodes[1])
        stamper.source_entry(p, self.waveform)
        stamper.source_entry(n, self.waveform, scale=-1.0)


class Vcvs(Component):
    """Voltage-controlled voltage source: ``v(p,n) = gain * v(cp,cn)``."""

    needs_current = True

    def __init__(self, name: str, p: str, n: str, cp: str, cn: str,
                 gain: float):
        super().__init__(name, [p, n, cp, cn])
        self.gain = gain

    def stamp(self, stamper: Stamper) -> None:
        p, n, cp, cn = (stamper.node(x) for x in self.nodes)
        j = stamper.branch(self.name)
        stamper.g_entry(p, j, 1.0)
        stamper.g_entry(n, j, -1.0)
        stamper.g_entry(j, p, 1.0)
        stamper.g_entry(j, n, -1.0)
        stamper.g_entry(j, cp, -self.gain)
        stamper.g_entry(j, cn, self.gain)


class Vccs(Component):
    """Voltage-controlled current source: ``i(p->n) = gm * v(cp,cn)``."""

    def __init__(self, name: str, p: str, n: str, cp: str, cn: str,
                 transconductance: float):
        super().__init__(name, [p, n, cp, cn])
        self.transconductance = transconductance

    def stamp(self, stamper: Stamper) -> None:
        p, n, cp, cn = (stamper.node(x) for x in self.nodes)
        gm = self.transconductance
        stamper.g_entry(p, cp, gm)
        stamper.g_entry(p, cn, -gm)
        stamper.g_entry(n, cp, -gm)
        stamper.g_entry(n, cn, gm)


class Ccvs(Component):
    """Current-controlled voltage source.

    The controlling current is the branch current of another component
    (``control``), which must introduce a current unknown (a Vsource,
    Inductor, or Probe).
    """

    needs_current = True

    def __init__(self, name: str, p: str, n: str, control: str,
                 transresistance: float):
        super().__init__(name, [p, n])
        self.control = control
        self.transresistance = transresistance

    def stamp(self, stamper: Stamper) -> None:
        p, n = stamper.node(self.nodes[0]), stamper.node(self.nodes[1])
        j = stamper.branch(self.name)
        jc = stamper.branch(self.control)
        stamper.g_entry(p, j, 1.0)
        stamper.g_entry(n, j, -1.0)
        stamper.g_entry(j, p, 1.0)
        stamper.g_entry(j, n, -1.0)
        stamper.g_entry(j, jc, -self.transresistance)


class Cccs(Component):
    """Current-controlled current source: ``i(p->n) = gain * i(control)``."""

    def __init__(self, name: str, p: str, n: str, control: str, gain: float):
        super().__init__(name, [p, n])
        self.control = control
        self.gain = gain

    def stamp(self, stamper: Stamper) -> None:
        p, n = stamper.node(self.nodes[0]), stamper.node(self.nodes[1])
        jc = stamper.branch(self.control)
        stamper.g_entry(p, jc, self.gain)
        stamper.g_entry(n, jc, -self.gain)


class IdealTransformer(Component):
    """Ideal transformer: ``v1 = ratio * v2``, ``i2 = -ratio * i1``.

    Lossless (power in equals power out); one branch unknown carries the
    primary current.
    """

    needs_current = True

    def __init__(self, name: str, p1: str, n1: str, p2: str, n2: str,
                 ratio: float):
        super().__init__(name, [p1, n1, p2, n2])
        if ratio == 0:
            raise ElaborationError(f"transformer {name!r} ratio must be nonzero")
        self.ratio = ratio

    def stamp(self, stamper: Stamper) -> None:
        p1, n1, p2, n2 = (stamper.node(x) for x in self.nodes)
        j = stamper.branch(self.name)  # primary current
        stamper.g_entry(p1, j, 1.0)
        stamper.g_entry(n1, j, -1.0)
        stamper.g_entry(p2, j, -self.ratio)
        stamper.g_entry(n2, j, self.ratio)
        stamper.g_entry(j, p1, 1.0)
        stamper.g_entry(j, n1, -1.0)
        stamper.g_entry(j, p2, -self.ratio)
        stamper.g_entry(j, n2, self.ratio)


class Gyrator(Component):
    """Gyrator: ``i1 = g * v2``, ``i2 = -g * v1``.

    The standard bridge for multi-domain analogies (it converts a
    capacitance on one side into an inductance on the other).
    """

    def __init__(self, name: str, p1: str, n1: str, p2: str, n2: str,
                 conductance: float):
        super().__init__(name, [p1, n1, p2, n2])
        self.conductance = conductance

    def stamp(self, stamper: Stamper) -> None:
        p1, n1, p2, n2 = (stamper.node(x) for x in self.nodes)
        g = self.conductance
        # i into p1 = g * (v_p2 - v_n2)
        stamper.g_entry(p1, p2, g)
        stamper.g_entry(p1, n2, -g)
        stamper.g_entry(n1, p2, -g)
        stamper.g_entry(n1, n2, g)
        # i into p2 = -g * (v_p1 - v_n1)
        stamper.g_entry(p2, p1, -g)
        stamper.g_entry(p2, n1, g)
        stamper.g_entry(n2, p1, g)
        stamper.g_entry(n2, n1, -g)


class IdealOpAmp(Component):
    """Ideal operational amplifier (nullor stamp).

    Forces ``v(in_p) == v(in_n)`` and supplies whatever output current is
    needed.  Nodes: ``(in_p, in_n, out)``; output referenced to ground.
    """

    needs_current = True

    def __init__(self, name: str, in_p: str, in_n: str, out: str):
        super().__init__(name, [in_p, in_n, out])

    def stamp(self, stamper: Stamper) -> None:
        in_p, in_n, out = (stamper.node(x) for x in self.nodes)
        j = stamper.branch(self.name)  # output current
        stamper.g_entry(out, j, 1.0)
        stamper.g_entry(j, in_p, 1.0)
        stamper.g_entry(j, in_n, -1.0)


class Switch(Component):
    """Ideal switch modeled as a two-state resistor.

    Toggling :attr:`closed` changes the stamped conductance; the owning
    simulation layer must re-assemble the network after a toggle (the
    synchronization layer does this automatically for DE-driven switches).
    """

    def __init__(self, name: str, a: str, b: str, closed: bool = False,
                 r_on: float = 1e-3, r_off: float = 1e9):
        super().__init__(name, [a, b])
        if r_on <= 0 or r_off <= 0:
            raise ElaborationError(f"switch {name!r} resistances must be positive")
        self.closed = closed
        self.r_on = r_on
        self.r_off = r_off

    @property
    def resistance(self) -> float:
        return self.r_on if self.closed else self.r_off

    def set_closed(self, closed: bool) -> bool:
        """Set the switch state; returns True when it actually changed.

        A toggle is a *value-only* event: the stamp pattern (which
        matrix entries exist) is unchanged, so the owning layer only
        needs to re-stamp and refactorize — ``LinearStepper.rebind`` /
        ``LinearTransientSolver.rebind`` — not rebuild the solver, and a
        cached sparse symbolic pattern stays valid.
        """
        closed = bool(closed)
        changed = closed != self.closed
        self.closed = closed
        return changed

    def stamp(self, stamper: Stamper) -> None:
        a, b = stamper.node(self.nodes[0]), stamper.node(self.nodes[1])
        stamper.conductance(a, b, 1.0 / self.resistance)


class Probe(Component):
    """Zero-volt source: measures the current flowing from a to b."""

    needs_current = True

    def __init__(self, name: str, a: str, b: str):
        super().__init__(name, [a, b])

    def stamp(self, stamper: Stamper) -> None:
        a, b = stamper.node(self.nodes[0]), stamper.node(self.nodes[1])
        j = stamper.branch(self.name)
        stamper.g_entry(a, j, 1.0)
        stamper.g_entry(b, j, -1.0)
        stamper.g_entry(j, a, 1.0)
        stamper.g_entry(j, b, -1.0)
