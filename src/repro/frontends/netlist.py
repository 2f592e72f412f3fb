"""SPICE-flavoured netlist parser.

The paper requires "a netlist interface that should be common to all
underlying continuous-time MoCs".  This parser builds a
:class:`~repro.nonlin.network.NonlinearNetwork` (a superset of the
linear network — a netlist with only linear elements can still be
assembled linearly) from text like::

    * RC lowpass with a diode clamp
    V1 in 0 SIN(0 5 1k)
    R1 in out 1k
    C1 out 0 1u
    D1 out 0 IS=1e-14 N=1
    .end

Supported cards: R, C, L, V, I (DC / SIN / PULSE), E (VCVS), G (VCCS),
H (CCVS), F (CCCS), T (ideal transformer), S (switch), D (diode),
M (NMOS).  Values accept SPICE suffixes (f p n u m k meg g t).
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np

from ..core.errors import ElaborationError
from ..eln.components import (
    Capacitor,
    Cccs,
    Ccvs,
    IdealTransformer,
    Inductor,
    Isource,
    Resistor,
    Switch,
    Vccs,
    Vcvs,
    Vsource,
)
from ..nonlin.devices import Diode, NMos
from ..nonlin.network import NonlinearNetwork


class NetlistError(ElaborationError):
    """Raised on malformed netlist input, with the offending line."""

    def __init__(self, line_number: int, line: str, reason: str):
        super().__init__(f"netlist line {line_number}: {reason}: {line!r}")
        self.line_number = line_number


_SUFFIXES = [
    ("meg", 1e6), ("t", 1e12), ("g", 1e9), ("k", 1e3), ("m", 1e-3),
    ("u", 1e-6), ("n", 1e-9), ("p", 1e-12), ("f", 1e-15),
]


def parse_value(token: str) -> float:
    """Parse a SPICE-style number: ``4.7k``, ``100n``, ``1meg``, ``2.5``."""
    text = token.strip().lower()
    for suffix, scale in _SUFFIXES:
        if text.endswith(suffix):
            return float(text[: -len(suffix)]) * scale
    return float(text)


def _parse_params(tokens: list[str]) -> dict[str, float]:
    params = {}
    for token in tokens:
        if "=" not in token:
            raise ValueError(f"expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        params[key.strip().lower()] = parse_value(value)
    return params


_SIN_RE = re.compile(r"sin\s*\(([^)]*)\)", re.IGNORECASE)
_PULSE_RE = re.compile(r"pulse\s*\(([^)]*)\)", re.IGNORECASE)


def _parse_source_spec(spec: str) -> Callable[[float], float]:
    """DC value, SIN(offset ampl freq [phase_deg]), or
    PULSE(low high delay period width)."""
    text = spec.strip()
    match = _SIN_RE.match(text)
    if match:
        args = [parse_value(v) for v in match.group(1).split()]
        if len(args) < 3:
            raise ValueError("SIN needs (offset amplitude frequency)")
        offset, amplitude, frequency = args[:3]
        phase = np.radians(args[3]) if len(args) > 3 else 0.0
        return lambda t: offset + amplitude * np.sin(
            2 * np.pi * frequency * t + phase
        )
    match = _PULSE_RE.match(text)
    if match:
        args = [parse_value(v) for v in match.group(1).split()]
        if len(args) < 5:
            raise ValueError("PULSE needs (low high delay period width)")
        low, high, delay, period, width = args[:5]

        def pulse(t: float) -> float:
            if t < delay:
                return low
            phase = (t - delay) % period
            return high if phase < width else low

        return pulse
    upper = text.upper()
    if upper.startswith("DC"):
        text = text[2:].strip()
    value = parse_value(text)
    return lambda t: value


def parse_netlist(text: str, name: str = "netlist") -> NonlinearNetwork:
    """Parse netlist ``text`` into a network."""
    network = NonlinearNetwork(name)
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";")[0].strip()
        if not line or line.startswith("*"):
            continue
        if line.startswith("."):
            if line.lower().startswith(".end"):
                break
            continue  # other directives are analysis hints; ignored here
        tokens = line.split()
        card = tokens[0]
        kind = card[0].upper()
        try:
            _dispatch(network, kind, card, tokens[1:], line)
        except NetlistError:
            raise
        except (ValueError, IndexError, ElaborationError) as exc:
            raise NetlistError(line_number, raw, str(exc)) from exc
    if not network.components and not network.devices:
        raise ElaborationError(f"netlist {name!r} contains no components")
    return network


def _dispatch(network: NonlinearNetwork, kind: str, name: str,
              args: list[str], line: str) -> None:
    if kind == "R":
        network.add(Resistor(name, args[0], args[1], parse_value(args[2])))
    elif kind == "C":
        network.add(Capacitor(name, args[0], args[1], parse_value(args[2])))
    elif kind == "L":
        network.add(Inductor(name, args[0], args[1], parse_value(args[2])))
    elif kind == "V":
        waveform = _parse_source_spec(" ".join(args[2:]))
        network.add(Vsource(name, args[0], args[1], waveform))
    elif kind == "I":
        waveform = _parse_source_spec(" ".join(args[2:]))
        network.add(Isource(name, args[0], args[1], waveform))
    elif kind == "E":
        network.add(Vcvs(name, args[0], args[1], args[2], args[3],
                         parse_value(args[4])))
    elif kind == "G":
        network.add(Vccs(name, args[0], args[1], args[2], args[3],
                         parse_value(args[4])))
    elif kind == "H":
        network.add(Ccvs(name, args[0], args[1], args[2],
                         parse_value(args[3])))
    elif kind == "F":
        network.add(Cccs(name, args[0], args[1], args[2],
                         parse_value(args[3])))
    elif kind == "T":
        network.add(IdealTransformer(name, args[0], args[1], args[2],
                                     args[3], parse_value(args[4])))
    elif kind == "S":
        state = args[2].upper()
        if state not in ("ON", "OFF"):
            raise ValueError(f"switch state must be ON or OFF, got {state}")
        params = _parse_params(args[3:])
        network.add(Switch(name, args[0], args[1], closed=state == "ON",
                           r_on=params.get("ron", 1e-3),
                           r_off=params.get("roff", 1e9)))
    elif kind == "D":
        params = _parse_params(args[2:])
        network.add_device(Diode(
            name, args[0], args[1],
            i_sat=params.get("is", 1e-14),
            emission=params.get("n", 1.0),
            junction_cap=params.get("cj", 0.0),
            transit_time=params.get("tt", 0.0),
        ))
    elif kind == "M":
        params = _parse_params(args[3:])
        network.add_device(NMos(
            name, args[0], args[1], args[2],
            k_prime=params.get("kp", 2e-3),
            vth=params.get("vth", 0.7),
            lam=params.get("lambda", 0.0),
        ))
    else:
        raise ValueError(f"unknown component kind {kind!r}")
