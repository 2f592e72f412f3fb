"""Read-only model view the verifier rules analyze.

:func:`build_context` walks an *elaborated-but-not-run* (or even
never-elaborated) design and precomputes the shared structure every
rule needs: TDF clusters (:class:`~repro.tdf.TdfCluster` objects built
without elaborating, whose static analysis — the one elaboration runs —
records findings instead of raising), embedded electrical networks,
embedded SDF graphs, DE ports, clocks, and processes.  Standalone
:class:`~repro.eln.Network` and :class:`~repro.sdf.SdfGraph` objects
get minimal contexts of their own so they can be verified outside any
module hierarchy.

Building a context is almost side-effect free: the only model mutation
is calling ``set_attributes()`` on TDF modules (needed to learn rates
and requested timesteps) and back-filling ``port.module`` owner links —
both idempotent, and both repeated harmlessly by a later real
elaboration.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..core.clock import Clock
from ..core.module import Module
from ..core.port import Port
from ..core.process import Process
from ..eln.network import Network
from ..sdf.graph import SdfGraph
from ..tdf.cluster import TdfCluster, _discover_clusters
from ..tdf.module import TdfModule
from .diagnostics import Diagnostic


class VerifyContext:
    """Everything the rules see.  Collections a given model does not
    use are simply empty, so one rule set covers whole hierarchies and
    standalone networks / graphs alike."""

    def __init__(self) -> None:
        self.top: Optional[Module] = None
        self.modules: List[Module] = []
        self.tdf_modules: List[TdfModule] = []
        self.clusters: List[TdfCluster] = []
        #: (location, network) pairs, deduplicated by identity.
        self.networks: List[Tuple[str, Network]] = []
        #: (location, graph) pairs, deduplicated by identity.
        self.sdf_graphs: List[Tuple[str, SdfGraph]] = []
        #: (owner module, attribute name, port) for every DE port.
        self.de_ports: List[Tuple[Module, str, Port]] = []
        self.clocks: List[Clock] = []
        self.processes: List[Process] = []
        #: Findings made while building the context itself.
        self.setup_diagnostics: List[Diagnostic] = []
        #: (label, callable) pairs of extra code the CODE rules lint:
        #: campaign ``build``/``run`` functions attached via the
        #: ``extra_code`` parameter of the verify entry points.
        self.code_callables: List[Tuple[str, Any]] = []

    # -- diagnostic factory ---------------------------------------------------

    @staticmethod
    def diag(rule: str, severity: str, location: str, message: str,
             hint: str = "", file: str = "", line: int = 0,
             **data: Any) -> Diagnostic:
        return Diagnostic(rule=rule, severity=severity,
                          location=location, message=message,
                          hint=hint, data=data, file=file, line=line)


def build_context(top: Module) -> VerifyContext:
    """Analyze a module hierarchy (elaborated or not)."""
    ctx = VerifyContext()
    ctx.top = top
    ctx.modules = list(top.walk())
    seen_networks: set[int] = set()
    seen_graphs: set[int] = set()
    for module in ctx.modules:
        ctx.processes.extend(module._processes)
        if isinstance(module, Clock):
            ctx.clocks.append(module)
        if isinstance(module, TdfModule):
            ctx.tdf_modules.append(module)
            try:
                module.set_attributes()
            except Exception as exc:
                ctx.setup_diagnostics.append(ctx.diag(
                    "VERIFY000", "error", module.full_name(),
                    f"set_attributes() raised "
                    f"{type(exc).__name__}: {exc}",
                    hint="fix the module's attribute declarations "
                         "before any structural check can run",
                ))
            for port in module.tdf_ports():
                port.module = module
            for converter in module.converter_ports():
                converter.module = module
        for attr, value in vars(module).items():
            if isinstance(value, Port):
                ctx.de_ports.append((module, attr, value))
            elif isinstance(value, Network):
                if id(value) not in seen_networks:
                    seen_networks.add(id(value))
                    ctx.networks.append((module.full_name(), value))
            elif isinstance(value, SdfGraph):
                if id(value) not in seen_graphs:
                    seen_graphs.add(id(value))
                    ctx.sdf_graphs.append((module.full_name(), value))
    for k, members in enumerate(_discover_clusters(ctx.tdf_modules)):
        cluster = TdfCluster(f"cluster{k}", members)
        cluster.analyze()
        ctx.clusters.append(cluster)
    return ctx


def network_context(network: Network,
                    location: str = "") -> VerifyContext:
    """Context over one standalone electrical network."""
    ctx = VerifyContext()
    ctx.networks.append((location or network.name, network))
    return ctx


def sdf_context(graph: SdfGraph, location: str = "") -> VerifyContext:
    """Context over one standalone SDF graph."""
    ctx = VerifyContext()
    ctx.sdf_graphs.append((location or graph.name, graph))
    return ctx
