"""Synchronous dataflow graphs.

Implements the SDF model of computation the paper describes: a directed
graph whose vertices are computations and whose edges carry totally
ordered token streams.  Each actor consumes and produces a fixed number
of tokens per firing, so the balance equations

    r[src] * produce_rate(edge) == r[dst] * consume_rate(edge)

admit a smallest positive integer solution — the *repetition vector* —
whenever the graph is rate-consistent, and a finite static schedule
(a periodic admissible sequential schedule, PASS) can be constructed by
symbolic execution.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from ..core.errors import ElaborationError, SchedulingError


class Actor:
    """An SDF computation vertex.

    Subclasses declare port rates via ``input_rates`` / ``output_rates``
    (name → tokens per firing) and implement :meth:`fire`, which receives
    a dict of input-token lists (one list per input port, of length equal
    to the port rate) and returns a dict of output-token lists.
    """

    def __init__(
        self,
        name: str,
        input_rates: Optional[dict[str, int]] = None,
        output_rates: Optional[dict[str, int]] = None,
    ):
        self.name = name
        self.input_rates = dict(input_rates or {})
        self.output_rates = dict(output_rates or {})
        for port, rate in {**self.input_rates, **self.output_rates}.items():
            if rate <= 0:
                raise ElaborationError(
                    f"actor {name!r} port {port!r} has non-positive rate {rate}"
                )
        self.fire_count = 0

    def fire(self, inputs: dict[str, list]) -> dict[str, list]:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear internal state before a fresh execution."""
        self.fire_count = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class Edge:
    """A token buffer connecting one producer port to one consumer port."""

    __slots__ = (
        "src", "src_port", "dst", "dst_port", "initial_tokens",
        "tokens", "max_occupancy",
    )

    def __init__(self, src: Actor, src_port: str, dst: Actor, dst_port: str,
                 initial_tokens: Sequence = ()):
        self.src = src
        self.src_port = src_port
        self.dst = dst
        self.dst_port = dst_port
        self.initial_tokens = list(initial_tokens)
        self.tokens: list = list(initial_tokens)
        self.max_occupancy = len(self.tokens)

    @property
    def produce_rate(self) -> int:
        return self.src.output_rates[self.src_port]

    @property
    def consume_rate(self) -> int:
        return self.dst.input_rates[self.dst_port]

    def push(self, values: list) -> None:
        self.tokens.extend(values)
        self.max_occupancy = max(self.max_occupancy, len(self.tokens))

    def pop(self, count: int) -> list:
        taken, self.tokens = self.tokens[:count], self.tokens[count:]
        return taken

    def reset(self) -> None:
        self.tokens = list(self.initial_tokens)
        self.max_occupancy = len(self.tokens)


class SdfGraph:
    """A synchronous dataflow graph with rate analysis and scheduling."""

    def __init__(self, name: str = "sdf"):
        self.name = name
        self.actors: list[Actor] = []
        self.edges: list[Edge] = []
        self._schedule: Optional[list[Actor]] = None

    # -- construction --------------------------------------------------------

    def add(self, actor: Actor) -> Actor:
        if any(a.name == actor.name for a in self.actors):
            raise ElaborationError(f"duplicate actor name {actor.name!r}")
        self.actors.append(actor)
        self._schedule = None
        return actor

    def connect(self, src: Actor, src_port: str, dst: Actor, dst_port: str,
                initial_tokens: Sequence = ()) -> Edge:
        for actor in (src, dst):
            if actor not in self.actors:
                self.add(actor)
        if src_port not in src.output_rates:
            raise ElaborationError(
                f"actor {src.name!r} has no output port {src_port!r}"
            )
        if dst_port not in dst.input_rates:
            raise ElaborationError(
                f"actor {dst.name!r} has no input port {dst_port!r}"
            )
        if any(e.dst is dst and e.dst_port == dst_port for e in self.edges):
            raise ElaborationError(
                f"input port {dst.name}.{dst_port} already driven"
            )
        edge = Edge(src, src_port, dst, dst_port, initial_tokens)
        self.edges.append(edge)
        self._schedule = None
        return edge

    # -- rate analysis --------------------------------------------------------

    def repetition_vector(self) -> dict[Actor, int]:
        """Solve the balance equations.

        Returns the smallest positive integer repetition count per actor.
        Raises :class:`SchedulingError` if the graph is rate-inconsistent
        (the equations only admit the zero solution).
        """
        if not self.actors:
            return {}
        ratio: dict[Actor, Optional[Fraction]] = {a: None for a in self.actors}
        adjacency: dict[Actor, list[tuple[Actor, Fraction]]] = {
            a: [] for a in self.actors
        }
        for edge in self.edges:
            factor = Fraction(edge.produce_rate, edge.consume_rate)
            adjacency[edge.src].append((edge.dst, factor))
            adjacency[edge.dst].append((edge.src, 1 / factor))
        for seed in self.actors:
            if ratio[seed] is not None:
                continue
            ratio[seed] = Fraction(1)
            stack = [seed]
            while stack:
                actor = stack.pop()
                for neighbor, factor in adjacency[actor]:
                    implied = ratio[actor] * factor
                    if ratio[neighbor] is None:
                        ratio[neighbor] = implied
                        stack.append(neighbor)
                    elif ratio[neighbor] != implied:
                        raise SchedulingError(
                            f"graph {self.name!r} is rate-inconsistent at "
                            f"actor {neighbor.name!r}: {ratio[neighbor]} vs "
                            f"{implied}"
                        )
        denominator_lcm = 1
        for value in ratio.values():
            denominator_lcm = _lcm(denominator_lcm, value.denominator)
        counts = {a: int(r * denominator_lcm) for a, r in ratio.items()}
        overall_gcd = 0
        for count in counts.values():
            overall_gcd = gcd(overall_gcd, count)
        return {a: c // overall_gcd for a, c in counts.items()}

    # -- scheduling ------------------------------------------------------------

    def schedule(self) -> list[Actor]:
        """Construct a PASS by symbolic execution of token counts.

        Raises :class:`SchedulingError` on deadlock (insufficient initial
        tokens on a cycle).
        """
        if self._schedule is not None:
            return self._schedule
        repetitions = self.repetition_vector()
        counts = {id(e): len(e.initial_tokens) for e in self.edges}
        remaining = dict(repetitions)
        inputs_of: dict[Actor, list[Edge]] = {a: [] for a in self.actors}
        outputs_of: dict[Actor, list[Edge]] = {a: [] for a in self.actors}
        for edge in self.edges:
            inputs_of[edge.dst].append(edge)
            outputs_of[edge.src].append(edge)
        order: list[Actor] = []
        progress = True
        while progress and any(remaining.values()):
            progress = False
            for actor in self.actors:
                while remaining[actor] > 0 and all(
                    counts[id(e)] >= e.consume_rate for e in inputs_of[actor]
                ):
                    for e in inputs_of[actor]:
                        counts[id(e)] -= e.consume_rate
                    for e in outputs_of[actor]:
                        counts[id(e)] += e.produce_rate
                    remaining[actor] -= 1
                    order.append(actor)
                    progress = True
        if any(remaining.values()):
            stuck = [a.name for a, r in remaining.items() if r > 0]
            cycles = self.zero_delay_cycles()
            hint = (f"; zero-delay cycles needing initial tokens: "
                    f"{cycles}" if cycles else "")
            raise SchedulingError(
                f"graph {self.name!r} deadlocks; actors never fired to "
                f"completion: {stuck}{hint}"
            )
        self._schedule = order
        return order

    def dependency_graph(self):
        """The actor-level dependency digraph (edges lacking enough
        initial tokens to satisfy one firing), as a networkx DiGraph."""
        import networkx as nx

        digraph = nx.DiGraph()
        for actor in self.actors:
            digraph.add_node(actor.name)
        for edge in self.edges:
            if len(edge.initial_tokens) < edge.consume_rate:
                digraph.add_edge(edge.src.name, edge.dst.name)
        return digraph

    def zero_delay_cycles(self) -> list[list[str]]:
        """Actor-name cycles with insufficient initial tokens — the
        structural cause of scheduling deadlocks."""
        import networkx as nx

        return [sorted(cycle) for cycle in
                nx.simple_cycles(self.dependency_graph())]

    # -- execution --------------------------------------------------------------

    def run(self, iterations: int = 1) -> None:
        """Execute ``iterations`` full schedule periods."""
        order = self.schedule()
        inputs_of: dict[int, list[Edge]] = {}
        outputs_of: dict[int, list[Edge]] = {}
        for edge in self.edges:
            inputs_of.setdefault(id(edge.dst), []).append(edge)
            outputs_of.setdefault(id(edge.src), []).append(edge)
        for _ in range(iterations):
            for actor in order:
                tokens = {
                    e.dst_port: e.pop(e.consume_rate)
                    for e in inputs_of.get(id(actor), [])
                }
                produced = actor.fire(tokens) or {}
                actor.fire_count += 1
                for e in outputs_of.get(id(actor), []):
                    values = produced.get(e.src_port)
                    if values is None or len(values) != e.produce_rate:
                        raise SchedulingError(
                            f"actor {actor.name!r} produced "
                            f"{0 if values is None else len(values)} tokens "
                            f"on {e.src_port!r}; declared rate is "
                            f"{e.produce_rate}"
                        )
                    e.push(values)

    def reset(self) -> None:
        for actor in self.actors:
            actor.reset()
        for edge in self.edges:
            edge.reset()

    def buffer_bounds(self) -> dict[str, int]:
        """Maximum observed occupancy per edge (after a run)."""
        return {
            f"{e.src.name}.{e.src_port}->{e.dst.name}.{e.dst_port}":
                e.max_occupancy
            for e in self.edges
        }


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)
