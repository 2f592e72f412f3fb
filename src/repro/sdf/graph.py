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

The analysis itself — :func:`solve_balance`, :func:`simulate_tokens`
and :func:`zero_delay_cycles` — works on plain ``(src, produce, dst,
consume, tokens)`` edge tuples over any hashable nodes, so the same
code serves :class:`SdfGraph`, TDF cluster elaboration and the static
verifier.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Any, Callable, Hashable, Optional, Sequence

from ..core.errors import ElaborationError, SchedulingError

#: ``(src, produce, dst, consume, tokens)``: ``src`` produces
#: ``produce`` tokens per firing onto an edge holding ``tokens``
#: initial tokens, of which ``dst`` consumes ``consume`` per firing.
PlainEdge = tuple[Hashable, int, Hashable, int, int]


def solve_balance(nodes: Sequence[Hashable], edges: Sequence[PlainEdge]
                  ) -> tuple[dict, list]:
    """Solve the balance equations ``r[src] * produce == r[dst] *
    consume`` by traversal from each unvisited node in ``nodes`` order.

    Returns ``(repetitions, conflicts)``: the smallest positive integer
    firing count per node, and every ``(node, ratio, implied)`` where
    the traversal reached ``node`` with a second relative firing rate,
    in traversal order.  ``repetitions`` is empty when any conflict
    exists.
    """
    ratio: dict = {node: None for node in nodes}
    adjacency: dict = {node: [] for node in nodes}
    for src, produce, dst, consume, _tokens in edges:
        factor = Fraction(produce, consume)
        adjacency[src].append((dst, factor))
        adjacency[dst].append((src, 1 / factor))
    conflicts = []
    for seed in nodes:
        if ratio[seed] is not None:
            continue
        ratio[seed] = Fraction(1)
        stack = [seed]
        while stack:
            node = stack.pop()
            for neighbor, factor in adjacency[node]:
                implied = ratio[node] * factor
                if ratio[neighbor] is None:
                    ratio[neighbor] = implied
                    stack.append(neighbor)
                elif ratio[neighbor] != implied:
                    conflicts.append((neighbor, ratio[neighbor], implied))
    if conflicts:
        return {}, conflicts
    scale = lcm(*(value.denominator for value in ratio.values()))
    counts = {node: int(value * scale) for node, value in ratio.items()}
    divisor = gcd(*counts.values())
    return {node: count // divisor for node, count in counts.items()}, []


def simulate_tokens(nodes: Sequence[Hashable], edges: Sequence[PlainEdge],
                    firings: dict) -> tuple[list, list, list]:
    """Greedy token simulation of a rate-consistent graph.

    Sweeps ``nodes`` in order, firing each node as often in a row as its
    input tokens and its remaining count (``firings[node]`` in all)
    allow, until every node is done or no node can fire.  Returns
    ``(entries, stuck, peak)``:

    * ``entries`` — ``(node, run_length, fusable)`` per run of
      consecutive firings; ``fusable`` is True when every input edge
      held the run's whole demand before the run (a block call that
      reads its input up front is then legal);
    * ``stuck`` — the nodes left with firings to do (a deadlock), in
      ``nodes`` order;
    * ``peak`` — each edge's peak token occupancy, by edge position.

    A run is fired in one step: its length is the smallest
    ``tokens // consume`` over input edges from other nodes, and the
    node fires only when that is positive (an edge starts negative
    under a negative delay).  A self-loop edge has ``produce ==
    consume`` on a rate-consistent graph, so its token count never
    changes and it only decides whether the node fires at all.
    """
    tokens = [edge[4] for edge in edges]
    peak = list(tokens)
    remaining = dict(firings)
    inputs_of: dict = {node: [] for node in nodes}
    outputs_of: dict = {node: [] for node in nodes}
    for k, (src, produce, dst, consume, _tokens) in enumerate(edges):
        inputs_of[dst].append((k, consume, src == dst))
        if src != dst:
            outputs_of[src].append((k, produce))
    entries: list = []
    progress = True
    while progress and any(remaining.values()):
        progress = False
        for node in nodes:
            fired = remaining[node]
            for k, consume, loop in inputs_of[node]:
                if not loop:
                    fired = min(fired, tokens[k] // consume)
                elif tokens[k] < consume:
                    fired = 0
            if fired <= 0:
                continue
            progress = True
            remaining[node] -= fired
            fusable = True
            for k, consume, loop in inputs_of[node]:
                fusable = fusable and tokens[k] >= fired * consume
                if not loop:
                    tokens[k] -= fired * consume
            for k, produce in outputs_of[node]:
                tokens[k] += fired * produce
                peak[k] = max(peak[k], tokens[k])
            entries.append((node, fired, fusable))
    stuck = [node for node in nodes if remaining[node]]
    return entries, stuck, peak


def dependency_graph(nodes: Sequence[Hashable], edges: Sequence[PlainEdge],
                     name: Callable[[Any], str]):
    """The node dependency digraph over ``name(node)`` labels: the
    edges lacking the initial tokens one ``dst`` firing needs, as a
    networkx DiGraph."""
    import networkx as nx

    digraph = nx.DiGraph()
    for node in nodes:
        digraph.add_node(name(node))
    for src, _produce, dst, consume, tokens in edges:
        if tokens < consume:
            digraph.add_edge(name(src), name(dst))
    return digraph


def zero_delay_cycles(nodes: Sequence[Hashable],
                      edges: Sequence[PlainEdge],
                      name: Callable[[Any], str]) -> list[list[str]]:
    """Cycles of the :func:`dependency_graph`, each as sorted labels —
    the structural cause of scheduling deadlocks."""
    import networkx as nx

    return [sorted(cycle) for cycle in
            nx.simple_cycles(dependency_graph(nodes, edges, name))]


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

    # -- rate analysis and scheduling ------------------------------------------

    def _plain_edges(self) -> list[PlainEdge]:
        return [(e.src, e.produce_rate, e.dst, e.consume_rate,
                 len(e.initial_tokens)) for e in self.edges]

    def repetition_vector(self) -> dict[Actor, int]:
        """Solve the balance equations.

        Returns the smallest positive integer repetition count per actor.
        Raises :class:`SchedulingError` if the graph is rate-inconsistent
        (the equations only admit the zero solution).
        """
        repetitions, conflicts = solve_balance(self.actors,
                                               self._plain_edges())
        if conflicts:
            actor, ratio, implied = conflicts[0]
            raise SchedulingError(
                f"graph {self.name!r} is rate-inconsistent at "
                f"actor {actor.name!r}: {ratio} vs {implied}"
            )
        return repetitions

    def token_run(self) -> tuple[list, list[Actor], list[int]]:
        """Token-simulate one schedule period without touching the
        graph: ``(entries, stuck, peak)`` as :func:`simulate_tokens`
        returns them.  Raises :class:`SchedulingError` if the graph is
        rate-inconsistent."""
        return simulate_tokens(self.actors, self._plain_edges(),
                               self.repetition_vector())

    def schedule(self) -> list[Actor]:
        """Construct a PASS by symbolic execution of token counts.

        Raises :class:`SchedulingError` on deadlock (insufficient initial
        tokens on a cycle).
        """
        if self._schedule is not None:
            return self._schedule
        entries, stuck, _peak = self.token_run()
        if stuck:
            cycles = self.zero_delay_cycles()
            hint = (f"; zero-delay cycles needing initial tokens: "
                    f"{cycles}" if cycles else "")
            raise SchedulingError(
                f"graph {self.name!r} deadlocks; actors never fired to "
                f"completion: {[a.name for a in stuck]}{hint}"
            )
        self._schedule = [actor for actor, count, _fusable in entries
                          for _ in range(count)]
        return self._schedule

    def dependency_graph(self):
        """The actor-level dependency digraph (edges lacking enough
        initial tokens to satisfy one firing), as a networkx DiGraph."""
        return dependency_graph(self.actors, self._plain_edges(),
                                _actor_name)

    def zero_delay_cycles(self) -> list[list[str]]:
        """Actor-name cycles with insufficient initial tokens — the
        structural cause of scheduling deadlocks."""
        return zero_delay_cycles(self.actors, self._plain_edges(),
                                 _actor_name)

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


def _actor_name(actor: Actor) -> str:
    return actor.name
