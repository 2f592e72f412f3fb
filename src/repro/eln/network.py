"""Electrical linear networks and Modified Nodal Analysis.

The paper requires conservative-law modeling "as linear network
macromodels based on simple electrical R, L, C, and controled source
primitives", with the system of equations "generated from a network using
the Modified Nodal Analysis method".  A :class:`Network` collects
components connected between named nodes; :meth:`Network.assemble`
produces the ``C x' + G x = b(t)`` matrices consumed by the
:mod:`repro.ct` solvers for DC, AC, transient, and noise analyses.

Unknown ordering: node voltages first (ground eliminated), then one
branch current per component that introduces a current unknown
(voltage sources, inductors, ideal transformers, short-style probes).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..core.errors import ElaborationError, SolverError
from ..ct.linear import LinearDae
from ..ct.noise import NoiseSource

#: The reference node name.
GROUND = "0"


class Component:
    """Base class for network primitives.

    Subclasses declare ``nodes`` (names), whether they need a branch
    current unknown (:attr:`needs_current`), and implement :meth:`stamp`.
    """

    needs_current = False

    def __init__(self, name: str, nodes: Sequence[str]):
        self.name = name
        self.nodes = [str(n) for n in nodes]

    def stamp(self, stamper: "Stamper") -> None:
        raise NotImplementedError

    def noise_sources(self, stamper: "Stamper") -> list[NoiseSource]:
        """Noise injections contributed by this component (default none)."""
        return []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, {self.nodes})"


class Stamper:
    """Index bookkeeping plus stamping surface handed to components.

    Stamps accumulate as COO triplet lists; :attr:`G` / :attr:`C`
    materialize them densely on access (accumulating in stamp order, so
    the result is bit-identical to in-place ``+=`` stamping), while
    :meth:`sparse_matrices` folds them into ``scipy.sparse`` CSR
    matrices, optionally reusing a cached symbolic pattern.
    """

    def __init__(self, node_index: dict[str, int],
                 current_index: dict[str, int], size: int):
        self._node_index = node_index
        self._current_index = current_index
        self.size = size
        self._g_rows: list[int] = []
        self._g_cols: list[int] = []
        self._g_vals: list[float] = []
        self._c_rows: list[int] = []
        self._c_cols: list[int] = []
        self._c_vals: list[float] = []
        #: time-dependent source contributions: (row, waveform, scale)
        #: triples — the row accumulates ``scale * waveform(t)``.
        self.sources: list[
            tuple[int, Callable[[float], float], float]
        ] = []

    # -- index resolution ---------------------------------------------------

    def node(self, name: str) -> int:
        """Matrix row/column of a node voltage; -1 denotes ground."""
        if name == GROUND:
            return -1
        return self._node_index[name]

    def branch(self, component_name: str) -> int:
        """Matrix row/column of a component's branch-current unknown."""
        return self._current_index[component_name]

    # -- primitive stamps ------------------------------------------------------

    def conductance(self, a: int, b: int, g: float) -> None:
        """Stamp a conductance ``g`` between unknowns ``a`` and ``b``."""
        if a >= 0:
            self.g_entry(a, a, g)
        if b >= 0:
            self.g_entry(b, b, g)
        if a >= 0 and b >= 0:
            self.g_entry(a, b, -g)
            self.g_entry(b, a, -g)

    def capacitance(self, a: int, b: int, c: float) -> None:
        if a >= 0:
            self.c_entry(a, a, c)
        if b >= 0:
            self.c_entry(b, b, c)
        if a >= 0 and b >= 0:
            self.c_entry(a, b, -c)
            self.c_entry(b, a, -c)

    def g_entry(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            self._g_rows.append(row)
            self._g_cols.append(col)
            self._g_vals.append(value)

    def c_entry(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            self._c_rows.append(row)
            self._c_cols.append(col)
            self._c_vals.append(value)

    def source_entry(self, row: int,
                     waveform: Callable[[float], float],
                     scale: float = 1.0) -> None:
        if row >= 0:
            self.sources.append((row, waveform, scale))

    # -- matrix materialization ------------------------------------------------

    def _dense(self, rows, cols, vals) -> np.ndarray:
        out = np.zeros((self.size, self.size))
        if rows:
            # np.add.at applies contributions in index order — the same
            # accumulation order (and therefore the same rounding) as
            # sequential += stamping.
            np.add.at(out, (np.asarray(rows), np.asarray(cols)),
                      np.asarray(vals))
        return out

    @property
    def G(self) -> np.ndarray:
        """Dense conductance matrix (materialized from the triplets)."""
        return self._dense(self._g_rows, self._g_cols, self._g_vals)

    @property
    def C(self) -> np.ndarray:
        """Dense capacitance matrix (materialized from the triplets)."""
        return self._dense(self._c_rows, self._c_cols, self._c_vals)

    @staticmethod
    def _fold_pattern(rows: np.ndarray, cols: np.ndarray) -> dict:
        """Symbolic analysis of a triplet pattern: which unique (row,
        col) slot every triplet lands in, in stamp order."""
        order = np.lexsort((cols, rows))
        sr, sc = rows[order], cols[order]
        if len(order):
            keep = np.concatenate(
                ([True], (sr[1:] != sr[:-1]) | (sc[1:] != sc[:-1]))
            )
            slot_sorted = np.cumsum(keep) - 1
        else:
            keep = np.zeros(0, dtype=bool)
            slot_sorted = np.zeros(0, dtype=np.intp)
        slot = np.empty(len(order), dtype=np.intp)
        slot[order] = slot_sorted
        return {
            "rows": rows, "cols": cols, "slot": slot,
            "urows": sr[keep], "ucols": sc[keep],
            "nnz": int(keep.sum()),
        }

    def _fold(self, rows, cols, vals, pattern: Optional[dict]):
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        vals = np.asarray(vals, dtype=float)
        if (pattern is None
                or not np.array_equal(pattern["rows"], rows)
                or not np.array_equal(pattern["cols"], cols)):
            pattern = self._fold_pattern(rows, cols)
        data = np.zeros(pattern["nnz"])
        # add.at over the slot map accumulates duplicates in stamp
        # order, exactly like dense += stamping.
        np.add.at(data, pattern["slot"], vals)
        matrix = sp.coo_matrix(
            (data, (pattern["urows"], pattern["ucols"])),
            shape=(self.size, self.size),
        ).tocsr()
        return matrix, pattern

    def sparse_matrices(
        self, cache: Optional[dict] = None
    ) -> tuple["sp.csr_matrix", "sp.csr_matrix", dict]:
        """``(C, G)`` as CSR matrices plus the symbolic-pattern cache.

        Pass the returned cache back on re-assembly (switch events) to
        skip the sort-and-unique symbolic analysis when the stamp
        pattern is unchanged.
        """
        cache = cache or {}
        C_mat, c_pat = self._fold(self._c_rows, self._c_cols,
                                  self._c_vals, cache.get("c"))
        G_mat, g_pat = self._fold(self._g_rows, self._g_cols,
                                  self._g_vals, cache.get("g"))
        return C_mat, G_mat, {"c": c_pat, "g": g_pat}


class Network:
    """A conservative-law electrical network."""

    def __init__(self, name: str = "network"):
        self.name = name
        self.components: list[Component] = []
        self._names: set[str] = set()
        #: symbolic-pattern cache for sparse re-assembly, keyed on the
        #: component identity tuple (switch toggles keep the pattern).
        self._assembly_cache: Optional[tuple] = None

    def add(self, component: Component) -> Component:
        if component.name in self._names:
            raise ElaborationError(
                f"duplicate component name {component.name!r} in network "
                f"{self.name!r}"
            )
        self._names.add(component.name)
        self.components.append(component)
        return component

    def node_names(self) -> list[str]:
        """All non-ground node names, in first-appearance order."""
        seen: list[str] = []
        for component in self.components:
            for node in component.nodes:
                if node != GROUND and node not in seen:
                    seen.append(node)
        return seen

    def system_size(self) -> int:
        """Unknown count of the assembled MNA system (nodes + branch
        currents) — available without assembling."""
        return len(self.node_names()) + sum(
            1 for c in self.components if c.needs_current
        )

    def assemble(
        self, sparse: bool = False
    ) -> tuple[LinearDae, "NetworkIndex"]:
        """Build the MNA system.  Returns (dae, index).

        With ``sparse=True`` the matrices are ``scipy.sparse`` CSR; the
        symbolic pattern is cached on the network, so re-assembly after
        a switch/parameter event skips the pattern analysis.
        """
        if not self.components:
            raise ElaborationError(f"network {self.name!r} is empty")
        nodes = self.node_names()
        node_index = {name: i for i, name in enumerate(nodes)}
        current_index: dict[str, int] = {}
        offset = len(nodes)
        for component in self.components:
            if component.needs_current:
                current_index[component.name] = offset
                offset += 1
        stamper = Stamper(node_index, current_index, offset)
        for component in self.components:
            component.stamp(stamper)
        source_rows = stamper.sources

        # The source closure runs once (trapezoidal: twice) per
        # timestep — the hottest allocation site in transient analysis.
        # Rotate over two preallocated buffers instead of np.zeros per
        # call: two, because the trapezoidal stepper holds b(t) and
        # b(t+h) simultaneously.  Callers that retain a result across
        # further source() calls must copy (see LinearDae.ac).
        pool = [np.zeros(offset), np.zeros(offset)]

        def source(t: float) -> np.ndarray:
            b = pool[0]
            pool[0], pool[1] = pool[1], pool[0]
            b[:] = 0.0
            for row, waveform, scale in source_rows:
                if scale == 1.0:
                    b[row] += waveform(t)
                else:
                    b[row] += scale * waveform(t)
            return b

        #: stamp-order source layout, consumed by the TDF window path
        #: to batch-evaluate b(t) without calling the closure per step.
        source.rows = tuple(source_rows)

        names = [f"v({n})" for n in nodes] + [
            f"i({c})" for c in current_index
        ]
        if sparse:
            key = tuple(id(c) for c in self.components)
            pattern = None
            if self._assembly_cache is not None \
                    and self._assembly_cache[0] == key:
                pattern = self._assembly_cache[1]
            C_mat, G_mat, pattern = stamper.sparse_matrices(pattern)
            self._assembly_cache = (key, pattern)
            dae = LinearDae(C_mat, G_mat, source, names=names)
        else:
            dae = LinearDae(stamper.C, stamper.G, source, names=names)
        index = NetworkIndex(node_index, current_index, self, stamper)
        return dae, index

    def noise_sources(self) -> tuple[list[NoiseSource], "NetworkIndex"]:
        """All component noise injections, mapped into MNA coordinates."""
        dae, index = self.assemble()
        sources: list[NoiseSource] = []
        for component in self.components:
            sources.extend(component.noise_sources(index.stamper))
        return sources, index


class NetworkIndex:
    """Maps node/branch names to rows of the assembled MNA system."""

    def __init__(self, node_index, current_index, network, stamper):
        self.node_index = dict(node_index)
        self.current_index = dict(current_index)
        self.network = network
        self.stamper = stamper
        self.size = stamper.size

    def voltage(self, x: np.ndarray, node: str) -> float:
        """Extract a node voltage from a solution vector."""
        if node == GROUND:
            return 0.0
        return float(np.asarray(x)[..., self.node_index[node]])

    def voltage_series(self, states: np.ndarray, node: str) -> np.ndarray:
        if node == GROUND:
            return np.zeros(np.asarray(states).shape[0])
        return np.asarray(states)[:, self.node_index[node]]

    def current(self, x: np.ndarray, component_name: str) -> float:
        if component_name not in self.current_index:
            raise SolverError(
                f"component {component_name!r} has no branch-current "
                "unknown; only voltage sources, inductors and probes do"
            )
        return float(np.asarray(x)[..., self.current_index[component_name]])

    def current_series(self, states: np.ndarray,
                       component_name: str) -> np.ndarray:
        if component_name not in self.current_index:
            raise SolverError(
                f"component {component_name!r} has no branch-current unknown"
            )
        return np.asarray(states)[:, self.current_index[component_name]]

    def selection_vector(self, node_plus: str,
                         node_minus: str = GROUND) -> np.ndarray:
        """A vector ``d`` with ``d @ x == v(node_plus) - v(node_minus)``."""
        d = np.zeros(self.size)
        if node_plus != GROUND:
            d[self.node_index[node_plus]] = 1.0
        if node_minus != GROUND:
            d[self.node_index[node_minus]] -= 1.0
        return d

    def injection_vector(self, node_plus: str,
                         node_minus: str = GROUND) -> np.ndarray:
        """A vector ``b`` injecting a unit current into ``node_plus`` and
        out of ``node_minus`` (for AC/noise excitations)."""
        b = np.zeros(self.size)
        if node_plus != GROUND:
            b[self.node_index[node_plus]] = 1.0
        if node_minus != GROUND:
            b[self.node_index[node_minus]] -= 1.0
        return b
