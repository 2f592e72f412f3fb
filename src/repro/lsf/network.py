"""Linear signal-flow networks.

Signal-flow models are the paper's "best candidate" abstraction for
continuous-time system design: a directed graph whose edges are
real-valued quantities and whose vertices are linear relations.  An
:class:`LsfNetwork` collects signals and blocks; elaboration produces the
``C x' + G x = b(t)`` linear DAE (one unknown per signal plus the blocks'
internal states) solved by :mod:`repro.ct` — time domain and frequency
domain from the *same* equations, as the paper requires.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.errors import ElaborationError, SolverError
from ..ct.linear import LinearDae


class LsfSignal:
    """A continuous-time quantity (an edge of the signal-flow graph)."""

    __slots__ = ("name", "index", "driver")

    def __init__(self, name: str):
        self.name = name
        self.index: Optional[int] = None
        self.driver = None  # the block that defines this signal

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LsfSignal({self.name!r})"


class LsfBlock:
    """Base class for signal-flow vertices.

    Subclasses declare which signals they *drive* (define) and implement
    :meth:`build`, contributing equation rows via the builder.
    """

    def __init__(self, name: str):
        self.name = name

    def driven_signals(self) -> list[LsfSignal]:
        raise NotImplementedError

    def state_count(self) -> int:
        """Number of internal state unknowns this block adds."""
        return 0

    def build(self, builder: "LsfBuilder") -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class LsfBuilder:
    """Equation-assembly surface handed to blocks during elaboration."""

    def __init__(self, size: int):
        self.size = size
        self.C = np.zeros((size, size))
        self.G = np.zeros((size, size))
        self.sources: list[tuple[int, object]] = []
        self.ac_entries: list[tuple[int, float]] = []
        self._next_row = 0
        #: rows owned by integrator-style blocks, for initial-state fixup:
        #: (row, signal_index, initial_value)
        self.init_overrides: list[tuple[int, int, float]] = []
        #: block name -> base index of its internal states (set by the
        #: network during elaboration, before any build() call).
        self.state_index: dict[str, int] = {}

    def new_row(self) -> int:
        row = self._next_row
        if row >= self.size:
            raise ElaborationError(
                "signal-flow system is over-determined: more equations "
                "than unknowns"
            )
        self._next_row += 1
        return row

    def g(self, row: int, col: int, value: float) -> None:
        self.G[row, col] += value

    def c(self, row: int, col: int, value: float) -> None:
        self.C[row, col] += value

    def source(self, row: int, waveform) -> None:
        self.sources.append((row, waveform))

    def ac(self, row: int, magnitude: float) -> None:
        self.ac_entries.append((row, magnitude))


class LsfNetwork:
    """A linear signal-flow model: signals plus blocks."""

    def __init__(self, name: str = "lsf"):
        self.name = name
        self.signals: list[LsfSignal] = []
        self.blocks: list[LsfBlock] = []
        self._signal_names: set[str] = set()
        self._block_names: set[str] = set()

    def signal(self, name: str) -> LsfSignal:
        """Create (and register) a named signal."""
        if name in self._signal_names:
            raise ElaborationError(f"duplicate signal name {name!r}")
        self._signal_names.add(name)
        sig = LsfSignal(name)
        self.signals.append(sig)
        return sig

    def add(self, block: LsfBlock) -> LsfBlock:
        if block.name in self._block_names:
            raise ElaborationError(f"duplicate block name {block.name!r}")
        self._block_names.add(block.name)
        for sig in block.driven_signals():
            if sig.driver is not None:
                raise ElaborationError(
                    f"signal {sig.name!r} driven by both "
                    f"{sig.driver.name!r} and {block.name!r}"
                )
            sig.driver = block
        self.blocks.append(block)
        return block

    # -- elaboration --------------------------------------------------------

    def assemble(self) -> tuple[LinearDae, "LsfIndex"]:
        undriven = [s.name for s in self.signals if s.driver is None]
        if undriven:
            raise ElaborationError(
                f"signals with no driving block: {undriven}"
            )
        for i, sig in enumerate(self.signals):
            sig.index = i
        state_base = len(self.signals)
        state_index: dict[str, int] = {}
        offset = state_base
        for block in self.blocks:
            count = block.state_count()
            if count:
                state_index[block.name] = offset
                offset += count
        builder = LsfBuilder(offset)
        builder.state_index = state_index  # blocks look up their states
        for block in self.blocks:
            block.build(builder)
        if builder._next_row != offset:
            raise ElaborationError(
                f"signal-flow system is under-determined: "
                f"{offset} unknowns but only {builder._next_row} equations"
            )
        source_rows = builder.sources

        def source(t: float) -> np.ndarray:
            b = np.zeros(offset)
            for row, waveform in source_rows:
                b[row] += waveform(t) if callable(waveform) else waveform
            return b

        # Stamp-order source layout for the TDF window fast path
        # (normalized to the ELN (row, waveform, scale) form).
        source.rows = tuple(
            (row, waveform, 1.0) for row, waveform in source_rows
        )

        names = [s.name for s in self.signals] + [
            f"{bname}.x{k}"
            for bname, base in state_index.items()
            for k in range(
                next(b for b in self.blocks if b.name == bname).state_count()
            )
        ]
        dae = LinearDae(builder.C, builder.G, source, names=names)
        return dae, LsfIndex(self, builder, dae)


class LsfIndex:
    """Post-elaboration lookup: signals to unknown indices, plus the
    consistent-initial-state computation."""

    def __init__(self, network: LsfNetwork, builder: LsfBuilder,
                 dae: LinearDae):
        self.network = network
        self.builder = builder
        self.dae = dae
        self.size = builder.size

    def signal_index(self, signal: LsfSignal) -> int:
        if signal.index is None:
            raise SolverError(f"signal {signal.name!r} not elaborated")
        return signal.index

    def ac_vector(self) -> np.ndarray:
        b = np.zeros(self.size)
        for row, magnitude in self.builder.ac_entries:
            b[row] += magnitude
        return b

    def initial_state(self) -> np.ndarray:
        """Consistent initial state at t=0.

        Integrator equations (``C``-only rows) make ``G`` singular; the
        paper requires a "formal definition of a consistent initial
        (quiescent) state".  We replace each integrator row by the
        constraint *output = initial value* and solve the remaining
        algebraic system.
        """
        G = self.dae.G.copy()
        b = np.asarray(self.dae.source(0.0), dtype=float).copy()
        for row, col, value in self.builder.init_overrides:
            G[row, :] = 0.0
            G[row, col] = 1.0
            b[row] = value
        try:
            return np.linalg.solve(G, b)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                "cannot compute a consistent initial state; the "
                "signal-flow graph has an algebraic loop or an "
                "undriven feedback path"
            ) from exc


class LsfResult:
    """Transient waveforms keyed by signal."""

    def __init__(self, times: np.ndarray, states: np.ndarray,
                 index: LsfIndex):
        self.times = times
        self._states = states
        self._index = index

    def __getitem__(self, signal: LsfSignal) -> np.ndarray:
        return self._states[:, self._index.signal_index(signal)]

    @property
    def raw(self) -> np.ndarray:
        return self._states


def lsf_transient(
    network: LsfNetwork,
    t_end: float,
    h: float,
    method: str = "trapezoidal",
) -> LsfResult:
    """Fixed-timestep transient from the consistent initial state."""
    dae, index = network.assemble()
    x0 = index.initial_state()
    times, states = dae.transient(t_end, h, x0=x0, method=method)
    return LsfResult(times, states, index)


def lsf_ac(
    network: LsfNetwork,
    frequencies: np.ndarray,
    output: LsfSignal,
) -> np.ndarray:
    """Small-signal AC response at ``output`` for the sources' AC pattern."""
    dae, index = network.assemble()
    b_ac = index.ac_vector()
    if not np.any(b_ac):
        raise SolverError(
            "no AC excitation: give some LsfSource an ac= magnitude"
        )
    phasors = dae.ac(frequencies, b_ac=b_ac)
    return phasors[:, index.signal_index(output)]
