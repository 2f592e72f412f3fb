"""Hierarchical modules.

A :class:`Module` owns ports, signals, child modules and processes.  The
hierarchy is explicit: a child receives its parent in the constructor.
Processes are declared with :meth:`method` and :meth:`thread` during
construction and registered with the kernel at elaboration.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

from .errors import BindingError, ElaborationError
from .events import Event
from .port import Port
from .process import METHOD, THREAD, Process


class Module:
    """Base class for every structural element of a design."""

    #: the children's names, for the duplicate check: made with the
    #: first child, so a leaf module carries none (only
    #: :meth:`_add_child` adds to ``children``)
    _child_names: Optional[set] = None

    def __init__(self, name: str, parent: Optional["Module"] = None):
        self.name = name
        self.parent = parent
        self.children: list[Module] = []
        self._processes: list[Process] = []
        if parent is not None:
            parent._add_child(self)

    # -- hierarchy -----------------------------------------------------------

    def _add_child(self, child: "Module") -> None:
        names = self._child_names
        if names is None:
            names = self._child_names = set()
        elif child.name in names:
            raise ElaborationError(
                f"module {self.full_name()!r} already has a child "
                f"named {child.name!r}"
            )
        names.add(child.name)
        self.children.append(child)

    def full_name(self) -> str:
        if self.parent is None:
            return self.name
        return f"{self.parent.full_name()}.{self.name}"

    def path(self) -> str:
        """The full hierarchical path of this module (alias of
        :meth:`full_name`), e.g. ``"tb.rx.mixer"``."""
        return self.full_name()

    def walk(self) -> Iterator["Module"]:
        """Depth-first iteration over this module and all descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, path: str) -> "Module":
        """Look up a descendant by dot-separated relative path."""
        node = self
        for part in path.split("."):
            for child in node.children:
                if child.name == part:
                    node = child
                    break
            else:
                raise KeyError(f"no child {part!r} under {node.full_name()!r}")
        return node

    # -- process declaration ---------------------------------------------------

    def method(
        self,
        func: Callable,
        sensitivity: Sequence = (),
        dont_initialize: bool = False,
        name: Optional[str] = None,
    ) -> Process:
        """Declare a method process (re-invoked on every trigger)."""
        return self._declare(METHOD, func, sensitivity, dont_initialize, name)

    def thread(
        self,
        func: Callable,
        sensitivity: Sequence = (),
        dont_initialize: bool = False,
        name: Optional[str] = None,
    ) -> Process:
        """Declare a thread process (a generator yielding wait conditions)."""
        return self._declare(THREAD, func, sensitivity, dont_initialize, name)

    def _declare(self, kind, func, sensitivity, dont_initialize, name) -> Process:
        # Sensitivity entries may be ports that are not bound yet;
        # resolution to events happens at elaboration (resolve_sensitivity).
        pname = name or getattr(func, "__name__", "proc")
        process = Process(
            f"{self.full_name()}.{pname}", kind, func, list(sensitivity),
            dont_initialize,
        )
        self._processes.append(process)
        return process

    # -- elaboration hooks (optional overrides) -----------------------------------

    def end_of_elaboration(self) -> None:
        """Called after binding resolution, before simulation starts."""

    def start_of_simulation(self) -> None:
        """Called immediately before the first delta cycle."""

    # -- elaboration helpers ------------------------------------------------------

    def ports(self) -> list[Port]:
        return [v for v in vars(self).values() if isinstance(v, Port)]

    def check_bindings(self) -> None:
        for port in self.ports():
            try:
                port.resolve()
            except BindingError as exc:
                # Port names are leaf-local; re-raise with the full
                # hierarchical path so the failing instance is findable.
                raise BindingError(
                    f"in module {self.path()!r}: {exc}") from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.full_name()!r})"


def resolve_sensitivity(process: Process) -> None:
    """Resolve a process's static sensitivity list to concrete events.

    Called at elaboration, once all port bindings exist.
    """
    process.static_sensitivity = [
        _as_event(s) for s in process.static_sensitivity
    ]


def _as_event(obj) -> Event:
    """Accept an Event, or anything with a ``default_event()`` method."""
    if isinstance(obj, Event):
        return obj
    default = getattr(obj, "default_event", None)
    if callable(default):
        return default()
    raise ElaborationError(
        f"cannot use {obj!r} in a sensitivity list; expected an Event, "
        "Signal, or Port"
    )
