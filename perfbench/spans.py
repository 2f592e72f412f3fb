"""Span recorder for the benchmark's traced run.

The traced run wraps the public entry points of each ``repro`` layer
(see :data:`LAYER_ENTRY_POINTS` and :func:`install`) with a small
timing wrapper.  Every call becomes one span: a name, a start and end
time, the thread it ran on, and the index of the span that was open
when it started (its parent).  Spans stay in memory, one buffer per
thread, and are written once, as Chrome-trace JSON, when the run ends.

A layer's *self time* is a span's duration minus the part of that
interval its child spans cover (:func:`self_times`); the per-layer
metrics of ``run.py`` are sums of self time by span name.  Nested calls
of one solver (a resilient wrapper advancing its primary) record only
the outermost span, so solver time is counted once.

The untraced run never imports the wrappers into the program: nothing
is patched until :func:`install` is called, and :meth:`Tracing.remove`
restores every patched attribute.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple


class _Buffer:
    """Spans of one thread, in the order they were opened."""

    __slots__ = ("tid", "name", "parent", "start", "end", "stack",
                 "counters")

    def __init__(self, tid: int):
        self.tid = tid
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: indices of the spans currently open on this thread
        self.stack: List[int] = []
        #: per-thread event counts (e.g. steps taken in solver windows)
        self.counters: Dict[str, float] = {}


class SpanRecorder:
    """In-memory span store with one append-only buffer per thread."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.buffers: List[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def buffer(self) -> _Buffer:
        buf = getattr(self._local, "buffer", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self.buffers) + 1)
                self.buffers.append(buf)
            self._local.buffer = buf
        return buf

    def open(self, name_id: int) -> Tuple[_Buffer, int]:
        buf = self.buffer()
        index = len(buf.name)
        buf.name.append(name_id)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.end.append(0.0)
        buf.stack.append(index)
        buf.start.append(time.perf_counter())
        return buf, index

    @staticmethod
    def close(buf: _Buffer, index: int) -> None:
        buf.end[index] = time.perf_counter()
        buf.stack.pop()

    def span(self, name: str):
        """Context manager recording one span (the benchmark's own)."""
        return _SpanContext(self, self.name_id(name))

    def counter(self, key: str) -> float:
        return sum(buf.counters.get(key, 0.0) for buf in self.buffers)

    def __len__(self) -> int:
        return sum(len(buf.name) for buf in self.buffers)

    # -- analysis ------------------------------------------------------------

    def totals(self, within: str = None) -> Dict[str, Dict[str, float]]:
        """``{name: {"count", "total_s", "self_s"}}`` over all threads;
        with ``within``, only spans that have an ancestor of that name."""
        out: Dict[str, Dict[str, float]] = {
            name: {"count": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self.names}
        ancestor = self._name_ids.get(within, -2) if within else None
        for buf in self.buffers:
            own = self_times(buf.parent, buf.start, buf.end)
            inside = [False] * len(buf.name)
            for index, name_id in enumerate(buf.name):
                if ancestor is not None:
                    p = buf.parent[index]
                    inside[index] = p >= 0 and (
                        inside[p] or buf.name[p] == ancestor)
                    if not inside[index]:
                        continue
                slot = out[self.names[name_id]]
                slot["count"] += 1
                slot["total_s"] += buf.end[index] - buf.start[index]
                slot["self_s"] += own[index]
        return out

    # -- export --------------------------------------------------------------

    def write_chrome_trace(self, path) -> int:
        """Write every span as a Chrome-trace ``X`` event; returns the
        number of spans written.  Each event carries its span id and
        its parent's id in ``args``."""
        lines = []
        for buf in self.buffers:
            lines.append(json.dumps({
                "name": "thread_name", "ph": "M", "pid": 1,
                "tid": buf.tid, "args": {"name": f"thread-{buf.tid}"}}))
        names = [json.dumps(name) for name in self.names]
        for buf in self.buffers:
            prefix = f"{buf.tid}:"
            for index, name_id in enumerate(buf.name):
                start = buf.start[index]
                parent = buf.parent[index]
                lines.append(
                    '{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%r,'
                    '"dur":%r,"args":{"id":"%s%d","parent":%s}}' % (
                        names[name_id], buf.tid,
                        (start - self.epoch) * 1e6,
                        max(buf.end[index] - start, 0.0) * 1e6,
                        prefix, index,
                        f'"{prefix}{parent}"' if parent >= 0
                        else "null"))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"displayTimeUnit":"ms","otherData":'
                         '{"producer":"perfbench"},"traceEvents":[\n')
            handle.write(",\n".join(lines))
            handle.write("\n]}\n")
        return len(self)


class _SpanContext:
    __slots__ = ("recorder", "name_id", "handle")

    def __init__(self, recorder: SpanRecorder, name_id: int):
        self.recorder = recorder
        self.name_id = name_id

    def __enter__(self):
        self.handle = self.recorder.open(self.name_id)
        return self

    def __exit__(self, *exc_info) -> None:
        SpanRecorder.close(*self.handle)


def self_times(parent: Sequence[int], start: Sequence[float],
               end: Sequence[float]) -> List[float]:
    """Each span's duration minus the time its children cover.

    Spans must be listed in the order they were opened (children after
    their parent, siblings in start order), as one thread records them.
    Overlapping children are counted once and each child is clipped to
    its parent's interval.
    """
    n = len(parent)
    covered = [0.0] * n
    covered_until = list(start)
    for index in range(n):
        p = parent[index]
        if p < 0:
            continue
        lo = max(start[index], covered_until[p])
        hi = min(end[index], end[p])
        if hi > lo:
            covered[p] += hi - lo
            covered_until[p] = hi
    return [max(end[i] - start[i] - covered[i], 0.0) for i in range(n)]


# -- wrappers ----------------------------------------------------------------


def _wrap(fn: Callable, recorder: SpanRecorder, name: str,
          outermost: bool = False,
          count_arg: Tuple[str, int] = None) -> Callable:
    """A span-recording wrapper around ``fn``.

    ``outermost`` records nothing when a span of the same name is
    already open on this thread.  ``count_arg = (key, position)`` adds
    ``len(args[position])`` to the recorder counter ``key``.
    """
    name_id = recorder.name_id(name)
    open_span = recorder.open
    close = SpanRecorder.close

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            buf, index = open_span(name_id)
            try:
                yield from fn(*args, **kwargs)
            finally:
                close(buf, index)
        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        buf = recorder.buffer()
        stack = buf.stack
        if outermost and stack and buf.name[stack[-1]] == name_id:
            return fn(*args, **kwargs)
        if count_arg is not None:
            key, position = count_arg
            buf.counters[key] = buf.counters.get(key, 0.0) \
                + len(args[position])
        buf, index = open_span(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            close(buf, index)
    return wrapper


def _subclasses(cls: type) -> Iterable[type]:
    seen = set()
    todo = [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)
                yield sub


class Tracing:
    """The installed wrappers; :meth:`remove` undoes every patch."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._patches: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, name: str, **options) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, _wrap(original, self.recorder, name,
                                   **options))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @property
    def patched(self) -> List[Tuple[Any, str]]:
        return [(owner, attr) for owner, attr, _orig in self._patches]


#: (span name, module, attribute path) of each layer entry point.
LAYER_ENTRY_POINTS = (
    ("core.run", "repro.core.simulator", "Simulator.run"),
    ("core.elaborate", "repro.core.simulator", "Simulator.elaborate"),
    ("core.kernel", "repro.core.kernel", "Kernel.run"),
    ("eln.assemble", "repro.eln.network", "Network.assemble"),
    ("tdf.execute", "repro.tdf.cluster", "TdfCluster.execute_periods"),
    ("verify.model", "repro.verify", "verify_model"),
    ("campaign.run", "repro.campaign.runner", "CampaignRunner.run"),
    ("campaign.cache_put", "repro.campaign.cache", "ResultCache.put"),
)

#: Public :class:`repro.service.ServiceClient` calls, one span each.
SERVICE_CALLS = ("health", "submit", "status", "results", "stream",
                 "usage", "telemetry", "metrics")


def install(recorder: SpanRecorder) -> Tracing:
    """Wrap every layer entry point; returns the handle to remove them.

    Module bodies are wrapped per class: every TDF module class that
    defines ``processing``/``processing_block`` itself becomes
    ``lib.body`` spans, or ``sync.body`` for the CT-synchronized
    modules (``CtTdfModule`` subclasses).  Classes must be imported
    before the call to be found.
    """
    import importlib

    from repro.ct.solver_api import TransientSolver
    from repro.service.client import ServiceClient
    from repro.sync.ct_modules import CtTdfModule
    from repro.tdf.module import TdfModule

    tracing = Tracing(recorder)
    for name, module_name, path in LAYER_ENTRY_POINTS:
        owner: Any = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        tracing.patch(owner, attr, name)
    for cls in _subclasses(TdfModule):
        layer = "sync.body" if issubclass(cls, CtTdfModule) \
            else "lib.body"
        for attr in ("processing", "processing_block"):
            if attr in cls.__dict__:
                tracing.patch(cls, attr, f"{layer}.{attr}")
    for cls in [TransientSolver, *_subclasses(TransientSolver)]:
        if "advance_to" in cls.__dict__ \
                and not inspect.isabstract(cls):
            tracing.patch(cls, "advance_to", "ct.advance",
                          outermost=True)
        if "advance_window" in cls.__dict__:
            tracing.patch(cls, "advance_window", "ct.advance",
                          outermost=True,
                          count_arg=("ct.window_steps", 1))
    for attr in SERVICE_CALLS:
        tracing.patch(ServiceClient, attr, f"service.{attr}")
    return tracing
