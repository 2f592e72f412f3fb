"""AST scanning infrastructure for the behavioral code lint (CODE###).

The graph rules (TDF/SDF/ELN/SYNC/CORE) check the *structure* a model
declares; the CODE rules check the *Python code* the model executes.
This module turns live objects back into analyzable ASTs:

* :class:`FunctionIndex` — everything that depends only on one
  function's source (its AST with absolute line numbers, one walk
  bucketed by node type, ``self.X`` dataflow facts, bare-name helper
  candidates, the fingerprint dump), built once per function object
  per process and dropped with the function (:func:`function_index`);
* :class:`ScannedFunction` — one function/method in one verification:
  its index plus the live globals it resolves names in;
* :class:`ModuleScan` — one :class:`~repro.tdf.module.TdfModule`
  *class* (instances sharing a class share one scan) with its analyzed
  lifecycle methods plus one level of helper-call inlining;
* name resolution (:meth:`ScannedFunction.resolve_call`) that maps a
  call expression back to the canonical dotted name of what it calls
  (``np.random.normal`` → ``numpy.random.normal``), so rules match on
  semantics, not on spelling;
* dataflow helpers: per-attribute ``self.X`` access sites and
  statically bounded port-I/O counts per activation.

Everything that reads live state stays per verification: name
resolution through ``__globals__``, helper resolution, and what the
rules read off instances, closures and global values.

Everything here is best-effort and *silent* on failure: code whose
source is unavailable (C extensions, REPL definitions) simply yields
no scan, never a crash — the graph rules still run.
"""

from __future__ import annotations

import ast
import builtins
import copy
import inspect
import textwrap
import threading
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from ...sync.ct_modules import CtTdfModule
from ...tdf.module import TdfModule

#: Lifecycle methods analyzed on every TDF module class, in the order
#: they run.  ``build``-style campaign callables are scanned separately
#: (see :func:`callable_scans`).
LIFECYCLE_METHODS = (
    "__init__",
    "set_attributes",
    "initialize",
    "processing",
    "processing_block",
)

#: Modules of the framework's TDF module classes: the TDF base class and
#: the CT synchronization layer, whose lockstep telemetry and
#: bookkeeping never reach model behaviour.
_FRAMEWORK_MODULES = frozenset({TdfModule.__module__,
                                CtTdfModule.__module__})

#: Methods whose body runs once per activation (the paper's
#: "side-effect-free processing between cluster activations").
ACTIVATION_METHODS = ("processing", "processing_block")

#: Container-mutating method names: ``self.X.append(...)`` and friends
#: count as writes to ``self.X``.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort",
    "reverse", "appendleft", "extendleft", "fill", "itemset",
})


FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


class FunctionIndex:
    """Everything about one function that depends only on its source.

    Built once per function object per process (see
    :func:`function_index`) and shared by every verification and
    fingerprint of that function.  Nothing here reads live state —
    globals, closures, instance attributes — so a report can never
    depend on whether the entry was already cached.  Read-only.
    """

    def __init__(self, node: FunctionNode, file: str, first_line: int):
        #: the ``FunctionDef``, line numbers absolute in :attr:`file`.
        self.node = node
        #: defining file; empty when only the source text is known.
        self.file = file
        self.first_line = first_line
        #: every node of one ``ast.walk``, in walk order ...
        self.walk_order: Tuple[ast.AST, ...] = tuple(ast.walk(node))
        buckets: Dict[type, List[ast.AST]] = {}
        for child in self.walk_order:
            buckets.setdefault(type(child), []).append(child)
        #: ... and bucketed by node type, each bucket in walk order.
        self.buckets: Dict[type, Tuple[ast.AST, ...]] = {
            kind: tuple(nodes) for kind, nodes in buckets.items()}

    def nodes(self, *kinds: type) -> Tuple[Any, ...]:
        """Nodes of the given types, in walk order."""
        if len(kinds) == 1:
            return self.buckets.get(kinds[0], ())
        return tuple(node for node in self.walk_order
                     if isinstance(node, kinds))

    # -- self.<attr> dataflow ------------------------------------------------

    @cached_property
    def self_attr_events(self) -> Dict[str, Dict[str, Tuple[int, ...]]]:
        """Per-attribute access-site lines, classified for the
        carried-state analysis:

        * ``"assign"`` — plain ``self.x = ...`` (all of them);
        * ``"toplevel"`` — the subset of plain assigns at the top level
          of the body (unconditional on every activation);
        * ``"augmented"`` — accesses that *require* a prior value:
          ``self.x += ...``, ``self.x[i] = ...``, ``self.x.append()``;
        * ``"read"`` — Load-context ``self.x`` uses.
        """
        events: Dict[str, Dict[str, List[int]]] = {}

        def ev(attr: str) -> Dict[str, List[int]]:
            return events.setdefault(attr, {
                "assign": [], "toplevel": [], "augmented": [],
                "read": []})

        toplevel_ids = {id(stmt) for stmt in self.node.body}
        for node in self.walk_order:
            if isinstance(node, ast.Assign) or (
                    isinstance(node, ast.AnnAssign)
                    and node.value is not None):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        ev(attr)["assign"].append(target.lineno)
                        if id(node) in toplevel_ids:
                            ev(attr)["toplevel"].append(target.lineno)
                        continue
                    base = target
                    while isinstance(base, ast.Subscript):
                        base = base.value
                    attr = _self_attr(base)
                    if attr is not None:  # self.x[i] = ... needs self.x
                        ev(attr)["augmented"].append(target.lineno)
            elif isinstance(node, ast.AugAssign):
                base = node.target
                while isinstance(base, ast.Subscript):
                    base = base.value
                attr = _self_attr(base)
                if attr is not None:
                    ev(attr)["augmented"].append(node.lineno)
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in _MUTATOR_METHODS):
                    attr = _self_attr(func.value)
                    if attr is not None:
                        ev(attr)["augmented"].append(node.lineno)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    attr = _self_attr(node)
                    if attr is not None:
                        ev(attr)["read"].append(node.lineno)
        return {attr: {kind: tuple(lines) for kind, lines in per.items()}
                for attr, per in events.items()}

    @cached_property
    def self_reads(self) -> FrozenSet[str]:
        """Attr names the body touches via ``self.<attr>`` (reads and
        writes alike)."""
        return frozenset(attr for attr in map(
            _self_attr, self.nodes(ast.Attribute)) if attr is not None)

    # -- helpers and fingerprint ---------------------------------------------

    @cached_property
    def bare_calls(self) -> Tuple[str, ...]:
        """Names the body calls bare (``helper(...)``), first call
        first — the candidates for one level of helper inlining."""
        return tuple(dict.fromkeys(
            call.func.id for call in self.nodes(ast.Call)
            if isinstance(call.func, ast.Name)))

    @cached_property
    def dump(self) -> str:
        """Location-free, docstring-free AST dump (the fingerprint's
        input)."""
        node = copy.copy(self.node)
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            node.body = body[1:] or [ast.Pass()]
        return ast.dump(node, include_attributes=False)


def _self_attr(expr: ast.expr) -> Optional[str]:
    """``self.<attr>`` → ``attr``; anything else → None."""
    if (isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"):
        return expr.attr
    return None


_IndexEntry = Tuple[Any, Optional[FunctionIndex]]

#: function → (its ``__code__`` when indexed, index or None).  Weak
#: keys: an entry lives exactly as long as its function object, and a
#: replaced ``__code__`` re-indexes.
_INDEX: weakref.WeakKeyDictionary[Callable, _IndexEntry] = \
    weakref.WeakKeyDictionary()
#: Guards the check-then-build on ``_INDEX`` and keeps builds to one
#: thread at a time: concurrent ``ast.parse`` calls intermittently
#: raise ``SystemError`` on CPython 3.11.
_INDEX_LOCK = threading.Lock()


def _build_index(fn: Callable) -> Optional[FunctionIndex]:
    try:
        lines, start = inspect.getsourcelines(fn)
        path = inspect.getsourcefile(fn)
        tree = ast.parse(textwrap.dedent("".join(lines)))
    except (OSError, TypeError, SyntaxError):
        return None
    node = tree.body[0] if tree.body else None
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    ast.increment_lineno(node, start - 1)
    return FunctionIndex(node, path or "", start)


def function_index(fn: Callable) -> Optional[FunctionIndex]:
    """The process-wide index of ``fn``'s source (decorators unwrapped,
    bound methods mapped to their function); None when the source
    cannot be recovered (C extensions, REPL definitions)."""
    try:
        fn = inspect.unwrap(fn)
    except ValueError:
        return None
    if inspect.ismethod(fn):
        fn = fn.__func__
    code = getattr(fn, "__code__", None)
    with _INDEX_LOCK:
        try:
            cached = _INDEX.get(fn)
        except TypeError:  # not weakly referenceable: index uncached
            return _build_index(fn)
        if cached is None or cached[0] is not code:
            cached = (code, _build_index(fn))
            _INDEX[fn] = cached
    return cached[1]


def bare_helpers(fn: Callable, index: FunctionIndex,
                 ) -> List[Tuple[str, Callable]]:
    """(name, function) for every function of ``fn``'s own module that
    ``fn`` calls by bare name, first call first.  Resolved through the
    live ``__globals__`` on every call, never cached."""
    namespace = getattr(fn, "__globals__", {})
    module_name = getattr(fn, "__module__", None)
    found: List[Tuple[str, Callable]] = []
    for name in index.bare_calls:
        obj = namespace.get(name)
        if inspect.isfunction(obj) and obj.__module__ == module_name:
            found.append((name, obj))
    return found


@dataclass
class ScannedFunction:
    """One analyzable function or method in one verification: the
    shared :class:`FunctionIndex` of its source plus the per-call
    state (name resolution through the function's live globals)."""

    #: Method name (``"processing"``) or callable label
    #: (``"campaign.build"``).
    name: str
    #: The live function object (unbound for methods).
    fn: Callable
    index: FunctionIndex
    #: Set on helper scans: the method or callable that calls this one.
    inlined_from: Optional[str] = None
    _resolve_cache: Dict[int, Optional[str]] = field(
        default_factory=dict, repr=False)

    @property
    def node(self) -> FunctionNode:
        return self.index.node

    @property
    def file(self) -> str:
        return self.index.file

    @property
    def first_line(self) -> int:
        return self.index.first_line

    def calls(self) -> Tuple[ast.Call, ...]:
        return self.index.nodes(ast.Call)

    # -- name resolution ----------------------------------------------------

    def _dotted(self, expr: ast.expr) -> Optional[List[str]]:
        """``a.b.c`` / ``self.x.y`` → ``["a", "b", "c"]``."""
        parts: List[str] = []
        while isinstance(expr, ast.Attribute):
            parts.append(expr.attr)
            expr = expr.value
        if isinstance(expr, ast.Name):
            parts.append(expr.id)
            return parts[::-1]
        return None

    def _canonical_root(self, name: str) -> Optional[str]:
        """Map the first identifier of a dotted path to its canonical
        module-qualified name via the function's globals."""
        namespace = getattr(self.fn, "__globals__", {})
        obj = namespace.get(name, getattr(builtins, name, None))
        if obj is None:
            return None
        if inspect.ismodule(obj):
            return obj.__name__
        if inspect.isclass(obj):
            return f"{obj.__module__}.{obj.__qualname__}"
        if callable(obj):
            module = getattr(obj, "__module__", None)
            qualname = getattr(obj, "__qualname__",
                               getattr(obj, "__name__", name))
            return f"{module}.{qualname}" if module else qualname
        return None

    def resolve_call(self, node: ast.Call) -> Optional[str]:
        """Canonical dotted name of what ``node`` calls.

        ``self.<...>`` paths are returned verbatim (``"self.inp.read"``);
        everything else is resolved through the function's globals so
        import aliases (``import numpy as np``) cannot hide a match.
        Unresolvable targets (results of calls, subscripts) are None.
        """
        key = id(node)
        if key not in self._resolve_cache:
            self._resolve_cache[key] = self._resolve_uncached(node)
        return self._resolve_cache[key]

    def _resolve_uncached(self, node: ast.Call) -> Optional[str]:
        parts = self._dotted(node.func)
        if parts is None:
            return None
        if parts[0] == "self":
            return ".".join(parts)
        root = self._canonical_root(parts[0])
        if root is None:
            # unknown name: keep the literal spelling so rules can
            # still match explicit "module.attr" patterns
            return ".".join(parts)
        return ".".join([root, *parts[1:]])

    def resolve_attribute(self, node: ast.Attribute) -> Optional[str]:
        """Canonical dotted name of a (non-call) attribute access."""
        parts = self._dotted(node)
        if parts is None or parts[0] == "self":
            return None
        root = self._canonical_root(parts[0])
        if root is None:
            return ".".join(parts)
        return ".".join([root, *parts[1:]])


def scan_function(fn: Callable, name: str, *,
                  inlined_from: Optional[str] = None,
                  ) -> Optional[ScannedFunction]:
    """Best-effort scan of one function; None when source is missing."""
    index = function_index(fn)
    if index is None or not index.file:
        return None
    return ScannedFunction(name=name, fn=fn, index=index,
                           inlined_from=inlined_from)


def scan_helpers(scan: ScannedFunction,
                 targets: List[Tuple[str, Callable]],
                 ) -> List[ScannedFunction]:
    """Scans of ``targets`` as helpers inlined into ``scan`` (one level
    only: helpers of helpers are not followed)."""
    inlined: List[ScannedFunction] = []
    for name, fn in targets:
        helper = scan_function(fn, name, inlined_from=scan.name)
        if helper is not None:
            inlined.append(helper)
    return inlined


class ModuleScan:
    """The analyzed code of one TdfModule subclass.

    ``instances`` lists every live module of that class in the verified
    hierarchy (diagnostics anchor to the first one); ``methods`` maps
    lifecycle-method names to scans of the *defining* function, wherever
    in the MRO it lives — but framework implementations (those of
    :class:`~repro.tdf.module.TdfModule` and of the CT synchronization
    layer's classes) are never analyzed; a subclass's own overrides are.
    """

    def __init__(self, cls: type, instances: List[TdfModule]):
        self.cls = cls
        self.instances = instances
        self.methods: Dict[str, ScannedFunction] = {}
        #: one level of helper inlining: ``{method: [helper scans]}``.
        self.helpers: Dict[str, List[ScannedFunction]] = {}
        for name in LIFECYCLE_METHODS:
            fn = getattr(cls, name, None)
            if fn is None or _framework(fn):
                continue  # not overridden: framework code, skip
            scan = scan_function(fn, name)
            if scan is None:
                continue
            self.methods[name] = scan
            self.helpers[name] = self._inline_helpers(scan)
        self.checkpoint = self._hook_scan("checkpoint_state")
        self.restore = self._hook_scan("restore_state")

    def _hook_scan(self, name: str) -> Optional[ScannedFunction]:
        fn = getattr(self.cls, name, None)
        base = getattr(TdfModule, name, None)
        if fn is None or getattr(fn, "__func__", fn) is \
                getattr(base, "__func__", base):
            return None
        return scan_function(fn, name)

    def _inline_helpers(self, scan: ScannedFunction,
                        ) -> List[ScannedFunction]:
        """Module-level functions called by bare name, then
        ``self.<method>()`` calls resolving to methods of this class."""
        targets = bare_helpers(scan.fn, scan.index)
        seen = {name for name, _fn in targets}
        for call in scan.calls():
            target = scan.resolve_call(call)
            if (target is None or not target.startswith("self.")
                    or target.count(".") != 1):
                continue
            attr = target.split(".", 1)[1]
            if attr in seen or attr in LIFECYCLE_METHODS:
                continue
            fn = getattr(self.cls, attr, None)
            if not (inspect.isfunction(fn)
                    and getattr(TdfModule, attr, None) is None) \
                    or _framework(fn):
                continue  # framework API / not a plain def
            seen.add(attr)
            targets.append((attr, fn))
        return scan_helpers(scan, targets)

    # -- rule-facing views ---------------------------------------------------

    def anchor(self) -> str:
        """Hierarchical location of the scan's representative instance."""
        return self.instances[0].full_name()

    def scans(self, *names: str,
              include_helpers: bool = True,
              ) -> Iterator[Tuple[str, ScannedFunction]]:
        """(owning lifecycle method, scan) pairs for ``names`` (all
        lifecycle methods when empty), helpers included by default."""
        chosen = names or LIFECYCLE_METHODS
        for name in chosen:
            scan = self.methods.get(name)
            if scan is None:
                continue
            yield name, scan
            if include_helpers:
                for helper in self.helpers.get(name, ()):
                    yield name, helper

    def carried_state(self) -> Dict[str, Tuple[int, str, str]]:
        """``{attr: (line, file, method)}`` for attributes whose value
        provably *carries across activations* — the state a checkpoint
        must capture.  Scratch attributes (unconditionally reassigned at
        the top of every activation before any read) are excluded:
        restore recomputes them anyway.
        """
        carried: Dict[str, Tuple[int, str, str]] = {}
        reads_by_scan: Dict[str, List[int]] = {}
        writes_by_scan: Dict[str, List[Tuple[int, Tuple[int, str, str]]]] = {}

        for index, (method, scan) in enumerate(
                self.scans(*ACTIVATION_METHODS)):
            for attr, events in scan.index.self_attr_events.items():
                site = None
                write_lines = events["assign"] + events["augmented"]
                if write_lines:
                    site = (min(write_lines), scan.file, method)
                    writes_by_scan.setdefault(attr, []).append(
                        (index, site))
                if events["read"]:
                    reads_by_scan.setdefault(attr, []).append(index)
                if attr in carried:
                    continue
                if events["augmented"] and (
                        not events["toplevel"]
                        or min(events["augmented"])
                        <= min(events["toplevel"])):
                    # in-place mutation of a value that was *not*
                    # freshly assigned earlier this activation
                    carried[attr] = (min(events["augmented"]),
                                     scan.file, method)
                elif events["read"] and events["assign"]:
                    toplevel = events["toplevel"]
                    # a read at/before the first unconditional assign
                    # (or any read when every assign is conditional)
                    # observes the previous activation's value
                    if (not toplevel
                            or min(events["read"]) <= min(toplevel)):
                        carried[attr] = (min(events["assign"]),
                                         scan.file, method)
        # cross-function flows: written in one scan, read in another
        # (e.g. processing writes, a helper or processing_block reads)
        for attr, sites in writes_by_scan.items():
            if attr in carried:
                continue
            writer_ids = {index for index, _site in sites}
            if any(index not in writer_ids
                   for index in reads_by_scan.get(attr, [])):
                carried[attr] = sites[0][1]
        return carried

    def checkpoint_covered(self) -> set:
        """Attributes mentioned by the checkpoint hooks."""
        covered: set = set()
        for scan in (self.checkpoint, self.restore):
            if scan is not None:
                covered |= scan.index.self_reads
        return covered


def _framework(fn: Callable) -> bool:
    """True for a method a framework class defines."""
    return getattr(fn, "__module__", None) in _FRAMEWORK_MODULES


def module_scans(ctx) -> List[ModuleScan]:
    """Per-class scans for every TDF module in the context (cached)."""
    cached = getattr(ctx, "_code_module_scans", None)
    if cached is not None:
        return cached
    by_class: Dict[type, List[TdfModule]] = {}
    for module in ctx.tdf_modules:
        by_class.setdefault(type(module), []).append(module)
    scans = [ModuleScan(cls, instances)
             for cls, instances in by_class.items()]
    ctx._code_module_scans = scans
    return scans


def callable_scans(ctx) -> List[Tuple[str, Callable,
                                      Optional[ScannedFunction],
                                      List[ScannedFunction]]]:
    """Scans of the extra callables attached to the context (campaign
    ``build``/``run`` functions; a ``functools.partial`` through its
    wrapped function) with their inlined same-module helpers; the raw
    callable rides along for value-level checks (closures, lambdas)."""
    cached = getattr(ctx, "_code_callable_scans", None)
    if cached is not None:
        return cached
    scans: List[Tuple[str, Callable, Optional[ScannedFunction],
                      List[ScannedFunction]]] = []
    for label, fn in getattr(ctx, "code_callables", []):
        scan = scan_function(getattr(fn, "func", fn), label)
        helpers = ([] if scan is None else
                   scan_helpers(scan, bare_helpers(scan.fn, scan.index)))
        scans.append((label, fn, scan, helpers))
    ctx._code_callable_scans = scans
    return scans


# -- static port-I/O counting ------------------------------------------------


@dataclass
class PortIoCount:
    """Statically bounded scalar I/O of one port in one method."""

    #: number of ``read()``/``write()`` calls per activation, or None
    #: when a surrounding loop/branch defeats the bound.
    calls: Optional[int]
    #: highest sample index provably passed, or None when unknown.
    max_index: Optional[int]
    #: True when *every* call site was statically bounded.
    exact: bool
    #: line of the worst offender (used for diagnostics).
    line: int = 0


def _loop_bound(scan: ScannedFunction, instance: Any,
                node: ast.For) -> Optional[Tuple[str, int]]:
    """``for k in range(N)`` → (loop var, N) when N is statically known:
    an int literal, ``self.<attr>`` with an int value on ``instance``,
    or ``self.<port>.rate``."""
    if not (isinstance(node.target, ast.Name)
            and isinstance(node.iter, ast.Call)
            and scan.resolve_call(node.iter) == "builtins.range"
            and len(node.iter.args) == 1):
        return None
    bound = node.iter.args[0]
    if isinstance(bound, ast.Constant) and isinstance(bound.value, int):
        return node.target.id, bound.value
    parts = scan._dotted(bound)
    if parts and parts[0] == "self" and len(parts) in (2, 3):
        value: Any = instance
        for attr in parts[1:]:
            value = getattr(value, attr, None)
        if isinstance(value, int) and not isinstance(value, bool):
            return node.target.id, value
    return None


def count_port_io(scan: ScannedFunction, instance: Any, port_attr: str,
                  method_name: str) -> PortIoCount:
    """Bound the scalar ``self.<port_attr>.read/write`` traffic of one
    activation.  Loops over ``range(<literal>)``, ``range(self.<int>)``
    and ``range(self.<port>.rate)`` multiply; anything else (while,
    comprehensions, non-range iterables) makes the count unbounded.
    Branches take the maximum of their arms, which keeps the result a
    safe upper bound for out-of-range detection.
    """
    target_calls = {f"self.{port_attr}.read", f"self.{port_attr}.write"}
    total = PortIoCount(calls=0, max_index=None, exact=True)

    def merge_index(index: Optional[int], line: int) -> None:
        if index is None:
            total.exact = False
            return
        if total.max_index is None or index > total.max_index:
            total.max_index = index
            total.line = line

    def sample_index(call: ast.Call,
                     loop_vars: Dict[str, int]) -> Optional[int]:
        args = list(call.args)
        for keyword in call.keywords:
            if keyword.arg == "sample":
                args = [keyword.value]
                break
        else:
            if not args:
                return 0  # read()/write(v) default to sample 0
            name = scan.resolve_call(call) or ""
            if name.endswith(".write"):
                args = args[1:]  # write(value[, sample])
                if not args:
                    return 0
        expr = args[0]
        if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
            return expr.value
        if isinstance(expr, ast.Name) and expr.id in loop_vars:
            return loop_vars[expr.id] - 1  # max value of range var
        return None

    def calls_in(node: ast.AST) -> Iterator[ast.Call]:
        """Calls in one statement, not descending into nested defs."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return
        if isinstance(node, ast.Call):
            yield node
        for child in ast.iter_child_nodes(node):
            yield from calls_in(child)

    def visit(nodes, loop_vars: Dict[str, int]) -> Optional[int]:
        """Call count contributed by ``nodes`` (None = unbounded);
        updates ``total.max_index`` / ``total.exact`` in place."""
        count: Optional[int] = 0

        def add(n: Optional[int]) -> None:
            nonlocal count
            count = None if (count is None or n is None) else count + n

        for node in nodes:
            if isinstance(node, ast.For):
                bound = _loop_bound(scan, instance, node)
                if bound is None:
                    inner = visit(node.body, dict(loop_vars))
                    add(None if inner != 0 else 0)
                else:
                    var, n = bound
                    vars_in = dict(loop_vars)
                    vars_in[var] = n
                    inner = visit(node.body, vars_in)
                    add(None if inner is None else inner * n)
                add(visit(node.orelse, loop_vars))
            elif isinstance(node, ast.While):
                inner = visit(node.body, dict(loop_vars))
                add(None if inner != 0 else 0)
            elif isinstance(node, ast.If):
                body = visit(node.body, loop_vars)
                orelse = visit(node.orelse, loop_vars)
                if body is None or orelse is None:
                    add(None)
                else:
                    add(max(body, orelse))
            elif isinstance(node, ast.Try):
                add(visit(node.body, loop_vars))
                for handler in node.handlers:
                    # handler I/O is conditional: any traffic there
                    # defeats an exact bound
                    if visit(handler.body, loop_vars) != 0:
                        add(None)
                add(visit(node.orelse, loop_vars))
                add(visit(node.finalbody, loop_vars))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                add(visit(node.body, loop_vars))
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                continue  # nested defs run on their own schedule
            else:
                for call in calls_in(node):
                    if scan.resolve_call(call) in target_calls:
                        add(1)
                        merge_index(sample_index(call, loop_vars),
                                    call.lineno)
                        if total.line == 0:
                            total.line = call.lineno
        return count

    calls = visit(scan.node.body, {})
    total.calls = calls
    if calls is None:
        total.exact = False
    return total
