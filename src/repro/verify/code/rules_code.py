"""Behavioral code lint over model Python code (CODE0xx).

Every platform guarantee the batch/service layers ship — bit-identical
serial ≡ parallel campaigns, fleet-wide single-flight dedup,
checkpoint/restart resume — silently assumes user ``processing()`` /
``build()`` code is deterministic, checkpoint-complete, and
fork/pickle-safe.  These rules prove (or refute) those assumptions
statically, from the AST of the model's own methods:

* CODE001–CODE007 — determinism: unseeded global RNG, wall-clock and
  entropy reads, environment/filesystem dependence, module-global
  mutation.  Violations break campaign fingerprints and service dedup.
* CODE008–CODE009 — checkpoint completeness: per-activation state not
  covered by ``checkpoint_state`` corrupts ``restore_checkpoint``
  resume silently.
* CODE010–CODE012 — rate contracts: statically bounded port I/O
  checked against declared TDF rates, block-API misuse.
* CODE013–CODE014 — fork/pickle safety of modules and campaign
  callables shipped through ``campaign.loader`` / the service wire.
* CODE015 — side effects the TDF MoC contract reserves for converter
  ports (console I/O from ``processing``).

Analysis depth is bounded: one level of helper-call inlining, and
``# verify: allow[CODE0xx]`` suppression comments are honored by the
engine (suppressed findings are *counted*, not dropped).
"""

from __future__ import annotations

import ast
import io
import socket
import threading
import types
from typing import Iterator, Optional, Tuple

from ...tdf.signal import TdfIn, TdfOut
from ..context import VerifyContext
from ..diagnostics import Diagnostic
from ..registry import rule
from .scan import (
    ACTIVATION_METHODS,
    ModuleScan,
    ScannedFunction,
    callable_scans,
    count_port_io,
    module_scans,
)

# -- call tables --------------------------------------------------------------

#: stdlib ``random`` module-level draws (global, seed-shared state).
_RANDOM_GLOBAL = frozenset({
    "random", "randint", "randrange", "uniform", "gauss",
    "normalvariate", "choice", "choices", "shuffle", "sample",
    "betavariate", "expovariate", "gammavariate", "lognormvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "triangular",
    "getrandbits", "randbytes", "seed",
})

#: wall-clock reads (and stalls) that leak host time into model state.
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.localtime", "time.gmtime",
    "time.sleep", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: OS entropy and process-identity sources.
_ENTROPY = frozenset({
    "os.urandom", "uuid.uuid1", "uuid.uuid4", "secrets.token_bytes",
    "secrets.token_hex", "secrets.token_urlsafe", "secrets.randbelow",
    "secrets.randbits", "secrets.choice", "builtins.id",
})

#: numpy *global-state* RNG entry points (``np.random.<draw>``).
_NUMPY_GLOBAL = frozenset({
    "rand", "randn", "random", "random_sample", "ranf", "sample",
    "normal", "uniform", "randint", "random_integers", "choice",
    "shuffle", "permutation", "standard_normal", "standard_cauchy",
    "standard_exponential", "standard_gamma", "exponential", "poisson",
    "binomial", "beta", "gamma", "laplace", "logistic", "lognormal",
    "seed", "bytes", "get_state", "set_state",
})

#: environment reads.
_ENV_CALLS = frozenset({"os.getenv", "os.environ.get"})
_ENV_ATTRS = frozenset({"os.environ"})

#: filesystem / stdin reads (activation scope only).
_FS_CALLS = frozenset({
    "builtins.open", "io.open", "os.listdir", "os.scandir", "os.walk",
    "os.stat", "builtins.input",
})
_FS_ATTRS = frozenset({"sys.stdin"})

#: console writes (activation scope only).
_CONSOLE_CALLS = frozenset({
    "builtins.print", "sys.stdout.write", "sys.stderr.write",
    "sys.stdout.writelines", "sys.stderr.writelines",
})

#: constructors whose results cannot survive fork/pickle when stored
#: on module state.
_FORK_UNSAFE_CTORS = frozenset({
    "builtins.open", "io.open", "threading.Lock", "threading.RLock",
    "threading.Condition", "threading.Event", "threading.Semaphore",
    "threading.BoundedSemaphore", "threading.Thread",
    "threading.Timer", "socket.socket", "socket.create_connection",
    "subprocess.Popen",
})

#: closure-cell types that cannot ship through the campaign wire.
_UNPICKLABLE_CELL_TYPES: Tuple[type, ...] = (
    io.IOBase, socket.socket, types.GeneratorType, types.ModuleType,
    type(threading.Lock()), type(threading.RLock()), threading.Thread,
)


# -- shared iteration helpers -------------------------------------------------


def _code_targets(ctx: VerifyContext) -> Iterator[
        Tuple[str, ScannedFunction, Optional[ModuleScan]]]:
    """(location, scan, owning ModuleScan|None) over everything the
    determinism rules analyze: all lifecycle methods (helpers included)
    of every TDF module class, plus attached campaign callables."""
    for mscan in module_scans(ctx):
        for method, scan in mscan.scans():
            yield f"{mscan.anchor()}.{method}", scan, mscan
    yield from _callable_targets(ctx)


def _callable_targets(ctx: VerifyContext) -> Iterator[
        Tuple[str, ScannedFunction, None]]:
    """Attached campaign callables and their inlined helpers."""
    for label, _fn, scan, helpers in callable_scans(ctx):
        if scan is not None:
            yield label, scan, None
        for helper in helpers:
            yield label, helper, None


def _activation_targets(ctx: VerifyContext) -> Iterator[
        Tuple[str, ScannedFunction, Optional[ModuleScan]]]:
    """Per-activation code only (``processing`` / ``processing_block``
    and their helpers), plus campaign callables — the scopes where the
    paper's side-effect-free contract applies."""
    for mscan in module_scans(ctx):
        for method, scan in mscan.scans(*ACTIVATION_METHODS):
            yield f"{mscan.anchor()}.{method}", scan, mscan
    yield from _callable_targets(ctx)


def _via(scan: ScannedFunction) -> str:
    if scan.inlined_from:
        return f" (via helper {scan.name}())"
    return ""


def _flag_calls(ctx: VerifyContext, rule_id: str, severity: str,
                targets, names, message: str,
                hint: str) -> Iterator[Diagnostic]:
    """Yield one diagnostic per call whose canonical name is in
    ``names``."""
    for location, scan, _owner in targets:
        for call in scan.calls():
            resolved = scan.resolve_call(call)
            if resolved in names:
                yield ctx.diag(
                    rule_id, severity, location,
                    message.format(call=resolved) + _via(scan),
                    hint=hint, file=scan.file, line=call.lineno,
                    call=resolved,
                )


# -- determinism lint (CODE001-CODE007) ---------------------------------------


@rule("CODE001", domain="code", severity="error")
def unseeded_stdlib_random(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Model code draws from the process-global ``random`` state."""
    targets = list(_code_targets(ctx))
    yield from _flag_calls(
        ctx, "CODE001", "error", targets,
        {f"random.{name}" for name in _RANDOM_GLOBAL},
        "call to {call} draws from the process-global random state",
        hint="inject a seeded stream instead (repro.lib.as_generator / "
             "numpy SeedSequence); global draws break the serial ≡ "
             "parallel guarantee and campaign dedup",
    )
    # unseeded random.Random() is the same defect in constructor form
    for location, scan, _owner in targets:
        for call in scan.calls():
            if (scan.resolve_call(call) == "random.Random"
                    and not call.args and not call.keywords):
                yield ctx.diag(
                    "CODE001", "error", location,
                    "random.Random() constructed without a seed"
                    + _via(scan),
                    hint="pass an explicit seed derived from the "
                         "campaign's per-run stream",
                    file=scan.file, line=call.lineno,
                )


@rule("CODE002", domain="code", severity="error")
def wall_clock_dependence(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Model code reads (or stalls on) the host wall clock."""
    yield from _flag_calls(
        ctx, "CODE002", "error", _code_targets(ctx), _WALL_CLOCK,
        "call to {call} couples model behaviour to host wall-clock "
        "time",
        hint="use the simulated time base (local_time / "
             "activation_times); wall-clock values differ per host and "
             "break result fingerprints",
    )


@rule("CODE003", domain="code", severity="error")
def entropy_or_process_identity(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Model code reads OS entropy or process-identity values."""
    yield from _flag_calls(
        ctx, "CODE003", "error", _code_targets(ctx), _ENTROPY,
        "call to {call} yields per-process values that can never "
        "reproduce",
        hint="derive identifiers from parameters or the per-run seed; "
             "entropy/id() values differ on every execution",
    )


@rule("CODE004", domain="code", severity="error")
def numpy_global_rng(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Model code uses numpy's global random state (or an unseeded
    default_rng())."""
    targets = list(_code_targets(ctx))
    yield from _flag_calls(
        ctx, "CODE004", "error", targets,
        {f"numpy.random.{name}" for name in _NUMPY_GLOBAL},
        "call to {call} uses numpy's process-global RNG",
        hint="accept a SeedLike parameter and call "
             "repro.lib.as_generator(seed) (see lib.sources for the "
             "idiom)",
    )
    for location, scan, _owner in targets:
        for call in scan.calls():
            if (scan.resolve_call(call) == "numpy.random.default_rng"
                    and not call.args and not call.keywords):
                yield ctx.diag(
                    "CODE004", "error", location,
                    "numpy.random.default_rng() without a seed draws "
                    "fresh OS entropy per construction" + _via(scan),
                    hint="thread the campaign seed through to "
                         "default_rng(seed)",
                    file=scan.file, line=call.lineno,
                )


@rule("CODE005", domain="code", severity="error")
def environment_read(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Model code reads process environment variables."""
    targets = list(_code_targets(ctx))
    yield from _flag_calls(
        ctx, "CODE005", "error", targets, _ENV_CALLS,
        "call to {call} makes model behaviour depend on the worker's "
        "environment",
        hint="pass configuration through campaign parameters so it is "
             "part of the cache key",
    )
    for location, scan, _owner in targets:
        for node in scan.index.nodes(ast.Subscript):
            if isinstance(node.value, ast.Attribute):
                resolved = scan.resolve_attribute(node.value)
                if resolved in _ENV_ATTRS:
                    yield ctx.diag(
                        "CODE005", "error", location,
                        f"{resolved}[...] read makes model behaviour "
                        f"depend on the worker's environment"
                        + _via(scan),
                        hint="pass configuration through campaign "
                             "parameters instead",
                        file=scan.file, line=node.lineno,
                    )


@rule("CODE006", domain="code", severity="warning")
def filesystem_read_in_processing(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Per-activation code reads the filesystem or stdin."""
    targets = list(_activation_targets(ctx))
    yield from _flag_calls(
        ctx, "CODE006", "warning", targets, _FS_CALLS,
        "call to {call} reads host filesystem state from "
        "per-activation code",
        hint="load data once in __init__/initialize and capture it in "
             "module state; per-activation reads are invisible to the "
             "cache key and slow the hot path",
    )
    for location, scan, _owner in targets:
        for node in scan.index.nodes(ast.Attribute):
            if scan.resolve_attribute(node) in _FS_ATTRS:
                yield ctx.diag(
                    "CODE006", "warning", location,
                    "sys.stdin access from per-activation code"
                    + _via(scan),
                    hint="models must not block on interactive input",
                    file=scan.file, line=node.lineno,
                )


@rule("CODE007", domain="code", severity="error")
def global_state_mutation(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Per-activation code mutates module-global state."""
    for location, scan, _owner in _activation_targets(ctx):
        for node in scan.index.nodes(ast.Global):
            yield ctx.diag(
                "CODE007", "error", location,
                f"'global {', '.join(node.names)}' rebinding from "
                f"per-activation code{_via(scan)}",
                hint="keep per-activation state on self (and cover it "
                     "in checkpoint_state); globals are not restored "
                     "on resume and race under parallel campaigns",
                file=scan.file, line=node.lineno,
            )
        namespace = getattr(scan.fn, "__globals__", {})

        def is_global_container(expr) -> Optional[str]:
            if not isinstance(expr, ast.Name):
                return None
            value = namespace.get(expr.id)
            if value is None or callable(value) or isinstance(
                    value, types.ModuleType):
                return None
            if isinstance(value, (list, dict, set, bytearray)):
                return expr.id
            return None

        for node in scan.index.nodes(ast.Call, ast.Assign,
                                     ast.AugAssign):
            if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute):
                if node.func.attr in {"append", "extend", "add",
                                      "update", "insert", "setdefault",
                                      "pop", "clear", "remove"}:
                    name = is_global_container(node.func.value)
                    if name is not None:
                        yield ctx.diag(
                            "CODE007", "error", location,
                            f"mutation of module-global {name!r} "
                            f"({node.func.attr}) from per-activation "
                            f"code{_via(scan)}",
                            hint="move the container onto self and "
                                 "cover it in checkpoint_state",
                            file=scan.file, line=node.lineno,
                        )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets
                           if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        name = is_global_container(target.value)
                        if name is not None:
                            yield ctx.diag(
                                "CODE007", "error", location,
                                f"item assignment into module-global "
                                f"{name!r} from per-activation code"
                                + _via(scan),
                                hint="move the container onto self "
                                     "and cover it in "
                                     "checkpoint_state",
                                file=scan.file, line=node.lineno,
                            )


# -- checkpoint completeness (CODE008-CODE009) --------------------------------


@rule("CODE008", domain="code", severity="warning")
def checkpoint_incomplete_state(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Per-activation state is invisible to checkpoint/restore."""
    for mscan in module_scans(ctx):
        carried = mscan.carried_state()
        if not carried:
            continue
        covered = mscan.checkpoint_covered()
        has_hooks = (mscan.checkpoint is not None
                     or mscan.restore is not None)
        for attr, (line, path, method) in sorted(carried.items()):
            if attr in covered:
                continue
            location = f"{mscan.anchor()}.{method}"
            if has_hooks:
                message = (f"self.{attr} carries state across "
                           f"activations but is not covered by this "
                           f"module's checkpoint_state/restore_state")
            else:
                message = (f"self.{attr} carries state across "
                           f"activations but the module defines no "
                           f"checkpoint_state hook")
            yield ctx.diag(
                "CODE008", "warning", location, message,
                hint="return it from checkpoint_state() and reinstall "
                     "it in restore_state(); otherwise a resumed run "
                     "silently diverges from an uninterrupted one",
                file=path, line=line, attr=attr,
                cls=mscan.cls.__qualname__,
            )


@rule("CODE009", domain="code", severity="error")
def checkpoint_hook_asymmetry(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """checkpoint_state and restore_state are not overridden together."""
    for mscan in module_scans(ctx):
        has_checkpoint = mscan.checkpoint is not None
        has_restore = mscan.restore is not None
        if has_checkpoint == has_restore:
            continue
        present, missing = (
            ("checkpoint_state", "restore_state") if has_checkpoint
            else ("restore_state", "checkpoint_state"))
        scan = mscan.checkpoint or mscan.restore
        yield ctx.diag(
            "CODE009", "error", mscan.anchor(),
            f"{mscan.cls.__qualname__} overrides {present} but not "
            f"{missing}",
            hint="override both: checkpoints written by one side are "
                 "silently dropped (or never produced) by the other",
            file=scan.file if scan else "",
            line=scan.first_line if scan else 0,
            cls=mscan.cls.__qualname__,
        )


# -- rate contracts (CODE010-CODE012) -----------------------------------------


def _port_attrs(instance):
    for attr, value in vars(instance).items():
        if isinstance(value, (TdfIn, TdfOut)):
            yield attr, value


@rule("CODE010", domain="code", severity="error")
def sample_index_out_of_range(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """A statically bounded sample index exceeds the declared rate."""
    for mscan in module_scans(ctx):
        scan = mscan.methods.get("processing")
        if scan is None:
            continue
        seen = set()
        for instance in mscan.instances:
            for attr, port in _port_attrs(instance):
                key = (attr, port.rate)
                if key in seen or port.rate < 1:
                    continue
                seen.add(key)
                counted = count_port_io(scan, instance, attr,
                                        "processing")
                if (counted.max_index is not None
                        and counted.max_index >= port.rate):
                    yield ctx.diag(
                        "CODE010", "error",
                        f"{instance.full_name()}.{attr}",
                        f"processing() addresses sample index "
                        f"{counted.max_index} of rate-{port.rate} "
                        f"port {attr!r} (valid: 0..{port.rate - 1})",
                        hint="raise the port rate or bound the loop "
                             "by the declared rate; this raises "
                             "SynchronizationError at runtime",
                        file=scan.file, line=counted.line,
                        max_index=counted.max_index, rate=port.rate,
                    )


@rule("CODE011", domain="code", severity="warning")
def out_port_underwritten(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """processing() provably writes fewer samples than the port rate."""
    for mscan in module_scans(ctx):
        scan = mscan.methods.get("processing")
        if scan is None:
            continue
        # helper port I/O defeats the bound: skip the class entirely
        helper_io = any(
            s.resolve_call(c) and s.resolve_call(c).startswith("self.")
            and s.resolve_call(c).endswith((".read", ".write"))
            for s in mscan.helpers.get("processing", ())
            for c in s.calls())
        if helper_io:
            continue
        seen = set()
        for instance in mscan.instances:
            for attr, port in _port_attrs(instance):
                if not isinstance(port, TdfOut) or port.rate < 2:
                    continue
                key = (attr, port.rate)
                if key in seen:
                    continue
                seen.add(key)
                counted = count_port_io(scan, instance, attr,
                                        "processing")
                if (counted.exact and counted.calls
                        and counted.max_index is not None
                        and counted.max_index + 1 < port.rate):
                    yield ctx.diag(
                        "CODE011", "warning",
                        f"{instance.full_name()}.{attr}",
                        f"processing() writes samples 0.."
                        f"{counted.max_index} of rate-{port.rate} "
                        f"port {attr!r}; samples "
                        f"{counted.max_index + 1}.."
                        f"{port.rate - 1} keep their default value",
                        hint="write every declared sample per "
                             "activation (or lower the port rate)",
                        file=scan.file, line=counted.line,
                        max_index=counted.max_index, rate=port.rate,
                    )


@rule("CODE012", domain="code", severity="error")
def block_api_misuse(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """processing_block misuses the block I/O contract."""
    for mscan in module_scans(ctx):
        scan = mscan.methods.get("processing_block")
        if scan is None:
            continue
        location = f"{mscan.anchor()}.processing_block"
        port_names = set()
        for instance in mscan.instances:
            port_names.update(a for a, _p in _port_attrs(instance))
        uses_fallback = any(
            scan.resolve_call(c) == "self._scalar_fallback"
            for c in scan.calls())
        block_param = (scan.node.args.args[1].arg
                       if len(scan.node.args.args) > 1 else None)
        for call in scan.calls():
            resolved = scan.resolve_call(call) or ""
            parts = resolved.split(".")
            if (len(parts) == 3 and parts[0] == "self"
                    and parts[1] in port_names):
                if parts[2] in ("read", "write") and not uses_fallback:
                    yield ctx.diag(
                        "CODE012", "error", location,
                        f"scalar {parts[1]}.{parts[2]}() inside "
                        f"processing_block",
                        hint="use read_block/write_block (or delegate "
                             "via self._scalar_fallback(n) when the "
                             "vector path cannot reproduce scalar "
                             "results bit-exactly)",
                        file=scan.file, line=call.lineno,
                    )
                elif parts[2] == "read_block" and call.args:
                    arg = call.args[0]
                    if isinstance(arg, ast.Constant) and isinstance(
                            arg.value, int):
                        yield ctx.diag(
                            "CODE012", "error", location,
                            f"read_block({arg.value}) uses a constant "
                            f"block size; the scheduler varies the "
                            f"activation count "
                            f"({block_param or 'n'}) at runtime",
                            hint="pass the activation-count parameter "
                                 "through to read_block",
                            file=scan.file, line=call.lineno,
                        )


# -- fork/pickle safety (CODE013-CODE014) -------------------------------------


@rule("CODE013", domain="code", severity="warning")
def fork_unsafe_module_state(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Module state holds OS resources or lambdas that cannot survive
    fork/pickle."""
    for mscan in module_scans(ctx):
        for method, scan in mscan.scans(include_helpers=False):
            location = f"{mscan.anchor()}.{method}"
            for node in scan.index.nodes(ast.Assign):
                stores_self = any(
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                    for t in node.targets)
                if not stores_self:
                    continue
                value = node.value
                if isinstance(value, ast.Lambda):
                    yield ctx.diag(
                        "CODE013", "warning", location,
                        "lambda stored on self cannot be pickled "
                        "(checkpoints, spec shipping)",
                        hint="use a def or functools.partial over a "
                             "module-level function",
                        file=scan.file, line=node.lineno,
                    )
                elif isinstance(value, ast.Call):
                    resolved = scan.resolve_call(value)
                    if resolved in _FORK_UNSAFE_CTORS:
                        yield ctx.diag(
                            "CODE013", "warning", location,
                            f"{resolved}(...) stored on self is an OS "
                            f"resource that cannot survive "
                            f"fork/pickle",
                            hint="open resources lazily per process "
                                 "(worker-side), never in module "
                                 "state that ships across the wire",
                            file=scan.file, line=node.lineno,
                            ctor=resolved,
                        )


@rule("CODE014", domain="code", severity="warning")
def unpicklable_campaign_callable(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """A campaign callable cannot ship through the spec wire."""
    for label, fn, scan, _helpers in callable_scans(ctx):
        inner = getattr(fn, "func", fn)
        if getattr(inner, "__name__", "") == "<lambda>":
            yield ctx.diag(
                "CODE014", "warning", label,
                "campaign callable is a lambda; it cannot be resolved "
                "by name on a remote worker",
                hint="define it as a module-level function in the "
                     "spec file",
                file=scan.file if scan else "",
                line=scan.first_line if scan else 0,
            )
        closure = getattr(inner, "__closure__", None) or ()
        for cell in closure:
            try:
                content = cell.cell_contents
            except ValueError:
                continue
            if isinstance(content, _UNPICKLABLE_CELL_TYPES):
                yield ctx.diag(
                    "CODE014", "warning", label,
                    f"campaign callable closes over a "
                    f"{type(content).__name__}, which cannot be "
                    f"pickled or re-imported on a worker",
                    hint="pass such resources via parameters opened "
                         "worker-side, not via closures",
                    file=scan.file if scan else "",
                    line=scan.first_line if scan else 0,
                    cell_type=type(content).__name__,
                )


# -- MoC side effects (CODE015) -----------------------------------------------


@rule("CODE015", domain="code", severity="info")
def console_io_in_processing(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Per-activation code writes to the console."""
    yield from _flag_calls(
        ctx, "CODE015", "info", _activation_targets(ctx),
        _CONSOLE_CALLS,
        "call to {call} from per-activation code",
        hint="the TDF contract reserves externally visible effects "
             "for converter ports; use tracing (repro.observe) for "
             "debug output",
    )
