"""The verifier's rule registry.

A *rule* is one static check: a function taking a
:class:`~repro.verify.context.VerifyContext` and yielding
:class:`~repro.verify.diagnostics.Diagnostic` objects.  Rules register
themselves with the :func:`rule` decorator::

    @rule("TDF001", domain="tdf", severity="error")
    def unbound_tdf_port(ctx):
        '''TDF port is not bound to any signal.'''
        for module in ctx.tdf_modules:
            ...
            yield ctx.diag("TDF001", port.full_name(), "...")

so adding a new check is one function; the registry provides
ruff-style ``--select`` / ``--ignore`` prefix filtering and a content
hash of the registered ruleset used to version campaign cache keys.
"""

from __future__ import annotations

import hashlib
import re
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from .diagnostics import SEVERITIES

_RULE_ID = re.compile(r"^[A-Z]+[0-9]{3}$")

#: Bumped manually when an existing rule's *semantics* change without
#: its id or severity changing; combined with the registry content hash
#: into :func:`ruleset_version`.
RULESET_EPOCH = "1"


@dataclass(frozen=True)
class Rule:
    """One registered static check."""

    rule_id: str
    domain: str
    severity: str
    description: str
    func: Callable

    def run(self, ctx) -> List:
        return list(self.func(ctx))


_RULES: Dict[str, Rule] = {}


def rule(rule_id: str, *, domain: str, severity: str = "error",
         description: Optional[str] = None) -> Callable:
    """Register a rule function under ``rule_id``.

    ``description`` defaults to the first line of the function's
    docstring; ``severity`` is the fixed severity of every diagnostic
    the rule emits (enforced at emission time by the engine).
    """
    if not _RULE_ID.match(rule_id):
        raise ValueError(
            f"rule id {rule_id!r} must look like 'TDF001'")
    if severity not in SEVERITIES:
        raise ValueError(f"unknown severity {severity!r}")

    def decorate(func: Callable) -> Callable:
        if rule_id in _RULES:
            raise ValueError(f"rule {rule_id!r} registered twice")
        text = description
        if text is None:
            doc = (func.__doc__ or "").strip()
            text = doc.splitlines()[0] if doc else rule_id
        _RULES[rule_id] = Rule(rule_id, domain, severity, text, func)
        return func

    return decorate


def all_rules() -> Dict[str, Rule]:
    """All registered rules, keyed by id (insertion order preserved)."""
    _load_builtin_rules()
    return dict(_RULES)


def get_rule(rule_id: str) -> Rule:
    _load_builtin_rules()
    try:
        return _RULES[rule_id]
    except KeyError:
        raise KeyError(f"no rule {rule_id!r} registered") from None


def select_rules(select: Optional[Sequence[str]] = None,
                 ignore: Optional[Sequence[str]] = None) -> List[Rule]:
    """Filter the registry with ruff-style id prefixes.

    ``select=["TDF", "ELN003"]`` keeps all TDF rules plus ELN003;
    ``ignore`` removes by the same prefix matching and wins over
    ``select``.  ``None`` selects everything.
    """
    _load_builtin_rules()

    def matches(rule_id: str, prefixes: Iterable[str]) -> bool:
        return any(rule_id.startswith(p) for p in prefixes)

    chosen = []
    for rule_obj in _RULES.values():
        if select is not None and not matches(rule_obj.rule_id, select):
            continue
        if ignore and matches(rule_obj.rule_id, ignore):
            continue
        chosen.append(rule_obj)
    return chosen


def ruleset_version() -> str:
    """Content version of the active ruleset.

    Hashes every registered (id, severity) pair together with
    :data:`RULESET_EPOCH`; campaign cache keys embed this so cached
    results invalidate whenever a rule is added, removed, reclassified,
    or the epoch is bumped for a semantic change.
    """
    _load_builtin_rules()
    digest = hashlib.sha256(RULESET_EPOCH.encode())
    for rule_id in sorted(_RULES):
        digest.update(f"{rule_id}:{_RULES[rule_id].severity};".encode())
    return f"{RULESET_EPOCH}-{digest.hexdigest()[:12]}"


_LOADED = False
#: Held while the built-in rules register, so a thread arriving
#: meanwhile waits for the full set instead of running a partial one.
_LOAD_LOCK = threading.RLock()


def _load_builtin_rules() -> None:
    """Import the built-in rule modules exactly once (registration is
    an import side effect)."""
    global _LOADED
    if _LOADED:
        return
    with _LOAD_LOCK:
        if _LOADED:
            return
        from . import rules_core  # noqa: F401
        from . import rules_eln  # noqa: F401
        from . import rules_sdf  # noqa: F401
        from . import rules_sync  # noqa: F401
        from . import rules_tdf  # noqa: F401
        from .code import rules_code  # noqa: F401
        _LOADED = True
