"""``# verify: allow[RULE]`` inline suppression.

Two granularities, both honored by the engine (not by individual
rules), and both *counted*: a suppressed diagnostic stays in the report
with ``suppressed=True`` instead of being dropped.

* **line level** — for diagnostics carrying a ``file``/``line`` source
  anchor (the CODE rules): an allow comment on the offending line or
  the line directly above silences that rule there::

      self._state += x  # verify: allow[CODE008]

* **class level** — for graph diagnostics anchored to instance paths
  (``"top.src.out"``): an allow comment anywhere in the source body of
  the owning module's *class* silences that rule for all its
  instances::

      class LegacySource(TdfModule):
          # verify: allow[TDF007]
          ...

Multiple ids separate with commas: ``# verify: allow[CODE001,CODE004]``.
"""

from __future__ import annotations

import inspect
import os
import weakref
from typing import Dict, FrozenSet, List, Optional, Tuple

import re

_ALLOW = re.compile(r"#\s*verify:\s*allow\[([A-Z0-9,\s]+)\]")

#: path → (stat signature, {line: allowed rule ids})
_FILE_CACHE: Dict[str, Tuple[Tuple[float, int],
                             Dict[int, FrozenSet[str]]]] = {}
#: class → union of rule ids allowed anywhere in its body (weak keys:
#: a cached class can still be collected).
_CLASS_CACHE: weakref.WeakKeyDictionary[type, FrozenSet[str]] = \
    weakref.WeakKeyDictionary()


def _parse_lines(lines: List[str], first_line: int = 1,
                 ) -> Dict[int, FrozenSet[str]]:
    allowed: Dict[int, FrozenSet[str]] = {}
    for offset, text in enumerate(lines):
        match = _ALLOW.search(text)
        if match:
            ids = frozenset(
                part.strip() for part in match.group(1).split(",")
                if part.strip())
            if ids:
                allowed[first_line + offset] = ids
    return allowed


def file_suppressions(path: str) -> Dict[int, FrozenSet[str]]:
    """``{line: allowed rule ids}`` for one source file (cached by
    mtime/size so edited files re-parse)."""
    try:
        stat = os.stat(path)
        signature = (stat.st_mtime, stat.st_size)
    except OSError:
        return {}
    cached = _FILE_CACHE.get(path)
    if cached is not None and cached[0] == signature:
        return cached[1]
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            allowed = _parse_lines(handle.read().splitlines())
    except OSError:
        allowed = {}
    _FILE_CACHE[path] = (signature, allowed)
    return allowed


def line_suppressed(path: str, line: int, rule_id: str) -> bool:
    """True when ``rule_id`` is allowed on ``line`` (same line or the
    line directly above — the two idiomatic comment placements)."""
    allowed = file_suppressions(path)
    for candidate in (line, line - 1):
        ids = allowed.get(candidate)
        if ids is not None and rule_id in ids:
            return True
    return False


def class_allowed_rules(cls: type) -> FrozenSet[str]:
    """Union of rule ids allowed anywhere in the class's source body."""
    cached = _CLASS_CACHE.get(cls)
    if cached is not None:
        return cached
    try:
        lines, _start = inspect.getsourcelines(cls)
    except (OSError, TypeError):
        allowed: FrozenSet[str] = frozenset()
    else:
        allowed = frozenset(
            rule_id for ids in _parse_lines(lines).values()
            for rule_id in ids)
    _CLASS_CACHE[cls] = allowed
    return allowed


def class_suppressed(cls: Optional[type], rule_id: str) -> bool:
    return cls is not None and rule_id in class_allowed_rules(cls)
