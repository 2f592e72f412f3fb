"""Per-function content hashing (``code_fingerprint``).

The campaign cache (PR 1) keyed results on a digest of the *whole
source file* defining the model factory — editing a docstring three
functions away invalidated every cached point.  ``code_fingerprint``
narrows the identity to the code that actually executes: the
normalized AST of the function itself plus (one level deep, matching
the lint's interprocedural bound) every same-module helper function it
calls by name.  Formatting, comments, docstrings, and unrelated
top-level edits no longer churn cache keys; changing the executed body
always does.

The hash is stable across processes and hosts: it is derived from
``ast.dump`` of a location-stripped parse, never from ``id()``,
``hash()``, or dict iteration over runtime state.  The parse and dump
come from the lint's shared :func:`~repro.verify.code.scan.function_index`;
helpers are resolved through the live globals on every call.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
from typing import Callable

from .scan import bare_helpers, function_index


def _opaque_identity(fn: Callable) -> bytes:
    """Source-less fallback: hash the compiled code object (stable for
    a given interpreter/bytecode, better than nothing)."""
    code = getattr(fn, "__code__", None)
    if code is None:
        return repr(fn).encode()
    return code.co_code + repr(code.co_consts).encode() \
        + repr(code.co_names).encode()


def code_fingerprint(fn: Callable) -> str:
    """Content hash of the code a callable executes.

    Covers the function's own normalized AST plus one level of
    same-module helper functions called by name (deeper call chains —
    like the verifier's interprocedural analysis — are deliberately
    out of scope: fingerprint what you lint).  ``functools.partial``
    objects hash their inner function together with the canonical repr
    of the frozen arguments.
    """
    digest = hashlib.sha256(b"code-fingerprint-v1:")
    if isinstance(fn, functools.partial):
        digest.update(code_fingerprint(fn.func).encode())
        digest.update(repr(fn.args).encode())
        digest.update(repr(sorted(fn.keywords.items())).encode())
        return digest.hexdigest()[:16]
    index = function_index(fn)
    if index is None:
        digest.update(_opaque_identity(fn))
        return digest.hexdigest()[:16]
    digest.update(index.dump.encode())
    itself = inspect.unwrap(fn)
    for name, helper in sorted(bare_helpers(fn, index),
                               key=lambda pair: pair[0]):
        if helper is itself:
            continue
        helper_index = function_index(helper)
        if helper_index is not None:
            digest.update(f";{name}=".encode())
            digest.update(helper_index.dump.encode())
    return digest.hexdigest()[:16]
