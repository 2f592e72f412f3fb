"""The equation interface: behavioural DAE formulation by name.

The paper requires "an equation interface that should allow a user to
formulate behavioral models or functional specifications in a more
natural way as a set of DAEs" — including Phase 2's "formulation of
implicit equations, e.g. true simultaneous statements".

:class:`EquationSystem` lets users declare named variables and state
residual equations over them; it compiles to a
:class:`~repro.ct.nonlinear.FunctionSystem` usable with every solver::

    es = EquationSystem()
    v = es.variable("v", initial=0.0)
    i = es.variable("i")
    es.differential(v, lambda x, t: x[i] / C)          # dv/dt = i/C
    es.equation(lambda x, t: x[v] + R * x[i] - vin(t)) # KVL, implicit

Residual callbacks receive the raw state vector indexable by the
variable handles (plain integers) and the time.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.errors import ElaborationError
from ..ct.nonlinear import FunctionSystem

Residual = Callable[[np.ndarray, float], float]


class Variable(int):
    """An unknown: an int index with a name attached."""

    def __new__(cls, index: int, name: str):
        obj = super().__new__(cls, index)
        obj.name = name
        return obj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Variable({int(self)}, {self.name!r})"


class EquationSystem:
    """Named-variable DAE builder.

    Each variable needs exactly one defining statement: either a
    *differential* equation ``d(var)/dt = rhs(x, t)`` or its
    participation being pinned down by the overall count of *implicit*
    equations — the system needs exactly as many equations as variables.
    """

    def __init__(self, name: str = "equations"):
        self.name = name
        self._variables: list[Variable] = []
        self._initials: list[float] = []
        #: differential statements: (variable, rhs)
        self._differentials: list[tuple[Variable, Residual]] = []
        #: implicit residuals F(x, t) = 0
        self._equations: list[Residual] = []

    def variable(self, name: str, initial: float = 0.0) -> Variable:
        if any(v.name == name for v in self._variables):
            raise ElaborationError(f"duplicate variable name {name!r}")
        var = Variable(len(self._variables), name)
        self._variables.append(var)
        self._initials.append(initial)
        return var

    def differential(self, var: Variable, rhs: Residual) -> None:
        """Declare ``d(var)/dt = rhs(x, t)``."""
        if any(v is var or int(v) == int(var)
               for v, _ in self._differentials):
            raise ElaborationError(
                f"variable {var.name!r} already has a differential equation"
            )
        self._differentials.append((var, rhs))

    def equation(self, residual: Residual) -> None:
        """Declare an implicit equation ``residual(x, t) == 0``."""
        self._equations.append(residual)

    # -- compilation ------------------------------------------------------------

    def build(self) -> FunctionSystem:
        """Compile to a charge-form nonlinear system.

        Ordering: one row per differential statement (charge = the
        variable, static = -rhs), then one row per implicit equation
        (pure static).  Equation count must equal variable count.
        """
        n = len(self._variables)
        total = len(self._differentials) + len(self._equations)
        if total != n:
            raise ElaborationError(
                f"system {self.name!r} has {n} variables but {total} "
                "equations; it must be square"
            )
        diff_vars = [int(v) for v, _ in self._differentials]
        diff_rhs = [rhs for _, rhs in self._differentials]
        implicit = list(self._equations)

        def charge(x: np.ndarray) -> np.ndarray:
            q = np.zeros(n)
            for row, var in enumerate(diff_vars):
                q[row] = x[var]
            return q

        def charge_jacobian(x: np.ndarray) -> np.ndarray:
            c = np.zeros((n, n))
            for row, var in enumerate(diff_vars):
                c[row, var] = 1.0
            return c

        def static(x: np.ndarray, t: float) -> np.ndarray:
            f = np.zeros(n)
            for row, rhs in enumerate(diff_rhs):
                f[row] = -float(rhs(x, t))
            base = len(diff_rhs)
            for k, residual in enumerate(implicit):
                f[base + k] = float(residual(x, t))
            return f

        return FunctionSystem(
            n,
            static=static,
            charge=charge,
            charge_jacobian=charge_jacobian,
            x0=np.asarray(self._initials, dtype=float),
        )

    @property
    def variable_names(self) -> list[str]:
        return [v.name for v in self._variables]
