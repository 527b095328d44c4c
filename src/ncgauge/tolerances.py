"""Numerical tolerances, and the one record every named residual is reported in.

Two regimes are distinguished:

* ``TAU_ALG`` — identities that hold exactly in the algebra and are only
  polluted by floating-point roundoff (commutator bases, Jacobi identity,
  gauge invariance, ...).
* ``TAU_NUM`` — quantities obtained from an iterative numerical procedure
  (gradient descent residuals, finite-difference spectra, ...).

A :class:`Check` holds one residual with its verdict rule: it passes when
``residual <= tol * scale``, where ``scale`` is the product of the norms of
the operands the residual is built from, so rescaling an input does not
change a verdict.  A :class:`CheckReport` collects named checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

__all__ = ["TAU_ALG", "TAU_NUM", "Check", "CheckReport"]

#: Tolerance for algebraically exact identities (roundoff only).
TAU_ALG = 1e-10

#: Tolerance for numerically obtained quantities (optimization, FD stencils).
TAU_NUM = 1e-8


@dataclass(frozen=True)
class Check:
    """A named residual held to the bound ``tol * scale``."""

    name: str
    residual: float
    tol: float
    scale: float = 1.0
    note: str = ""

    def __post_init__(self) -> None:
        for attr in ("residual", "tol", "scale"):
            object.__setattr__(self, attr, float(getattr(self, attr)))

    @property
    def tolerance(self) -> float:
        """The bound ``tol * scale`` the residual is held to."""
        return self.tol * self.scale

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    @property
    def margin(self) -> float:
        """``residual / tolerance``, at most 1 on a pass; against a zero
        bound, 0 for an exact zero and ``inf`` otherwise."""
        if self.tolerance > 0:
            return self.residual / self.tolerance
        return 0.0 if self.residual == 0 else math.inf

    def to_record(self) -> dict[str, Any]:
        record = {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "scale": self.scale,
            "passed": self.passed,
        }
        if self.note:
            record["note"] = self.note
        return record


def _severity(c: Check) -> tuple[bool, float, float]:
    # failures first, then the margin; among exact zeros the larger bound
    return (not c.passed, c.margin, c.tolerance)


@dataclass(frozen=True)
class CheckReport:
    """Named checks in first-seen order.  Checks that share a name are
    samples of one identity: the report keeps the one nearest its bound."""

    name: str
    lines: tuple[Check, ...]  # any iterable of checks; stored as a tuple

    def __post_init__(self) -> None:
        worst: dict[str, Check] = {}
        for c in self.lines:
            if c.name not in worst or _severity(c) > _severity(worst[c.name]):
                worst[c.name] = c
        object.__setattr__(self, "lines", tuple(worst.values()))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.lines)

    def line(self, name: str) -> Check:
        for c in self.lines:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_record(self) -> dict[str, Any]:
        return {
            "suite": self.name,
            "passed": self.passed,
            "checks": [c.to_record() for c in self.lines],
        }

    def to_text(self) -> str:
        rows = [
            f"[{'PASS' if c.passed else 'FAIL'}] {c.name:32s} residual {c.residual:.3e}"
            f" / bound {c.tolerance:.3e}" + (f"  ({c.note})" if c.note else "")
            for c in self.lines
        ]
        verdict = "all checks pass" if self.passed else "FAILURES PRESENT"
        return "\n".join(rows + [f"{self.name}: {verdict}"])
