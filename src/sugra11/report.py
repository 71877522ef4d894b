"""Residual containers shared by the equation checkers and the CLI.

A residual is exact data: a Polynomial, a DifferentialForm or a matrix of
polynomials.  A check passes iff every residual it reports is identically
zero.  These are records of exact objects: ``cli.report_document`` alone
turns them into the text that the text and JSON reports both print.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, List, Tuple

from .exterior import DifferentialForm
from .polyring import Polynomial


class EngineInconsistency(AssertionError):
    """An internal exact identity failed; this is an engine bug, not a
    property of the background being checked."""


def residual_entries(name: str, value) -> Iterator[Tuple[str, Polynomial]]:
    """Flatten a residual into (label, polynomial) pairs, nonzero only.

    The one dispatch over residual types, read by ``CheckResult`` and fieldeqs._audit.
    A label is built only for an entry that is yielded, so ``CheckResult.passed``,
    which stops at the first entry, builds no string for a passing check."""
    if isinstance(value, Polynomial):
        if not value.is_zero():
            yield name, value
    elif isinstance(value, DifferentialForm):
        for idx in sorted(value.components):
            yield f"{name}[{value.chart.basis_label(idx)}]", value.components[idx]
    elif isinstance(value, tuple):
        for i, row in enumerate(value):
            for j, entry in enumerate(row):
                if not entry.is_zero():
                    yield f"{name}[{i},{j}]", entry
    else:
        raise TypeError(f"unknown residual type {type(value)!r}")


class CheckResult:
    """Named residuals for one equation-level check."""

    __slots__ = ("name", "residuals", "notes")

    def __init__(self, name: str):
        self.name = name
        self.residuals: Dict[str, object] = {}
        self.notes: List[str] = []

    @property
    def passed(self) -> bool:
        return not any(True for k, v in self.residuals.items() for _ in residual_entries(k, v))

    def nonzero_entries(self) -> List[Tuple[str, Polynomial]]:
        """(label, polynomial) for every nonzero residual entry."""
        return [entry for k, v in self.residuals.items() for entry in residual_entries(k, v)]


class VerificationReport:
    """All check results for one background, its evaluations and its error."""

    __slots__ = ("background", "results", "evaluations", "error", "point_values")

    def __init__(self, background: str):
        self.background = background
        self.results: List[CheckResult] = []
        self.evaluations: List[Tuple[Dict[str, Fraction], Dict[str, Fraction]]] = []  # (point, values)
        self.error: str | None = None
        # residual values at the CLI's --eval point; None when there is none or on error
        self.point_values: Dict[str, Fraction] | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(r.passed for r in self.results)
