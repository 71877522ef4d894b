"""Residual containers shared by the equation checkers and the CLI.

A residual is exact data: a Polynomial, a DifferentialForm or a matrix of
polynomials.  A check passes iff every residual it reports is identically
zero.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from .exterior import DifferentialForm
from .metric import CONVENTION_NOTES
from .polyring import Polynomial


class EngineInconsistency(AssertionError):
    """An internal exact identity failed; this is an engine bug, not a
    property of the background being checked."""


def residual_entries(name: str, value) -> Iterator[Tuple[str, Polynomial]]:
    """Flatten a residual into (label, polynomial) pairs, nonzero only.

    The one dispatch over residual types, read by reports and fieldeqs._audit.
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

    def nonzero_entries(self) -> List[Tuple[str, str]]:
        """(label, polynomial string) for every nonzero residual entry."""
        return [
            (where, str(poly))
            for k, v in self.residuals.items()
            for where, poly in residual_entries(k, v)
        ]

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "verdict": "pass" if self.passed else "fail",
            "skipped": False,  # schema 1 keeps the key; no check is ever skipped
            "nonzero_residuals": [
                {"where": where, "value": value} for where, value in self.nonzero_entries()
            ],
            "notes": list(self.notes),
        }


class VerificationReport:
    """All check results for one background; its JSON form adds the convention notes."""

    __slots__ = ("background", "results", "evaluations", "error", "point_values")

    def __init__(self, background: str):
        self.background = background
        self.results: List[CheckResult] = []
        self.evaluations: List[dict] = []
        self.error: str | None = None
        # residual values at the CLI's --eval point; None when there is none or on error
        self.point_values: Dict[str, str] | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "background": self.background,
            "verdict": "error" if self.error else ("pass" if self.passed else "fail"),
            "error": self.error,
            "checks": [r.to_dict() for r in self.results],
            "evaluations": list(self.evaluations),
            "convention_notes": list(CONVENTION_NOTES),
        }
