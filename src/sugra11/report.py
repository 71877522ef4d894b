"""Residual containers shared by the equation checkers and the CLI.

A residual is exact data: a Polynomial, a DifferentialForm, a matrix of
polynomials, or a mapping of named sub-residuals.  A check passes iff
every residual it reports is identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from .exterior import DifferentialForm, VectorField
from .polyring import Polynomial


class EngineInconsistency(AssertionError):
    """An internal exact identity failed; this is an engine bug, not a
    property of the background being checked."""


def residual_is_zero(value) -> bool:
    if isinstance(value, Polynomial):
        return value.is_zero()
    if isinstance(value, DifferentialForm):
        return value.is_zero()
    if isinstance(value, VectorField):
        return not value.components
    if isinstance(value, tuple):
        return all(residual_is_zero(v) for row in value for v in row)
    if isinstance(value, dict):
        return all(residual_is_zero(v) for v in value.values())
    raise TypeError(f"unknown residual type {type(value)!r}")


def residual_entries(name: str, value) -> Iterator[Tuple[str, Polynomial]]:
    """Flatten a residual into (label, polynomial) pairs, nonzero only."""
    if isinstance(value, Polynomial):
        if not value.is_zero():
            yield name, value
    elif isinstance(value, DifferentialForm):
        names = value.chart.coordinates
        for idx in sorted(value.components):
            yield name + "[" + "^".join(f"d{names[i]}" for i in idx) + "]", value.components[idx]
    elif isinstance(value, VectorField):
        names = value.chart.coordinates
        for i in sorted(value.components):
            yield f"{name}[d/d{names[i]}]", value.components[i]
    elif isinstance(value, tuple):
        for i, row in enumerate(value):
            for j, entry in enumerate(row):
                if not entry.is_zero():
                    yield f"{name}[{i},{j}]", entry
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from residual_entries(f"{name}.{k}", v)
    else:
        raise TypeError(f"unknown residual type {type(value)!r}")


@dataclass
class CheckResult:
    """Named residuals for one equation-level check."""

    name: str
    residuals: Dict[str, object] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(residual_is_zero(v) for v in self.residuals.values())

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


@dataclass
class VerificationReport:
    """All check results for one background, plus convention notes."""

    background: str
    results: List[CheckResult] = field(default_factory=list)
    convention_notes: List[str] = field(default_factory=list)
    evaluations: List[dict] = field(default_factory=list)
    error: str | None = None
    # residual values at the CLI's --eval point; None when there is none or on error
    point_values: Dict[str, str] | None = None

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
            "convention_notes": list(self.convention_notes),
        }
