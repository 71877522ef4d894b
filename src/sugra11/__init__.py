"""Exact exterior-calculus verifier for 11-dimensional product backgrounds.

Everything is computed over exact rational polynomials: charts carry
sparse differential forms, metrics provide Hodge duals and curvature,
and the field-equation checkers report residuals that are identically
zero exactly when a background solves the equations.

``__all__`` is a list of promises: each name in it appears in the
README's library example or in ``scripts/``.  Everything else is
reached through its module.
"""

from .exterior import Chart, DifferentialForm, exterior_derivative, wedge
from .fieldeqs import FluxAnsatz, assemble_flux, check_closedness, check_einstein, check_maxwell
from .metric import hodge_star, make_metric
from .polyring import Polynomial
from .product import build_product

__all__ = [
    "Chart",
    "DifferentialForm",
    "FluxAnsatz",
    "Polynomial",
    "assemble_flux",
    "build_product",
    "check_closedness",
    "check_einstein",
    "check_maxwell",
    "exterior_derivative",
    "hodge_star",
    "make_metric",
    "wedge",
]
