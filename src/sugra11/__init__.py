"""Exact exterior-calculus verifier for 11-dimensional product backgrounds.

Everything is computed over exact rational polynomials: charts carry
sparse differential forms, metrics provide Hodge duals and curvature,
and the field-equation checkers report residuals that are identically
zero exactly when a background solves the equations.
"""

from .curvature import grad_norm_sq, hessian, laplace_beltrami, ricci
from .exterior import (
    Chart,
    DifferentialForm,
    VectorField,
    exterior_derivative,
    interior_product,
    lift_to_product,
    wedge,
)
from .fieldeqs import (
    Background,
    FluxAnsatz,
    assemble_flux,
    check_closedness,
    check_einstein,
    check_maxwell,
    flux_norm_sq,
    split_einstein,
)
from .metric import (
    ChartMetric,
    hodge_star,
    inner_product_forms,
    is_null,
    make_metric,
    norm_sq,
    volume_form,
)
from .polyring import Polynomial, parse_polynomial, poly_sqrt
from .product import ProductChart, build_product
from .report import CheckResult, VerificationReport

__all__ = [
    "Background",
    "Chart",
    "ChartMetric",
    "CheckResult",
    "DifferentialForm",
    "FluxAnsatz",
    "Polynomial",
    "ProductChart",
    "VectorField",
    "VerificationReport",
    "assemble_flux",
    "build_product",
    "check_closedness",
    "check_einstein",
    "check_maxwell",
    "exterior_derivative",
    "flux_norm_sq",
    "grad_norm_sq",
    "hessian",
    "hodge_star",
    "inner_product_forms",
    "interior_product",
    "is_null",
    "laplace_beltrami",
    "lift_to_product",
    "make_metric",
    "norm_sq",
    "parse_polynomial",
    "poly_sqrt",
    "ricci",
    "split_einstein",
    "volume_form",
    "wedge",
]
