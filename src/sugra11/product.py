"""Warped products of chart metrics and the block Ricci oracle.

A product couples a base (M, g) with a fiber (Mt, gt) through a warping
function f on the base: h = g + f^2 gt on the union chart, base
coordinates first.  The orientation convention makes
vol_h = f^dim(fiber) vol_base ^ vol_fiber.

The block Ricci formulas

    Ric^h(X, Y)   = Ric^g(X, Y) - (dim_fiber / f) Hess(f)(X, Y)
    Ric^h(Xt, Yt) = Ric^gt(Xt, Yt) - h(Xt, Yt) fhat
    Ric^h(X, Yt)  = 0
    fhat = Lap_g(f)/f + (dim_fiber - 1) g(grad f, grad f)/f^2

serve as an independent oracle against the direct curvature computation
of the assembled metric.  All divisions must stay polynomial; when f
does not divide, the oracle refuses rather than approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .curvature import grad_norm_sq, hessian, laplace_beltrami, ricci
from .exterior import Chart, ChartError, DifferentialForm, lift_to_product, wedge
from .metric import ChartMetric, MetricError, make_metric
from .polyring import Polynomial, poly_divexact

Matrix = Tuple[Tuple[Polynomial, ...], ...]


class NonPolynomialDivision(ValueError):
    pass


@dataclass(frozen=True)
class ProductChart:
    base: ChartMetric
    fiber: ChartMetric
    warping: Polynomial
    chart: Chart
    assembled: ChartMetric

    @property
    def base_chart(self) -> Chart:
        return self.base.chart

    @property
    def fiber_chart(self) -> Chart:
        return self.fiber.chart

    @property
    def base_indices(self):
        return range(self.base.dim)

    @property
    def fiber_indices(self):
        return range(self.base.dim, self.base.dim + self.fiber.dim)

    def lift(self, form: DifferentialForm) -> DifferentialForm:
        return lift_to_product(form, self.chart)


def build_product(
    base: ChartMetric,
    fiber: ChartMetric,
    warping: Polynomial | int | Fraction = 1,
    assembled_inverse=None,
) -> ProductChart:
    """Assemble h = g + f^2 gt on the union chart, base coordinates first."""
    if isinstance(warping, (int, Fraction)):
        warping = Polynomial.constant(warping)
    if warping.is_zero():
        raise MetricError("warping function must be nonzero")
    overlap = set(base.chart.coordinates) & set(fiber.chart.coordinates)
    if overlap:
        raise ChartError(f"base and fiber share coordinates: {sorted(overlap)}")
    extraneous = set(warping.variables) - set(base.chart.coordinates)
    if extraneous:
        raise ChartError(f"warping function uses non-base variables: {sorted(extraneous)}")

    chart = Chart(
        f"{base.chart.name}x{fiber.chart.name}",
        base.chart.coordinates + fiber.chart.coordinates,
    )
    nb, nf = base.dim, fiber.dim
    n = nb + nf
    zero = Polynomial.zero()
    f_sq = warping * warping

    g = [[zero] * n for _ in range(n)]
    for i in range(nb):
        for j in range(nb):
            g[i][j] = base.g[i][j]
    for i in range(nf):
        for j in range(nf):
            g[nb + i][nb + j] = fiber.g[i][j] * f_sq

    if assembled_inverse is not None:
        g_inv = assembled_inverse
    elif warping.is_constant():
        inv_f_sq = Fraction(1) / f_sq.constant_value()
        g_inv = [[zero] * n for _ in range(n)]
        for i in range(nb):
            for j in range(nb):
                g_inv[i][j] = base.g_inv[i][j]
        for i in range(nf):
            for j in range(nf):
                g_inv[nb + i][nb + j] = fiber.g_inv[i][j] * inv_f_sq
    else:
        raise NonPolynomialDivision(
            "non-constant warping needs an explicitly supplied polynomial inverse"
        )

    plus = base.signature[0] + fiber.signature[0]
    minus = base.signature[1] + fiber.signature[1]
    sqrt_det = base.sqrt_abs_det * fiber.sqrt_abs_det * warping ** nf
    assembled = make_metric(chart, g, g_inv, (plus, minus), sqrt_abs_det=sqrt_det)
    return ProductChart(base, fiber, warping, chart, assembled)


def warped_ricci_oracle(pc: ProductChart) -> Matrix:
    """Block-formula Ricci of the assembled metric, fully independent of it."""
    nb, nf = pc.base.dim, pc.fiber.dim
    n = nb + nf
    zero = Polynomial.zero()
    f = pc.warping

    ric_base = ricci(pc.base)
    ric_fiber = ricci(pc.fiber)
    hess = hessian(pc.base, f)
    lap = laplace_beltrami(pc.base, f)
    grad_sq = grad_norm_sq(pc.base, f)

    # fhat = lap/f + (nf - 1) grad_sq / f^2, with exact division
    fhat = zero
    if not lap.is_zero():
        fhat = fhat + _div(lap, f)
    if not grad_sq.is_zero():
        fhat = fhat + _div(grad_sq, f * f) * (nf - 1)

    out = [[zero] * n for _ in range(n)]
    for i in range(nb):
        for j in range(nb):
            entry = ric_base[i][j]
            if not hess[i][j].is_zero():
                entry = entry - _div(hess[i][j] * nf, f)
            out[i][j] = entry
    f_sq = f * f
    for i in range(nf):
        for j in range(nf):
            entry = ric_fiber[i][j]
            if not fhat.is_zero():
                h_ij = pc.fiber.g[i][j] * f_sq
                if not h_ij.is_zero():
                    entry = entry - h_ij * fhat
            out[nb + i][nb + j] = entry
    return tuple(tuple(row) for row in out)


def _div(num: Polynomial, den: Polynomial) -> Polynomial:
    try:
        return poly_divexact(num, den)
    except ValueError as exc:
        raise NonPolynomialDivision(str(exc)) from exc


def volume_factorization_residual(pc: ProductChart) -> DifferentialForm:
    """vol_h - f^dim(fiber) vol_base ^ vol_fiber, identically zero by construction
    of the orientation convention; kept as an explicit cross-check."""
    from .metric import volume_form

    lifted_base = pc.lift(volume_form(pc.base))
    lifted_fiber = pc.lift(volume_form(pc.fiber))
    expected = wedge(lifted_base, lifted_fiber) * pc.warping ** pc.fiber.dim
    return volume_form(pc.assembled) - expected
