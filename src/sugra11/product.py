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
of the assembled metric.

The warping f is a nonzero rational constant: build_product is the one
place that decides this, refusing any other f, and ProductChart.warping
holds it as a Fraction.  A non-constant f would need the coefficient
ring localized at f.  The oracle keeps the general formulas above, with
the constant wrapped as a polynomial, so it stays independent of the
assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .curvature import grad_norm_sq, hessian, laplace_beltrami, ricci
from .exterior import Chart, ChartError, DifferentialForm, lift_to_product
from .metric import ChartMetric, MetricError, make_metric
from .polyring import Polynomial, poly_divexact

Matrix = Tuple[Tuple[Polynomial, ...], ...]


class NonPolynomialDivision(ValueError):
    pass


@dataclass(frozen=True)
class ProductChart:
    base: ChartMetric
    fiber: ChartMetric
    warping: Fraction
    chart: Chart
    assembled: ChartMetric

    @property
    def base_chart(self) -> Chart:
        return self.base.chart

    @property
    def fiber_chart(self) -> Chart:
        return self.fiber.chart

    def lift(self, form: DifferentialForm) -> DifferentialForm:
        return lift_to_product(form, self.chart)


def build_product(
    base: ChartMetric,
    fiber: ChartMetric,
    warping: Polynomial | int | Fraction = 1,
) -> ProductChart:
    """Assemble h = g + f^2 gt on the union chart, base coordinates first."""
    if not isinstance(warping, Polynomial):
        warping = Polynomial.constant(warping)
    if not warping.is_constant():
        raise NonPolynomialDivision(f"warping must be a nonzero constant, got {warping}")
    warping = warping.constant_value()
    if warping == 0:
        raise MetricError("warping must be a nonzero constant, got 0")
    overlap = set(base.chart.coordinates) & set(fiber.chart.coordinates)
    if overlap:
        raise ChartError(f"base and fiber share coordinates: {sorted(overlap)}")

    chart = Chart(
        f"{base.chart.name}x{fiber.chart.name}",
        base.chart.coordinates + fiber.chart.coordinates,
    )
    nb, nf = base.dim, fiber.dim
    n = nb + nf
    zero = Polynomial.zero()
    f_sq = warping * warping
    inv_f_sq = 1 / f_sq

    g = [[zero] * n for _ in range(n)]
    g_inv = [[zero] * n for _ in range(n)]
    for i in range(nb):
        for j in range(nb):
            g[i][j] = base.g[i][j]
            g_inv[i][j] = base.g_inv[i][j]
    for i in range(nf):
        for j in range(nf):
            g[nb + i][nb + j] = fiber.g[i][j] * f_sq
            g_inv[nb + i][nb + j] = fiber.g_inv[i][j] * inv_f_sq

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
    f = Polynomial.constant(pc.warping)

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
