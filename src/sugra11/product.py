"""Warped products of chart metrics.

A product couples a base (M, g) with a fiber (Mt, gt) through a warping
function f on the base: h = g + f^2 gt on the union chart, base
coordinates first.  The orientation convention makes
vol_h = f^dim(fiber) vol_base ^ vol_fiber.

The warping f is a nonzero rational constant: build_product is the one
place that decides this, refusing any other f, and ProductChart.warping
holds it as a Fraction.  A non-constant f would need the coefficient
ring localized at f.
"""

from __future__ import annotations

from fractions import Fraction

from .exterior import Chart, ChartError, DifferentialForm, Frozen, lift_to_product
from .metric import ChartMetric, MetricError, make_metric
from .polyring import Polynomial


class NonPolynomialDivision(ValueError):
    pass


class ProductChart(Frozen):
    """ProductChart(base, fiber, warping, chart, assembled): the factor metrics,
    the warping as a Fraction, the union chart and the metric h on it."""

    __slots__ = ("base", "fiber", "warping", "chart", "assembled")

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
