"""Warped products of chart metrics.

A product couples a base (M, g) with a fiber (Mt, gt) through a warping
function f on the base: h = g + f^2 gt on the union chart, base
coordinates first.  The orientation convention makes
vol_h = |f|^dim(fiber) vol_base ^ vol_fiber; h depends on f^2 only, so f
and -f give the same background.

The warping f is a nonzero rational constant: build_product is the one
place that decides this, refusing any other f, and ProductChart.warping
holds it as a Fraction.  A non-constant f would need the coefficient
ring localized at f.

build_product does not validate h again.  Each factor passed
``make_metric``, the one place that validates a metric and establishes
that det g is a nonzero constant with a rational square root, and h is
block diagonal with blocks g and f^2 gt, so h_inv is block diagonal with
blocks g_inv and f^-2 gt_inv, det h = det g * f^(2 dim(fiber)) * det gt,
and every field of the assembled metric is read off the factors.
"""

from __future__ import annotations

from fractions import Fraction

from .exterior import Chart, ChartError, DifferentialForm, Frozen, lift_to_product
from .metric import ChartMetric, Matrix, MetricError
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

    def star_weight(self, q: int) -> Fraction:
        """|f|^(dim(fiber) - 2q): the factor by which star_h scales a piece with
        q fiber indices against its factor stars.  vol_h carries |f|^dim(fiber)
        and raising q fiber indices carries f^(-2q)."""
        return abs(self.warping) ** (self.fiber.dim - 2 * q)


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
    f_sq = warping * warping
    signature = (base.signature[0] + fiber.signature[0], base.signature[1] + fiber.signature[1])
    sqrt_det = base.sqrt_abs_det * fiber.sqrt_abs_det * abs(warping) ** fiber.dim
    assembled = ChartMetric(
        chart,
        _block_diagonal(base.g, fiber.g, f_sq),
        _block_diagonal(base.g_inv, fiber.g_inv, 1 / f_sq),
        signature,
        sqrt_det,
        {},  # its own table of minors of h, apart from the factors'
    )
    return ProductChart(base, fiber, warping, chart, assembled)


def _block_diagonal(a: Matrix, b: Matrix, scale: Fraction) -> Matrix:
    """The block-diagonal matrix diag(a, scale * b)."""
    za, zb = (Polynomial.zero(),) * len(a), (Polynomial.zero(),) * len(b)
    return tuple(row + zb for row in a) + tuple(za + tuple(e * scale for e in row) for row in b)
