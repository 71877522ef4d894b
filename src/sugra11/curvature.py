"""Christoffel symbols, Ricci tensor, Hessian, gradient, Laplace-Beltrami.

The Ricci sign convention is

    Ric_ij = d_k Gamma^k_ij - d_j Gamma^k_ik
             + Gamma^k_kl Gamma^l_ij - Gamma^k_jl Gamma^l_ik,

calibrated once against the Walker identity: for
h = 2 dv du + rho + H (du)^2 with rho Ricci-flat, A = 0 and H
v-independent, the only nonzero entry is Ric_uu = -1/2 Delta H.

CurvatureData is computed once per metric and memoized on the metric
object; metrics are immutable so the cache never invalidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .exterior import DifferentialForm, VectorField, exterior_derivative
from .metric import ChartMetric, sharp
from .polyring import Polynomial, sum_of_products

Matrix = Tuple[Tuple[Polynomial, ...], ...]


@dataclass(frozen=True)
class CurvatureData:
    metric: ChartMetric
    christoffel: Tuple[Tuple[Tuple[Polynomial, ...], ...], ...]  # [k][i][j]
    ricci: Matrix


def curvature(m: ChartMetric) -> CurvatureData:
    cached = m._curvature
    if cached is None:
        cached = _compute_curvature(m)
        m._curvature = cached
    return cached


def christoffel(m: ChartMetric):
    return curvature(m).christoffel


def ricci(m: ChartMetric) -> Matrix:
    return curvature(m).ricci


def _compute_curvature(m: ChartMetric) -> CurvatureData:
    n = m.dim
    names = m.chart.coordinates
    zero = Polynomial.zero()

    dg: Dict[Tuple[int, int, int], Polynomial] = {}  # (l, i, j) -> d_l g_ij
    for i in range(n):
        for j in range(i, n):
            entry = m.g[i][j]
            if entry.is_zero():
                continue
            for l in range(n):
                p = entry.partial(names[l])
                if not p.is_zero():
                    dg[(l, i, j)] = p
                    dg[(l, j, i)] = p

    # Christoffel symbols of the first kind, times 2, nonzero only:
    # (l, i, j) -> d_i g_jl + d_j g_il - d_l g_ij for i <= j
    first = {}
    for l in range(n):
        for i in range(n):
            for j in range(i, n):
                bracket = dg.get((i, j, l), zero) + dg.get((j, i, l), zero) - dg.get((l, i, j), zero)
                if not bracket.is_zero():
                    first[l, i, j] = bracket

    gamma = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                total = sum_of_products(
                    (1, m.g_inv[k][l], first[l, i, j]) for l in range(n) if (l, i, j) in first
                ) * Fraction(1, 2)
                gamma[k][i][j] = total
                gamma[k][j][i] = total

    ric = [[zero] * n for _ in range(n)]
    contracted = [sum((gamma[k][k][i] for k in range(n)), zero) for i in range(n)]  # Gamma^k_ki
    for i in range(n):
        for j in range(i, n):
            products = [(1, contracted[l], gamma[l][i][j]) for l in range(n)]
            products += [(-1, gamma[k][j][l], gamma[l][i][k]) for l in range(n) for k in range(n)
                         if not gamma[k][j][l].is_zero()]
            total = sum((gamma[k][i][j].partial(names[k]) for k in range(n)), zero)
            ric[i][j] = ric[j][i] = (
                total - contracted[i].partial(names[j]) + sum_of_products(products)
            )

    frozen_gamma = tuple(tuple(tuple(row) for row in plane) for plane in gamma)
    frozen_ric = tuple(tuple(row) for row in ric)
    return CurvatureData(m, frozen_gamma, frozen_ric)


def hessian(m: ChartMetric, f: Polynomial) -> Matrix:
    """H^f_ij = d_i d_j f - Gamma^k_ij d_k f."""
    n = m.dim
    names = m.chart.coordinates
    gamma = christoffel(m)
    df = [f.partial(v) for v in names]
    return tuple(
        tuple(
            df[j].partial(names[i]) - sum_of_products((1, gamma[k][i][j], df[k]) for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )


def laplace_beltrami(m: ChartMetric, f: Polynomial) -> Polynomial:
    """Delta f = g^ij (d_i d_j f - Gamma^k_ij d_k f), exactly."""
    hess = hessian(m, f)
    return sum_of_products((1, m.g_inv[i][j], hess[i][j]) for i in range(m.dim) for j in range(m.dim))


def gradient(m: ChartMetric, f: Polynomial) -> VectorField:
    """sharp(df)."""
    return sharp(m, exterior_derivative(DifferentialForm.function(m.chart, f)))


def grad_norm_sq(m: ChartMetric, f: Polynomial) -> Polynomial:
    """g(grad f, grad f) = g^ij d_i f d_j f = df(grad f)."""
    grad = gradient(m, f)
    return sum_of_products((1, f.partial(v), grad.component(j)) for j, v in enumerate(m.chart.coordinates))


def ricci_endomorphism_square(m: ChartMetric) -> Matrix:
    """(Ric g^-1 Ric)_ab, the matrix of h(ric(X_a), ric(X_b))."""
    ric = ricci(m)
    n = m.dim
    # first contract: T_a^d = Ric_ac g^cd
    t = [[sum_of_products((1, ric[a][c], m.g_inv[c][d]) for c in range(n)) for d in range(n)]
         for a in range(n)]
    out = [[Polynomial.zero()] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            out[a][b] = out[b][a] = sum_of_products((1, t[a][d], ric[d][b]) for d in range(n))
    return tuple(tuple(row) for row in out)


def is_totally_ricci_isotropic(m: ChartMetric):
    """True plus None, or False plus the first nonzero witness entry."""
    sq = ricci_endomorphism_square(m)
    n = m.dim
    for a in range(n):
        for b in range(a, n):
            if not sq[a][b].is_zero():
                names = m.chart.coordinates
                return False, (names[a], names[b], sq[a][b])
    return True, None
