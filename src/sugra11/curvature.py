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

from .exterior import VectorField
from .metric import ChartMetric
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

    def dpart(l, i, j):
        return dg.get((l, i, j), zero)

    gamma = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                products = []
                for l in range(n):
                    ginv = m.g_inv[k][l]
                    if ginv.is_zero():
                        continue
                    bracket = dpart(i, j, l) + dpart(j, i, l) - dpart(l, i, j)
                    if not bracket.is_zero():
                        products.append((1, ginv, bracket))
                total = sum_of_products(products) * Fraction(1, 2)
                gamma[k][i][j] = total
                gamma[k][j][i] = total

    ric = [[zero] * n for _ in range(n)]
    # precompute contracted symbols Gamma^k_{ki}
    contracted = [sum((gamma[k][k][i] for k in range(n)), zero) for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            total = zero
            for k in range(n):
                g_kij = gamma[k][i][j]
                if not g_kij.is_zero():
                    total = total + g_kij.partial(names[k])
            c = contracted[i]
            if not c.is_zero():
                total = total - c.partial(names[j])
            products = []
            for l in range(n):
                g_lij = gamma[l][i][j]
                if not g_lij.is_zero():
                    cl = contracted[l]
                    if not cl.is_zero():
                        products.append((1, cl, g_lij))
                for k in range(n):
                    a = gamma[k][j][l]
                    if a.is_zero():
                        continue
                    b = gamma[l][i][k]
                    if not b.is_zero():
                        products.append((-1, a, b))
            total = total + sum_of_products(products)
            ric[i][j] = total
            ric[j][i] = total

    frozen_gamma = tuple(tuple(tuple(row) for row in plane) for plane in gamma)
    frozen_ric = tuple(tuple(row) for row in ric)
    return CurvatureData(m, frozen_gamma, frozen_ric)


def hessian(m: ChartMetric, f: Polynomial) -> Matrix:
    """H^f_ij = d_i d_j f - Gamma^k_ij d_k f."""
    n = m.dim
    names = m.chart.coordinates
    gamma = christoffel(m)
    df = [f.partial(names[k]) for k in range(n)]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = df[j].partial(names[i])
            for k in range(n):
                gk = gamma[k][i][j]
                if not gk.is_zero() and not df[k].is_zero():
                    entry = entry - gk * df[k]
            row.append(entry)
        rows.append(tuple(row))
    return tuple(rows)


def laplace_beltrami(m: ChartMetric, f: Polynomial) -> Polynomial:
    """Delta f = g^ij (d_i d_j f - Gamma^k_ij d_k f), exactly."""
    hess = hessian(m, f)
    total = Polynomial.zero()
    n = m.dim
    for i in range(n):
        for j in range(n):
            gij = m.g_inv[i][j]
            if not gij.is_zero() and not hess[i][j].is_zero():
                total = total + gij * hess[i][j]
    return total


def gradient(m: ChartMetric, f: Polynomial) -> VectorField:
    """sharp(df)."""
    names = m.chart.coordinates
    comps: Dict[int, Polynomial] = {}
    for i in range(m.dim):
        di = f.partial(names[i])
        if di.is_zero():
            continue
        for j in range(m.dim):
            entry = m.g_inv[i][j]
            if entry.is_zero():
                continue
            comps[j] = comps.get(j, Polynomial.zero()) + di * entry
    return VectorField(m.chart, comps)


def grad_norm_sq(m: ChartMetric, f: Polynomial) -> Polynomial:
    """g(grad f, grad f) = g^ij d_i f d_j f."""
    names = m.chart.coordinates
    total = Polynomial.zero()
    for i in range(m.dim):
        di = f.partial(names[i])
        if di.is_zero():
            continue
        for j in range(m.dim):
            dj = f.partial(names[j])
            entry = m.g_inv[i][j]
            if not dj.is_zero() and not entry.is_zero():
                total = total + di * dj * entry
    return total


def ricci_endomorphism_square(m: ChartMetric) -> Matrix:
    """(Ric g^-1 Ric)_ab, the matrix of h(ric(X_a), ric(X_b))."""
    ric = ricci(m)
    n = m.dim
    zero = Polynomial.zero()
    # first contract: T_a^d = Ric_ac g^cd
    t = [[zero] * n for _ in range(n)]
    for a in range(n):
        for dd in range(n):
            total = zero
            for c in range(n):
                r = ric[a][c]
                if not r.is_zero():
                    g = m.g_inv[c][dd]
                    if not g.is_zero():
                        total = total + r * g
            t[a][dd] = total
    out = [[zero] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            total = zero
            for dd in range(n):
                x = t[a][dd]
                if not x.is_zero():
                    y = ric[dd][b]
                    if not y.is_zero():
                        total = total + x * y
            out[a][b] = total
            out[b][a] = total
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


def matrix_is_zero(mat: Matrix) -> bool:
    return all(entry.is_zero() for row in mat for entry in row)
