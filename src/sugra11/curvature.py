"""Christoffel symbols, Ricci tensor, Laplace-Beltrami; Hessian and |grad f|^2, tracer-only.

The Laplacian is the divergence d_i (g^ik d_k f).  The Hessian, whose g-trace
the tests compare with it, and |grad f|^2 have no engine caller: perfbench/tracer.py
looks both up, and ROADMAP items 4 and 11 delete them once the tracer drops them.

The Ricci sign convention is

    Ric_ij = d_k Gamma^k_ij - d_j Gamma^k_ik
             + Gamma^k_kl Gamma^l_ij - Gamma^k_jl Gamma^l_ik,

calibrated once against the Walker identity: for
h = 2 dv du + rho + H (du)^2 with rho Ricci-flat, A = 0 and H
v-independent, the only nonzero entry is Ric_uu = -1/2 Delta H.

The two terms with the contracted symbols Gamma^k_ki vanish on every
ChartMetric and are not computed: det g is a nonzero constant, which
``metric.make_metric`` establishes for every metric, so
Gamma^k_ki = 1/2 d_i log|det g| = 0.

Christoffel symbols and Ricci are built from nonzero entries only:
d_l g_ij for the variables each entry contains, first-kind symbols from
those, raised through ``ChartMetric.inv_neighbors``, and the Gamma Gamma
sums over the nonzero Gamma^l_ik.  The code reads no product or block
structure, so the 11-dimensional Ricci stays independent of the block-law
audits; tests/oracles.py keeps the dense loops as its reference.

The Christoffel symbols stay a sparse map {(k, i, j): Gamma^k_ij} of the
nonzero symbols, both (i, j) orders included.  ``curvature`` computes the
pair (map, Ricci) once per metric and keeps it on the metric; metrics are
immutable, so it never goes stale.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from .exterior import DifferentialForm, exterior_derivative
from .metric import ChartMetric, Matrix, norm_sq, symmetric_matrix
from .polyring import Polynomial, sum_of_products


Christoffel = Dict[Tuple[int, int, int], Polynomial]  # (k, i, j) -> Gamma^k_ij, nonzero only


def curvature(m: ChartMetric) -> Tuple[Christoffel, Matrix]:
    """(Gamma, Ric) of m, computed on first use."""
    if m._curvature is None:
        m._curvature = _compute_curvature(m)
    return m._curvature


def ricci(m: ChartMetric) -> Matrix:
    return curvature(m)[1]


def _compute_curvature(m: ChartMetric) -> Tuple[Christoffel, Matrix]:
    n = m.dim
    names = m.chart.coordinates
    index = {v: k for k, v in enumerate(names)}
    zero = Polynomial.zero()

    dg: Dict[Tuple[int, int, int], Polynomial] = {}  # (l, i, j) -> d_l g_ij, nonzero only
    for i in range(n):
        for j in range(i, n):
            entry = m.g[i][j]
            for v in entry.variables:
                if v in index:
                    dg[index[v], i, j] = dg[index[v], j, i] = entry.partial(v)

    # Christoffel symbols of the first kind, times 2:
    # (l, i, j) -> d_i g_jl + d_j g_il - d_l g_ij for i <= j, formed only
    # where a nonzero d_a g_bc enters, that is at (a, {b, c}) and (c, {a, b})
    first = {}
    for a, b, c in dg:
        for l, i, j in ((a, min(b, c), max(b, c)), (c, min(a, b), max(a, b))):
            if (l, i, j) not in first:
                first[l, i, j] = (
                    dg.get((i, j, l), zero) + dg.get((j, i, l), zero) - dg.get((l, i, j), zero)
                )

    # Gamma^k_ij = 1/2 g^kl [l, i, j], over the k that pair with l under g_inv
    raised: Dict[Tuple[int, int, int], list] = {}
    for (l, i, j), bracket in first.items():
        if not bracket.is_zero():
            for k in m.inv_neighbors[l]:
                raised.setdefault((k, i, j), []).append((1, m.g_inv[k][l], bracket))
    gamma: Christoffel = {}
    for (k, i, j), terms in raised.items():
        value = sum_of_products(terms) * Fraction(1, 2)
        if not value.is_zero():
            gamma[k, i, j] = gamma[k, j, i] = value

    by_upper_last: Dict[Tuple[int, int], list] = {}  # (k, l) -> [(j, Gamma^k_jl)]
    for (k, i, j), value in gamma.items():
        by_upper_last.setdefault((k, j), []).append((i, value))

    # for i <= j: d_k Gamma^k_ij and the products -Gamma^k_jl Gamma^l_ik
    linear: Dict[Tuple[int, int], Polynomial] = {}
    products: Dict[Tuple[int, int], list] = {}
    for (l, i, k), value in gamma.items():
        if i <= k:
            d = value.partial(names[l])
            if not d.is_zero():
                linear[i, k] = linear.get((i, k), zero) + d
        for j, other in by_upper_last.get((k, l), ()):  # Gamma^k_jl Gamma^l_ik
            if i <= j:
                products.setdefault((i, j), []).append((-1, other, value))

    ric = [[zero] * n for _ in range(n)]
    for i, j in linear.keys() | products.keys():
        ric[i][j] = ric[j][i] = linear.get((i, j), zero) + sum_of_products(products.get((i, j), ()))
    return gamma, tuple(tuple(row) for row in ric)


def hessian(m: ChartMetric, f: Polynomial) -> Matrix:
    """H^f_ij = d_i d_j f - Gamma^k_ij d_k f, over the nonzero Gamma^k_ij."""
    n = m.dim
    names = m.chart.coordinates
    df = [f.partial(v) for v in names]
    products: Dict[Tuple[int, int], list] = {}
    for (k, i, j), value in curvature(m)[0].items():
        products.setdefault((i, j), []).append((-1, value, df[k]))
    return tuple(
        tuple(df[j].partial(names[i]) + sum_of_products(products.get((i, j), ())) for j in range(n))
        for i in range(n)
    )


def laplace_beltrami(m: ChartMetric, f: Polynomial) -> Polynomial:
    """Delta f = d_i (g^ik d_k f), exactly: sqrt|det g| is a constant on
    every ChartMetric, so the divergence needs no Christoffel symbols."""
    names = m.chart.coordinates
    df = [f.partial(v) for v in names]
    out = Polynomial.zero()
    for i, name in enumerate(names):
        out = out + sum_of_products((1, m.g_inv[i][k], df[k]) for k in m.inv_neighbors[i]).partial(name)
    return out


def grad_norm_sq(m: ChartMetric, f: Polynomial) -> Polynomial:
    """g(grad f, grad f) = g^ij d_i f d_j f = <df, df>.  No engine caller: perfbench/tracer.py
    looks it up, and ROADMAP items 4 and 11 delete it once the tracer drops it."""
    return norm_sq(m, exterior_derivative(DifferentialForm.function(m.chart, f)))


def ricci_endomorphism_square(m: ChartMetric) -> Matrix:
    """(Ric g^-1 Ric)_ab, the matrix of h(ric(X_a), ric(X_b))."""
    ric = ricci(m)
    n = m.dim
    # first contract: T_a^d = Ric_ac g^cd
    t = [[sum_of_products((1, ric[a][c], m.g_inv[c][d]) for c in range(n)) for d in range(n)]
         for a in range(n)]
    return symmetric_matrix(n, lambda a, b: sum_of_products((1, t[a][d], ric[d][b]) for d in range(n)))


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
