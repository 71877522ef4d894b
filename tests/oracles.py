"""Reference computations the engine does not run, kept as test oracles.

``warped_ricci_oracle`` is the block Ricci of a warped product,

    Ric^h(X, Y)   = Ric^g(X, Y) - (dim_fiber / f) Hess(f)(X, Y)
    Ric^h(Xt, Yt) = Ric^gt(Xt, Yt) - h(Xt, Yt) fhat
    Ric^h(X, Yt)  = 0
    fhat = Lap_g(f)/f + (dim_fiber - 1) g(grad f, grad f)/f^2,

built from the factor metrics only, so it is independent of the direct
curvature of the assembled metric.  The warping is a constant, wrapped as
a polynomial so the general formulas above stay as they are.

``dense_christoffel_ricci`` is the curvature as the plain triple loops
over every index, zero entries included, with the sign convention of
``sugra11.curvature``.  The engine works from nonzero entries only; this
is the reference it must match exactly.
"""

from fractions import Fraction

from sugra11.curvature import grad_norm_sq, hessian, laplace_beltrami, ricci
from sugra11.polyring import Polynomial, poly_divexact, sum_of_products


def warped_ricci_oracle(pc):
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
        fhat = fhat + poly_divexact(lap, f)
    if not grad_sq.is_zero():
        fhat = fhat + poly_divexact(grad_sq, f * f) * (nf - 1)

    out = [[zero] * n for _ in range(n)]
    for i in range(nb):
        for j in range(nb):
            entry = ric_base[i][j]
            if not hess[i][j].is_zero():
                entry = entry - poly_divexact(hess[i][j] * nf, f)
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


def dense_christoffel_ricci(m):
    """(Gamma^k_ij as [k][i][j], Ric_ij) from loops over all indices."""
    n = m.dim
    names = m.chart.coordinates
    zero = Polynomial.zero()
    dg = [[[m.g[i][j].partial(names[l]) for j in range(n)] for i in range(n)] for l in range(n)]
    gamma = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                gamma[k][i][j] = sum_of_products(
                    (1, m.g_inv[k][l], dg[i][j][l] + dg[j][i][l] - dg[l][i][j]) for l in range(n)
                ) * Fraction(1, 2)
    contracted = [sum((gamma[k][k][i] for k in range(n)), zero) for i in range(n)]
    ric = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            total = sum((gamma[k][i][j].partial(names[k]) for k in range(n)), zero)
            total = total - contracted[i].partial(names[j])
            ric[i][j] = total + sum_of_products(
                [(1, contracted[l], gamma[l][i][j]) for l in range(n)]
                + [(-1, gamma[k][j][l], gamma[l][i][k]) for k in range(n) for l in range(n)]
            )
    return (tuple(tuple(tuple(row) for row in plane) for plane in gamma),
            tuple(tuple(row) for row in ric))
