"""The contracted Bianchi identity as an oracle for the Ricci tensor and the three residuals.

div (Ric - 1/2 R g) = 0 holds for every metric, and the engine never
computes it: a divergence built here from the Christoffel symbols, g_inv
and ``inv_neighbors`` ties the Ricci tensor to its own trace.  The metric
half reads ``curvature.curvature`` alone, on metrics on which the field
equations say nothing.

The flux half ties the three residuals of a background, solution or not.
With E the Einstein residual, M = d star F - 1/2 F^F and S = E - 1/2 h tr_h E,

    (div S)_b = -1/2 <i_b F, star M> - 1/2 <i_b dF, F>,

with E, M and dF read off the engine's own check results.
"""

import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from sugra11.curvature import curvature
from sugra11.exterior import interior_product
from sugra11.fieldeqs import check_closedness, check_einstein, check_maxwell
from sugra11.manifest import parse_manifest
from sugra11.metric import hodge_star, inner_product_forms
from sugra11.polyring import Polynomial

from test_curvature import _curved_product
from test_metric import D5, dense_metric, walker_metric

P0 = Polynomial.zero()
ROOT = Path(__file__).resolve().parent.parent


def trace(m, s):
    """g^ij S_ij."""
    return sum((m.g_inv[i][j] * s[j][i] for i in range(m.dim) for j in m.inv_neighbors[i]), P0)


def scalar_curvature(m):
    """R = g^ij Ric_ij."""
    return trace(m, curvature(m)[1])


def divergence(m, s):
    """(div S)_b = g^ac (d_c S_ab - Gamma^d_ca S_db - Gamma^d_cb S_ad) of a symmetric S."""
    gamma = curvature(m)[0]
    names = m.chart.coordinates
    n = m.dim

    def nabla(c, a, b):
        out = s[a][b].partial(names[c])
        for d in range(n):
            out = out - gamma.get((d, c, a), P0) * s[d][b] - gamma.get((d, c, b), P0) * s[a][d]
        return out

    return [
        sum((m.g_inv[a][c] * nabla(c, a, b) for a in range(n) for c in m.inv_neighbors[a]), P0)
        for b in range(n)
    ]


def _walker_quartic():
    """A Walker metric whose quartic H depends on v, so R is not zero."""
    x1, x2, v = (Polynomial.variable(c) for c in ("x1", "x2", "v"))
    return walker_metric(x1 ** 4 * Fraction(1, 12) + x2 * x2 * v * v)


METRICS = {
    "dense_D5_shift1": lambda: dense_metric(D5, 1),
    "dense_D5_shift2": lambda: dense_metric(D5, 2),
    "walker_quartic": _walker_quartic,
    "product_f2": lambda: _curved_product().assembled,
}
# dense_pair's J at shift 1 is the Jacobian of a polynomial map, so that g is
# the pullback of a constant metric and flat: there the identity reads 0 = 0
FLAT = {"dense_D5_shift1"}


@pytest.mark.parametrize("name", sorted(METRICS))
def test_einstein_tensor_is_divergence_free(name):
    m = METRICS[name]()
    ric = curvature(m)[1]
    r = scalar_curvature(m)
    einstein = [[ric[a][b] - m.g[a][b] * r * Fraction(1, 2) for b in range(m.dim)] for a in range(m.dim)]
    assert any(not e.is_zero() for row in einstein for e in row) is (name not in FLAT)
    assert all(e.is_zero() for e in divergence(m, einstein))
    # the same identity read as div Ric = 1/2 dR, which is not zero where R varies
    half_dr = [r.partial(c) * Fraction(1, 2) for c in m.chart.coordinates]
    assert divergence(m, ric) == half_dr


def test_scalar_curvature_varies_on_some_metric():
    # so the trace half of the identity is tested, not only Ric's own divergence
    assert any(not scalar_curvature(make()).is_constant() for make in METRICS.values())


# the valid bundled manifests and every golden manifest: non-solutions and ladder rungs among them
FLUX_MANIFESTS = [
    *(p for p in sorted((ROOT / "manifests").glob("*.json")) if p.stem != "broken"),
    *sorted((ROOT / "tests" / "golden").glob("*.manifest.json")),
]
BACKGROUNDS = [
    pytest.param(path, bg["name"], id=f"{path.name.split('.')[0]}-{bg['name']}")
    for path in FLUX_MANIFESTS
    for bg in json.loads(path.read_text())["backgrounds"]
]


@lru_cache(maxsize=None)
def flux_bianchi_sides(path, name):
    """(div S, [-1/2 <i_b F, star M> - 1/2 <i_b dF, F> for each coordinate b])."""
    bg = next(spec for spec in parse_manifest(path) if spec.name == name).background
    h, flux = bg.metric, bg.flux
    e = check_einstein(bg).residuals["einstein_residual"]
    star_m = hodge_star(h, check_maxwell(bg).residuals["d_star_F_minus_half_FF"])
    df = check_closedness(bg).residuals["dF"]
    half_tr = trace(h, e) * Fraction(1, 2)
    s = [[e[a][b] - h.g[a][b] * half_tr for b in range(h.dim)] for a in range(h.dim)]
    sources = [
        (inner_product_forms(h, interior_product(flux, c), star_m)
         + inner_product_forms(h, interior_product(df, c), flux)) * Fraction(-1, 2)
        for c in h.chart.coordinates
    ]
    return divergence(h, s), sources


@pytest.mark.parametrize("path, name", BACKGROUNDS)
def test_flux_bianchi_identity(path, name):
    div_s, sources = flux_bianchi_sides(path, name)
    assert div_s == sources


def test_flux_bianchi_divergence_is_nonzero_on_some_background():
    # so the identity is tested where both sides are nonzero, not only as 0 = 0
    assert any(not x.is_zero() for p in BACKGROUNDS for x in flux_bianchi_sides(*p.values)[0])
