"""Warped product assembly, warp scaling laws, and the block Ricci oracle."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from sugra11.curvature import ricci
from sugra11.exterior import Chart, ChartError, wedge
from sugra11.manifest import parse_manifest
from sugra11.metric import (
    MetricError,
    hodge_star,
    inner_product_forms,
    make_metric,
    poly_det,
    volume_form,
)
from sugra11.polyring import Polynomial
from sugra11.product import build_product

from oracles import warped_ricci_oracle
from test_exterior import random_form, random_polynomial
from test_metric import H_EXAMPLE, diag, walker_metric

ROOT = Path(__file__).resolve().parent.parent

P0 = Polynomial.zero()
P1 = Polynomial.constant(1)

M5 = Chart("M5p", ("y1", "y2", "y3", "y4", "y5"))
G5 = make_metric(M5, diag(-1, -1, -1, -1, -1), signature=(0, 5))


def flat_lorentz6():
    C = Chart("L6", ("w0", "w1", "w2", "w3", "w4", "w5"))
    return make_metric(C, diag(1, -1, -1, -1, -1, -1), signature=(1, 5))


def assert_volume_factorizes(pc):
    """vol_h == |f|^nf vol_b ^ vol_f, the orientation convention of a product."""
    lifted = wedge(pc.lift(volume_form(pc.base)), pc.lift(volume_form(pc.fiber)))
    assert volume_form(pc.assembled) == lifted * abs(pc.warping) ** pc.fiber.dim


def test_direct_product_with_walker_fiber():
    pc = build_product(G5, walker_metric(H_EXAMPLE), 1)
    assert pc.chart.dim == 11
    assert pc.assembled.signature == (1, 10)
    assert_volume_factorizes(pc)


def test_volume_of_warped_product_carries_f_power():
    pc = build_product(G5, flat_lorentz6(), 2)
    vol = volume_form(pc.assembled)
    assert vol.components[tuple(range(11))] == Polynomial.constant(64)  # 2^6
    assert_volume_factorizes(pc)


def test_shared_coordinates_rejected():
    other = make_metric(Chart("L2", ("y1", "w")), diag(1, -1), signature=(1, 1))
    with pytest.raises(ChartError):
        build_product(G5, other, 1)


def test_warping_must_be_a_nonzero_constant():
    gt = flat_lorentz6()
    f = Polynomial.variable("y1") + 2
    with pytest.raises(MetricError, match=r"warping must be a nonzero constant, got y1 \+ 2"):
        build_product(G5, gt, f)
    with pytest.raises(MetricError, match="warping must be a nonzero constant, got 0"):
        build_product(G5, gt, 0)
    pc = build_product(G5, gt, Polynomial.constant(Fraction(1, 2)))
    assert type(pc.warping) is Fraction and pc.warping == Fraction(1, 2)


def test_constant_warp_scaling_of_norms():
    rng = random.Random(17)
    gt = flat_lorentz6()
    for f in (1, 2):
        pc = build_product(G5, gt, f)
        for _ in range(6):
            kt = rng.randint(1, 4)
            alpha_t = random_form(rng, gt.chart, kt)
            lifted = pc.lift(alpha_t)
            lhs = inner_product_forms(pc.assembled, lifted, lifted)
            rhs = inner_product_forms(gt, alpha_t, alpha_t) * Fraction(f) ** (-2 * kt)
            assert lhs == rhs


def test_warp_laws_for_mixed_wedges():
    # <a^b, a^b>_h = f^(-2 kt) <a,a>_gt <b,b>_g  and
    # star(a^b) = (-1)^(k (p - kt)) f^(p - 2 kt) star_gt(a) ^ star_g(b), p = 6
    rng = random.Random(23)
    gt = flat_lorentz6()
    for f in (1, 2):
        pc = build_product(G5, gt, f)
        h = pc.assembled
        for _ in range(8):
            kt = rng.randint(1, 3)
            k = rng.randint(1, 3)
            a = random_form(rng, gt.chart, kt, terms=2)
            b = random_form(rng, M5, k, terms=2)
            la, lb = pc.lift(a), pc.lift(b)
            ab = wedge(la, lb)
            lhs_norm = inner_product_forms(h, ab, ab)
            rhs_norm = (
                inner_product_forms(gt, a, a)
                * inner_product_forms(G5, b, b)
                * Fraction(f) ** (-2 * kt)
            )
            assert lhs_norm == rhs_norm
            lhs_star = hodge_star(h, ab)
            rhs_star = wedge(pc.lift(hodge_star(gt, a)), pc.lift(hodge_star(G5, b)))
            rhs_star = rhs_star * (Fraction(f) ** (6 - 2 * kt) * (-1) ** (k * (6 - kt)))
            assert lhs_star == rhs_star


def _random_unimodular_metric(rng, chart, lorentzian):
    """-(A^T D A) with unipotent A: polynomial metric with polynomial inverse."""
    n = chart.dim
    names = chart.coordinates
    a = [[P1 if i == j else P0 for j in range(n)] for i in range(n)]
    for _ in range(2):
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        a[i][j] = random_polynomial(rng, names[:2], max_deg=1, terms=1)
    d_diag = [1] + [-1] * (n - 1) if lorentzian else [-1] * n
    g = [[P0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            entry = P0
            for k in range(n):
                entry = entry + a[k][i] * a[k][j] * d_diag[k]
            g[i][j] = entry
    sig = (1, n - 1) if lorentzian else (0, n)
    return make_metric(chart, g, signature=sig)


def test_oracle_matches_direct_ricci_on_random_products():
    rng = random.Random(31)
    for f in (1, 2):
        base = _random_unimodular_metric(rng, Chart("B5o", ("y1", "y2", "y3", "y4", "y5")), False)
        fiber = _random_unimodular_metric(rng, Chart("F6o", ("w0", "w1", "w2", "w3", "w4", "w5")), True)
        pc = build_product(base, fiber, f)
        direct = ricci(pc.assembled)
        oracle = warped_ricci_oracle(pc)
        for i in range(11):
            for j in range(11):
                assert direct[i][j] == oracle[i][j], (f, i, j)


def test_oracle_on_walker_fiber_gives_single_entry():
    pc = build_product(G5, walker_metric(H_EXAMPLE), 1)
    oracle = warped_ricci_oracle(pc)
    direct = ricci(pc.assembled)
    u = pc.chart.index_of("u")
    assert oracle[u][u] == Polynomial.constant(Fraction(1, 2))
    for i in range(11):
        for j in range(11):
            assert oracle[i][j] == direct[i][j]
            if (i, j) != (u, u):
                assert oracle[i][j].is_zero()


def test_mixed_ricci_block_vanishes():
    rng = random.Random(41)
    base = _random_unimodular_metric(rng, Chart("B5m", ("y1", "y2", "y3", "y4", "y5")), False)
    fiber = _random_unimodular_metric(rng, Chart("F6m", ("w0", "w1", "w2", "w3", "w4", "w5")), True)
    pc = build_product(base, fiber, 1)
    direct = ricci(pc.assembled)
    for i in range(base.dim):
        for j in range(base.dim, pc.chart.dim):
            assert direct[i][j].is_zero()


def _odd_fiber_product(f):
    """A 6-dimensional Walker base and a 5-dimensional non-diagonal fiber, warped by f."""
    rng = random.Random(53)
    fiber = _random_unimodular_metric(rng, Chart("F5n", ("y1", "y2", "y3", "y4", "y5")), False)
    return build_product(walker_metric(H_EXAMPLE), fiber, f)


def test_negative_warp_on_an_odd_fiber_is_the_background_of_its_absolute_value():
    neg, pos = _odd_fiber_product(-2), _odd_fiber_product(2)
    assert (neg.warping, pos.warping) == (-2, 2)
    a, b = neg.assembled, pos.assembled
    assert (a.g, a.g_inv, a.signature, a.sqrt_abs_det) == (b.g, b.g_inv, b.signature, b.sqrt_abs_det)
    assert a.sqrt_abs_det == 32  # |f|^5
    assert_volume_factorizes(neg)


def _products():
    """(label, product) over every product of the shipped manifests and of the
    golden d=2 ladder manifest, and the negative warp on an odd fiber."""
    paths = sorted((ROOT / "manifests").glob("solution*.json"))
    paths.append(ROOT / "tests" / "golden" / "ladder_solution4_corrected_d2.manifest.json")
    for path in paths:
        for spec in parse_manifest(path):
            yield f"{path.name}:{spec.name}", spec.background.product
    yield "negative_warp", _odd_fiber_product(-2)


def test_product_built_from_its_factors_equals_the_validated_metric_of_h():
    """build_product does not validate h again; this checks what that
    validation checked, and that every field read off the factors is the
    one make_metric finds for h."""
    for label, pc in _products():
        base, fiber, f = pc.base, pc.fiber, pc.warping
        nb, nf = base.dim, fiber.dim
        n = nb + nf
        h = [[P0] * n for _ in range(n)]
        for i in range(nb):
            for j in range(nb):
                h[i][j] = base.g[i][j]
        for i in range(nf):
            for j in range(nf):
                h[nb + i][nb + j] = fiber.g[i][j] * f ** 2
        assert poly_det(h) == poly_det(base.g) * f ** (2 * nf) * poly_det(fiber.g), label
        direct = pc.assembled
        reference = make_metric(pc.chart, h)  # inverse and signature derived independently
        assert type(direct.sqrt_abs_det) is Fraction
        for field in ("g", "g_inv", "signature", "sqrt_abs_det", "inv_neighbors"):
            assert getattr(direct, field) == getattr(reference, field), (label, field)
