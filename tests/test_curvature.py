"""Christoffel/Ricci/Laplacian layer against closed-form oracles."""

import random
from fractions import Fraction

from sugra11.curvature import (
    christoffel,
    grad_norm_sq,
    hessian,
    is_totally_ricci_isotropic,
    laplace_beltrami,
    ricci,
)
from sugra11.exterior import Chart
from sugra11.metric import make_metric, poly_det
from sugra11.polyring import Polynomial
from sugra11.product import build_product

from oracles import dense_christoffel_ricci
from test_cases import quadratic_H
from test_exterior import random_polynomial
from test_metric import D5, H_EXAMPLE, dense_metric, diag, walker_metric

P0 = Polynomial.zero()
P1 = Polynomial.constant(1)


def matrix_is_zero(mat):
    return all(entry.is_zero() for row in mat for entry in row)


def test_flat_christoffel_vanishes():
    m = make_metric(Chart("F3", ("a", "b", "c")), diag(-1, -1, -1))
    gamma = christoffel(m)
    assert all(gamma.get((k, i, j), P0).is_zero() for k in range(3) for i in range(3) for j in range(3))
    assert matrix_is_zero(ricci(m))


def test_walker_christoffel_structure():
    m = walker_metric(H_EXAMPLE)
    gamma = christoffel(m)
    names = m.chart.coordinates
    u = names.index("u")
    v = names.index("v")
    # Gamma^v_{iu} = 1/2 d_i H, Gamma^{x^k}_{uu} = -1/2 rho^{kj} d_j H (= +1/2 d_k H)
    for i in range(1, 5):
        di = H_EXAMPLE.partial(names[i])
        assert gamma.get((v, i, u), P0) == di * Fraction(1, 2)
        assert gamma.get((i, u, u), P0) == di * Fraction(1, 2)
    assert gamma.get((v, u, u), P0) == H_EXAMPLE.partial("u") * Fraction(1, 2)
    # symmetry on random entries
    rng = random.Random(1)
    for _ in range(20):
        k, i, j = (rng.randrange(6) for _ in range(3))
        assert gamma.get((k, i, j), P0) == gamma.get((k, j, i), P0)


def test_walker_ricci_single_entry_quadratic():
    H = quadratic_H(Fraction(1, 8))
    m = walker_metric(H)
    ric = ricci(m)
    u = m.chart.coordinates.index("u")
    delta_h = laplace_beltrami_rho(H)
    assert ric[u][u] == delta_h * Fraction(-1, 2)
    for i in range(6):
        for j in range(6):
            if (i, j) != (u, u):
                assert ric[i][j].is_zero()


def test_walker_ricci_single_entry_quartic():
    H = (Polynomial.variable("x1") ** 4 + Polynomial.variable("x2") ** 4) * Fraction(1, 12)
    m = walker_metric(H)
    ric = ricci(m)
    u = m.chart.coordinates.index("u")
    expect = (Polynomial.variable("x1") ** 2 + Polynomial.variable("x2") ** 2) * Fraction(1, 2)
    assert ric[u][u] == expect
    nonzero = [(i, j) for i in range(6) for j in range(6) if not ric[i][j].is_zero()]
    assert nonzero == [(u, u)]


def laplace_beltrami_rho(H):
    """Independent oracle: flat rho = -sum dx_i^2, so Delta H = -sum d_i^2 H."""
    total = Polynomial.zero()
    for i in range(1, 5):
        total = total - H.partial(f"x{i}").partial(f"x{i}")
    return total


def _sheared_block(shear_variable):
    """rho = -(A^T A) with unipotent shear A = [[1, s],[0, 1]] on (x1, x2)."""
    C = Chart(f"n4c_{shear_variable}", ("x1", "x2", "x3", "x4"))
    s = Polynomial.variable(shear_variable)
    rows = [[P0] * 4 for _ in range(4)]
    rows[0][0] = -P1
    rows[1][1] = -(s * s) - P1
    rows[0][1] = rows[1][0] = -s
    rows[2][2] = rows[3][3] = -P1
    return make_metric(C, rows, signature=(0, 4))


def test_walker_ricci_single_entry_with_curvilinear_flat_block():
    # s = x2 makes A the Jacobian of (x1 + x2^2/2, x2, x3, x4), so rho is a
    # flat metric in sheared coordinates with nonzero Christoffel symbols
    from sugra11.solutions import walker_metric_from_rho

    rho = _sheared_block("x2")
    assert matrix_is_zero(ricci(rho))
    gamma = christoffel(rho)
    assert any(
        not gamma.get((k, i, j), P0).is_zero() for k in range(4) for i in range(4) for j in range(4)
    )
    H = quadratic_H(Fraction(1, 8)) + Polynomial.variable("x2") ** 3 * Polynomial.variable("u")
    m = walker_metric_from_rho(rho, H)
    ric = ricci(m)
    u = m.chart.coordinates.index("u")
    assert ric[u][u] == laplace_beltrami(rho, H) * Fraction(-1, 2)
    nonzero = [(i, j) for i in range(6) for j in range(6) if not ric[i][j].is_zero()]
    assert nonzero == [(u, u)]


def test_walker_ricci_with_curved_block_splits_into_block_plus_uu():
    # s = x1 is not a Jacobian, so rho is genuinely curved; the Walker Ricci
    # is then the rho-block Ricci plus the single -1/2 Lap H entry
    from sugra11.solutions import walker_metric_from_rho

    rho = _sheared_block("x1")
    ric_rho = ricci(rho)
    assert not matrix_is_zero(ric_rho)
    H = quadratic_H(Fraction(1, 8))
    m = walker_metric_from_rho(rho, H)
    ric = ricci(m)
    u = m.chart.coordinates.index("u")
    assert ric[u][u] == laplace_beltrami(rho, H) * Fraction(-1, 2)
    for i in range(4):
        for j in range(4):
            assert ric[1 + i][1 + j] == ric_rho[i][j]
    v = 0
    for j in range(6):
        assert ric[v][j].is_zero()


def test_laplacian_values_for_quadratic_potentials():
    N4 = Chart("N4c", ("x1", "x2", "x3", "x4"))
    rho = make_metric(N4, diag(-1, -1, -1, -1))
    H_quarter = quadratic_H(Fraction(1, 4))
    H_eighth = quadratic_H(Fraction(1, 8))
    assert laplace_beltrami(rho, H_quarter) == Polynomial.constant(-2)
    assert laplace_beltrami(rho, H_eighth) == Polynomial.constant(-1)
    assert laplace_beltrami(rho, Polynomial.variable("x1") * 3) == Polynomial.zero()


def test_laplacian_is_trace_of_hessian():
    # laplace_beltrami takes the divergence d_i (g^ik d_k f) and reads no
    # Christoffel symbol; the trace g^ij Hess_ij reads them all.  On the
    # Walker metric g^ij Gamma^k_ij = 0, so the dense g_inv is what shows
    # a Hessian that lost its Gamma term.
    rng = random.Random(3)
    for m in (walker_metric(H_EXAMPLE), dense_metric(D5, 1)):
        names = m.chart.coordinates
        for _ in range(6):
            f = Polynomial.zero()
            for _ in range(3):
                t = Polynomial.constant(rng.randint(-3, 3))
                for nm in names:
                    t = t * Polynomial.variable(nm) ** rng.randint(0, 2)
                f = f + t
            hess = hessian(m, f)
            trace = Polynomial.zero()
            for i in range(m.dim):
                for j in range(m.dim):
                    trace = trace + m.g_inv[i][j] * hess[i][j]
            assert trace == laplace_beltrami(m, f)


def test_hessian_flat_examples():
    C = Chart("F2", ("a", "b"))
    m = make_metric(C, diag(-1, -1))
    f = Polynomial.variable("a") ** 2
    hess = hessian(m, f)
    assert hess[0][0] == Polynomial.constant(2)
    assert hess[0][1].is_zero() and hess[1][1].is_zero()
    assert all(e.is_zero() for row in hessian(m, Polynomial.constant(5)) for e in row)


def test_gradient_properties():
    C = Chart("F2b", ("a", "t"))
    m = make_metric(C, diag(-1, -1))
    assert grad_norm_sq(m, Polynomial.variable("t")) == Polynomial.constant(-1)
    assert grad_norm_sq(m, Polynomial.constant(2)).is_zero()
    # g^ij d_i f d_j f on a g_inv that is not diagonal: g^vu = 1, g^vv = -H
    walker = walker_metric(H_EXAMPLE)
    assert not walker.g_inv[0][0].is_constant()
    rng = random.Random(5)
    names = walker.chart.coordinates
    for _ in range(5):
        f = random_polynomial(rng, names, max_deg=3, terms=3)
        df = [f.partial(v) for v in names]
        expected = sum((walker.g_inv[i][j] * df[i] * df[j] for i in range(6) for j in range(6)), P0)
        assert grad_norm_sq(walker, f) == expected


def test_block_diagonal_ricci_is_block_sum():
    # curved-but-polynomial block: unimodular squash g = -(A^T A) with A unipotent
    C = Chart("B5", ("a", "b", "c", "p", "q"))
    a = Polynomial.variable("a")
    g3 = [
        [-P1, -a, P0],
        [-a, -(a * a) - P1, P0],
        [P0, P0, -P1],
    ]
    g = [
        [*g3[0], P0, P0],
        [*g3[1], P0, P0],
        [*g3[2], P0, P0],
        [P0, P0, P0, -P1, P0],
        [P0, P0, P0, P0, -P1],
    ]
    m = make_metric(C, g)
    C3 = Chart("B3", ("a", "b", "c"))
    m3 = make_metric(C3, g3)
    ric5 = ricci(m)
    ric3 = ricci(m3)
    for i in range(3):
        for j in range(3):
            assert ric5[i][j] == ric3[i][j]
    for i in range(3, 5):
        for j in range(5):
            assert ric5[i][j].is_zero()


def test_walker_is_totally_ricci_isotropic():
    for H in (quadratic_H(Fraction(1, 4)), H_EXAMPLE * Polynomial.variable("u")):
        ok, witness = is_totally_ricci_isotropic(walker_metric(H))
        assert ok and witness is None


def test_definite_nonflat_metric_is_not_ricci_isotropic():
    C = Chart("S2", ("a", "b"))
    a = Polynomial.variable("a")
    # g = -(A^T A), A = [[1, a],[0,1]] gives nonzero curvature
    g = [[-P1, -a], [-a, -(a * a) - P1]]
    m = make_metric(C, g)
    assert not matrix_is_zero(ricci(m))
    ok, witness = is_totally_ricci_isotropic(m)
    assert not ok and witness is not None


def test_flat_metric_is_trivially_ricci_isotropic():
    m = make_metric(Chart("F4", ("a", "b", "c", "e")), diag(-1, -1, -1, -1))
    ok, witness = is_totally_ricci_isotropic(m)
    assert ok and witness is None


def _assert_matches_dense_reference(m):
    gamma, ric = dense_christoffel_ricci(m)
    sparse = christoffel(m)
    assert not any(value.is_zero() for value in sparse.values())
    n = range(m.dim)
    assert tuple(tuple(tuple(sparse.get((k, i, j), P0) for j in n) for i in n) for k in n) == gamma
    assert ricci(m) == ric


def test_curvature_matches_the_dense_reference_on_dense_metrics():
    # g = J^T D J: every entry of g and g_inv is nonzero, and so is most of Gamma
    for shift in range(3):
        m = dense_metric(Chart(f"D5r{shift}", ("a", "b", "c", "e", "f")), shift)
        assert all(not e.is_zero() for row in m.g for e in row)
        _assert_matches_dense_reference(m)


def _v_dependent_walker():
    u, v = Polynomial.variable("u"), Polynomial.variable("v")
    H = H_EXAMPLE * u + Polynomial.variable("x1") ** 3 * v * v + Polynomial.variable("x2") * u * v
    return walker_metric(H)


def _curved_product():
    y1 = Polynomial.variable("y1")
    g = [list(row) for row in diag(-1, -1, -1, -1, -1)]
    g[0][1] = g[1][0] = -y1  # -(A^T A) with A = I + y1 E_12: curved
    g[1][1] = -(y1 * y1) - P1
    base = make_metric(Chart("B5d", ("y1", "y2", "y3", "y4", "y5")), g, signature=(0, 5))
    fiber = walker_metric(H_EXAMPLE * Polynomial.variable("u") + Polynomial.variable("x1") ** 3)
    return build_product(base, fiber, 2)


def test_curvature_matches_the_dense_reference_on_a_walker_metric():
    m = _v_dependent_walker()
    ric = ricci(m)
    u_at = m.chart.index_of("u")
    # v-dependent H: the Walker identity does not apply, so more than Ric_uu is nonzero
    assert any(not ric[i][j].is_zero() for i in range(6) for j in range(6) if (i, j) != (u_at, u_at))
    _assert_matches_dense_reference(m)


def test_curvature_matches_the_dense_reference_on_an_assembled_product():
    pc = _curved_product()
    assert not matrix_is_zero(ricci(pc.base)) and not matrix_is_zero(ricci(pc.fiber))
    _assert_matches_dense_reference(pc.assembled)


def test_contracted_christoffel_symbols_vanish_because_det_g_is_constant():
    # g and g_inv are polynomial, so det g is a unit of the polynomial ring, a
    # nonzero constant, and Gamma^k_ki = 1/2 d_i log|det g| is 0: the reason
    # the curvature module leaves out the Ricci terms built from Gamma^k_ki
    metrics = [dense_metric(Chart(f"D5r{shift}", ("a", "b", "c", "e", "f")), shift)
               for shift in range(3)]
    metrics += [_v_dependent_walker(), _curved_product().assembled]
    for m in metrics:
        det = poly_det(m.g)
        assert det.is_constant() and not det.is_zero()
        gamma = christoffel(m)
        assert any(not gamma.get((k, i, j), P0).is_zero()
                   for k in range(m.dim) for i in range(m.dim) for j in range(m.dim))
        for i in range(m.dim):
            assert sum((gamma.get((k, k, i), P0) for k in range(m.dim)), P0) == P0
