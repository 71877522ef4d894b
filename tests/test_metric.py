"""Metric layer: index raising, form inner products, Hodge star, volume, nullness."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from sugra11.exterior import (
    Chart,
    DegreeError,
    DifferentialForm,
    exterior_derivative as d,
    interior_product,
    wedge,
)
from sugra11.metric import (
    MetricError,
    NonPolynomialInverse,
    _mask_minor,
    _raised,
    contraction_matrix,
    hodge_star,
    inner_product_forms,
    make_metric,
    norm_sq,
    poly_det,
    volume_form,
)
from sugra11.polyring import Polynomial
from sugra11.product import build_product

from test_exterior import random_form  # noqa: E402

P0 = Polynomial.zero()
P1 = Polynomial.constant(1)


def const_matrix(values):
    return [[Polynomial.constant(v) for v in row] for row in values]


def diag(*values):
    n = len(values)
    return const_matrix([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])


N4 = Chart("N4", ("x1", "x2", "x3", "x4"))
RHO = make_metric(N4, diag(-1, -1, -1, -1), signature=(0, 4))

M5 = Chart("M5", ("y1", "y2", "y3", "y4", "y5"))
G5 = make_metric(M5, diag(-1, -1, -1, -1, -1), signature=(0, 5))


def walker_chart():
    return Chart("W6", ("v", "x1", "x2", "x3", "x4", "u"))


def walker_metric(H):
    """2 dv du - sum dx_i^2 + H du^2 on (v, x1..x4, u)."""
    W = walker_chart()
    n = 6
    g = [[P0] * n for _ in range(n)]
    g[0][5] = g[5][0] = P1
    for i in range(1, 5):
        g[i][i] = -P1
    g[5][5] = H
    return make_metric(W, g, signature=(1, 5))


H_EXAMPLE = sum(
    (Polynomial.variable(f"x{i}") ** 2 * Fraction(1, 8) for i in range(1, 5)),
    Polynomial.zero(),
)


def dx(chart, name):
    return DifferentialForm.coordinate_differential(chart, name)


# -- construction ---------------------------------------------------------------

def test_walker_metric_validates_with_unit_abs_det():
    m = walker_metric(H_EXAMPLE)
    assert (-1) ** m.signature[1] == -1  # the sign of det g
    assert type(m.sqrt_abs_det) is Fraction and m.sqrt_abs_det == 1


def test_walker_inverse_computed_by_adjugate_when_omitted():
    # |det| = 1 is constant, so the adjugate reproduces the closed-form
    # inverse -H dv dv + 2 dv du - sum dx_i^2 with its polynomial H entry
    ginv = [[P0] * 6 for _ in range(6)]
    ginv[0][0] = -H_EXAMPLE
    ginv[0][5] = ginv[5][0] = P1
    for i in range(1, 5):
        ginv[i][i] = -P1
    assert walker_metric(H_EXAMPLE).g_inv == tuple(map(tuple, ginv))


def test_euclidean_block_inverse_computed_automatically():
    m = make_metric(M5, diag(-1, -1, -1, -1, -1))
    assert m.signature == (0, 5)
    for i in range(5):
        assert m.g_inv[i][i] == -P1


def test_declared_signature_must_be_the_signature_of_g():
    # (2, 3) has the parity of det g = -1 but is not the signature of -I
    g = diag(-1, -1, -1, -1, -1)
    assert make_metric(M5, g, signature=(0, 5)).signature == (0, 5)
    with pytest.raises(MetricError, match=r"declared signature \(2, 3\) is not \(0, 5\)"):
        make_metric(M5, g, signature=(2, 3))
    # a null pair: 2 dv du reads as (1, 1) at every point, whatever H is
    vu = Chart("VU", ("v", "u"))
    null = [[P0, P1], [P1, Polynomial.variable("u")]]
    assert make_metric(vu, null).signature == (1, 1)
    with pytest.raises(MetricError, match="declared signature"):
        make_metric(vu, null, signature=(0, 2))


def test_metric_entry_outside_its_chart_rejected():
    g = diag(-1, -1, -1, -1, -1)
    g[4][4] = g[4][4] + Polynomial.variable("x1") ** 2
    with pytest.raises(MetricError, match=r"x1 outside chart 'M5', in entry \(4,4\)"):
        make_metric(M5, g)


def test_non_symmetric_metric_rejected():
    bad = const_matrix([[1, 2], [0, 1]])
    with pytest.raises(MetricError):
        make_metric(Chart("C2", ("a", "b")), bad)


NON_CONSTANT_DET = [[-P1 - Polynomial.variable("b") ** 2, P0], [P0, -P1]]


def test_non_constant_det_without_inverse_rejected():
    with pytest.raises(NonPolynomialInverse) as exc:
        make_metric(Chart("C2", ("a", "b")), NON_CONSTANT_DET)
    assert str(exc.value) == "det g = b^2 + 1 is not a nonzero constant, so g has no polynomial inverse"


def test_abs_det_without_a_rational_root_is_refused():
    from sugra11.metric import VolumeNotPolynomial

    C = Chart("CR", ("a", "b"))
    with pytest.raises(VolumeNotPolynomial, match=r"\|det g\| = 2 is not the square of a rational"):
        make_metric(C, diag(-1, -2))
    m = make_metric(C, diag(2, -8), signature=(1, 1))
    assert ((-1) ** m.signature[1], m.sqrt_abs_det) == (-1, 4)
    m = make_metric(C, diag(-4, Fraction(-1, 9)))  # det g = 4/9
    assert ((-1) ** m.signature[1], m.sqrt_abs_det) == (1, Fraction(2, 3))
    assert type(m.sqrt_abs_det) is Fraction


# -- _raised on 1-forms -----------------------------------------------------------

def test_raise_of_du_is_dv_direction():
    m = walker_metric(H_EXAMPLE)
    assert _raised(m, dx(m.chart, "u")) == {(0,): P1}  # d/dv


def lower(m, raised):
    """The 1-form v_i = sum_j g_ij v^j (flat) of a raise {(j,): v^j}, the
    oracle that undoes it."""
    n = m.dim
    lowered = {(i,): sum((m.g[i][j] * v for (j,), v in raised.items()), P0) for i in range(n)}
    return DifferentialForm(m.chart, 1, lowered)


def test_raise_and_lower_of_1_forms_are_inverse_randomized():
    rng = random.Random(2)
    m = walker_metric(H_EXAMPLE)
    for _ in range(10):
        nu = random_form(rng, m.chart, 1)
        assert lower(m, _raised(m, nu)) == nu


def test_raise_of_dt_in_negative_definite_metric():
    C = Chart("C5", ("z1", "z2", "z3", "z4", "t"))
    g = make_metric(C, diag(-1, -1, -1, -1, -1), signature=(0, 5))
    eta = dx(C, "t")
    v = _raised(g, eta)
    assert v == {(4,): -P1}
    assert lower(g, v) == eta


# -- inner products ------------------------------------------------------------------

def test_kaehler_form_norm_is_two():
    omega = wedge(dx(N4, "x1"), dx(N4, "x2")) + wedge(dx(N4, "x3"), dx(N4, "x4"))
    assert norm_sq(RHO, omega) == Polynomial.constant(2)


def test_three_form_norm_is_minus_one():
    theta = DifferentialForm.monomial(N4, ("x2", "x3", "x4"), P1)
    assert norm_sq(RHO, theta) == Polynomial.constant(-1)


def test_inner_product_is_symmetric_bilinear():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(-3, 3))
    def check(seed, degree, scale):
        rng = random.Random(seed)
        m = walker_metric(H_EXAMPLE)
        a = random_form(rng, m.chart, degree)
        b = random_form(rng, m.chart, degree)
        c = random_form(rng, m.chart, degree)
        assert inner_product_forms(m, a, b) == inner_product_forms(m, b, a)
        lhs = inner_product_forms(m, a * Fraction(scale) + c, b)
        rhs = inner_product_forms(m, a, b) * Fraction(scale) + inner_product_forms(m, c, b)
        assert lhs == rhs

    check()


def test_du_aligned_forms_are_null():
    m = walker_metric(H_EXAMPLE)
    a = wedge(dx(m.chart, "u"), DifferentialForm.monomial(m.chart, ("x2", "x3", "x4"), P1))
    assert norm_sq(m, a).is_zero()
    assert norm_sq(m, dx(m.chart, "u")).is_zero()


def test_dt_is_not_null():
    C = Chart("C5b", ("z1", "z2", "z3", "z4", "t"))
    g = make_metric(C, diag(-1, -1, -1, -1, -1), signature=(0, 5))
    assert norm_sq(g, dx(C, "t")) == Polynomial.constant(-1)
    assert norm_sq(g, DifferentialForm.zero(C, 2)).is_zero()


# -- hodge star ------------------------------------------------------------------------

def test_star_of_weighted_three_form_on_negative_definite_rho():
    omega_plus = DifferentialForm.monomial(N4, ("x2", "x3", "x4"), Polynomial.variable("x2"))
    starred = hodge_star(RHO, omega_plus)
    # +x2 dx1 under the negative-definite convention; the Euclidean-sign
    # computation yields -x2 dx1 (recorded convention deviation)
    assert starred == DifferentialForm.monomial(N4, ("x1",), Polynomial.variable("x2"))


def test_star_top_and_bottom():
    vol = volume_form(RHO)
    assert hodge_star(RHO, DifferentialForm.function(N4, P1)) == vol
    starred_vol = hodge_star(RHO, vol)
    assert starred_vol == DifferentialForm.function(N4, Polynomial.constant((-1) ** RHO.signature[1]))


def test_star_of_a_form_above_the_dimension_is_a_degree_error():
    # only the zero form carries degree dim + 1; its star would have degree -1, as a wedge
    # overflow would, and raises rather than returning a 0-form
    with pytest.raises(DegreeError, match="negative form degree"):
        hodge_star(RHO, DifferentialForm.zero(N4, RHO.dim + 1))


def test_star_of_du_wedge_two_form_equals_du_wedge_rho_star():
    m = walker_metric(H_EXAMPLE)
    W = m.chart
    rng = random.Random(4)
    for _ in range(8):
        omega = random_form(rng, N4, 2, coeff_names=("x1", "x2", "x3", "x4"))
        from sugra11.exterior import lift_to_product

        lifted = lift_to_product(omega, W)
        lhs = hodge_star(m, wedge(dx(W, "u"), lifted))
        rhs = wedge(dx(W, "u"), lift_to_product(hodge_star(RHO, omega), W))
        assert lhs == rhs


def test_star_star_law_randomized():
    rng = random.Random(6)
    for metric, chart in ((RHO, N4), (G5, M5), (walker_metric(H_EXAMPLE), walker_chart())):
        metric = metric if chart != walker_chart() else walker_metric(H_EXAMPLE)
        n = chart.dim
        for _ in range(8):
            p = rng.randint(0, n)
            a = random_form(rng, metric.chart, p)
            expect = a * Fraction((-1) ** (metric.signature[1] + p * (n - p)))
            assert hodge_star(metric, hodge_star(metric, a)) == expect


def test_defining_identity_randomized():
    rng = random.Random(8)
    for metric in (RHO, G5, walker_metric(H_EXAMPLE)):
        chart = metric.chart
        vol = volume_form(metric)
        for _ in range(8):
            p = rng.randint(0, chart.dim)
            a = random_form(rng, chart, p)
            b = random_form(rng, chart, p)
            lhs = wedge(a, hodge_star(metric, b))
            rhs = vol * inner_product_forms(metric, a, b)
            assert lhs == rhs


def test_volume_form_of_euclidean_block():
    assert volume_form(G5) == DifferentialForm.monomial(M5, M5.coordinates, P1)


def test_star_nu_and_its_derivative_under_convention():
    nu = DifferentialForm.monomial(M5, ("y1",), Polynomial.variable("y1"))
    star_nu = hodge_star(G5, nu)
    expected = DifferentialForm.monomial(M5, ("y2", "y3", "y4", "y5"), -Polynomial.variable("y1"))
    assert star_nu == expected
    assert d(star_nu) == volume_form(G5) * Fraction(-1)


# -- contraction matrix -------------------------------------------------------------

def test_contraction_matrix_matches_pairwise_inner_products():
    rng = random.Random(23)
    # g and g_inv both off-diagonal; then an 11-dimensional product with a dense fiber
    for m, degrees in ((walker_metric(H_EXAMPLE), (1, 2, 3, 4)), (dense_product(), (3, 4))):
        for degree in degrees:
            form = random_form(rng, m.chart, degree, terms=3)
            ref = [interior_product(form, c) for c in m.chart.coordinates]
            assert contraction_matrix(m, form) == tuple(
                tuple(inner_product_forms(m, ref[j], ref[k]) for k in range(m.dim))
                for j in range(m.dim)
            )
    m = walker_metric(H_EXAMPLE)
    # a 1-form pairs its components; a 0-form has no contractions
    one = random_form(rng, m.chart, 1, terms=2)
    c = one.components
    assert contraction_matrix(m, one) == tuple(
        tuple(c.get((j,), P0) * c.get((k,), P0) for k in range(m.dim)) for j in range(m.dim)
    )
    zero_form = DifferentialForm.function(m.chart, H_EXAMPLE)
    assert all(e.is_zero() for row in contraction_matrix(m, zero_form) for e in row)


# -- the table of Gram minors ---------------------------------------------------------

D5 = Chart("D5", ("a", "b", "c", "e", "f"))
F6 = Chart("F6", ("p1", "p2", "p3", "p4", "p5", "p6"))


def _matmul(x, y):
    n = len(x)
    return [[sum((x[i][k] * y[k][j] for k in range(n)), P0) for j in range(n)] for i in range(n)]


def _transpose(x):
    return [list(row) for row in zip(*x)]


def dense_pair(chart, shift):
    """(g, g_inv): g = J^T D J for a unit upper-triangular polynomial J and a
    constant diagonal D, so both g and g_inv = K D^-1 K^T, K = J^-1, are dense
    and polynomial; K = sum_k (I - J)^k because I - J is nilpotent.  J has a
    coordinate on its superdiagonal and constants above it."""
    n = chart.dim
    xs = [Polynomial.variable(c) for c in chart.coordinates]
    eye = [[P1 if i == j else P0 for j in range(n)] for i in range(n)]

    def above(i, j):
        return xs[(i + shift) % n] if j == i + 1 else Polynomial.constant(i + j + shift)

    jac = [[P1 if i == j else (above(i, j) if i < j else P0) for j in range(n)] for i in range(n)]
    nil = [[-jac[i][j] if i != j else P0 for j in range(n)] for i in range(n)]
    inv_jac, power = eye, eye
    for _ in range(n - 1):
        power = _matmul(power, nil)
        inv_jac = [[inv_jac[i][j] + power[i][j] for j in range(n)] for i in range(n)]
    values = (1, -1, -2, -1, -2, -1)[:n]
    g = _matmul(_matmul(_transpose(jac), diag(*values)), jac)
    d_inv = diag(*(Fraction(1, v) for v in values))
    return g, _matmul(_matmul(inv_jac, d_inv), _transpose(inv_jac))


def dense_metric(chart, shift):
    """The metric g of ``dense_pair``, whose g_inv make_metric derives."""
    return make_metric(chart, dense_pair(chart, shift)[0], signature=(1, chart.dim - 1))


def dense_product():
    """G5 x F6 with warping 2 and a dense fiber: g_inv has five singleton
    blocks and one dense 6-block, whose det g_K = 4^6 det gt is not a unit."""
    return build_product(G5, dense_metric(F6, 1), 2).assembled


def _submatrix_det(m, rows, cols):
    return poly_det(tuple(tuple(m.g_inv[r][c] for c in cols) for r in rows))


def _gram(m, rows, cols):
    """det g_inv[rows, cols] as the raise reads it: the rows component of the raised dx^cols."""
    return _raised(m, DifferentialForm(m.chart, len(cols), {cols: P1})).get(rows, P0)


def test_gram_minor_table_matches_poly_det_and_its_transpose():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    m = dense_metric(D5, 1)  # one table for every example, so later ones also read hits
    n = m.dim
    assert all(not e.is_zero() for row in m.g_inv for e in row)
    assert m.blocks == ((1 << n) - 1,)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def check(data):
        p = data.draw(st.integers(0, n))
        subset = st.sets(st.integers(0, n - 1), min_size=p, max_size=p).map(sorted).map(tuple)
        rows, cols = data.draw(subset), data.draw(subset)
        minor = _gram(m, rows, cols)
        assert minor == _submatrix_det(m, rows, cols)
        assert _gram(m, cols, rows) == minor

    check()


def test_jacobi_gram_minors_match_poly_det_for_every_p():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    # every in-block minor of the Walker metric with a v-dependent H, whose
    # g_inv splits into the interleaved blocks {v, u}, {x1}, ..., {x4}
    walker = walker_metric(H_EXAMPLE + Polynomial.variable("v"))
    blocks = walker.blocks
    assert sorted(blocks) == [2, 4, 8, 16, 33]
    for k in blocks:
        block = [i for i in range(walker.dim) if k >> i & 1]
        for p in range(len(block) + 1):
            for rows in combinations(block, p):
                for cols in combinations(block, p):
                    assert _gram(walker, rows, cols) == _submatrix_det(walker, rows, cols)
    # dense blocks, whose complements det g[K - C, K - R] are dense minors of g;
    # the product's fiber block has det g_K = -16384, so the raise folds its
    # sign into the Jacobi sign and divides each raised row by 16384
    product = dense_product()
    fiber = max(product.blocks)
    assert _mask_minor(product._g_minors, product.g, product.dim, fiber, fiber) == -16384
    dense = (dense_metric(D5, 2), dense_metric(F6, 3), product)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        m = data.draw(st.sampled_from(dense))
        p = data.draw(st.integers(0, m.dim))
        subset = st.sets(st.integers(0, m.dim - 1), min_size=p, max_size=p).map(sorted).map(tuple)
        rows, cols = data.draw(subset), data.draw(subset)
        assert _gram(m, rows, cols) == _submatrix_det(m, rows, cols)

    check()
    for m in dense:  # every p, from the 0-minor to det g_inv
        for p in range(m.dim + 1):
            rows, cols = tuple(range(p)), tuple(range(m.dim - p, m.dim))
            assert _gram(m, rows, cols) == _submatrix_det(m, rows, cols)
    assert all(m._g_minors for m in dense + (walker,))


def test_make_metric_hands_over_det_g_and_every_cofactor():
    # make_metric takes det g and the cofactors into the table the metric
    # keeps, so every 0- and 1-minor of g_inv, by Jacobi det g_K and a
    # cofactor, is read from it without one more expansion
    m = make_metric(D5, dense_metric(D5, 2).g)
    assert m.blocks == ((1 << m.dim) - 1,)
    filled = len(m._g_minors)
    assert filled > 0
    assert _gram(m, (), ()) == P1
    for i in range(m.dim):
        for j in range(m.dim):
            assert _gram(m, (i,), (j,)) == m.g_inv[i][j]
    assert len(m._g_minors) == filled


def _reference_inner(m, a, b):
    """<a, b> = sum_{I,J} a_I b_J det g_inv[I, J], one poly_det per minor."""
    total = P0
    for ia, pa in a.components.items():
        for ib, pb in b.components.items():
            total = total + pa * pb * _submatrix_det(m, ia, ib)
    return total


def _reference_star(m, a):
    """star(a) = sum_R (sum_C a_C det g_inv[R, C]) sgn(R R^c) sqrt|det g| dx^(R^c)."""
    n, p = m.dim, a.degree
    out = DifferentialForm.zero(m.chart, n - p)
    for rows in combinations(range(n), p):
        rest = tuple(i for i in range(n) if i not in rows)
        order = rows + rest
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if order[i] > order[j])
        coeff = P0
        for cols, pa in a.components.items():
            coeff = coeff + pa * _submatrix_det(m, rows, cols)
        coeff = coeff * m.sqrt_abs_det * Fraction((-1) ** inversions)
        out = out + DifferentialForm(m.chart, n - p, {rest: coeff})
    return out


def test_star_and_inner_product_on_a_dense_metric_match_poly_det_reference():
    rng = random.Random(31)
    # a dense g_inv, a sparse one (Walker, non-constant H) whose zero entries
    # let the raising kernel skip pairs, and an 11-dimensional product with a
    # dense fiber, raised one block at a time
    for m, degrees in ((dense_metric(D5, 2), range(6)),
                       (walker_metric(H_EXAMPLE + Polynomial.variable("v")), range(7)),
                       (dense_product(), (3, 4))):
        for p in degrees:
            a = random_form(rng, m.chart, p, terms=2)
            b = random_form(rng, m.chart, p, terms=2)
            assert inner_product_forms(m, a, b) == _reference_inner(m, a, b)
            assert hodge_star(m, a) == _reference_star(m, a)


def test_each_metric_has_its_own_minor_table():
    first, second = dense_metric(D5, 1), dense_metric(D5, 3)
    assert first.g_inv != second.g_inv
    rows, cols = (0, 2), (1, 3)
    one, two = _gram(first, rows, cols), _gram(second, rows, cols)
    assert one == _submatrix_det(first, rows, cols)
    assert two == _submatrix_det(second, rows, cols)
    assert one != two


def _leibniz_det(m):
    """det m as the signed sum over permutations."""
    n = len(m)
    total = P0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Polynomial.constant((-1) ** inversions)
        for i in range(n):
            term = term * m[i][perm[i]]
        total = total + term
    return total


def test_poly_det_matches_the_leibniz_sum_on_non_symmetric_matrices():
    # poly_det shares one table key between a minor and its transpose; that is
    # exact for a non-symmetric matrix only because its expansion visits
    # suffix row sets alone
    rng = random.Random(5)
    xs = [Polynomial.variable(c) for c in ("a", "b", "c")]
    for n in range(6):
        for _ in range(3):
            m = tuple(
                tuple(
                    P0 if rng.random() < 0.25
                    else xs[rng.randrange(3)] * rng.randint(-3, 3) + Polynomial.constant(rng.randint(-4, 4))
                    for _ in range(n)
                )
                for _ in range(n)
            )
            assert any(m[i][j] != m[j][i] for i in range(n) for j in range(i)) or n < 2
            assert poly_det(m) == _leibniz_det(m)


def test_inverse_computed_from_cofactors_on_a_dense_metric():
    # the derived inverse is the closed form K D^-1 K^T, and g g_inv = I,
    # the product make_metric itself does not form
    for chart, shift in ((D5, 1), (D5, 2), (F6, 3)):
        m = dense_metric(chart, shift)
        assert all(not e.is_zero() for row in m.g for e in row)
        assert m.g_inv == tuple(map(tuple, dense_pair(chart, shift)[1]))
        eye = [[P1 if i == j else P0 for j in range(m.dim)] for i in range(m.dim)]
        assert _matmul(m.g, m.g_inv) == eye
