"""Wedge, exterior derivative, interior product, lifts: exact identities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sugra11.exterior import (
    Chart,
    ChartError,
    DegreeError,
    DifferentialForm,
    exterior_derivative as d,
    interior_product,
    lift_to_product,
    wedge,
)
from sugra11.polyring import Polynomial

N4 = Chart("N4", ("x1", "x2", "x3", "x4"))
M5 = Chart("M5", ("y1", "y2", "y3", "y4", "y5"))
PROD = Chart("P9", ("y1", "y2", "y3", "y4", "y5", "x1", "x2", "x3", "x4"))


def dx(chart, name):
    return DifferentialForm.coordinate_differential(chart, name)


def random_polynomial(rng, names, max_deg=2, terms=2):
    p = Polynomial.zero()
    for _ in range(terms):
        coeff = Fraction(rng.randint(-4, 4))
        t = Polynomial.constant(coeff)
        budget = max_deg
        for name in names:
            e = rng.randint(0, budget)
            budget -= e
            t = t * Polynomial.variable(name) ** e
        p = p + t
    return p


def random_form(rng, chart, degree, coeff_names=None, terms=3):
    names = coeff_names if coeff_names is not None else chart.coordinates
    out = DifferentialForm.zero(chart, degree)
    for _ in range(terms):
        idx = tuple(sorted(rng.sample(range(chart.dim), degree)))
        comp = {idx: random_polynomial(rng, names)}
        out = out + DifferentialForm(chart, degree, comp)
    return out


# -- wedge -------------------------------------------------------------------

def test_wedge_antisymmetry_of_coordinate_differentials():
    a = wedge(dx(N4, "x1"), dx(N4, "x2"))
    b = wedge(dx(N4, "x2"), dx(N4, "x1"))
    assert a == -b


def test_wedge_mixed_degree_example():
    # du ^ (x2 dx2^dx3^dx4) on a Walker-style chart
    W = Chart("W", ("v", "x1", "x2", "x3", "x4", "u"))
    omega_plus = DifferentialForm.monomial(W, ("x2", "x3", "x4"), Polynomial.variable("x2"))
    du = dx(W, "u")
    f4 = wedge(du, omega_plus)
    assert f4.degree == 4
    assert f4.components == {(2, 3, 4, 5): -Polynomial.variable("x2")}  # -x2 dx2^dx3^dx4^du


def test_wedge_of_kaehler_form_with_itself():
    omega = wedge(dx(N4, "x1"), dx(N4, "x2")) + wedge(dx(N4, "x3"), dx(N4, "x4"))
    sq = wedge(omega, omega)
    vol = DifferentialForm.monomial(N4, ("x1", "x2", "x3", "x4"), Polynomial.constant(2))
    assert sq == vol


def test_wedge_degree_overflow_is_an_error():
    top = DifferentialForm.monomial(N4, ("x1", "x2", "x3", "x4"), Polynomial.constant(1))
    with pytest.raises(DegreeError):
        wedge(top, dx(N4, "x1"))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.randoms(use_true_random=False))
def test_wedge_graded_anticommutativity(p, q, pyrandom):
    rng = random.Random(pyrandom.randint(0, 10 ** 9))
    if p + q > M5.dim:
        return
    a = random_form(rng, M5, p)
    b = random_form(rng, M5, q)
    left = wedge(a, b)
    right = wedge(b, a) * ((-1) ** (p * q))
    assert left == right


# -- exterior derivative -----------------------------------------------------

def test_d_of_closed_monomial_examples():
    W = Chart("W", ("v", "x1", "x2", "x3", "x4", "u"))
    omega_plus = DifferentialForm.monomial(W, ("x2", "x3", "x4"), Polynomial.variable("x2"))
    assert d(omega_plus).is_zero()
    nu = DifferentialForm.monomial(M5, ("y1",), Polynomial.variable("y1"))
    assert d(nu).is_zero()
    assert d(dx(M5, "y2")).is_zero()


def test_d_squared_zero_randomized():
    rng = random.Random(7)
    for _ in range(30):
        degree = rng.randint(0, 3)
        a = random_form(rng, M5, degree)
        assert d(d(a)).is_zero()


def test_d_top_degree_is_trivially_zero():
    top = DifferentialForm.monomial(N4, ("x1", "x2", "x3", "x4"), Polynomial.variable("x1"))
    out = d(top)
    assert out.is_zero()
    assert out.degree == 5


def test_d_graded_leibniz_randomized():
    rng = random.Random(11)
    for _ in range(20):
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        a = random_form(rng, M5, p)
        b = random_form(rng, M5, q)
        lhs = d(wedge(a, b))
        rhs = wedge(d(a), b) + wedge(a, d(b)) * ((-1) ** p)
        assert lhs == rhs


# -- interior product --------------------------------------------------------

# i_v is linear over the polynomial components of v, so the coordinate
# fields cover every vector field

def test_interior_product_dual_pairing():
    W = Chart("W", ("v", "x1", "x2", "x3", "x4", "u"))
    du = dx(W, "u")
    assert interior_product(du, "v").is_zero()
    assert interior_product(du, "u") == DifferentialForm.function(W, Polynomial.constant(1))


def test_interior_product_strips_du_factor():
    W = Chart("W", ("v", "x1", "x2", "x3", "x4", "u"))
    theta = DifferentialForm.monomial(W, ("x2", "x3", "x4"), Polynomial.variable("x2"))
    f4 = wedge(dx(W, "u"), theta)
    assert interior_product(f4, "u") == theta


def test_interior_product_graded_leibniz_randomized():
    rng = random.Random(23)
    for _ in range(20):
        p = rng.randint(1, 2)
        q = rng.randint(1, 2)
        a = random_form(rng, M5, p)
        b = random_form(rng, M5, q)
        for c in M5.coordinates:
            lhs = interior_product(wedge(a, b), c)
            rhs = wedge(interior_product(a, c), b) + wedge(a, interior_product(b, c)) * ((-1) ** p)
            assert lhs == rhs


def test_interior_product_squares_to_zero():
    rng = random.Random(5)
    for _ in range(15):
        a = random_form(rng, M5, 3)
        # i_c i_e = -i_e i_c over all pairs, so i_c i_c = 0 at c = e
        for c in M5.coordinates:
            for e in M5.coordinates:
                i_ce = interior_product(interior_product(a, e), c)
                assert i_ce == -interior_product(interior_product(a, c), e)


def test_interior_product_of_zero_form_is_an_error():
    f = DifferentialForm.function(M5, Polynomial.variable("y1"))
    with pytest.raises(DegreeError):
        interior_product(f, "y1")


def test_interior_product_with_a_foreign_coordinate_is_an_error():
    with pytest.raises(ChartError, match="not a coordinate of chart 'M5'"):
        interior_product(dx(M5, "y1"), "x1")


# -- lifts ---------------------------------------------------------------------

def test_lift_reindexes_components():
    nu = DifferentialForm.monomial(M5, ("y1",), Polynomial.variable("y1"))
    lifted = lift_to_product(nu, PROD)
    assert lifted.chart == PROD
    assert lifted.components == {(0,): Polynomial.variable("y1")}


# the product chart with x1 and x2 listed in reverse order: lifting must
# carry the sign of the permutation that sorts the renamed indices
SWAPPED = Chart("P9s", ("y1", "y2", "y3", "y4", "y5", "x2", "x1", "x3", "x4"))


def test_lift_is_natural_for_wedge():
    x12 = DifferentialForm.monomial(N4, ("x1", "x2"), Polynomial.variable("x3"))
    for target in (PROD, SWAPPED):
        x3 = Polynomial.variable("x3")
        assert lift_to_product(x12, target).components == {(5, 6): x3 if target is PROD else -x3}
        rng = random.Random(3)
        for _ in range(10):
            a = random_form(rng, N4, 1)
            b = random_form(rng, N4, 2)
            lhs = wedge(lift_to_product(a, target), lift_to_product(b, target))
            rhs = lift_to_product(wedge(a, b), target)
            assert lhs == rhs


def test_lift_chart_mismatch():
    other = Chart("O", ("q1", "q2"))
    nu = dx(other, "q1")
    with pytest.raises(ChartError):
        lift_to_product(nu, PROD)


def test_lift_then_wedge_with_other_factor():
    theta = random_form(random.Random(1), N4, 3)
    nu = dx(M5, "y1")
    mixed = wedge(lift_to_product(theta, PROD), lift_to_product(nu, PROD))
    assert mixed.degree == 4
    assert not mixed.is_zero()


# -- construction errors ---------------------------------------------------------

def test_duplicate_chart_coordinates_rejected():
    with pytest.raises(ChartError):
        Chart("bad", ("a", "b", "a"))


def test_non_increasing_component_tuple_rejected():
    with pytest.raises(ValueError):
        DifferentialForm(M5, 2, {(2, 1): Polynomial.constant(1)})


def test_component_index_out_of_range_rejected():
    with pytest.raises(ChartError):
        DifferentialForm(M5, 1, {(9,): Polynomial.constant(1)})


def test_monomial_with_repeated_coordinate_is_zero():
    f = DifferentialForm.monomial(M5, ("y1", "y1"), Polynomial.constant(3))
    assert f.is_zero()
