"""Exact polynomial arithmetic: ring laws, calculus, parsing, square roots."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sugra11.polyring import (
    NotAPerfectSquare,
    Polynomial,
    PolynomialGrammarError,
    parse_polynomial,
    poly_divexact,
    poly_sqrt,
    sum_of_products,
)

x = Polynomial.variable("x")
y = Polynomial.variable("y")
z = Polynomial.variable("z")


def rationals():
    return st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def polynomials(draw, names=("x", "y", "z"), max_terms=4, max_exp=3):
    n_terms = draw(st.integers(0, max_terms))
    p = Polynomial.zero()
    for _ in range(n_terms):
        coeff = draw(rationals())
        term = Polynomial.constant(coeff)
        for name in names:
            term = term * Polynomial.variable(name) ** draw(st.integers(0, max_exp))
        p = p + term
    return p


# -- ring axioms -------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=30, deadline=None)
@given(polynomials())
def test_additive_inverse_gives_empty_term_map(p):
    s = p + (-p)
    assert s.is_zero()
    assert s.terms == {}


def test_difference_of_squares():
    assert (x + 1) * (x - 1) == x ** 2 - 1


def test_quadratic_potential_built_by_add_and_scale():
    # 1/8*(x1^2 + x2^2 + x3^2 + x4^2) assembled from pieces
    h = Polynomial.zero()
    for i in range(1, 5):
        h = h + Polynomial.variable(f"x{i}") ** 2 * Fraction(1, 8)
    assert h == parse_polynomial("1/8*x1^2 + 1/8*x2^2 + 1/8*x3^2 + 1/8*x4^2")
    assert h.evaluate({"x1": 1, "x2": 1, "x3": 1, "x4": 1}) == Fraction(1, 2)


# -- coefficient store: int when integral, Fraction otherwise, never float ------

def assert_canonical(p):
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (p, c)
        assert c != 0


signed_products = st.lists(
    st.tuples(st.sampled_from((1, -1)), polynomials(max_terms=3), polynomials(max_terms=3)),
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), rationals(), st.integers(-9, 9), st.integers(0, 3),
       signed_products)
def test_every_operation_stores_canonical_coefficients(p, q, r, k, n, products):
    results = [p + q, p - q, -p, p * q, p * r, p * k, k * p, p ** n, p.partial("x"),
               p.substitute({"x": q, "y": Polynomial.constant(r)}),
               poly_divexact(p * q, q) if not q.is_zero() else p,
               poly_sqrt(q * q), parse_polynomial(str(p)), sum_of_products(products)]
    if r:
        results.append(poly_divexact(p, Polynomial.constant(r)))
    for result in results:
        assert_canonical(result)
    value = p.evaluate({"x": r, "y": k, "z": 1})
    assert type(value) is Fraction
    assert type(Polynomial.constant(k).constant_value()) is Fraction


@settings(max_examples=60, deadline=None)
@given(signed_products, rationals(), rationals(), rationals())
def test_sum_of_products_is_the_sequential_sum(products, vx, vy, vz):
    total = Polynomial.zero()
    for sign, a, b in products:
        total = total + a * b if sign > 0 else total - a * b
    fused = sum_of_products(products)
    assert fused == total
    # a * b goes through the kernel too, so also compare values at a point
    pt = {"x": vx, "y": vy, "z": vz}
    assert fused.evaluate(pt) == sum(s * a.evaluate(pt) * b.evaluate(pt) for s, a, b in products)


def test_divexact_with_integer_coefficients_is_exact():
    assert poly_divexact(2 * x, 4) == x * Fraction(1, 2)
    assert poly_divexact(2 * x, 4).terms == {(1,): Fraction(1, 2)}
    assert poly_divexact(2 * x * y, 4 * y).terms == {(1,): Fraction(1, 2)}


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError):
        Polynomial.constant(0.5)
    with pytest.raises(TypeError):
        Polynomial(("x",), {(1,): 2.0})


# -- calculus ----------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(polynomials(), polynomials())
def test_partial_derivative_leibniz(p, q):
    lhs = (p * q).partial("x")
    rhs = p.partial("x") * q + p * q.partial("x")
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(polynomials())
def test_mixed_partials_commute(p):
    assert p.partial("x").partial("y") == p.partial("y").partial("x")


@settings(max_examples=30, deadline=None)
@given(polynomials(), polynomials(), rationals(), rationals(), rationals())
def test_evaluate_is_ring_homomorphism(p, q, vx, vy, vz):
    pt = {"x": vx, "y": vy, "z": vz}
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)


def test_partial_derivative_examples():
    omega_coeff = Polynomial.variable("x2")
    assert omega_coeff.partial("x2") == Polynomial.constant(1)
    assert Polynomial.constant(7).partial("x") == Polynomial.zero()
    assert (x * y).partial("x").partial("y") == Polynomial.constant(1)
    assert (x * y).partial("y").partial("x") == Polynomial.constant(1)


def test_evaluate_examples():
    p = x ** 2 - 1
    assert p.evaluate({"x": 3}) == 8
    q = 2 * x * y + 5
    assert q.evaluate({"x": 0, "y": 0}) == 5
    with pytest.raises(KeyError):
        q.evaluate({"x": 1})


# -- square roots ------------------------------------------------------------

def test_poly_sqrt_cases():
    assert poly_sqrt(Polynomial.constant(1)) == Polynomial.constant(1)
    assert poly_sqrt(x ** 2 + 2 * x + 1) == x + 1
    with pytest.raises(NotAPerfectSquare):
        poly_sqrt(x)
    with pytest.raises(NotAPerfectSquare):
        poly_sqrt(x ** 2 + 1)
    with pytest.raises(NotAPerfectSquare):
        poly_sqrt(Polynomial.constant(-4))
    assert poly_sqrt(Polynomial.constant(Fraction(9, 4))) == Polynomial.constant(Fraction(3, 2))


def test_poly_sqrt_of_coefficients_beyond_float_range():
    root = 10 ** 400 * x + 1
    assert poly_sqrt(root * root) == root
    with pytest.raises(NotAPerfectSquare):
        poly_sqrt(root * root + 1)


@settings(max_examples=30, deadline=None)
@given(polynomials(max_terms=3, max_exp=2))
def test_poly_sqrt_recovers_squares(p):
    q = poly_sqrt(p * p)
    assert q * q == p * p


def test_poly_divexact():
    assert poly_divexact(x ** 2 - 1, x - 1) == x + 1
    assert poly_divexact(4 * x * y, Polynomial.constant(2)) == 2 * x * y
    with pytest.raises(ValueError):
        poly_divexact(x ** 2 + 1, x)


# -- parsing and printing ----------------------------------------------------

def test_parse_basic_grammar():
    p = parse_polynomial("1/8*x1^2 + 1/8*x2^2")
    assert p == Polynomial.variable("x1") ** 2 * Fraction(1, 8) + Polynomial.variable("x2") ** 2 * Fraction(1, 8)
    assert parse_polynomial("-x") == -x
    assert parse_polynomial("3") == Polynomial.constant(3)
    assert parse_polynomial("2*x*y - y^2") == 2 * x * y - y ** 2
    assert parse_polynomial(" x ^ 2 * y ") == x ** 2 * y
    assert parse_polynomial("0") == Polynomial.zero()


def test_parse_errors():
    for bad in ("", "x +", "x ^ y", "@", "x^1/2", "1/0*x", "x^3/0"):
        with pytest.raises(PolynomialGrammarError):
            parse_polynomial(bad)


@settings(max_examples=60, deadline=None)
@given(polynomials())
def test_str_round_trips_through_parser(p):
    assert parse_polynomial(str(p)) == p


def test_unused_variables_are_pruned():
    p = x + y - y
    assert p.variables == ("x",)
    assert p == x
    assert hash(p) == hash(x)
