"""Exact polynomial arithmetic: ring laws, calculus, parsing, square roots."""

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sugra11.cli import main
from sugra11.polyring import (
    EXPONENT_LIMIT,
    ExponentOverflow,
    NotAPerfectSquare,
    Polynomial,
    PolynomialGrammarError,
    format_rational,
    parse_polynomial,
    parse_rational,
    poly_divexact,
    poly_sqrt,
    sum_of_products,
)

import oracles

ROOT = Path(__file__).resolve().parent.parent

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


# -- coefficient store: int numerators over one positive int den, never float ----

def assert_canonical(p):
    for c in p.terms.values():
        assert type(c) is int and c != 0, (p, c)
    assert type(p.den) is int and p.den > 0, (p, p.den)
    assert math.gcd(p.den, *p.terms.values()) == 1, (p, p.den)
    assert p.terms or p.den == 1, (p, p.den)


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
               poly_sqrt(Polynomial.constant(r * r)), parse_polynomial(str(p)),
               sum_of_products(products)]
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
    for q in (poly_divexact(2 * x, 4), poly_divexact(2 * x, Polynomial.constant(4))):
        assert q == x * Fraction(1, 2)
        assert list(q.terms.values()) == [1] and q.den == 2


@settings(max_examples=60, deadline=None)
@given(polynomials(), rationals().filter(bool), signed_products)
def test_equal_polynomials_built_by_different_routes_are_stored_identically(p, r, products):
    total = Polynomial.zero()
    for sign, a, b in products:
        total = total + a * b if sign > 0 else total - a * b
    half = Fraction(1, 2)
    for a, b in (((p * r) * (1 / r), p),
                 (p * half + p * half, p),
                 (parse_polynomial(str(p)), p),
                 (sum_of_products(products), total)):
        assert (a.terms, a.den, hash(a)) == (b.terms, b.den, hash(b))


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError):
        Polynomial.constant(0.5)
    with pytest.raises(TypeError):
        (x * x).evaluate({"x": 0.1})


def test_polynomials_are_made_by_the_named_constructors_only():
    with pytest.raises(TypeError, match="parse_polynomial, Polynomial.constant"):
        Polynomial(("x",), {(1,): 2})


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


# -- square roots and quotients of constants ----------------------------------

def test_poly_sqrt_cases():
    assert poly_sqrt(Polynomial.constant(1)) == Polynomial.constant(1)
    assert poly_sqrt(Polynomial.zero()) == Polynomial.zero()
    assert poly_sqrt(Polynomial.constant(Fraction(9, 4))) == Polynomial.constant(Fraction(3, 2))
    # a non-constant square is refused too: only constants are taken
    for p in (x, x ** 2 + 2 * x + 1, Polynomial.constant(-4), Polynomial.constant(Fraction(1, 2))):
        with pytest.raises(NotAPerfectSquare):
            poly_sqrt(p)


def test_poly_sqrt_of_coefficients_beyond_float_range():
    root = Polynomial.constant(Fraction(10 ** 400 + 1, 3))
    assert poly_sqrt(root * root) == root
    with pytest.raises(NotAPerfectSquare):
        poly_sqrt(root * root + 1)


@settings(max_examples=30, deadline=None)
@given(rationals())
def test_poly_sqrt_recovers_squares(r):
    assert poly_sqrt(Polynomial.constant(r * r)) == Polynomial.constant(abs(r))


def test_poly_divexact():
    assert poly_divexact(4 * x * y, Polynomial.constant(2)) == 2 * x * y
    assert poly_divexact(x, Fraction(-1, 3)) == -3 * x
    with pytest.raises(ValueError):
        poly_divexact(x ** 2 - 1, x - 1)  # exact, but not by a constant
    with pytest.raises(ZeroDivisionError):
        poly_divexact(x, 0)


# -- parsing and printing ----------------------------------------------------

def test_parse_basic_grammar():
    p = parse_polynomial("1/8*x1^2 + 1/8*x2^2")
    assert p == Polynomial.variable("x1") ** 2 * Fraction(1, 8) + Polynomial.variable("x2") ** 2 * Fraction(1, 8)
    assert parse_polynomial("-x") == -x
    assert parse_polynomial("3") == Polynomial.constant(3)
    assert parse_polynomial("2*x*y - y^2") == 2 * x * y - y ** 2
    assert parse_polynomial(" x ^ 2 * y ") == x ** 2 * y
    assert parse_polynomial("0") == Polynomial.zero()
    # a name may follow its term's coefficient without a '*'
    assert parse_polynomial("2x") == parse_polynomial("2 x") == 2 * x
    assert parse_polynomial("x - y") == x - y


def test_parse_errors():
    for bad in ("", "x +", "x ^ y", "@", "x^1/2", "1/0*x", "x^3/0",
                "x*-y", "2*-3", "x^2*-x", "x*+y", "x * - y", "x*", "x**2",
                # juxtaposed factors and doubled signs
                "2 3", "x 2", "1/2 3", "x y", "x*2", "--x", "x--y", "x+-y",
                # an exponent is an unsigned integer, not a quotient
                "x^4/2", "x^2/1",
                # past the interpreter's limit on int() digits
                "1" * 5000, "x^" + "9" * 5000, "1/" + "1" * 5000):
        with pytest.raises(PolynomialGrammarError):
            parse_polynomial(bad)


def _reading(read, text):
    """What read makes of text: a value, or the class of the grammar or overflow error."""
    try:
        return read(text)
    except (PolynomialGrammarError, ExponentOverflow) as exc:
        return type(exc)


_QUOTIENT_EXPONENT = re.compile(r"\^\s*(\d+)\s*/\s*(\d+)")


def _assert_readers_agree(text):
    """The term reader and the token reader of tests/oracles.py read text
    alike, except that the token reader also takes an integral ^int/int."""
    new, old = _reading(parse_polynomial, text), _reading(oracles.parse_polynomial, text)
    if isinstance(old, Polynomial) and _QUOTIENT_EXPONENT.search(text):
        assert new is PolynomialGrammarError
        new = parse_polynomial(_QUOTIENT_EXPONENT.sub(lambda m: f"^{int(m[1]) // int(m[2])}", text))
    assert type(new) is type(old) and new == old, (text, new, old)
    new, old = _reading(parse_rational, text), _reading(oracles.parse_rational, text)
    assert type(new) is type(old) and new == old, (text, new, old)


@settings(max_examples=600, deadline=None)
@given(st.text(alphabet=" xy12+-*^/", max_size=12))
def test_term_reader_agrees_with_the_token_reader(text):
    _assert_readers_agree(text)


def test_term_reader_agrees_with_the_token_reader_on_every_manifest_string():
    def strings(node):
        if isinstance(node, str):
            yield node
        for child in node.values() if isinstance(node, dict) else node if isinstance(node, list) else ():
            yield from strings(child)

    paths = sorted(ROOT.glob("manifests/*.json")) + sorted(ROOT.glob("tests/golden/*.manifest.json"))
    texts = {text for path in paths if path.name != "broken.json"  # not JSON at all
             for text in strings(json.loads(path.read_text()))}
    for text in texts:
        _assert_readers_agree(text)
    assert sum(isinstance(_reading(parse_polynomial, t), Polynomial) for t in texts) > 100


def test_parse_rational_takes_exactly_the_coefficient_forms():
    for text, value in (("3", 3), ("-3/4", Fraction(-3, 4)), (" 6 / 4 ", Fraction(3, 2)), ("- 0", 0)):
        assert parse_rational(text) == value
    for bad in ("", "-", "+1", "--1", "1/0", "0.5", "1e999999999", "1e5", "x", "2x", "1/2/3",
                "1" * 5000):
        with pytest.raises(PolynomialGrammarError):
            parse_rational(bad)


def test_constant_polynomial_hashes_as_the_number_it_equals():
    for value in (3, 0, Fraction(1, 2)):
        p = Polynomial.constant(value)
        assert p == value and hash(p) == hash(value)
        assert len({p, value}) == 1
    assert Polynomial.zero() == 0 and hash(Polynomial.zero()) == hash(0)


@settings(max_examples=60, deadline=None)
@given(polynomials())
def test_str_round_trips_through_parser(p):
    assert parse_polynomial(str(p)) == p


def from_decimal(text):
    """The int of a decimal string, read 1000 digits at a time, below the
    interpreter's str-to-int digit limit."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def test_str_is_exact_past_the_int_digit_limit():
    q = Fraction(10 ** 4999 + 7, 10 ** 4999 + 3)  # coprime, 5000 digits each
    text = "1" + "0" * 4998 + "7/1" + "0" * 4998 + "3"
    assert str(Polynomial.constant(q)) == text == format_rational(q)
    assert str(1 - q * x) == f"-{text}*x + 1"
    big = 7 ** 20000  # 16902 digits
    assert from_decimal(str(Polynomial.constant(big))) == big
    assert str(Polynomial.constant(-big)) == "-" + format_rational(big)
    assert format_rational(Fraction(-big, 3)) == f"-{format_rational(big)}/3"


def test_unused_variables_are_pruned():
    p = x + y - y
    assert p.variables == ("x",)
    assert p == x
    assert hash(p) == hash(x)


# -- packed monomials --------------------------------------------------------

def test_products_and_sums_over_disjoint_variable_sets():
    a = parse_polynomial("2*x1^2 - x2")
    b = parse_polynomial("y1*y2 + 3")
    assert a * b == parse_polynomial("2*x1^2*y1*y2 - x2*y1*y2 + 6*x1^2 - 3*x2")
    assert (a * b).variables == ("x1", "x2", "y1", "y2")
    assert str(a + b) == "2*x1^2 + y1*y2 - x2 + 3"
    assert (a + b) - b == a and (a + b).variables == ("x1", "x2", "y1", "y2")
    assert (a * b).partial("y1") == a * parse_polynomial("y2")
    assert (a * b).partial("z") == Polynomial.zero()
    pt = {"x1": 2, "x2": -1, "y1": Fraction(1, 3), "y2": 5}
    assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)


def test_exponent_at_the_field_limit_raises_instead_of_wrapping():
    top = x ** (EXPONENT_LIMIT - 1)
    assert str(top) == f"x^{EXPONENT_LIMIT - 1}" and list(top.terms.values()) == [1]
    assert (top * y).variables == ("x", "y")
    with pytest.raises(ExponentOverflow):
        x ** EXPONENT_LIMIT
    with pytest.raises(ExponentOverflow):
        top * x
    with pytest.raises(ExponentOverflow):
        top * top  # 2^32 - 2 still fits the field, so only the guard bit shows it
    with pytest.raises(ExponentOverflow):
        sum_of_products([(1, y, y), (-1, top, x + 1)])
    for text in (f"x^{EXPONENT_LIMIT}", f"x^{EXPONENT_LIMIT - 1}*x", f"y + x^{2 ** 64}"):
        with pytest.raises(ExponentOverflow):
            parse_polynomial(text)


def test_manifest_product_past_the_exponent_limit_is_that_background_error(tmp_path, capsys):
    doc = json.loads((ROOT / "manifests" / "solution1.json").read_text())
    doc["forms"][0]["terms"][0]["coeff"] = f"x2^{EXPONENT_LIMIT - 1}"  # |F|^2 squares it
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert main(["--manifest", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "  ERROR: ExponentOverflow: exponent of x2 reaches 2^31 in a product\n" in captured.out
    assert "Traceback" not in captured.out


REGISTRY_PROBE = """
import contextlib, io, json, random, sys
from sugra11.cli import main
from sugra11.polyring import Polynomial, parse_polynomial

names = ["u", "v", "x", "y", "z"] + [f"x{i}" for i in range(1, 5)] + [f"y{i}" for i in range(1, 6)]
if sys.argv[1] == "reverse":
    names.reverse()
elif sys.argv[1] == "shuffled":
    random.Random(5).shuffle(names)
if sys.argv[1] != "default":
    for name in names:  # the first sight of a name fixes its field
        Polynomial.variable(name)
texts = ["3*x^2*y - 1/2*y^3 + z - 7", "x1*y1^2 - 2*u*v + x4^3*y5", "y2*x3 - x3*y2 + v^2"]
out = []
for text in texts:
    p = parse_polynomial(text)
    built = sum((Polynomial.variable(n) * Polynomial.variable(n) for n in sorted(set(names))),
                Polynomial.zero())
    leading = str(p).split(" ")[0]  # str prints the grlex-leading term first
    out.append([str(p), hash(p), leading, list(p.variables), str(p * built),
                p == parse_polynomial(str(p)), p * built == built * p, hash(p * built)])
for manifest in ("solution4_literal", "solution2"):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["--manifest", f"manifests/{manifest}.json"])
    out.append([code, buf.getvalue()])
print(json.dumps(out))
"""


def test_output_equality_and_hash_do_not_depend_on_the_registration_order():
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    runs = {
        order: json.loads(subprocess.run(
            [sys.executable, "-c", REGISTRY_PROBE, order], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True, timeout=300,
        ).stdout)
        for order in ("default", "reverse", "shuffled")
    }
    assert runs["reverse"] == runs["default"] and runs["shuffled"] == runs["default"]
    *polys, (code, report), _ = runs["default"]
    assert all(row[5] and row[6] for row in polys)
    assert polys[2][0] == "v^2"  # y2*x3 cancels against x3*y2
    assert code == 1 and report == (ROOT / "tests" / "golden" / "solution4_literal.text.stdout").read_text()
