"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial stores ``int`` numerators over one positive ``int``
denominator ``den`` shared by all its terms, the content/primitive-part
form of Geddes, Czapor and Labahn, "Algorithms for Computer Algebra"
(1992), ch. 2.  There is no floating point anywhere.  Zero testing
(``is_zero``) is what every residual check reduces to, so results are
always canonical (``_canonical`` is the one normaliser): no zero numerator
is stored, ``gcd(den, every numerator) == 1``, and the zero polynomial has
no terms and ``den == 1``.  A polynomial is made by ``parse_polynomial``,
``Polynomial.constant``, ``.variable`` or ``.zero`` and the operators;
coefficients go in as ``int`` or ``Fraction`` (floats are refused), and
``constant_value`` and ``evaluate`` return ``Fraction``.

A monomial is one packed ``int`` (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  One registry per process gives each variable name a field of
``FIELD_BITS`` bits the first time the name is seen, so every polynomial
shares one variable order and a product of monomials is the sum of their
keys.  The top bit of a field is a guard: an exponent must stay below
``EXPONENT_LIMIT`` (2^31), so a sum of two never carries into the next
field, and each product is checked once for a set guard bit.  An exponent
at or above the limit raises ``ExponentOverflow``; nothing wraps.
``variables``, printing (graded lex over sorted names) and hashing read
exponents by sorted name, so none depends on the order in which names
were registered.  Equality compares ``den`` and the packed term maps
directly, which is exact because every polynomial in a process packs its
monomials over the one registry.

``sum_of_products`` is the one multiply-accumulate kernel: signed
products, scaled to the lcm of their denominators, land in a single
``int`` term map and become one canonical polynomial.

``parse_polynomial`` reads a literal one term at a time with one compiled
pattern, and names the column where no term matches.

``poly_sqrt`` and ``poly_divexact`` take constants only: a metric with a
polynomial inverse has a constant determinant (``metric.make_metric``
establishes it), so no caller needs a polynomial root or quotient.  Neither,
nor ``Polynomial.substitute``, has an engine caller: perfbench/tracer.py looks
them up, and ROADMAP item 4 deletes them once the tracer drops them.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Dict, Iterable, List, Mapping, Tuple, Union

Exponent = Tuple[int, ...]
Coefficient = Union[int, Fraction]

FIELD_BITS = 32
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)
_FIELD = (1 << FIELD_BITS) - 1

# the variable registry: name -> bit offset of its field, in order of first sight
_OFFSETS: Dict[str, int] = {}
_SORTED: List[str] = []  # registered names, sorted
_GUARD = 0  # the guard bits of every registered field


class NotAPerfectSquare(ValueError):
    """Raised by poly_sqrt when its argument is not the square of a rational."""


class PolynomialGrammarError(ValueError):
    """Raised when a polynomial literal cannot be parsed."""


class ExponentOverflow(ValueError):
    """Raised when an exponent reaches EXPONENT_LIMIT."""


def _offset(name: str) -> int:
    """The bit offset of name's exponent field, registering the name on first sight."""
    off = _OFFSETS.get(name)
    if off is None:
        global _GUARD
        off = _OFFSETS[name] = len(_OFFSETS) * FIELD_BITS
        _GUARD |= 1 << (off + FIELD_BITS - 1)
        _SORTED.append(name)
        _SORTED.sort()
    return off


def _pack(pairs: Iterable[Tuple[str, int]]) -> int:
    """The packed monomial of (name, exponent) pairs."""
    key = 0
    for name, k in pairs:
        if k:
            if k >= EXPONENT_LIMIT:
                raise ExponentOverflow(f"exponent {k} of {name} is outside 0 .. 2^{FIELD_BITS - 1}-1")
            key += k << _offset(name)
    return key


def _exponents(key: int, names: Iterable[str]) -> Exponent:
    return tuple(key >> _OFFSETS[v] & _FIELD for v in names)


def _grlex_key(key: int):
    exp = _exponents(key, _SORTED)
    return (sum(exp), exp)


def _check_guard(p: "Polynomial") -> "Polynomial":
    over = reduce(or_, p.terms, 0) & _GUARD
    if over:
        name = next(v for v, off in _OFFSETS.items() if over >> off & _FIELD)
        raise ExponentOverflow(f"exponent of {name} reaches 2^{FIELD_BITS - 1} in a product")
    return p


def _coefficient(value) -> Coefficient:
    """value itself when it is an int or a Fraction; any other type, a float
    above all, raises TypeError."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"polynomial coefficients are int or Fraction, not {type(value).__name__}")


class Polynomial:
    """Immutable sparse polynomial: int numerators over one positive int ``den``.

    ``terms`` maps packed monomials to nonzero numerators.  There is no
    public constructor (see the module docstring).
    """

    __slots__ = ("terms", "den", "_variables", "_hash")

    def __init__(self, *args, **kwargs):
        raise TypeError("make a Polynomial with parse_polynomial, Polynomial.constant, "
                        "Polynomial.variable or Polynomial.zero")

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return _P_ZERO

    @staticmethod
    def constant(value: Coefficient) -> "Polynomial":
        return _rational({0: _coefficient(value)})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return _wrap({1 << _offset(name): 1})

    # -- predicates ----------------------------------------------------

    @property
    def variables(self) -> Tuple[str, ...]:
        """The sorted names that occur with a positive exponent."""
        try:
            return self._variables
        except AttributeError:
            support = reduce(or_, self.terms, 0)
            names = tuple(v for v in _SORTED if support >> _OFFSETS[v] & _FIELD)
            object.__setattr__(self, "_variables", names)
            return names

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        terms = self.terms
        return not terms or (len(terms) == 1 and 0 in terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (0 for the zero polynomial)."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self.terms.get(0, 0), self.den)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if type(other) is not Polynomial:
            other = _coerce(other)
        return _combine(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _wrap({e: -c for e, c in self.terms.items()}, self.den)

    def __sub__(self, other) -> "Polynomial":
        if type(other) is not Polynomial:
            other = _coerce(other)
        return _combine(self, other, -1)

    def __rsub__(self, other) -> "Polynomial":
        return _combine(_coerce(other), self, -1)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if not other or not self.terms:
                return _P_ZERO
            num, den = other.as_integer_ratio()
            return _canonical({e: c * num for e, c in self.terms.items()}, self.den * den)
        return sum_of_products([(1, self, _coerce(other))])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            if self.is_constant():  # equal to its int or Fraction value, so hashed as it
                h = hash(self.constant_value())
            else:
                names = self.variables
                monomials = frozenset((_exponents(e, names), c) for e, c in self.terms.items())
                h = hash((names, self.den, monomials))
            object.__setattr__(self, "_hash", h)
            return h

    # -- calculus ---------------------------------------------------------

    def partial(self, var: str) -> "Polynomial":
        """Formal partial derivative; zero when var does not occur."""
        off = _OFFSETS.get(var)
        if off is None:
            return _P_ZERO
        one = 1 << off
        out: Dict[int, int] = {}
        for e, c in self.terms.items():
            k = e >> off & _FIELD
            if k:
                out[e - one] = c * k
        return _canonical(out, self.den)

    def evaluate(self, point: Mapping[str, Coefficient]) -> Fraction:
        """Exact value at a rational (int or Fraction, never float) point covering all variables."""
        names = self.variables
        vals = []
        for v in names:
            if v not in point:
                raise KeyError(f"no value supplied for variable {v!r}")
            vals.append(Fraction(_coefficient(point[v])))
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for val, k in zip(vals, _exponents(e, names)):
                if k:
                    term *= val ** k
            total += term
        return total / self.den

    def substitute(self, assignments: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Substitute polynomials for a subset of the variables.  No engine caller: perfbench/tracer.py
        looks it up, and ROADMAP item 4 deletes it once item 6's pullback tests have landed."""
        names = self.variables
        out = _P_ZERO
        for e, c in self.terms.items():
            term = Polynomial.constant(Fraction(c, self.den))
            for v, k in zip(names, _exponents(e, names)):
                if not k:
                    continue
                repl = assignments.get(v)
                factor = repl if repl is not None else Polynomial.variable(v)
                term = term * factor ** k
            out = out + term
        return out

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.variables
        den = self.den
        pieces = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            coeff = self.terms[e] if den == 1 else Fraction(self.terms[e], den)
            factors = [
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(names, _exponents(e, names))
                if k
            ]
            mag = abs(coeff)
            if not factors:
                body = format_rational(mag)
            else:
                body = "*".join(factors)
                if mag != 1:
                    body = f"{format_rational(mag)}*{body}"
            pieces.append(("- " if coeff < 0 else "+ ") + body)
        text = " ".join(pieces)
        return "-" + text[2:] if text.startswith("- ") else text[2:]

    def __repr__(self) -> str:
        return f"Polynomial({self})"


_new = object.__new__
_set_terms = Polynomial.terms.__set__
_set_den = Polynomial.den.__set__


def _wrap(terms: Dict[int, int], den: int = 1) -> Polynomial:
    """The polynomial of canonical packed numerators over den, taken without a copy."""
    p = _new(Polynomial)
    _set_terms(p, terms)
    _set_den(p, den)
    return p


def _canonical(terms: Dict[int, int], den: int = 1) -> Polynomial:
    """The polynomial of packed int numerators over den > 0, taken without a copy.

    Zeros are dropped and the gcd of den and the numerators is divided out.
    """
    if 0 in terms.values():
        terms = {e: c for e, c in terms.items() if c}
    if not terms:
        return _P_ZERO
    if den != 1:
        g = math.gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {e: c // g for e, c in terms.items()}
    return _wrap(terms, den)


def _rational(coefficients: Mapping[int, Coefficient]) -> Polynomial:
    """The polynomial of a packed map to int or Fraction coefficients."""
    den = math.lcm(*(c.denominator for c in coefficients.values()))
    numerators = {e: c.numerator * (den // c.denominator) for e, c in coefficients.items()}
    return _canonical(numerators, den)


def _combine(a: Polynomial, b: Polynomial, sign: int) -> Polynomial:
    """a + sign * b for sign +1 or -1."""
    if not b.terms:
        return a
    if not a.terms:
        return b if sign > 0 else -b
    den, b_den = a.den, b.den
    if den == b_den:
        out = dict(a.terms)
    else:
        g = math.gcd(den, b_den)
        out = {e: c * (b_den // g) for e, c in a.terms.items()}
        sign *= den // g
        den = den // g * b_den
    get = out.get
    for e, c in b.terms.items():
        out[e] = get(e, 0) + c * sign
    return _canonical(out, den)


_P_ZERO = _wrap({})


def sum_of_products(products: Iterable[Tuple[int, Polynomial, Polynomial]]) -> Polynomial:
    """The sum of sign * a * b over (sign, a, b) triples, sign +1 or -1.

    Every product is scaled to a common denominator, the lcm of the
    ``a.den * b.den`` seen so far, and accumulated into one int term map,
    where the product of two monomials is the sum of their packed keys; one
    canonical polynomial is built at the end.
    """
    out: Dict[int, int] = {}
    get = out.get
    den = 1
    for sign, a, b in products:
        d = a.den * b.den
        if d != den:
            if den % d:  # raise the common denominator to lcm(den, d)
                f = d // math.gcd(den, d)
                for key in out:
                    out[key] *= f
                den *= f
            sign *= den // d
        b_items = b.terms.items()
        for ea, ca in a.terms.items():
            ca *= sign
            for eb, cb in b_items:
                key = ea + eb
                out[key] = get(key, 0) + ca * cb
    return _check_guard(_canonical(out, den))


def _coerce(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")  # a variable, and so a chart coordinate
_FACTOR = rf"{NAME.pattern}(?:\s*\^\s*\d+)?"
# one term: an optional sign; an optional int or int/int coefficient, with a
# '*' after it only when a factor follows; then name[^int] factors joined by '*'
_TERM = re.compile(
    r"\s*(?P<sign>[+-]?)\s*"
    r"(?:(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?(?:\s*(?:\*\s*)?(?=[A-Za-z_]))?)?"
    rf"(?P<factors>{_FACTOR}(?:\s*\*\s*{_FACTOR})*)?\s*"
)


def _number(num: str, den: str | None = None) -> Coefficient:
    """int(num), or Fraction(num, den) when den is given, refusing a zero
    denominator and a number past the interpreter's limit on int() digits."""
    try:
        return int(num) if den is None else Fraction(int(num), int(den))
    except ValueError as exc:
        raise PolynomialGrammarError("number past the interpreter's limit on int() digits") from exc
    except ZeroDivisionError as exc:
        raise PolynomialGrammarError("zero denominator") from exc


def _digits(n: int) -> str:
    """str(n), split by divmod into halves below 2000 bits (about 600 digits),
    so no str() call meets the interpreter's int-to-str digit limit."""
    if n.bit_length() <= 2000:
        return str(n)
    if n < 0:
        return "-" + _digits(-n)
    k = n.bit_length() * 3 // 20  # about half the digits: log10(2) is about 3/10
    high, low = divmod(n, 10 ** k)
    return _digits(high) + _digits(low).zfill(k)


def format_rational(q: Coefficient) -> str:
    """str(q) of an int or Fraction, exact at any size."""
    if isinstance(q, Fraction) and q.denominator != 1:
        return f"{_digits(q.numerator)}/{_digits(q.denominator)}"
    return _digits(int(q))


def parse_rational(text: str) -> Fraction:
    """A coefficient of the grammar below, ``[-]int`` or ``[-]int/int``.

    Decimal and exponent notation are refused: ``Fraction("1e999999999")``
    would build a billion-digit integer.
    """
    m = _TERM.fullmatch(text)
    if m is None or m["sign"] == "+" or m["num"] is None or m["factors"]:
        raise PolynomialGrammarError("expected int or int/int")
    value = Fraction(_number(m["num"], m["den"]))
    return -value if m["sign"] else value


def parse_polynomial(text: str) -> Polynomial:
    """Parse the manifest polynomial grammar.

    A term is ``[sign][coef][*]var[^exp][*var[^exp]...]`` or a bare
    ``[sign]coef``, with ``coef`` an integer or ``int/int`` and ``exp`` an
    unsigned integer; a ``*`` must be followed by a factor, so ``x*-y``,
    ``x*2`` and ``x^4/2`` are refused.  Every term but the first opens with
    ``+`` or ``-``, so ``2 3``, ``x 2``, ``x y``, ``--x`` and ``x+-y`` are
    refused while ``2x``, ``2 x`` and ``-x`` are read.  Whitespace is
    otherwise insignificant.  Where no term can be read, the
    ``PolynomialGrammarError`` names the column; the whole literal is read
    before an exponent at or above ``EXPONENT_LIMIT`` raises
    ``ExponentOverflow``.
    """
    parsed: List[Tuple[Dict[str, int], Coefficient]] = []
    pos = 0
    while not parsed or pos < len(text):
        m = _TERM.match(text, pos)
        if not (m["num"] or m["factors"]) or (pos and not m["sign"]):
            raise PolynomialGrammarError(f"no term at column {m.start('sign') + 1}")
        factors: Dict[str, int] = {}
        for factor in m["factors"].split("*") if m["factors"] else ():
            name, _, exp = factor.partition("^")
            name = name.strip()
            factors[name] = factors.get(name, 0) + (_number(exp) if exp else 1)
        coeff = _number(m["num"], m["den"]) if m["num"] else 1
        parsed.append((factors, -coeff if m["sign"] == "-" else coeff))
        pos = m.end()
    terms: Dict[int, Coefficient] = {}  # packed monomial -> coefficient
    for factors, coeff in parsed:
        key = _pack(factors.items())
        terms[key] = terms.get(key, 0) + coeff
    return _rational(terms)


# ---------------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------------

def poly_sqrt(p: Polynomial) -> Polynomial:
    """The nonnegative rational square root of a constant polynomial.

    Raises NotAPerfectSquare for a non-constant p and for a constant that
    is not the square of a rational.  No engine caller: perfbench/tracer.py looks
    it up, and ROADMAP item 4 deletes it once the tracer drops it.
    """
    root = _fraction_sqrt(p.constant_value()) if p.is_constant() else None
    if root is None:
        raise NotAPerfectSquare(f"{p} is not the square of a rational")
    return Polynomial.constant(root)


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    num = _isqrt_exact(q.numerator)
    den = _isqrt_exact(q.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _isqrt_exact(n: int) -> int | None:
    r = math.isqrt(n)
    return r if r * r == n else None


def poly_divexact(num: Polynomial, den: Polynomial) -> Polynomial:
    """num / den for a nonzero constant den; raises ValueError for a non-constant den.
    No engine caller: perfbench/tracer.py looks it up, and ROADMAP item 4
    deletes it once the tracer drops it."""
    num, den = _coerce(num), _coerce(den)
    if not den.is_constant():
        raise ValueError(f"division by the non-constant polynomial {den}")
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    return num * (1 / den.constant_value())
