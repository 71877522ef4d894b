"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from exponent vectors to nonzero rational
coefficients, together with an ordered tuple of variable names.  All
arithmetic is exact; there is no floating point anywhere.  Zero testing
(``is_zero``) is the primitive every residual check in this package
reduces to, so results are always kept in canonical form:

  * a coefficient is a plain ``int`` when it is integral and a
    ``Fraction`` only when it is not (``_coefficient``, applied by the
    constructor, is the one place that decides), and never a float:
    every division goes through ``Fraction``, and ``constant_value`` and
    ``evaluate`` return ``Fraction``,
  * no zero coefficients are stored,
  * variable tuples are sorted by name and pruned to the variables that
    actually occur, so equality is structural,
  * terms are ordered graded-lexicographically when printed.

Mixing polynomials over different variable sets is allowed: operands are
silently promoted to the union of their variable lists (sorted by name),
which is the common case on product charts where base and fiber
coordinates meet.

``sum_of_products`` is the one multiply-accumulate kernel: a sum of
signed products lands in a single term map and becomes one canonical
polynomial, instead of a chain of partial sums that each re-canonicalize.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add
from typing import Dict, Iterable, Mapping, Tuple, Union

Exponent = Tuple[int, ...]
Coefficient = Union[int, Fraction]


class NotAPerfectSquare(ValueError):
    """Raised by poly_sqrt when no polynomial square root exists."""


class PolynomialGrammarError(ValueError):
    """Raised when a polynomial literal cannot be parsed."""


def _grlex_key(exp: Exponent):
    return (sum(exp), exp)


def _coefficient(value) -> Coefficient:
    """The stored form of a rational: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):  # an int subclass such as bool, as the operators accept
        return int(value)
    raise TypeError(f"polynomial coefficients are int or Fraction, not {type(value).__name__}")


class Polynomial:
    """Immutable sparse polynomial with int or non-integral Fraction coefficients."""

    __slots__ = ("variables", "terms", "_hash")

    def __init__(
        self, variables: Iterable[str] = (), terms: Mapping[Exponent, Coefficient] | None = None
    ):
        varlist = tuple(variables)
        clean: Dict[Exponent, Coefficient] = {}
        if terms:
            for exp, c in terms.items():
                if type(c) is not int:
                    c = _coefficient(c)
                if c:
                    clean[tuple(exp)] = c
        # prune variables that never occur with a positive exponent
        if varlist and clean:
            used = [any(column) for column in zip(*clean)]
            if not all(used):
                keep = [i for i, u in enumerate(used) if u]
                varlist = tuple(varlist[i] for i in keep)
                clean = {tuple(exp[i] for i in keep): c for exp, c in clean.items()}
        elif not clean:
            varlist = ()
        if list(varlist) != sorted(varlist):
            order = sorted(range(len(varlist)), key=lambda i: varlist[i])
            remapped = {}
            for exp, c in clean.items():
                remapped[tuple(exp[i] for i in order)] = c
            varlist = tuple(sorted(varlist))
            clean = remapped
        object.__setattr__(self, "variables", varlist)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return _P_ZERO

    @staticmethod
    def constant(value: Coefficient) -> "Polynomial":
        return Polynomial((), {(): value})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return Polynomial((name,), {(1,): 1})

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.variables

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (0 for the zero polynomial)."""
        if self.variables:
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self.terms.get((), 0))

    # -- variable alignment ---------------------------------------------

    def _aligned(self, other: "Polynomial"):
        if self.variables == other.variables:
            return self.variables, self.terms, other.terms
        union = tuple(sorted(set(self.variables) | set(other.variables)))
        return union, _remap(self, union), _remap(other, union)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        varlist, a, b = self._aligned(other)
        out = dict(a)
        get = out.get
        for exp, c in b.items():
            out[exp] = get(exp, 0) + c
        return Polynomial(varlist, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if not other or not self.terms:
                return _P_ZERO
            return Polynomial(self.variables, {e: c * other for e, c in self.terms.items()})
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
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.variables, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- calculus ---------------------------------------------------------

    def partial(self, var: str) -> "Polynomial":
        """Formal partial derivative; zero when var does not occur."""
        if var not in self.variables:
            return _P_ZERO
        i = self.variables.index(var)
        out: Dict[Exponent, Coefficient] = {}
        for exp, c in self.terms.items():
            k = exp[i]
            if k == 0:
                continue
            out[exp[:i] + (k - 1,) + exp[i + 1:]] = c * k
        return Polynomial(self.variables, out)

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        """Exact value at a rational point covering all variables."""
        vals = []
        for v in self.variables:
            if v not in point:
                raise KeyError(f"no value supplied for variable {v!r}")
            vals.append(Fraction(point[v]))
        total = Fraction(0)
        for exp, c in self.terms.items():
            term = c
            for val, k in zip(vals, exp):
                if k:
                    term *= val ** k
            total += term
        return total

    def substitute(self, assignments: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Substitute polynomials for a subset of the variables."""
        out = _P_ZERO
        for exp, c in self.terms.items():
            term = Polynomial.constant(c)
            for v, k in zip(self.variables, exp):
                if not k:
                    continue
                repl = assignments.get(v)
                factor = repl if repl is not None else Polynomial.variable(v)
                term = term * factor ** k
            out = out + term
        return out

    # -- leading data (graded lex) -----------------------------------------

    def leading(self) -> Tuple[Exponent, Coefficient]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exp in sorted(self.terms, key=_grlex_key, reverse=True):
            coeff = self.terms[exp]
            factors = [
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.variables, exp)
                if k
            ]
            if not factors:
                body = str(abs(coeff))
            else:
                mag = abs(coeff)
                body = "*".join(factors)
                if mag != 1:
                    body = f"{mag}*{body}"
            pieces.append(("- " if coeff < 0 else "+ ") + body)
        text = " ".join(pieces)
        return "-" + text[2:] if text.startswith("- ") else text[2:]

    def __repr__(self) -> str:
        return f"Polynomial({self})"


_P_ZERO = Polynomial()


def sum_of_products(products: Iterable[Tuple[int, Polynomial, Polynomial]]) -> Polynomial:
    """The sum of sign * a * b over (sign, a, b) triples, sign +1 or -1.

    Every product is accumulated into one term map over the union of the
    operands' variables, and one canonical polynomial is built at the end.
    """
    products = [t for t in products if t[1].terms and t[2].terms]
    if not products:
        return _P_ZERO
    varsets = {p.variables for _, a, b in products for p in (a, b)}
    if len(varsets) == 1:
        (union,) = varsets
    else:
        union = tuple(sorted(set().union(*varsets)))
    out: Dict[Exponent, Coefficient] = {}
    get = out.get
    for sign, a, b in products:
        b_items = _remap(b, union).items()
        for ea, ca in _remap(a, union).items():
            if sign < 0:
                ca = -ca
            for eb, cb in b_items:
                key = tuple(map(add, ea, eb))
                out[key] = get(key, 0) + ca * cb
    return Polynomial(union, out)


def _remap(p: Polynomial, union: Tuple[str, ...]) -> Dict[Exponent, Coefficient]:
    if p.variables == union:
        return p.terms
    pos = [union.index(v) for v in p.variables]
    out = {}
    for exp, c in p.terms.items():
        new = [0] * len(union)
        for i, k in zip(pos, exp):
            new[i] = k
        out[tuple(new)] = c
    return out


def _coerce(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<rat>\d+\s*/\s*\d+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[+\-*^()])|(?P<bad>\S))"
)


def parse_polynomial(text: str) -> Polynomial:
    """Parse the manifest polynomial grammar.

    Terms are separated by ``+``/``-``; each term is
    ``[coef][*]var[^exp][*var[^exp]...]`` with ``coef`` an integer or
    ``int/int``.  Whitespace is insignificant.
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.group("bad"):
            raise PolynomialGrammarError(f"unexpected character {m.group('bad')!r} in {text!r}")
        if m.group("rat"):
            num, den = m.group("rat").split("/")
            if not int(den):
                raise PolynomialGrammarError(f"zero denominator in {text!r}")
            tokens.append(("num", Fraction(int(num), int(den))))
        elif m.group("int"):
            tokens.append(("num", int(m.group("int"))))
        elif m.group("name"):
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))

    # monomial, as sorted (name, exponent) pairs with exponent > 0 -> coefficient
    terms: Dict[Tuple[Tuple[str, int], ...], Coefficient] = {}
    i = 0
    n = len(tokens)
    sign = 1
    expect_term = True
    while i < n:
        kind, val = tokens[i]
        if kind == "op" and val in "+-":
            if not expect_term and val == "-":
                sign = -1
            elif not expect_term:
                sign = 1
            else:
                sign = -sign if val == "-" else sign
            expect_term = True
            i += 1
            continue
        # parse one term
        coeff: Coefficient = 1
        factors: Dict[str, int] = {}
        saw_anything = False
        while i < n:
            kind, val = tokens[i]
            if kind == "num":
                coeff *= val
                saw_anything = True
                i += 1
            elif kind == "name":
                exp = 1
                i += 1
                if i < n and tokens[i] == ("op", "^"):
                    if i + 1 >= n or tokens[i + 1][0] != "num" or tokens[i + 1][1].denominator != 1:
                        raise PolynomialGrammarError(f"bad exponent in {text!r}")
                    exp = int(tokens[i + 1][1])
                    i += 2
                factors[val] = factors.get(val, 0) + exp
                saw_anything = True
            elif kind == "op" and val == "*":
                if not saw_anything:
                    raise PolynomialGrammarError(f"dangling '*' in {text!r}")
                i += 1
            elif kind == "op" and val in "+-":
                break
            else:
                raise PolynomialGrammarError(f"unexpected token {val!r} in {text!r}")
        if not saw_anything:
            raise PolynomialGrammarError(f"empty term in {text!r}")
        monomial = tuple(sorted((name, k) for name, k in factors.items() if k))
        terms[monomial] = terms.get(monomial, 0) + sign * coeff
        sign = 1
        expect_term = False
    if expect_term and n:
        raise PolynomialGrammarError(f"dangling sign in {text!r}")
    if n == 0:
        raise PolynomialGrammarError("empty polynomial literal")
    names = sorted({name for monomial in terms for name, _ in monomial})
    position = {name: j for j, name in enumerate(names)}
    out: Dict[Exponent, Coefficient] = {}
    for monomial, c in terms.items():
        exp = [0] * len(names)
        for name, k in monomial:
            exp[position[name]] = k
        out[tuple(exp)] = c
    return Polynomial(names, out)


# ---------------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------------

def poly_sqrt(p: Polynomial) -> Polynomial:
    """Polynomial square root with positive leading coefficient.

    Raises NotAPerfectSquare when p has no polynomial square root.
    """
    if p.is_zero():
        return _P_ZERO
    lead_exp, lead_coeff = p.leading()
    if lead_coeff < 0 or any(k % 2 for k in lead_exp):
        raise NotAPerfectSquare(f"{p} is not a perfect square")
    c = _fraction_sqrt(lead_coeff)
    if c is None:
        raise NotAPerfectSquare(f"{p} is not a perfect square")
    half_exp = tuple(k // 2 for k in lead_exp)
    root = Polynomial(p.variables, {half_exp: c})
    # peel one grlex-leading remainder term per step; the new root term must be
    # strictly grlex-below the previous one or no square root exists
    prev_key = _grlex_key(half_exp)
    remainder = p - root * root
    while not remainder.is_zero():
        r_exp, r_coeff = remainder.leading()
        diff = tuple(
            a - b
            for a, b in zip(_pad(r_exp, remainder.variables, p.variables), half_exp)
        )
        if any(k < 0 for k in diff) or _grlex_key(diff) >= prev_key:
            raise NotAPerfectSquare(f"{p} is not a perfect square")
        prev_key = _grlex_key(diff)
        root = root + Polynomial(p.variables, {diff: Fraction(r_coeff) / (2 * c)})
        remainder = p - root * root
    return root


def _pad(exp: Exponent, varlist: Tuple[str, ...], target: Tuple[str, ...]) -> Exponent:
    if varlist == target:
        return exp
    out = [0] * len(target)
    for v, k in zip(varlist, exp):
        out[target.index(v)] = k
    return tuple(out)


def _fraction_sqrt(q: Coefficient) -> Fraction | None:
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
    """Exact polynomial division; raises ValueError when den does not divide num."""
    num, den = _coerce(num), _coerce(den)
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero():
        return _P_ZERO
    if den.is_constant():
        return num * (Fraction(1) / den.constant_value())
    varlist = tuple(sorted(set(num.variables) | set(den.variables)))
    n_terms = dict(_remap(num, varlist))
    d_terms = _remap(den, varlist)
    d_lead = max(d_terms, key=_grlex_key)
    d_lead_coeff = d_terms[d_lead]
    out: Dict[Exponent, Coefficient] = {}
    current = Polynomial(varlist, n_terms)
    while not current.is_zero():
        c_exp, c_coeff = current.leading()
        c_exp = _pad(c_exp, current.variables, varlist)
        q_exp = tuple(a - b for a, b in zip(c_exp, d_lead))
        if any(k < 0 for k in q_exp):
            raise ValueError(f"{den} does not divide {num}")
        q_coeff = Fraction(c_coeff) / d_lead_coeff
        out[q_exp] = q_coeff
        current = current - Polynomial(varlist, {q_exp: q_coeff}) * Polynomial(varlist, d_terms)
    return Polynomial(varlist, out)


ZERO = _P_ZERO
ONE = Polynomial.constant(1)
