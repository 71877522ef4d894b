"""Reference computations the engine does not run, kept as test oracles.

``warped_ricci_oracle`` is the block Ricci of a warped product,

    Ric^h(X, Y)   = Ric^g(X, Y) - (dim_fiber / f) Hess(f)(X, Y)
    Ric^h(Xt, Yt) = Ric^gt(Xt, Yt) - h(Xt, Yt) fhat
    Ric^h(X, Yt)  = 0
    fhat = Lap_g(f)/f + (dim_fiber - 1) g(grad f, grad f)/f^2,

built from the factor metrics only, so it is independent of the direct
curvature of the assembled metric.  ``build_product`` accepts only a
nonzero constant warping f, whose Hessian, Laplacian and gradient vanish,
so the oracle is diag(Ric^g, Ric^gt).

``dense_christoffel_ricci`` is the curvature as the plain triple loops
over every index, zero entries included, with the sign convention of
``sugra11.curvature``.  The engine works from nonzero entries only; this
is the reference it must match exactly.

``parse_polynomial`` and ``parse_rational`` are the manifest literal
readers as a token list and a state machine over it, the way the engine
read literals before it matched one term pattern at a time.  They accept
the same language except that they also read ``^int/int`` when the
quotient is integral, so ``x^4/2`` reads as ``x^2``.
"""

import re
from fractions import Fraction
from typing import Dict, List, Tuple

from sugra11.curvature import ricci
from sugra11.polyring import (
    Coefficient,
    Polynomial,
    PolynomialGrammarError,
    _pack,
    _rational,
    sum_of_products,
)


def warped_ricci_oracle(pc):
    """Block-formula Ricci of the assembled metric, fully independent of it."""
    nb, nf = pc.base.dim, pc.fiber.dim
    zero = Polynomial.zero()
    out = [[zero] * (nb + nf) for _ in range(nb + nf)]
    for start, ric in ((0, ricci(pc.base)), (nb, ricci(pc.fiber))):
        for i, row in enumerate(ric):
            out[start + i][start:start + len(row)] = row
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


_TOKEN = re.compile(
    r"\s*(?:(?P<rat>\d+\s*/\s*\d+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[+\-*^()])|(?P<bad>\S))"
)


def _tokens(text: str) -> List[Tuple[str, object]]:
    """(kind, value) pairs: ("num", int or Fraction), ("name", str) or ("op", str)."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, token = m.lastgroup, m.group(m.lastgroup)
        if kind == "bad":
            raise PolynomialGrammarError(f"unexpected character {token!r} in {text!r}")
        if kind in ("rat", "int"):
            try:
                parts = [int(part) for part in token.split("/")]
            except ValueError as exc:  # past the interpreter's limit on int() digits
                raise PolynomialGrammarError(f"number too long: {len(token)} characters") from exc
            if kind == "rat" and parts[1] == 0:
                raise PolynomialGrammarError(f"zero denominator in {text!r}")
            tokens.append(("num", Fraction(*parts) if kind == "rat" else parts[0]))
        else:
            tokens.append((kind, token))
    return tokens


def parse_rational(text: str) -> Fraction:
    """A coefficient of the grammar below, ``[-]int`` or ``[-]int/int``.

    Decimal and exponent notation are refused: ``Fraction("1e999999999")``
    would build a billion-digit integer.
    """
    tokens = _tokens(text)
    sign = 1
    if tokens[:1] == [("op", "-")]:
        sign, tokens = -1, tokens[1:]
    if len(tokens) != 1 or tokens[0][0] != "num":
        raise PolynomialGrammarError("expected int or int/int")
    return sign * Fraction(tokens[0][1])


def parse_polynomial(text: str) -> Polynomial:
    """Parse the manifest polynomial grammar.

    Terms are separated by ``+``/``-``; each term is
    ``[coef][*]var[^exp][*var[^exp]...]`` with ``coef`` an integer or
    ``int/int``; a ``*`` must be followed by an unsigned factor, so
    ``x*-y`` is refused.  A number may only open a term, a name must open
    a term or follow its coefficient or a ``*``, and a sign may not follow
    a sign, so ``2 3``, ``x 2``, ``x y``, ``--x`` and ``x+-y`` are refused
    while ``2x``, ``2 x`` and ``-x`` are read.  Whitespace is otherwise
    insignificant.  An exponent at or above ``EXPONENT_LIMIT`` raises
    ``ExponentOverflow``.
    """
    tokens = _tokens(text)
    terms: Dict[int, Coefficient] = {}  # packed monomial -> coefficient
    i = 0
    n = len(tokens)
    sign = 1
    signed = False  # a sign was read and no term has followed it yet
    while i < n:
        kind, val = tokens[i]
        if kind == "op" and val in "+-":
            if signed:
                raise PolynomialGrammarError(f"doubled sign in {text!r}")
            sign = -1 if val == "-" else 1
            signed = True
            i += 1
            continue
        # parse one term
        coeff: Coefficient = 1
        factors: Dict[str, int] = {}
        prev = None  # the last token of this term: "num", "name" or "*"
        while i < n:
            kind, val = tokens[i]
            if kind == "num":
                if prev is not None:
                    raise PolynomialGrammarError(f"a number may only open a term in {text!r}")
                coeff = val
                i += 1
            elif kind == "name":
                if prev == "name":
                    raise PolynomialGrammarError(f"juxtaposed factors without '*' in {text!r}")
                exp = 1
                i += 1
                if i < n and tokens[i] == ("op", "^"):
                    if i + 1 >= n or tokens[i + 1][0] != "num" or tokens[i + 1][1].denominator != 1:
                        raise PolynomialGrammarError(f"bad exponent in {text!r}")
                    exp = int(tokens[i + 1][1])
                    i += 2
                factors[val] = factors.get(val, 0) + exp
            elif kind == "op" and val == "*":
                # an unsigned factor must follow, so x*-y is refused rather than read as x - y
                if prev is None or i + 1 == n or tokens[i + 1][0] == "op":
                    raise PolynomialGrammarError(f"dangling '*' in {text!r}")
                i += 1
            elif kind == "op" and val in "+-":
                break
            else:
                raise PolynomialGrammarError(f"unexpected token {val!r} in {text!r}")
            prev = val if kind == "op" else kind
        if prev is None:
            raise PolynomialGrammarError(f"empty term in {text!r}")
        key = _pack(factors.items())
        terms[key] = terms.get(key, 0) + sign * coeff
        sign = 1
        signed = False
    if signed:
        raise PolynomialGrammarError(f"dangling sign in {text!r}")
    if n == 0:
        raise PolynomialGrammarError("empty polynomial literal")
    return _rational(terms)
