"""A small exact polynomial type for building and checking benchmark inputs.

It is deliberately independent of ``sugra11.polyring``: the benchmark's
known answers must not be computed by the engine they check.  A
polynomial is a dict from monomials to nonzero ``Fraction`` coefficients;
a monomial is a sorted tuple of ``(variable, exponent)`` pairs, so
polynomials over different variable sets mix freely.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Mapping, Tuple

Monomial = Tuple[Tuple[str, int], ...]
Poly = Dict[Monomial, Fraction]

ONE_MONO: Monomial = ()


def const(c) -> Poly:
    c = Fraction(c)
    return {ONE_MONO: c} if c else {}


def var(name: str) -> Poly:
    return {((name, 1),): Fraction(1)}


def add(*ps: Poly) -> Poly:
    out: Poly = {}
    for p in ps:
        for m, c in p.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def scale(p: Poly, c) -> Poly:
    c = Fraction(c)
    return {m: v * c for m, v in p.items()} if c else {}


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for v, k in b:
        d[v] = d.get(v, 0) + k
    return tuple(sorted(d.items()))


def mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = _mono_mul(ma, mb)
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def power(p: Poly, n: int) -> Poly:
    out = const(1)
    for _ in range(n):
        out = mul(out, p)
    return out


def partial(p: Poly, name: str) -> Poly:
    out: Poly = {}
    for m, c in p.items():
        for i, (v, k) in enumerate(m):
            if v == name:
                rest = m[:i] + (((v, k - 1),) if k > 1 else ()) + m[i + 1:]
                out[rest] = out.get(rest, 0) + c * k
    return {m: c for m, c in out.items() if c}


def substitute(p: Poly, images: Mapping[str, Poly]) -> Poly:
    """Replace each variable named in ``images`` by its image polynomial."""
    powers: Dict[Tuple[str, int], Poly] = {}

    def pw(v: str, k: int) -> Poly:
        key = (v, k)
        if key not in powers:
            powers[key] = images[v] if k == 1 else mul(pw(v, k - 1), images[v])
        return powers[key]

    out: Poly = {}
    for m, c in p.items():
        term = const(c)
        for v, k in m:
            term = mul(term, pw(v, k) if v in images else {((v, k),): Fraction(1)})
        out = add(out, term)
    return out


def evaluate(p: Poly, point: Mapping[str, Fraction]) -> Fraction:
    total = Fraction(0)
    for m, c in p.items():
        for v, k in m:
            c *= Fraction(point[v]) ** k
        total += c
    return total


def to_str(p: Poly) -> str:
    """Render in the manifest grammar, e.g. ``3*x1^2*y2 - 1/8*u``."""
    if not p:
        return "0"
    pieces = []
    for m in sorted(p):
        c = p[m]
        factors = [v if k == 1 else f"{v}^{k}" for v, k in m]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = f"{mag}*" + "*".join(factors)
        pieces.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(pieces)
    return "-" + text[2:] if text.startswith("- ") else text[2:]


_TERM = re.compile(r"\s*([+-])?\s*([^+-]+)")


def parse(text: str) -> Poly:
    """Parse the manifest grammar (the form ``to_str`` writes)."""
    out: Poly = {}
    text = text.strip()
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m:
            raise ValueError(f"cannot parse polynomial {text!r}")
        pos = m.end()
        sign = -1 if m.group(1) == "-" else 1
        coeff = Fraction(sign)
        mono: Dict[str, int] = {}
        for factor in m.group(2).split("*"):
            factor = factor.strip()
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, k = factor.partition("^")
                mono[name] = mono.get(name, 0) + (int(k) if k else 1)
        out = add(out, {tuple(sorted(mono.items())): coeff})
    return out
