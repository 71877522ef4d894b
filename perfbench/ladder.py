"""Coordinate-change ladder: pull a manifest back along a polynomial map.

The map is triangular and unipotent, written by chart position so it
applies to every 5+6 chart the bundled manifests use.  Each line gives an
old coordinate in terms of the new ones (flat updates, not composed):

    fiber (v, x1, x2, x3, x4, u) = positions 0..5
        p2 += a1*p1^d
        p3 += a2*p1*p2 + a3*p2^d
        p4 += a4*p3^d + a5*p1
        p5 += a6*p4^d
        p0 += a7*p1*p5^d + a8*p3*p4 + a9*p5^2
    base (y1..y5 or z1..z4, t) = positions 0..4
        q1 += b1*q0^d
        q2 += b2*q0*q1
        q3 += b3*q2^d
        q4 += b4*q3*q0

``a1..a9`` and ``b1..b4`` are seeded nonzero small integers.  With J the
Jacobian of old in new coordinates, I - J is nilpotent, so the inverse
Jacobian is the finite sum ``K = sum_k (I - J)^k``.  The pulled-back
metric is ``J^T g(phi) J``, its inverse ``K g_inv(phi) K^T``, and each
form is pulled back term by term.  Every generated metric is checked to
satisfy ``g * g_inv = I`` before it is written.
"""

from __future__ import annotations

import copy
import random
from typing import Dict, List, Sequence, Tuple

import polyq as pq

Matrix = List[List[pq.Poly]]

FIBER_TERMS = {  # position -> [(coefficient name, [(position, exponent or "d")])]
    2: [("a1", [(1, "d")])],
    3: [("a2", [(1, 1), (2, 1)]), ("a3", [(2, "d")])],
    4: [("a4", [(3, "d")]), ("a5", [(1, 1)])],
    5: [("a6", [(4, "d")])],
    0: [("a7", [(1, 1), (5, "d")]), ("a8", [(3, 1), (4, 1)]), ("a9", [(5, 2)])],
}
BASE_TERMS = {
    1: [("b1", [(0, "d")])],
    2: [("b2", [(0, 1), (1, 1)])],
    3: [("b3", [(2, "d")])],
    4: [("b4", [(3, 1), (0, 1)])],
}
COEFFICIENTS = ("a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "b1", "b2", "b3", "b4")
SMALL_NONZERO = (-3, -2, -1, 1, 2, 3)


def random_coefficients(rng: random.Random) -> Dict[str, int]:
    return {name: rng.choice(SMALL_NONZERO) for name in COEFFICIENTS}


def chart_map(coords: Sequence[str], terms, coeffs: Dict[str, int], d: int) -> List[pq.Poly]:
    """Old coordinates as polynomials in the new ones (same names)."""
    images = []
    for pos, name in enumerate(coords):
        parts = [pq.var(name)]
        for cname, factors in terms.get(pos, []):
            mono = pq.const(coeffs[cname])
            for fpos, k in factors:
                mono = pq.mul(mono, pq.power(pq.var(coords[fpos]), d if k == "d" else k))
            parts.append(mono)
        images.append(pq.add(*parts))
    return images


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    n, m, k = len(a), len(b[0]), len(b)
    return [[pq.add(*(pq.mul(a[i][t], b[t][j]) for t in range(k))) for j in range(m)] for i in range(n)]


def _transpose(a: Matrix) -> Matrix:
    return [list(row) for row in zip(*a)]


def _identity(n: int) -> Matrix:
    return [[pq.const(1 if i == j else 0) for j in range(n)] for i in range(n)]


class ChartPullback:
    """The ladder map on one chart, with its Jacobian and inverse Jacobian."""

    def __init__(self, coords: Sequence[str], images: List[pq.Poly]):
        n = len(coords)
        self.coords = tuple(coords)
        self.images = dict(zip(coords, images))
        self.J = [[pq.partial(images[i], coords[a]) for a in range(n)] for i in range(n)]
        nil = [[pq.add(pq.const(1 if i == j else 0), pq.scale(self.J[i][j], -1)) for j in range(n)]
               for i in range(n)]
        K, term = _identity(n), _identity(n)
        for _ in range(n):
            term = _matmul(term, nil)
            K = [[pq.add(K[i][j], term[i][j]) for j in range(n)] for i in range(n)]
        if _matmul(K, self.J) != _identity(n):
            raise AssertionError("ladder map: sum (I-J)^k is not the inverse Jacobian")
        self.K = K

    def compose(self, p: pq.Poly) -> pq.Poly:
        return pq.substitute(p, self.images)

    def metric(self, g: Matrix) -> Matrix:
        g_phi = [[self.compose(x) for x in row] for row in g]
        return _matmul(_matmul(_transpose(self.J), g_phi), self.J)

    def inverse(self, g_inv: Matrix) -> Matrix:
        g_phi = [[self.compose(x) for x in row] for row in g_inv]
        return _matmul(_matmul(self.K, g_phi), _transpose(self.K))

    def form(self, terms: Dict[Tuple[int, ...], pq.Poly]) -> Dict[Tuple[int, ...], pq.Poly]:
        """Pull back {index tuple: coefficient}, each term c dx_i1^...^dx_ik in index order."""
        n = len(self.coords)
        out: Dict[Tuple[int, ...], pq.Poly] = {}
        for idx, coeff in terms.items():
            partial = {(): self.compose(coeff)}
            for i in idx:  # wedge with d(phi_i) = sum_a J[i][a] dx_a
                nxt: Dict[Tuple[int, ...], pq.Poly] = {}
                for key, c in partial.items():
                    for a in range(n):
                        if a in key or not self.J[i][a]:
                            continue
                        sign = (-1) ** sum(1 for b in key if b > a)
                        new_key = tuple(sorted(key + (a,)))
                        nxt[new_key] = pq.add(nxt.get(new_key, {}), pq.scale(pq.mul(c, self.J[i][a]), sign))
                partial = {k: v for k, v in nxt.items() if v}
            for key, c in partial.items():
                out[key] = pq.add(out.get(key, {}), c)
        return {k: v for k, v in out.items() if v}


def _full_matrix(lower) -> Matrix:
    n = len(lower)
    return [[pq.parse(lower[max(i, j)][min(i, j)]) for j in range(n)] for i in range(n)]


def _constant_inverse(g: Matrix) -> Matrix:
    """Inverse of a constant diagonal matrix (the shipped base metrics)."""
    n = len(g)
    if any(g[i][j] for i in range(n) for j in range(n) if i != j) or any(
            set(g[i][i]) != {pq.ONE_MONO} for i in range(n)):
        raise ValueError("metrics without an inverse must be constant and diagonal")
    return [[pq.const(1 / g[i][i][pq.ONE_MONO]) if i == j else {} for j in range(n)] for i in range(n)]


def _lower(m: Matrix):
    return [[pq.to_str(m[i][j]) for j in range(i + 1)] for i in range(len(m))]


def pull_back_manifest(doc: dict, coeffs: Dict[str, int], d: int) -> dict:
    """Return a copy of a manifest pulled back along the ladder map of degree d.

    The chart whose dimension is 6 takes the fiber map, the chart whose
    dimension is 5 the base map.  Eval points are dropped because they name
    old coordinates.
    """
    out = copy.deepcopy(doc)
    maps: Dict[str, ChartPullback] = {}
    for chart in doc["charts"]:
        coords = chart["coordinates"]
        terms = {6: FIBER_TERMS, 5: BASE_TERMS}[len(coords)]
        maps[chart["name"]] = ChartPullback(coords, chart_map(coords, terms, coeffs, d))
    for entry in out["metrics"]:
        pb = maps[entry["chart"]]
        g = _full_matrix(entry["lower_triangular"])
        g_inv = _full_matrix(entry["inverse"]) if "inverse" in entry else _constant_inverse(g)
        new_g, new_inv = pb.metric(g), pb.inverse(g_inv)
        if _matmul(new_g, new_inv) != _identity(len(g)):
            raise AssertionError(f"pulled-back metric {entry['name']!r}: g * g_inv != I")
        entry["lower_triangular"] = _lower(new_g)
        entry["inverse"] = _lower(new_inv)
        entry.pop("sqrt_abs_det", None)
    for entry in out["forms"]:
        pb = maps[entry["chart"]]
        pos = {c: i for i, c in enumerate(pb.coords)}
        terms: Dict[Tuple[int, ...], pq.Poly] = {}
        for term in entry["terms"]:
            key = tuple(pos[c] for c in term["indices"])
            terms[key] = pq.add(terms.get(key, {}), pq.parse(term.get("coeff", "1")))
        pulled = pb.form(terms)
        entry["terms"] = [
            {"indices": [pb.coords[i] for i in key], "coeff": pq.to_str(c)}
            for key, c in sorted(pulled.items())
        ]
    for bg in out["backgrounds"]:
        bg.pop("eval_points", None)
    return out


def jacobian_congruence(pb: ChartPullback, entries: Dict[Tuple[int, int], pq.Poly]) -> Dict[Tuple[int, int], pq.Poly]:
    """Nonzero entries of J^T (R o phi) J for a symmetric tensor R given sparsely."""
    n = len(pb.coords)
    r = [[pb.compose(entries.get((i, j), entries.get((j, i), {}))) for j in range(n)] for i in range(n)]
    full = _matmul(_matmul(_transpose(pb.J), r), pb.J)
    return {(a, b): full[a][b] for a in range(n) for b in range(n) if full[a][b]}
