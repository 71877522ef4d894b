"""Pseudo-Riemannian metrics on charts: form inner products, volume forms,
Hodge star.

Sign conventions are fixed once and used everywhere:

  * Riemannian factors are negative definite (signature (0, s)); a unit
    vector X has g(X, X) = -1.  Lorentzian factors have signature
    (1, n-1), "mostly minus".
  * The inner product on p-forms is the Gram-minor pairing
    <a, b> = sum_{I,J} a_I b_J det(g_inv[I, J]) over increasing tuples,
    i.e. the 1/p! contraction of components with p inverse metrics.
  * The star is defined by  a ^ star(b) = <a, b> vol  against the chart
    orientation, with vol = sqrt|det g| dx^1^...^dx^n and sqrt|det g| a
    positive rational (``ChartMetric.sqrt_abs_det``).
  * The contraction matrix of a p-form a is C_jk = <i_j a, i_k a>, the
    pairing of its contractions with the coordinate fields d_j, d_k; it
    is the stress-energy term of the Einstein equation and of its HH and
    VV block laws, and ``contraction_matrix`` is its one implementation.

Every pairing, star and raised index above is a sum of Gram minors
det g_inv[R, C].  g_inv, and so g, is block diagonal over the connected
components K of the ``inv_neighbors`` graph (base and fiber of a product;
{v, u} and interleaved singletons on a Walker fiber), which ``ChartMetric``
finds once, at construction.  A minor with R and C inside one K is, by
Jacobi's complementary-minor identity (Horn and Johnson, Matrix Analysis,
0.8.4),

    det g_inv[R, C] = (-1)^(ranks of R and C in K) det g[K - C, K - R] / det g_K,

with det g_K a nonzero constant, as it divides det g, which ``make_metric``
establishes to be a nonzero constant.  ``_jacobi_numerators`` is the one
route from g to these minors: the signed numerators of a column set C over
row sets drawn from given rows, read from the one table of minors of g that
each ``ChartMetric`` keeps.  ``_mask_minor`` reads and fills that table: a
key of one int built from the row and column bitmasks, shared by a minor and
its transpose, and on a miss a Laplace expansion along the lowest row.
``poly_det`` is the same expansion over a fresh table, with no engine
caller: tests and perfbench/tracer.py read it, and ROADMAP item 4 moves it
to tests/ once the tracer drops it.

g_inv is the raise of one index: ``make_metric`` divides the numerators
of each column c over every row of K by det g_K, and hands the table it
filled, det g included, to the metric it returns.  Every other raise is
``_block_raise``'s: a form goes to {R: sum_C a_C det g_inv[R, C]} over the
row sets where that sum is nonzero, one block at a time, over the rows
``inv_neighbors`` reaches, kept per form and metric for ``hodge_star``,
``inner_product_forms`` and ``contraction_matrix`` alike.  It alone sets
the signs that move a block's indices past those of the others.  A factor
metric and the 11-dimensional product metric have separate tables and
raises: the block-law audits, which work on the factors, never read an
entry of the direct computation and stay independent checks.

On a negative-definite factor this star differs from the
Euclidean-signature star by (-1)^p on p-forms, which shows up as
recorded sign deviations next to values quoted from positive-definite
computations (see CONVENTION_NOTES).

Metric inverses must be polynomial; the coefficient ring stays a ring
and every residual stays exact.  ``make_metric`` is the one place that
validates a metric and so the one place that establishes what follows:
det g * det g_inv = 1 over the polynomials makes det g a nonzero rational
constant, so g_inv, its adjugate over det g, is polynomial, and |det g|
must be the square of a rational.  Every entry of g names only
coordinates of the chart, and so does g_inv = g^-1.  The signature is
read off g at the origin, where each entry is its constant term; by
Sylvester's law it is the signature at every point, as det g is a
nonzero constant, and a declared signature must equal it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, Iterable, Sequence, Tuple

from .exterior import (
    Chart,
    ChartError,
    DegreeError,
    DifferentialForm,
    _sort_with_sign,
)
from .polyring import Polynomial, _fraction_sqrt, format_rational, sum_of_products

CONVENTION_NOTES = (
    "Riemannian factors are negative definite; the Hodge dual on such a factor "
    "differs from the Euclidean-signature dual by (-1)^p on p-forms.",
    "With rho = -(dx1^2+...+dx4^2): star_rho(x2 dx2^dx3^dx4) = +x2 dx1 "
    "(Euclidean-signature computation gives -x2 dx1).",
    "With g = -(dy1^2+...+dy5^2) and nu = y1 dy1: d star nu = -vol "
    "(Euclidean-signature computation gives +vol).",
)


class MetricError(ValueError):
    pass


class NonPolynomialInverse(MetricError):
    pass


class VolumeNotPolynomial(MetricError):
    pass


Matrix = Tuple[Tuple[Polynomial, ...], ...]


def _as_matrix(rows: Sequence[Sequence[Polynomial]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def symmetric_matrix(n: int, entry: Callable[[int, int], Polynomial]) -> Matrix:
    """The symmetric n x n matrix with entry(i, j) at (i, j) and (j, i), for i <= j."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = entry(i, j)
    return _as_matrix(rows)


def poly_det(m: Matrix) -> Polynomial:
    """Exact determinant of a square matrix, from a table of its minors.

    The expansion from the full minor removes the lowest row at each step,
    so every visited minor has a suffix {k..n-1} as its row set.  Two
    visited minors that are transposes of each other would need equal
    suffix row sets and hence be the same minor, so the key that
    ``_mask_minor`` shares between a minor and its transpose stays exact
    for a non-symmetric matrix.  No engine caller: perfbench/tracer.py looks it
    up, and ROADMAP item 4 moves it to tests/ once the tracer drops it.
    """
    n = len(m)
    full = (1 << n) - 1
    return _mask_minor({}, m, n, full, full)


class ChartMetric:
    """Validated symmetric polynomial metric with polynomial inverse."""

    def __init__(
        self,
        chart: Chart,
        g: Matrix,
        g_inv: Matrix,
        signature: Tuple[int, int],
        sqrt_abs_det: Fraction,
        g_minors: Dict[int, Polynomial],
    ):
        self.chart = chart
        self.g = g
        self.g_inv = g_inv
        self.signature = signature
        self.sqrt_abs_det = sqrt_abs_det
        self._curvature = None  # lazily filled by the curvature module
        # the table of minors of g, read and filled by _mask_minor only
        self._g_minors = g_minors
        self._raised: Dict[DifferentialForm, Dict[Tuple[int, ...], Polynomial]] = {}
        n = chart.dim
        # for each index, the indices it pairs with under g_inv (sparsity)
        self.inv_neighbors = tuple(
            frozenset(i for i in range(n) if not g_inv[i][j].is_zero()) for j in range(n)
        )
        self.blocks = _components(g_inv)

    @property
    def dim(self) -> int:
        return self.chart.dim


def _components(mat: Matrix) -> Tuple[int, ...]:
    """The bitmasks of the connected components of the nonzero pattern of the
    symmetric ``mat``, largest first: ``_block_raise`` took fewer term products
    so than in discovery order.  g and g_inv have the same components, as g_inv
    is g_K^-1 on each component K of g, and g_K^-1 splits only if g_K does."""
    blocks: list = []
    for i, row in enumerate(mat):
        block = sum(1 << j for j, e in enumerate(row) if not e.is_zero()) | 1 << i
        block |= sum(b for b in blocks if b & block)  # the blocks are disjoint
        blocks = [b for b in blocks if not b & block] + [block]
    return tuple(sorted(blocks, key=int.bit_count, reverse=True))


def make_metric(
    chart: Chart,
    g_rows: Sequence[Sequence[Polynomial]],
    signature: Tuple[int, int] | None = None,
) -> ChartMetric:
    """Build and validate a chart metric.

    det g must be a nonzero constant, as a polynomial inverse requires, and
    sqrt|det g| is the positive rational whose square is |det g|.  On each
    component K of g, column c of g_inv is the raise of the one index c over
    every row of K: ``_jacobi_numerators`` of c divided by det g_K.  A
    supplied signature must be the signature of g.
    """
    n = chart.dim
    g = _as_matrix(g_rows)
    if len(g) != n or any(len(row) != n for row in g):
        raise MetricError(f"metric must be {n}x{n} on chart {chart.name!r}")
    coordinates = set(chart.coordinates)
    for i in range(n):
        for j in range(i + 1):
            if g[i][j] != g[j][i]:
                raise MetricError(f"metric not symmetric at ({i},{j})")
            outside = [v for v in g[i][j].variables if v not in coordinates]
            if outside:
                raise MetricError(
                    f"{', '.join(outside)} outside chart {chart.name!r}, in entry ({i},{j})"
                )

    full = (1 << n) - 1
    minors: Dict[int, Polynomial] = {}
    det = _mask_minor(minors, g, n, full, full)
    if det.is_zero():
        raise MetricError("metric is degenerate (zero determinant)")
    if not det.is_constant():
        raise NonPolynomialInverse(f"det g = {det} is not a nonzero constant, "
                                   "so g has no polynomial inverse")

    det_value = det.constant_value()
    root = _fraction_sqrt(abs(det_value))
    if root is None:
        raise VolumeNotPolynomial(
            f"|det g| = {format_rational(abs(det_value))} is not the square of a rational"
        )

    inferred = _infer_signature(g)
    if signature is not None and tuple(signature) != inferred:
        raise MetricError(
            f"declared signature {tuple(signature)} is not {inferred}, the signature of g"
        )
    # det g_K is a constant, as it divides the constant det g
    g_inv = [[Polynomial.zero()] * n for _ in range(n)]
    for k in _components(g):
        det_k = _mask_minor(minors, g, n, k, k).constant_value()
        members = [i for i in range(n) if k >> i & 1]
        for c in members:
            for (r,), sign, minor in _jacobi_numerators(minors, g, k, (c,), members):
                g_inv[r][c] = minor * (sign / det_k)
    return ChartMetric(chart, g, _as_matrix(g_inv), inferred, root, minors)


def _infer_signature(g: Matrix) -> Tuple[int, int]:
    """The signature of g at the origin, where each entry is its constant
    term, by exact symmetric Gaussian reduction."""
    n = len(g)
    a = [[Fraction(e.terms.get(0, 0), e.den) for e in row] for row in g]
    plus = minus = 0
    idx = list(range(n))
    for _ in range(n):
        pivot = next((i for i in idx if a[i][i] != 0), None)
        if pivot is None:
            # null basis pair: a symmetric matrix with zero diagonal but some
            # off-diagonal entry contributes one plus and one minus
            i, j = next((i, j) for i in idx for j in idx if i != j and a[i][j] != 0)
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            pivot = i
        d = a[pivot][pivot]
        if d > 0:
            plus += 1
        else:
            minus += 1
        for i in idx:
            if i == pivot or a[i][pivot] == 0:
                continue
            factor = a[i][pivot] / d
            for k in range(n):
                a[i][k] -= factor * a[pivot][k]
            for k in range(n):
                a[k][i] -= factor * a[k][pivot]
        idx.remove(pivot)
    return plus, minus


# ---------------------------------------------------------------------------
# inner products of forms, Hodge star, volume
# ---------------------------------------------------------------------------

def _pairs_below(mask: int, others: int) -> int:
    """The number of pairs x < y with x in ``others`` and y in ``mask``."""
    count = 0
    while mask and others:
        bit = mask & -mask
        mask ^= bit
        count += (others & (bit - 1)).bit_count()
    return count


def _mask_minor(
    table: Dict[int, Polynomial], mat: Matrix, n: int, rmask: int, cmask: int
) -> Polynomial:
    """det mat[rmask, cmask], read from or added to ``table``.

    A minor and its transpose share one key, which is exact when ``mat`` is
    symmetric or, as in ``poly_det``, no two minors in the table are
    transposes of each other.
    """
    key = (rmask << n) | cmask if rmask <= cmask else (cmask << n) | rmask
    hit = table.get(key)
    if hit is not None:
        return hit
    if not rmask:
        table[key] = value = Polynomial.constant(1)
        return value
    low = rmask & -rmask
    row = mat[low.bit_length() - 1]
    rest = rmask ^ low
    products = []
    sign = 1
    cols = cmask
    while cols:
        bit = cols & -cols
        cols ^= bit
        entry = row[bit.bit_length() - 1]
        if not entry.is_zero():
            sub = _mask_minor(table, mat, n, rest, cmask ^ bit)
            if not sub.is_zero():
                products.append((sign, entry, sub))
        sign = -sign
    total = sum_of_products(products)
    table[key] = value = Polynomial.zero() if total.is_zero() else total
    return value


def _raised(m: ChartMetric, a: DifferentialForm) -> Dict[Tuple[int, ...], Polynomial]:
    """{R: sum_C a_C det g_inv[R, C]} over the R where it is nonzero, once per form and metric."""
    hit = m._raised.get(a)
    return hit if hit is not None else m._raised.setdefault(a, _block_raise(m, a))


def _block_raise(m: ChartMetric, a: DifferentialForm) -> Dict[Tuple[int, ...], Polynomial]:
    """The full raise of ``a``, one g_inv block K at a time: C = S u C_K goes
    to R = S u R_K with weight det g_inv[R_K, C_K] times the signs that move
    C_K and R_K past S, and a C without an index in K passes unchanged.  Each
    row sums ``_jacobi_numerators`` over the rows C_K reaches, signed by det
    g_K, taken only for a block some component meets, and is divided once by
    |det g_K| when that is not 1.  A sum that cancels is not kept, so every
    coefficient the next block meets is nonzero."""
    current = a.components
    for k in m.blocks:
        out: Dict[Tuple[int, ...], Polynomial] = {}
        products: Dict[Tuple[int, ...], list] = {}
        det_k = None
        for cols, coeff in current.items():
            ck = tuple(c for c in cols if k >> c & 1)
            if not ck:
                out[cols] = coeff
                continue
            if det_k is None:
                det_k = _mask_minor(m._g_minors, m.g, m.dim, k, k).constant_value()
            rest = tuple(c for c in cols if not k >> c & 1)
            _, sign = _sort_with_sign(rest + ck)
            sign *= -1 if det_k < 0 else 1
            reach = frozenset().union(*(m.inv_neighbors[c] for c in ck))  # inside k, as ck is
            for rk, jsign, minor in _jacobi_numerators(m._g_minors, m.g, k, ck, reach):
                rows, rsign = _sort_with_sign(rest + rk)
                products.setdefault(rows, []).append((rsign * sign * jsign, coeff, minor))
        for rows, terms in products.items():
            total = sum_of_products(terms)
            if not total.is_zero():
                out[rows] = total if abs(det_k) == 1 else total * (1 / abs(det_k))
        current = out
    return current


def _jacobi_numerators(
    table: Dict[int, Polynomial], g: Matrix, k: int, ck: Tuple[int, ...], reach: Iterable[int]
) -> list:
    """[(R_K, sign, det g[K - C_K, K - R_K])] over the R_K in ``reach`` with
    as many rows as C_K has columns and a nonzero minor, read from or added to
    ``table``: by Jacobi's identity, det g_inv[R_K, C_K] is sign * minor /
    det g_K on the block k, with sign (-1)^(ranks of R_K and C_K in k)."""
    cmask = sum(1 << c for c in ck)
    base = (-1) ** _pairs_below(cmask, k)
    numerators = []
    for rk in combinations(sorted(reach), len(ck)):
        rmask = sum(1 << r for r in rk)
        minor = _mask_minor(table, g, len(g), k ^ cmask, k ^ rmask)
        if not minor.is_zero():
            numerators.append((rk, base * (-1) ** _pairs_below(rmask, k), minor))
    return numerators


def inner_product_forms(m: ChartMetric, a: DifferentialForm, b: DifferentialForm) -> Polynomial:
    """<a, b> = sum_R b_R (sum_C a_C det g_inv[R, C])."""
    if a.chart != m.chart or b.chart != m.chart:
        raise ChartError("chart mismatch")
    if a.degree != b.degree:
        raise DegreeError(f"degree mismatch: {a.degree} vs {b.degree}")
    raised = _raised(m, a)
    return sum_of_products((1, pb, raised[r]) for r, pb in b.components.items() if r in raised)


def contraction_matrix(m: ChartMetric, a: DifferentialForm) -> Matrix:
    """The symmetric matrix C_jk = <i_j a, i_k a> over the coordinate fields d_j, d_k.

    C = M g with M_jl = sum_A a_(jA) a^(lA) over increasing (p-1)-sets A, a^
    the full raise of a, each component signed by sorting its indices; only
    the upper triangle is formed.  A 0-form has no contractions: C = 0.
    """
    if a.chart != m.chart:
        raise ChartError("chart mismatch")
    n = m.dim
    products: Dict[int, Dict[int, list]] = {j: {} for j in range(n)}
    if a.degree > 0:
        up: Dict[Tuple[int, ...], list] = {}
        for idx, value in _raised(m, a).items():
            for pos, l in enumerate(idx):
                up.setdefault(idx[:pos] + idx[pos + 1:], []).append((l, pos, value))
        for idx, coeff in a.components.items():
            for pos, j in enumerate(idx):
                for l, lpos, value in up.get(idx[:pos] + idx[pos + 1:], ()):
                    products[j].setdefault(l, []).append(((-1) ** (pos + lpos), coeff, value))
    m_rows = [[(l, sum_of_products(terms)) for l, terms in products[j].items()] for j in range(n)]
    return symmetric_matrix(n, lambda j, k: sum_of_products(
        (1, v, m.g[l][k]) for l, v in m_rows[j] if not m.g[l][k].is_zero()))


def norm_sq(m: ChartMetric, a: DifferentialForm) -> Polynomial:
    return inner_product_forms(m, a, a)


def volume_form(m: ChartMetric) -> DifferentialForm:
    return DifferentialForm(
        m.chart, m.dim, {tuple(range(m.dim)): Polynomial.constant(m.sqrt_abs_det)}
    )


def hodge_star(m: ChartMetric, a: DifferentialForm) -> DifferentialForm:
    """The unique form with b ^ star(a) = <b, a> vol for all b."""
    if a.chart != m.chart:
        raise ChartError("chart mismatch")
    n = m.dim
    p = a.degree
    out: Dict[Tuple[int, ...], Polynomial] = {}
    for rows, coeff in _raised(m, a).items():
        complement = tuple(i for i in range(n) if i not in rows)
        _, sign = _sort_with_sign(rows + complement)
        out[complement] = coeff * (sign * m.sqrt_abs_det)
    return DifferentialForm(m.chart, n - p, out)
