"""Pseudo-Riemannian metrics on charts: musicals, form inner products,
volume forms, Hodge star, null tests.

Sign conventions are fixed once and used everywhere:

  * Riemannian factors are negative definite (signature (0, s)); a unit
    vector X has g(X, X) = -1.  Lorentzian factors have signature
    (1, n-1), "mostly minus".
  * The inner product on p-forms is the Gram-minor pairing
    <a, b> = sum_{I,J} a_I b_J det(g_inv[I, J]) over increasing tuples,
    i.e. the 1/p! contraction of components with p inverse metrics.
  * The star is defined by  a ^ star(b) = <a, b> vol  against the chart
    orientation, with vol = sqrt|det g| dx^1^...^dx^n.
  * The contraction matrix of a p-form a is C_jk = <i_j a, i_k a>, the
    pairing of its contractions with the coordinate fields d_j, d_k; it
    is the stress-energy term of the Einstein equation and of every
    Einstein block law, and ``contraction_matrix`` is its one
    implementation.

Every pairing, star and raised index above is a sum of Gram minors
det g_inv[R, C].  There is one determinant routine, ``_mask_minor``: a
table keyed by one int built from the row and column bitmasks, where a
miss is a Laplace expansion along the lowest row over minors from the same
table.  Each ``ChartMetric`` keeps one table of the minors of its
symmetric g_inv (a minor and its transpose share an entry), living as long
as the metric; ``_gram_minor`` is the only code that reads or fills it.
``poly_det`` is the same expansion over a fresh table, and ``make_metric``
takes det g from it and, with no inverse supplied, the cofactors from one
table over the symmetric g.

One kernel raises indices: ``_raise`` maps each row set R to
sum_C a_C det g_inv[R, C].  ``hodge_star`` places it on the complements of
R, ``inner_product_forms`` pairs it with the other form, and ``sharp`` is
its 1-form case, so each minor is computed once per metric and process,
whichever of them (or ``contraction_matrix``) asks.  A factor metric and
the 11-dimensional product metric have separate tables: the block-law
audits, which work on the factors, never read an entry of the direct
computation and stay independent checks.

On a negative-definite factor this star differs from the
Euclidean-signature star by (-1)^p on p-forms, which shows up as
recorded sign deviations next to values quoted from positive-definite
computations (see CONVENTION_NOTES).

Metric inverses must be polynomial; the coefficient ring stays a ring
and every residual stays exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, Sequence, Tuple

from .exterior import (
    Chart,
    ChartError,
    DegreeError,
    DifferentialForm,
    VectorField,
    _sort_with_sign,
    interior_product,
)
from .polyring import NotAPerfectSquare, Polynomial, poly_sqrt, sum_of_products

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


class InverseMismatch(MetricError):
    pass


class VolumeNotPolynomial(MetricError):
    pass


Matrix = Tuple[Tuple[Polynomial, ...], ...]


def _as_matrix(rows: Sequence[Sequence[Polynomial]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum_of_products((1, a[i][k], b[k][j]) for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _is_identity(m: Matrix) -> bool:
    n = len(m)
    one = Polynomial.constant(1)
    for i in range(n):
        for j in range(n):
            want = one if i == j else Polynomial.zero()
            if m[i][j] != want:
                return False
    return True


def poly_det(m: Matrix) -> Polynomial:
    """Exact determinant of a square matrix, from a table of its minors.

    The expansion from the full minor removes the lowest row at each step,
    so every visited minor has a suffix {k..n-1} as its row set.  Two
    visited minors that are transposes of each other would need equal
    suffix row sets and hence be the same minor, so the key that
    ``_mask_minor`` shares between a minor and its transpose stays exact
    for a non-symmetric matrix.
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
        det_sign: int,
        sqrt_abs_det: Polynomial,
    ):
        self.chart = chart
        self.g = g
        self.g_inv = g_inv
        self.signature = signature
        self.det_sign = det_sign
        self.sqrt_abs_det = sqrt_abs_det
        self._curvature = None  # lazily filled by the curvature module
        self._minors: Dict[int, Polynomial] = {}  # read and filled by _gram_minor only
        n = chart.dim
        # for each index, the indices it pairs with under g_inv (sparsity)
        self.inv_neighbors = tuple(
            frozenset(i for i in range(n) if not g_inv[i][j].is_zero()) for j in range(n)
        )

    @property
    def dim(self) -> int:
        return self.chart.dim


def make_metric(
    chart: Chart,
    g_rows: Sequence[Sequence[Polynomial]],
    g_inv_rows: Sequence[Sequence[Polynomial]] | None = None,
    signature: Tuple[int, int] | None = None,
    sqrt_abs_det: Polynomial | None = None,
) -> ChartMetric:
    """Build and validate a chart metric.

    When no inverse is supplied it is computed by adjugate/determinant,
    which is accepted only for a nonzero constant determinant.
    """
    n = chart.dim
    g = _as_matrix(g_rows)
    if len(g) != n or any(len(row) != n for row in g):
        raise MetricError(f"metric must be {n}x{n} on chart {chart.name!r}")
    for i in range(n):
        for j in range(i):
            if g[i][j] != g[j][i]:
                raise MetricError(f"metric not symmetric at ({i},{j})")

    det = poly_det(g)
    if det.is_zero():
        raise MetricError("metric is degenerate (zero determinant)")

    if g_inv_rows is None:
        if not det.is_constant():
            raise NonPolynomialInverse(
                "no inverse supplied and det is non-constant; supply a polynomial inverse"
            )
        # inv[i][j] = C_ji / det, the cofactors from one table over the symmetric g
        scale = Fraction(1) / det.constant_value()
        full = (1 << n) - 1
        cofactors: Dict[int, Polynomial] = {}
        inv = [
            [_mask_minor(cofactors, g, n, full ^ (1 << j), full ^ (1 << i)) * ((-1) ** (i + j) * scale)
             for j in range(n)]
            for i in range(n)
        ]
        g_inv = _as_matrix(inv)
    else:
        g_inv = _as_matrix(g_inv_rows)
        if len(g_inv) != n or any(len(row) != n for row in g_inv):
            raise MetricError("inverse has wrong shape")

    if not _is_identity(_mat_mul(g, g_inv)):
        raise InverseMismatch("g * g_inv is not the identity")

    if sqrt_abs_det is not None:
        sq = sqrt_abs_det * sqrt_abs_det
        if sq == det:
            det_sign = 1
        elif sq == -det:
            det_sign = -1
        else:
            raise VolumeNotPolynomial("supplied sqrt_abs_det does not square to |det g|")
        if sqrt_abs_det.leading()[1] < 0:
            raise VolumeNotPolynomial("sqrt_abs_det must have a positive leading coefficient")
        root = sqrt_abs_det
    else:
        try:
            root = poly_sqrt(det)
            det_sign = 1
        except NotAPerfectSquare:
            try:
                root = poly_sqrt(-det)
                det_sign = -1
            except NotAPerfectSquare:
                raise VolumeNotPolynomial(
                    f"|det g| = |{det}| has no polynomial square root"
                ) from None

    if signature is None:
        signature = _infer_signature(g, chart, det_sign)
    plus, minus = signature
    if plus + minus != n:
        raise MetricError(f"signature {signature} does not match dim {n}")
    if det_sign != (-1) ** minus:
        raise MetricError(
            f"declared signature {signature} is inconsistent with sign(det) = {det_sign}"
        )
    return ChartMetric(chart, g, g_inv, (plus, minus), det_sign, root)


def _infer_signature(g: Matrix, chart: Chart, det_sign: int) -> Tuple[int, int]:
    """Infer signature by exact symmetric Gaussian reduction at the origin."""
    pt = {c: Fraction(0) for c in chart.coordinates}
    n = len(g)
    a = [[g[i][j].evaluate(pt) for j in range(n)] for i in range(n)]
    plus = minus = 0
    idx = list(range(n))
    for _ in range(n):
        pivot = next((i for i in idx if a[i][i] != 0), None)
        if pivot is None:
            # null basis pair: a symmetric matrix with zero diagonal but some
            # off-diagonal entry contributes one plus and one minus
            found = None
            for i in idx:
                for j in idx:
                    if i != j and a[i][j] != 0:
                        found = (i, j)
                        break
                if found:
                    break
            if found is None:
                break
            i, j = found
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
    if (-1) ** minus != det_sign:
        raise MetricError("could not infer a signature consistent with sign(det)")
    return plus, minus


# ---------------------------------------------------------------------------
# musicals
# ---------------------------------------------------------------------------

def sharp(m: ChartMetric, a: DifferentialForm) -> VectorField:
    """Raise a 1-form to a vector field with g_inv."""
    if a.chart != m.chart:
        raise ChartError("chart mismatch")
    if a.degree != 1:
        raise DegreeError("sharp expects a 1-form")
    return VectorField(m.chart, {j: v for (j,), v in _raise(m, a).items()})


# ---------------------------------------------------------------------------
# inner products of forms, Hodge star, volume
# ---------------------------------------------------------------------------

def _gram_minor(m: ChartMetric, rows: Tuple[int, ...], cols: Tuple[int, ...]) -> Polynomial:
    """det g_inv[rows, cols] for increasing index tuples of equal length,
    from the metric's table of minors (see the module docstring)."""
    rmask = sum(1 << r for r in rows)
    cmask = sum(1 << c for c in cols)
    return _mask_minor(m._minors, m.g_inv, m.dim, rmask, cmask)


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


def _raise(
    m: ChartMetric, a: DifferentialForm, rows: Iterable[Tuple[int, ...]] | None = None
) -> Dict[Tuple[int, ...], Polynomial]:
    """{R: sum_C a_C det g_inv[R, C]} over the given row sets, or over every
    row set when ``rows`` is None.

    A pair (R, C) is skipped unless every r in R pairs with some c in C under
    g_inv and every c in C pairs with some r in R: otherwise the minor has a
    zero row or column.
    """
    neighbors = m.inv_neighbors
    products: Dict[Tuple[int, ...], list] = {}
    for cols, pa in a.components.items():
        reach = frozenset().union(*(neighbors[c] for c in cols))
        for r in combinations(sorted(reach), a.degree) if rows is None else rows:
            if reach.issuperset(r) and all(not neighbors[c].isdisjoint(r) for c in cols):
                minor = _gram_minor(m, r, cols)
                if not minor.is_zero():
                    products.setdefault(r, []).append((1, pa, minor))
    return {r: sum_of_products(terms) for r, terms in products.items()}


def inner_product_forms(m: ChartMetric, a: DifferentialForm, b: DifferentialForm) -> Polynomial:
    """<a, b> = sum_R b_R (sum_C a_C det g_inv[R, C])."""
    if a.chart != m.chart or b.chart != m.chart:
        raise ChartError("chart mismatch")
    if a.degree != b.degree:
        raise DegreeError(f"degree mismatch: {a.degree} vs {b.degree}")
    raised = _raise(m, a, b.components)
    return sum_of_products((1, b.components[r], v) for r, v in raised.items())


def contraction_matrix(m: ChartMetric, a: DifferentialForm) -> Matrix:
    """The symmetric matrix <i_j a, i_k a> over the coordinate fields d_j, d_k.

    The n interior products are built once and only the upper triangle is
    paired.  For a 1-form the entries are the degree-0 pairings a_j a_k; a
    0-form has no contractions, so its matrix is zero.
    """
    if a.chart != m.chart:
        raise ChartError("chart mismatch")
    n = m.dim
    rows = [[Polynomial.zero()] * n for _ in range(n)]
    if a.degree > 0:
        fields = [VectorField.coordinate(m.chart, c) for c in m.chart.coordinates]
        cuts = [interior_product(v, a) for v in fields]
        for j in range(n):
            for k in range(j, n):
                rows[j][k] = rows[k][j] = inner_product_forms(m, cuts[j], cuts[k])
    return _as_matrix(rows)


def norm_sq(m: ChartMetric, a: DifferentialForm) -> Polynomial:
    return inner_product_forms(m, a, a)


def is_null(m: ChartMetric, a: DifferentialForm) -> bool:
    return norm_sq(m, a).is_zero()


def volume_form(m: ChartMetric) -> DifferentialForm:
    return DifferentialForm(
        m.chart, m.dim, {tuple(range(m.dim)): m.sqrt_abs_det}
    )


def hodge_star(m: ChartMetric, a: DifferentialForm) -> DifferentialForm:
    """The unique form with b ^ star(a) = <b, a> vol for all b."""
    if a.chart != m.chart:
        raise ChartError("chart mismatch")
    n = m.dim
    p = a.degree
    if p > n:
        # only identically-zero forms carry degree > dim
        return DifferentialForm.zero(m.chart, 0)
    out: Dict[Tuple[int, ...], Polynomial] = {}
    for rows, coeff in _raise(m, a).items():
        complement = tuple(i for i in range(n) if i not in rows)
        _, sign = _sort_with_sign(rows + complement)
        out[complement] = sum_of_products([(sign, coeff, m.sqrt_abs_det)])
    return DifferentialForm(m.chart, n - p, out)
