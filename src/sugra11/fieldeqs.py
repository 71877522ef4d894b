"""Flux ansatz assembly and the three field-equation residuals.

The flux 4-form on a 5+6 product chart is assembled from factor pieces

    F = at + bt^nu + gt^delta + vt^eps + theta,

with at..vt of degrees 4..1 on the Lorentzian fiber and nu..theta of
degrees 1..4 on the Riemannian base.  The three equations checked, all
as exact polynomial residuals, are

    closedness   dF = 0
    gauge        d star F = 1/2 F ^ F
    einstein     Ric_ab = -1/2 <i_a F, i_b F> + 1/6 h_ab |F|^2

Each direct computation is cross-checked against the block expansions
that the type decomposition of Lambda^4(E + L) provides (the split of
dF, star F, 1/2 F^F, |F|^2, the typed gauge system, and the HH/VV/HV
Einstein blocks).  A block-law mismatch is an engine bug and raises
EngineInconsistency instead of failing the background.

The warp f of a product is a nonzero rational constant (build_product
refuses any other), so every block law below is stated for a constant f
and every audit runs on every background.

The decomposition is one table, ``TYPES``: each of the five flux types is
(fiber piece t, base piece b, fiber degree q), and alpha_t and theta lack
a factor.  The block laws read it with an absent factor taken as the unit
0-form 1 (|1|^2 = 1, star 1 = vol, no contractions), and with nf the
fiber dimension and s_q = (-1)^((4-q)(nf-q)) |f|^(nf-2q):

    |F|^2     = sum_q |t|^2 |b|^2 f^(-2q)
    star F    = sum_q s_q star_t(t) ^ star_b(b)
    d star F  = sum_q s_q (d star_t(t) ^ star_b(b) + (-1)^(nf-q) star_t(t) ^ d star_b(b))
    1/2 F^F   = sum_{q <= q'} c (-1)^((4-q)q') (t ^ t') ^ (b ^ b'),  c = 1/2 if q = q' else 1
    HH brace  = sum_q |t|^2 (|b|^2 g_ij - 3 C_b) f^(-2q)
    VV brace  = sum_q |b|^2 (|t|^2 gt_ij - 3 C_t) f^(-2q)
    HV block  = 1/2 sum_q (-1)^q f^(-2q) <t_q, i_Z t_(q+1)> <i_X b_q, b_(q+1)>

with C the contraction matrix <i_j ., i_k .> on the factor, X a base and
Z a fiber coordinate field.  One Leibniz split takes d of sum s t ^ b by
fiber degree k, d t ^ b at deg t + 1 and t ^ d b at deg t, skipping a
factor whose d is zero; on star F the two terms of type q land in
k = nf+1-q and nf-q.  The 1/2 F^F terms are built once, by k = q+q'; a pair
whose factor wedge exceeds its chart's dimension vanishes and is skipped,
and so is a type with a zero factor.  The HV block takes each contraction
through its adjoint <i_X a, b> = <a, X_flat ^ b>, so no block law calls
interior_product.  The direct 11-dimensional side reads no table; the
audits run beside it, each through one _audit, which names the first
differing entry by its report label.

Closedness is that split of dF,

    dF = sum_q (d t ^ b + (-1)^q t ^ d b),

with d t ^ b at fiber degree q+1 and t ^ d b at q.  A degree that only one
term of the table reaches reports the piece it differentiates (d_alpha_t,
d_beta_t, d_epsilon, d_theta), since t ^ b vanishes exactly when a factor
does; a degree that two terms reach reports their sum (block_3_2,
block_2_3).  Every degree is audited against the projection of dF.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

from .curvature import ricci
from .exterior import (
    ChartError,
    DegreeError,
    DifferentialForm,
    Frozen,
    exterior_derivative as ext_d,
    wedge,
)
from .metric import (
    ChartMetric,
    Matrix,
    contraction_matrix,
    hodge_star,
    inner_product_forms,
    norm_sq,
    symmetric_matrix,
)
from .polyring import Polynomial
from .product import ProductChart
from .report import CheckResult, EngineInconsistency, residual_entries

# (fiber piece, base piece, fiber degree q); None marks an absent factor
TYPES = (
    ("alpha_t", None, 4),
    ("beta_t", "nu", 3),
    ("gamma_t", "delta", 2),
    ("varpi_t", "epsilon", 1),
    (None, "theta", 0),
)
FIBER_PIECES = tuple(t for t, _, _ in TYPES if t)
BASE_PIECES = tuple(b for _, b, _ in TYPES if b)
PAIRINGS = tuple((t, b) for t, b, _ in TYPES if t and b)
_DEGREES = {**{t: q for t, _, q in TYPES if t}, **{b: 4 - q for _, b, q in TYPES if b}}


class AnsatzError(ValueError):
    pass


class FluxAnsatz(Frozen):
    """Factor-chart pieces of the flux 4-form, by keyword; absent pieces are None."""

    __slots__ = FIBER_PIECES + BASE_PIECES + ("c",)

    def __init__(self, alpha_t=None, beta_t=None, gamma_t=None, varpi_t=None, nu=None,
                 delta=None, epsilon=None, theta=None, c: Fraction = Fraction(1)):
        super().__init__(alpha_t, beta_t, gamma_t, varpi_t, nu, delta, epsilon, theta, c)

    def piece(self, name: str) -> Optional[DifferentialForm]:
        return getattr(self, name)

    def present(self) -> Tuple[str, ...]:
        return tuple(
            name for name in FIBER_PIECES + BASE_PIECES if self.piece(name) is not None
        )


class Background(Frozen):
    """Background(product, flux, ansatz): the assembled (product metric, flux
    4-form) pair with its provenance."""

    # _einstein: the direct Einstein residual, lazily filled by _direct_einstein
    __slots__ = ("product", "flux", "ansatz", "_einstein")

    def __init__(self, product: ProductChart, flux: DifferentialForm, ansatz: FluxAnsatz):
        super().__init__(product, flux, ansatz, None)

    @property
    def metric(self) -> ChartMetric:
        return self.product.assembled


def assemble_flux(pc: ProductChart, ansatz: FluxAnsatz) -> Background:
    """Lift the factor pieces onto the product chart and sum the wedges.

    Each piece must live on its factor's chart, with its type's degree and
    coefficients in that chart's coordinates."""
    present = ansatz.present()
    if not present:
        raise AnsatzError("empty flux ansatz")
    for a, b in PAIRINGS:
        if (ansatz.piece(a) is None) != (ansatz.piece(b) is None):
            raise AnsatzError(f"pieces {a!r} and {b!r} must be supplied together")
    for name in present:
        form = ansatz.piece(name)
        want_chart = pc.fiber_chart if name in FIBER_PIECES else pc.base_chart
        if form.chart != want_chart:
            raise ChartError(
                f"{name} must live on chart {want_chart.name!r}, got {form.chart.name!r}"
            )
        if form.degree != _DEGREES[name]:
            raise DegreeError(f"{name} must have degree {_DEGREES[name]}, got {form.degree}")
        outside = sorted({v for p in form.components.values() for v in p.variables}
                         - set(want_chart.coordinates))
        if outside:
            raise ChartError(f"{', '.join(outside)} outside chart {want_chart.name!r}, "
                             f"in a coefficient of {name}")
    if ansatz.c == 0:
        raise AnsatzError("the coupling constant c must be nonzero")

    total = DifferentialForm.zero(pc.chart, 4)
    for t, b, _ in _typed_pieces(pc, ansatz):
        total = total + _lifted(pc, t, b)
    return Background(pc, total, ansatz)


# ---------------------------------------------------------------------------
# typed helpers
# ---------------------------------------------------------------------------

def type_project(pc: ProductChart, form: DifferentialForm, fiber_degree: int) -> DifferentialForm:
    """The part of a product-chart form with exactly this many fiber indices."""
    first_fiber = pc.base.dim
    comps = {
        idx: poly
        for idx, poly in form.components.items()
        if sum(1 for i in idx if i >= first_fiber) == fiber_degree
    }
    return DifferentialForm(form.chart, form.degree, comps)


def _typed_pieces(pc: ProductChart, a: FluxAnsatz):
    """(t, b, q) for each type that adds to F; an absent factor is the unit 0-form.

    A type with a missing or zero factor adds nothing to F and is skipped."""
    unit = Polynomial.constant(1)
    for t, b, q in TYPES:
        if any(a.piece(name) is None or a.piece(name).is_zero() for name in (t, b) if name):
            continue
        fiber = a.piece(t) if t else DifferentialForm.function(pc.fiber_chart, unit)
        base = a.piece(b) if b else DifferentialForm.function(pc.base_chart, unit)
        yield fiber, base, q


def _lifted(pc: ProductChart, fiber: DifferentialForm, base: DifferentialForm) -> DifferentialForm:
    return wedge(pc.lift(fiber), pc.lift(base))


def _leibniz(pc: ProductChart, pieces) -> Dict[int, list]:
    """d of sum s t ^ b over (t, b, s) by the Leibniz rule, split by fiber degree:
    {k: [(d of a factor, its lifted term)]}, with d t ^ b at k = deg t + 1 and
    (-1)^deg t t ^ d b at k = deg t.  A factor whose d is zero adds no term."""
    split: Dict[int, list] = {}
    for t, b, s in pieces:
        dt, db = ext_d(t), ext_d(b)
        if not dt.is_zero():
            split.setdefault(t.degree + 1, []).append((dt, _lifted(pc, dt, b) * s))
        if not db.is_zero():
            split.setdefault(t.degree, []).append((db, _lifted(pc, t, db) * (s * (-1) ** t.degree)))
    return split


# ---------------------------------------------------------------------------
# |F|^2 two ways
# ---------------------------------------------------------------------------

def flux_norm_sq(bg: Background) -> Tuple[Polynomial, Polynomial]:
    """(direct <F,F>_h, block formula); the two are asserted equal."""
    direct = norm_sq(bg.metric, bg.flux)
    f = bg.product.warping
    gt, g = bg.product.fiber, bg.product.base
    block = Polynomial.zero()
    for t, b, q in _typed_pieces(bg.product, bg.ansatz):
        block = block + norm_sq(gt, t) * norm_sq(g, b) * f ** (-2 * q)
    _audit("norm block law failed", direct, block)
    return direct, block


# ---------------------------------------------------------------------------
# closedness
# ---------------------------------------------------------------------------

def check_closedness(bg: Background) -> CheckResult:
    """dF and its split by fiber degree k, each degree audited against dF."""
    pc = bg.product
    direct = ext_d(bg.flux)
    result = CheckResult("closedness")
    result.residuals["dF"] = direct
    split = _leibniz(pc, ((t, b, 1) for t, b, _ in _typed_pieces(pc, bg.ansatz)))
    for k in range(5, -1, -1):
        terms = split.get(k, [])
        block = sum((term for _, term in terms), DifferentialForm.zero(pc.chart, 5))
        _audit(f"closedness block type_{k}_{5 - k} does not match the projection",
               type_project(pc, direct, k), block)
        if not terms:
            continue
        reach = [t for t, _, q in TYPES if t and q + 1 == k] + [b for _, b, q in TYPES if b and q == k]
        if len(reach) == 1:  # t ^ b vanishes exactly when a factor does
            result.residuals[f"d_{reach[0]}"] = terms[0][0]
        else:
            result.residuals[f"block_{k}_{5 - k}"] = block
    return result


# ---------------------------------------------------------------------------
# gauge (Maxwell) equation
# ---------------------------------------------------------------------------

def _starred_pieces(pc: ProductChart, a: FluxAnsatz):
    """(star_t t, star_b b, s_q) for each type, s_q = (-1)^((4-q)(nf-q)) |f|^(nf-2q):
    star_h(t ^ b) = s_q star_t(t) ^ star_b(b)."""
    for t, b, q in _typed_pieces(pc, a):
        s = (-1) ** ((4 - q) * (pc.fiber.dim - q)) * pc.star_weight(q)
        yield hodge_star(pc.fiber, t), hodge_star(pc.base, b), s


def star_flux_block(bg: Background) -> DifferentialForm:
    """star F from the factor-star block formula."""
    pc = bg.product
    total = DifferentialForm.zero(pc.chart, 7)
    for st, sb, s in _starred_pieces(pc, bg.ansatz):
        total = total + _lifted(pc, st, sb) * s
    return total


def half_flux_wedge_flux_block(bg: Background) -> Dict[int, DifferentialForm]:
    """{k: the part of 1/2 F^F with k fiber indices}, one term per type pair q <= q'."""
    pc = bg.product
    pieces = list(_typed_pieces(pc, bg.ansatz))[::-1]
    terms: Dict[int, DifferentialForm] = {}
    for n, (t, b, q) in enumerate(pieces):
        for t2, b2, q2 in pieces[n:]:
            # a pair whose factor wedge exceeds the factor's dimension vanishes
            if q + q2 <= pc.fiber.dim and 8 - q - q2 <= pc.base.dim:
                scale = (-1) ** ((4 - q) * q2) * (Fraction(1, 2) if q == q2 else 1)
                term = _lifted(pc, wedge(t, t2), wedge(b, b2)) * scale
                terms[q + q2] = terms[q + q2] + term if q + q2 in terms else term
    return terms


def typed_gauge_system(bg: Background) -> Dict[int, DifferentialForm]:
    """d star F by fiber degree k, the Leibniz split of the star F block formula."""
    pc = bg.product
    zero = DifferentialForm.zero(pc.chart, 8)
    split = _leibniz(pc, _starred_pieces(pc, bg.ansatz))
    return {k: sum((term for _, term in terms), zero) for k, terms in split.items()}


def check_maxwell(bg: Background) -> CheckResult:
    """Residual d star F - 1/2 F^F, with all block-law cross-checks."""
    pc = bg.product
    h = bg.metric
    star_f_direct = hodge_star(h, bg.flux)
    half_ff_direct = wedge(bg.flux, bg.flux) * Fraction(1, 2)
    residual = ext_d(star_f_direct) - half_ff_direct

    result = CheckResult("maxwell")
    result.residuals["d_star_F_minus_half_FF"] = residual

    _audit("star F block law failed", star_f_direct, star_flux_block(bg))
    zero = DifferentialForm.zero(pc.chart, 8)
    half = half_flux_wedge_flux_block(bg)
    _audit("1/2 F^F block law failed", half_ff_direct, sum(half.values(), zero))
    d_star = typed_gauge_system(bg)
    # every fiber degree, so the audited projections sum to the whole residual
    for k in range(9):
        _audit(f"typed gauge block type_{k}_{8 - k} does not match the projection",
               type_project(pc, residual, k), d_star.get(k, zero) - half.get(k, zero))
    return result


def _audit(law: str, direct, block) -> None:
    """Raise EngineInconsistency naming the first entry, by its report label,
    where block differs from direct, and showing both values."""
    if block == direct:
        return
    direct_entries, block_entries = dict(residual_entries("", direct)), dict(residual_entries("", block))
    zero = Polynomial.zero()
    for label in {**direct_entries, **block_entries}:
        d, b = direct_entries.get(label, zero), block_entries.get(label, zero)
        if d != b:
            where = f" at {label}" if label else ""  # a polynomial's one entry has no label
            raise EngineInconsistency(f"{law}{where}: direct {d}, block {b}")
    raise EngineInconsistency(f"{law}: direct {direct!r}, block {block!r}")


# ---------------------------------------------------------------------------
# Einstein equation
# ---------------------------------------------------------------------------

def check_einstein(bg: Background) -> CheckResult:
    """Full symmetric residual matrix of the stress-energy identity."""
    result = CheckResult("einstein")
    result.residuals["einstein_residual"] = _direct_einstein(bg)
    return result


def _direct_einstein(bg: Background) -> Matrix:
    """einstein_residual_matrix(bg), built once per background and kept on it;
    the norm audit runs once beside it."""
    cached = bg._einstein
    if cached is None:
        flux_norm_sq(bg)
        cached = einstein_residual_matrix(bg)
        object.__setattr__(bg, "_einstein", cached)
    return cached


def einstein_residual_matrix(bg: Background) -> Matrix:
    """Ric_ab + 1/2 <i_a F, i_b F> - 1/6 h_ab |F|^2 on the 11-dimensional chart."""
    h = bg.metric
    ric = ricci(h)
    sixth_norm = norm_sq(h, bg.flux) * Fraction(1, 6)
    pairs = contraction_matrix(h, bg.flux)
    return symmetric_matrix(
        h.dim, lambda i, j: ric[i][j] + pairs[i][j] * Fraction(1, 2) - h.g[i][j] * sixth_norm
    )


def _flats(m: ChartMetric):
    """The 1-forms g(d_i, .) of the coordinate fields: the rows of g."""
    return [DifferentialForm(m.chart, 1, {(k,): m.g[i][k] for k in range(m.dim)}) for i in range(m.dim)]


def _factor_ricci_identities(pc: ProductChart, a: FluxAnsatz) -> Tuple[Matrix, Matrix]:
    """(Ric_g - 1/6 HH brace, Ric_gt - f^2/6 VV brace): the HH and VV blocks of
    the Einstein residual, read over TYPES (see the module docstring).

    At f = 1 they are the factor Ricci identities

        Ric_g  = 1/6 sum_t |t|^2 (|b|^2 g  - 3 C_b)
        Ric_gt = 1/6 sum_t |b|^2 (|t|^2 gt - 3 C_t)
    """
    f = pc.warping
    g, gt = pc.base, pc.fiber
    nb, nf = g.dim, gt.dim

    # the HH and VV braces, one type at a time
    hh_brace = [[Polynomial.zero()] * nb for _ in range(nb)]
    vv_brace = [[Polynomial.zero()] * nf for _ in range(nf)]
    for t, b, q in _typed_pieces(pc, a):
        t_sq, b_sq, w = norm_sq(gt, t), norm_sq(g, b), f ** (-2 * q)
        for brace, outer, inner, m, c in (
            (hh_brace, t_sq, b_sq, g, contraction_matrix(g, b)),
            (vv_brace, b_sq, t_sq, gt, contraction_matrix(gt, t)),
        ):
            for i in range(m.dim):
                for j in range(i, m.dim):  # the upper triangle: every term is symmetric
                    brace[i][j] = brace[i][j] + outer * (inner * m.g[i][j] - 3 * c[i][j]) * w

    # the warp terms (Hess f, Lap f, |grad f|^2) vanish for a constant f
    ric_g, ric_gt = ricci(g), ricci(gt)
    hh_matrix = symmetric_matrix(nb, lambda i, j: ric_g[i][j] - hh_brace[i][j] * Fraction(1, 6))
    vv_matrix = symmetric_matrix(
        nf, lambda i, j: ric_gt[i][j] - vv_brace[i][j] * Fraction(1, 6) * f ** 2
    )
    return hh_matrix, vv_matrix


def split_einstein(bg: Background) -> CheckResult:
    """HH/VV/HV block formulas, each asserted equal to the direct block."""
    pc = bg.product
    f = pc.warping
    result = CheckResult("einstein_blocks")
    a = bg.ansatz
    g, gt = pc.base, pc.fiber
    nb, nf = g.dim, gt.dim
    direct = _direct_einstein(bg)

    hh_matrix, vv_matrix = _factor_ricci_identities(pc, a)

    # HV block: 1/2 <i_X F, i_Zt F> pairs type q with type q+1, each contraction
    # taken through its adjoint <i_X a, b> = <a, X_flat ^ b>
    by_q = {q: (t, b) for t, b, q in _typed_pieces(pc, a)}
    base_flats, fiber_flats = _flats(g), _flats(gt)
    hv = [[Polynomial.zero()] * nf for _ in range(nb)]
    for q, (t, b) in by_q.items():
        if q + 1 in by_q:
            t_up, b_up = by_q[q + 1]
            w = (-1) ** q * f ** (-2 * q) / 2
            base_pairs = [inner_product_forms(g, b, wedge(x, b_up)) * w for x in base_flats]
            fiber_pairs = [inner_product_forms(gt, t_up, wedge(z, t)) for z in fiber_flats]
            for i, x_pair in enumerate(base_pairs):
                for j, z_pair in enumerate(fiber_pairs):
                    hv[i][j] = hv[i][j] + x_pair * z_pair
    hv_matrix: Matrix = tuple(tuple(row) for row in hv)

    base_rows, fiber_rows = slice(0, nb), slice(nb, None)
    for label, block, rows, cols in (("HH", hh_matrix, base_rows, base_rows),
                                     ("VV", vv_matrix, fiber_rows, fiber_rows),
                                     ("HV", hv_matrix, base_rows, fiber_rows)):
        _audit(f"{label} block law failed", tuple(row[cols] for row in direct[rows]), block)

    result.residuals["hh_block"] = hh_matrix
    result.residuals["vv_block"] = vv_matrix
    result.residuals["hv_block"] = hv_matrix
    result.notes.append(
        "mixed-type pairings carry their 1/p! normalizations; the flat-listed "
        "HV identity holds after restoring factors 3 on the middle terms"
    )
    return result
