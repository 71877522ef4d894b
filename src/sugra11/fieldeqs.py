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
that the type decomposition of Lambda^4(E + L) provides (star F,
1/2 F^F, |F|^2, the typed gauge system, and the HH/VV/HV Einstein
blocks).  A block-law mismatch is an engine bug and raises
EngineInconsistency instead of failing the background.

The warp f of a product is a nonzero rational constant (build_product
refuses any other), so every block law below is stated for a constant f
and every audit runs on every background.

The decomposition is one table, ``TYPES``: each of the five flux types is
(fiber piece t, base piece b, fiber degree q), and alpha_t and theta lack
a factor.  The block laws read it with an absent factor taken as the unit
0-form 1 (|1|^2 = 1, star 1 = vol, no contractions):

    |F|^2     = sum |t|^2 |b|^2 f^(-2q)
    star F    = sum (-1)^q f^(6-2q) star_t(t) ^ star_b(b)
    HH brace  = sum |t|^2 (|b|^2 g_ij - 3 C_b) f^(-2q)
    VV brace  = sum |b|^2 (|t|^2 gt_ij - 3 C_t) f^(-2q)

with C the contraction matrix <i_j ., i_k .> on the factor.  The direct
11-dimensional side never reads the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .curvature import ricci
from .exterior import (
    ChartError,
    DegreeError,
    DifferentialForm,
    VectorField,
    exterior_derivative as ext_d,
    interior_product,
    wedge,
    wedge_all,
)
from .metric import (
    ChartMetric,
    contraction_matrix,
    hodge_star,
    inner_product_forms,
    norm_sq,
    volume_form,
)
from .polyring import Polynomial
from .product import ProductChart
from .report import CheckResult, EngineInconsistency

Matrix = Tuple[Tuple[Polynomial, ...], ...]

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


@dataclass(frozen=True)
class FluxAnsatz:
    """Factor-chart pieces of the flux 4-form; absent pieces are None."""

    alpha_t: Optional[DifferentialForm] = None
    beta_t: Optional[DifferentialForm] = None
    gamma_t: Optional[DifferentialForm] = None
    varpi_t: Optional[DifferentialForm] = None
    nu: Optional[DifferentialForm] = None
    delta: Optional[DifferentialForm] = None
    epsilon: Optional[DifferentialForm] = None
    theta: Optional[DifferentialForm] = None
    c: Fraction = Fraction(1)

    def piece(self, name: str) -> Optional[DifferentialForm]:
        return getattr(self, name)

    def present(self) -> Tuple[str, ...]:
        return tuple(
            name for name in FIBER_PIECES + BASE_PIECES if self.piece(name) is not None
        )


@dataclass(frozen=True)
class Background:
    """Assembled (product metric, flux 4-form) pair with its provenance."""

    product: ProductChart
    flux: DifferentialForm
    ansatz: FluxAnsatz
    # the direct Einstein residual, lazily filled by _direct_einstein
    _einstein: Optional[Matrix] = field(default=None, init=False, repr=False, compare=False)

    @property
    def metric(self) -> ChartMetric:
        return self.product.assembled


def assemble_flux(pc: ProductChart, ansatz: FluxAnsatz) -> Background:
    """Lift the factor pieces onto the product chart and sum the wedges."""
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
    if ansatz.c == 0:
        raise AnsatzError("the coupling constant c must be nonzero")

    total = DifferentialForm.zero(pc.chart, 4)
    if ansatz.alpha_t is not None:
        total = total + pc.lift(ansatz.alpha_t)
    for fiber_name, base_name in PAIRINGS:
        ft = ansatz.piece(fiber_name)
        if ft is not None:
            total = total + wedge(pc.lift(ft), pc.lift(ansatz.piece(base_name)))
    if ansatz.theta is not None:
        total = total + pc.lift(ansatz.theta)
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
    """(t, b, q) for each type the ansatz carries; an absent factor is the unit 0-form."""
    unit = Polynomial.constant(1)
    for t, b, q in TYPES:
        if any(a.piece(name) is None for name in (t, b) if name):
            continue
        fiber = a.piece(t) if t else DifferentialForm.function(pc.fiber_chart, unit)
        base = a.piece(b) if b else DifferentialForm.function(pc.base_chart, unit)
        yield fiber, base, q


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
    if direct != block:
        raise EngineInconsistency("norm block law failed: " f"{direct} != {block}")
    return direct, block


# ---------------------------------------------------------------------------
# closedness
# ---------------------------------------------------------------------------

def check_closedness(bg: Background) -> CheckResult:
    """dF and the six-equation component system, with their equivalence."""
    a = bg.ansatz
    pc = bg.product
    direct = ext_d(bg.flux)
    result = CheckResult("closedness")
    result.residuals["dF"] = direct

    system: Dict[str, DifferentialForm] = {}
    zero5 = DifferentialForm.zero(pc.chart, 5)

    if a.alpha_t is not None:
        system["d_alpha_t"] = ext_d(a.alpha_t)
    if a.theta is not None:
        system["d_theta"] = ext_d(a.theta)
    if a.beta_t is not None:
        system["d_beta_t"] = ext_d(a.beta_t)
    if a.epsilon is not None:
        system["d_epsilon"] = ext_d(a.epsilon)

    d_gamma_delta = (
        wedge(pc.lift(ext_d(a.gamma_t)), pc.lift(a.delta)) if a.gamma_t is not None else zero5
    )
    beta_dnu = (
        wedge(pc.lift(a.beta_t), pc.lift(ext_d(a.nu))) if a.beta_t is not None else zero5
    )
    system["block_3_2"] = d_gamma_delta - beta_dnu

    gamma_ddelta = (
        wedge(pc.lift(a.gamma_t), pc.lift(ext_d(a.delta))) if a.gamma_t is not None else zero5
    )
    dvarpi_eps = (
        wedge(pc.lift(ext_d(a.varpi_t)), pc.lift(a.epsilon)) if a.varpi_t is not None else zero5
    )
    system["block_2_3"] = gamma_ddelta + dvarpi_eps

    result.residuals.update(system)
    system_zero = all(v.is_zero() for v in system.values())
    if system_zero and not direct.is_zero():
        # the component system always implies dF = 0; the converse can fail
        # only when a nonzero d-piece is paired with a zero partner form
        raise EngineInconsistency("closedness system zero but dF nonzero")
    return result


# ---------------------------------------------------------------------------
# gauge (Maxwell) equation
# ---------------------------------------------------------------------------

def star_flux_block(bg: Background) -> DifferentialForm:
    """star F from the factor-star block formula."""
    pc = bg.product
    f = pc.warping
    gt, g = pc.fiber, pc.base
    total = DifferentialForm.zero(pc.chart, 7)
    for t, b, q in _typed_pieces(pc, bg.ansatz):
        piece = wedge(pc.lift(hodge_star(gt, t)), pc.lift(hodge_star(g, b)))
        total = total + piece * ((-1) ** q * f ** (6 - 2 * q))
    return total


def half_flux_wedge_flux_block(bg: Background) -> DifferentialForm:
    """1/2 F^F from the eight-term cross expansion."""
    pc = bg.product
    a = bg.ansatz

    def L(name):
        form = a.piece(name)
        return None if form is None else pc.lift(form)

    at, bt, gt_, vt = (L(n) for n in FIBER_PIECES)
    nu, de, ep, th = (L(n) for n in BASE_PIECES)
    total = DifferentialForm.zero(pc.chart, 8)

    def add(*forms, scale=1):
        nonlocal total
        if any(f is None for f in forms):
            return
        total = total + wedge_all(*forms) * Fraction(scale)

    add(at, gt_, de)
    add(at, vt, ep)
    add(bt, gt_, de, nu)
    add(at, th)
    add(bt, vt, ep, nu)
    add(gt_, gt_, de, de, scale=Fraction(1, 2))
    add(bt, th, nu)
    add(gt_, vt, ep, de)
    return total


def typed_gauge_system(bg: Background) -> Dict[str, DifferentialForm]:
    """LHS - RHS of the four type components of d star F = 1/2 F^F."""
    pc = bg.product
    f = pc.warping
    a = bg.ansatz
    gt, g = pc.fiber, pc.base

    def L(form):
        return pc.lift(form)

    def star_t(form):
        return hodge_star(gt, form)

    def star_b(form):
        return hodge_star(g, form)

    zero8 = DifferentialForm.zero(pc.chart, 8)
    at, bt, ga, vt = (a.piece(n) for n in FIBER_PIECES)
    nu, de, ep, th = (a.piece(n) for n in BASE_PIECES)

    def cross(*factors, scale=1):
        """Lifted wedge of factor forms; zero when any piece is absent."""
        if any(x is None for x in factors):
            return zero8
        return wedge_all(*(L(x) for x in factors)) * Fraction(scale)

    # type (3 fiber, 5 base)
    t1 = zero8
    if at is not None:
        t1 = t1 + wedge(L(ext_d(star_t(at))), L(volume_form(g))) * f ** (-2)
    if bt is not None:
        t1 = t1 + wedge(L(star_t(bt)), L(ext_d(star_b(nu))))
    t1 = t1 - cross(bt, th, nu) - cross(ga, vt, ep, de)

    # type (4 fiber, 4 base)
    t2 = zero8
    if ga is not None:
        t2 = t2 + wedge(L(star_t(ga)), L(ext_d(star_b(de)))) * f ** 2
    if bt is not None:
        t2 = t2 - wedge(L(ext_d(star_t(bt))), L(star_b(nu)))
    t2 = t2 - cross(at, th) - cross(bt, vt, ep, nu) - cross(ga, ga, de, de, scale=Fraction(1, 2))

    # type (5 fiber, 3 base)
    t3 = zero8
    if ga is not None:
        t3 = t3 + wedge(L(ext_d(star_t(ga))), L(star_b(de))) * f ** 2
    if vt is not None:
        t3 = t3 + wedge(L(star_t(vt)), L(ext_d(star_b(ep)))) * f ** 4
    t3 = t3 - cross(at, vt, ep) - cross(bt, ga, de, nu)

    # type (6 fiber, 2 base)
    t4 = zero8
    if th is not None:
        t4 = t4 + wedge(L(volume_form(gt)), L(ext_d(star_b(th)))) * f ** 6
    if vt is not None:
        t4 = t4 - wedge(L(ext_d(star_t(vt))), L(star_b(ep))) * f ** 4
    t4 = t4 - cross(at, ga, de)

    return {"type_3_5": t1, "type_4_4": t2, "type_5_3": t3, "type_6_2": t4}


def check_maxwell(bg: Background) -> CheckResult:
    """Residual d star F - 1/2 F^F, with all block-law cross-checks."""
    pc = bg.product
    h = bg.metric
    star_f_direct = hodge_star(h, bg.flux)
    half_ff_direct = wedge(bg.flux, bg.flux) * Fraction(1, 2)
    residual = ext_d(star_f_direct) - half_ff_direct

    result = CheckResult("maxwell")
    result.residuals["d_star_F_minus_half_FF"] = residual

    if star_flux_block(bg) != star_f_direct:
        raise EngineInconsistency("star F block law failed")
    if half_flux_wedge_flux_block(bg) != half_ff_direct:
        raise EngineInconsistency("1/2 F^F block law failed")
    typed = typed_gauge_system(bg)
    recombined = DifferentialForm.zero(pc.chart, 8)
    for fiber_deg, key in ((3, "type_3_5"), (4, "type_4_4"), (5, "type_5_3"), (6, "type_6_2")):
        t = typed[key]
        if t != type_project(pc, residual, fiber_deg):
            raise EngineInconsistency(f"typed gauge block {key} does not match the projection")
        recombined = recombined + t
    if recombined != residual:
        raise EngineInconsistency("typed gauge system does not recombine to the residual")
    return result


# ---------------------------------------------------------------------------
# Einstein equation
# ---------------------------------------------------------------------------

def check_einstein(bg: Background) -> CheckResult:
    """Full symmetric residual matrix of the stress-energy identity."""
    result = CheckResult("einstein")
    result.residuals["einstein_residual"] = _direct_einstein(bg)
    return result


def _direct_einstein(bg: Background) -> Matrix:
    """einstein_residual_matrix(bg), built once per background and kept on it."""
    cached = bg._einstein
    if cached is None:
        cached = einstein_residual_matrix(bg)
        object.__setattr__(bg, "_einstein", cached)
    return cached


def einstein_residual_matrix(bg: Background) -> Matrix:
    """Ric_ab + 1/2 <i_a F, i_b F> - 1/6 h_ab |F|^2 on the 11-dimensional chart."""
    h = bg.metric
    n = h.dim
    ric = ricci(h)
    norm, _ = flux_norm_sq(bg)
    sixth_norm = norm * Fraction(1, 6)
    pairs = contraction_matrix(h, bg.flux)
    return tuple(
        tuple(ric[i][j] + pairs[i][j] * Fraction(1, 2) - h.g[i][j] * sixth_norm for j in range(n))
        for i in range(n)
    )


def split_einstein(bg: Background) -> CheckResult:
    """HH/VV/HV block formulas, each asserted equal to the direct block."""
    pc = bg.product
    f = pc.warping
    result = CheckResult("einstein_blocks")
    a = bg.ansatz
    g, gt = pc.base, pc.fiber
    nb, nf = g.dim, gt.dim
    direct = _direct_einstein(bg)

    # the HH and VV braces, one type at a time (see the module docstring)
    hh_brace = [[Polynomial.zero()] * nb for _ in range(nb)]
    vv_brace = [[Polynomial.zero()] * nf for _ in range(nf)]
    for t, b, q in _typed_pieces(pc, a):
        t_sq, b_sq, w = norm_sq(gt, t), norm_sq(g, b), f ** (-2 * q)
        for brace, outer, inner, m, c in (
            (hh_brace, t_sq, b_sq, g, contraction_matrix(g, b)),
            (vv_brace, b_sq, t_sq, gt, contraction_matrix(gt, t)),
        ):
            for i in range(m.dim):
                for j in range(m.dim):
                    brace[i][j] = brace[i][j] + outer * (inner * m.g[i][j] - 3 * c[i][j]) * w

    # the warp terms (Hess f, Lap f, |grad f|^2) vanish for a constant f
    ric_g = ricci(g)
    hh_matrix: Matrix = tuple(
        tuple(ric_g[i][j] - hh_brace[i][j] * Fraction(1, 6) for j in range(nb))
        for i in range(nb)
    )
    ric_gt = ricci(gt)
    vv_matrix: Matrix = tuple(
        tuple(ric_gt[i][j] - vv_brace[i][j] * Fraction(1, 6) * f ** 2 for j in range(nf))
        for i in range(nf)
    )

    # HV block: 1/2 <i_X F, i_Zt F> expanded by type, with the exact
    # 1/p! pairing normalization restored on every term
    base_vectors = [VectorField.coordinate(g.chart, c) for c in g.chart.coordinates]
    fiber_vectors = [VectorField.coordinate(gt.chart, c) for c in gt.chart.coordinates]
    hv = []
    for i in range(nb):
        row = []
        for j in range(nf):
            entry = Polynomial.zero()
            if a.alpha_t is not None and a.beta_t is not None:
                nu_i = a.nu.components.get((i,), Polynomial.zero())
                pair = inner_product_forms(
                    gt, a.beta_t, interior_product(fiber_vectors[j], a.alpha_t)
                )
                entry = entry - nu_i * pair * f ** (-6)
            if a.beta_t is not None and a.gamma_t is not None:
                pair_t = inner_product_forms(
                    gt, a.gamma_t, interior_product(fiber_vectors[j], a.beta_t)
                )
                pair_b = inner_product_forms(
                    g, interior_product(base_vectors[i], a.delta), a.nu
                )
                entry = entry + pair_t * pair_b * f ** (-4)
            if a.gamma_t is not None and a.varpi_t is not None:
                pair_t = inner_product_forms(
                    gt, a.varpi_t, interior_product(fiber_vectors[j], a.gamma_t)
                )
                pair_b = inner_product_forms(
                    g, interior_product(base_vectors[i], a.epsilon), a.delta
                )
                entry = entry - pair_t * pair_b * f ** (-2)
            if a.varpi_t is not None and a.theta is not None:
                vt_j = a.varpi_t.components.get((j,), Polynomial.zero())
                pair_b = inner_product_forms(
                    g, interior_product(base_vectors[i], a.theta), a.epsilon
                )
                entry = entry + vt_j * pair_b
            row.append(entry * Fraction(1, 2))
        hv.append(tuple(row))
    hv_matrix: Matrix = tuple(hv)

    for i in range(nb):
        for j in range(nb):
            if hh_matrix[i][j] != direct[i][j]:
                raise EngineInconsistency(f"HH block law failed at ({i},{j})")
    for i in range(nf):
        for j in range(nf):
            if vv_matrix[i][j] != direct[nb + i][nb + j]:
                raise EngineInconsistency(f"VV block law failed at ({i},{j})")
    for i in range(nb):
        for j in range(nf):
            if hv_matrix[i][j] != direct[i][nb + j]:
                raise EngineInconsistency(f"HV block law failed at ({i},{j})")

    result.residuals["hh_block"] = hh_matrix
    result.residuals["vv_block"] = vv_matrix
    result.residuals["hv_block"] = hv_matrix
    result.notes.append(
        "mixed-type pairings carry their 1/p! normalizations; the flat-listed "
        "HV identity holds after restoring factors 3 on the middle terms"
    )
    return result
