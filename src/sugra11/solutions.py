"""Builders and checkers for the explicit background families.

The families all share one skeleton: an 11-dimensional direct product of
a Ricci-flat 5-dimensional base with a 6-dimensional Walker fiber

    gt = 2 dv du + rho + H (du)^2     (A = 0, dH/dv = 0)

whose transverse block rho lives on a 4-dimensional chart, and a flux
whose fiber pieces are du-aligned and null, t = du ^ n_t with n_t a form
on the transverse chart (du alone for varpi_t), paired with base pieces
b_t.  On such a background the field equations reduce to one law,

    Lap_rho H = sum_t |n_t|^2_rho |b_t|^2_g      (an absent factor is 1),

with rho and the base Ricci-flat, plus the condition system of the case
whose pieces the flux has (``cases.check_special_case``).  The four
builders are thin wrappers over ``_build_family``, which assembles the
background and reports exactly these residuals; the generic equation
checkers then provide the end-to-end verdict.

Theorem checkers evaluate hypothesis residuals for the five structural
statements (one per flux shape) and re-run the full field equations when
the hypotheses hold, reporting whether the implication is reproduced on
that instance.  The shape is read off the flux, as its special case is
(alpha 1, beta_nu 2, varpi_epsilon 4, theta 5, alpha_beta_nu 6); a flux of
another case, or of none, has no theorem.  A shape's hypotheses are the
condition system of its case (the closure and co-closure conditions and
case 6's coupled chain), the nullity of its fiber pieces, and the HH and
VV blocks of the Einstein split at f = +-1, read over TYPES with an absent
factor taken as the unit 0-form:

    Ric_g  = 1/6 sum_t |t|^2 (|b|^2 g  - 3 C_b)
    Ric_gt = 1/6 sum_t |b|^2 (|t|^2 gt - 3 C_t)

For null fiber pieces these say the base is Ricci-flat and
Ric_gt = -1/2 sum_t |b|^2 C_t, of which the paper's normalized statements
(|nu|^2 = -1, |epsilon|^2 = -2) are instances.  alpha_beta_nu adds a
nonzero coupling and the orthogonality of alpha_t and beta_t, theta a
constant |theta|^2.
"""

from __future__ import annotations

from typing import Dict, Optional

from .cases import CaseShapeError, case_of, check_special_case
from .curvature import laplace_beltrami, ricci
from .exterior import (
    Chart,
    ChartError,
    DifferentialForm,
    Frozen,
    exterior_derivative as ext_d,
    interior_product,
    lift_to_product,
    wedge,
)
from .fieldeqs import (
    FIBER_PIECES,
    TYPES,
    Background,
    FluxAnsatz,
    assemble_flux,
    check_closedness,
    check_einstein,
    check_maxwell,
    _factor_ricci_identities,
)
from .metric import (
    ChartMetric,
    hodge_star,
    inner_product_forms,
    make_metric,
    norm_sq,
)
from .polyring import Polynomial
from .product import build_product
from .report import CheckResult

P0 = Polynomial.zero()
P1 = Polynomial.constant(1)


# ---------------------------------------------------------------------------
# metric builders
# ---------------------------------------------------------------------------

def flat_negative_metric(chart: Chart) -> ChartMetric:
    n = chart.dim
    g = [[-P1 if i == j else P0 for j in range(n)] for i in range(n)]
    return make_metric(chart, g, signature=(0, n))


def walker_metric_from_rho(rho: ChartMetric, H: Polynomial) -> ChartMetric:
    """2 dv du + rho + H du^2 on (v, rho coordinates, u); ``make_metric`` derives
    its inverse, -H dv^2 + 2 dv du + rho_inv, and sqrt|det g| = sqrt|det rho|."""
    extra = set(H.variables) - set(rho.chart.coordinates) - {"u"}
    if extra:
        raise ChartError(f"H may depend only on the transverse block and u, got {sorted(extra)}")
    chart = Chart(f"walker_{rho.chart.name}", ("v",) + rho.chart.coordinates + ("u",))
    n = chart.dim
    k = rho.dim
    g = [[P0] * n for _ in range(n)]
    g[0][n - 1] = g[n - 1][0] = P1
    for i in range(k):
        for j in range(k):
            g[1 + i][1 + j] = rho.g[i][j]
    g[n - 1][n - 1] = H
    return make_metric(chart, g)


def append_line_factor(p_metric: ChartMetric) -> ChartMetric:
    """g = p - dt^2 on (p coordinates, t); p negative definite."""
    return build_product(p_metric, flat_negative_metric(Chart("t", ("t",))), 1).assembled


def standard_base(names=("y1", "y2", "y3", "y4", "y5")) -> ChartMetric:
    return flat_negative_metric(Chart("base5", tuple(names)))


class FamilyBuild(Frozen):
    """FamilyBuild(background, conditions, derived): a built background, its
    characterizing conditions and the derived forms by name."""

    __slots__ = ("background", "conditions", "derived")


def _build_family(
    shape: str,
    rho: ChartMetric,
    H: Polynomial,
    base: ChartMetric,
    transverse: Dict[str, Optional[DifferentialForm]],
    base_pieces: Dict[str, DifferentialForm],
) -> FamilyBuild:
    """The background with fiber pieces du ^ n_t (du alone for n_t = None) and
    base pieces b_t on base x (2 dv du + rho + H du^2), with its conditions:

        Lap_rho H = sum_t |n_t|^2_rho |b_t|^2_g     (an absent factor is 1),

    rho and the base Ricci-flat, and the system of the case with these pieces.
    """
    fiber = walker_metric_from_rho(rho, H)
    du = DifferentialForm.coordinate_differential(fiber.chart, "u")
    pieces = {t: du if n is None else wedge(du, lift_to_product(n, fiber.chart))
              for t, n in transverse.items()}
    pieces.update(base_pieces)
    bg = assemble_flux(build_product(base, fiber, 1), FluxAnsatz(**pieces))

    def norm(m: ChartMetric, form: Optional[DifferentialForm]) -> Polynomial:
        return P1 if form is None else norm_sq(m, form)

    cond = CheckResult(f"{shape}_family_conditions")
    cond.residuals["laplacian_condition"] = laplace_beltrami(rho, H) - sum(
        (norm(rho, transverse[t]) * norm(base, base_pieces.get(b))
         for t, b, _ in TYPES if t in transverse), P0)
    cond.residuals["rho_ricci_flat"] = ricci(rho)
    cond.residuals["base_ricci_flat"] = ricci(base)
    case = check_special_case(bg)
    cond.residuals.update(case.residuals)
    cond.notes.extend(case.notes)
    return FamilyBuild(bg, cond, pieces)


# ---------------------------------------------------------------------------
# family builders (one per flux shape)
# ---------------------------------------------------------------------------

def build_alpha_background(
    rho: ChartMetric,
    theta_n: DifferentialForm,
    H: Polynomial,
) -> FamilyBuild:
    """Flux du ^ theta_n with theta_n a 3-form on the transverse block:
    Lap_rho H = |theta_n|^2_rho."""
    if theta_n.chart != rho.chart or theta_n.degree != 3:
        raise ChartError("theta_n must be a 3-form on the transverse chart")
    return _build_family("alpha", rho, H, standard_base(), {"alpha_t": theta_n}, {})


def build_beta_nu_background(
    rho: ChartMetric,
    omega_n: DifferentialForm,
    H: Polynomial,
) -> FamilyBuild:
    """Flux (du ^ omega_n) ^ dt on the product with base p x line:
    Lap_rho H = -|omega_n|^2_rho."""
    if omega_n.chart != rho.chart or omega_n.degree != 2:
        raise ChartError("omega_n must be a 2-form on the transverse chart")
    base = append_line_factor(flat_negative_metric(Chart("p4", ("z1", "z2", "z3", "z4"))))
    nu = DifferentialForm.coordinate_differential(base.chart, "t")
    return _build_family("beta_nu", rho, H, base, {"beta_t": omega_n}, {"nu": nu})


def build_varpi_epsilon_background(
    rho: ChartMetric,
    H: Polynomial,
    p_metric: Optional[ChartMetric] = None,
    kaehler_omega: Optional[DifferentialForm] = None,
) -> FamilyBuild:
    """Flux du ^ (omega_p ^ dt): Lap_rho H = |omega_p ^ dt|^2_g, which is -2
    for the flat Kaehler form."""
    if p_metric is None:
        p_metric = flat_negative_metric(Chart("p4", ("z1", "z2", "z3", "z4")))
    if kaehler_omega is None:
        chart, c = p_metric.chart, p_metric.chart.coordinates
        kaehler_omega = (DifferentialForm.monomial(chart, c[:2], P1)
                         + DifferentialForm.monomial(chart, c[2:4], P1))
    if kaehler_omega.chart != p_metric.chart or kaehler_omega.degree != 2:
        raise ChartError("kaehler_omega must be a 2-form on the p-chart")
    base = append_line_factor(p_metric)
    epsilon = wedge(
        lift_to_product(kaehler_omega, base.chart),
        DifferentialForm.coordinate_differential(base.chart, "t"),
    )
    return _build_family("varpi_epsilon", rho, H, base, {"varpi_t": None}, {"epsilon": epsilon})


def build_alpha_beta_nu_background(
    rho: ChartMetric,
    omega3_n: DifferentialForm,
    H: Polynomial,
    base: Optional[ChartMetric] = None,
    nu: Optional[DifferentialForm] = None,
) -> FamilyBuild:
    """Flux du ^ W + (du ^ w) ^ nu with w := star_rho d star_rho W computed,
    not supplied, and left out when it vanishes:
    Lap_rho H = |W|^2_rho + |nu|^2_g |w|^2_rho."""
    if omega3_n.chart != rho.chart or omega3_n.degree != 3:
        raise ChartError("the 3-form piece must live on the transverse chart")
    base = base if base is not None else standard_base()
    if nu is None:
        nu = DifferentialForm.monomial(
            base.chart, (base.chart.coordinates[0],), Polynomial.variable(base.chart.coordinates[0])
        )
    omega2 = hodge_star(rho, ext_d(hodge_star(rho, omega3_n)))
    if omega2.is_zero():
        build = _build_family("alpha_beta_nu", rho, H, base, {"alpha_t": omega3_n}, {})
    else:
        build = _build_family("alpha_beta_nu", rho, H, base,
                              {"alpha_t": omega3_n, "beta_t": omega2}, {"nu": nu})
    build.derived["omega2"] = omega2
    return build


# ---------------------------------------------------------------------------
# theorem checkers, one per flux shape
# ---------------------------------------------------------------------------

# the theorem shape of each special case whose condition system holds its closure
# and co-closure hypotheses
_THEOREM_CASES = {1: "alpha", 2: "beta_nu", 4: "varpi_epsilon", 5: "theta", 6: "alpha_beta_nu"}


class TheoremReport(Frozen):
    """TheoremReport(hypotheses, equations); equations is None when the
    hypotheses fail."""

    __slots__ = ("hypotheses", "equations")

    @property
    def reproduced(self) -> bool:
        """Hypotheses-zero implies equations-zero on this instance."""
        if not self.hypotheses.passed:
            return True
        return self.equations is not None and all(r.passed for r in self.equations)


# the paper's normalization of the base piece, of which fiber_ricci_identity is the covariant form
_NORMALIZATIONS = {"beta_nu": ("nu", "beta_t", "-1"), "varpi_epsilon": ("epsilon", "varpi_t", "-2")}


def check_theorem_conditions(bg: Background) -> TheoremReport:
    """The hypotheses of the theorem of bg's flux shape: the closure and
    co-closure conditions of its special case, the nullity of its fiber
    pieces and the two factor Ricci identities read over TYPES, plus
    alpha_beta_nu's nonzero coupling and orthogonality and theta's constant
    norm."""
    a = bg.ansatz
    pc = bg.product
    g, gt = pc.base, pc.fiber
    try:
        shape = _THEOREM_CASES[case_of(a)]
    except (CaseShapeError, KeyError):
        raise CaseShapeError(f"no theorem for these pieces: {list(a.present())}") from None
    if abs(pc.warping) != 1:  # h depends on f^2 only
        raise ValueError("the structural statements are for the direct product (f = 1 or -1)")

    conditions = check_special_case(bg)
    hyp = CheckResult(f"theorem_{shape}_hypotheses")
    hyp.residuals.update(conditions.residuals)
    hyp.notes.extend(conditions.notes)
    if shape == "alpha_beta_nu" and "costar_chain" not in conditions.residuals:
        hyp.residuals["coupling_must_be_nonzero"] = P1  # case 6's degenerate branch
    for t in FIBER_PIECES:
        if a.piece(t) is not None:
            hyp.residuals[f"{t[:-2]}_null"] = norm_sq(gt, a.piece(t))
    if shape == "theta":
        hyp.residuals["theta_norm_constant"] = ext_d(
            DifferentialForm.function(g.chart, norm_sq(g, a.theta))
        )
    hyp.residuals["base_ricci_identity"], hyp.residuals["fiber_ricci_identity"] = (
        _factor_ricci_identities(pc, a)
    )
    if shape == "alpha_beta_nu":
        for c in gt.chart.coordinates:
            hyp.residuals[f"alpha_beta_orthogonality.i_{c}"] = inner_product_forms(
                gt, a.beta_t, interior_product(a.alpha_t, c))
    if shape in _NORMALIZATIONS:
        b, t, value = _NORMALIZATIONS[shape]
        hyp.notes.append(
            f"with {t} null, fiber_ricci_identity is Ric_gt = -1/2 |{b}|^2 <i {t}, i {t}>, "
            f"the covariant form of the normalization |{b}|^2 = {value}"
        )

    equations = None
    if hyp.passed:
        equations = [check_closedness(bg), check_maxwell(bg), check_einstein(bg)]
    return TheoremReport(hyp, equations)
