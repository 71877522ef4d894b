"""Builders and checkers for the explicit background families.

The families all share one skeleton: an 11-dimensional direct product of
a Ricci-flat 5-dimensional base with a 6-dimensional Walker fiber

    gt = 2 dv du + rho + H (du)^2     (A = 0, dH/dv = 0)

whose transverse block rho lives on a 4-dimensional chart, and a flux
assembled from du-aligned null pieces and base pieces.  Each builder
returns the assembled background together with the named condition
residuals that characterize it (a Laplacian constraint on H plus the
closure/co-closure data of the pieces); the generic equation checkers
then provide the end-to-end verdict.

Theorem checkers evaluate hypothesis residuals for the five structural
statements (one per flux shape) and re-run the full field equations when
the hypotheses hold, reporting whether the implication is reproduced on
that instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .cases import check_special_case, proportionality_to_volume
from .curvature import laplace_beltrami, ricci
from .exterior import (
    Chart,
    ChartError,
    DifferentialForm,
    VectorField,
    exterior_derivative as ext_d,
    interior_product,
    lie_bracket,
    lift_to_product,
    wedge,
)
from .fieldeqs import (
    Background,
    FluxAnsatz,
    assemble_flux,
    check_closedness,
    check_einstein,
    check_maxwell,
)
from .metric import (
    ChartMetric,
    contraction_matrix,
    hodge_star,
    inner_product_forms,
    make_metric,
    norm_sq,
)
from .polyring import Polynomial
from .product import build_product
from .report import CheckResult

Matrix = Tuple[Tuple[Polynomial, ...], ...]

P0 = Polynomial.zero()
P1 = Polynomial.constant(1)


# ---------------------------------------------------------------------------
# metric builders
# ---------------------------------------------------------------------------

def flat_negative_metric(chart: Chart) -> ChartMetric:
    n = chart.dim
    g = [[-P1 if i == j else P0 for j in range(n)] for i in range(n)]
    return make_metric(chart, g, signature=(0, n))


def walker_metric_from_rho(
    rho: ChartMetric, H: Polynomial, v_name: str = "v", u_name: str = "u"
) -> ChartMetric:
    """2 dv du + rho + H du^2 on (v, rho coordinates, u)."""
    allowed = set(rho.chart.coordinates) | {u_name}
    extra = set(H.variables) - allowed
    if extra:
        raise ChartError(f"H may depend only on the transverse block and u, got {sorted(extra)}")
    chart = Chart(
        f"walker_{rho.chart.name}", (v_name,) + rho.chart.coordinates + (u_name,)
    )
    n = chart.dim
    k = rho.dim
    g = [[P0] * n for _ in range(n)]
    g_inv = [[P0] * n for _ in range(n)]
    g[0][n - 1] = g[n - 1][0] = P1
    g_inv[0][n - 1] = g_inv[n - 1][0] = P1
    g_inv[0][0] = -H
    for i in range(k):
        for j in range(k):
            g[1 + i][1 + j] = rho.g[i][j]
            g_inv[1 + i][1 + j] = rho.g_inv[i][j]
    g[n - 1][n - 1] = H
    return make_metric(
        chart, g, g_inv, signature=(1, n - 1), sqrt_abs_det=rho.sqrt_abs_det
    )


def append_line_factor(p_metric: ChartMetric, t_name: str = "t") -> ChartMetric:
    """g = p - dt^2 on (p coordinates, t); p negative definite."""
    chart = Chart(f"{p_metric.chart.name}x{t_name}", p_metric.chart.coordinates + (t_name,))
    n = chart.dim
    g = [[P0] * n for _ in range(n)]
    g_inv = [[P0] * n for _ in range(n)]
    for i in range(n - 1):
        for j in range(n - 1):
            g[i][j] = p_metric.g[i][j]
            g_inv[i][j] = p_metric.g_inv[i][j]
    g[n - 1][n - 1] = -P1
    g_inv[n - 1][n - 1] = -P1
    plus, minus = p_metric.signature
    return make_metric(
        chart, g, g_inv, signature=(plus, minus + 1), sqrt_abs_det=p_metric.sqrt_abs_det
    )


def standard_base(names=("y1", "y2", "y3", "y4", "y5")) -> ChartMetric:
    return flat_negative_metric(Chart("base5", tuple(names)))


@dataclass
class FamilyBuild:
    background: Background
    conditions: CheckResult
    derived: Dict[str, object]


def _du(fiber: ChartMetric, u_name: str = "u") -> DifferentialForm:
    return DifferentialForm.coordinate_differential(fiber.chart, u_name)


# ---------------------------------------------------------------------------
# family builders (one per flux shape)
# ---------------------------------------------------------------------------

def build_alpha_background(
    rho: ChartMetric,
    theta_n: DifferentialForm,
    H: Polynomial,
    base: Optional[ChartMetric] = None,
) -> FamilyBuild:
    """Flux du ^ theta_n with theta_n a 3-form on the transverse block.

    Characterizing condition: Lap_rho H = |theta_n|^2_rho.
    """
    if theta_n.chart != rho.chart or theta_n.degree != 3:
        raise ChartError("theta_n must be a 3-form on the transverse chart")
    base = base if base is not None else standard_base()
    fiber = walker_metric_from_rho(rho, H)
    alpha_t = wedge(_du(fiber), lift_to_product(theta_n, fiber.chart))
    pc = build_product(base, fiber, 1)
    bg = assemble_flux(pc, FluxAnsatz(alpha_t=alpha_t))

    cond = CheckResult("alpha_family_conditions")
    cond.residuals["laplacian_vs_theta_norm"] = laplace_beltrami(rho, H) - norm_sq(rho, theta_n)
    cond.residuals["rho_ricci_flat"] = ricci(rho)
    cond.residuals["base_ricci_flat"] = ricci(base)
    cond.residuals["d_theta_n"] = ext_d(theta_n)
    cond.residuals["d_star_theta_n"] = ext_d(hodge_star(rho, theta_n))
    return FamilyBuild(bg, cond, {"alpha_t": alpha_t})


def build_beta_nu_background(
    rho: ChartMetric,
    omega_n: DifferentialForm,
    H: Polynomial,
    p_metric: Optional[ChartMetric] = None,
) -> FamilyBuild:
    """Flux (du ^ omega_n) ^ dt on the product with base p x line.

    Characterizing condition: Lap_rho H = -|omega_n|^2_rho.
    """
    if omega_n.chart != rho.chart or omega_n.degree != 2:
        raise ChartError("omega_n must be a 2-form on the transverse chart")
    if p_metric is None:
        p_metric = flat_negative_metric(Chart("p4", ("z1", "z2", "z3", "z4")))
    base = append_line_factor(p_metric)
    fiber = walker_metric_from_rho(rho, H)
    beta_t = wedge(_du(fiber), lift_to_product(omega_n, fiber.chart))
    nu = DifferentialForm.coordinate_differential(base.chart, "t")
    pc = build_product(base, fiber, 1)
    bg = assemble_flux(pc, FluxAnsatz(beta_t=beta_t, nu=nu))

    cond = CheckResult("beta_nu_family_conditions")
    cond.residuals["laplacian_vs_minus_omega_norm"] = laplace_beltrami(rho, H) + norm_sq(
        rho, omega_n
    )
    cond.residuals["nu_unit_length"] = norm_sq(base, nu) + P1
    cond.residuals["rho_ricci_flat"] = ricci(rho)
    cond.residuals["base_ricci_flat"] = ricci(base)
    cond.residuals["d_omega_n"] = ext_d(omega_n)
    cond.residuals["d_star_omega_n"] = ext_d(hodge_star(rho, omega_n))
    return FamilyBuild(bg, cond, {"beta_t": beta_t, "nu": nu})


def build_varpi_epsilon_background(
    rho: ChartMetric,
    H: Polynomial,
    p_metric: Optional[ChartMetric] = None,
    kaehler_omega: Optional[DifferentialForm] = None,
) -> FamilyBuild:
    """Flux du ^ (omega_p ^ dt); condition Lap_rho H = -2 with |eps|^2 = -2."""
    if p_metric is None:
        p_metric = flat_negative_metric(Chart("p4", ("z1", "z2", "z3", "z4")))
    if kaehler_omega is None:
        c = p_metric.chart.coordinates
        kaehler_omega = wedge(
            DifferentialForm.coordinate_differential(p_metric.chart, c[0]),
            DifferentialForm.coordinate_differential(p_metric.chart, c[1]),
        ) + wedge(
            DifferentialForm.coordinate_differential(p_metric.chart, c[2]),
            DifferentialForm.coordinate_differential(p_metric.chart, c[3]),
        )
    if kaehler_omega.chart != p_metric.chart or kaehler_omega.degree != 2:
        raise ChartError("kaehler_omega must be a 2-form on the p-chart")
    base = append_line_factor(p_metric)
    fiber = walker_metric_from_rho(rho, H)
    epsilon = wedge(
        lift_to_product(kaehler_omega, base.chart),
        DifferentialForm.coordinate_differential(base.chart, "t"),
    )
    varpi_t = _du(fiber)
    pc = build_product(base, fiber, 1)
    bg = assemble_flux(pc, FluxAnsatz(varpi_t=varpi_t, epsilon=epsilon))

    cond = CheckResult("varpi_epsilon_family_conditions")
    cond.residuals["laplacian_plus_two"] = laplace_beltrami(rho, H) + Polynomial.constant(2)
    cond.residuals["epsilon_norm_plus_two"] = norm_sq(base, epsilon) + Polynomial.constant(2)
    cond.residuals["varpi_null"] = norm_sq(fiber, varpi_t)
    cond.residuals["rho_ricci_flat"] = ricci(rho)
    cond.residuals["base_ricci_flat"] = ricci(base)
    cond.residuals["d_epsilon"] = ext_d(epsilon)
    cond.residuals["d_star_epsilon"] = ext_d(hodge_star(base, epsilon))
    return FamilyBuild(bg, cond, {"varpi_t": varpi_t, "epsilon": epsilon})


def build_alpha_beta_nu_background(
    rho: ChartMetric,
    omega3_n: DifferentialForm,
    H: Polynomial,
    base: Optional[ChartMetric] = None,
    nu: Optional[DifferentialForm] = None,
) -> FamilyBuild:
    """Flux du ^ W + (du ^ w) ^ nu with w := star_rho d star_rho W computed,
    not supplied.

    Characterizing condition: Lap_rho H = |W|^2_rho + |nu|^2_g |w|^2_rho.
    """
    if omega3_n.chart != rho.chart or omega3_n.degree != 3:
        raise ChartError("the 3-form piece must live on the transverse chart")
    base = base if base is not None else standard_base()
    if nu is None:
        nu = DifferentialForm.monomial(
            base.chart, (base.chart.coordinates[0],), Polynomial.variable(base.chart.coordinates[0])
        )
    fiber = walker_metric_from_rho(rho, H)
    omega2 = hodge_star(rho, ext_d(hodge_star(rho, omega3_n)))
    alpha_t = wedge(_du(fiber), lift_to_product(omega3_n, fiber.chart))
    pc = build_product(base, fiber, 1)
    if omega2.is_zero():
        ansatz = FluxAnsatz(alpha_t=alpha_t)
    else:
        beta_t = wedge(_du(fiber), lift_to_product(omega2, fiber.chart))
        ansatz = FluxAnsatz(alpha_t=alpha_t, beta_t=beta_t, nu=nu)
    bg = assemble_flux(pc, ansatz)

    cond = CheckResult("alpha_beta_nu_family_conditions")
    cond.residuals["laplacian_condition"] = (
        laplace_beltrami(rho, H)
        - norm_sq(rho, omega3_n)
        - norm_sq(base, nu) * norm_sq(rho, omega2)
    )
    cond.residuals["rho_ricci_flat"] = ricci(rho)
    cond.residuals["base_ricci_flat"] = ricci(base)
    cond.residuals["d_omega3_n"] = ext_d(omega3_n)
    cond.residuals["d_nu"] = ext_d(nu)
    case = check_special_case(bg, 6 if not omega2.is_zero() else 1)
    cond.notes.extend(case.notes)
    chain = FamilyBuild(bg, cond, {"omega2": omega2, "case_conditions": case})
    return chain


# ---------------------------------------------------------------------------
# theorem checkers, one per flux shape
# ---------------------------------------------------------------------------

THEOREM_SHAPES = ("alpha", "beta_nu", "varpi_epsilon", "alpha_beta_nu", "theta")


@dataclass
class TheoremReport:
    shape: str
    hypotheses: CheckResult
    equations: Optional[List[CheckResult]]

    @property
    def reproduced(self) -> bool:
        """Hypotheses-zero implies equations-zero on this instance."""
        if not self.hypotheses.passed:
            return True
        return self.equations is not None and all(r.passed for r in self.equations)


def _ricci_identity(m: ChartMetric, *sources: Tuple[object, Matrix]) -> Matrix:
    """Ric_m minus the sum of coefficient * matrix over the sources."""
    ric = ricci(m)
    return tuple(
        tuple(ric[i][j] - sum((c * s[i][j] for c, s in sources), P0) for j in range(m.dim))
        for i in range(m.dim)
    )


def _theta_identities(g: ChartMetric, gt: ChartMetric, theta: DifferentialForm):
    """(|theta|^2, base identity, fiber identity) for a base-only flux theta:

        Ric_g  = 1/6 |theta|^2 g - 1/2 <i_a theta, i_b theta>
        Ric_gt = 1/6 |theta|^2 gt
    """
    theta_norm = norm_sq(g, theta)
    sixth = theta_norm * Fraction(1, 6)
    base = _ricci_identity(g, (sixth, g.g), (Fraction(-1, 2), contraction_matrix(g, theta)))
    return theta_norm, base, _ricci_identity(gt, (sixth, gt.g))


def check_theorem_conditions(bg: Background, shape: str) -> TheoremReport:
    if shape not in THEOREM_SHAPES:
        raise ValueError(f"unknown theorem shape {shape!r}; pick one of {THEOREM_SHAPES}")
    a = bg.ansatz
    pc = bg.product
    g, gt = pc.base, pc.fiber
    hyp = CheckResult(f"theorem_{shape}_hypotheses")

    expected_pieces = {
        "alpha": ("alpha_t",),
        "beta_nu": ("beta_t", "nu"),
        "varpi_epsilon": ("varpi_t", "epsilon"),
        "alpha_beta_nu": ("alpha_t", "beta_t", "nu"),
        "theta": ("theta",),
    }[shape]
    if set(a.present()) != set(expected_pieces):
        raise ValueError(
            f"theorem shape {shape!r} expects exactly pieces {expected_pieces}, "
            f"ansatz has {a.present()}"
        )
    if pc.warping != 1:
        raise ValueError("the structural statements are for the direct product (f = 1)")

    if shape != "theta":
        hyp.residuals["base_ricci_flat"] = ricci(g)

    if shape == "alpha":
        hyp.residuals["alpha_null"] = norm_sq(gt, a.alpha_t)
        hyp.residuals["d_alpha_t"] = ext_d(a.alpha_t)
        hyp.residuals["d_star_alpha_t"] = ext_d(hodge_star(gt, a.alpha_t))
        hyp.residuals["fiber_ricci_identity"] = _ricci_identity(
            gt, (Fraction(-1, 2), contraction_matrix(gt, a.alpha_t))
        )

    elif shape == "beta_nu":
        hyp.residuals["nu_unit_length"] = norm_sq(g, a.nu) + P1
        hyp.residuals["d_nu"] = ext_d(a.nu)
        hyp.residuals["d_star_nu"] = ext_d(hodge_star(g, a.nu))
        hyp.residuals["beta_null"] = norm_sq(gt, a.beta_t)
        hyp.residuals["d_beta_t"] = ext_d(a.beta_t)
        hyp.residuals["d_star_beta_t"] = ext_d(hodge_star(gt, a.beta_t))
        hyp.residuals["fiber_ricci_identity"] = _ricci_identity(
            gt, (Fraction(1, 2), contraction_matrix(gt, a.beta_t))
        )

    elif shape == "varpi_epsilon":
        hyp.residuals["epsilon_norm_plus_two"] = norm_sq(g, a.epsilon) + Polynomial.constant(2)
        hyp.residuals["varpi_null"] = norm_sq(gt, a.varpi_t)
        hyp.residuals["d_varpi_t"] = ext_d(a.varpi_t)
        hyp.residuals["d_star_varpi_t"] = ext_d(hodge_star(gt, a.varpi_t))
        hyp.residuals["d_epsilon"] = ext_d(a.epsilon)
        hyp.residuals["d_star_epsilon"] = ext_d(hodge_star(g, a.epsilon))
        hyp.residuals["fiber_ricci_identity"] = _ricci_identity(
            gt, (1, contraction_matrix(gt, a.varpi_t))
        )

    elif shape == "alpha_beta_nu":
        hyp.residuals["d_nu"] = ext_d(a.nu)
        d_star_nu = ext_d(hodge_star(g, a.nu))
        coupling, rest = proportionality_to_volume(g, d_star_nu)
        hyp.residuals["d_star_nu_constant_multiple_of_vol"] = rest
        hyp.residuals["alpha_null"] = norm_sq(gt, a.alpha_t)
        hyp.residuals["beta_null"] = norm_sq(gt, a.beta_t)
        hyp.residuals["d_alpha_t"] = ext_d(a.alpha_t)
        hyp.residuals["d_beta_t"] = ext_d(a.beta_t)
        hyp.residuals["d_star_beta_t"] = ext_d(hodge_star(gt, a.beta_t))
        if coupling != 0:
            hyp.residuals["costar_chain"] = hodge_star(gt, a.beta_t) + ext_d(
                hodge_star(gt, a.alpha_t)
            ) * (Fraction(1) / coupling)
            hyp.notes.append(f"coupling constant extracted from d star nu: c = {coupling}")
        else:
            hyp.residuals["coupling_must_be_nonzero"] = P1
            hyp.notes.append("d star nu = 0: the stated shape needs a nonzero coupling")
        hyp.residuals["fiber_ricci_identity"] = _ricci_identity(
            gt,
            (Fraction(-1, 2), contraction_matrix(gt, a.alpha_t)),
            (norm_sq(g, a.nu) * Fraction(-1, 2), contraction_matrix(gt, a.beta_t)),
        )
        n = gt.dim
        vectors = [VectorField.coordinate(gt.chart, c) for c in gt.chart.coordinates]
        orth = {
            f"i_{gt.chart.coordinates[i]}": inner_product_forms(
                gt, interior_product(vectors[i], a.alpha_t), a.beta_t
            )
            for i in range(n)
        }
        hyp.residuals["alpha_beta_orthogonality"] = orth

    elif shape == "theta":
        theta_norm, base_identity, fiber_einstein = _theta_identities(g, gt, a.theta)
        hyp.residuals["theta_norm_constant"] = ext_d(
            DifferentialForm.function(g.chart, theta_norm)
        )
        hyp.residuals["d_theta"] = ext_d(a.theta)
        hyp.residuals["d_star_theta"] = ext_d(hodge_star(g, a.theta))
        hyp.residuals["base_ricci_identity"] = base_identity
        hyp.residuals["fiber_einstein"] = fiber_einstein

    equations = None
    if hyp.passed:
        equations = [check_closedness(bg), check_maxwell(bg), check_einstein(bg)]
    return TheoremReport(shape, hyp, equations)


# ---------------------------------------------------------------------------
# base-only flux: the co-dual 1-form picture and contact structures
# ---------------------------------------------------------------------------

def check_base_flux_via_one_form(
    base: ChartMetric, eta: DifferentialForm, fiber: ChartMetric
) -> Dict[str, object]:
    """Flux theta := star eta on the base; checks the closed/co-closed
    equivalence between theta and eta, the two Einstein-side identities,
    and the full equations on the assembled product."""
    if eta.chart != base.chart or eta.degree != 1:
        raise ChartError("eta must be a 1-form on the base chart")
    theta = hodge_star(base, eta)

    result = CheckResult("base_flux_one_form")
    result.residuals["d_eta"] = ext_d(eta)
    result.residuals["d_star_eta"] = ext_d(hodge_star(base, eta))
    result.residuals["d_theta"] = ext_d(theta)
    result.residuals["d_star_theta"] = ext_d(hodge_star(base, theta))
    eta_side = result.residuals["d_eta"].is_zero() and result.residuals["d_star_eta"].is_zero()
    theta_side = (
        result.residuals["d_theta"].is_zero() and result.residuals["d_star_theta"].is_zero()
    )
    equivalence_ok = eta_side == theta_side

    theta_norm, base_identity, fiber_einstein = _theta_identities(base, fiber, theta)

    pc = build_product(base, fiber, 1)
    bg = (
        assemble_flux(pc, FluxAnsatz(theta=theta))
        if not theta.is_zero()
        else None
    )
    full = None
    if bg is not None:
        full = [check_closedness(bg), check_maxwell(bg), check_einstein(bg)]

    return {
        "closure": result,
        "equivalence_ok": equivalence_ok,
        "base_ricci_identity": base_identity,
        "fiber_einstein": fiber_einstein,
        "background": bg,
        "full_equations": full,
        "theta": theta,
        "theta_norm": theta_norm,
    }


def check_contact_structure(
    g: ChartMetric,
    xi: VectorField,
    eta: DifferentialForm,
    phi: Matrix,
) -> CheckResult:
    """Residuals for an almost contact metric structure (g, xi, eta, phi).

    phi is the endomorphism matrix phi[i][j] = (phi d_j)^i in chart
    coordinates.  Includes the compatibility residuals, the fundamental
    2-form data, and the Nijenhuis tensor on coordinate fields.
    """
    chart = g.chart
    n = g.dim
    if len(phi) != n or any(len(row) != n for row in phi):
        raise ValueError("phi must be a dim x dim matrix")
    result = CheckResult("contact_structure")

    eta_xi = sum(
        (eta.components.get((i,), P0) * xi.component(i) for i in range(n)),
        Polynomial.zero(),
    )
    result.residuals["eta_of_xi_minus_one"] = eta_xi - P1

    # phi^2 + Id - xi (x) eta
    phi_sq = tuple(
        tuple(
            sum((phi[i][k] * phi[k][j] for k in range(n)), Polynomial.zero())
            for j in range(n)
        )
        for i in range(n)
    )
    comp = tuple(
        tuple(
            phi_sq[i][j]
            + (P1 if i == j else P0)
            - xi.component(i) * eta.components.get((j,), P0)
            for j in range(n)
        )
        for i in range(n)
    )
    result.residuals["phi_squared_compatibility"] = comp

    # fundamental 2-form Phi(X, Y) = g(X, phi Y)
    phi_lower = tuple(
        tuple(
            sum((g.g[i][k] * phi[k][j] for k in range(n)), Polynomial.zero())
            for j in range(n)
        )
        for i in range(n)
    )
    antisym = tuple(
        tuple(phi_lower[i][j] + phi_lower[j][i] for j in range(n)) for i in range(n)
    )
    result.residuals["fundamental_form_antisymmetry"] = antisym

    fundamental = DifferentialForm(
        chart,
        2,
        {
            (i, j): phi_lower[i][j]
            for i in range(n)
            for j in range(i + 1, n)
            if not phi_lower[i][j].is_zero()
        },
    )
    result.residuals["xi_hook_fundamental"] = interior_product(xi, fundamental)
    result.residuals["d_fundamental"] = ext_d(fundamental)
    d_eta = ext_d(eta)
    result.residuals["d_eta"] = d_eta

    # Nijenhuis tensor on coordinate fields
    coord_fields = [VectorField.coordinate(chart, c) for c in chart.coordinates]
    phi_of = [
        VectorField(chart, {i: phi[i][j] for i in range(n) if not phi[i][j].is_zero()})
        for j in range(n)
    ]

    def apply_phi(v: VectorField) -> VectorField:
        comps: Dict[int, Polynomial] = {}
        for j, vj in v.components.items():
            for i in range(n):
                if phi[i][j].is_zero():
                    continue
                comps[i] = comps.get(i, Polynomial.zero()) + phi[i][j] * vj
        return VectorField(chart, comps)

    nijenhuis: Dict[str, VectorField] = {}
    names = chart.coordinates
    for a_idx in range(n):
        for b_idx in range(a_idx + 1, n):
            X, Y = coord_fields[a_idx], coord_fields[b_idx]
            term = lie_bracket(phi_of[a_idx], phi_of[b_idx])
            term = term + apply_phi(apply_phi(lie_bracket(X, Y)))
            minus1 = apply_phi(lie_bracket(phi_of[a_idx], Y))
            minus2 = apply_phi(lie_bracket(X, phi_of[b_idx]))
            term = term + (minus1 * Fraction(-1)) + (minus2 * Fraction(-1))
            d_eta_ab = d_eta.components.get((a_idx, b_idx), P0)
            term = term + xi * d_eta_ab
            if term.components:
                nijenhuis[f"({names[a_idx]},{names[b_idx]})"] = term
    result.residuals["nijenhuis"] = nijenhuis if nijenhuis else Polynomial.zero()

    almost_cosymplectic = (
        ext_d(fundamental).is_zero() and d_eta.is_zero()
    )
    normal = not nijenhuis
    if almost_cosymplectic:
        result.notes.append("dPhi = 0 and deta = 0: almost cosymplectic")
        if normal:
            result.notes.append("N_phi = 0: cosymplectic")
    return result
