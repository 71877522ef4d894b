"""Condition systems for the nine restricted flux shapes.

Each case checker evaluates the closed-form conditions equivalent (for
that flux shape) to closedness plus the gauge equation, as a list of
named exact residuals.  Shapes whose conditions involve an undetermined
nonzero constant (cases 3, 6 and 7) extract it from the data when
possible and record the value; a vanishing constant lands in the
degenerate branch where the coupled source must vanish on its own.

The extracted constants are convention-sensitive: computed against
negative-definite factor duals they can differ by sign from values
quoted under Euclidean-signature duals, and the note attached to the
result records the comparison.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

from .exterior import DifferentialForm, exterior_derivative as ext_d, wedge, wedge_all
from .fieldeqs import Background, FluxAnsatz
from .metric import ChartMetric, hodge_star, volume_form
from .polyring import Polynomial, poly_divexact
from .report import CheckResult

CASE_SHAPES: Dict[int, Tuple[str, ...]] = {
    1: ("alpha_t",),
    2: ("beta_t", "nu"),
    3: ("gamma_t", "delta"),
    4: ("varpi_t", "epsilon"),
    5: ("theta",),
    6: ("alpha_t", "beta_t", "nu"),
    7: ("varpi_t", "epsilon", "theta"),
    8: ("alpha_t", "theta"),
    9: ("beta_t", "nu", "varpi_t", "epsilon"),
}


class CaseShapeError(ValueError):
    pass


def _require_shape(ansatz: FluxAnsatz, case: int):
    allowed = set(CASE_SHAPES[case])
    present = set(ansatz.present())
    if not present or not present <= allowed:
        raise CaseShapeError(
            f"case {case} expects pieces {sorted(allowed)}, ansatz has {sorted(present)}"
        )
    # cases 8 and 9 read an absent piece as zero; the others read all of theirs
    missing = set() if case in (8, 9) else allowed - present
    if missing:
        raise CaseShapeError(
            f"case {case} needs pieces {sorted(missing)} that the ansatz lacks "
            f"(it has {sorted(present)})"
        )


def proportionality_to_volume(m: ChartMetric, top_form: DifferentialForm):
    """Split a top-degree form as c * vol + rest with c the constant part.

    Returns (c, rest); the form is a constant multiple of the volume form
    exactly when rest is zero.
    """
    vol = volume_form(m)
    full = tuple(range(m.dim))
    coeff = top_form.components.get(full, Polynomial.zero())
    scale = vol.components[full]
    try:
        ratio = poly_divexact(coeff, scale)
    except ValueError:
        ratio = None
    if ratio is not None and ratio.is_constant():
        c = ratio.constant_value()
    else:
        c = Fraction(0)
    rest = top_form - vol * c
    return c, rest


def check_special_case(bg: Background, case: int, c: Optional[Fraction] = None) -> CheckResult:
    """Evaluate the named condition system for one of the nine flux shapes."""
    if case not in CASE_SHAPES:
        raise CaseShapeError(f"unknown case {case}")
    _require_shape(bg.ansatz, case)
    handler = _HANDLERS[case]
    return handler(bg, bg.product.warping, c if c is not None else bg.ansatz.c)


def _zero_on(chart_metric: ChartMetric, degree: int) -> DifferentialForm:
    return DifferentialForm.zero(chart_metric.chart, degree)


def _case1(bg: Background, f: Fraction, c: Fraction) -> CheckResult:
    gt = bg.product.fiber
    at = bg.ansatz.alpha_t
    result = CheckResult("case_1")
    result.residuals["d_alpha_t"] = ext_d(at)
    result.residuals["d_star_alpha_t"] = ext_d(hodge_star(gt, at))
    return result


def _case2(bg: Background, f: Fraction, c: Fraction) -> CheckResult:
    gt, g = bg.product.fiber, bg.product.base
    a = bg.ansatz
    result = CheckResult("case_2")
    result.residuals["d_beta_t"] = ext_d(a.beta_t)
    result.residuals["d_star_beta_t"] = ext_d(hodge_star(gt, a.beta_t))
    result.residuals["d_nu"] = ext_d(a.nu)
    result.residuals["d_star_nu"] = ext_d(hodge_star(g, a.nu))
    return result


def _case3(bg: Background, f: Fraction, c: Fraction) -> CheckResult:
    pc = bg.product
    gt, g = pc.fiber, pc.base
    a = bg.ansatz
    result = CheckResult("case_3")
    result.residuals["d_gamma_t"] = ext_d(a.gamma_t)
    result.residuals["d_star_gamma_t"] = ext_d(hodge_star(gt, a.gamma_t))
    # closedness also needs gamma_t ^ d delta = 0
    result.residuals["gamma_t_wedge_d_delta"] = wedge(
        pc.lift(a.gamma_t), pc.lift(ext_d(a.delta))
    )
    d_f2_star_delta = ext_d(hodge_star(g, a.delta) * (f * f))
    lhs = wedge(pc.lift(hodge_star(gt, a.gamma_t)), pc.lift(d_f2_star_delta))
    rhs = wedge_all(
        pc.lift(a.gamma_t), pc.lift(a.gamma_t), pc.lift(a.delta), pc.lift(a.delta)
    ) * Fraction(1, 2)
    result.residuals["gauge_type_4_4"] = lhs - rhs
    gamma_sq = wedge(a.gamma_t, a.gamma_t)
    delta_sq = wedge(a.delta, a.delta)
    if not gamma_sq.is_zero() and not delta_sq.is_zero():
        # generic branch: the tensor factorization forces
        # star gamma = c gamma^gamma and d(f^2 star delta) = delta^delta/(2c)
        # for a single nonzero constant c
        result.residuals["star_gamma_vs_c_gamma_sq"] = (
            hodge_star(gt, a.gamma_t) - gamma_sq * c
        )
        result.residuals["d_f2_star_delta_vs_delta_sq"] = d_f2_star_delta - delta_sq * (
            Fraction(1, 2) / c
        )
        result.notes.append(f"generic branch checked with c = {c}")
    else:
        result.notes.append(
            "a squared piece vanishes: degenerate branch, the constant split is not forced"
        )
    return result


def _case4(bg: Background, f: Fraction, c: Fraction) -> CheckResult:
    gt, g = bg.product.fiber, bg.product.base
    a = bg.ansatz
    result = CheckResult("case_4")
    result.residuals["d_varpi_t"] = ext_d(a.varpi_t)
    result.residuals["d_star_varpi_t"] = ext_d(hodge_star(gt, a.varpi_t))
    result.residuals["d_epsilon"] = ext_d(a.epsilon)
    result.residuals["d_f4_star_epsilon"] = ext_d(hodge_star(g, a.epsilon) * f ** 4)
    return result


def _case5(bg: Background, f: Fraction, c: Fraction) -> CheckResult:
    g = bg.product.base
    a = bg.ansatz
    result = CheckResult("case_5")
    result.residuals["d_theta"] = ext_d(a.theta)
    result.residuals["d_f6_star_theta"] = ext_d(hodge_star(g, a.theta) * f ** 6)
    return result


def _case6(bg: Background, f: Fraction, c: Fraction) -> CheckResult:
    pc = bg.product
    gt, g = pc.fiber, pc.base
    a = bg.ansatz
    result = CheckResult("case_6")
    result.residuals["d_alpha_t"] = ext_d(a.alpha_t)
    result.residuals["d_beta_t"] = ext_d(a.beta_t)
    result.residuals["d_nu"] = ext_d(a.nu)
    result.residuals["d_star_beta_t"] = ext_d(hodge_star(gt, a.beta_t))

    d_star_nu = ext_d(hodge_star(g, a.nu))
    ratio, rest = proportionality_to_volume(g, d_star_nu)
    result.residuals["d_star_nu_proportional_to_vol"] = rest
    extracted = ratio * f * f
    d_star_alpha = ext_d(hodge_star(gt, a.alpha_t))
    if extracted != 0:
        result.residuals["costar_chain"] = hodge_star(gt, a.beta_t) + d_star_alpha * (
            Fraction(1) / extracted
        )
        result.notes.append(
            f"extracted coupling constant c = {extracted} from d star nu = (c/f^2) vol "
            "(negative-definite dual; the Euclidean-signature dual flips its sign)"
        )
    else:
        result.residuals["d_star_alpha_t"] = d_star_alpha
        result.notes.append(
            "d star nu = 0: degenerate branch, the 4-form piece must be co-closed on its own"
        )
    return result


def _case7(bg: Background, f: Fraction, c: Fraction) -> CheckResult:
    pc = bg.product
    gt, g = pc.fiber, pc.base
    a = bg.ansatz
    result = CheckResult("case_7")
    result.residuals["d_theta"] = ext_d(a.theta)
    result.residuals["d_epsilon"] = ext_d(a.epsilon)
    result.residuals["d_varpi_t"] = ext_d(a.varpi_t)
    result.residuals["d_f4_star_epsilon"] = ext_d(hodge_star(g, a.epsilon) * f ** 4)

    d_star_varpi = ext_d(hodge_star(gt, a.varpi_t))
    ratio, rest = proportionality_to_volume(gt, d_star_varpi)
    result.residuals["d_star_varpi_proportional_to_vol"] = rest
    d_f6_star_theta = ext_d(hodge_star(g, a.theta) * f ** 6)
    if ratio != 0:
        result.residuals["costar_chain"] = d_f6_star_theta - hodge_star(g, a.epsilon) * (
            ratio * f ** 4
        )
        result.notes.append(f"extracted coupling constant c = {ratio} from d star varpi = c vol")
    else:
        result.residuals["d_f6_star_theta"] = d_f6_star_theta
        result.notes.append(
            "d star varpi = 0: degenerate branch, the base 4-form must be co-closed on its own"
        )
    return result


def _case8(bg: Background, f: Fraction, c: Fraction) -> CheckResult:
    pc = bg.product
    a = bg.ansatz
    result = CheckResult("case_8")
    at = a.alpha_t if a.alpha_t is not None else _zero_on(pc.fiber, 4)
    th = a.theta if a.theta is not None else _zero_on(pc.base, 4)
    result.residuals["alpha_t_wedge_theta"] = wedge(pc.lift(at), pc.lift(th))
    if not at.is_zero():
        result.residuals["d_alpha_t"] = ext_d(at)
        result.residuals["d_star_alpha_t"] = ext_d(hodge_star(pc.fiber, at))
    if not th.is_zero():
        result.residuals["d_theta"] = ext_d(th)
        result.residuals["d_f6_star_theta"] = ext_d(hodge_star(pc.base, th) * f ** 6)
    if not at.is_zero() and not th.is_zero():
        result.notes.append("both 4-form pieces nonzero: the wedge obstruction cannot vanish")
    return result


def _case9(bg: Background, f: Fraction, c: Fraction) -> CheckResult:
    a = bg.ansatz
    result = CheckResult("case_9")
    nu = a.nu if a.nu is not None else _zero_on(bg.product.base, 1)
    result.residuals["nu_must_vanish"] = nu
    gt, g = bg.product.fiber, bg.product.base
    if a.varpi_t is not None:
        result.residuals["d_varpi_t"] = ext_d(a.varpi_t)
        result.residuals["d_star_varpi_t"] = ext_d(hodge_star(gt, a.varpi_t))
        result.residuals["d_epsilon"] = ext_d(a.epsilon)
        result.residuals["d_f4_star_epsilon"] = ext_d(hodge_star(g, a.epsilon) * f ** 4)
    result.notes.append(
        "shape reduces by forcing nu = 0; conditions are those of the 1-form/3-form shape"
    )
    return result


_HANDLERS = {
    1: _case1,
    2: _case2,
    3: _case3,
    4: _case4,
    5: _case5,
    6: _case6,
    7: _case7,
    8: _case8,
    9: _case9,
}
