"""Condition systems for the nine restricted flux shapes.

Each case evaluates the closed-form conditions equivalent (for that flux
shape) to closedness plus the gauge equation, as a list of named exact
residuals.  Most of them are per piece and read ``fieldeqs.TYPES``: a
fiber piece t needs d t = 0 and d star t = 0 (``d_star_<t>``), and a base
piece b of type q needs d b = 0 and d(|f|^k star b) = 0 with
k = dim(fiber) - 2q, the weight ``ProductChart.star_weight`` that the
product star gives the type (``d_f<k>_star_<b>``, or ``d_star_<b>`` when
k = 0).

A type whose factors are not all present and nonzero adds nothing to F,
so it imposes nothing on either factor and brings no obstruction or
coupled condition: the remaining types get the system of the case of
their own shape (case 6 with beta_t = 0 checks alpha_t as case 1 does),
a note names the vanishing types, and no type left means no condition.

The rest is written out per case.  Cases 8 and 9 first state their
obstruction: alpha_t ^ theta = 0, and nu = 0.  In cases 3, 6 and 7 two
terms of d star F - 1/2 F^F share a fiber degree, so the co-closedness of
the pieces involved is coupled.  Those pieces keep only d piece = 0
(delta keeps nothing: its closedness reads gamma_t ^ d delta = 0), and
the coupled conditions follow.  They involve an undetermined nonzero
constant, which the case extracts from the data when possible and records;
a vanishing constant lands in the degenerate branch, where the coupled
source must vanish on its own.  Case 3 pairs d star F with 1/2 F^F at
fiber degree 4, which needs the paper's 6-dimensional fiber: on another
fiber it raises CaseShapeError naming the dimension.

The extracted constants are convention-sensitive: computed against
negative-definite factor duals they can differ by sign from values
quoted under Euclidean-signature duals, and the note attached to the
result records the comparison.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

from .exterior import DifferentialForm, exterior_derivative as ext_d, wedge, wedge_all
from .fieldeqs import FIBER_PIECES, TYPES, Background, FluxAnsatz
from .metric import ChartMetric, hodge_star, volume_form
from .polyring import Polynomial
from .product import ProductChart
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

# pieces whose co-closedness a case couples to another piece: they keep only d piece = 0
_CLOSED_ONLY = {6: ("alpha_t", "nu"), 7: ("varpi_t", "theta")}
# pieces left out of the per-piece conditions: the coupled delta, and nu = 0 removes beta_t ^ nu
_LEFT_OUT = {3: ("delta",), 9: ("beta_t", "nu")}


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
    coeff = top_form.components.get(tuple(range(m.dim)), Polynomial.zero())
    c = coeff.constant_value() / m.sqrt_abs_det if coeff.is_constant() else Fraction(0)
    return c, top_form - volume_form(m) * c


def check_special_case(bg: Background, case: int) -> CheckResult:
    """The condition system of one of the nine flux shapes; case 3 reads c off bg.ansatz."""
    if case not in CASE_SHAPES:
        raise CaseShapeError(f"unknown case {case}")
    _require_shape(bg.ansatz, case)
    if case == 3 and bg.product.fiber.dim != 6:
        raise CaseShapeError(
            f"case 3 needs a 6-dimensional fiber, got a {bg.product.fiber.dim}-dimensional one"
        )
    result = CheckResult(f"case_{case}")
    # a type with a zero factor adds nothing to F and imposes nothing: the other
    # types get the system of their own shape, and no system is left when none does
    live, dead = set(), []
    for t, b, _ in TYPES:
        names = tuple(n for n in (t, b) if n)
        if names[0] not in CASE_SHAPES[case]:
            continue
        if all(bg.ansatz.piece(n) is not None and not bg.ansatz.piece(n).is_zero() for n in names):
            live.update(names)
        else:
            dead.append(" ^ ".join(names))
    system = next((k for k, shape in CASE_SHAPES.items() if set(shape) == live), None)
    if dead:
        result.notes.append(_zero_type_note(bg, case, dead, system))
    if system is None:
        return result
    if system in _OBSTRUCTIONS:
        _OBSTRUCTIONS[system](bg, result)
    closed_only, left_out = _CLOSED_ONLY.get(system, ()), _LEFT_OUT.get(system, ())
    for t, b, _ in TYPES:
        for name in (t, b):
            if name not in live or name in left_out:
                continue
            form = bg.ansatz.piece(name)
            result.residuals[f"d_{name}"] = ext_d(form)
            if name not in closed_only:
                label, value = _d_star(bg.product, name, form)
                result.residuals[label] = value
    if system in _COUPLED:
        _COUPLED[system](bg, result)
    return result


def _d_star(pc: ProductChart, name: str, form: DifferentialForm):
    """(label, d(w star form)) for a flux piece: w = 1 on the fiber, and
    w = star_weight(q) = |f|^k, k = dim(fiber) - 2q, for a base piece of type q."""
    if name in FIBER_PIECES:
        return f"d_star_{name}", ext_d(hodge_star(pc.fiber, form))
    q = 4 - form.degree
    k = pc.fiber.dim - 2 * q
    star = hodge_star(pc.base, form)
    if not k:
        return f"d_star_{name}", ext_d(star)
    return f"d_f{k}_star_{name}", ext_d(star * pc.star_weight(q))


def _alpha_t_wedge_theta(bg: Background, result: CheckResult) -> None:
    pc, a = bg.product, bg.ansatz
    result.residuals["alpha_t_wedge_theta"] = wedge(pc.lift(a.alpha_t), pc.lift(a.theta))
    result.notes.append("both 4-form pieces nonzero: the wedge obstruction cannot vanish")


def _nu_must_vanish(bg: Background, result: CheckResult) -> None:
    result.residuals["nu_must_vanish"] = bg.ansatz.nu
    result.notes.append(
        "shape reduces by forcing nu = 0; conditions are those of the 1-form/3-form shape"
    )


def _case3(bg: Background, result: CheckResult) -> None:
    pc, a, c = bg.product, bg.ansatz, bg.ansatz.c
    # closedness also needs gamma_t ^ d delta = 0
    result.residuals["gamma_t_wedge_d_delta"] = wedge(
        pc.lift(a.gamma_t), pc.lift(ext_d(a.delta))
    )
    star_gamma = hodge_star(pc.fiber, a.gamma_t)
    label, d_w_star_delta = _d_star(pc, "delta", a.delta)
    lhs = wedge(pc.lift(star_gamma), pc.lift(d_w_star_delta))
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
        result.residuals["star_gamma_vs_c_gamma_sq"] = star_gamma - gamma_sq * c
        result.residuals[f"{label}_vs_delta_sq"] = d_w_star_delta - delta_sq * (Fraction(1, 2) / c)
        result.notes.append(f"generic branch checked with c = {c}")
    else:
        result.notes.append(
            "a squared piece vanishes: degenerate branch, the constant split is not forced"
        )


def _case6(bg: Background, result: CheckResult) -> None:
    pc, a = bg.product, bg.ansatz
    ratio, rest = proportionality_to_volume(pc.base, _d_star(pc, "nu", a.nu)[1])
    result.residuals["d_star_nu_proportional_to_vol"] = rest
    # d star F of fiber degree dim(fiber) - 3 is
    # (star_weight(4) d star alpha_t + ratio star beta_t) ^ vol
    extracted = ratio / pc.star_weight(4)
    label, d_star_alpha = _d_star(pc, "alpha_t", a.alpha_t)
    if extracted != 0:
        result.residuals["costar_chain"] = hodge_star(pc.fiber, a.beta_t) + d_star_alpha * (
            Fraction(1) / extracted
        )
        result.notes.append(
            f"extracted coupling constant c = {extracted} from d star nu = (c/f^2) vol "
            "(negative-definite dual; the Euclidean-signature dual flips its sign)"
        )
    else:
        result.residuals[label] = d_star_alpha
        result.notes.append(_degenerate_note("nu", rest, "the 4-form piece"))


def _case7(bg: Background, result: CheckResult) -> None:
    pc, a = bg.product, bg.ansatz
    ratio, rest = proportionality_to_volume(pc.fiber, _d_star(pc, "varpi_t", a.varpi_t)[1])
    result.residuals["d_star_varpi_proportional_to_vol"] = rest
    # d star F of full fiber degree is, up to sign,
    # vol_t ^ (d(star_weight(0) star theta) - ratio star_weight(1) star epsilon)
    label, d_w_star_theta = _d_star(pc, "theta", a.theta)
    if ratio != 0:
        result.residuals["costar_chain"] = d_w_star_theta - hodge_star(pc.base, a.epsilon) * (
            ratio * pc.star_weight(1)
        )
        result.notes.append(f"extracted coupling constant c = {ratio} from d star varpi = c vol")
    else:
        result.residuals[label] = d_w_star_theta
        result.notes.append(_degenerate_note("varpi", rest, "the base 4-form"))


# a coupled case left with its 4-form piece alone is in its degenerate branch:
# (the case of that piece, the piece whose d star carries the coupling, the 4-form piece)
_ANCHORS = {6: (1, "nu", "the 4-form piece"), 7: (5, "varpi_t", "the base 4-form")}


def _zero_type_note(bg: Background, case: int, dead, system: Optional[int]) -> str:
    """The note of a case whose types named in dead are zero, checked as case system."""
    zero = " and ".join(dead) + " is zero"
    anchor = _ANCHORS.get(case)
    if anchor and system == anchor[0]:
        _, source, piece = anchor
        if _d_star(bg.product, source, bg.ansatz.piece(source))[1].is_zero():
            zero = f"d star {source.removesuffix('_t')} = 0"
        return f"{zero}: degenerate branch, {piece} must be co-closed on its own"
    then = f"the conditions are those of case {system}" if system else "nothing is imposed"
    return f"{zero} and adds nothing to F: {then}"


def _degenerate_note(name: str, d_star: DifferentialForm, piece: str) -> str:
    """The note when no coupling constant was extracted: d_star, the d star
    of name, either vanishes (the degenerate branch) or is not c vol."""
    if d_star.is_zero():
        return f"d star {name} = 0: degenerate branch, {piece} must be co-closed on its own"
    return (f"d star {name} is not a constant multiple of vol: no coupling constant, "
            f"{piece} is checked co-closed on its own")


# obstructions come before the per-piece conditions, coupled conditions after them
_OBSTRUCTIONS = {8: _alpha_t_wedge_theta, 9: _nu_must_vanish}
_COUPLED = {3: _case3, 6: _case6, 7: _case7}
