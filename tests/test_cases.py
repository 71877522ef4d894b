"""Restricted flux shapes: condition systems match closedness + gauge exactly.

Every case gets at least one satisfying and one violating fixture, and
the test asserts the biconditional: case residuals all zero if and only
if the direct closedness and gauge residuals are all zero.  Each fixture
runs at every warping in WARPINGS, so the f-weights of the case systems
are exercised; a coupled fixture scales its pieces by f to stay a solution.
"""

import re
from fractions import Fraction

import pytest

from sugra11.cases import CaseShapeError, check_special_case
from sugra11.exterior import Chart, DifferentialForm, exterior_derivative as ext_d, wedge
from sugra11.fieldeqs import FluxAnsatz, assemble_flux, check_closedness, check_maxwell
from sugra11.metric import hodge_star, volume_form
from sugra11.polyring import Polynomial
from sugra11.product import build_product
from sugra11.solutions import (
    append_line_factor,
    build_alpha_beta_nu_background,
    flat_negative_metric,
    standard_base,
    walker_metric_from_rho,
)


P0 = Polynomial.zero()
P1 = Polynomial.constant(1)
WARPINGS = (1, 2, Fraction(-1, 2))


def at_every_warping(fixture):
    """A test that runs fixture(f) for each f in WARPINGS, under fixture's name."""
    def run():
        for f in WARPINGS:
            fixture(f)
    run.__name__, run.__doc__ = fixture.__name__, fixture.__doc__
    return run


def rho_flat():
    return flat_negative_metric(Chart("n4", ("x1", "x2", "x3", "x4")))


def quadratic_H(coeff):
    return sum(
        (Polynomial.variable(f"x{i}") ** 2 * Fraction(coeff) for i in range(1, 5)),
        Polynomial.zero(),
    )


def mono(chart, names, coeff=None):
    return DifferentialForm.monomial(chart, names, coeff if coeff is not None else P1)


def walker_product(H=None, base=None, f=1):
    fiber = walker_metric_from_rho(rho_flat(), H if H is not None else quadratic_H(Fraction(1, 8)))
    return build_product(base if base is not None else standard_base(), fiber, f)


def line_product(H=None, f=1):
    base = append_line_factor(flat_negative_metric(Chart("p4", ("z1", "z2", "z3", "z4"))))
    fiber = walker_metric_from_rho(rho_flat(), H if H is not None else quadratic_H(Fraction(1, 4)))
    return build_product(base, fiber, f), base, fiber


def assert_case_matches_direct(bg, case, expect_pass):
    result = check_special_case(bg, case)
    direct = check_closedness(bg).passed and check_maxwell(bg).passed
    assert result.passed == direct, (
        case,
        bg.product.warping,
        result.passed,
        direct,
        [k for k, v in result.residuals.items()],
    )
    assert result.passed is expect_pass, (case, bg.product.warping)
    return result


# -- case 1: pure fiber 4-form -------------------------------------------------

@at_every_warping
def test_case1_satisfying_and_violating(f):
    pc = walker_product(f=f)
    du = mono(pc.fiber_chart, ("u",))
    theta3 = mono(pc.fiber_chart, ("x2", "x3", "x4"))
    bg = assemble_flux(pc, FluxAnsatz(alpha_t=wedge(du, theta3)))
    assert_case_matches_direct(bg, 1, True)

    # closed but not co-closed
    weighted = mono(pc.fiber_chart, ("x2", "x3", "x4"), Polynomial.variable("x2"))
    bg_bad = assemble_flux(pc, FluxAnsatz(alpha_t=wedge(du, weighted)))
    assert_case_matches_direct(bg_bad, 1, False)

    # not closed at all
    unclosed = mono(pc.fiber_chart, ("x2", "x3", "x4"), Polynomial.variable("x1"))
    bg_bad2 = assemble_flux(pc, FluxAnsatz(alpha_t=wedge(du, unclosed)))
    assert_case_matches_direct(bg_bad2, 1, False)


# -- case 2 ---------------------------------------------------------------------

@at_every_warping
def test_case2_satisfying_and_violating(f):
    pc, base, fiber = line_product(f=f)
    du = mono(fiber.chart, ("u",))
    omega = mono(fiber.chart, ("x1", "x2")) + mono(fiber.chart, ("x3", "x4"))
    beta_t = wedge(du, omega)
    nu = mono(base.chart, ("t",))
    bg = assemble_flux(pc, FluxAnsatz(beta_t=beta_t, nu=nu))
    assert_case_matches_direct(bg, 2, True)

    nu_bad = mono(base.chart, ("t",), Polynomial.variable("t"))
    bg_bad = assemble_flux(pc, FluxAnsatz(beta_t=beta_t, nu=nu_bad))
    assert_case_matches_direct(bg_bad, 2, False)


# -- case 3 ---------------------------------------------------------------------

@at_every_warping
def test_case3_decomposable_branch(f):
    pc = walker_product(H=P0, f=f)
    gamma_t = mono(pc.fiber_chart, ("x1", "x2"))
    delta = mono(pc.base_chart, ("y1", "y2"))
    bg = assemble_flux(pc, FluxAnsatz(gamma_t=gamma_t, delta=delta))
    result = assert_case_matches_direct(bg, 3, True)
    assert "gauge_type_4_4" in result.residuals

    delta_bad = mono(pc.base_chart, ("y1", "y2"), Polynomial.variable("y3"))
    bg_bad = assemble_flux(pc, FluxAnsatz(gamma_t=gamma_t, delta=delta_bad))
    assert_case_matches_direct(bg_bad, 3, False)

    # closed but not co-closed base piece
    delta_bad2 = mono(pc.base_chart, ("y2", "y3"), Polynomial.variable("y2"))
    bg_bad3 = assemble_flux(pc, FluxAnsatz(gamma_t=gamma_t, delta=delta_bad2))
    assert_case_matches_direct(bg_bad3, 3, False)


@at_every_warping
def test_case3_generic_branch_has_no_real_solution(f):
    # with both squares nonzero the constant split is forced and fails here
    pc = walker_product(H=P0, f=f)
    gamma_t = mono(pc.fiber_chart, ("v", "u")) + mono(pc.fiber_chart, ("x1", "x2"))
    delta = mono(pc.base_chart, ("y1", "y2")) + mono(pc.base_chart, ("y3", "y4"))
    bg = assemble_flux(pc, FluxAnsatz(gamma_t=gamma_t, delta=delta))
    result = assert_case_matches_direct(bg, 3, False)
    assert not result.residuals["star_gamma_vs_c_gamma_sq"].is_zero()


# -- case 4 ---------------------------------------------------------------------

@at_every_warping
def test_case4_satisfying_and_violating(f):
    pc, base, fiber = line_product(f=f)
    varpi_t = mono(fiber.chart, ("u",))
    omega_p = mono(base.chart, ("z1", "z2")) + mono(base.chart, ("z3", "z4"))
    epsilon = wedge(omega_p, mono(base.chart, ("t",)))
    bg = assemble_flux(pc, FluxAnsatz(varpi_t=varpi_t, epsilon=epsilon))
    assert_case_matches_direct(bg, 4, True)

    eps_bad = mono(base.chart, ("z2", "z3", "z4"), Polynomial.variable("z2"))
    bg_bad = assemble_flux(pc, FluxAnsatz(varpi_t=varpi_t, epsilon=eps_bad))
    assert_case_matches_direct(bg_bad, 4, False)


# -- case 5 ---------------------------------------------------------------------

@at_every_warping
def test_case5_satisfying_and_violating(f):
    pc = walker_product(f=f)
    theta = mono(pc.base_chart, ("y1", "y2", "y3", "y4"))
    bg = assemble_flux(pc, FluxAnsatz(theta=theta))
    assert_case_matches_direct(bg, 5, True)

    theta_unclosed = mono(pc.base_chart, ("y1", "y2", "y3", "y4"), Polynomial.variable("y5"))
    bg_bad = assemble_flux(pc, FluxAnsatz(theta=theta_unclosed))
    assert_case_matches_direct(bg_bad, 5, False)

    theta_not_coclosed = mono(pc.base_chart, ("y1", "y2", "y3", "y4"), Polynomial.variable("y1"))
    bg_bad2 = assemble_flux(pc, FluxAnsatz(theta=theta_not_coclosed))
    assert_case_matches_direct(bg_bad2, 5, False)


# -- case 6 ---------------------------------------------------------------------

@at_every_warping
def test_case6_coupled_branch_from_computed_pair(f):
    rho = rho_flat()
    omega3 = DifferentialForm.monomial(rho.chart, ("x2", "x3", "x4"), Polynomial.variable("x2"))
    H = (Polynomial.variable("x1") ** 4 + Polynomial.variable("x2") ** 4) * Fraction(1, 12)
    built = build_alpha_beta_nu_background(rho, omega3, H).background
    a = built.ansatz
    pc = build_product(built.product.base, built.product.fiber, f)
    # the chain star beta_t = -d star alpha_t / c with c = (d star nu / vol) f^2
    beta_t = a.beta_t * (1 / Fraction(f) ** 2)
    bg = assemble_flux(pc, FluxAnsatz(alpha_t=a.alpha_t, beta_t=beta_t, nu=a.nu))
    result = assert_case_matches_direct(bg, 6, True)
    assert any(f"c = {-Fraction(f) ** 2}" in note for note in result.notes)


@at_every_warping
def test_case6_degenerate_branch(f):
    rho = rho_flat()
    x1, x2 = Polynomial.variable("x1"), Polynomial.variable("x2")
    harmonic3 = DifferentialForm.monomial(rho.chart, ("x1", "x3", "x4"), x1) + DifferentialForm.monomial(
        rho.chart, ("x2", "x3", "x4"), -x2
    )
    base = standard_base()
    nu = DifferentialForm.coordinate_differential(base.chart, "y1")
    fiber = walker_metric_from_rho(rho, quadratic_H(Fraction(1, 8)))
    pc = build_product(base, fiber, f)
    du = mono(fiber.chart, ("u",))
    from sugra11.exterior import lift_to_product

    alpha_t = wedge(du, lift_to_product(harmonic3, fiber.chart))
    beta_t = DifferentialForm.zero(fiber.chart, 3)
    bg = assemble_flux(pc, FluxAnsatz(alpha_t=alpha_t, beta_t=beta_t, nu=nu))
    result = assert_case_matches_direct(bg, 6, True)
    assert any("degenerate" in note for note in result.notes)


@at_every_warping
def test_case6_violating_mismatched_pair(f):
    rho = rho_flat()
    fiber = walker_metric_from_rho(rho, quadratic_H(Fraction(1, 8)))
    base = standard_base()
    pc = build_product(base, fiber, f)
    du = mono(fiber.chart, ("u",))
    omega3 = DifferentialForm.monomial(fiber.chart, ("x2", "x3", "x4"), Polynomial.variable("x2"))
    alpha_t = wedge(du, omega3)
    beta_t = wedge(du, mono(fiber.chart, ("x3", "x4")))  # sign-flipped partner
    nu = mono(base.chart, ("y1",), Polynomial.variable("y1"))
    bg = assemble_flux(pc, FluxAnsatz(alpha_t=alpha_t, beta_t=beta_t, nu=nu))
    result = assert_case_matches_direct(bg, 6, False)
    assert not result.residuals["costar_chain"].is_zero()


# -- case 7 ---------------------------------------------------------------------

@at_every_warping
def test_case7_coupled_branch(f):
    pc = walker_product(H=P0, f=f)
    fiber, base = pc.fiber, pc.base
    u, v = Polynomial.variable("u"), Polynomial.variable("v")
    varpi_t = mono(fiber.chart, ("v",), u) + mono(fiber.chart, ("u",), v)  # d(uv)
    assert ext_d(varpi_t).is_zero()
    d_star_varpi = ext_d(hodge_star(fiber, varpi_t))
    assert d_star_varpi == volume_form(fiber) * 2

    theta = mono(base.chart, ("y2", "y3", "y4", "y5"), Polynomial.variable("y2"))
    # the chain d(f^6 star theta) = 2 f^4 star epsilon
    target = ext_d(hodge_star(base, theta)) * (Fraction(f) ** 2 / 2)  # = star epsilon
    epsilon = hodge_star(base, target) * Fraction(-1)  # star star = -1 on base 2-forms
    assert hodge_star(base, epsilon) == target
    assert ext_d(epsilon).is_zero()
    bg = assemble_flux(pc, FluxAnsatz(varpi_t=varpi_t, epsilon=epsilon, theta=theta))
    result = assert_case_matches_direct(bg, 7, True)
    assert any("c = 2" in note for note in result.notes)


@at_every_warping
def test_case7_degenerate_branch(f):
    pc = walker_product(f=f)
    varpi_t = mono(pc.fiber_chart, ("u",))
    epsilon = mono(pc.base_chart, ("y1", "y2", "y3"))
    theta = mono(pc.base_chart, ("y1", "y2", "y3", "y4"))
    bg = assemble_flux(pc, FluxAnsatz(varpi_t=varpi_t, epsilon=epsilon, theta=theta))
    result = assert_case_matches_direct(bg, 7, True)
    assert any("degenerate" in note for note in result.notes)


@at_every_warping
def test_coupled_cases_note_a_nonconstant_multiple_of_vol(f):
    """d star nu = -2 y1 vol and d star varpi = 4u vol fit no coupling
    constant, and neither is zero, so no note calls the branch degenerate."""
    pc = walker_product(f=f)
    u, v, y1 = (Polynomial.variable(n) for n in ("u", "v", "y1"))
    nu = mono(pc.base_chart, ("y1",), y1 * y1)
    varpi_t = mono(pc.fiber_chart, ("u",), u * v * 2) + mono(pc.fiber_chart, ("v",), u * u)  # d(u^2 v)
    fixtures = {
        6: FluxAnsatz(alpha_t=mono(pc.fiber_chart, ("x1", "x2", "x3", "u")),
                      beta_t=mono(pc.fiber_chart, ("x3", "x4", "u")), nu=nu),
        7: FluxAnsatz(varpi_t=varpi_t, epsilon=mono(pc.base_chart, ("y1", "y2", "y3")),
                      theta=mono(pc.base_chart, ("y1", "y2", "y3", "y4"))),
    }
    for case, ansatz in fixtures.items():
        result = assert_case_matches_direct(assemble_flux(pc, ansatz), case, False)
        assert not any("degenerate" in note for note in result.notes), (case, result.notes)
        assert any("not a constant multiple of vol" in note for note in result.notes), (case, result.notes)


@at_every_warping
def test_case7_violating_scaled_theta(f):
    pc = walker_product(H=P0, f=f)
    fiber, base = pc.fiber, pc.base
    u, v = Polynomial.variable("u"), Polynomial.variable("v")
    varpi_t = mono(fiber.chart, ("v",), u) + mono(fiber.chart, ("u",), v)
    theta = mono(base.chart, ("y2", "y3", "y4", "y5"), Polynomial.variable("y2"))
    target = ext_d(hodge_star(base, theta)) * (Fraction(f) ** 2 / 2)
    epsilon = hodge_star(base, target) * Fraction(-1)
    bg = assemble_flux(
        pc, FluxAnsatz(varpi_t=varpi_t, epsilon=epsilon, theta=theta * Fraction(2))
    )
    assert_case_matches_direct(bg, 7, False)


# -- case 8 ---------------------------------------------------------------------

@at_every_warping
def test_case8_each_piece_alone_passes(f):
    pc = walker_product(f=f)
    du = mono(pc.fiber_chart, ("u",))
    alpha_t = wedge(du, mono(pc.fiber_chart, ("x2", "x3", "x4")))
    theta = mono(pc.base_chart, ("y1", "y2", "y3", "y4"))
    zero_theta = DifferentialForm.zero(pc.base_chart, 4)
    zero_alpha = DifferentialForm.zero(pc.fiber_chart, 4)

    bg_alpha = assemble_flux(pc, FluxAnsatz(alpha_t=alpha_t, theta=zero_theta))
    assert_case_matches_direct(bg_alpha, 8, True)

    bg_theta = assemble_flux(pc, FluxAnsatz(alpha_t=zero_alpha, theta=theta))
    assert_case_matches_direct(bg_theta, 8, True)


@at_every_warping
def test_case8_both_pieces_fail(f):
    pc = walker_product(f=f)
    du = mono(pc.fiber_chart, ("u",))
    alpha_t = wedge(du, mono(pc.fiber_chart, ("x2", "x3", "x4")))
    theta = mono(pc.base_chart, ("y1", "y2", "y3", "y4"))
    bg = assemble_flux(pc, FluxAnsatz(alpha_t=alpha_t, theta=theta))
    result = assert_case_matches_direct(bg, 8, False)
    assert not result.residuals["alpha_t_wedge_theta"].is_zero()


# -- case 9 ---------------------------------------------------------------------

@at_every_warping
def test_case9_reduction_to_varpi_epsilon(f):
    pc, base, fiber = line_product(f=f)
    du = mono(fiber.chart, ("u",))
    omega = mono(fiber.chart, ("x1", "x2"))
    beta_t = wedge(du, omega)
    zero_nu = DifferentialForm.zero(base.chart, 1)
    varpi_t = mono(fiber.chart, ("u",))
    omega_p = mono(base.chart, ("z1", "z2")) + mono(base.chart, ("z3", "z4"))
    epsilon = wedge(omega_p, mono(base.chart, ("t",)))
    bg = assemble_flux(
        pc, FluxAnsatz(beta_t=beta_t, nu=zero_nu, varpi_t=varpi_t, epsilon=epsilon)
    )
    assert_case_matches_direct(bg, 9, True)


@at_every_warping
def test_case9_nonzero_nu_fails(f):
    base = standard_base()
    fiber = walker_metric_from_rho(rho_flat(), quadratic_H(Fraction(1, 8)))
    pc = build_product(base, fiber, f)
    beta_t = mono(fiber.chart, ("x1", "x2", "x3"))
    nu = mono(base.chart, ("y1",), Polynomial.variable("y1"))
    varpi_t = mono(fiber.chart, ("x4",))
    epsilon = mono(base.chart, ("y2", "y3", "y4"))
    bg = assemble_flux(pc, FluxAnsatz(beta_t=beta_t, nu=nu, varpi_t=varpi_t, epsilon=epsilon))
    result = assert_case_matches_direct(bg, 9, False)
    assert not result.residuals["nu_must_vanish"].is_zero()


# -- a zero factor --------------------------------------------------------------

@at_every_warping
def test_a_zero_factor_constrains_neither_piece_of_its_type(f):
    """A type with a zero factor adds nothing to F, so its partner is free and
    the other types get the system of their own shape."""
    pc, base, fiber = line_product(f=f)
    wpc = walker_product(f=f)
    flat = walker_product(H=P0, f=f)
    y1, y2, x3 = (Polynomial.variable(n) for n in ("y1", "y2", "x3"))
    kaehler = mono(base.chart, ("z1", "z2")) + mono(base.chart, ("z3", "z4"))
    zero = DifferentialForm.zero
    fixtures = {
        2: (wpc, FluxAnsatz(beta_t=zero(wpc.fiber_chart, 3), nu=mono(wpc.base_chart, ("y1",), y2))),
        3: (flat, FluxAnsatz(gamma_t=mono(flat.fiber_chart, ("x1", "x2"), x3),
                             delta=zero(flat.base_chart, 2))),
        4: (pc, FluxAnsatz(varpi_t=mono(fiber.chart, ("x1",), Polynomial.variable("x2")),
                           epsilon=zero(base.chart, 3))),
        6: (wpc, FluxAnsatz(alpha_t=wedge(mono(wpc.fiber_chart, ("u",)),
                                          mono(wpc.fiber_chart, ("x2", "x3", "x4"))),
                            beta_t=zero(wpc.fiber_chart, 3),
                            nu=mono(wpc.base_chart, ("y1",), y1 * y1))),
        7: (pc, FluxAnsatz(varpi_t=zero(fiber.chart, 1),
                           epsilon=mono(base.chart, ("z1", "z2", "t"), Polynomial.variable("z3")),
                           theta=mono(base.chart, ("z1", "z2", "z3", "z4")))),
        9: (pc, FluxAnsatz(beta_t=zero(fiber.chart, 3), nu=mono(base.chart, ("t",)),
                           varpi_t=mono(fiber.chart, ("u",)),
                           epsilon=wedge(kaehler, mono(base.chart, ("t",))))),
    }
    notes = {
        2: "beta_t ^ nu is zero and adds nothing to F: nothing is imposed",
        3: "gamma_t ^ delta is zero and adds nothing to F: nothing is imposed",
        4: "varpi_t ^ epsilon is zero and adds nothing to F: nothing is imposed",
        6: "beta_t ^ nu is zero: degenerate branch, the 4-form piece must be co-closed on its own",
        7: "d star varpi = 0: degenerate branch, the base 4-form must be co-closed on its own",
        9: "beta_t ^ nu is zero and adds nothing to F: the conditions are those of case 4",
    }
    for case, (product, ansatz) in fixtures.items():
        result = assert_case_matches_direct(assemble_flux(product, ansatz), case, True)
        assert result.notes == [notes[case]]
        if case == 6:
            assert list(result.residuals) == ["d_alpha_t", "d_star_alpha_t"]


# -- shape validation -------------------------------------------------------------

def test_case_shape_mismatch_raises():
    pc = walker_product()
    theta = mono(pc.base_chart, ("y1", "y2", "y3", "y4"))
    bg = assemble_flux(pc, FluxAnsatz(theta=theta))
    with pytest.raises(CaseShapeError):
        check_special_case(bg, 1)
    with pytest.raises(CaseShapeError):
        check_special_case(bg, 10)


@pytest.mark.parametrize("case, missing", [(6, "['beta_t', 'nu']"), (7, "['theta']")])
def test_case_names_the_pieces_the_ansatz_lacks(case, missing):
    pc, base, fiber = line_product()
    if case == 6:
        alpha_t = wedge(mono(fiber.chart, ("u",)), mono(fiber.chart, ("x2", "x3", "x4")))
        flux = FluxAnsatz(alpha_t=alpha_t)
    else:
        flux = FluxAnsatz(varpi_t=mono(fiber.chart, ("u",)),
                          epsilon=mono(base.chart, ("z1", "z2", "t")))
    bg = assemble_flux(pc, flux)
    with pytest.raises(CaseShapeError, match=rf"case {case} needs pieces {re.escape(missing)}"):
        check_special_case(bg, case)


def test_case3_on_a_five_dimensional_fiber_names_the_dimension():
    # case 3 pairs d star F with 1/2 F^F at fiber degree 4, which needs a 6-dimensional fiber
    base = walker_metric_from_rho(rho_flat(), quadratic_H(Fraction(1, 8)))
    fiber = standard_base()
    pc = build_product(base, fiber, 2)
    gamma_t = mono(fiber.chart, ("y1", "y2")) + mono(fiber.chart, ("y3", "y4"))
    delta = mono(base.chart, ("x1", "x2")) + mono(base.chart, ("x3", "x4"))
    bg = assemble_flux(pc, FluxAnsatz(gamma_t=gamma_t, delta=delta))
    with pytest.raises(CaseShapeError, match="case 3 needs a 6-dimensional fiber, got a 5-dimensional one"):
        check_special_case(bg, 3)
