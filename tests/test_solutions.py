"""Structural theorem checkers and the base-only flux theta = star eta."""

import random
import re
from fractions import Fraction

import pytest

from sugra11.curvature import is_totally_ricci_isotropic
from sugra11.exterior import (
    Chart,
    ChartError,
    DifferentialForm,
    exterior_derivative as ext_d,
)
from sugra11.fieldeqs import (
    FluxAnsatz,
    assemble_flux,
    check_closedness,
    check_einstein,
    check_maxwell,
)
from sugra11.metric import hodge_star, make_metric, norm_sq
from sugra11.polyring import Polynomial, parse_polynomial
from sugra11.product import build_product
from sugra11.solutions import (
    _build_family,
    append_line_factor,
    build_alpha_background,
    build_alpha_beta_nu_background,
    build_beta_nu_background,
    build_varpi_epsilon_background,
    check_theorem_conditions,
    flat_negative_metric,
    standard_base,
    walker_metric_from_rho,
)

from test_cases import mono, quadratic_H, rho_flat, walker_product
from test_exterior import random_polynomial
from test_metric import diag


# -- family builders ------------------------------------------------------------------

def family_builds():
    """(label, build) over each family's inputs, passing and failing."""
    rho = rho_flat()
    c = rho.chart
    x1, x2 = Polynomial.variable("x1"), Polynomial.variable("x2")
    kaehler = mono(c, ("x1", "x2")) + mono(c, ("x3", "x4"))
    p4 = flat_negative_metric(Chart("p4", ("z1", "z2", "z3", "z4")))
    doubled = (mono(p4.chart, ("z1", "z2")) + mono(p4.chart, ("z3", "z4"))) * 2
    quartic = (x1 ** 4 + x2 ** 4) * Fraction(1, 12)
    base = standard_base()
    theta = mono(c, ("x2", "x3", "x4"))
    eighth, quarter = quadratic_H(Fraction(1, 8)), quadratic_H(Fraction(1, 4))
    yield "alpha", build_alpha_background(rho, theta, eighth)
    yield "alpha wrong H", build_alpha_background(rho, theta, quarter)
    yield "alpha unclosed", build_alpha_background(rho, mono(c, ("x2", "x3", "x4"), x1), eighth)
    yield "beta_nu", build_beta_nu_background(rho, kaehler, quarter)
    yield "beta_nu weighted", build_beta_nu_background(rho, mono(c, ("x1", "x2"), x1), quarter)
    yield "varpi_epsilon", build_varpi_epsilon_background(rho, quarter)
    yield "varpi_epsilon wrong H", build_varpi_epsilon_background(rho, eighth)
    yield "varpi_epsilon doubled", build_varpi_epsilon_background(rho, quadratic_H(1), p4, doubled)
    yield "varpi_epsilon doubled wrong H", build_varpi_epsilon_background(rho, quarter, p4, doubled)
    yield "alpha_beta_nu literal", build_alpha_beta_nu_background(
        rho, mono(c, ("x2", "x3", "x4"), x2), quartic)
    yield "alpha_beta_nu corrected", build_alpha_beta_nu_background(
        rho, mono(c, ("x1", "x3", "x4"), x1) + mono(c, ("x2", "x3", "x4"), -x2), quartic,
        base=base, nu=DifferentialForm.coordinate_differential(base.chart, "y1"))
    # nu = 2 dt, so |nu|^2 = -4, with H to match; the beta_nu builder fixes nu = dt
    line_base = append_line_factor(p4)
    yield "beta_nu rescaled", _build_family(
        "beta_nu", rho, quadratic_H(1), line_base, {"beta_t": kaehler},
        {"nu": DifferentialForm.coordinate_differential(line_base.chart, "t") * 2})


def test_family_conditions_hold_exactly_when_the_field_equations_do():
    verdicts = {}
    for label, build in family_builds():
        bg = build.background
        solves = all(check(bg).passed
                     for check in (check_closedness, check_maxwell, check_einstein))
        assert build.conditions.passed == solves, (label, build.conditions.nonzero_entries())
        verdicts[label] = solves
    assert [label for label, solves in verdicts.items() if solves] == [
        "alpha", "beta_nu", "varpi_epsilon", "varpi_epsilon doubled", "alpha_beta_nu corrected",
        "beta_nu rescaled"]


# a 2-form and a 3-form on the transverse chart
W2, W3 = mono(rho_flat().chart, ("x1", "x2")), mono(rho_flat().chart, ("x2", "x3", "x4"))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: walker_metric_from_rho(rho_flat(), Polynomial.variable("y1")),
                 "H may depend only on the transverse block and u, got ['y1']", id="H_off_the_fiber"),
    pytest.param(lambda: build_alpha_background(rho_flat(), W2, quadratic_H(1)),
                 "theta_n must be a 3-form on the transverse chart", id="alpha_theta_of_degree_2"),
    pytest.param(lambda: build_beta_nu_background(rho_flat(), W3, quadratic_H(1)),
                 "omega_n must be a 2-form on the transverse chart", id="beta_nu_omega_of_degree_3"),
    pytest.param(lambda: build_varpi_epsilon_background(rho_flat(), quadratic_H(1), kaehler_omega=W2),
                 "kaehler_omega must be a 2-form on the p-chart", id="varpi_epsilon_kaehler_off_the_p_chart"),
    pytest.param(lambda: build_alpha_beta_nu_background(rho_flat(), W2, quadratic_H(1)),
                 "the 3-form piece must live on the transverse chart", id="alpha_beta_nu_W_of_degree_2"),
])
def test_family_builder_input_guard_raises_chart_error(call, message):
    with pytest.raises(ChartError) as info:
        call()
    assert type(info.value) is ChartError and str(info.value) == message


# -- theorem checkers ---------------------------------------------------------------

def test_theorem_hypotheses_hold_exactly_when_the_field_equations_do():
    for label, build in family_builds():
        bg = build.background
        # "alpha_beta_nu corrected" has omega2 = 0, so its flux has the alpha shape
        shape = "alpha" if bg.ansatz.present() == ("alpha_t",) else label.split()[0]
        report = check_theorem_conditions(bg)
        assert report.hypotheses.name == f"theorem_{shape}_hypotheses"
        solves = all(check(bg).passed
                     for check in (check_closedness, check_maxwell, check_einstein))
        assert report.hypotheses.passed == solves, (label, report.hypotheses.nonzero_entries())
        assert report.reproduced, label


def test_theorem_alpha_reproduced_on_walker_family():
    build = build_alpha_background(
        rho_flat(), mono(rho_flat().chart, ("x2", "x3", "x4")), quadratic_H(Fraction(1, 8))
    )
    report = check_theorem_conditions(build.background)
    assert report.hypotheses.passed
    assert report.reproduced
    assert all(r.passed for r in report.equations)


def test_theorem_alpha_hypothesis_failure_detected():
    # wrong potential: the fiber Ricci identity residual localizes at (u, u)
    build = build_alpha_background(
        rho_flat(), mono(rho_flat().chart, ("x2", "x3", "x4")), quadratic_H(Fraction(1, 4))
    )
    report = check_theorem_conditions(build.background)
    assert not report.hypotheses.passed
    res = report.hypotheses.residuals["fiber_ricci_identity"]
    u = build.background.product.fiber.chart.index_of("u")
    assert not res[u][u].is_zero()
    assert report.reproduced  # implication is vacuous here


def test_theorem_beta_nu_reproduced():
    rho = rho_flat()
    omega = mono(rho.chart, ("x1", "x2")) + mono(rho.chart, ("x3", "x4"))
    build = build_beta_nu_background(rho, omega, quadratic_H(Fraction(1, 4)))
    report = check_theorem_conditions(build.background)
    assert report.hypotheses.passed
    assert report.reproduced


def test_theorem_varpi_epsilon_reproduced_and_ricci_isotropic():
    build = build_varpi_epsilon_background(rho_flat(), quadratic_H(Fraction(1, 4)))
    report = check_theorem_conditions(build.background)
    assert report.hypotheses.passed
    assert report.reproduced
    ok, _ = is_totally_ricci_isotropic(build.background.metric)
    assert ok


def test_theorem_varpi_epsilon_ricci_identity_needs_right_potential():
    build = build_varpi_epsilon_background(rho_flat(), quadratic_H(Fraction(1, 8)))
    report = check_theorem_conditions(build.background)
    res = report.hypotheses.residuals["fiber_ricci_identity"]
    u = build.background.product.fiber.chart.index_of("u")
    # Ric_uu = 1/2 here while the source demands 1: residual -1/2
    assert res[u][u] == Polynomial.constant(Fraction(-1, 2))
    assert report.reproduced


def test_theorem_alpha_beta_nu_on_literal_family():
    rho = rho_flat()
    omega3 = DifferentialForm.monomial(rho.chart, ("x2", "x3", "x4"), Polynomial.variable("x2"))
    H = (Polynomial.variable("x1") ** 4 + Polynomial.variable("x2") ** 4) * Fraction(1, 12)
    build = build_alpha_beta_nu_background(rho, omega3, H)
    report = check_theorem_conditions(build.background)
    # the gauge-side hypotheses hold with extracted coupling -1; the fiber
    # Ricci identity cannot hold on the literal product chart
    assert any("c = -1" in n for n in report.hypotheses.notes)
    assert not report.hypotheses.passed
    res = report.hypotheses.residuals["fiber_ricci_identity"]
    u = build.background.product.fiber.chart.index_of("u")
    x1, y1 = Polynomial.variable("x1"), Polynomial.variable("y1")
    assert res[u][u] == (x1 * x1 - y1 * y1) * Fraction(1, 2)
    assert report.reproduced  # vacuously


def test_theorem_alpha_beta_nu_orthogonality_residual_per_fiber_coordinate():
    # <i_c alpha_t, beta_t> is nonzero only at c = x2: i_x2 alpha_t = x1 dx3^dx4^du
    # pairs with beta_t's dv^dx3^dx4 through g^uv
    base, fiber = standard_base(), walker_metric_from_rho(rho_flat(), Polynomial.zero())
    t = fiber.chart
    x1, x2 = Polynomial.variable("x1"), Polynomial.variable("x2")
    ansatz = FluxAnsatz(
        alpha_t=mono(t, ("u", "x2", "x3", "x4"), x1),
        beta_t=mono(t, ("v", "x3", "x4")) + mono(t, ("u", "x1", "x3"), x2),
        nu=DifferentialForm.coordinate_differential(base.chart, "y1"),
    )
    bg = assemble_flux(build_product(base, fiber, 1), ansatz)
    entries = check_theorem_conditions(bg).hypotheses.nonzero_entries()
    assert [e for e in entries if e[0].startswith("alpha_beta_orthogonality")] == [
        ("alpha_beta_orthogonality.i_x2", parse_polynomial("-x1"))
    ]


def test_theorem_shape_validation():
    # case 3 has no structural theorem, and gamma_t ^ delta + theta is no case at all
    pc = walker_product()
    gamma_t, delta = mono(pc.fiber_chart, ("x1", "x2")), mono(pc.base_chart, ("y1", "y2"))
    theta = mono(pc.base_chart, ("y1", "y2", "y3", "y4"))
    for flux, pieces in ((FluxAnsatz(gamma_t=gamma_t, delta=delta), "['gamma_t', 'delta']"),
                         (FluxAnsatz(gamma_t=gamma_t, delta=delta, theta=theta),
                          "['gamma_t', 'delta', 'theta']")):
        with pytest.raises(ValueError, match=re.escape(f"no theorem for these pieces: {pieces}")):
            check_theorem_conditions(assemble_flux(pc, flux))


# -- base-only flux theta = star eta ------------------------------------------------------

def lorentz_flat6():
    return make_metric(
        Chart("l6c", ("w0", "w1", "w2", "w3", "w4", "w5")),
        diag(1, -1, -1, -1, -1, -1),
        signature=(1, 5),
    )


def theta_background(base, eta):
    """F = theta := star eta on base x flat Lorentzian fiber, at f = 1."""
    pc = build_product(base, lorentz_flat6(), 1)
    return assemble_flux(pc, FluxAnsatz(theta=hodge_star(base, eta)))


def test_base_flux_closed_coclosed_equivalence_random():
    # star star = -1 on 1-forms of a negative-definite 5-dimensional base, so
    # theta is closed and co-closed exactly when eta is: d star theta = -d eta
    names = ("y1", "y2", "y3", "y4", "y5")
    for seed, base in ((11, flat_negative_metric(Chart("ab5", names))), (19, standard_base())):
        rng = random.Random(seed)
        for _ in range(12):
            comps = {}
            for i in range(5):
                p = random_polynomial(rng, base.chart.coordinates, max_deg=2, terms=2)
                if not p.is_zero():
                    comps[(i,)] = p
            eta = DifferentialForm(base.chart, 1, comps)
            theta = hodge_star(base, eta)
            assert ext_d(theta) == ext_d(hodge_star(base, eta))
            assert ext_d(hodge_star(base, theta)) == -ext_d(eta)
            assert not ext_d(eta).is_zero()


def test_base_flux_harmonic_gradient_is_closed_and_coclosed():
    base = standard_base()
    f = Polynomial.variable("y1") * Polynomial.variable("y2")
    eta = ext_d(DifferentialForm.function(base.chart, f))
    theta = hodge_star(base, eta)
    assert ext_d(eta).is_zero()
    assert ext_d(hodge_star(base, eta)).is_zero()
    assert ext_d(theta).is_zero()
    assert ext_d(hodge_star(base, theta)).is_zero()
    # closedness and gauge equation hold on the assembled background, and the
    # theta theorem's closure and co-closure hypotheses with them
    bg = theta_background(base, eta)
    assert check_closedness(bg).passed
    assert check_maxwell(bg).passed
    hypotheses = check_theorem_conditions(bg).hypotheses.residuals
    assert hypotheses["d_theta"].is_zero() and hypotheses["d_f6_star_theta"].is_zero()


def test_base_flux_unit_one_form_obstruction_is_one_sixth():
    # flat product base with eta = dt: the Einstein-side identity demands
    # a Ricci value the product cannot have; the (t,t) residual is exactly 1/6
    base = append_line_factor(flat_negative_metric(Chart("b4", ("z1", "z2", "z3", "z4"))))
    eta = mono(base.chart, ("t",))
    theta = hodge_star(base, eta)
    report = check_theorem_conditions(theta_background(base, eta))
    t = base.chart.index_of("t")
    identity = report.hypotheses.residuals["base_ricci_identity"]
    assert identity[t][t] == Polynomial.constant(Fraction(1, 6))
    assert norm_sq(base, theta) == Polynomial.constant(1)
    # the closure side is perfectly fine: the obstruction is Einstein-only
    for form in (eta, theta, hodge_star(base, theta)):
        assert ext_d(form).is_zero()
    assert not report.hypotheses.passed and report.reproduced
