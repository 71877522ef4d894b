#!/usr/bin/env python3
"""Drive every explicit background family through the exact engine.

Prints, for each family: the characterizing Laplacian condition, the
three field-equation verdicts, and any nonzero residual entries.  The
coupled family is run twice, on the literal data (where the Einstein
uu-entry cannot vanish on the product chart) and on the corrected
constant-length variant.  The base-only flux theta = star eta runs
through the theta theorem, whose base Ricci identity holds the
almost-cosymplectic obstruction.

Run from the repository root:  python3 scripts/verify_solution_families.py
"""

from fractions import Fraction

from sugra11.cases import check_special_case
from sugra11.curvature import is_totally_ricci_isotropic
from sugra11.exterior import Chart, DifferentialForm, exterior_derivative as d
from sugra11.fieldeqs import (
    FluxAnsatz,
    assemble_flux,
    check_closedness,
    check_einstein,
    check_maxwell,
)
from sugra11.metric import hodge_star, make_metric
from sugra11.polyring import Polynomial
from sugra11.product import build_product
from sugra11.solutions import (
    build_alpha_background,
    build_alpha_beta_nu_background,
    build_beta_nu_background,
    build_varpi_epsilon_background,
    check_theorem_conditions,
    flat_negative_metric,
    append_line_factor,
    standard_base,
)


def rho_flat():
    return flat_negative_metric(Chart("n4", ("x1", "x2", "x3", "x4")))


def quadratic_H(coeff):
    return sum(
        (Polynomial.variable(f"x{i}") ** 2 * Fraction(coeff) for i in range(1, 5)),
        Polynomial.zero(),
    )


def mono(chart, names, coeff=None):
    return DifferentialForm.monomial(
        chart, names, coeff if coeff is not None else Polynomial.constant(1)
    )


def report(label, build):
    checks = [
        check_closedness(build.background),
        check_maxwell(build.background),
        check_einstein(build.background),
    ]
    verdicts = ", ".join(
        f"{c.name}={'PASS' if c.passed else 'FAIL'}" for c in checks
    )
    cond = "PASS" if build.conditions.passed else "FAIL"
    print(f"{label}: conditions={cond}; {verdicts}")
    for c in checks + [build.conditions]:
        for where, value in c.nonzero_entries():
            print(f"    residual {where} = {value}")
    return checks


def main():
    rho = rho_flat()

    print("== flux du^theta (null fiber 4-form) ==")
    report(
        "H = 1/8 sum x_i^2, theta = dx2^dx3^dx4",
        build_alpha_background(rho, mono(rho.chart, ("x2", "x3", "x4")), quadratic_H(Fraction(1, 8))),
    )

    print("\n== flux (du^omega)^dt (null fiber 3-form, unit base 1-form) ==")
    omega = mono(rho.chart, ("x1", "x2")) + mono(rho.chart, ("x3", "x4"))
    report(
        "H = 1/4 sum x_i^2, omega the flat Kaehler form",
        build_beta_nu_background(rho, omega, quadratic_H(Fraction(1, 4))),
    )

    print("\n== flux du^(omega^dt) (null fiber 1-form, base 3-form of norm -2) ==")
    build = build_varpi_epsilon_background(rho, quadratic_H(Fraction(1, 4)))
    report("H = 1/4 sum x_i^2", build)
    ok, _ = is_totally_ricci_isotropic(build.background.metric)
    print(f"    totally Ricci isotropic: {ok}")

    print("\n== coupled flux du^W + (du^w)^nu, w computed as star d star W ==")
    x1, x2 = Polynomial.variable("x1"), Polynomial.variable("x2")
    H = (x1 ** 4 + x2 ** 4) * Fraction(1, 12)
    literal = build_alpha_beta_nu_background(
        rho, DifferentialForm.monomial(rho.chart, ("x2", "x3", "x4"), x2), H
    )
    print(f"  computed partner 2-form: {literal.derived['omega2']}")
    case = check_special_case(literal.background, 6)
    print(f"  coupled chain: {'PASS' if case.passed else 'FAIL'}")
    for note in case.notes:
        print(f"    note: {note}")
    report("literal data (W = x2 dx2^dx3^dx4, nu = y1 dy1)", literal)

    base = standard_base()
    corrected = build_alpha_beta_nu_background(
        rho,
        DifferentialForm.monomial(rho.chart, ("x1", "x3", "x4"), x1)
        + DifferentialForm.monomial(rho.chart, ("x2", "x3", "x4"), -x2),
        H,
        base=base,
        nu=DifferentialForm.coordinate_differential(base.chart, "y1"),
    )
    report("corrected data (harmonic W, constant-length nu)", corrected)

    print("\n== base-only flux theta = star eta on an almost-cosymplectic product ==")
    product_base = append_line_factor(flat_negative_metric(Chart("b4", ("z1", "z2", "z3", "z4"))))
    lorentz = make_metric(
        Chart("l6s", ("w0", "w1", "w2", "w3", "w4", "w5")),
        [
            [
                Polynomial.constant(1 if i == j == 0 else (-1 if i == j else 0))
                for j in range(6)
            ]
            for i in range(6)
        ],
        signature=(1, 5),
    )
    eta = DifferentialForm.coordinate_differential(product_base.chart, "t")
    theta = hodge_star(product_base, eta)
    bg = assemble_flux(build_product(product_base, lorentz, 1), FluxAnsatz(theta=theta))
    # d eta, d star eta = d theta and d star theta
    closed = all(d(form).is_zero() for form in (eta, theta, hodge_star(product_base, theta)))
    identity = check_theorem_conditions(bg, "theta").hypotheses.residuals["base_ricci_identity"]
    t = product_base.chart.index_of("t")
    print(f"  closure side: {'PASS' if closed else 'FAIL'}")
    print(
        "  Einstein-side identity at (t,t): residual ="
        f" {identity[t][t]} (the obstruction)"
    )


if __name__ == "__main__":
    main()
