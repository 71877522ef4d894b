"""Acceptance suite: one test per criterion, zero tolerance throughout.

Every check here is an exact polynomial identity; the pass line printed
by each test names the criterion it certifies.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
from fractions import Fraction
from pathlib import Path

from sugra11.cases import check_special_case
from sugra11.cli import EXIT_ERROR, EXIT_FAIL, EXIT_PASS, main
from sugra11.curvature import (
    is_totally_ricci_isotropic,
    laplace_beltrami,
    ricci,
)
from sugra11.exterior import (
    Chart,
    DifferentialForm,
    exterior_derivative as d,
    interior_product,
    wedge,
)
from sugra11.fieldeqs import (
    FluxAnsatz,
    assemble_flux,
    check_closedness,
    check_einstein,
    check_maxwell,
    einstein_residual_matrix,
    flux_norm_sq,
)
from sugra11.metric import hodge_star, inner_product_forms, make_metric, norm_sq, volume_form
from sugra11.polyring import Polynomial
from sugra11.product import build_product
from sugra11.solutions import (
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

from oracles import warped_ricci_oracle
from test_cases import mono, quadratic_H, rho_flat
from test_exterior import random_form
from test_fieldeqs import full_ansatz_background
from test_metric import diag
from test_product import _random_unimodular_metric

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"
P0 = Polynomial.zero()
P1 = Polynomial.constant(1)


def _flat56():
    base = make_metric(
        Chart("ab5", ("y1", "y2", "y3", "y4", "y5")), diag(-1, -1, -1, -1, -1), signature=(0, 5)
    )
    fiber = make_metric(
        Chart("af6", ("w0", "w1", "w2", "w3", "w4", "w5")),
        diag(1, -1, -1, -1, -1, -1),
        signature=(1, 5),
    )
    return base, fiber


def test_criterion_01_warp_scaling_laws():
    """Warped inner-product and dual laws on a 5+6 chart, f in {1, 2}."""
    base, fiber = _flat56()
    rng = random.Random(101)
    cases = 0
    for f in (1, 2):
        pc = build_product(base, fiber, f)
        h = pc.assembled
        while cases < 28 * (1 if f == 1 else 2):
            kt = rng.randint(1, 4)
            k = rng.randint(1, min(4, 7 - kt))
            a = random_form(rng, fiber.chart, kt, terms=2)
            b = random_form(rng, base.chart, k, terms=2)
            la, lb = pc.lift(a), pc.lift(b)
            ab = wedge(la, lb)
            lhs_norm = inner_product_forms(h, ab, ab)
            rhs_norm = (
                inner_product_forms(fiber, a, a)
                * inner_product_forms(base, b, b)
                * Fraction(f) ** (-2 * kt)
            )
            assert lhs_norm == rhs_norm
            lhs_star = hodge_star(h, ab)
            scale = Fraction(f) ** (6 - 2 * kt) * (-1) ** (k * (6 - kt))
            rhs_star = (
                wedge(pc.lift(hodge_star(fiber, a)), pc.lift(hodge_star(base, b))) * scale
            )
            assert lhs_star == rhs_star
            cases += 1
    assert cases >= 50
    print(f"criterion 1 PASS: warp scaling laws exact on {cases} random cases")


def test_criterion_02_block_expansions_full_ansatz():
    """star F, 1/2 F^F, and |F|^2 block formulas match direct computation."""
    bg = full_ansatz_background(f=1, monomial=True)
    check_maxwell(bg)  # raises EngineInconsistency when a block law fails
    direct, block = flux_norm_sq(bg)
    assert direct == block
    print("criterion 2 PASS: block expansions of star F, F^F, |F|^2 exact (f = 1)")


def test_criterion_03_closedness_equivalence():
    """Six-equation system equivalent to dF = 0 on randomized instances."""
    satisfied = violated = 0
    for seed in range(16):
        bg = full_ansatz_background(monomial=False, seed=seed)
        result = check_closedness(bg)
        system_zero = all(v.is_zero() for k, v in result.residuals.items() if k != "dF")
        assert system_zero == result.residuals["dF"].is_zero()
        if system_zero:
            satisfied += 1
        else:
            violated += 1
    # randomized satisfying instances: every piece is exact, hence closed
    base, fiber = _flat56()
    pc = build_product(base, fiber, 1)
    rng = random.Random(303)
    for _ in range(8):
        ansatz = FluxAnsatz(
            alpha_t=d(random_form(rng, fiber.chart, 3, terms=2)),
            beta_t=d(random_form(rng, fiber.chart, 2, terms=2)),
            gamma_t=d(random_form(rng, fiber.chart, 1, terms=2)),
            varpi_t=d(random_form(rng, fiber.chart, 0, terms=2)),
            nu=d(random_form(rng, base.chart, 0, terms=2)),
            delta=d(random_form(rng, base.chart, 1, terms=2)),
            epsilon=d(random_form(rng, base.chart, 2, terms=2)),
            theta=d(random_form(rng, base.chart, 3, terms=2)),
        )
        bg = assemble_flux(pc, ansatz)
        result = check_closedness(bg)
        assert result.passed
        satisfied += 1
    assert violated >= 1 and satisfied >= 8
    print(
        f"criterion 3 PASS: closedness system == dF residual on "
        f"{satisfied + violated} instances ({violated} violating, {satisfied} satisfying)"
    )


def test_criterion_04_special_case_systems():
    """Case conditions are equivalent to closedness + gauge on fixtures 1-9."""
    import test_cases as tc

    fixtures = [
        tc.test_case1_satisfying_and_violating,
        tc.test_case2_satisfying_and_violating,
        tc.test_case3_decomposable_branch,
        tc.test_case3_generic_branch_has_no_real_solution,
        tc.test_case4_satisfying_and_violating,
        tc.test_case5_satisfying_and_violating,
        tc.test_case6_coupled_branch_from_computed_pair,
        tc.test_case6_degenerate_branch,
        tc.test_case6_violating_mismatched_pair,
        tc.test_case7_coupled_branch,
        tc.test_case7_degenerate_branch,
        tc.test_case7_violating_scaled_theta,
        tc.test_case8_each_piece_alone_passes,
        tc.test_case8_both_pieces_fail,
        tc.test_case9_reduction_to_varpi_epsilon,
        tc.test_case9_nonzero_nu_fails,
    ]
    for fixture in fixtures:
        fixture()
    print("criterion 4 PASS: cases (1)-(9) conditions match direct residuals both ways")


def test_criterion_05_walker_ricci_single_entry():
    """Walker metrics have Ric_uu = -1/2 Lap H as the only nonzero entry."""
    quartic = (Polynomial.variable("x1") ** 4 + Polynomial.variable("x2") ** 4) * Fraction(1, 12)
    for H in (quadratic_H(Fraction(1, 8)), quadratic_H(Fraction(1, 4)), quartic):
        rho = rho_flat()
        m = walker_metric_from_rho(rho, H)
        ric = ricci(m)
        u = m.chart.index_of("u")
        expect = laplace_beltrami(rho, H) * Fraction(-1, 2)
        assert ric[u][u] == expect
        for i in range(6):
            for j in range(6):
                if (i, j) != (u, u):
                    assert ric[i][j].is_zero()
    print("criterion 5 PASS: Walker Ricci is the single entry -1/2 Lap H (quadratic, quartic)")


def test_criterion_06_block_ricci_oracle():
    """Direct Ricci of assembled products equals the block-formula oracle."""
    rng = random.Random(606)
    checked = 0
    for f in (1, 2):
        for trial in range(2):
            base = _random_unimodular_metric(
                rng, Chart(f"ob{f}{trial}", ("y1", "y2", "y3", "y4", "y5")), False
            )
            fiber = _random_unimodular_metric(
                rng, Chart(f"of{f}{trial}", ("w0", "w1", "w2", "w3", "w4", "w5")), True
            )
            pc = build_product(base, fiber, f)
            direct = ricci(pc.assembled)
            oracle = warped_ricci_oracle(pc)
            for i in range(11):
                for j in range(11):
                    assert direct[i][j] == oracle[i][j]
            checked += 1
    print(f"criterion 6 PASS: block Ricci oracle exact on {checked} random products, f in {{1,2}}")


def test_criterion_07_alpha_family_end_to_end():
    """du^theta flux on a Walker product with H = 1/8 sum x_i^2."""
    rho = rho_flat()
    theta = mono(rho.chart, ("x2", "x3", "x4"))
    H = quadratic_H(Fraction(1, 8))
    build = build_alpha_background(rho, theta, H)
    assert laplace_beltrami(rho, H) == norm_sq(rho, theta) == Polynomial.constant(-1)
    assert build.conditions.passed
    for check in (check_closedness, check_maxwell, check_einstein):
        assert check(build.background).passed
    print("criterion 7 PASS: du^theta family: Lap H = |theta|^2 and all residuals zero")


def test_criterion_08_beta_nu_family_end_to_end():
    """(du^omega)^dt flux with the flat Kaehler 2-form, H = 1/4 sum x_i^2."""
    rho = rho_flat()
    omega = mono(rho.chart, ("x1", "x2")) + mono(rho.chart, ("x3", "x4"))
    assert norm_sq(rho, omega) == Polynomial.constant(2)
    H = quadratic_H(Fraction(1, 4))
    build = build_beta_nu_background(rho, omega, H)
    assert laplace_beltrami(rho, H) == Polynomial.constant(-2)
    assert build.conditions.passed
    for check in (check_closedness, check_maxwell, check_einstein):
        assert check(build.background).passed
    print("criterion 8 PASS: (du^omega)^dt family: |omega|^2 = 2, Lap H = -2, residuals zero")


def test_criterion_09_varpi_epsilon_family_end_to_end():
    """du^(omega^dt) flux: |eps|^2 = -2, Lap H = -2, totally Ricci isotropic."""
    build = build_varpi_epsilon_background(rho_flat(), quadratic_H(Fraction(1, 4)))
    eps = build.derived["epsilon"]
    base = build.background.product.base
    assert norm_sq(base, eps) == Polynomial.constant(-2)
    assert build.conditions.passed
    for check in (check_closedness, check_maxwell, check_einstein):
        assert check(build.background).passed
    ok, witness = is_totally_ricci_isotropic(build.background.metric)
    assert ok and witness is None
    print("criterion 9 PASS: du^(omega^dt) family: |eps|^2 = -2, Lap H = -2, Ricci isotropic")


def test_criterion_10_coupled_family_literal_and_corrected():
    """Coupled du^W + (du^w)^nu family: gauge chain exact, Einstein erratum
    reproduced on the literal data, corrected instance fully zero."""
    rho = rho_flat()
    x1, x2 = Polynomial.variable("x1"), Polynomial.variable("x2")
    H = (x1 ** 4 + x2 ** 4) * Fraction(1, 12)

    literal = build_alpha_beta_nu_background(
        rho,
        DifferentialForm.monomial(rho.chart, ("x2", "x3", "x4"), x2),
        H,
    )
    # the co-dual pair is computed, not supplied, and the chain closes with
    # the recorded coupling -1 under the negative-definite dual convention
    assert literal.derived["omega2"] == DifferentialForm.monomial(rho.chart, ("x3", "x4"), -P1)
    case = check_special_case(literal.background)
    assert case.passed
    assert any("c = -1" in n for n in case.notes)
    assert check_closedness(literal.background).passed
    assert check_maxwell(literal.background).passed
    res = einstein_residual_matrix(literal.background)
    u = literal.background.product.chart.index_of("u")
    y1 = Polynomial.variable("y1")
    assert res[u][u] == (x1 * x1 - y1 * y1) * Fraction(1, 2)
    assert not res[u][u].is_zero()

    base = standard_base()
    corrected = build_alpha_beta_nu_background(
        rho,
        DifferentialForm.monomial(rho.chart, ("x1", "x3", "x4"), x1)
        + DifferentialForm.monomial(rho.chart, ("x2", "x3", "x4"), -x2),
        H,
        base=base,
        nu=DifferentialForm.coordinate_differential(base.chart, "y1"),
    )
    assert corrected.conditions.passed
    for check in (check_closedness, check_maxwell, check_einstein):
        assert check(corrected.background).passed
    print(
        "criterion 10 PASS: coupled family: chain exact (c = -1 recorded), literal "
        "Einstein uu-residual nonzero, constant-|nu| corrected instance zero"
    )


def test_criterion_11_base_flux_equivalence_and_obstruction():
    """theta = star eta with eta = dt on a flat product base: closed and
    co-closed like eta, yet the almost-cosymplectic product obstruction is
    exactly 1/6. The random theta = star eta equivalence runs in
    tests/test_solutions.py."""
    _, fiber = _flat56()
    p4 = flat_negative_metric(Chart("ob4", ("z1", "z2", "z3", "z4")))
    product_base = append_line_factor(p4)
    eta = DifferentialForm.coordinate_differential(product_base.chart, "t")
    theta = hodge_star(product_base, eta)
    pc = build_product(product_base, fiber, 1)
    bg = assemble_flux(pc, FluxAnsatz(theta=theta))
    identity = check_theorem_conditions(bg).hypotheses.residuals["base_ricci_identity"]
    t = product_base.chart.index_of("t")
    assert identity[t][t] == Polynomial.constant(Fraction(1, 6))
    for form in (eta, theta, hodge_star(product_base, theta)):
        assert d(form).is_zero()
    print(
        "criterion 11 PASS: theta = star dt closed and co-closed; product obstruction "
        "exactly 1/6"
    )


def test_criterion_12_property_suite():
    """d d = 0, graded anticommutativity, star star law, defining identity,
    interior-product Leibniz: each on >= 100 randomized inputs."""
    rng = random.Random(1212)
    charts = [
        (make_metric(Chart("pr4", ("a1", "a2", "a3", "a4")), diag(-1, -1, -1, -1)), 4),
        (
            make_metric(
                Chart("pr5", ("b1", "b2", "b3", "b4", "b5")), diag(-1, -1, -1, -1, -1)
            ),
            5,
        ),
        (
            make_metric(
                Chart("pr6", ("c0", "c1", "c2", "c3", "c4", "c5")),
                diag(1, -1, -1, -1, -1, -1),
                signature=(1, 5),
            ),
            6,
        ),
    ]
    dd = anti = starstar = defining = leibniz = 0
    while min(dd, anti, starstar, defining, leibniz) < 100:
        m, n = charts[rng.randrange(len(charts))]
        chart = m.chart
        p = rng.randint(0, min(3, n))
        q = rng.randint(0, min(3, n - p)) if p < n else 0
        a = random_form(rng, chart, p, terms=2)
        b = random_form(rng, chart, q, terms=2)
        assert d(d(a)).is_zero()
        dd += 1
        assert wedge(a, b) == wedge(b, a) * ((-1) ** (p * q))
        anti += 1
        expect = a * Fraction((-1) ** (m.signature[1] + p * (n - p)))
        assert hodge_star(m, hodge_star(m, a)) == expect
        starstar += 1
        b_same = random_form(rng, chart, p, terms=2)
        assert wedge(a, hodge_star(m, b_same)) == volume_form(m) * inner_product_forms(
            m, a, b_same
        )
        defining += 1
        if p >= 1 and q >= 1:
            c = rng.choice(chart.coordinates)
            lhs = interior_product(wedge(a, b), c)
            rhs = wedge(interior_product(a, c), b) + wedge(
                a, interior_product(b, c)
            ) * ((-1) ** p)
            assert lhs == rhs
            leibniz += 1
    print(
        "criterion 12 PASS: dd=0, anticommutativity, star-star, defining identity, "
        f"interior Leibniz all exact (>= 100 inputs each)"
    )


def test_criterion_13_cli_exit_codes(capsys):
    """Bundled manifests exit 0/1/2 and the failing one prints the uu-entry."""
    for name in ("solution1", "solution2", "solution3", "solution4_corrected"):
        assert main(["--manifest", str(MANIFESTS / f"{name}.json")]) == EXIT_PASS
        capsys.readouterr()
    code = main(["--manifest", str(MANIFESTS / "solution4_literal.json")])
    out = capsys.readouterr().out
    assert code == EXIT_FAIL
    assert "einstein_residual[10,10] = 1/2*x1^2 - 1/2*y1^2" in out
    assert main(["--manifest", str(MANIFESTS / "broken.json")]) == EXIT_ERROR
    capsys.readouterr()
    print("criterion 13 PASS: CLI exit codes 0 (solutions), 1 (literal, uu printed), 2 (broken)")
