"""Flux assembly, block-law cross-checks, and the three equation residuals."""

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from sugra11.curvature import is_totally_ricci_isotropic
from sugra11.exterior import Chart, ChartError, DifferentialForm, wedge
from sugra11.cli import EXIT_PASS, exit_code, report_document, run
import sugra11.fieldeqs as fieldeqs
from sugra11.fieldeqs import (
    AnsatzError,
    Background,
    FluxAnsatz,
    assemble_flux,
    check_closedness,
    check_einstein,
    check_maxwell,
    einstein_residual_matrix,
    flux_norm_sq,
    split_einstein,
)
import sugra11.metric as metric
from sugra11.manifest import parse_manifest, parse_manifest_dict
from sugra11.metric import make_metric, norm_sq
from sugra11.polyring import Polynomial
from sugra11.product import build_product
from sugra11.report import EngineInconsistency, residual_entries
from sugra11.solutions import (
    build_alpha_background,
    build_alpha_beta_nu_background,
    build_beta_nu_background,
    build_varpi_epsilon_background,
    standard_base,
    walker_metric_from_rho,
)

from test_cases import quadratic_H, rho_flat
from test_exterior import random_form
from test_metric import diag

P0 = Polynomial.zero()
P1 = Polynomial.constant(1)
MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def dform(chart, *names):
    return DifferentialForm.monomial(chart, names, P1)


def full_ansatz_background(f=1, monomial=True, seed=0, base_names=("y1", "y2", "y3", "y4", "y5")):
    """All five pieces present, on flat factors, for block-law exercises."""
    rng = random.Random(seed)
    base = standard_base(base_names)
    fiber = make_metric(
        Chart("l6", ("w0", "w1", "w2", "w3", "w4", "w5")),
        diag(1, -1, -1, -1, -1, -1),
        signature=(1, 5),
    )
    bc, fc = base.chart, fiber.chart
    if monomial:
        w0 = Polynomial.variable("w1")
        y = Polynomial.variable("y2")
        alpha_t = DifferentialForm.monomial(fc, ("w0", "w1", "w2", "w3"), w0)
        beta_t = DifferentialForm.monomial(fc, ("w1", "w2", "w4"), P1 + w0)
        gamma_t = DifferentialForm.monomial(fc, ("w0", "w5"), w0 * w0)
        varpi_t = DifferentialForm.monomial(fc, ("w3",), P1)
        nu = DifferentialForm.monomial(bc, ("y1",), y)
        delta = DifferentialForm.monomial(bc, ("y2", "y3"), P1)
        epsilon = DifferentialForm.monomial(bc, ("y1", "y4", "y5"), y + 1)
        theta = DifferentialForm.monomial(bc, ("y2", "y3", "y4", "y5"), y)
    else:
        alpha_t = random_form(rng, fc, 4, terms=2)
        beta_t = random_form(rng, fc, 3, terms=2)
        gamma_t = random_form(rng, fc, 2, terms=2)
        varpi_t = random_form(rng, fc, 1, terms=2)
        nu = random_form(rng, bc, 1, terms=2)
        delta = random_form(rng, bc, 2, terms=2)
        epsilon = random_form(rng, bc, 3, terms=2)
        theta = random_form(rng, bc, 4, terms=2)
    pc = build_product(base, fiber, f)
    ansatz = FluxAnsatz(
        alpha_t=alpha_t,
        beta_t=beta_t,
        gamma_t=gamma_t,
        varpi_t=varpi_t,
        nu=nu,
        delta=delta,
        epsilon=epsilon,
        theta=theta,
    )
    return assemble_flux(pc, ansatz)


# -- assembly -------------------------------------------------------------------

def test_assemble_flux_shapes_and_errors():
    base = standard_base()
    fiber = walker_metric_from_rho(rho_flat(), quadratic_H(Fraction(1, 8)))
    pc = build_product(base, fiber, 1)
    with pytest.raises(AnsatzError):
        assemble_flux(pc, FluxAnsatz())
    beta3 = dform(fiber.chart, "u", "x2", "x3")
    with pytest.raises(AnsatzError):
        # beta without nu is not a valid pairing
        assemble_flux(pc, FluxAnsatz(beta_t=beta3))


def test_assembled_flux_of_alpha_family():
    build = build_alpha_background(rho_flat(), dform(rho_flat().chart, "x2", "x3", "x4"), quadratic_H(Fraction(1, 8)))
    flux = build.background.flux
    assert flux.degree == 4
    chart = build.background.product.chart
    x2, x3, x4, u = (chart.index_of(c) for c in ("x2", "x3", "x4", "u"))
    assert flux.components == {(x2, x3, x4, u): -P1}  # du^dx2^dx3^dx4
    assert chart.dim == 11


# -- norm block law ----------------------------------------------------------------

def test_flux_norm_block_law_full_ansatz():
    for f in (1, 2):
        bg = full_ansatz_background(f=f)
        direct, block = flux_norm_sq(bg)
        assert direct == block


def test_flux_norm_of_null_du_flux_vanishes():
    build = build_alpha_background(rho_flat(), dform(rho_flat().chart, "x2", "x3", "x4"), quadratic_H(Fraction(1, 8)))
    direct, block = flux_norm_sq(build.background)
    assert direct.is_zero() and block.is_zero()


# -- closedness ---------------------------------------------------------------------

def test_closedness_system_matches_direct_on_random_instances():
    violations = 0
    satisfactions = 0
    for seed in range(22):
        bg = full_ansatz_background(monomial=False, seed=seed)
        result = check_closedness(bg)
        system_zero = all(
            v.is_zero() for k, v in result.residuals.items() if k != "dF"
        )
        direct_zero = result.residuals["dF"].is_zero()
        assert system_zero == direct_zero
        if direct_zero:
            satisfactions += 1
        else:
            violations += 1
    assert violations >= 1  # random coefficient forms are generically non-closed


def test_closedness_of_solution_families():
    for build in (
        build_alpha_background(rho_flat(), dform(rho_flat().chart, "x2", "x3", "x4"), quadratic_H(Fraction(1, 8))),
        build_beta_nu_background(
            rho_flat(),
            dform(rho_flat().chart, "x1", "x2") + dform(rho_flat().chart, "x3", "x4"),
            quadratic_H(Fraction(1, 4)),
        ),
        build_varpi_epsilon_background(rho_flat(), quadratic_H(Fraction(1, 4))),
    ):
        assert check_closedness(build.background).passed


def test_closedness_flags_non_closed_theta():
    base = standard_base()
    fiber = walker_metric_from_rho(rho_flat(), quadratic_H(Fraction(1, 8)))
    pc = build_product(base, fiber, 1)
    theta = DifferentialForm.monomial(
        base.chart, ("y2", "y3", "y4", "y5"), Polynomial.variable("y1")
    )
    bg = assemble_flux(pc, FluxAnsatz(theta=theta))
    result = check_closedness(bg)
    assert not result.passed
    assert not result.residuals["d_theta"].is_zero()
    assert not result.residuals["dF"].is_zero()


def test_a_type_with_a_zero_factor_adds_no_closedness_condition():
    # a non-closed beta_t wedged with a zero nu adds nothing to solution1's flux
    doc = json.loads((MANIFESTS / "solution1.json").read_text())
    doc["forms"] += [
        {"name": "beta", "chart": "walker6", "degree": 3,
         "terms": [{"indices": ["v", "x2", "u"], "coeff": "x1"}]},
        {"name": "nu", "chart": "base5", "degree": 1, "terms": []},
    ]
    doc["backgrounds"][0]["flux"].update(beta_t="beta", nu="nu")
    reports = run(parse_manifest_dict(doc))
    assert exit_code(report_document(reports)) == EXIT_PASS
    result = reports[0].results[0]
    assert result.name == "closedness" and "d_beta_t" not in result.residuals


# -- gauge equation --------------------------------------------------------------------

def test_maxwell_block_laws_on_full_ansatz():
    # the checker raises EngineInconsistency if any block law fails
    for f in (1, 2):
        bg = full_ansatz_background(f=f)
        check_maxwell(bg)


def test_maxwell_block_laws_on_random_instances():
    for seed in (3, 4, 5):
        bg = full_ansatz_background(monomial=False, seed=seed)
        check_maxwell(bg)


def test_maxwell_passes_on_solution_families():
    for build in (
        build_alpha_background(rho_flat(), dform(rho_flat().chart, "x2", "x3", "x4"), quadratic_H(Fraction(1, 8))),
        build_beta_nu_background(
            rho_flat(),
            dform(rho_flat().chart, "x1", "x2") + dform(rho_flat().chart, "x3", "x4"),
            quadratic_H(Fraction(1, 4)),
        ),
        build_varpi_epsilon_background(rho_flat(), quadratic_H(Fraction(1, 4))),
    ):
        assert check_maxwell(build.background).passed


def test_maxwell_fails_for_non_coclosed_piece():
    rho = rho_flat()
    theta_n = DifferentialForm.monomial(rho.chart, ("x2", "x3", "x4"), Polynomial.variable("x2"))
    build = build_alpha_background(rho, theta_n, quadratic_H(Fraction(1, 8)))
    assert not check_maxwell(build.background).passed


def test_orientation_reversal_negates_star_f_exactly():
    # listing y2 before y1 reverses the base orientation and with it vol_h and
    # star F, while F (built by coordinate name) stays; the engine uses this
    # symmetry nowhere, so it tests the sign conventions from outside
    bg = full_ansatz_background(f=2)
    swapped = full_ansatz_background(f=2, base_names=("y2", "y1", "y3", "y4", "y5"))
    lift = swapped.product.lift
    assert swapped.flux == lift(bg.flux)
    f_wedge_f = wedge(swapped.flux, swapped.flux)
    assert not f_wedge_f.is_zero()
    residual = check_maxwell(bg).residuals["d_star_F_minus_half_FF"]
    swapped_residual = check_maxwell(swapped).residuals["d_star_F_minus_half_FF"]
    assert swapped_residual == -lift(residual) - f_wedge_f


@pytest.mark.parametrize("f", [2, -2, Fraction(1, 3)])
def test_block_laws_on_a_six_dimensional_base_and_five_dimensional_fiber(f):
    # star_h scales a type-q piece by |f|^(dim(fiber) - 2q); on a 5-dimensional
    # fiber that power is odd, so the fiber dimension and the sign of f both show
    base = walker_metric_from_rho(rho_flat(), quadratic_H(Fraction(1, 8)))
    fiber = standard_base()
    rng = random.Random(17)
    pieces = {}
    for t, b, q in fieldeqs.TYPES:  # every type whose pieces fit their factors
        if q <= fiber.dim and 4 - q <= base.dim:
            if t:
                pieces[t] = random_form(rng, fiber.chart, q, terms=2)
            if b:
                pieces[b] = random_form(rng, base.chart, 4 - q, terms=2)
    assert len(pieces) == 8
    bg = assemble_flux(build_product(base, fiber, f), FluxAnsatz(**pieces))
    # the checks raise EngineInconsistency if a block law disagrees with the direct side
    assert not check_closedness(bg).passed
    assert not check_maxwell(bg).passed
    assert not split_einstein(bg).passed


@pytest.mark.parametrize("f", [2, -2])
def test_hv_block_is_even_in_a_negative_warp(f):
    # pieces of types q and q+1 meet here at odd q, where the HV weight
    # (-1)^q f^(-2q) / 2 would change sign if it read f^q with the sign of f
    base = standard_base()
    fiber = walker_metric_from_rho(rho_flat(), P0)
    b, t = base.chart, fiber.chart
    ansatz = FluxAnsatz(
        varpi_t=dform(t, "x1"),
        epsilon=dform(b, "y1", "y2", "y3"),
        gamma_t=dform(t, "x1", "x2"),
        delta=dform(b, "y1", "y2"),
        beta_t=dform(t, "x1", "x2", "x3"),
        nu=dform(b, "y4"),
        alpha_t=dform(t, "x1", "x2", "x3", "x4"),
    )
    bg = assemble_flux(build_product(base, fiber, f), ansatz)
    hv = split_einstein(bg).residuals["hv_block"]  # the HV block law audits it against h
    assert {(i, j): e for i, row in enumerate(hv) for j, e in enumerate(row) if not e.is_zero()} == {
        (2, 2): Polynomial.constant(Fraction(-1, 8)),
        (3, 4): Polynomial.constant(Fraction(-1, 128)),
    }


def _verdicts(doc):
    reports = run(parse_manifest_dict(doc))
    return exit_code(report_document(reports)), [(r.background, r.error, [(c.name, c.passed) for c in r.results]) for r in reports]


@pytest.mark.parametrize("name", ["solution2", "solution3", "solution4_literal", "solution4_corrected"])
def test_verdicts_survive_swapping_the_first_two_base_coordinates(name):
    # the bundled bases are flat and diagonal, so swapping y1 and y2 (z1 and
    # z2) in the chart reverses the orientation without changing a metric row
    doc = json.loads((MANIFESTS / f"{name}.json").read_text())
    swapped = copy.deepcopy(doc)
    (product,) = swapped["products"]
    base_chart = next(m["chart"] for m in swapped["metrics"] if m["name"] == product["base"])
    coords = next(c["coordinates"] for c in swapped["charts"] if c["name"] == base_chart)
    coords[0], coords[1] = coords[1], coords[0]
    assert _verdicts(swapped) == _verdicts(doc)


# -- einstein -----------------------------------------------------------------------------

def test_einstein_zero_for_flat_zero_flux_is_vacuous():
    base = standard_base()
    fiber = make_metric(
        Chart("l6z", ("w0", "w1", "w2", "w3", "w4", "w5")),
        diag(1, -1, -1, -1, -1, -1),
        signature=(1, 5),
    )
    pc = build_product(base, fiber, 1)
    theta = DifferentialForm.zero(base.chart, 4)
    bg = assemble_flux(pc, FluxAnsatz(theta=theta))
    assert check_closedness(bg).passed
    assert check_maxwell(bg).passed
    assert check_einstein(bg).passed


def test_exactness_survives_enormous_rational_coefficients():
    # scaling theta by k scales |theta|^2 by k^2, so H must scale by k^2;
    # with k ~ 10^21 any fixed-width arithmetic would have failed long ago
    k = Fraction(10 ** 21 + 7, 3)
    rho = rho_flat()
    theta = DifferentialForm.monomial(rho.chart, ("x2", "x3", "x4"), Polynomial.constant(k))
    build = build_alpha_background(rho, theta, quadratic_H(Fraction(1, 8) * k * k))
    assert build.conditions.passed
    assert check_einstein(build.background).passed
    wrong = build_alpha_background(rho, theta, quadratic_H(Fraction(1, 8) * (k * k + 1)))
    assert not check_einstein(wrong.background).passed


def test_du_aligned_fluxes_are_null_with_vanishing_self_wedge():
    rho = rho_flat()
    builds = (
        build_alpha_background(rho, dform(rho.chart, "x2", "x3", "x4"), quadratic_H(Fraction(1, 8))),
        build_beta_nu_background(
            rho,
            dform(rho.chart, "x1", "x2") + dform(rho.chart, "x3", "x4"),
            quadratic_H(Fraction(1, 4)),
        ),
    )
    for build in builds:
        flux = build.background.flux
        assert wedge(flux, flux).is_zero()
        assert norm_sq(build.background.metric, flux).is_zero()


def test_einstein_alpha_family_end_to_end():
    build = build_alpha_background(
        rho_flat(), dform(rho_flat().chart, "x2", "x3", "x4"), quadratic_H(Fraction(1, 8))
    )
    assert build.conditions.passed
    assert check_einstein(build.background).passed


def test_einstein_beta_nu_family_end_to_end():
    rho = rho_flat()
    omega = dform(rho.chart, "x1", "x2") + dform(rho.chart, "x3", "x4")
    assert norm_sq(rho, omega) == Polynomial.constant(2)
    build = build_beta_nu_background(rho, omega, quadratic_H(Fraction(1, 4)))
    assert build.conditions.passed
    assert check_einstein(build.background).passed


def test_einstein_varpi_epsilon_family_end_to_end():
    build = build_varpi_epsilon_background(rho_flat(), quadratic_H(Fraction(1, 4)))
    assert build.conditions.passed
    assert check_einstein(build.background).passed
    ok, witness = is_totally_ricci_isotropic(build.background.metric)
    assert ok and witness is None


def test_einstein_alpha_family_on_sheared_coordinates():
    # the same family written in sheared flat coordinates: the transverse
    # block has off-diagonal entries and nonzero Christoffel symbols, and
    # theta / H are the pullbacks of the straight-coordinate data
    from test_curvature import _sheared_block

    rho = _sheared_block("x2")
    x1, x2 = Polynomial.variable("x1"), Polynomial.variable("x2")
    theta = dform(rho.chart, "x2", "x3", "x4")
    assert norm_sq(rho, theta) == Polynomial.constant(-1)
    straightened = x1 + x2 * x2 * Fraction(1, 2)
    H = (
        straightened * straightened
        + x2 ** 2
        + Polynomial.variable("x3") ** 2
        + Polynomial.variable("x4") ** 2
    ) * Fraction(1, 8)
    build = build_alpha_background(rho, theta, H)
    assert build.conditions.passed
    for check in (check_closedness, check_maxwell, check_einstein):
        assert check(build.background).passed


def test_einstein_fails_for_wrong_potential():
    build = build_alpha_background(
        rho_flat(), dform(rho_flat().chart, "x2", "x3", "x4"), quadratic_H(Fraction(1, 4))
    )
    result = check_einstein(build.background)
    assert not result.passed
    res = result.residuals["einstein_residual"]
    u = build.background.product.chart.index_of("u")
    # only the uu-entry can be nonzero for this family
    nonzero = [
        (i, j)
        for i in range(11)
        for j in range(11)
        if not res[i][j].is_zero()
    ]
    assert nonzero == [(u, u)]


# -- split blocks ---------------------------------------------------------------------------

def test_split_einstein_blocks_match_direct_full_ansatz():
    for f in (1, 2):
        bg = full_ansatz_background(f=f)
        result = split_einstein(bg)
        assert set(result.residuals) == {"hh_block", "vv_block", "hv_block"}


def test_split_einstein_blocks_match_direct_random():
    for seed in (11, 12):
        bg = full_ansatz_background(monomial=False, seed=seed)
        split_einstein(bg)


def test_four_piece_ansatz_block_laws_and_mixed_block():
    # the shape without the 2-form/2-form pairing still satisfies every
    # block law; its mixed Einstein block keeps only the outer two terms
    rng = random.Random(77)
    base = standard_base()
    fiber = make_metric(
        Chart("l6q", ("w0", "w1", "w2", "w3", "w4", "w5")),
        diag(1, -1, -1, -1, -1, -1),
        signature=(1, 5),
    )
    pc = build_product(base, fiber, 1)
    ansatz = FluxAnsatz(
        alpha_t=random_form(rng, fiber.chart, 4, terms=2),
        beta_t=random_form(rng, fiber.chart, 3, terms=2),
        varpi_t=random_form(rng, fiber.chart, 1, terms=2),
        nu=random_form(rng, base.chart, 1, terms=2),
        epsilon=random_form(rng, base.chart, 3, terms=2),
        theta=random_form(rng, base.chart, 4, terms=2),
    )
    bg = assemble_flux(pc, ansatz)
    check_maxwell(bg)  # typed system cross-checks
    split_einstein(bg)  # HH/VV/HV block laws
    direct, block = flux_norm_sq(bg)
    assert direct == block


def test_split_einstein_on_restricted_shapes_has_zero_hv():
    # shapes with at most one fiber/base pairing have trivially zero mixed block
    build = build_varpi_epsilon_background(rho_flat(), quadratic_H(Fraction(1, 4)))
    result = split_einstein(build.background)
    assert all(e.is_zero() for row in result.residuals["hv_block"] for e in row)


def test_alpha_beta_nu_family_literal_has_uu_residual_only():
    rho = rho_flat()
    omega3 = DifferentialForm.monomial(rho.chart, ("x2", "x3", "x4"), Polynomial.variable("x2"))
    H = (Polynomial.variable("x1") ** 4 + Polynomial.variable("x2") ** 4) * Fraction(1, 12)
    build = build_alpha_beta_nu_background(rho, omega3, H)
    assert build.derived["omega2"] == DifferentialForm.monomial(rho.chart, ("x3", "x4"), -P1)
    assert check_closedness(build.background).passed
    assert check_maxwell(build.background).passed
    res = einstein_residual_matrix(build.background)
    u = build.background.product.chart.index_of("u")
    x1 = Polynomial.variable("x1")
    y1 = Polynomial.variable("y1")
    assert res[u][u] == (x1 * x1 - y1 * y1) * Fraction(1, 2)
    nonzero = [(i, j) for i in range(11) for j in range(11) if not res[i][j].is_zero()]
    assert nonzero == [(u, u)]


def test_alpha_beta_nu_family_corrected_instance_passes():
    rho = rho_flat()
    x1, x2 = Polynomial.variable("x1"), Polynomial.variable("x2")
    # harmonic-source 3-form: dual of d(x1 x2), closed and co-closed
    omega3 = DifferentialForm.monomial(rho.chart, ("x1", "x3", "x4"), x1) + DifferentialForm.monomial(
        rho.chart, ("x2", "x3", "x4"), -x2
    )
    H = (x1 ** 4 + x2 ** 4) * Fraction(1, 12)
    base = standard_base()
    nu = DifferentialForm.coordinate_differential(base.chart, "y1")
    build = build_alpha_beta_nu_background(rho, omega3, H, base=base, nu=nu)
    assert build.derived["omega2"].is_zero()
    assert build.conditions.passed
    assert check_closedness(build.background).passed
    assert check_maxwell(build.background).passed
    assert check_einstein(build.background).passed


# -- the audits catch a wrong direct side ------------------------------------------------

def alpha_family_background():
    rho = rho_flat()
    return build_alpha_background(
        rho, dform(rho.chart, "x2", "x3", "x4"), quadratic_H(Fraction(1, 8))
    ).background


@pytest.mark.parametrize("block, where", [("HH", (0, 0)), ("VV", (5, 5)), ("HV", (0, 5))])
def test_split_einstein_names_the_block_whose_direct_entry_is_off(monkeypatch, block, where):
    original = fieldeqs.einstein_residual_matrix

    def perturbed(bg):
        rows = [list(row) for row in original(bg)]
        rows[where[0]][where[1]] = rows[where[0]][where[1]] + P1
        return tuple(tuple(row) for row in rows)

    monkeypatch.setattr(fieldeqs, "einstein_residual_matrix", perturbed)
    with pytest.raises(EngineInconsistency, match=f"{block} block law failed") as exc:
        split_einstein(alpha_family_background())
    # the block-local position, then the perturbed direct entry and the block entry
    entry = original(alpha_family_background())[where[0]][where[1]]
    assert str(exc.value).endswith(f"at [0,0]: direct {entry + P1}, block {entry}")


def test_star_flux_audit_shows_the_first_differing_component_and_both_values(monkeypatch):
    original = fieldeqs.star_flux_block
    x1 = Polynomial.variable("x1")

    def perturbed(bg):
        block = original(bg)
        idx = min(block.components)
        return DifferentialForm(block.chart, block.degree,
                                {**block.components, idx: block.components[idx] + x1})

    monkeypatch.setattr(fieldeqs, "star_flux_block", perturbed)
    bg = alpha_family_background()
    star_f = original(bg)
    idx = min(star_f.components)
    where = "^".join(f"d{bg.product.chart.coordinates[i]}" for i in idx)
    value = star_f.components[idx]
    with pytest.raises(EngineInconsistency) as exc:
        check_maxwell(bg)
    assert str(exc.value) == (
        f"star F block law failed at [{where}]: direct {value}, block {value + x1}"
    )


def test_flux_term_missing_from_the_ansatz_trips_the_block_laws():
    bg = alpha_family_background()
    pc = bg.product
    extra = pc.lift(dform(pc.base_chart, "y1", "y2", "y3", "y4"))
    tampered = Background(pc, bg.flux + extra, bg.ansatz)
    with pytest.raises(EngineInconsistency) as exc:
        flux_norm_sq(tampered)
    assert str(exc.value) == "norm block law failed: direct 1, block 0"
    with pytest.raises(EngineInconsistency):
        check_maxwell(tampered)


def test_a_typed_gauge_degree_left_out_trips_the_maxwell_audit(monkeypatch):
    # a non-solution: every fiber degree of d star F that occurs is nonzero, and
    # 1/2 F^F is nonzero in three degrees (its k = 6 term is zero)
    bg = full_ansatz_background(monomial=False, seed=3)
    for name, nonzero in (("typed_gauge_system", {3, 4, 5, 6}), ("half_flux_wedge_flux_block", {3, 4, 5})):
        original = getattr(fieldeqs, name)
        assert {k for k, term in original(bg).items() if not term.is_zero()} == nonzero
        for k in nonzero:
            monkeypatch.setattr(fieldeqs, name,
                                lambda b, k=k, original=original:
                                {j: t for j, t in original(b).items() if j != k})
            with pytest.raises(EngineInconsistency):
                check_maxwell(bg)
        monkeypatch.setattr(fieldeqs, name, original)


def test_maxwell_builds_the_half_flux_wedge_flux_terms_once(monkeypatch):
    original = fieldeqs.half_flux_wedge_flux_block
    calls = []

    def counted(bg):
        calls.append(bg)
        return original(bg)

    monkeypatch.setattr(fieldeqs, "half_flux_wedge_flux_block", counted)
    bg = full_ansatz_background(monomial=False, seed=3)
    check_maxwell(bg)
    assert len(calls) == 1 and calls[0] is bg


def test_audit_names_the_first_differing_entry_by_its_report_label():
    chart = Chart("C2", ("a", "b"))
    x = Polynomial.variable("a")
    fieldeqs._audit("law", x, x)
    fieldeqs._audit("law", dform(chart, "a"), dform(chart, "a"))
    cases = [
        (x, x + 1, "law: direct a, block a + 1"),
        (dform(chart, "a") + dform(chart, "b") * x, dform(chart, "a"),
         "law at [db]: direct a, block 0"),
        (((P0, P1), (P1, P0)), ((P0, P1), (x, P0)), "law at [1,0]: direct 1, block a"),
    ]
    for direct, block, message in cases:
        with pytest.raises(EngineInconsistency) as exc:
            fieldeqs._audit("law", direct, block)
        assert str(exc.value) == message
    # two zero forms of different degrees differ in no entry
    zero1, zero2 = DifferentialForm.zero(chart, 1), DifferentialForm.zero(chart, 2)
    with pytest.raises(EngineInconsistency) as exc:
        fieldeqs._audit("law", zero1, zero2)
    assert str(exc.value) == f"law: direct {zero1!r}, block {zero2!r}"


def test_a_residual_is_a_polynomial_a_form_or_a_matrix():
    # a named sub-residual is its own entry, "name.sub", never a nested mapping
    with pytest.raises(TypeError, match="unknown residual type"):
        list(residual_entries("r", {"i_a": Polynomial.variable("a")}))


def test_einstein_then_split_builds_the_direct_matrix_once(monkeypatch):
    def literal_background():
        rho = rho_flat()
        omega3 = DifferentialForm.monomial(rho.chart, ("x2", "x3", "x4"), Polynomial.variable("x2"))
        H = (Polynomial.variable("x1") ** 4 + Polynomial.variable("x2") ** 4) * Fraction(1, 12)
        return build_alpha_beta_nu_background(rho, omega3, H).background

    alone_einstein = check_einstein(literal_background())
    alone_split = split_einstein(literal_background())
    original = fieldeqs.einstein_residual_matrix
    calls = []

    def counted(bg):
        calls.append(bg)
        return original(bg)

    monkeypatch.setattr(fieldeqs, "einstein_residual_matrix", counted)
    bg = literal_background()
    einstein = check_einstein(bg)
    split = split_einstein(bg)
    assert len(calls) == 1 and calls[0] is bg
    assert not einstein.passed and not split.passed
    assert einstein.residuals == alone_einstein.residuals
    assert split.residuals == alone_split.residuals


def test_the_direct_einstein_matrix_reads_no_audit_and_the_checks_run_it_once(monkeypatch):
    original = fieldeqs.flux_norm_sq

    def refused(bg):
        raise EngineInconsistency("norm audit reached")

    monkeypatch.setattr(fieldeqs, "flux_norm_sq", refused)
    einstein_residual_matrix(alpha_family_background())
    for check in (check_einstein, split_einstein):
        with pytest.raises(EngineInconsistency, match="norm audit reached"):
            check(alpha_family_background())

    calls = []

    def counted(bg):
        calls.append(bg)
        return original(bg)

    monkeypatch.setattr(fieldeqs, "flux_norm_sq", counted)
    bg = alpha_family_background()
    check_einstein(bg)
    split_einstein(bg)
    assert len(calls) == 1 and calls[0] is bg


def test_maxwell_raises_each_form_once_per_metric(monkeypatch):
    # star_flux_block and typed_gauge_system star the same factor pieces; the
    # raise behind each star is kept on the metric, so it runs once
    golden = Path(__file__).resolve().parent / "golden"
    spec = parse_manifest(golden / "ladder_mixed_solution4_literal_d1.manifest.json")[0]
    bg = spec.background
    original = metric._block_raise
    calls = []

    def counted(m, a):
        calls.append((m, a))
        return original(m, a)

    monkeypatch.setattr(metric, "_block_raise", counted)
    check_maxwell(bg)
    pc, a = bg.product, bg.ansatz
    unit = DifferentialForm.function(pc.base_chart, Polynomial.constant(1))
    raised = {(bg.metric, bg.flux), (pc.fiber, a.alpha_t), (pc.fiber, a.beta_t),
              (pc.base, a.nu), (pc.base, unit)}
    assert len(calls) == len(raised) and set(calls) == raised
    # the Einstein checks pair and contract the same forms: nothing is raised again
    check_einstein(bg)
    split_einstein(bg)
    assert len(calls) == len(raised)


def test_raises_keep_nonzero_components_only():
    # on this background most sums of a raise cancel (77 of the 89 of F on h)
    golden = Path(__file__).resolve().parent / "golden"
    spec = parse_manifest(golden / "ladder_mixed_solution4_literal_d1.manifest.json")[0]
    bg = spec.background
    check_maxwell(bg)
    check_einstein(bg)
    split_einstein(bg)
    pc = bg.product
    assert all(m._raised for m in (bg.metric, pc.base, pc.fiber))
    assert [(m.chart.name, r) for m in (bg.metric, pc.base, pc.fiber)
            for raised in m._raised.values() for r, value in raised.items() if value.is_zero()] == []


def test_records_keep_value_equality_and_stay_immutable():
    chart = Chart("c3", ("a", "b", "c"))
    twin = Chart("c3", ["a", "b", "c"])
    assert chart == twin and hash(chart) == hash(twin) and twin.coordinates == ("a", "b", "c")
    assert chart != Chart("c3", ("a", "c", "b")) and chart != Chart("d3", ("a", "b", "c"))
    assert len({chart, twin}) == 1
    with pytest.raises(ChartError, match="duplicate coordinate 'a'"):
        Chart("dup", ("a", "a"))

    bg = full_ansatz_background()
    records = [
        (chart, "name"),
        (DifferentialForm.coordinate_differential(chart, "a"), "components"),
        (bg.product, "warping"),
        (bg.ansatz, "theta"),
        (bg, "flux"),
    ]
    for record, attr in records:
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
        with pytest.raises(AttributeError):
            record.new_attribute = 1
