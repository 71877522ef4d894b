"""Relations between backgrounds that the engine never uses itself."""

from fractions import Fraction
from pathlib import Path

import pytest

from sugra11.fieldeqs import (
    BASE_PIECES,
    FIBER_PIECES,
    TYPES,
    FluxAnsatz,
    assemble_flux,
    check_closedness,
    check_einstein,
    check_maxwell,
    split_einstein,
)
from sugra11.manifest import parse_manifest
from sugra11.metric import make_metric
from sugra11.product import build_product

from test_fieldeqs import full_ansatz_background

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"
BUNDLED = ("solution1", "solution2", "solution3", "solution4_corrected", "solution4_literal")
BACKGROUNDS = {
    **{name: lambda name=name: parse_manifest(MANIFESTS / f"{name}.json")[0].background
       for name in BUNDLED},
    # a non-solution: all three residuals are nonzero, so every relation has teeth
    "full_ansatz_f1": lambda: full_ansatz_background(monomial=False, seed=3),
    "full_ansatz_f2": lambda: full_ansatz_background(f=2, monomial=False, seed=3),
}


def _scaled_metric(m, lam):
    return make_metric(m.chart, [[e * lam ** 2 for e in row] for row in m.g], m.signature)


def homothety(bg, lam):
    """Both factor metrics scaled by lam^2, and each type's base piece (alpha_t
    where the type has none) by |lam|^3, so F scales by |lam|^3."""
    pc, a = bg.product, bg.ansatz
    product = build_product(_scaled_metric(pc.base, lam), _scaled_metric(pc.fiber, lam), pc.warping)
    pieces = {name: a.piece(name) for name in FIBER_PIECES + BASE_PIECES}
    for t, b, _ in TYPES:
        if pieces[b or t] is not None:
            pieces[b or t] = pieces[b or t] * abs(lam) ** 3
    return assemble_flux(product, FluxAnsatz(**pieces))


def residuals(bg):
    return (check_einstein(bg).residuals["einstein_residual"],
            check_maxwell(bg).residuals["d_star_F_minus_half_FF"],
            check_closedness(bg).residuals["dF"])


@pytest.mark.parametrize("name", BACKGROUNDS)
def test_homothety_keeps_einstein_and_scales_maxwell_and_closedness(name):
    bg = BACKGROUNDS[name]()
    einstein, maxwell, closedness = residuals(bg)
    if name.startswith("full_ansatz"):
        assert any(not e.is_zero() for row in einstein for e in row)
        assert not maxwell.is_zero() and not closedness.is_zero()
    # h scales by lam^2 and F by |lam|^3: star F and F ^ F both by lam^6
    for lam in (Fraction(2), Fraction(1, 3), Fraction(-1, 3)):
        scaled = residuals(homothety(bg, lam))
        assert scaled[0] == einstein
        assert scaled[1] == maxwell * lam ** 6
        assert scaled[2] == closedness * abs(lam) ** 3


def warped_against_fiber(bg, mu):
    """bg's ansatz over warping mu f on gt, and over warping f on mu^2 gt."""
    pc = bg.product
    return tuple(assemble_flux(product, bg.ansatz) for product in (
        build_product(pc.base, pc.fiber, mu * pc.warping),
        build_product(pc.base, _scaled_metric(pc.fiber, mu), pc.warping)))


# and the 6+5 product of a Walker base over a 5-dimensional fiber at f = 2
SWAPPED = Path(__file__).resolve().parent / "golden" / "solution1_swapped_f2.manifest.json"
WARPED = {**BACKGROUNDS,
          "solution1_swapped_f2": lambda: parse_manifest(SWAPPED)[0].background}


@pytest.mark.parametrize("name", WARPED)
def test_warping_against_fiber_gives_the_same_background_and_residuals(name):
    bg = WARPED[name]()
    # the two sides share h and F, but the block laws of the second see a
    # different f and a fiber metric whose |det| is mu^(2 dim), mu^12 on a 6-fiber
    for mu in (Fraction(2), Fraction(-1, 3)):
        warped, scaled = warped_against_fiber(bg, mu)
        assert warped.metric.g == scaled.metric.g
        assert warped.metric.g_inv == scaled.metric.g_inv
        assert warped.flux == scaled.flux
        for check in (check_closedness, check_maxwell, check_einstein, split_einstein):
            assert check(warped).residuals == check(scaled).residuals
