#!/usr/bin/env python3
"""Print Hodge duals of basis forms under the fixed sign convention.

The engine's Riemannian factors are negative definite, so its duals
differ from Euclidean-signature duals by (-1)^p on p-forms.  This table
makes the comparison explicit for the three charts every background
uses; values quoted from Euclidean-dual computations can be checked
against the right column.

Run from the repository root:  python3 scripts/hodge_convention_table.py
"""

from itertools import combinations

from sugra11.exterior import Chart, DifferentialForm
from sugra11.metric import hodge_star
from sugra11.polyring import Polynomial
from sugra11.solutions import flat_negative_metric, walker_metric_from_rho


def show(metric, degrees, header):
    chart = metric.chart
    print(f"\n== {header} (chart {chart.coordinates}) ==")
    for p in degrees:
        for idx in combinations(range(chart.dim), p):
            form = DifferentialForm(chart, p, {idx: Polynomial.constant(1)})
            starred = hodge_star(metric, form)
            basis = chart.basis_label(idx) or "1"
            euclid_flip = (-1) ** p if metric.signature[0] == 0 else None
            suffix = (
                f"   [Euclidean-dual: {'same' if euclid_flip == 1 else 'opposite sign'}]"
                if euclid_flip is not None
                else ""
            )
            print(f"  star({basis}) = {starred}{suffix}")


def main():
    n4 = Chart("rho4", ("x1", "x2", "x3", "x4"))
    rho = flat_negative_metric(n4)
    show(rho, (1, 2, 3), "transverse block rho = -(sum dx_i^2)")

    m5 = Chart("base5t", ("y1", "y2", "y3", "y4", "y5"))
    g5 = flat_negative_metric(m5)
    show(g5, (1, 4), "base g = -(sum dy_i^2)")

    w = walker_metric_from_rho(rho, Polynomial.zero())
    print(f"\n== flat Walker fiber 2 dv du - sum dx_i^2 ==")
    for names in (("u",), ("u", "x1"), ("u", "x2", "x3"), ("u", "x2", "x3", "x4"), ("v", "u")):
        form = DifferentialForm.monomial(w.chart, names, Polynomial.constant(1))
        basis = "^".join(f"d{n}" for n in names)
        print(f"  star({basis}) = {hodge_star(w, form)}")

    print("\nworked chain (coupled family):")
    omega3 = DifferentialForm.monomial(n4, ("x2", "x3", "x4"), Polynomial.variable("x2"))
    step1 = hodge_star(rho, omega3)
    from sugra11.exterior import exterior_derivative as d

    step2 = d(step1)
    step3 = hodge_star(rho, step2)
    print(f"  W          = {omega3}")
    print(f"  star W     = {step1}      (Euclidean dual gives the opposite sign)")
    print(f"  d star W   = {step2}")
    print(f"  star d star W = {step3}   (the computed partner 2-form)")


if __name__ == "__main__":
    main()
