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
from sugra11.metric import hodge_star, make_metric
from sugra11.polyring import Polynomial


def diag_metric(chart, values, signature):
    n = chart.dim
    rows = [
        [Polynomial.constant(values[i] if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    return make_metric(chart, rows, signature=signature)


def walker_flat():
    chart = Chart("walker6_flat", ("v", "x1", "x2", "x3", "x4", "u"))
    P0, P1 = Polynomial.zero(), Polynomial.constant(1)
    g = [[P0] * 6 for _ in range(6)]
    g[0][5] = g[5][0] = P1
    for i in range(1, 5):
        g[i][i] = -P1
    return make_metric(chart, g, signature=(1, 5))


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
    rho = diag_metric(n4, (-1, -1, -1, -1), (0, 4))
    show(rho, (1, 2, 3), "transverse block rho = -(sum dx_i^2)")

    m5 = Chart("base5t", ("y1", "y2", "y3", "y4", "y5"))
    g5 = diag_metric(m5, (-1, -1, -1, -1, -1), (0, 5))
    show(g5, (1, 4), "base g = -(sum dy_i^2)")

    w = walker_flat()
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
