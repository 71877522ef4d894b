"""Tests of the benchmark's own parts: ladder generator, oracle, tracer.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import random
import sys
from fractions import Fraction

import pytest

import ladder
import polyq as pq
import run
import workloads

sys.path.insert(0, str(run.SRC))

from sugra11 import cli  # noqa: E402
from sugra11.manifest import parse_manifest_dict  # noqa: E402
from sugra11.polyring import parse_polynomial  # noqa: E402


def load(name):
    return json.loads((run.MANIFESTS / f"{name}.json").read_text())


def test_polyq_round_trip_agrees_with_engine_parser():
    text = "3*x1^2*y2 - 1/8*u + x1*x2^3 - 7"
    p = pq.parse(text)
    assert pq.parse(pq.to_str(p)) == p
    assert parse_polynomial(pq.to_str(p)) == parse_polynomial(text)
    assert pq.evaluate(p, {"x1": 1, "y2": 2, "u": 8, "x2": 1}) == Fraction(6 - 1 + 1 - 7)


@pytest.mark.parametrize("coords,terms", [
    (("v", "x1", "x2", "x3", "x4", "u"), ladder.FIBER_TERMS),
    (("z1", "z2", "z3", "z4", "t"), ladder.BASE_TERMS),
])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_inverse_jacobian_is_the_nilpotent_series(coords, terms, d):
    coeffs = ladder.random_coefficients(random.Random(d))
    pb = ladder.ChartPullback(coords, ladder.chart_map(coords, terms, coeffs, d))
    n = len(coords)
    ident = [[pq.const(1 if i == j else 0) for j in range(n)] for i in range(n)]
    assert ladder._matmul(pb.J, pb.K) == ident
    assert ladder._matmul(pb.K, pb.J) == ident


@pytest.mark.parametrize("name", workloads.VALID)
def test_pulled_back_manifests_parse_and_invert(name):
    doc = ladder.pull_back_manifest(load(name), ladder.random_coefficients(random.Random(7)), 1)
    for entry in doc["metrics"]:
        g = ladder._full_matrix(entry["lower_triangular"])
        inv = ladder._full_matrix(entry["inverse"])
        n = len(g)
        assert ladder._matmul(g, inv) == [[pq.const(1 if i == j else 0) for j in range(n)] for i in range(n)]
    parsed = parse_manifest_dict(doc)
    assert [b.name for b in parsed.backgrounds] == [b["name"] for b in load(name)["backgrounds"]]


def test_form_pullback_is_the_pullback_of_coordinate_differentials():
    coords = ("v", "x1", "x2", "x3", "x4", "u")
    coeffs = ladder.random_coefficients(random.Random(3))
    pb = ladder.ChartPullback(coords, ladder.chart_map(coords, ladder.FIBER_TERMS, coeffs, 2))
    # phi^*(dx2) = dx2 + a1 * 2 x1 dx1
    got = pb.form({(2,): pq.const(1)})
    assert got == {(2,): pq.const(1), (1,): pq.scale(pq.var("x1"), 2 * coeffs["a1"])}
    # phi^*(dx1 ^ dx2) = dx1 ^ dx2: the x1-part of dx2 wedges to zero
    assert pb.form({(1, 2): pq.const(1)}) == {(1, 2): pq.const(1)}


def _request(name, rng_seed=0):
    rng = random.Random(rng_seed)
    return next(r for r in workloads.bundled_round(run.MANIFESTS, rng) if r.label == name)


def test_oracle_accepts_the_engine_on_the_readme_failure_and_rejects_changes():
    req = _request("solution4_literal")
    code, out = run.run_in_process(cli, req, req.shipped)
    assert workloads.mismatches(req, code, out) == []
    assert workloads.mismatches(req, 0, out)  # wrong exit code
    wrong_residual = out.replace("= 1/2*x1^2 - 1/2*y1^2", "= 1/2*x1^2 + 1/2*y1^2")
    assert workloads.mismatches(req, code, wrong_residual)
    wrong_value = out.replace("einstein_residual[10,10] = 1/2\n", "einstein_residual[10,10] = 1\n")
    assert workloads.mismatches(req, code, wrong_value)
    wrong_verdict = out.replace("maxwell: PASS", "maxwell: FAIL")
    assert workloads.mismatches(req, code, wrong_verdict)


def test_combined_manifest_holds_every_valid_background(tmp_path):
    req = _request("combined")
    (path,) = run.write_round([req], tmp_path, 0)
    code, out = run.run_in_process(cli, req, path)
    assert code == 1
    assert workloads.mismatches(req, code, out) == []


def test_mixed_expected_residual_is_the_readme_residual_pulled_back():
    req = workloads.mixed_request(run.MANIFESTS, random.Random(5))
    (name, residuals), = req.expected.residuals.items()
    r = workloads.LITERAL_RESIDUAL  # x1 and y1 are fixed by the map at d=1
    c = ladder.random_coefficients(random.Random(5))["a6"]  # the first draw of mixed_request
    assert residuals == {
        "einstein:einstein_residual[10,10]": r,
        "einstein:einstein_residual[9,10]": pq.scale(r, c),
        "einstein:einstein_residual[10,9]": pq.scale(r, c),
        "einstein:einstein_residual[9,9]": pq.scale(r, c * c),
        "einstein_blocks:vv_block[5,5]": r,
        "einstein_blocks:vv_block[4,5]": pq.scale(r, c),
        "einstein_blocks:vv_block[5,4]": pq.scale(r, c),
        "einstein_blocks:vv_block[4,4]": pq.scale(r, c * c),
    }
    assert any(req.expected.values[name].values())


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(100))
    value, pct, n = run.tail(samples)
    assert (value, n) == (89, 100) and sum(1 for s in samples if s > value) == 10
    assert pct == 90.0
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 2)
    assert run.tail(list(range(20)))[0] == 19  # p50 would be no tail: report the maximum
    assert run.tail(list(range(21)))[:2] == (10, 100.0 * 11 / 21)


def test_traced_counters_repeat_exactly_on_one_seed(tmp_path):
    first = run.traced("bundled", 4, 0.0, tmp_path)
    second = run.traced("bundled", 4, 0.0, tmp_path)
    counted = [k for k, (_, unit) in first[2].items() if unit == "count"]
    assert {"metric.poly_det_calls", "metric.poly_det_distinct", "polyring.mul_calls",
            "fieldeqs.einstein_matrix_calls"} <= set(counted)
    assert all(first[2][k] == second[2][k] for k in counted)
    assert first[1] == second[1] == 0


def test_layer_self_times_fit_in_the_round_despite_the_thread_pool(tmp_path):
    # the combined manifest runs its backgrounds in cli.run's pool
    _, _, values = run.traced("bundled", 4, 0.0, tmp_path)
    layers = sum(v for k, (v, unit) in values.items()
                 if unit == "s" and k not in ("polyring.self_s", "trace.round_s"))
    assert 0 < layers <= values["trace.round_s"][0]


def test_residual_terms_count_each_listed_residual_once():
    import tracer

    req = _request("solution4_literal")  # rendered and evaluated at its eval points
    t = tracer.Tracer()
    t.install()
    try:
        t.begin_request(0, req.label)
        code, out = run.run_in_process(cli, req, req.shipped)
        t.end_request()
    finally:
        t.uninstall()
    assert workloads.mismatches(req, code, out) == []
    assert t.totals()["residual_terms"] == 2  # 1/2*x1^2 - 1/2*y1^2


def test_tracer_refuses_to_run_without_a_listed_function(monkeypatch):
    import tracer

    monkeypatch.setitem(tracer.LAYERS, ("metric", "no_such_function"), "metric.none")
    t = tracer.Tracer()
    with pytest.raises(LookupError, match="metric.no_such_function"):
        t.install()
    from sugra11 import metric
    assert not hasattr(metric.poly_det, "__wrapped__")
