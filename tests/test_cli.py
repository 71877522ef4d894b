"""Manifest parsing, batch runs, exit codes, spot evaluation."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sugra11.cli import (
    EXIT_ERROR,
    EXIT_FAIL,
    EXIT_PASS,
    evaluate_report_at_points,
    main,
    render_json,
    render_text,
    run,
    run_background,
)
from sugra11.exterior import Chart
from sugra11.fieldeqs import flux_norm_sq
from sugra11.manifest import ManifestError, parse_manifest, parse_manifest_dict
from sugra11.metric import make_metric
from sugra11.polyring import Polynomial, format_rational, parse_polynomial
from sugra11.report import CheckResult

from test_polyring import from_decimal

ROOT = Path(__file__).resolve().parent.parent
MANIFESTS = ROOT / "manifests"


def load(name):
    return parse_manifest(MANIFESTS / name)


# -- parsing -------------------------------------------------------------------

def test_parse_bundled_solution_manifest():
    m = load("solution1.json")
    assert len(m.backgrounds) == 1
    spec = m.backgrounds[0]
    assert spec.name == "solution1"
    assert spec.checks == ["closedness", "maxwell", "einstein"]
    assert spec.background.product.chart.dim == 11


def test_parse_unresolved_chart_reference():
    doc = json.loads((MANIFESTS / "solution1.json").read_text())
    doc["metrics"][0]["chart"] = "nowhere"
    with pytest.raises(ManifestError, match="unresolved chart"):
        parse_manifest_dict(doc)


def test_parse_empty_backgrounds_rejected():
    doc = json.loads((MANIFESTS / "solution1.json").read_text())
    doc["backgrounds"] = []
    with pytest.raises(ManifestError, match="no backgrounds"):
        parse_manifest_dict(doc)


def test_parse_bad_polynomial_reports_offender():
    doc = json.loads((MANIFESTS / "solution1.json").read_text())
    doc["forms"][0]["terms"][0]["coeff"] = "1 +* x"
    with pytest.raises(ManifestError, match="bad polynomial"):
        parse_manifest_dict(doc)


def test_parse_background_needs_checks():
    doc = json.loads((MANIFESTS / "solution1.json").read_text())
    doc["backgrounds"][0]["checks"] = []
    with pytest.raises(ManifestError, match="at least one check"):
        parse_manifest_dict(doc)


# -- running --------------------------------------------------------------------

def test_run_solution_manifests_pass():
    for name in ("solution1.json", "solution2.json", "solution3.json", "solution4_corrected.json"):
        reports, code = run(load(name))
        assert code == EXIT_PASS, name
        assert all(r.passed for r in reports)


def test_run_literal_manifest_fails_with_uu_entry():
    reports, code = run(load("solution4_literal.json"))
    assert code == EXIT_FAIL
    report = reports[0]
    entries = dict(
        (where, value)
        for result in report.results
        for where, value in result.nonzero_entries()
    )
    assert "einstein_residual[10,10]" in entries
    assert entries["einstein_residual[10,10]"] == "1/2*x1^2 - 1/2*y1^2"


def test_exit_codes_through_main(capsys):
    assert main(["--manifest", str(MANIFESTS / "solution1.json")]) == EXIT_PASS
    capsys.readouterr()
    assert main(["--manifest", str(MANIFESTS / "solution4_literal.json")]) == EXIT_FAIL
    capsys.readouterr()
    assert main(["--manifest", str(MANIFESTS / "broken.json")]) == EXIT_ERROR
    capsys.readouterr()
    assert main(["--manifest", str(MANIFESTS / "does_not_exist.json")]) == EXIT_ERROR
    capsys.readouterr()


def test_split_and_theorem_checks_through_runner():
    doc = json.loads((MANIFESTS / "solution1.json").read_text())
    doc["backgrounds"][0]["checks"] = ["split", "theorem"]
    reports, code = run(parse_manifest_dict(doc))
    assert code == EXIT_PASS
    names = [result.name for result in reports[0].results]
    assert "einstein_blocks" in names
    assert "theorem_alpha_hypotheses" in names
    # the theorem path re-runs the three equations once hypotheses hold
    assert "einstein" in names


def with_a_shapeless_background(doc, check):
    """doc with a background named no_shape before its first, whose flux
    gamma_t ^ delta + theta is the shape of no case, running check alone."""
    doc["forms"] += [
        {"name": "gamma2", "chart": "walker6", "degree": 2,
         "terms": [{"indices": ["x1", "x2"], "coeff": "1"}]},
        {"name": "delta2", "chart": "base5", "degree": 2,
         "terms": [{"indices": ["y1", "y2"], "coeff": "1"}]},
        {"name": "theta4", "chart": "base5", "degree": 4,
         "terms": [{"indices": ["y1", "y2", "y3", "y4"], "coeff": "1"}]},
    ]
    shapeless = dict(doc["backgrounds"][0], name="no_shape", checks=[check],
                     flux={"gamma_t": "gamma2", "delta": "delta2", "theta": "theta4"})
    doc["backgrounds"].insert(0, shapeless)
    return doc


def test_engine_error_is_carried_per_background_without_aborting():
    doc = with_a_shapeless_background(json.loads((MANIFESTS / "solution1.json").read_text()), "case")
    reports, code = run(parse_manifest_dict(doc))
    assert code == EXIT_ERROR
    assert [r.background for r in reports] == ["no_shape", "solution1"]
    assert reports[0].error is not None and "no special case" in reports[0].error
    assert reports[1].passed


@pytest.mark.parametrize("stale", [{"case": 5}, {"theorem": "alpha"}, {"case": "6", "theorem": 5}],
                         ids=["case", "theorem", "both_of_the_wrong_type"])
def test_a_stale_case_or_theorem_key_is_ignored(stale):
    # both checks read their shape off the flux: solution2's is case 2, the beta_nu theorem
    doc = json.loads((MANIFESTS / "solution2.json").read_text())
    doc["backgrounds"][0].update(stale, checks=["case", "theorem"])
    (report,), code = run(parse_manifest_dict(doc))
    assert code == EXIT_PASS
    assert [r.name for r in report.results] == [
        "case_2", "theorem_beta_nu_hypotheses", "closedness", "maxwell", "einstein"]


def test_only_filter_and_unknown_name(capsys):
    m = load("solution1.json")
    reports, code = run(m, only="solution1")
    assert len(reports) == 1 and code == EXIT_PASS
    with pytest.raises(ManifestError):
        run(m, only="missing")
    # --only <name> reports exactly that background's entry of the full run
    args = ["--manifest", str(ROOT / "tests" / "golden" / "cases_nonsolution.manifest.json"),
            "--format", "json"]
    main(args)
    full = json.loads(capsys.readouterr().out)["backgrounds"]
    assert len(full) > 1
    for entry in full:
        main([*args, "--only", entry["background"]])
        assert json.loads(capsys.readouterr().out)["backgrounds"] == [entry]


def test_exit_code_is_a_function_of_verdicts():
    reports_pass, code_pass = run(load("solution1.json"))
    assert code_pass == EXIT_PASS and all(r.passed for r in reports_pass)
    reports_fail, code_fail = run(load("solution4_literal.json"))
    assert code_fail == EXIT_FAIL
    assert any(not r.passed for r in reports_fail)
    assert not any(r.error for r in reports_fail)


# -- evaluation --------------------------------------------------------------------

def test_evaluate_report_at_points():
    reports, _ = run(load("solution4_literal.json"))
    values = evaluate_report_at_points(
        reports[0], {"x1": Fraction(1), "x2": Fraction(0), "y1": Fraction(0)}
    )
    assert values == {"einstein:einstein_residual[10,10]": "1/2"}
    # zero residuals evaluate to nothing anywhere
    reports_ok, _ = run(load("solution1.json"))
    assert evaluate_report_at_points(reports_ok[0], {"x1": Fraction(7)}) == {}


def test_evaluate_missing_variable_errors():
    reports, _ = run(load("solution4_literal.json"))
    with pytest.raises(ManifestError, match="misses a variable"):
        evaluate_report_at_points(reports[0], {"x1": Fraction(1)})


def test_json_report_shape(capsys):
    code = main(["--manifest", str(MANIFESTS / "solution1.json"), "--format", "json"])
    assert code == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["summary"] == {"passed": 1, "failed": 0, "errored": 0}
    assert doc["backgrounds"][0]["verdict"] == "pass"


def test_cli_eval_flag(capsys):
    code = main(
        [
            "--manifest",
            str(MANIFESTS / "solution4_literal.json"),
            "--eval",
            "x1=1,x2=0,y1=0",
        ]
    )
    assert code == EXIT_FAIL
    out = capsys.readouterr().out
    assert "eval einstein:einstein_residual[10,10] = 1/2" in out


# -- bad input exits 2 with one line ----------------------------------------------------

def _duplicate_coordinate(doc):
    doc["charts"][0]["coordinates"][1] = "y1"
    return "chart 'base5': duplicate coordinate 'y1'"


def _empty_coordinates(doc):
    doc["charts"][0]["coordinates"] = []
    return "chart 'base5': coordinates must not be empty"


def _scalar_signature(doc):
    doc["metrics"][0]["signature"] = 5
    return "metric 'g_base': signature must be a list of two integers, got 5"


def _declared_signature_of_the_wrong_kind(doc):
    # each has the parity of its det g, so only the signature itself tells them apart
    doc["metrics"][0]["signature"] = [2, 3]
    doc["metrics"][1]["signature"] = [3, 3]
    return "metric 'g_base': declared signature "


def _metric_entry_outside_its_chart(doc):
    doc["metrics"][1]["lower_triangular"][5][5] += " + y1^2"
    return "metric 'g_walker': y1 outside chart 'walker6', in entry "


def _flux_coefficient_outside_its_chart(doc):
    # solution2 with nu = x1 dt, a fiber coordinate in a base piece, run by case alone
    doc.clear()
    doc.update(json.loads((MANIFESTS / "solution2.json").read_text()))
    doc["forms"][1]["terms"][0]["coeff"] = "x1"
    doc["backgrounds"][0]["checks"] = ["case"]
    return "background 'solution2': x1 outside chart 'pline5', in a coefficient of nu"


def _repeated_index(doc):
    doc["forms"][0]["terms"][0]["indices"] = ["u", "u", "x3", "x4"]
    return "form 'du_theta': term 0"


def _scalar_term(doc):
    doc["forms"][0]["terms"] = [5]
    return "form 'du_theta': term 0"


def _string_checks(doc):
    doc["backgrounds"][0]["checks"] = "maxwell"
    return "background 'solution1': checks"


def _string_coordinates(doc):
    doc["charts"][0]["coordinates"] = "y1"
    return "chart 'base5': coordinates"


def _unknown_flux_piece(doc):
    doc["backgrounds"][0]["flux"]["zeta"] = "du_theta"
    return "background 'solution1': unknown flux piece 'zeta'"


def _repeated_check(doc):
    doc["backgrounds"][0]["checks"] = ["einstein", "maxwell", "einstein"]
    return "background 'solution1': check 'einstein' is listed twice"


def _theorem_with_its_equations(doc):
    # theorem runs closedness, maxwell and einstein itself once its hypotheses hold
    doc["backgrounds"][0].update(checks=["closedness", "maxwell", "einstein", "theorem"])
    return "background 'solution1': check 'closedness' is run by 'theorem'"


def _zero_denominator(doc):
    doc["forms"][0]["terms"][0]["coeff"] = "1/0"
    return "form 'du_theta': term 0"


def _exponent_past_the_limit(doc):
    doc["forms"][0]["terms"][0]["coeff"] = "x2^2147483648"
    return "form 'du_theta': term 0: bad polynomial"


def _quotient_exponent(doc):
    doc["forms"][0]["terms"][0]["coeff"] = "x1^4/2"
    return "form 'du_theta': term 0: bad polynomial"


def _long_exponent(doc):
    doc["forms"][0]["terms"][0]["coeff"] = "x2^" + "9" * 5000
    return "form 'du_theta': term 0: bad polynomial"


def _signed_factor(doc):
    doc["forms"][0]["terms"][0]["coeff"] = "x2*-x3"
    return "form 'du_theta': term 0: bad polynomial"


def _juxtaposed_factor(doc):
    doc["forms"][0]["terms"][0]["coeff"] = "2 3"
    return "form 'du_theta': term 0: bad polynomial"


def _nonconstant_warping(doc):
    doc["products"][0]["warping"] = "y1"
    return "product 'X11': warping must be a nonzero constant, got y1"


def _exponent_notation_eval_point(doc):
    doc["backgrounds"][0]["eval_points"] = [{"x1": "1e999999999"}]
    return ("background 'solution1': eval_points item 0: x1: "
            "bad rational '1e999999999': expected int or int/int")


def _bool_eval_value(doc):
    # true is a JSON bool, not the integer 1
    doc["backgrounds"][0]["eval_points"] = [{"x1": True, "y1": 0}]
    return "background 'solution1': eval_points item 0: x1: bad rational True"


def _empty_eval_name(doc):
    doc["backgrounds"][0]["eval_points"] = [{"": "5", "x1": "1", "x2": "0", "y1": "0"}]
    return "background 'solution1': eval_points item 0: empty variable name"


def _metric_exponent_overflow(doc):
    doc["metrics"][0]["lower_triangular"][1][0] = "y1^1073741824"
    return "metric 'g_base': exponent of y1 reaches"


def _metric_exponent_at_the_limit(doc):
    doc["metrics"][0]["lower_triangular"][1][0] = "y1^2147483647"
    return "metric 'g_base': exponent of y1 reaches"


def _long_coefficient(doc):
    doc["forms"][0]["terms"][0]["coeff"] = "1" * 5000
    return "form 'du_theta': term 0: bad polynomial"


def _coordinate(label, text):
    """A corruption that renames solution1's first base coordinate to text, which no polynomial can use."""
    def corrupt(doc):
        doc["charts"][0]["coordinates"][0] = text
        return f"chart 'base5': coordinate {text!r} is not a variable name"
    corrupt.__name__ = f"_coordinate_{label}"
    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        _duplicate_coordinate,
        _empty_coordinates,
        _scalar_signature,
        _declared_signature_of_the_wrong_kind,
        _metric_entry_outside_its_chart,
        _flux_coefficient_outside_its_chart,
        _repeated_index,
        _scalar_term,
        _string_checks,
        _unknown_flux_piece,
        _repeated_check,
        _theorem_with_its_equations,
        _string_coordinates,
        _zero_denominator,
        _exponent_past_the_limit,
        _quotient_exponent,
        _long_exponent,
        _signed_factor,
        _juxtaposed_factor,
        _nonconstant_warping,
        _exponent_notation_eval_point,
        _bool_eval_value,
        _empty_eval_name,
        _long_coefficient,
        _metric_exponent_overflow,
        _metric_exponent_at_the_limit,
        _coordinate("empty", ""),
        _coordinate("leading_digit", "1x"),
        _coordinate("caret", "x^2"),
        _coordinate("space", "y 1"),
        _coordinate("minus", "y-1"),
    ],
)
def test_bad_manifest_entry_exits_2_with_one_line(tmp_path, capsys, corrupt):
    doc = json.loads((MANIFESTS / "solution1.json").read_text())
    entry = corrupt(doc)
    # every row names the corrupted entry first, and the message names it only there
    prefix = re.match(r"(chart|metric|form|product|background) ('[^']+'): ", entry)
    assert prefix is not None
    with pytest.raises(ManifestError, match=re.escape(entry)) as info:
        parse_manifest_dict(doc)
    message = str(info.value)
    assert message.startswith(prefix[0]) and message.count(prefix[2]) == 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["--manifest", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {entry}") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "section, kind",
    [("charts", "chart"), ("metrics", "metric"), ("forms", "form"), ("products", "product"),
     ("backgrounds", "background")],
)
def test_duplicate_entry_name_exits_2_naming_it(tmp_path, capsys, section, kind):
    doc = json.loads((MANIFESTS / "solution1.json").read_text())
    name = doc[section][0]["name"]
    # the copy also lacks every other field: the duplicate name is reported first
    doc[section].append({"name": name})
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    assert main(["--manifest", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: duplicate {kind} {name!r}\n"


NULL_THETA = ["u", "x2", "x3", "x4"]  # the flux of solution1, null: |F|^2 = 0
UNIT_THETA = ["x1", "x2", "x3", "x4"]  # |F|^2 = 1, so a sign of f reaching the norm would show
ALL_FOUR = ["closedness", "maxwell", "einstein", "split"]


@pytest.mark.parametrize(
    "warping, checks, theta, code",
    [pytest.param("2", ["closedness", "einstein", "split"], NULL_THETA, EXIT_PASS, id="2-checks0"),
     pytest.param("1", ALL_FOUR, NULL_THETA, EXIT_PASS, id="1-checks1"),
     pytest.param("2", ALL_FOUR, UNIT_THETA, EXIT_FAIL, id="2-unit-theta"),
     pytest.param("1", ALL_FOUR, UNIT_THETA, EXIT_FAIL, id="1-unit-theta")],
)
def test_negative_warp_on_an_odd_fiber_reports_as_its_absolute_value(
    tmp_path, capsys, warping, checks, theta, code
):
    # solution1 with base and fiber swapped: a 6-dimensional base, a 5-dimensional fiber
    doc = json.loads((MANIFESTS / "solution1.json").read_text())
    doc["products"][0].update(base="g_walker", fiber="g_base")
    doc["forms"][0]["terms"][0]["indices"] = theta
    doc["backgrounds"][0].update(flux={"theta": "du_theta"}, checks=checks)
    outputs, norms = [], []
    for f in (warping, "-" + warping):
        doc["products"][0]["warping"] = f
        path = tmp_path / f"warp{f}.json"
        path.write_text(json.dumps(doc))
        assert main(["--manifest", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
        norms.append(flux_norm_sq(parse_manifest(path).backgrounds[0].background))
    assert outputs[0] == outputs[1]
    assert norms[0] == norms[1]
    if code == EXIT_PASS:
        assert outputs[1].count(": PASS\n") == len(checks)
        assert "summary: 1 passed, 0 failed, 0 errored\n" in outputs[1]
    else:  # the same FAIL report, residual by residual, for f and -f
        assert norms[1] == (Polynomial.constant(1),) * 2
        assert "  einstein: FAIL\n" in outputs[1] and "  einstein_blocks: FAIL\n" in outputs[1]
        assert "summary: 0 passed, 1 failed, 0 errored\n" in outputs[1]


@pytest.mark.parametrize(
    "content",
    [b'{"schema": 1, "name": "\xff"}', b"[" * 100000 + b"]" * 100000, b'{"schema": ' + b"1" * 5000 + b"}"],
    ids=["not_utf8", "nested_too_deep", "int_past_the_digit_limit"],
)
def test_undecodable_manifest_exits_2_with_one_line(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["--manifest", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--eval", "x1=1e999999999"], "--eval x1: bad rational"),
        (["--eval", "x1=1/2,y1=0.5"], "--eval y1: bad rational"),
        (["--eval", " = 3 ,x1=1,x2=0,y1=0"], "bad point assignment '= 3'"),
        (["--eval", ""], "empty evaluation point"),
        (["--eval", " "], "empty evaluation point"),
        (["--eval", ","], "empty evaluation point"),
    ],
)
def test_bad_rational_flag_exits_2_with_one_line(capsys, flags, message):
    assert main(["--manifest", str(MANIFESTS / "solution1.json"), *flags]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


def test_set_flag_is_refused_by_the_argument_parser(capsys):
    # case 3 reads its coupling constant off the flux, so no flag sets one; main returns
    # 2 with one error line, as for a bad manifest, and raises no SystemExit
    assert main(["--manifest", str(MANIFESTS / "solution1.json"), "--set", "c=2"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unrecognized arguments: --set c=2\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: --manifest"),
        (["--manifest"], "argument --manifest: expected one argument"),
        (
            ["--manifest", str(MANIFESTS / "solution1.json"), "--format", "xml"],
            "argument --format: invalid choice: 'xml' (choose from 'text', 'json')",
        ),
        # no prefix of a flag stands for it: a second manifest does not replace the first
        (
            ["--manifest", str(MANIFESTS / "solution1.json"),
             "--man", str(MANIFESTS / "solution4_literal.json")],
            f"unrecognized arguments: --man {MANIFESTS / 'solution4_literal.json'}",
        ),
        (["--manifest", str(MANIFESTS / "solution1.json"), "--f", "json"],
         "unrecognized arguments: --f json"),
        (["--manifest", str(MANIFESTS / "solution1.json"), "--o", "solution1"],
         "unrecognized arguments: --o solution1"),
        (["--manifest", str(MANIFESTS / "solution1.json"), "--e", "x1=1"],
         "unrecognized arguments: --e x1=1"),
    ],
    ids=["missing_manifest", "manifest_without_value", "unknown_format", "abbreviated_manifest",
         "abbreviated_format", "abbreviated_only", "abbreviated_eval"],
)
def test_flag_error_returns_2_with_one_error_line(capsys, argv, message):
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_help_prints_usage_to_stdout_and_returns_0(capsys):
    assert main(["--help"]) == EXIT_PASS
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: sugra11-verify ") and "--format {text,json}" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("schema", [True, 1.0, "1", 2])
def test_schema_must_be_the_json_integer_1(tmp_path, capsys, schema):
    # true and 1.0 equal 1 in Python, but neither is the JSON integer 1
    doc = json.loads((MANIFESTS / "solution1.json").read_text())
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(dict(doc, schema=schema)))
    assert main(["--manifest", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: unsupported schema {schema!r}\n"


def _shipped_manifests():
    """Every manifests/*.json and tests/golden/*.manifest.json that parses, as JSON."""
    paths = sorted(MANIFESTS.glob("*.json")) + sorted((ROOT / "tests" / "golden").glob("*.manifest.json"))
    docs = {}
    for path in paths:
        try:
            parse_manifest(path)
        except ManifestError:
            continue
        docs[path.name] = json.loads(path.read_text())
    return docs


def test_stripped_inverse_and_sqrt_abs_det_change_no_report():
    # make_metric derives both, so the keys the shipped manifests carry are ignored
    for name, doc in _shipped_manifests().items():
        stripped = json.loads(json.dumps(doc))
        for entry in stripped["metrics"]:
            entry.pop("inverse", None)
            entry.pop("sqrt_abs_det", None)
        assert stripped != doc, name  # every one of them carries an inverse
        reports = [run(parse_manifest_dict(d))[0] for d in (doc, stripped)]
        assert render_text(reports[0]) == render_text(reports[1]), name
        assert render_json(reports[0]) == render_json(reports[1]), name


def test_each_carried_inverse_is_the_derived_inverse():
    # perfbench/ladder.py reads the inverses the manifests carry; the engine no longer does
    checked = 0
    for name, doc in _shipped_manifests().items():
        charts = {c["name"]: Chart(c["name"], c["coordinates"]) for c in doc["charts"]}
        for entry in doc["metrics"]:
            if "inverse" not in entry:
                continue
            chart = charts[entry["chart"]]
            g = [[parse_polynomial(entry["lower_triangular"][max(i, j)][min(i, j)])
                  for j in range(chart.dim)] for i in range(chart.dim)]
            derived = make_metric(chart, g).g_inv
            for i, row in enumerate(entry["inverse"]):
                for j, text in enumerate(row):
                    assert parse_polynomial(text) == derived[i][j], (name, entry["name"], i, j)
            checked += 1
    assert checked >= 12


@pytest.mark.parametrize("settings", [{"format": "json"}, 5], ids=["format_json", "not_an_object"])
def test_a_settings_block_is_ignored(tmp_path, capsys, settings):
    # --format alone picks the report: a settings block, well formed or not, changes nothing
    doc = json.loads((MANIFESTS / "solution1.json").read_text())
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(dict(doc, settings=settings)))
    assert main(["--manifest", str(path)]) == EXIT_PASS
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (ROOT / "tests" / "golden" / "solution1.text.stdout").read_text()


def test_repeated_eval_name_exits_2_with_one_line(capsys):
    args = ["--manifest", str(MANIFESTS / "solution1.json"), "--eval", "x1=1,y1=0,x1=2"]
    assert main(args) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --eval names 'x1' twice\n"


def test_duplicate_manifest_key_exits_2_naming_it(tmp_path, capsys):
    # a second "checks" list in a background used to replace the first silently
    text = (MANIFESTS / "solution1.json").read_text()
    doc = json.loads(text)
    dumped = json.dumps(doc)
    assert dumped.count('"checks": [') == len(doc["backgrounds"])
    path = tmp_path / "dup.json"
    path.write_text(dumped.replace('"checks": [', '"checks": ["closedness"], "checks": [', 1))
    assert main(["--manifest", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: duplicate key 'checks'\n"
    # no shipped or golden manifest repeats a key
    for shipped in sorted(MANIFESTS.glob("*.json")) + sorted((ROOT / "tests" / "golden").glob("*.manifest.json")):
        if shipped.name != "broken.json":  # not JSON at all
            parse_manifest(shipped)


def test_bad_eval_point_is_that_background_error(tmp_path, capsys):
    doc = json.loads((MANIFESTS / "solution4_literal.json").read_text())
    bad = doc["backgrounds"][0]
    bad["eval_points"] = [{"x1": "1"}]  # misses x2 and y1
    good = dict(bad, name="no_eval")
    del good["eval_points"]
    doc["backgrounds"] = [bad, good]
    reports, code = run(parse_manifest_dict(doc))
    assert code == EXIT_ERROR
    assert "misses a variable" in reports[0].error
    assert reports[1].error is None and reports[1].results
    path = tmp_path / "eval.json"
    path.write_text(json.dumps(doc))
    assert main(["--manifest", str(path)]) == EXIT_ERROR
    out = capsys.readouterr().out
    assert "background no_eval" in out and "summary: 0 passed, 1 failed, 1 errored" in out


def test_an_eval_point_value_may_be_a_json_integer(tmp_path, capsys):
    doc = json.loads((MANIFESTS / "solution4_literal.json").read_text())
    doc["backgrounds"][0]["eval_points"] = [{"x1": 1, "y1": 0}]
    path = tmp_path / "int_point.json"
    path.write_text(json.dumps(doc))
    assert main(["--manifest", str(path)]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "  eval[x1=1, y1=0] einstein:einstein_residual[10,10] = 1/2\n" in captured.out


def test_a_manifest_that_is_a_json_list_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([json.loads((MANIFESTS / "solution1.json").read_text())]))
    assert main(["--manifest", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: manifest must be a JSON object\n"


def test_a_theorem_counterexample_is_that_background_error(tmp_path, capsys, monkeypatch):
    # hypotheses that hold while an equation fails would refute the theorem: the report says so
    import sugra11.solutions as solutions

    def failing_einstein(bg):
        result = CheckResult("einstein")
        result.residuals["einstein_residual"] = Polynomial.constant(1)
        return result

    monkeypatch.setattr(solutions, "check_einstein", failing_einstein)
    doc = json.loads((MANIFESTS / "solution1.json").read_text())
    doc["backgrounds"][0]["checks"] = ["theorem"]
    path = tmp_path / "theorem.json"
    path.write_text(json.dumps(doc))
    assert main(["--manifest", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(
        "background solution1\n"
        "  ERROR: hypotheses hold but the field equations fail\n"
        "  theorem_alpha_hypotheses: PASS\n"
    )
    assert "  einstein: FAIL\n    residual einstein_residual = 1\n" in captured.out
    assert "summary: 0 passed, 0 failed, 1 errored\n" in captured.out


def test_eval_point_missing_a_variable_is_that_background_error(tmp_path, capsys):
    doc = json.loads((MANIFESTS / "solution4_literal.json").read_text())
    failing = doc["backgrounds"][0]
    # no residual, so nothing to evaluate and no variable to miss
    closed = dict(failing, name="closed_only", checks=["closedness"])
    doc["backgrounds"] = [failing, closed]
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    assert main(["--manifest", str(path), "--eval", "x1=1"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == ""
    out = captured.out
    error = "ERROR: ManifestError: evaluation point misses a variable"
    assert f"background {failing['name']}\n  {error}" in out
    assert "background closed_only\n  closedness: PASS" in out
    assert "summary: 1 passed, 0 failed, 1 errored" in out
    assert main(["--manifest", str(path), "--eval", "x1=1", "--format", "json"]) == EXIT_ERROR
    report = json.loads(capsys.readouterr().out)
    assert [b["verdict"] for b in report["backgrounds"]] == ["error", "pass"]
    assert report["evaluations"] == {"closed_only": {}}


@pytest.mark.parametrize("check, message", [
    ("case", "no special case has exactly the flux pieces"),
    ("theorem", "no theorem for these pieces:"),
], ids=["case", "theorem"])
def test_a_flux_of_no_shape_is_that_background_error(tmp_path, capsys, check, message):
    doc = with_a_shapeless_background(json.loads((MANIFESTS / "solution1.json").read_text()), check)
    path = tmp_path / "no_shape.json"
    path.write_text(json.dumps(doc))
    assert main(["--manifest", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f"background no_shape\n  ERROR: {message} ['gamma_t', 'delta', 'theta']\n" in captured.out
    assert "Error" not in captured.out and "Traceback" not in captured.out
    assert "background solution1\n" in captured.out
    assert "summary: 1 passed, 0 failed, 1 errored" in captured.out


def test_theorem_accepts_a_warping_of_minus_one(tmp_path, capsys):
    # h depends on f^2 only, so f = -1 is the direct product the theorems are stated for
    golden = ROOT / "tests" / "golden"
    doc = json.loads((golden / "theorem_rescaled.manifest.json").read_text())
    path = tmp_path / "theorem_rescaled_warped.json"
    for warping, code in (("-1", EXIT_PASS), ("2", EXIT_ERROR)):
        for product in doc["products"]:
            product["warping"] = warping
        path.write_text(json.dumps(doc))
        assert main(["--manifest", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        if code == EXIT_PASS:
            assert captured.out == (golden / "theorem_rescaled.stdout").read_text()
        else:
            assert captured.out.count("  ERROR: ValueError: the structural statements are for "
                                      "the direct product (f = 1 or -1)\n") == 2


def test_residual_past_the_int_digit_limit_is_printed_in_full(tmp_path, capsys):
    doc = json.loads((MANIFESTS / "solution1.json").read_text())
    doc["forms"][0]["terms"][0]["coeff"] = "3" * 2500
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    (report,), _ = run(parse_manifest_dict(doc))
    residual = report.results[-1].residuals["einstein_residual"][10][10]
    assert residual.is_constant() and len(format_rational(residual.constant_value())) > 4300
    point = "x1=1,x2=0,x3=0,x4=0,y1=0,y2=0,y3=0,y4=0,y5=0,u=0,v=0"
    assert main(["--manifest", str(path), "--eval", point]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.err == "" and "Traceback" not in captured.out
    printed = {}
    for line in captured.out.splitlines():
        if "einstein_residual[10,10] = " in line:
            where, value = line.split(" = ")
            printed[where.split()[0]] = from_decimal(value)
    assert printed == {"residual": residual.constant_value(), "eval": residual.constant_value()}


CHECK_FUNCTIONS = {
    "fieldeqs": ("check_closedness", "check_maxwell", "check_einstein", "split_einstein"),
    "cases": ("check_special_case",),
    "solutions": ("check_theorem_conditions",),
}


def test_every_check_reaches_a_wrapper_bound_to_its_module_attributes(monkeypatch):
    # perfbench/tracer.py wraps each check by rebinding every sugra11 module attribute
    # that holds it; a runner holding the function object itself would bypass the wrapper
    import sugra11.solutions  # noqa: F401 - loaded before the rebinding, as under the tracer

    originals = {
        name: getattr(sys.modules[f"sugra11.{module}"], name)
        for module, names in CHECK_FUNCTIONS.items()
        for name in names
    }
    calls = dict.fromkeys(originals, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    by_id = {id(fn): (fn, counting(name, fn)) for name, fn in originals.items()}
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "sugra11" or module_name.startswith("sugra11.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                monkeypatch.setattr(module, attr, hit[1])

    doc = json.loads((MANIFESTS / "solution1.json").read_text())

    def count_calls(checks):
        calls.update(dict.fromkeys(calls, 0))
        doc["backgrounds"][0]["checks"] = checks
        report = run_background(parse_manifest_dict(doc).backgrounds[0])
        assert report.passed, report.error
        return dict(calls)

    # each check, run on its own, calls its function once through the wrapper
    runners = {"closedness": "check_closedness", "maxwell": "check_maxwell",
               "einstein": "check_einstein", "split": "split_einstein",
               "case": "check_special_case", "theorem": "check_theorem_conditions"}
    assert set(runners.values()) == set(originals)
    for check, name in runners.items():
        assert count_calls([check])[name] == 1, (check, calls)


IMPORT_PROBE = """
import json, sys
bare = set(sys.modules)
import sugra11.cli
imported = set(sys.modules) - bare
from pathlib import Path
from sugra11.manifest import parse_manifest_dict
doc = json.loads(Path("manifests/solution1.json").read_text())
doc["backgrounds"][0]["checks"] = ["theorem"]
report = sugra11.cli.run_background(parse_manifest_dict(doc).backgrounds[0])
print(json.dumps({"imported": sorted(imported), "theorem_passed": report.passed,
                  "solutions_after_theorem": "sugra11.solutions" in sys.modules}))
"""


def test_a_request_imports_only_what_it_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = json.loads(subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                                    capture_output=True, text=True, check=True, timeout=120).stdout)
    imported = set(out["imported"])
    assert "sugra11.cli" in imported
    assert "dataclasses" not in imported
    assert "sugra11.solutions" not in imported  # the theorem runner imports it
    # perfbench/tracer.py finds sugra11.cases.check_special_case in sys.modules
    # when it installs, before any request runs: cases stays an eager import
    assert "sugra11.cases" in imported
    assert out["theorem_passed"] and out["solutions_after_theorem"]
