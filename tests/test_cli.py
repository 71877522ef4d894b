"""Manifest parsing, round trips, batch runs, exit codes, spot evaluation."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from sugra11.cli import (
    EXIT_ERROR,
    EXIT_FAIL,
    EXIT_PASS,
    evaluate_report_at_points,
    main,
    run,
)
from sugra11.manifest import (
    ManifestError,
    parse_manifest,
    parse_manifest_dict,
    serialize_manifest,
)

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def load(name):
    return parse_manifest(MANIFESTS / name)


# -- parsing -------------------------------------------------------------------

def test_parse_bundled_solution_manifest():
    m = load("solution1.json")
    assert len(m.backgrounds) == 1
    spec = m.backgrounds[0]
    assert spec.name == "solution1"
    assert spec.checks == ["closedness", "maxwell", "einstein"]
    assert m.products["X11"].chart.dim == 11


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


def test_round_trip_is_semantically_identical():
    for name in ("solution1.json", "solution3.json", "solution4_literal.json"):
        m = load(name)
        again = parse_manifest_dict(serialize_manifest(m))
        assert set(again.charts) == set(m.charts)
        for key in m.charts:
            assert again.charts[key] == m.charts[key]
        for key in m.metrics:
            assert again.metrics[key].g == m.metrics[key].g
            assert again.metrics[key].signature == m.metrics[key].signature
        for key in m.forms:
            assert again.forms[key] == m.forms[key]
        assert [b.name for b in again.backgrounds] == [b.name for b in m.backgrounds]
        assert [b.checks for b in again.backgrounds] == [b.checks for b in m.backgrounds]


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


def test_norms_split_and_theorem_checks_through_runner():
    doc = json.loads((MANIFESTS / "solution1.json").read_text())
    doc["backgrounds"][0]["checks"] = ["norms", "split", "theorem"]
    doc["backgrounds"][0]["theorem"] = "alpha"
    reports, code = run(parse_manifest_dict(doc))
    assert code == EXIT_PASS
    names = [result.name for result in reports[0].results]
    assert "norms" in names
    assert "einstein_blocks" in names
    assert "theorem_alpha_hypotheses" in names
    # the theorem path re-runs the three equations once hypotheses hold
    assert "einstein" in names


def test_engine_error_is_carried_per_background_without_aborting():
    doc = json.loads((MANIFESTS / "solution1.json").read_text())
    good = doc["backgrounds"][0]
    bad = dict(good)
    bad["name"] = "wrong_shape"
    bad["checks"] = ["case"]
    bad["case"] = 5  # the flux piece does not match this shape
    doc["backgrounds"] = [bad, good]
    reports, code = run(parse_manifest_dict(doc))
    assert code == EXIT_ERROR
    assert [r.background for r in reports] == ["wrong_shape", "solution1"]
    assert reports[0].error is not None and "case 5" in reports[0].error
    assert reports[1].passed


def test_case_check_requires_case_number():
    doc = json.loads((MANIFESTS / "solution1.json").read_text())
    doc["backgrounds"][0]["checks"] = ["case"]
    with pytest.raises(ManifestError, match="needs a 'case' number"):
        parse_manifest_dict(doc)


def test_only_filter_and_unknown_name():
    m = load("solution1.json")
    reports, code = run(m, only="solution1")
    assert len(reports) == 1 and code == EXIT_PASS
    with pytest.raises(ManifestError):
        run(m, only="missing")


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

def _wrong_inverse(doc):
    doc["metrics"][1]["inverse"][0][0] = "7"
    return "metric 'g_walker'"


def _duplicate_coordinate(doc):
    doc["charts"][0]["coordinates"][1] = "y1"
    return "chart 'base5'"


def _scalar_signature(doc):
    doc["metrics"][0]["signature"] = 5
    return "metric 'g_base'"


def _repeated_index(doc):
    doc["forms"][0]["terms"][0]["indices"] = ["u", "u", "x3", "x4"]
    return "form 'du_theta' term 0"


def _scalar_term(doc):
    doc["forms"][0]["terms"] = [5]
    return "form 'du_theta' term 0"


def _string_checks(doc):
    doc["backgrounds"][0]["checks"] = "maxwell"
    return "background 'solution1': checks"


def _string_coordinates(doc):
    doc["charts"][0]["coordinates"] = "y1"
    return "chart 'base5': coordinates"


def _string_case(doc):
    doc["backgrounds"][0]["case"] = "6"
    return "background 'solution1': case"


def _zero_denominator(doc):
    doc["forms"][0]["terms"][0]["coeff"] = "1/0"
    return "form 'du_theta' term 0"


def _nonconstant_warping(doc):
    doc["products"][0]["warping"] = "y1"
    return "product 'X11': warping must be a nonzero constant, got y1"


@pytest.mark.parametrize(
    "corrupt",
    [
        _wrong_inverse,
        _duplicate_coordinate,
        _scalar_signature,
        _repeated_index,
        _scalar_term,
        _string_checks,
        _string_coordinates,
        _string_case,
        _zero_denominator,
        _nonconstant_warping,
    ],
)
def test_bad_manifest_entry_exits_2_with_one_line(tmp_path, capsys, corrupt):
    doc = json.loads((MANIFESTS / "solution1.json").read_text())
    entry = corrupt(doc)
    with pytest.raises(ManifestError, match=entry):
        parse_manifest_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["--manifest", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {entry}") and captured.err.count("\n") == 1


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


def test_case_missing_flux_pieces_is_that_background_error(tmp_path, capsys):
    doc = json.loads((MANIFESTS / "solution1.json").read_text())
    doc["backgrounds"][0]["checks"] = ["case"]
    doc["backgrounds"][0]["case"] = 6  # needs alpha_t, beta_t and nu; solution1 has alpha_t
    path = tmp_path / "case6.json"
    path.write_text(json.dumps(doc))
    assert main(["--manifest", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "  ERROR: case 6 needs pieces ['beta_t', 'nu']" in captured.out
    assert "Error" not in captured.out and "Traceback" not in captured.out
