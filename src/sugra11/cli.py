"""Manifest-driven batch verification.

Usage:
    sugra11-verify --manifest manifests/solution1.json
    sugra11-verify --manifest m.json --only name --format json
    sugra11-verify --manifest m.json --set c=-1 --eval "x1=1,x2=0,y1=0"

Exit codes: 0 all verdicts pass, 1 at least one verdict fails, 2 engine
or manifest error.  One background failing never aborts the batch.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional

from .cases import CaseShapeError, check_special_case
from .fieldeqs import (
    check_closedness,
    check_einstein,
    check_maxwell,
    flux_norm_sq,
    split_einstein,
)
from .manifest import BackgroundSpec, Manifest, ManifestError, parse_manifest
from .metric import CONVENTION_NOTES
from .report import CheckResult, VerificationReport, residual_entries
from .solutions import check_theorem_conditions

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def run_background(
    spec: BackgroundSpec,
    coupling: Optional[Fraction] = None,
    eval_point: Optional[Dict[str, Fraction]] = None,
) -> VerificationReport:
    """Run spec's checks, then its eval_points and the CLI's eval_point.

    Any exception, an evaluation point that misses a variable included,
    becomes this report's error; the other backgrounds are not affected.
    A case that does not fit the flux is reported by its message alone.
    """
    report = VerificationReport(background=spec.name)
    report.convention_notes.extend(CONVENTION_NOTES)
    bg = spec.background
    try:
        for check in spec.checks:
            if check == "closedness":
                report.results.append(check_closedness(bg))
            elif check == "maxwell":
                report.results.append(check_maxwell(bg))
            elif check == "einstein":
                report.results.append(check_einstein(bg))
            elif check == "norms":
                direct, block = flux_norm_sq(bg)
                result = CheckResult("norms")
                result.residuals["direct_minus_block"] = direct - block
                result.notes.append(f"|F|^2 = {direct}")
                report.results.append(result)
            elif check == "split":
                report.results.append(split_einstein(bg))
            elif check == "case":
                report.results.append(check_special_case(bg, spec.case, c=coupling))
            elif check == "theorem":
                t_report = check_theorem_conditions(bg, spec.theorem)
                report.results.append(t_report.hypotheses)
                if t_report.equations is not None:
                    report.results.extend(t_report.equations)
                if not t_report.reproduced:
                    report.error = "hypotheses hold but the field equations fail"
        if report.error is None:
            for point in spec.eval_points:
                values = evaluate_report_at_points(report, point)
                report.evaluations.append(
                    {"point": {k: str(v) for k, v in point.items()}, "values": values}
                )
            if eval_point is not None:
                report.point_values = evaluate_report_at_points(report, eval_point)
    except CaseShapeError as exc:  # a case that does not fit the flux: the message says why
        report.error = str(exc)
    except Exception as exc:  # noqa: BLE001 - carried into the report per background
        report.error = f"{type(exc).__name__}: {exc}"
    return report


def run(
    manifest: Manifest,
    only: Optional[str] = None,
    coupling: Optional[Fraction] = None,
    eval_point: Optional[Dict[str, Fraction]] = None,
):
    """Verify each background in manifest order; returns (reports, exit code).

    Backgrounds run one after another: the work is pure Python under the
    interpreter lock, so threads would not overlap it, and backgrounds
    share metrics whose curvature caches fill lazily.
    """
    specs = manifest.backgrounds
    if only is not None:
        specs = [s for s in specs if s.name == only]
        if not specs:
            raise ManifestError(f"no background named {only!r} in the manifest")
    reports = [run_background(spec, coupling, eval_point) for spec in specs]
    if any(r.error for r in reports):
        code = EXIT_ERROR
    elif all(r.passed for r in reports):
        code = EXIT_PASS
    else:
        code = EXIT_FAIL
    return reports, code


def evaluate_report_at_points(
    report: VerificationReport, point: Dict[str, Fraction]
) -> Dict[str, str]:
    """Exact rational spot values of every nonzero residual polynomial."""
    values = {}
    for result in report.results:
        for name, residual in result.residuals.items():
            for where, poly in residual_entries(name, residual):
                try:
                    value = poly.evaluate(point)
                except KeyError as exc:
                    raise ManifestError(
                        f"evaluation point misses a variable for {where}: {exc}"
                    ) from exc
                values[f"{result.name}:{where}"] = str(value)
    return values


def render_text(reports: List[VerificationReport]) -> str:
    lines = []
    for report in reports:
        lines.append(f"background {report.background}")
        if report.error:
            lines.append(f"  ERROR: {report.error}")
        for result in report.results:
            lines.append(f"  {result.name}: {'PASS' if result.passed else 'FAIL'}")
            for where, value in result.nonzero_entries():
                lines.append(f"    residual {where} = {value}")
            for note in result.notes:
                lines.append(f"    note: {note}")
        for record in report.evaluations:
            point_str = ", ".join(f"{k}={v}" for k, v in record["point"].items())
            for key, value in record["values"].items():
                lines.append(f"  eval[{point_str}] {key} = {value}")
        if report.point_values is not None:
            for key, value in report.point_values.items():
                lines.append(f"  eval {key} = {value}")
    passed = sum(1 for r in reports if r.passed and not r.error)
    failed = sum(1 for r in reports if not r.passed and not r.error)
    errored = sum(1 for r in reports if r.error)
    lines.append(f"summary: {passed} passed, {failed} failed, {errored} errored")
    lines.append("conventions:")
    for note in CONVENTION_NOTES:
        lines.append(f"  - {note}")
    return "\n".join(lines)


def render_json(reports: List[VerificationReport], with_eval: bool = False) -> str:
    """The JSON report; with_eval adds the CLI point's values per background."""
    doc = {
        "schema": 1,
        "backgrounds": [r.to_dict() for r in reports],
        "summary": {
            "passed": sum(1 for r in reports if r.passed and not r.error),
            "failed": sum(1 for r in reports if not r.passed and not r.error),
            "errored": sum(1 for r in reports if r.error),
        },
    }
    if with_eval:
        doc["evaluations"] = {
            r.background: r.point_values for r in reports if r.point_values is not None
        }
    return json.dumps(doc, indent=2)


def _parse_point(spec: str) -> Dict[str, Fraction]:
    point = {}
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ManifestError(f"bad point assignment {piece!r}; expected var=value")
        name, value = piece.split("=", 1)
        try:
            point[name.strip()] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ManifestError(f"bad rational {value!r} in point spec") from exc
    if not point:
        raise ManifestError("empty evaluation point")
    return point


def _parse_set(spec: str) -> Fraction:
    if not spec.startswith("c="):
        raise ManifestError(f"--set expects c=<rational>, got {spec!r}")
    try:
        value = Fraction(spec[2:])
    except (ValueError, ZeroDivisionError) as exc:
        raise ManifestError(f"bad rational in {spec!r}") from exc
    if value == 0:
        raise ManifestError("the coupling constant must be nonzero")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sugra11-verify",
        description="Verify 11-dimensional product backgrounds from a JSON manifest.",
    )
    parser.add_argument("--manifest", required=True, help="path to the manifest JSON")
    parser.add_argument("--only", help="run a single background by name")
    parser.add_argument("--format", choices=("text", "json"), help="report format")
    parser.add_argument("--set", dest="set_spec", help="override the coupling, e.g. c=-1")
    parser.add_argument("--eval", dest="eval_spec", help="spot-evaluate residuals, e.g. x1=1,y1=0")
    args = parser.parse_args(argv)

    try:
        manifest = parse_manifest(args.manifest)
        coupling = _parse_set(args.set_spec) if args.set_spec else None
        eval_point = _parse_point(args.eval_spec) if args.eval_spec else None
        reports, code = run(manifest, only=args.only, coupling=coupling, eval_point=eval_point)
        fmt = args.format or manifest.report_format
        text = (
            render_json(reports, with_eval=eval_point is not None)
            if fmt == "json"
            else render_text(reports)
        )
        print(text)
        return code
    except (ManifestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
