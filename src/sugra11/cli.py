"""Manifest-driven batch verification.

Usage:
    sugra11-verify --manifest manifests/solution1.json
    sugra11-verify --manifest m.json --only name --format json
    sugra11-verify --manifest m.json --eval "x1=1,x2=0,y1=0"

The report is text unless ``--format json``.  Both formats print one
document, built by ``report_document`` alone: the JSON report dumps it and
the text report prints its entries line by line.  Exit codes: 0 all verdicts
pass or ``--help``, 1 some verdict fails, 2 engine, manifest or usage error
(one ``error:`` line).  One background failing never aborts the batch.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional

from .cases import CaseShapeError
from .manifest import CHECKS, BackgroundSpec, Manifest, ManifestError, parse_manifest, rational
from .metric import CONVENTION_NOTES
from .polyring import format_rational
from .report import VerificationReport, residual_entries

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def run_background(
    spec: BackgroundSpec, eval_point: Optional[Dict[str, Fraction]] = None
) -> VerificationReport:
    """Run spec's checks, then its eval_points and the CLI's eval_point.

    Any exception, an evaluation point that misses a variable included,
    becomes this report's error; the other backgrounds are not affected.
    A flux that fits no case or theorem is reported by its message alone.
    """
    report = VerificationReport(background=spec.name)
    try:
        for check in spec.checks:
            CHECKS[check](report, spec)
        if report.error is None:
            for point in spec.eval_points:
                values = evaluate_report_at_points(report, point)
                report.evaluations.append(
                    {"point": {k: str(v) for k, v in point.items()}, "values": values}
                )
            if eval_point is not None:
                report.point_values = evaluate_report_at_points(report, eval_point)
    except CaseShapeError as exc:  # a flux that fits no case or theorem: the message says why
        report.error = str(exc)
    except Exception as exc:  # noqa: BLE001 - carried into the report per background
        report.error = f"{type(exc).__name__}: {exc}"
    return report


def run(
    manifest: Manifest,
    only: Optional[str] = None,
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
    reports = [run_background(spec, eval_point) for spec in specs]
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
                values[f"{result.name}:{where}"] = format_rational(value)
    return values


def report_document(reports: List[VerificationReport], with_eval: bool = False) -> dict:
    """The report's content, which render_json dumps and render_text prints line by
    line; with_eval adds the CLI point's values by background name, which is unique."""
    backgrounds = []
    for report in reports:
        checks = []
        for result in report.results:
            entries = result.nonzero_entries()
            checks.append({
                "check": result.name,
                "verdict": "fail" if entries else "pass",
                "skipped": False,  # schema 1 keeps the key; no check is ever skipped
                "nonzero_residuals": [{"where": w, "value": v} for w, v in entries],
                "notes": list(result.notes),
            })
        backgrounds.append({
            "background": report.background,
            "verdict": "error" if report.error else ("pass" if report.passed else "fail"),
            "error": report.error,
            "checks": checks,
            "evaluations": list(report.evaluations),
            "convention_notes": list(CONVENTION_NOTES),
        })
    verdicts = [b["verdict"] for b in backgrounds]
    doc = {
        "schema": 1,
        "backgrounds": backgrounds,
        "summary": {"passed": verdicts.count("pass"), "failed": verdicts.count("fail"),
                    "errored": verdicts.count("error")},
    }
    if with_eval:
        doc["evaluations"] = {
            r.background: r.point_values for r in reports if r.point_values is not None
        }
    return doc


def _eval_lines(label: str, values: Dict[str, str]) -> List[str]:
    """A line per residual value at one point, or one line saying there is none."""
    return [f"  {label} {k} = {v}" for k, v in values.items()] or [f"  {label} no nonzero residual"]


def render_text(reports: List[VerificationReport]) -> str:
    """The lines of report_document, with the CLI point's values under their background."""
    doc = report_document(reports, with_eval=True)
    lines = []
    for background in doc["backgrounds"]:
        lines.append(f"background {background['background']}")
        if background["error"]:
            lines.append(f"  ERROR: {background['error']}")
        for check in background["checks"]:
            lines.append(f"  {check['check']}: {check['verdict'].upper()}")
            lines += [f"    residual {r['where']} = {r['value']}"
                      for r in check["nonzero_residuals"]]
            lines += [f"    note: {note}" for note in check["notes"]]
        for record in background["evaluations"]:
            point = ", ".join(f"{k}={v}" for k, v in record["point"].items())
            lines += _eval_lines(f"eval[{point}]", record["values"])
        if background["background"] in doc["evaluations"]:
            lines += _eval_lines("eval", doc["evaluations"][background["background"]])
    summary = "summary: {passed} passed, {failed} failed, {errored} errored"
    lines.append(summary.format(**doc["summary"]))
    lines.append("conventions:")
    lines += [f"  - {note}" for note in CONVENTION_NOTES]
    return "\n".join(lines)


def render_json(reports: List[VerificationReport], with_eval: bool = False) -> str:
    """The JSON report; with_eval adds the CLI point's values per background."""
    return json.dumps(report_document(reports, with_eval), indent=2)


def _parse_point(spec: str) -> Dict[str, Fraction]:
    point = {}
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, eq, value = (part.strip() for part in piece.partition("="))
        if not (name and eq):
            raise ManifestError(f"bad point assignment {piece!r}; expected var=value")
        if name in point:
            raise ManifestError(f"--eval names {name!r} twice")
        point[name] = rational(value, f"--eval {name}")
    if not point:
        raise ManifestError("empty evaluation point")
    return point


def _usage_error(message: str):  # argparse's error hook, in place of usage and SystemExit(2)
    raise argparse.ArgumentError(None, message)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sugra11-verify",
        description="Verify 11-dimensional product backgrounds from a JSON manifest.",
        allow_abbrev=False,
    )
    parser.error = _usage_error
    parser.add_argument("--manifest", required=True, help="path to the manifest JSON")
    parser.add_argument("--only", help="run a single background by name")
    parser.add_argument("--format", choices=("text", "json"), default="text", help="report format")
    parser.add_argument("--eval", dest="eval_spec", help="spot-evaluate residuals, e.g. x1=1,y1=0")

    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:  # --help printed the usage: the one exit left to argparse
            return EXIT_PASS
        manifest = parse_manifest(args.manifest)
        eval_point = _parse_point(args.eval_spec) if args.eval_spec is not None else None
        reports, code = run(manifest, only=args.only, eval_point=eval_point)
        if args.format == "json":
            print(render_json(reports, with_eval=eval_point is not None))
        else:
            print(render_text(reports))
        return code
    except (argparse.ArgumentError, ManifestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
