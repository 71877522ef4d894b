"""The benchmark's workloads and their known answers.

Every request is one CLI invocation: a manifest document, extra CLI
arguments, and the answer the output must match.  The answers come from
outside the engine:

* ``bundled`` uses the README table: exit code per manifest, every check
  of an exit-0 manifest passes, and ``solution4_literal`` fails only its
  Einstein check, with the uu-residual ``1/2*x1^2 - 1/2*y1^2``;
* ``ladder`` uses invariance under the pullback: the verdicts of the
  source manifest do not change;
* ``ladder_mixed`` also checks the exact residual, which is the pullback
  ``J^T R J`` of the README residual, and its value at a seeded point.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

import ladder
import polyq as pq

BUNDLED = ("solution1", "solution2", "solution3", "solution4_literal", "solution4_corrected", "broken")
VALID = BUNDLED[:-1]
EXIT_CODES = {"solution4_literal": 1, "broken": 2}  # README table; all others exit 0
# README: the only nonzero Einstein entry of solution4_literal, at product index (u, u);
# the split check lists it again in the fiber-fiber block, where u has index 5
LITERAL_RESIDUAL = pq.parse("1/2*x1^2 - 1/2*y1^2")
U_INDEX = 10
LITERAL_WHERE = {"einstein": f"einstein_residual[{U_INDEX},{U_INDEX}]", "split": "vv_block[5,5]"}
LADDER_CHECKS = ["closedness", "maxwell", "einstein", "split"]
MIXED_CHECKS = ["closedness", "maxwell", "case", "einstein", "split"]
NAMES = ("bundled", "ladder", "ladder_mixed")


@dataclass
class Expected:
    """The known answer for one request."""

    exit_code: int
    # background -> check name -> verdict ("pass"/"fail")
    verdicts: Dict[str, Dict[str, str]] = field(default_factory=dict)
    # background -> "check:where" -> residual; checks listed here must match exactly
    residuals: Dict[str, Dict[str, pq.Poly]] = field(default_factory=dict)
    # background -> "check:where" -> exact value at the eval point
    values: Dict[str, Dict[str, Fraction]] = field(default_factory=dict)


@dataclass
class Request:
    label: str
    doc: Optional[dict]  # a generated manifest, or None to send the shipped file
    shipped: Optional[Path]
    args: List[str]
    backgrounds: int
    expected: Expected
    fmt: str = "text"


def _check_label(check: str, bg: dict) -> str:
    if check == "case":
        return f"case_{bg['case']}"
    if check == "split":
        return "einstein_blocks"
    return check


def _verdicts(doc: dict, failing: Dict[str, List[str]]) -> Dict[str, Dict[str, str]]:
    out = {}
    for bg in doc["backgrounds"]:
        fails = failing.get(bg["name"], [])
        out[bg["name"]] = {
            _check_label(c, bg): ("fail" if c in fails else "pass") for c in bg["checks"]
        }
    return out


def _load(manifests: Path, name: str) -> dict:
    return json.loads((manifests / f"{name}.json").read_text())


def _literal_residuals(checks: List[str]) -> Dict[str, pq.Poly]:
    """solution4_literal's residual entries under the checks it runs."""
    return {f"{_check_label(c, {})}:{LITERAL_WHERE[c]}": LITERAL_RESIDUAL
            for c in checks if c in LITERAL_WHERE}


def _literal_point_values(bg: dict) -> Dict[str, Fraction]:
    """Eval lines the CLI prints for solution4_literal's own eval points."""
    out = {}
    for pt in bg.get("eval_points", []):
        point = {k: Fraction(v) for k, v in pt.items()}
        shown = ", ".join(f"{k}={v}" for k, v in point.items())
        for where, residual in _literal_residuals(bg["checks"]).items():
            out[f"eval[{shown}] {where}"] = pq.evaluate(residual, point)
    return out


def _bundled_expected(doc: dict, source: str, prefix: str = "") -> Expected:
    exp = Expected(EXIT_CODES.get(source, 0))
    if source == "broken":
        return exp
    bg = doc["backgrounds"][0]
    name = prefix + bg["name"]
    fails = {name: list(LITERAL_WHERE)} if source == "solution4_literal" else {}
    renamed = {"backgrounds": [dict(b, name=prefix + b["name"]) for b in doc["backgrounds"]]}
    exp.verdicts = _verdicts(renamed, fails)
    exp.residuals[name] = {}
    if source == "solution4_literal":
        exp.residuals[name] = _literal_residuals(bg["checks"])
        exp.values[name] = _literal_point_values(bg)
    return exp


def _with_split(doc: dict) -> dict:
    """The document with the split check added to its backgrounds."""
    return dict(doc, backgrounds=[dict(b, checks=b["checks"] + ["split"]) for b in doc["backgrounds"]])


def combined_manifest(docs: Dict[str, dict]) -> dict:
    """All given backgrounds in one manifest, names prefixed per source."""
    out = {"schema": 1, "settings": {"c": "1", "format": "text"}, "charts": [], "metrics": [],
           "forms": [], "products": [], "backgrounds": []}
    for src in VALID:
        doc = docs[src]
        p = f"{src}__"
        out["charts"] += [dict(c, name=p + c["name"]) for c in doc["charts"]]
        out["metrics"] += [dict(m, name=p + m["name"], chart=p + m["chart"]) for m in doc["metrics"]]
        out["forms"] += [dict(f, name=p + f["name"], chart=p + f["chart"]) for f in doc["forms"]]
        out["products"] += [dict(x, name=p + x["name"], base=p + x["base"], fiber=p + x["fiber"])
                            for x in doc["products"]]
        out["backgrounds"] += [
            dict(b, name=p + b["name"], product=p + b["product"],
                 flux={k: p + v for k, v in b["flux"].items()})
            for b in doc["backgrounds"]
        ]
    return out


def bundled_round(manifests: Path, rng: random.Random) -> List[Request]:
    """The six shipped manifests and the combined one, in a seeded order."""
    docs = {n: _load(manifests, n) for n in VALID}
    reqs = []
    for src in BUNDLED:
        doc = docs.get(src)
        exp = _bundled_expected(doc, src) if doc else Expected(2)
        reqs.append(Request(src, None, manifests / f"{src}.json", [], 0 if src == "broken" else 1, exp))
    # no shipped manifest runs split, so the combined one does: it is the only
    # bundled request that reaches the block Ricci (hessian, laplace_beltrami)
    split_docs = {n: _with_split(doc) for n, doc in docs.items()}
    combined = combined_manifest(split_docs)
    exp = Expected(1)
    for src in VALID:
        part = _bundled_expected(split_docs[src], src, prefix=f"{src}__")
        exp.verdicts.update(part.verdicts)
        exp.residuals.update(part.residuals)
        exp.values.update(part.values)
    reqs.append(Request("combined", combined, None, [], len(VALID), exp))
    rng.shuffle(reqs)
    return reqs


def _ladder_doc(doc: dict, checks: List[str], coeffs, d: int) -> dict:
    out = ladder.pull_back_manifest(doc, coeffs, d)
    for bg in out["backgrounds"]:
        bg["checks"] = list(checks)
    return out


def ladder_round(manifests: Path, rng: random.Random) -> List[Request]:
    """solution1 then solution4_corrected, each pulled back at d=2."""
    reqs = []
    for src in ("solution1", "solution4_corrected"):
        doc = _ladder_doc(_load(manifests, src), LADDER_CHECKS, ladder.random_coefficients(rng), 2)
        exp = Expected(0, verdicts=_verdicts(doc, {}))
        exp.residuals = {bg: {} for bg in exp.verdicts}
        reqs.append(Request(f"{src}@d2", doc, None, [], 1, exp))
    return reqs


def mixed_request(manifests: Path, rng: random.Random) -> Request:
    """solution4_literal pulled back at d=1, JSON report, eval at all eleven coordinates."""
    src_doc = _load(manifests, "solution4_literal")
    coeffs = ladder.random_coefficients(rng)
    doc = _ladder_doc(src_doc, MIXED_CHECKS, coeffs, 1)
    name = doc["backgrounds"][0]["name"]
    charts = {c["name"]: c["coordinates"] for c in src_doc["charts"]}
    product = src_doc["products"][0]
    base_chart = next(m["chart"] for m in src_doc["metrics"] if m["name"] == product["base"])
    fiber_chart = next(m["chart"] for m in src_doc["metrics"] if m["name"] == product["fiber"])
    base = ladder.ChartPullback(charts[base_chart],
                                ladder.chart_map(charts[base_chart], ladder.BASE_TERMS, coeffs, 1))
    fiber = ladder.ChartPullback(charts[fiber_chart],
                                 ladder.chart_map(charts[fiber_chart], ladder.FIBER_TERMS, coeffs, 1))
    nb = len(charts[base_chart])
    # the README residual lives in the (u, u) slot; pull it back as a tensor
    r_new = ladder.jacobian_congruence(fiber, {(U_INDEX - nb, U_INDEX - nb): base.compose(LITERAL_RESIDUAL)})
    coords = list(charts[base_chart]) + list(charts[fiber_chart])
    while True:
        point = {c: Fraction(rng.randint(-3, 3)) for c in coords}
        if any(pq.evaluate(p, point) for p in r_new.values()):
            break
    residuals: Dict[str, pq.Poly] = {}
    for (a, b), p in r_new.items():
        residuals[f"einstein:einstein_residual[{a + nb},{b + nb}]"] = p
        residuals[f"einstein_blocks:vv_block[{a},{b}]"] = p
    exp = Expected(1, verdicts=_verdicts(doc, {name: ["einstein", "split"]}))
    exp.residuals[name] = residuals
    exp.values[name] = {k: pq.evaluate(p, point) for k, p in residuals.items()}
    spec = ",".join(f"{c}={v}" for c, v in point.items())
    return Request("solution4_literal@d1", doc, None, ["--format", "json", "--eval", spec], 1, exp,
                   fmt="json")


def mixed_round(manifests: Path, rng: random.Random) -> List[Request]:
    return [mixed_request(manifests, rng) for _ in range(2)]


ROUNDS = {"bundled": bundled_round, "ladder": ladder_round, "ladder_mixed": mixed_round}


# ---------------------------------------------------------------------------
# reading the CLI's output back
# ---------------------------------------------------------------------------

_CHECK_LINE = re.compile(r"^  (\S+): (PASS|FAIL|SKIP)$")
_RESIDUAL_LINE = re.compile(r"^    residual (\S+) = (.*)$")


def parse_text(text: str):
    """(verdicts, residuals, eval lines) per background from a text report."""
    verdicts: Dict[str, Dict[str, str]] = {}
    residuals: Dict[str, Dict[str, pq.Poly]] = {}
    values: Dict[str, Dict[str, Fraction]] = {}
    bg = check = None
    for line in text.splitlines():
        if line.startswith("background "):
            bg = line[len("background "):]
            verdicts[bg], residuals[bg], values[bg] = {}, {}, {}
        elif line.startswith("summary:"):
            break
        elif bg is None:
            continue
        elif line.startswith("  ERROR:"):
            verdicts[bg]["error"] = "error"
        elif m := _CHECK_LINE.match(line):
            check = m.group(1)
            verdicts[bg][check] = {"PASS": "pass", "FAIL": "fail", "SKIP": "skip"}[m.group(2)]
        elif m := _RESIDUAL_LINE.match(line):
            residuals[bg][f"{check}:{m.group(1)}"] = pq.parse(m.group(2))
        elif line.startswith("  eval"):
            key, _, value = line[2:].rpartition(" = ")
            values[bg][key] = Fraction(value)
    return verdicts, residuals, values


def parse_json(text: str):
    doc = json.loads(text)
    verdicts, residuals, values = {}, {}, {}
    for b in doc["backgrounds"]:
        name = b["background"]
        verdicts[name] = {c["check"]: c["verdict"] for c in b["checks"]}
        if b["error"]:
            verdicts[name]["error"] = "error"
        residuals[name] = {
            f"{c['check']}:{r['where']}": pq.parse(r["value"])
            for c in b["checks"] for r in c["nonzero_residuals"]
        }
    for name, vals in doc.get("evaluations", {}).items():
        values[name] = {k: Fraction(v) for k, v in vals.items()}
    return verdicts, residuals, values


def mismatches(req: Request, code: int, stdout: str) -> List[str]:
    """Every way the output differs from the known answer (empty when correct)."""
    exp = req.expected
    if code != exp.exit_code:
        return [f"exit code {code}, expected {exp.exit_code}"]
    if exp.exit_code == 2:
        return [] if not stdout.strip() else ["an error exit printed a report"]
    try:
        verdicts, residuals, values = (parse_json if req.fmt == "json" else parse_text)(stdout)
    except (ValueError, KeyError) as exc:
        return [f"unreadable report: {exc}"]
    out = []
    if verdicts != exp.verdicts:
        out.append(f"verdicts {verdicts} != {exp.verdicts}")
    for bg, want in exp.residuals.items():
        if residuals.get(bg) != want:
            out.append(f"{bg}: residuals differ from the known answer")
    for bg, want in exp.values.items():
        if values.get(bg) != want:
            out.append(f"{bg}: spot values {values.get(bg)} != {want}")
    return out
