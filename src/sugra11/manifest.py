"""Manifest parsing and validation.

A manifest is a JSON document declaring charts, metrics (dense
lower-triangular polynomial strings with a mandatory signature), forms
(component terms indexed by coordinate names), warped products, and
backgrounds (a product reference, a flux ansatz of form references, and
the checks to run, keys of ``CHECKS``, the table that also runs them).
Every polynomial is a string in the exact rational grammar; nothing in
the pipeline is floating point.  The parser keeps only what the CLI
runs: the resolved backgrounds and the report format.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

from . import cases, fieldeqs
from .exterior import Chart, ChartError, DegreeError, DifferentialForm, Frozen
from .fieldeqs import BASE_PIECES, FIBER_PIECES, FluxAnsatz, assemble_flux
from .metric import ChartMetric, make_metric
from .polyring import (
    ExponentOverflow,
    Polynomial,
    PolynomialGrammarError,
    parse_polynomial,
    parse_rational,
)
from .product import ProductChart, build_product

FLUX_KEYS = FIBER_PIECES + BASE_PIECES


class ManifestError(ValueError):
    pass


class BackgroundSpec(Frozen):
    """BackgroundSpec(name, background, checks, case, theorem, eval_points)."""

    __slots__ = ("name", "background", "checks", "case", "theorem", "eval_points")


class Manifest(Frozen):
    """Manifest(backgrounds, report_format): the resolved backgrounds in order."""

    __slots__ = ("backgrounds", "report_format")


def _run_theorem(report, spec: BackgroundSpec, coupling) -> None:
    from .solutions import check_theorem_conditions  # only this check needs it

    t_report = check_theorem_conditions(spec.background, spec.theorem)
    report.results.append(t_report.hypotheses)
    report.results.extend(t_report.equations or ())
    if not t_report.reproduced:
        report.error = "hypotheses hold but the field equations fail"


# check name -> (what the background entry of that name must hold, or None; a runner
# (report, spec, coupling) that adds the check's results to report).  A runner looks its
# check up at call time, so a wrapper bound to the module attribute sees every call.
CHECKS = {
    "closedness": (None, lambda r, s, c: r.results.append(fieldeqs.check_closedness(s.background))),
    "maxwell": (None, lambda r, s, c: r.results.append(fieldeqs.check_maxwell(s.background))),
    "einstein": (None, lambda r, s, c: r.results.append(fieldeqs.check_einstein(s.background))),
    "split": (None, lambda r, s, c: r.results.append(fieldeqs.split_einstein(s.background))),
    "case": ("number",
             lambda r, s, c: r.results.append(cases.check_special_case(s.background, s.case, c=c))),
    "theorem": ("shape", _run_theorem),
}


def _poly(text, where: str) -> Polynomial:
    if not isinstance(text, str):
        raise ManifestError(f"{where}: polynomial literals must be strings, got {text!r}")
    try:
        return parse_polynomial(text)
    except (PolynomialGrammarError, ExponentOverflow) as exc:
        raise ManifestError(f"{where}: bad polynomial {text!r}: {exc}") from exc


def rational(text, where: str) -> Fraction:
    """A JSON integer, or a string ``[-]int`` or ``[-]int/int``, as a Fraction."""
    if _is_int(text):
        return Fraction(text)
    if not isinstance(text, str):
        raise ManifestError(f"{where}: bad rational {text!r}")
    try:
        return parse_rational(text)
    except PolynomialGrammarError as exc:
        raise ManifestError(f"{where}: bad rational {text!r}: {exc}") from exc


_JSON_TYPES = {list: "a list", dict: "an object", str: "a string"}


def _is_int(value) -> bool:
    """A JSON integer; true and false are bools, not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expect(value, kind: type, where: str):
    """value itself if it has the JSON type kind, else a ManifestError naming where."""
    if not isinstance(value, kind):
        raise ManifestError(f"{where} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _strings(value, where: str) -> list:
    for i, item in enumerate(_expect(value, list, where)):
        _expect(item, str, f"{where} item {i}")
    return value


def _entries(raw: dict, section: str, source: str):
    """(name, entry) for each object of a top-level list; every entry needs a name."""
    for i, entry in enumerate(_expect(raw.get(section, []), list, f"{source}: {section}")):
        entry = _expect(entry, dict, f"{source}: {section} entry {i}")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise ManifestError(f"{source}: {section} entry {i} needs a string 'name'")
        yield name, entry


def _ref(value, table: dict, where: str):
    """The entry value names in table, else a ManifestError naming where."""
    if not isinstance(value, str) or value not in table:
        raise ManifestError(f"{where} {value!r}")
    return table[value]


def _unique_keys(pairs) -> dict:
    """A JSON object, refusing a key that it gives twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ManifestError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def parse_manifest(path) -> Manifest:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, nested too deep, or an int too long
        raise ManifestError(f"{path}: cannot decode: {exc}") from exc
    return parse_manifest_dict(raw, source=str(path))


def parse_manifest_dict(raw: dict, source: str = "<memory>") -> Manifest:
    if not isinstance(raw, dict):
        raise ManifestError(f"{source}: manifest must be a JSON object")
    schema = raw.get("schema", 1)
    if schema != 1:
        raise ManifestError(f"{source}: unsupported schema {schema!r}")

    settings = _expect(raw.get("settings", {}), dict, f"{source}: settings")
    coupling = rational(settings.get("c", "1"), "settings.c")
    if coupling == 0:
        raise ManifestError("settings.c must be nonzero")
    report_format = settings.get("format", "text")
    if report_format not in ("text", "json"):
        raise ManifestError(f"settings.format must be 'text' or 'json', got {report_format!r}")

    charts: Dict[str, Chart] = {}
    for name, entry in _entries(raw, "charts", source):
        coords = _strings(entry.get("coordinates"), f"chart {name!r}: coordinates")
        if not coords:
            raise ManifestError(f"chart {name!r}: coordinates must not be empty")
        if name in charts:
            raise ManifestError(f"duplicate chart {name!r}")
        try:
            charts[name] = Chart(name, tuple(coords))
        except ChartError as exc:
            raise ManifestError(f"chart {name!r}: {exc}") from exc

    metrics: Dict[str, ChartMetric] = {}
    for name, entry in _entries(raw, "metrics", source):
        chart = _ref(entry.get("chart"), charts, f"metric {name!r}: unresolved chart reference")
        lower = entry.get("lower_triangular")
        if not isinstance(lower, list) or len(lower) != chart.dim:
            raise ManifestError(
                f"metric {name!r}: lower_triangular must have {chart.dim} rows"
            )
        g = _symmetric_from_lower(lower, chart, f"metric {name!r}")
        g_inv = None
        if "inverse" in entry:
            g_inv = _symmetric_from_lower(entry["inverse"], chart, f"metric {name!r} inverse")
        signature = entry.get("signature")
        if signature is None:
            raise ManifestError(f"metric {name!r}: a signature declaration is mandatory")
        if not (
            isinstance(signature, list)
            and len(signature) == 2
            and all(_is_int(k) for k in signature)
        ):
            raise ManifestError(
                f"metric {name!r}: signature must be a list of two integers, got {signature!r}"
            )
        sqrt_abs_det = entry.get("sqrt_abs_det")
        if sqrt_abs_det is not None:
            sqrt_abs_det = rational(sqrt_abs_det, f"metric {name!r} sqrt_abs_det")
        if name in metrics:
            raise ManifestError(f"duplicate metric {name!r}")
        try:
            metrics[name] = make_metric(chart, g, g_inv, tuple(signature), sqrt_abs_det)
        except ValueError as exc:  # the metric and polynomial layers' errors, overflow included
            raise ManifestError(f"metric {name!r}: {exc}") from exc

    forms: Dict[str, DifferentialForm] = {}
    for name, entry in _entries(raw, "forms", source):
        chart = _ref(entry.get("chart"), charts, f"form {name!r}: unresolved chart reference")
        degree = entry.get("degree")
        if not _is_int(degree) or degree < 0:
            raise ManifestError(f"form {name!r}: bad degree {degree!r}")
        total = DifferentialForm.zero(chart, degree)
        for i, term in enumerate(_expect(entry.get("terms", []), list, f"form {name!r} terms")):
            term = _expect(term, dict, f"form {name!r} term {i}")
            indices = _strings(term.get("indices", []), f"form {name!r} term {i} indices")
            if len(indices) != degree:
                raise ManifestError(
                    f"form {name!r} term {i}: {len(indices)} indices for degree {degree}"
                )
            if len(set(indices)) != len(indices):
                raise ManifestError(f"form {name!r} term {i}: repeated index in {indices!r}")
            coeff = _poly(term.get("coeff", "1"), f"form {name!r} term {i}")
            try:
                total = total + DifferentialForm.monomial(chart, tuple(indices), coeff)
            except (ChartError, DegreeError) as exc:
                raise ManifestError(f"form {name!r} term {i}: {exc}") from exc
        if name in forms:
            raise ManifestError(f"duplicate form {name!r}")
        forms[name] = total

    products: Dict[str, ProductChart] = {}
    for name, entry in _entries(raw, "products", source):
        base = _ref(entry.get("base"), metrics, f"product {name!r}: unresolved base metric")
        fiber = _ref(entry.get("fiber"), metrics, f"product {name!r}: unresolved fiber metric")
        warping = _poly(entry.get("warping", "1"), f"product {name!r} warping")
        if name in products:
            raise ManifestError(f"duplicate product {name!r}")
        try:
            products[name] = build_product(base, fiber, warping)
        except ValueError as exc:
            raise ManifestError(f"product {name!r}: {exc}") from exc

    backgrounds: List[BackgroundSpec] = []
    seen = set()
    for name, entry in _entries(raw, "backgrounds", source):
        if name in seen:
            raise ManifestError(f"duplicate background name {name!r}")
        seen.add(name)
        pc = _ref(entry.get("product"), products, f"background {name!r}: unresolved product")
        pieces = {}
        for key, ref in _expect(entry.get("flux", {}), dict, f"background {name!r}: flux").items():
            if key not in FLUX_KEYS:
                raise ManifestError(f"background {name!r}: unknown flux piece {key!r}")
            pieces[key] = _ref(ref, forms, f"background {name!r}: unresolved form")
        checks = list(_strings(entry.get("checks", []), f"background {name!r}: checks"))
        if not checks:
            raise ManifestError(f"background {name!r}: at least one check is required")
        case = entry.get("case")
        if case is not None and not _is_int(case):
            raise ManifestError(f"background {name!r}: case must be an integer, got {case!r}")
        theorem = entry.get("theorem")
        if theorem is not None:
            _expect(theorem, str, f"background {name!r}: theorem")
        for i, check in enumerate(checks):
            if check not in CHECKS:
                raise ManifestError(f"background {name!r}: unknown check {check!r}")
            if check in checks[:i]:
                raise ManifestError(f"background {name!r}: check {check!r} is listed twice")
        for check, (needs, _) in CHECKS.items():
            if needs and check in checks and entry.get(check) in (None, ""):
                raise ManifestError(f"background {name!r}: check {check!r} needs a {check!r} {needs}")
        eval_points = []
        where = f"background {name!r}: eval_points"
        for i, pt in enumerate(_expect(entry.get("eval_points", []), list, where)):
            pt = _expect(pt, dict, f"{where} item {i}")
            eval_points.append({k: rational(v, f"background {name!r} eval point") for k, v in pt.items()})
        try:
            background = assemble_flux(pc, FluxAnsatz(c=coupling, **pieces))
        except ValueError as exc:
            raise ManifestError(f"background {name!r}: {exc}") from exc
        backgrounds.append(BackgroundSpec(name, background, checks, case, theorem, eval_points))

    if not backgrounds:
        raise ManifestError(f"{source}: manifest declares no backgrounds")
    return Manifest(backgrounds, report_format)


def _symmetric_from_lower(lower, chart: Chart, where: str):
    n = chart.dim
    if len(_expect(lower, list, where)) != n:
        raise ManifestError(f"{where}: expected {n} rows")
    zero = Polynomial.zero()
    g = [[zero] * n for _ in range(n)]
    for i, row in enumerate(lower):
        if len(_expect(row, list, f"{where} row {i}")) != i + 1:
            raise ManifestError(f"{where}: row {i} must have {i + 1} entries")
        for j, text in enumerate(row):
            p = _poly(text, f"{where} entry ({i},{j})")
            g[i][j] = p
            g[j][i] = p
    return g
