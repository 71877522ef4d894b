"""Manifest parsing and validation.

A manifest is a JSON document declaring charts, metrics (dense
lower-triangular polynomial strings with a mandatory signature), forms
(component terms indexed by coordinate names), warped products, and
backgrounds (a product reference, a flux ansatz of form references, and
the checks to run, keys of ``CHECKS``, the table that also runs them).
Every polynomial is a string in the exact rational grammar; nothing in
the pipeline is floating point.  ``parse_manifest`` returns what the CLI
runs, the list of resolved backgrounds.  Keys it does not read are ignored:
a ``settings`` block, as the CLI's ``--format`` picks the report; a
background's ``case`` and ``theorem``, as both checks read their shape off
the flux; and a metric's ``inverse`` and ``sqrt_abs_det``, as
``make_metric`` derives both from g.

The five sections are built in that order by one loop over ``_SECTIONS``.
That loop alone refuses a duplicate name, or one that is not a nonempty
printable string (the text report prints it on a line of its own), and names
the entry: every ``ValueError`` raised while building one, a builder's own
``ManifestError`` included, becomes ``ManifestError("<kind> '<name>': <message>")``.
Each builder checks only its entry's own fields, and its messages name the
field inside the entry (``term 0``, ``eval_points item 0 x1``), never the
entry.  A point of ``eval_points`` names coordinates of its background, and
``evaluation_point`` alone reads it and the CLI's ``--eval``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from . import cases, fieldeqs
from .exterior import Chart, ChartError, DegreeError, DifferentialForm, Frozen
from .fieldeqs import BASE_PIECES, FIBER_PIECES, FluxAnsatz, assemble_flux
from .metric import ChartMetric, make_metric
from .polyring import (
    NAME,
    ExponentOverflow,
    Polynomial,
    PolynomialGrammarError,
    parse_polynomial,
    parse_rational,
)
from .product import ProductChart, build_product

class ManifestError(ValueError):
    pass


class BackgroundSpec(Frozen):
    """BackgroundSpec(name, background, checks, eval_points)."""

    __slots__ = ("name", "background", "checks", "eval_points")


class _Backgrounds(list):
    """parse_manifest's list; its ``backgrounds``, itself, stays while perfbench's tests read it."""
    backgrounds = property(lambda self: self)


def _run_theorem(report, spec: BackgroundSpec) -> None:
    from .solutions import check_theorem_conditions  # only this check needs it

    t_report = check_theorem_conditions(spec.background)
    report.results.append(t_report.hypotheses)
    report.results.extend(t_report.equations or ())
    if not t_report.reproduced:
        report.error = "hypotheses hold but the field equations fail"


# check name -> a runner (report, spec) that adds the check's results to report.  A
# runner looks its check up at call time, so a wrapper bound to the module attribute
# sees every call.
CHECKS = {
    "closedness": lambda r, s: r.results.append(fieldeqs.check_closedness(s.background)),
    "maxwell": lambda r, s: r.results.append(fieldeqs.check_maxwell(s.background)),
    "einstein": lambda r, s: r.results.append(fieldeqs.check_einstein(s.background)),
    "split": lambda r, s: r.results.append(fieldeqs.split_einstein(s.background)),
    "case": lambda r, s: r.results.append(cases.check_special_case(s.background)),
    "theorem": _run_theorem,
}


def _poly(text, where: str) -> Polynomial:
    if not isinstance(text, str):
        raise ManifestError(f"{where}: polynomial literals must be strings, got {text!r}")
    try:
        return parse_polynomial(text)
    except (PolynomialGrammarError, ExponentOverflow) as exc:
        raise ManifestError(f"{where}: bad polynomial {text!r}: {exc}") from exc


def evaluation_point(pairs: Iterable[Tuple[str, object]], where: str) -> Dict[str, Fraction]:
    """The point the (name, value) pairs assign: each name is a ``polyring.NAME``
    given once, each value a JSON integer or a string ``[-]int`` or ``[-]int/int``,
    and the point is not empty."""
    point = {}
    for name, value in pairs:
        if not NAME.fullmatch(name):
            raise ManifestError(f"{where}: {name!r} is not a variable name")
        if name in point:
            raise ManifestError(f"{where} names {name!r} twice")
        if not (_is_int(value) or isinstance(value, str)):
            raise ManifestError(f"{where} {name}: bad rational {value!r}")
        try:
            point[name] = Fraction(value) if _is_int(value) else parse_rational(value)
        except PolynomialGrammarError as exc:
            raise ManifestError(f"{where} {name}: bad rational {value!r}: {exc}") from exc
    if not point:
        raise ManifestError(f"{where}: empty evaluation point")
    return point


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


def parse_manifest(path) -> List[BackgroundSpec]:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, nested too deep, or an int too long
        raise ManifestError(f"{path}: cannot decode: {exc}") from exc
    return parse_manifest_dict(raw, str(path))


def parse_manifest_dict(raw: dict, source: str = "<memory>") -> List[BackgroundSpec]:
    """The backgrounds of the manifest raw describes, in its order."""
    if not isinstance(raw, dict):
        raise ManifestError(f"{source}: manifest must be a JSON object")
    schema = raw.get("schema", 1)
    if not _is_int(schema) or schema != 1:
        raise ManifestError(f"{source}: unsupported schema {schema!r}")

    built: Dict[str, dict] = {}
    for section, kind, build in _SECTIONS:
        table = built[section] = {}
        where = f"{source}: {section}"
        for i, entry in enumerate(_expect(raw.get(section, []), list, where)):
            name = _expect(entry, dict, f"{where} entry {i}").get("name")
            if not isinstance(name, str) or not name or not name.isprintable():
                raise ManifestError(f"{where} entry {i} needs a nonempty printable string 'name'")
            if name in table:
                raise ManifestError(f"duplicate {kind} {name!r}")
            try:
                table[name] = build(name, entry, built)
            except ValueError as exc:  # the builder's own and the engine's, overflow included
                raise ManifestError(f"{kind} {name!r}: {exc}") from exc

    if not built["backgrounds"]:
        raise ManifestError(f"{source}: manifest declares no backgrounds")
    return _Backgrounds(built["backgrounds"].values())


# Each builder (name, entry, built) checks its entry's own fields and
# returns what the entry declares; built holds the sections built before it.

def _chart(name: str, entry: dict, built) -> Chart:
    coords = _strings(entry.get("coordinates"), "coordinates")
    if not coords:
        raise ManifestError("coordinates must not be empty")
    return Chart(name, tuple(coords))


def _metric(name: str, entry: dict, built) -> ChartMetric:
    chart = _ref(entry.get("chart"), built["charts"], "unresolved chart reference")
    g = _symmetric_from_lower(entry, chart)
    signature = entry.get("signature")
    if signature is None:
        raise ManifestError("a signature declaration is mandatory")
    if not (
        isinstance(signature, list)
        and len(signature) == 2
        and all(_is_int(k) for k in signature)
    ):
        raise ManifestError(f"signature must be a list of two integers, got {signature!r}")
    return make_metric(chart, g, tuple(signature))


def _symmetric_from_lower(entry: dict, chart: Chart):
    """The symmetric matrix whose lower triangle the metric entry lists."""
    lower, n, where = entry.get("lower_triangular"), chart.dim, "lower_triangular"
    if not isinstance(lower, list) or len(lower) != n:
        raise ManifestError(f"{where} must have {n} rows")
    zero = Polynomial.zero()
    g = [[zero] * n for _ in range(n)]
    for i, row in enumerate(lower):
        if len(_expect(row, list, f"{where} row {i}")) != i + 1:
            raise ManifestError(f"{where} row {i} must have {i + 1} entries")
        for j, text in enumerate(row):
            p = _poly(text, f"{where} entry ({i},{j})")
            g[i][j] = p
            g[j][i] = p
    return g


def _form(name: str, entry: dict, built) -> DifferentialForm:
    chart = _ref(entry.get("chart"), built["charts"], "unresolved chart reference")
    degree = entry.get("degree")
    if not _is_int(degree) or degree < 0:
        raise ManifestError(f"bad degree {degree!r}")
    total = DifferentialForm.zero(chart, degree)
    for i, term in enumerate(_expect(entry.get("terms", []), list, "terms")):
        term = _expect(term, dict, f"term {i}")
        indices = _strings(term.get("indices", []), f"term {i} indices")
        if len(indices) != degree:
            raise ManifestError(f"term {i}: {len(indices)} indices for degree {degree}")
        if len(set(indices)) != len(indices):
            raise ManifestError(f"term {i}: repeated index in {indices!r}")
        coeff = _poly(term.get("coeff", "1"), f"term {i}")
        try:
            total = total + DifferentialForm.monomial(chart, tuple(indices), coeff)
        except (ChartError, DegreeError) as exc:
            raise ManifestError(f"term {i}: {exc}") from exc
    return total


def _product(name: str, entry: dict, built) -> ProductChart:
    metrics = built["metrics"]
    base = _ref(entry.get("base"), metrics, "unresolved base metric")
    fiber = _ref(entry.get("fiber"), metrics, "unresolved fiber metric")
    warping = _poly(entry.get("warping", "1"), "warping")
    return build_product(base, fiber, warping)


def _background(name: str, entry: dict, built) -> BackgroundSpec:
    pc = _ref(entry.get("product"), built["products"], "unresolved product")
    pieces = {}
    for key, ref in _expect(entry.get("flux", {}), dict, "flux").items():
        if key not in FIBER_PIECES + BASE_PIECES:
            raise ManifestError(f"unknown flux piece {key!r}")
        pieces[key] = _ref(ref, built["forms"], "unresolved form")
    checks = list(_strings(entry.get("checks", []), "checks"))
    if not checks:
        raise ManifestError("at least one check is required")
    for i, check in enumerate(checks):
        if check not in CHECKS:
            raise ManifestError(f"unknown check {check!r}")
        if check in checks[:i]:
            raise ManifestError(f"check {check!r} is listed twice")
        if check in ("closedness", "maxwell", "einstein") and "theorem" in checks:
            raise ManifestError(f"check {check!r} is run by 'theorem'")
    eval_points = []
    for i, pt in enumerate(_expect(entry.get("eval_points", []), list, "eval_points")):
        where = f"eval_points item {i}"
        eval_points.append(evaluation_point(_expect(pt, dict, where).items(), where))
        for var in eval_points[-1]:
            if var not in pc.chart.coordinates:
                raise ManifestError(f"{where}: {var!r} is not a coordinate of the background")
    background = assemble_flux(pc, FluxAnsatz(**pieces))
    return BackgroundSpec(name, background, checks, eval_points)


# (section, the kind of entry it lists, builder), each section after those it refers to
_SECTIONS = (
    ("charts", "chart", _chart),
    ("metrics", "metric", _metric),
    ("forms", "form", _form),
    ("products", "product", _product),
    ("backgrounds", "background", _background),
)
