"""Outside-in tracing of the engine's layers, from the benchmark's own files.

``Tracer.install()`` wraps the public functions of each sugra11 module and
rebinds every module attribute that refers to the original, so names
imported with ``from .metric import hodge_star`` (or under an alias such
as ``exterior_derivative as ext_d``) are traced as well.  ``uninstall()``
restores the originals.

Layer functions record spans ``(name, start, end, parent, request, cpu)``.
Each thread keeps its own span stack; a thread of ``cli.run``'s pool
starts its stack at the root span of the request in flight.  ``start``
and ``end`` are wall-clock times, shared by all threads; ``cpu`` is the
span's duration in its own thread's CPU time.  Durations and self times are
CPU times because the pool's threads take turns under the GIL: the wall
time of a span in one thread includes the time the others held the
interpreter, so wall-clock self times of concurrent spans would add up to
more than the round took.  A layer's self time is its span's CPU time minus
the CPU time of its child layer spans.

A function listed here that sugra11 does not have stops the install with
an error: a later change that renames or removes a traced function has to
update ``LAYERS``, rather than see its metrics read 0.

Polynomial arithmetic is called hundreds of thousands of times per
request, so it is counted and timed in aggregate instead of stored as
spans.  It is a cross-cutting layer: ``polyring.self_s`` is the CPU time
spent inside the outermost polynomial call, wherever it was made from, and
it is *not* subtracted from the self time of the layer that called it (``metric.poly_det_s`` includes the arithmetic the determinant does).
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

perf = time.perf_counter
cpu = time.thread_time

# (module, attribute) -> bucket.  Several functions may share a bucket.
LAYERS: Dict[Tuple[str, str], str] = {
    ("metric", "poly_det"): "metric.poly_det",
    ("metric", "hodge_star"): "metric.hodge_star",
    ("metric", "inner_product_forms"): "metric.inner_product",
    ("metric", "make_metric"): "metric.make_metric",
    ("curvature", "ricci"): "curvature.ricci",
    ("curvature", "hessian"): "curvature.hess_lap",
    ("curvature", "laplace_beltrami"): "curvature.hess_lap",
    ("curvature", "grad_norm_sq"): "curvature.hess_lap",
    ("exterior", "wedge"): "exterior.wedge",
    ("exterior", "wedge_all"): "exterior.other",
    ("exterior", "exterior_derivative"): "exterior.other",
    ("exterior", "interior_product"): "exterior.other",
    ("exterior", "lift_to_product"): "exterior.other",
    ("product", "build_product"): "product.build",
    ("manifest", "parse_manifest"): "manifest.parse",
    ("fieldeqs", "check_closedness"): "fieldeqs.closedness",
    ("fieldeqs", "check_maxwell"): "fieldeqs.maxwell",
    ("fieldeqs", "check_einstein"): "fieldeqs.einstein",
    ("fieldeqs", "split_einstein"): "fieldeqs.split",
    ("fieldeqs", "einstein_residual_matrix"): "fieldeqs.einstein_matrix",
    ("fieldeqs", "star_flux_block"): "fieldeqs.audit",
    ("fieldeqs", "half_flux_wedge_flux_block"): "fieldeqs.audit",
    ("fieldeqs", "typed_gauge_system"): "fieldeqs.audit",
    ("fieldeqs", "flux_norm_sq"): "fieldeqs.audit",
    ("cases", "check_special_case"): "cases.case",
    ("cli", "render_text"): "cli.render",
    ("cli", "render_json"): "cli.render",
    ("cli", "evaluate_report_at_points"): "cli.eval",
}

# Polynomial methods -> counter name; all of them add to polyring.self_s
POLY_METHODS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul", "__pow__": "pow",
    "partial": "partial", "substitute": "substitute", "evaluate": "evaluate",
    "__str__": "str",
}
POLY_FUNCTIONS = {"parse_polynomial": "parse", "poly_sqrt": "sqrt", "poly_divexact": "divexact"}

CHECK_COLUMNS = ("curvature.ricci", "fieldeqs.closedness", "fieldeqs.maxwell", "fieldeqs.einstein",
                 "fieldeqs.split", "cases.case")


def _term_count(value) -> int:
    """Terms of a polynomial, or of its printed form."""
    terms = getattr(value, "terms", None)
    if terms is not None:
        return len(terms)
    if isinstance(value, str):
        return 1 + value.count(" + ") + value.count(" - ")
    return 0


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: List[list] = []  # frames: [span record, child CPU time]
        self.poly_depth = 0
        self.acc = None


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [id, name, start, end, parent id, request, cpu]
        self._ids = itertools.count()
        self.request = -1
        self.root = -1
        self._root: list = []
        self._root_cpu = 0.0
        self._state = _ThreadState()
        self._accs: List[dict] = []
        self._acc_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self.minors_seen: set = set()
        self.results_seen: Dict[int, object] = {}

    # -- accumulators: one per thread, merged at the end -----------------

    def _acc(self) -> dict:
        st = self._state
        if st.acc is None:
            st.acc = {"self": defaultdict(float), "calls": defaultdict(int),
                      "poly_s": 0.0, "poly_calls": defaultdict(int), "mul_terms": 0,
                      "minors_requested": 0, "minors_distinct": 0, "residual_terms": 0}
            with self._acc_lock:
                self._accs.append(st.acc)
        return st.acc

    def totals(self) -> dict:
        out = {"self": defaultdict(float), "calls": defaultdict(int), "poly_s": 0.0,
               "poly_calls": defaultdict(int), "mul_terms": 0, "minors_requested": 0,
               "minors_distinct": 0, "residual_terms": 0}
        for acc in self._accs:
            for key in ("self", "calls", "poly_calls"):
                for k, v in acc[key].items():
                    out[key][k] += v
            for key in ("poly_s", "mul_terms", "minors_requested", "minors_distinct", "residual_terms"):
                out[key] += acc[key]
        return out

    # -- requests ------------------------------------------------------------

    def begin_request(self, request: int, label: str):
        self.request = request
        # a CLI process shares nothing across requests
        self.minors_seen = set()
        self.results_seen = {}
        self._root = [next(self._ids), "request:" + label, perf(), None, -1, request, None]
        self._root_cpu = cpu()
        self.root = self._root[0]
        self.spans.append(self._root)

    def end_request(self):
        self._root[3] = perf()
        self._root[6] = cpu() - self._root_cpu
        self.root = -1

    # -- wrappers ------------------------------------------------------------

    def _layer(self, bucket: str, fn: Callable) -> Callable:
        spans, state, ids = self.spans, self._state, self._ids
        tracer = self

        def traced(*args, **kwargs):
            stack = state.stack
            parent = stack[-1][0][0] if stack else tracer.root
            record = [next(ids), bucket, perf(), None, parent, tracer.request, None]
            spans.append(record)
            frame = [record, 0.0]
            stack.append(frame)
            c0 = cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = cpu() - c0
                record[3] = perf()
                record[6] = dur
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                acc = tracer._acc()
                acc["self"][bucket] += dur - frame[1]
                acc["calls"][bucket] += 1

        traced.__wrapped__ = fn
        return traced

    def _poly_det(self, fn: Callable) -> Callable:
        layer = self._layer("metric.poly_det", fn)
        tracer = self

        def traced(m):
            c0 = cpu()
            acc = tracer._acc()
            acc["minors_requested"] += 1
            key = tuple(tuple(row) for row in m)
            with tracer._acc_lock:
                fresh = key not in tracer.minors_seen
                tracer.minors_seen.add(key)
            if fresh:
                acc["minors_distinct"] += 1
            stack = tracer._state.stack
            if stack:  # hashing the minor is tracing cost, not the caller's
                stack[-1][1] += cpu() - c0
            return layer(m)

        traced.__wrapped__ = fn
        return traced

    def _poly(self, counter: str, fn: Callable) -> Callable:
        state = self._state
        tracer = self

        def traced(*args, **kwargs):
            acc = tracer._acc()
            acc["poly_calls"][counter] += 1
            if state.poly_depth:
                result = fn(*args, **kwargs)
            else:
                state.poly_depth = 1
                c0 = cpu()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    acc["poly_s"] += cpu() - c0
                    state.poly_depth = 0
            if counter == "mul":
                acc["mul_terms"] += _term_count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _nonzero_entries(self, fn: Callable) -> Callable:
        tracer = self

        def traced(result):
            entries = fn(result)
            # render and eval both list the residuals of one result: count them once
            with tracer._acc_lock:  # holding the result keeps its id unique in the request
                fresh = id(result) not in tracer.results_seen
                tracer.results_seen[id(result)] = result
            if fresh:
                tracer._acc()["residual_terms"] += sum(_term_count(value) for _, value in entries)
            return entries

        traced.__wrapped__ = fn
        return traced

    # -- installing ------------------------------------------------------------

    def install(self):
        """Wrap every listed function of sugra11; raise if one is missing."""
        modules = {name[len("sugra11."):]: mod for name, mod in sys.modules.items()
                   if (name == "sugra11" or name.startswith("sugra11.")) and mod is not None}

        def lookup(owner, label: str, attr: str):
            found = vars(owner).get(attr) if owner is not None else None
            if found is None:
                raise LookupError(f"sugra11 has no {label}.{attr}: update LAYERS in tracer.py")
            return found

        replacements: Dict[int, Tuple[Callable, Callable]] = {}
        for (mod_name, attr), bucket in LAYERS.items():
            fn = lookup(modules.get(mod_name), mod_name, attr)
            wrapper = self._poly_det(fn) if attr == "poly_det" else self._layer(bucket, fn)
            replacements[id(fn)] = (fn, wrapper)
        for attr, counter in POLY_FUNCTIONS.items():
            fn = lookup(modules.get("polyring"), "polyring", attr)
            replacements[id(fn)] = (fn, self._poly(counter, fn))
        cls = lookup(modules.get("polyring"), "polyring", "Polynomial")
        methods = {attr: lookup(cls, "polyring.Polynomial", attr) for attr in POLY_METHODS}
        report = lookup(modules.get("report"), "report", "CheckResult")
        nonzero = lookup(report, "report.CheckResult", "nonzero_entries")
        # rebind every module-level name that refers to a wrapped function
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        for attr, fn in methods.items():
            self._patch(cls, attr, self._poly(POLY_METHODS[attr], fn))
        self._patch(report, "nonzero_entries", self._nonzero_entries(nonzero))

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, request, span_cpu in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request, "cpu": span_cpu}) + "\n")

    def check_profile(self, columns=CHECK_COLUMNS) -> Dict[str, Dict[str, float]]:
        """Inclusive CPU seconds per request label and column, summed over rounds.

        A column is a check span (or ``curvature.ricci``).  ``<check>/poly_det``
        is the time of the determinants made inside that check.
        """
        by_id = {span[0]: span for span in self.spans}
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))

        def owner(span):  # (request label, nearest enclosing check) of a span
            check = None
            while span[4] != -1:
                span = by_id[span[4]]
                if check is None and span[1] in columns:
                    check = span[1]
            return span[1][len("request:"):], check

        for span in self.spans:
            name, span_cpu = span[1], span[6]
            if span_cpu is None:
                continue
            if name in columns:
                out[owner(span)[0]][name] += span_cpu
            elif name == "metric.poly_det":
                label, check = owner(span)
                if check is not None:
                    out[label][check + "/poly_det"] += span_cpu
        return {label: dict(cols) for label, cols in out.items()}
