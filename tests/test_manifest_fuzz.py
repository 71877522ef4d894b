"""A manifest fuzzer: one changed JSON path of a bundled manifest never reaches
a traceback.

Each example changes one path of one of the five valid bundled manifests:
it replaces the value there from a fixed pool, deletes it, or duplicates a
list item, and runs ``cli.main`` in process on the result.  The exit code is
0, 1 or 2; exit 2 is one ``error:`` line on stderr, or a report that holds a
background's error; a report without one leaves stderr empty.  A report's
summary decides the code: 2 when it counts an errored background, else 1 when
it counts a failed one, else 0.  The text report of a run that exits 0 or 1 has
one ``background`` line per background and one ``summary:`` line, right before
``conventions:``, whatever names the manifest gives: the pool holds a name, and
a point key, that would forge report lines.  That run's JSON report says what
its text report says, read by the readers of tests/test_golden.py.
"""

import copy
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sugra11.cli import EXIT_ERROR, EXIT_FAIL, EXIT_PASS, main

from test_golden import _read_json_report, _read_text_report

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"
VALID = ("solution1", "solution2", "solution3", "solution4_corrected", "solution4_literal")
DOCS = {name: json.loads((MANIFESTS / f"{name}.json").read_text()) for name in VALID}

# a name that, printed as it is, would start lines of a report of its own
FORGED = "q]\nsummary: 1 passed, 0 failed, 0 errored\nbackground shadow\n  eval[z"
FORGED_POINT = {FORGED: "1", "x1": "1", "x2": "0", "y1": "0"}
# values of every JSON type, strings each field of a manifest reads, and forged names
POOL = (
    None, True, False, 0, 1, -1, 3, 7, 2 ** 70, 1.5, "", "0", "1", "-1", "1/2", "1/0", "2 3",
    "y1", "x1^2 + u", "2*v", "x2^2147483648", "x1*-y1", "1e5", "text", "json", "u", "x1",
    "base5", "walker6", "g_base", "g_walker", "X11", "du_theta", "closedness", "maxwell",
    "einstein", "split", "case", "theorem", "alpha", "theta", "nu",
    [], ["u"], ["u", "x2", "x3", "x4"], ["x1", "x1"], [["1"]], [1, 2], [5, 0], {}, {"name": "x"},
    {"theta": "du_theta"}, {"x1": "1"}, FORGED, FORGED_POINT,
)


def _paths(node, path=()):
    """(path, parent) of every value below node, the node itself excluded."""
    if not isinstance(node, (dict, list)):
        return
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (key,), node
        yield from _paths(child, path + (key,))


def _mutations(doc, prefix=()):
    """(path, operation) for each path below prefix of doc."""
    found = []
    for path, parent in _paths(_at(doc, prefix), prefix):
        found += [(path, "replace"), (path, "delete")]
        if isinstance(parent, list):
            found.append((path, "duplicate"))
    return found


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(doc, path, operation, value):
    doc = copy.deepcopy(doc)
    parent, key = _at(doc, path[:-1]), path[-1]
    if operation == "replace":
        parent[key] = copy.deepcopy(value)
    elif operation == "delete":
        del parent[key]
    else:
        parent.insert(key, copy.deepcopy(parent[key]))
    return doc


def _run(doc, path, *flags):
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["--manifest", str(path), *flags])
    return code, out.getvalue(), err.getvalue()


def _report_errors(out):
    """The background errors a text or JSON report holds."""
    if out.startswith("{"):
        return [b["error"] for b in json.loads(out)["backgrounds"] if b["error"]]
    return [line for line in out.splitlines() if line.startswith("  ERROR: ")]


def _summary(out):
    """The summary counts of a text or JSON report."""
    if out.startswith("{"):
        return json.loads(out)["summary"]
    lines = out.splitlines()
    line = lines[lines.index("conventions:") - 1]
    found = re.fullmatch(r"summary: (\d+) passed, (\d+) failed, (\d+) errored", line)
    assert found, out
    return dict(zip(("passed", "failed", "errored"), map(int, found.groups())))


def _assert_outcome(runs, code, out, err):
    """The outcome of a run of runs backgrounds."""
    assert code in (0, 1, 2), code
    assert "Traceback" not in out and "Traceback" not in err
    if code == EXIT_ERROR and err:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == "", err
        assert bool(_report_errors(out)) == (code == EXIT_ERROR), out
        summary = _summary(out)
        assert sum(summary.values()) == runs, out
        want = EXIT_ERROR if summary["errored"] else EXIT_FAIL if summary["failed"] else EXIT_PASS
        assert code == want, summary
    if code != EXIT_ERROR:
        lines = out.splitlines()
        summaries = [i for i, line in enumerate(lines) if line.startswith("summary:")]
        assert len(summaries) == 1 and lines[summaries[0] + 1] == "conventions:", out
        assert sum(line.startswith("background ") for line in lines) == runs, out


def _check(doc, path, *flags):
    """(code, text report) of doc's run; a run that exits 0 or 1 runs again with
    --format json, to the same code and a report that says the same."""
    code, out, err = _run(doc, path, *flags)
    runs = 1 if "--only" in flags else len(doc["backgrounds"])
    _assert_outcome(runs, code, out, err)
    if code != EXIT_ERROR:
        json_code, json_out, json_err = _run(doc, path, *flags, "--format", "json")
        assert (json_code, json_err) == (code, ""), json_err
        assert _read_text_report(out) == _read_json_report(json_out)
    return code, out


def _background_lines(out, name):
    """The text report lines of background name, its header included."""
    lines = out.splitlines()
    start = lines.index(f"background {name}")
    end = next(i for i in range(start + 1, len(lines))
               if lines[i].startswith(("background ", "summary: ")))
    return lines[start:end]


MUTATIONS = [(name,) + m for name, doc in DOCS.items() for m in _mutations(doc)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(MUTATIONS), st.sampled_from(POOL))
@example(("solution4_literal", ("backgrounds", 0, "name"), "replace"), FORGED)
@example(("solution4_literal", ("backgrounds", 0, "eval_points", 0), "replace"), FORGED_POINT)
@example(("solution4_literal", ("backgrounds", 0, "eval_points", 0), "duplicate"), None)
def test_a_changed_path_exits_0_1_or_2_without_a_traceback(tmp_path_factory, mutation, value):
    name, path, operation = mutation
    doc = _mutate(DOCS[name], path, operation, value)
    _check(doc, tmp_path_factory.getbasetemp() / "fuzz.json")


# solution1's background twice, under two names
PAIR = copy.deepcopy(DOCS["solution1"])
PAIR["backgrounds"].append(dict(copy.deepcopy(PAIR["backgrounds"][0]), name="solution1_again"))
SECOND = _mutations(PAIR, ("backgrounds", 1))


@pytest.fixture(scope="module")
def first_report(tmp_path_factory):
    """The report lines of PAIR's first background, unmutated."""
    code, out, err = _run(PAIR, tmp_path_factory.mktemp("pair") / "pair.json")
    assert code == 0 and err == ""
    return _background_lines(out, "solution1")


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(SECOND), st.sampled_from(POOL))
@example((("backgrounds", 1, "name"), "replace"), FORGED)
def test_a_changed_second_background_leaves_the_first_report_unchanged(
    tmp_path_factory, first_report, mutation, value
):
    path, operation = mutation
    doc = _mutate(PAIR, path, operation, value)
    file = tmp_path_factory.getbasetemp() / "pair.json"
    _, out = _check(doc, file)
    if out:
        assert _background_lines(out, "solution1") == first_report
        # --only <name> reports that background's entry of the full run
        code, only_out = _check(doc, file, "--only", "solution1")
        assert code == EXIT_PASS and _background_lines(only_out, "solution1") == first_report
