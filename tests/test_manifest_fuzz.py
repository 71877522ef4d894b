"""A manifest fuzzer: one changed JSON path of a bundled manifest never reaches
a traceback.

Each example changes one path of one of the five valid bundled manifests:
it replaces the value there from a fixed pool, deletes it, or duplicates a
list item, and runs ``cli.main`` in process on the result.  The exit code is
0, 1 or 2; exit 2 is one ``error:`` line on stderr, or a report that holds a
background's error; a report without one leaves stderr empty.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sugra11.cli import EXIT_ERROR, main

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"
VALID = ("solution1", "solution2", "solution3", "solution4_corrected", "solution4_literal")
DOCS = {name: json.loads((MANIFESTS / f"{name}.json").read_text()) for name in VALID}

# values of every JSON type, and strings each field of a manifest reads
POOL = (
    None, True, False, 0, 1, -1, 3, 7, 2 ** 70, 1.5, "", "0", "1", "-1", "1/2", "1/0", "2 3",
    "y1", "x1^2 + u", "2*v", "x2^2147483648", "x1*-y1", "1e5", "text", "json", "u", "x1",
    "base5", "walker6", "g_base", "g_walker", "X11", "du_theta", "closedness", "maxwell",
    "einstein", "split", "case", "theorem", "alpha", "theta", "nu",
    [], ["u"], ["u", "x2", "x3", "x4"], ["x1", "x1"], [["1"]], [1, 2], [5, 0], {}, {"name": "x"},
    {"theta": "du_theta"}, {"x1": "1"},
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


def _run(doc, path):
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["--manifest", str(path)])
    return code, out.getvalue(), err.getvalue()


def _report_errors(out):
    """The background errors a text or JSON report holds."""
    if out.startswith("{"):
        return [b["error"] for b in json.loads(out)["backgrounds"] if b["error"]]
    return [line for line in out.splitlines() if line.startswith("  ERROR: ")]


def _assert_outcome(code, out, err):
    assert code in (0, 1, 2), code
    assert "Traceback" not in out and "Traceback" not in err
    if code == EXIT_ERROR and err:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == "", err
        assert bool(_report_errors(out)) == (code == EXIT_ERROR), out


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
def test_a_changed_path_exits_0_1_or_2_without_a_traceback(tmp_path_factory, mutation, value):
    name, path, operation = mutation
    doc = _mutate(DOCS[name], path, operation, value)
    _assert_outcome(*_run(doc, tmp_path_factory.getbasetemp() / "fuzz.json"))


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
def test_a_changed_second_background_leaves_the_first_report_unchanged(
    tmp_path_factory, first_report, mutation, value
):
    path, operation = mutation
    doc = _mutate(PAIR, path, operation, value)
    code, out, err = _run(doc, tmp_path_factory.getbasetemp() / "pair.json")
    _assert_outcome(code, out, err)
    if out:
        assert _background_lines(out, "solution1") == first_report
