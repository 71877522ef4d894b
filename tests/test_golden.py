"""The golden entries: the CLI's bytes on the bundled manifests and the README
--eval example, the bytes each scripts/*.py prints, and the README library example.

tests/golden/cases.json lists each CLI invocation with its exit code and standard
error, and <name>.stdout holds each entry's standard output.  Verdicts, residual
strings and evaluated values must not change under an engine refactoring, so any
difference here is a regression unless the output format itself was meant to
change.  Each entry also runs in a fresh interpreter, since polyring's per-process
variable registry here already holds the names earlier tests saw.  The text and
JSON reports of each invocation that runs must say the same thing, line by line,
and each value they print at a point is their printed residual's value there.
"""

import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from sugra11.cli import main
from sugra11.polyring import parse_polynomial, parse_rational

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
# (name, argv after the interpreter, exit code, stderr) of each golden entry, with its name as id
RUNS = [pytest.param(c["name"], ["-m", "sugra11", *c["args"]], c["exit"], c["stderr"], id=c["name"]) for c in CASES]
RUNS += [pytest.param(p.stem, [f"scripts/{p.name}"], 0, "", id=p.stem) for p in sorted(ROOT.glob("scripts/*.py"))]


@pytest.mark.parametrize("name, argv, code, stderr", [r for r in RUNS if r.values[1][0] == "-m"])
def test_cli_output_matches_golden_bytes(name, argv, code, stderr, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # manifest paths, as printed in messages, are relative to the repo
    assert main(argv[2:]) == code
    assert capsys.readouterr() == ((GOLDEN / f"{name}.stdout").read_text(), stderr)


@pytest.mark.parametrize("name, argv, code, stderr", [r for r in RUNS if r.values[1][0] != "-m"])
def test_script_output_matches_golden_bytes(name, argv, code, stderr, capsys):
    runpy.run_path(str(ROOT / argv[0]), run_name="__main__")
    assert capsys.readouterr() == ((GOLDEN / f"{name}.stdout").read_text(), stderr)


@pytest.mark.parametrize("name, argv, code, stderr", RUNS)
def test_fresh_interpreter_output_matches_golden_bytes(name, argv, code, stderr):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.getenv("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True)
    want = (code, stderr.encode(), (GOLDEN / f"{name}.stdout").read_bytes())
    assert (done.returncode, done.stderr, done.stdout) == want, f"{name} differs"


def test_each_golden_file_belongs_to_one_entry():
    """A stale or missing <name>.stdout, or a golden manifest no entry runs, fails by name."""
    names = [run.id for run in RUNS]
    assert sorted(set(names) ^ {p.stem for p in GOLDEN.glob("*.stdout")}) == [] and len(set(names)) == len(names)
    args = {arg for run in RUNS for arg in run.values[1]}
    assert [p.name for p in GOLDEN.glob("*.manifest.json") if f"tests/golden/{p.name}" not in args] == []


def _runs():
    """(manifest, --eval flags) of each golden invocation that exits 0 or 1, once each."""
    runs = []
    for case in CASES:
        flags = dict(zip(case["args"][::2], case["args"][1::2]))
        run = (flags["--manifest"], ["--eval", flags["--eval"]] if "--eval" in flags else [])
        if case["exit"] in (0, 1) and run not in runs:
            runs.append(run)
    return runs


_TEXT_LINES = [  # (pattern, kind) for each line of a text report before its convention notes
    (r"background (.*)", "background"),
    (r"  eval\[(.*?)\] no nonzero residual", "empty_evaluation"),
    (r"  eval\[(.*?)\] (.*) = (.*)", "evaluation"),
    (r"  eval no nonzero residual", "empty_point"),
    (r"  eval (.*) = (.*)", "point_value"),
    (r"  (.*): (PASS|FAIL)", "check"),
    (r"    residual (.*) = (.*)", "residual"),
    (r"    note: (.*)", "note"),
    (r"summary: (\d+) passed, (\d+) failed, (\d+) errored", "summary"),
]


def _read_text_report(text: str):
    """(backgrounds, summary) in the shape of _read_json_report, parsed from the text.

    Only reports of runs that exit 0 or 1 are read, so an ``ERROR:`` line fails the read,
    and so does any line between the summary and the convention notes: a second summary
    or a background after the summary is what a name that forges report lines prints."""
    backgrounds, summary = [], None
    lines = text.split("\n")
    for line in lines[: lines.index("conventions:")]:
        if summary is not None:
            pytest.fail(f"text report line {line!r} after the summary")
        found = [(kind, m.groups()) for pattern, kind in _TEXT_LINES
                 if (m := re.fullmatch(pattern, line))]
        if not found:
            pytest.fail(f"unreadable text report line {line!r}")
        kind, groups = found[0]
        if kind == "background":
            bg = {"background": groups[0], "checks": [], "evaluations": [], "point_values": {}}
            backgrounds.append(bg)
        elif kind == "check":
            bg["checks"].append((groups[0], groups[1].lower(), [], []))
        elif kind == "residual":
            bg["checks"][-1][2].append(groups)
        elif kind == "note":
            bg["checks"][-1][3].append(groups[0])
        elif kind in ("evaluation", "empty_evaluation"):
            point = dict(pair.split("=") for pair in groups[0].split(", "))
            last = bg["evaluations"][-1] if bg["evaluations"] else None
            # a point's lines run on until a key repeats: a manifest may list a point twice
            if kind == "empty_evaluation" or last is None or last[0] != point or groups[1] in last[1]:
                bg["evaluations"].append((point, {}))
            if kind == "evaluation":
                bg["evaluations"][-1][1][groups[1]] = groups[2]
        elif kind == "point_value":
            bg["point_values"][groups[0]] = groups[1]
        elif kind == "empty_point":
            pass  # read as the JSON report's empty or absent evaluations entry
        else:
            summary = dict(zip(("passed", "failed", "errored"), map(int, groups)))
    for bg in backgrounds:  # the text prints no background verdict: it is the checks'
        bg["verdict"] = "pass" if all(check[1] == "pass" for check in bg["checks"]) else "fail"
    return backgrounds, summary


def test_the_text_report_reader_refuses_a_line_after_the_summary():
    forged = ("background ok\n  einstein: PASS\nsummary: 1 passed, 0 failed, 0 errored\n"
              "background shadow\n  einstein: FAIL\nsummary: 0 passed, 1 failed, 0 errored\nconventions:\n")
    with pytest.raises(pytest.fail.Exception, match="'background shadow' after the summary"):
        _read_text_report(forged)


def _read_json_report(text: str):
    doc = json.loads(text)
    backgrounds = [
        {
            "background": bg["background"],
            "verdict": bg["verdict"],
            "checks": [
                (c["check"], c["verdict"],
                 [(r["where"], r["value"]) for r in c["nonzero_residuals"]], c["notes"])
                for c in bg["checks"]
            ],
            "evaluations": [(e["point"], e["values"]) for e in bg["evaluations"]],
            "point_values": doc.get("evaluations", {}).get(bg["background"]) or {},
        }
        for bg in doc["backgrounds"]
    ]
    return backgrounds, doc["summary"]


@pytest.mark.parametrize(
    "manifest, eval_flags", _runs(), ids=[Path(m).name.split(".")[0] + ("-eval" if e else "") for m, e in _runs()]
)
def test_text_and_json_reports_agree(manifest, eval_flags, capsys, monkeypatch):
    """Same exit code, verdicts, (where, value) residual pairs in order, notes and
    evaluated values, whichever --format prints them."""
    monkeypatch.chdir(ROOT)
    reports = {}
    for fmt in ("text", "json"):
        code = main(["--manifest", manifest, "--format", fmt, *eval_flags])
        reports[fmt] = code, capsys.readouterr().out
    (text_code, text), (json_code, json_text) = reports["text"], reports["json"]
    assert text_code == json_code
    backgrounds, summary = _read_text_report(text)
    assert backgrounds and summary is not None
    assert (backgrounds, summary) == _read_json_report(json_text)


def _evaluating():
    """(name, flags) of each golden invocation that exits 0 or 1 and evaluates its
    residuals, at the --eval point or at a manifest's eval_points."""
    found = []
    for case in CASES:
        flags = dict(zip(case["args"][::2], case["args"][1::2]))
        if case["exit"] not in (0, 1):
            continue
        manifest = json.loads((ROOT / flags["--manifest"]).read_text())
        if "--eval" in flags or any("eval_points" in bg for bg in manifest["backgrounds"]):
            found.append(pytest.param(case["name"], flags, id=case["name"]))
    return found


@pytest.mark.parametrize("name, flags", _evaluating())
def test_each_printed_eval_value_is_the_printed_residual_at_its_point(name, flags):
    """Parsed back from the golden bytes, each printed residual evaluated at each printed
    manifest point, and at the --eval point, is the value printed for it there."""
    out = (GOLDEN / f"{name}.stdout").read_text()
    backgrounds, _ = (_read_json_report if flags.get("--format") == "json" else _read_text_report)(out)
    eval_point = dict(pair.split("=") for pair in flags["--eval"].split(",")) if "--eval" in flags else None
    evaluated = 0
    for bg in backgrounds:
        residuals = {f"{check}:{where}": parse_polynomial(value)
                     for check, _, pairs, _ in bg["checks"] for where, value in pairs}
        points = bg["evaluations"] + ([(eval_point, bg["point_values"])] if eval_point else [])
        for point, values in points:
            exact = {k: parse_rational(v) for k, v in point.items()}
            want = {key: poly.evaluate(exact) for key, poly in residuals.items()}
            assert {key: parse_rational(v) for key, v in values.items()} == want, (bg["background"], point)
            evaluated += len(values)
    assert evaluated > 0


@pytest.mark.parametrize("eval_flags", [[], ["--eval", "x1=1"]], ids=["eval_points", "eval_flag"])
def test_a_point_with_no_nonzero_residual_prints_one_line(eval_flags, tmp_path, capsys):
    """solution1 passes, so a point has no nonzero residual to evaluate: the
    text says so in one line, and the JSON lists the point with no values."""
    doc = json.loads((ROOT / "manifests" / "solution1.json").read_text())
    if not eval_flags:
        doc["backgrounds"][0]["eval_points"] = [{"x1": "1"}]
    path = tmp_path / "solution1_eval.json"
    path.write_text(json.dumps(doc))
    reports = {}
    for fmt in ("text", "json"):
        assert main(["--manifest", str(path), "--format", fmt, *eval_flags]) == 0
        reports[fmt] = capsys.readouterr().out
    line = "  eval no nonzero residual" if eval_flags else "  eval[x1=1] no nonzero residual"
    assert reports["text"].split("\n").count(line) == 1
    if eval_flags:
        assert json.loads(reports["json"])["evaluations"] == {"solution1": {}}
    else:
        assert json.loads(reports["json"])["backgrounds"][0]["evaluations"] == [
            {"point": {"x1": "1"}, "values": {}}]
    assert _read_text_report(reports["text"]) == _read_json_report(reports["json"])


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    exec(compile(example, "README.md", "exec"), {})


def test_readme_manifest_table_lists_each_bundled_manifest_with_its_golden_exit_code():
    """One README row per manifests/*.json, and its exit code is the one the golden
    plain invocations of that manifest pin (their stderr and stdout are pinned too)."""
    readme = (ROOT / "README.md").read_text()
    lines = re.findall(r"^\| `[A-Za-z0-9_]+\.json`.*$", readme, re.M)
    rows = [re.fullmatch(r"\| `([A-Za-z0-9_]+)\.json` *\|.*\| *exit ([0-9]) *\|", line)
            for line in lines]
    assert lines and all(rows), lines
    table = {row[1]: int(row[2]) for row in rows}
    assert len(table) == len(rows)
    assert sorted(table) == sorted(path.stem for path in (ROOT / "manifests").glob("*.json"))
    pinned = {}
    for case in CASES:
        flags = dict(zip(case["args"][::2], case["args"][1::2]))
        manifest = Path(flags["--manifest"])
        if manifest.parent.name == "manifests" and set(flags) <= {"--manifest", "--format"}:
            pinned.setdefault(manifest.stem, set()).add(case["exit"])
    assert pinned == {name: {code} for name, code in table.items()}
