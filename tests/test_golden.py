"""The CLI's bytes on the bundled manifests and the README --eval example,
the bytes the two scripts print, and the README library example.

tests/golden/cases.json lists each invocation with its exit code and
standard error; <name>.stdout holds its standard output, and
<script>.stdout holds what scripts/<script>.py prints.  Verdicts,
residual strings and evaluated values must not change under an engine
refactoring, so any difference here is a regression unless the output
format itself was meant to change.
"""

import json
import re
import runpy
from pathlib import Path

import pytest

from sugra11.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_golden_bytes(case, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # manifest paths, as printed in messages, are relative to the repo
    code = main(case["args"])
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.err == case["stderr"]
    assert captured.out == (GOLDEN / f"{case['name']}.stdout").read_text()


@pytest.mark.parametrize("script", ["verify_solution_families", "hodge_convention_table"])
def test_script_output_matches_golden_bytes(script, capsys):
    runpy.run_path(str(ROOT / "scripts" / f"{script}.py"), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"{script}.stdout").read_text()


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
