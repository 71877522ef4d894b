"""The CLI's bytes on the bundled manifests and the README --eval example.

tests/golden/cases.json lists each invocation with its exit code and
standard error; <name>.stdout holds its standard output.  Verdicts,
residual strings and evaluated values must not change under an engine
refactoring, so any difference here is a regression unless the output
format itself was meant to change.
"""

import json
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
