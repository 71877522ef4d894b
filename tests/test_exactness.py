"""The engine stays exact: no float literal and no float() call in its source."""

import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sugra11"


def _float_uses(source: str):
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT)]
    for tok, nxt in zip(tokens, tokens[1:] + [None]):
        if tok.type == tokenize.NUMBER:
            text = tok.string.lower()
            if not text.startswith(("0x", "0o", "0b")) and any(c in text for c in ".ej"):
                yield tok.start[0], tok.string
        elif tok.type == tokenize.NAME and tok.string == "float" and nxt is not None and nxt.string == "(":
            yield tok.start[0], "float("


def test_scanner_finds_float_literals_and_calls():
    found = list(_float_uses("a = 1.5\nb = 2e3\nc = 0x1e\nd = float(a)\ne = isinstance(a, float)\n"))
    assert found == [(1, "1.5"), (2, "2e3"), (4, "float(")]


def test_engine_source_has_no_float_literal_or_call():
    files = sorted(SRC.glob("*.py"))
    assert files
    offenders = [f"{path.name}:{line}: {text}"
                 for path in files for line, text in _float_uses(path.read_text())]
    assert offenders == []
