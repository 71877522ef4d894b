"""The engine stays exact: no float literal and no float() call in its source,
nor in the helpers, scripts/ and the oracles of tests/oracles.py.
It also stays lean: every module-level function and every method and
property of a class has a caller, every field a record class lists in
``__slots__`` has a reader, and every module-level import of the engine,
of scripts/ and of tests/ is used by its module."""

import ast
import importlib
import io
import tokenize
from collections import Counter
from pathlib import Path

import sugra11

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sugra11"


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
    engine, scripts = sorted(SRC.glob("*.py")), sorted((ROOT / "scripts").glob("*.py"))
    assert engine and scripts
    offenders = [f"{path.relative_to(ROOT)}:{line}: {text}"
                 for path in [*engine, *scripts, ROOT / "tests" / "oracles.py"]
                 for line, text in _float_uses(path.read_text())]
    assert offenders == []


def _mentions(node) -> Counter:
    """Every identifier read or bound under node, attribute names included."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(tree):
    """(qualified name, node) for each module-level function and each method
    or property of a module-level class, dunders excluded."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not (
                        fn.name.startswith("__") and fn.name.endswith("__")):
                    yield f"{node.name}.{fn.name}", fn


def _unreached_functions(engine: dict, callers: list, reached=frozenset()):
    """module.name for each function, method and property of the engine
    sources (see ``_definitions``) that no engine or caller source mentions
    outside its own definition.

    A name counts wherever it appears, a same-named method, attribute or
    local included, so the scan can miss dead code but never flags live code.
    """
    trees = {name: ast.parse(source) for name, source in engine.items()}
    mentions = Counter()
    for tree in [*trees.values(), *map(ast.parse, callers)]:
        mentions += _mentions(tree)
    return [f"{name}.{qualified}" for name, tree in trees.items()
            for qualified, fn in _definitions(tree) if qualified not in reached
            and mentions[fn.name] == _mentions(fn)[fn.name]]


def test_caller_scan_finds_functions_only_their_own_body_mentions():
    engine = {
        "a": ("def used():\n    return 1\n\n\n"
              "def dead(n):\n    return dead(n - 1)\n\n\n"
              "def exported():\n    pass\n\n\n"
              "class K:\n"
              "    def __len__(self):\n        return 0\n\n"
              "    def live(self):\n        return 0\n\n"
              "    def stale(self):\n        return self.stale()\n\n"
              "    @property\n    def gone(self):\n        return self.gone\n"),
        "b": "from .a import K, used\n\nx = used() + K().live()\n",
    }
    assert _unreached_functions(engine, [], {"exported"}) == ["a.dead", "a.K.stale", "a.K.gone"]
    assert _unreached_functions(engine, ["from sugra11.a import dead\ndead(3)\n"],
                                {"exported", "K.stale", "K.gone"}) == []


# kept without an engine caller: perfbench/tracer.py looks each of these up by
# name (LAYERS, POLY_METHODS, POLY_FUNCTIONS) and stops if one is missing
TRACED_ONLY = {"Polynomial.substitute", "poly_divexact", "poly_sqrt", "grad_norm_sq", "poly_det", "hessian"}


def _traced_names():
    """Every string named in the keys of perfbench/tracer.py's LAYERS,
    POLY_METHODS and POLY_FUNCTIONS, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    names = set()
    for node in tree.body:
        target = node.target if isinstance(node, ast.AnnAssign) else (
            node.targets[0] if isinstance(node, ast.Assign) else None)
        if isinstance(target, ast.Name) and target.id in ("LAYERS", "POLY_METHODS", "POLY_FUNCTIONS"):
            names |= {n.value for key in node.value.keys for n in ast.walk(key)
                      if isinstance(n, ast.Constant)}
    return names


def test_every_traced_only_entry_is_looked_up_by_the_tracer():
    # a stale entry would exempt dead code from the caller scan below
    names = _traced_names()
    assert {"poly_det", "substitute", "poly_divexact"} <= names
    assert [entry for entry in TRACED_ONLY if entry.split(".")[-1] not in names] == []


def test_every_engine_function_has_a_caller():
    engine = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    scripts = [path.read_text() for path in sorted((ROOT / "scripts").glob("*.py"))]
    assert scripts
    assert _unreached_functions(engine, scripts, set(sugra11.__all__) | TRACED_ONLY) == []


def _unread_slots(classes, sources: list):
    """Class.field for each ``__slots__`` name of the classes that no source
    reads as an attribute ``x.field``; a write or a getattr is not a read."""
    reads = {node.attr for source in sources for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{cls.__name__}.{name}" for cls in classes
            for name in vars(cls).get("__slots__", ()) if name not in reads]


def test_slot_scan_finds_fields_no_source_reads():
    class Record:
        __slots__ = ("kept", "written", "fetched")

    source = "r.kept + 1\nr.written = 2\ngetattr(r, 'fetched')\n"
    assert _unread_slots([Record], [source]) == ["Record.written", "Record.fetched"]


def test_every_record_field_has_a_reader():
    modules = [importlib.import_module(f"sugra11.{path.stem}")
               for path in sorted(SRC.glob("*.py")) if path.stem != "__main__"]
    classes = [obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and obj.__module__ == module.__name__]
    sources = [path.read_text()
               for path in [*sorted(SRC.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]]
    assert _unread_slots(classes, sources) == []


def _shown(source: str) -> set:
    """Every identifier source mentions or imports, under its own name."""
    tree = ast.parse(source)
    return set(_mentions(tree)) | {alias.name for node in ast.walk(tree)
                                   if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_public_name_is_shown_in_use():
    # __all__ promises only what the README's library example or a script uses
    readme = (ROOT / "README.md").read_text()
    example = readme.split("## Library usage")[1].split("```python\n")[1].split("```")[0]
    shown = _shown(example).union(*(_shown(path.read_text())
                                    for path in sorted((ROOT / "scripts").glob("*.py"))))
    assert [name for name in sugra11.__all__ if name not in shown] == []


def _unused_imports(source: str):
    """The names a module-level import binds that the module never mentions.

    ``from __future__`` imports bind nothing the module reads, so they are
    left out.
    """
    tree = ast.parse(source)
    mentions = _mentions(tree)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    return [name for name in bound if not mentions[name]]


def test_import_scan_finds_names_the_module_never_mentions():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport re as regex\n"
              "from .a import used, dead, typed, first as renamed\n\n"
              "def f(x: typed):\n    return used(math.pi) + first\n")
    assert _unused_imports(source) == ["os", "regex", "dead", "renamed"]
    assert _unused_imports("import os.path\n\nos.path.join('a')\n") == []


def test_every_engine_import_is_mentioned_in_its_module():
    # the scripts under scripts/ and the tests too; __init__ only re-exports,
    # so its imports are its content
    paths = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
             *sorted((ROOT / "tests").glob("*.py"))]
    offenders = [f"{path.name}: {name}" for path in paths
                 if path.name != "__init__.py" for name in _unused_imports(path.read_text())]
    assert offenders == []
