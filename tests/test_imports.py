"""No module imports a name it never reads, and no helper goes unnamed.

No linter runs here, so these scans stand in for one: every name bound by an
import in ``src/gcalc``, ``tests`` or ``demos`` must be read somewhere in its
file, or be re-exported through ``__all__``; and every module-level function
or class of ``src/gcalc`` must be named by some file of ``src``, ``tests``,
``demos`` or ``perfbench`` outside its own definition, so dead helpers get
deleted.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/gcalc", "tests", "demos")
               for p in (ROOT / d).glob("*.py"))
NAMING = sorted(p for d in ("src/gcalc", "tests", "demos", "perfbench")
                for p in (ROOT / d).glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or alias.name == "annotations":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_an_unused_name():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [(1, "os")]
    assert unused_imports("from m import a as b\nb()\n") == []


def names_used(source: str) -> set:
    """Every identifier a module names: read names, attributes, imported
    names and identifier strings (the benchmark tracer wraps functions it
    names as strings), leaving out what a top-level definition names only
    inside its own body, such as a recursive call."""
    used = set()

    def walk(node, owner):
        if isinstance(node, ast.Name) and node.id != owner:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != owner:
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and node.value != owner):
            used.add(node.value)
        for child in ast.iter_child_nodes(node):
            walk(child, owner)

    for node in ast.parse(source).body:
        walk(node, getattr(node, "name", None))
    return used


def unnamed_definitions(definitions: dict, sources: list) -> list:
    """The names in ``definitions`` (name -> "module:line") that no source
    names, as sorted "module:line name" strings."""
    used = set().union(*(names_used(s) for s in sources))
    return sorted(f"{where} {name}" for name, where in definitions.items()
                  if name not in used)


def test_every_helper_is_named_somewhere():
    definitions = {}
    for path in (ROOT / "src/gcalc").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[node.name] = f"{path.name}:{node.lineno}"
    assert unnamed_definitions(definitions, [p.read_text() for p in NAMING]) == []


def test_scan_sees_an_unnamed_helper():
    source = "def dead(n):\n    return dead(n - 1)\n\ndef live():\n    pass\n"
    found = unnamed_definitions({"dead": "m.py:1", "live": "m.py:4"},
                                [source, "from m import live\n"])
    assert found == ["m.py:1 dead"]
