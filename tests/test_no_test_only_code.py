"""Production code that nothing but the tests reaches is dead weight.

Every function, class and method defined in ``src/anchorloc`` must be
named somewhere in the package, the benchmark (``perfbench``) or
``scripts``: as a name, an attribute, an imported name or a string
constant (the benchmark's tracer wraps functions by name). Scalar oracles
that only tests use belong in ``tests/conftest.py``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "anchorloc"
USERS = (PACKAGE, ROOT / "perfbench", ROOT / "scripts")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(directory):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _references():
    names = set()
    for directory in USERS:
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(filter(None, (node.name, node.asname)))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def test_every_production_definition_has_a_production_reference():
    used = _references()
    unused = []
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            name = getattr(node, "name", "") if isinstance(node, DEFINITIONS) else ""
            if name and not (name.startswith("__") and name.endswith("__")) and name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, "defined in src/anchorloc but used only by tests:\n" + "\n".join(unused)
