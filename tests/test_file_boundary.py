"""Every file the package reads or writes goes through ``anchorloc.textio``.

That module holds the one header check, UTF-8 decoding, number format and
format error; a module that opened a file itself would need copies of
them. So no module in ``src/anchorloc`` but ``textio.py`` calls ``open``
(as a name or as an attribute, such as ``io.open`` or ``Path.open``) or a
``pathlib`` shortcut that reads or writes a whole file. The codec of the
float64 blocks in model files lives there too, so no other module imports
``base64`` or ``binascii`` or calls ``frombuffer``.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "anchorloc"
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes", "frombuffer"}
CODEC_MODULES = {"base64", "binascii"}


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.module:
        return {node.module.split(".")[0]}
    return set()


def test_only_textio_opens_files():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "textio.py" and path.parent == PACKAGE:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and _called_name(node) in FILE_CALLS:
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {_called_name(node)}")
            for name in sorted(CODEC_MODULES & _imported_modules(node)):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} import {name}")
    assert not found, "file access outside textio.py:\n" + "\n".join(found)
