"""The package's public surface.

No module of the package imports another's underscore-prefixed names,
and every name ``treecut.__all__`` exports resolves.
"""

import ast
import pathlib

import treecut

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "treecut"


def private_imports(path: pathlib.Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        ours = module == "treecut" or module.startswith("treecut.")
        if node.level == 0 and not ours:
            continue
        found += [
            f"{path.name}:{node.lineno}: {module}.{alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        ]
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    assert [hit for path in modules for hit in private_imports(path)] == []


def test_every_exported_name_resolves():
    assert [name for name in treecut.__all__ if not hasattr(treecut, name)] == []
