"""Every module-level function and class of the package has a caller in it."""

from __future__ import annotations

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "ripshadow")

# names kept although nothing in the package refers to them, with the reason;
# "module.*" covers every name of a module
ALLOWED = {
    "cli.entry": "the console script named in pyproject.toml",
    "oracle.*": "reference implementations that tests compare the fast paths against",
}


def _names_used(node: ast.AST) -> set[str]:
    """Identifiers read inside a node, as plain names or attributes."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def unreferenced_names() -> list[str]:
    """``module.name`` of each module-level def or class that no code in the
    package refers to, its own definition aside."""
    defs = []  # (module, name, node)
    uses = []  # (node, names it reads)
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(SRC, fname)) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            uses.append((node, _names_used(node)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((fname[:-3], node.name, node))
    return [
        f"{module}.{name}"
        for module, name, node in defs
        if not any(name in names for other, names in uses if other is not node)
    ]


def test_every_module_level_name_has_a_caller():
    dead = [
        name
        for name in unreferenced_names()
        if name not in ALLOWED and f"{name.split('.')[0]}.*" not in ALLOWED
    ]
    assert dead == []
