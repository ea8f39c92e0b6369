"""Every module-level function and class of the package, and every method of
its classes, has a caller in it; only the oracle reads the tuple view of a
complex."""

from __future__ import annotations

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "ripshadow")

# names kept although nothing in the package refers to them, with the reason;
# "module.*" covers every name of a module.  Dunder methods are kept too:
# Python calls them.
ALLOWED = {
    "cli._Parser.error": "argparse calls it on a bad flag",
    "oracle.*": "reference implementations that tests compare the fast paths against",
    "rips.SimplicialComplex.has_simplex": "the one-simplex query of the public API; the package looks up rows in batches",
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCS, ast.ClassDef)


def _uses(node: ast.AST, inside: frozenset, out: list) -> None:
    """Append (identifier, ids of the enclosing definitions) for every plain
    name or attribute read under ``node``."""
    if isinstance(node, _DEFS):
        inside = inside | {id(node)}
    if isinstance(node, ast.Name):
        out.append((node.id, inside))
    elif isinstance(node, ast.Attribute):
        out.append((node.attr, inside))
    for child in ast.iter_child_nodes(node):
        _uses(child, inside, out)


def _modules():
    """(file name, parsed module) of each module of the package."""
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                yield fname, ast.parse(fh.read())


def unreferenced_names() -> list[str]:
    """``module.name`` of each module-level def or class, and
    ``module.Class.method`` of each method, that no code in the package
    refers to, its own definition aside."""
    defs = []  # (qualified name, node)
    uses = []  # (identifier, ids of the enclosing definitions)
    for fname, tree in _modules():
        _uses(tree, frozenset(), uses)
        module = fname[:-3]
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            defs.append((f"{module}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{module}.{node.name}.{sub.name}", sub)
                    for sub in node.body
                    if isinstance(sub, _FUNCS)
                    and not (sub.name.startswith("__") and sub.name.endswith("__"))
                ]
    readers: dict[str, list[frozenset]] = {}
    for name, inside in uses:
        readers.setdefault(name, []).append(inside)
    return [
        qualified
        for qualified, node in defs
        if all(id(node) in inside for inside in readers.get(node.name, ()))
    ]


def _dead(depth: int) -> list[str]:
    """Unreferenced names with ``depth`` dots that the allowlist does not keep."""
    return [
        name
        for name in unreferenced_names()
        if name.count(".") == depth
        and name not in ALLOWED
        and f"{name.split('.')[0]}.*" not in ALLOWED
    ]


def test_every_module_level_name_has_a_caller():
    assert _dead(1) == []


def test_every_method_has_a_caller():
    assert _dead(2) == []


def test_only_the_oracle_reads_the_tuple_view():
    # SimplicialComplex.simplices forms a tuple per simplex on every read;
    # the package works on the row arrays, and the oracle keeps its own loops
    readers = []
    for fname, tree in _modules():
        uses = []
        _uses(tree, frozenset(), uses)
        if fname != "oracle.py" and "simplices" in (name for name, _ in uses):
            readers.append(fname)
    assert readers == []
