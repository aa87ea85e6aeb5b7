"""Static checks over the package source, with the standard library's
ast only: no import is left unused and no module-level function outside
the public names is left without a caller, so a deletion cannot strand
an orphan."""

import ast
from pathlib import Path

import gradedaut

SRC = Path(__file__).resolve().parent.parent / "src" / "gradedaut"


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def test_no_unused_import():
    unused = []
    for name, tree in _modules().items():
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert not unused


def _references(tree):
    """(name, enclosing module-level function or None) for every name
    read in the tree, by Name or by attribute."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner


# module-level functions the package does not call that tests use as
# references; every other function outside gradedaut.__all__ needs a
# caller in the package
REFERENCE_ONLY = {"bundle_to_data", "report_to_text", "report_from_text"}


def test_every_internal_function_has_a_caller():
    modules = _modules()
    public = set(gradedaut.__all__) | REFERENCE_ONLY
    callers = {}
    for tree in modules.values():
        for ref, owner in _references(tree):
            callers.setdefault(ref, set()).add(owner)
    orphans = [f"{name}: {top.name}"
               for name, tree in modules.items() for top in tree.body
               if isinstance(top, ast.FunctionDef)
               and top.name not in public and not top.name.startswith("__")
               and not callers.get(top.name, set()) - {top.name}]
    assert not orphans, orphans
