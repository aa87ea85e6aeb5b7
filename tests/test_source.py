"""Static checks over the package source, with the standard library's
ast only: no import is left unused, and no module-level function
outside the public names and no method or property of a package class
is left without a caller, so a deletion cannot strand an orphan."""

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


def _imported_packages(tree):
    """The top-level package of every absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_no_dataclasses_and_json_only_in_report():
    # every op is a fresh process that loads what its modules import:
    # dataclasses brings inspect and ast along and execs code for each
    # class it makes, and json serves only the report module, which only
    # the commands that write or read a report load
    for name, tree in _modules().items():
        imported = set(_imported_packages(tree))
        assert "dataclasses" not in imported, name
        assert "json" not in imported or name == "report.py", name


def _owned_parts(top):
    """(owner, node) pairs that cover the module-level statement `top`:
    a method or property of a class is owned by "Class.name", the rest
    by the module-level function or class it sits in, or by None."""
    name = getattr(top, "name", None)
    if not isinstance(top, ast.ClassDef):
        return [(name, top)]
    return [(f"{name}.{part.name}" if isinstance(part, ast.FunctionDef)
             else name, part) for part in top.body] + [
        (name, part) for part in (*top.decorator_list, *top.bases)]


def _references(tree, modules):
    """(name, owner) for every name read in the tree, by Name or by
    attribute; see `_owned_parts`.  An attribute of a package module,
    such as linalg.inverse, is named "linalg.inverse", so that it reads
    that module's function and no method of the same name."""
    for top in tree.body:
        for owner, part in _owned_parts(top):
            for node in ast.walk(part):
                if isinstance(node, ast.Name):
                    yield node.id, owner
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and f"{node.value.id}.py" in modules):
                    yield f"{node.value.id}.{node.attr}", owner
                elif isinstance(node, ast.Attribute):
                    yield node.attr, owner


# module-level functions the package does not call that tests use as
# references; every other function outside gradedaut.__all__ needs a
# caller in the package
REFERENCE_ONLY = {"report_to_text", "report_from_text"}
# methods the package does not call: the tests check results with
# substitute_values (a polynomial's value at a point) and compose
# (closure of the weight symmetries under composition, which in a
# finite set holding the identity gives the inverses too)
UNCALLED_METHODS = {"Polynomial.substitute_values",
                    "GroupAutomorphism.compose"}


def _defined(tree):
    """(owner name, name) of each module-level function and of each
    method and property of a module-level class, dunders left out: the
    language calls those."""
    for top in tree.body:
        for owner, part in _owned_parts(top):
            if (isinstance(part, ast.FunctionDef) and owner is not None
                    and not (part.name.startswith("__")
                             and part.name.endswith("__"))):
                yield owner, part.name


def test_every_internal_function_has_a_caller():
    modules = _modules()
    public = set(gradedaut.__all__) | REFERENCE_ONLY | UNCALLED_METHODS
    callers = {}
    for tree in modules.values():
        for ref, owner in _references(tree, modules):
            callers.setdefault(ref, set()).add(owner)
    # a module-level function is also read as "module.function"
    orphans = [f"{name}: {owner}"
               for name, tree in modules.items()
               for owner, function in _defined(tree)
               if owner not in public
               and not (callers.get(function, set())
                        | callers.get(f"{name[:-3]}.{owner}", set())) - {owner}]
    assert not orphans, orphans


# the value classes the package hashes or compares; every stage product
# is compared by its report or printed bytes instead
VALUE_CLASSES = {"GradingGroup", "GroupElement", "GroupAutomorphism",
                 "DegreeMatrix", "Polynomial", "RationalCone", "ProblemInput"}


def test_equality_only_on_value_classes():
    defined = {node.name for tree in _modules().values()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               and any(isinstance(part, ast.FunctionDef)
                       and part.name == "__eq__" for part in node.body)}
    assert defined == VALUE_CLASSES


def test_no_lazy_attributes_and_no_polynomial_subclass():
    # an attribute that a class makes on first read is a computation
    # that any ==, hash or attribute walk can start by accident; the
    # PEP 562 hook of the package's __init__ is a module function
    lazy = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            lazy += [f"{name}: {node.name}.__getattr__" for part in node.body
                     if isinstance(part, ast.FunctionDef)
                     and part.name == "__getattr__"]
            lazy += [f"{name}: {node.name}({base.id})" for base in node.bases
                     if isinstance(base, ast.Name) and base.id == "Polynomial"]
    assert not lazy, lazy
