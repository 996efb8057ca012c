"""Every public name in the package is used by the package or by perfbench.

A public function, class or method that only tests call is API that no
mode runs; this guard keeps such names from growing back unnoticed.
perfbench uses a name only where its code refers to it (a name, an
attribute or an import): the tracer's LAYER_FUNCTIONS names functions in
strings, and a name that only the tracer wraps is timed but never called.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qsearch"
PERFBENCH = ROOT / "perfbench"


def _public_definitions(tree: ast.Module):
    """(name, node) of each public top-level function and class, and each public method of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _references(tree: ast.Module):
    """(identifier, line) of every name, attribute and imported name in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def test_every_public_name_is_used_outside_the_tests() -> None:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    perfbench = {
        ident
        for path in sorted(PERFBENCH.glob("*.py"))
        for ident, _ in _references(ast.parse(path.read_text(), str(path)))
    }
    unused = []
    for path, tree in trees.items():
        for qualified, node in _public_definitions(tree):
            name = qualified.rsplit(".", 1)[-1]
            used = any(
                ident == name and not (other == path and node.lineno <= line <= node.end_lineno)
                for other, pairs in refs.items()
                for ident, line in pairs
            )
            if not used and name not in perfbench:
                unused.append(f"{path.stem}.{qualified}")
    assert not unused, f"public names that only tests use: {unused}"


def _raised_names(tree: ast.Module):
    """The name of each exception that a raise statement in the module constructs or re-raises."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_validity_refusal_has_one_home() -> None:
    # the runner refuses from the validity report each run writes; a second
    # refusal elsewhere could disagree with that report
    raisers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if "ValidityError" in _raised_names(ast.parse(path.read_text(), str(path)))
    )
    assert raisers == ["experiments.py"]
