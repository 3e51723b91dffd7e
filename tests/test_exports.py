"""Every name a module exports resolves, so no stale export outlives its code,
and every module-level name, public or private, and every method and property
has a caller in the package itself."""

import ast
import importlib
import pathlib

import pytest

import qss

MODULES = ("qsim", "states", "attack", "protocol", "bell", "dicke", "rdm")

#: Public names whose only callers are in the acceptance gate.
GATE_ONLY = {
    "g_state",
    "exact_mutual_info_ab",
    "collapse_visibility",
    "lr_sufficiency_thresholds",
    "G6_ANY_FRAME_BOUND",
}

#: Methods and properties whose only callers are in the acceptance gate.
GATE_ONLY_METHODS = {"uniform", "records"}


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"qss.{name}")
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"qss.{name}.__all__ lists missing {export!r}"
    namespace = {}
    exec(f"from qss.{name} import *", namespace)


def _defined_names(stmt):
    """Names a module-level statement defines: a def, a class or assignments."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _methods(stmt):
    """The methods and properties a class statement defines, dunders aside."""
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [
        item
        for item in stmt.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
    ]


def _reads(tree, skip):
    """Names read in ``tree`` outside the subtree ``skip``: the bare names and
    the attribute names, as two sets."""
    bare, attrs, stack = set(), set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return bare, attrs


def test_public_names_have_a_production_caller():
    statements = [
        (path.stem, stmt)
        for path in sorted(pathlib.Path(qss.__file__).parent.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    unused = []
    for module, stmt in statements:
        # a module-level name is read bare or as a module's attribute
        for name in _defined_names(stmt):
            # dunders (__all__, __version__) are read by the import machinery
            if name.startswith("__") or name in GATE_ONLY:
                continue
            if not any(name in set.union(*_reads(other, stmt)) for _, other in statements):
                unused.append(f"qss.{module}.{name}")
        # a method or property is read as an attribute, outside its own def
        for item in _methods(stmt):
            if item.name in GATE_ONLY_METHODS:
                continue
            if not any(item.name in _reads(other, item)[1] for _, other in statements):
                unused.append(f"qss.{module}.{stmt.name}.{item.name}")
    assert unused == [], f"names with no caller in src/qss: {unused}"
