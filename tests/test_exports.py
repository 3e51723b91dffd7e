"""Every name a module exports resolves, so no stale export outlives its code,
and every module-level name, public or private, has a caller in the package
itself."""

import ast
import importlib
import pathlib

import pytest

import qss

MODULES = ("qsim", "states", "attack", "protocol", "bell", "rdm")

#: Public names whose only callers are in the acceptance gate.
GATE_ONLY = {
    "exact_mutual_info_ab",
    "collapse_visibility",
    "lr_sufficiency_thresholds",
    "G6_ANY_FRAME_BOUND",
}


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


def _used_names(stmt):
    """Names a statement reads, as bare names or as attributes."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(stmt)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.Attribute)
    }


def test_public_names_have_a_production_caller():
    statements = [
        (path.stem, stmt)
        for path in sorted(pathlib.Path(qss.__file__).parent.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    unused = []
    for module, stmt in statements:
        for name in _defined_names(stmt):
            # dunders (__all__, __version__) are read by the import machinery
            if name.startswith("__") or name in GATE_ONLY:
                continue
            if not any(name in _used_names(other) for _, other in statements if other is not stmt):
                unused.append(f"qss.{module}.{name}")
    assert unused == [], f"names with no caller in src/qss: {unused}"
