"""Rules over the source of osclab: which module reads which names of another."""

import ast
from pathlib import Path

import osclab
from osclab import integrate, lanes, model

SRC = Path(osclab.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _imported_module(node):
    """The osclab module an ``from ... import`` takes names from, or None for another package."""
    if node.level == 1:
        return node.module or "osclab"
    if node.module and node.module.split(".")[0] == "osclab":
        return node.module.partition(".")[2] or "osclab"
    return None


def _aliases(tree):
    """Local name -> the osclab module it binds ("osclab" for the package itself).

    A module is bound by ``from . import x``, ``import osclab.x`` (as x or
    through ``osclab``) and ``x = _lazy("x")`` (``cli._lazy``).
    """
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _imported_module(node) == "osclab":
            for a in node.names:
                if a.name in MODULES:
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                root, _, sub = a.name.partition(".")
                if root == "osclab":
                    aliases[a.asname or root] = (sub or "osclab") if a.asname else "osclab"
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, (ast.Name, ast.Attribute))
              and getattr(node.value.func, "id", getattr(node.value.func, "attr", None)) == "_lazy"
              and isinstance(node.value.args[0], ast.Constant)):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases[target.id] = node.value.args[0].value
    return aliases


def _module_of(expr, aliases):
    """The osclab module that expr names (``x``, or ``osclab.x``), else None."""
    if isinstance(expr, ast.Name):
        return aliases.get(expr.id)
    if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
            and aliases.get(expr.value.id) == "osclab" and expr.attr in MODULES):
        return expr.attr
    return None


def _tree(name):
    path = SRC / f"{name}.py"
    return ast.parse(path.read_text(), str(path))


def _private_reads(name):
    """Each read in one source file of a private name of another osclab module."""
    tree = _tree(name)
    aliases = _aliases(tree)
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = _imported_module(node)
            reads += [f"{name}:{node.lineno}: from {mod} import {a.name}"
                      for a in node.names if mod not in (None, name) and _private(a.name)]
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            mod = _module_of(node.value, aliases)
            if mod not in (None, name):
                reads.append(f"{name}:{node.lineno}: {mod}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_private_names():
    assert [read for name in MODULES for read in _private_reads(name)] == []


def test_only_stability_imports_the_lanes():
    importers = []
    for name in MODULES:
        tree = _tree(name)
        used = set(_aliases(tree).values()) | {
            _imported_module(node) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        if "lanes" in used:
            importers.append(name)
    assert importers == ["stability"]
    lane_names = {"integrate_lanes", "LaneForm", "make_lane_field", "LanePair", "DP54", "DOP853",
                  "LaneRun"}
    assert lane_names <= set(vars(lanes))
    assert lane_names.isdisjoint(set(vars(integrate)) | set(vars(model)))


def _reads_evals_per_step(node):
    """Whether node reads ``integrate.DP_EVALS`` or a ``lanes.LanePair``'s ``evals``."""
    if isinstance(node, ast.ImportFrom):
        return any(a.name == "DP_EVALS" for a in node.names)
    return (isinstance(node, ast.Name) and node.id == "DP_EVALS"
            or isinstance(node, ast.Attribute) and node.attr in ("DP_EVALS", "evals"))


def test_only_the_integrators_read_the_evaluations_per_step():
    # a run counts its own field evaluations; the CLI and the scan copy its count
    readers = [name for name in MODULES if any(map(_reads_evals_per_step, ast.walk(_tree(name))))]
    assert readers == ["integrate", "lanes"]
