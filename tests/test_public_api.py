"""The public surface: each module's `__all__` names exactly what it
defines for callers, and the package re-exports only listed names."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import opturan

MODULES = [importlib.import_module(f"opturan.{info.name}")
           for info in pkgutil.iter_modules(opturan.__path__)
           if info.name != "__main__"]


def test_all_lists_exactly_the_public_definitions():
    listed = {}
    for module in MODULES:
        names = module.__all__
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
        defined = {name for name, obj in vars(module).items()
                   if not name.startswith("_")
                   and (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == module.__name__}
        unlisted = sorted(defined - set(names))
        assert not unlisted, f"{module.__name__}.__all__ omits {unlisted}"
        for name in names:
            listed.setdefault(name, []).append(getattr(module, name))
    for name, obj in vars(opturan).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        assert any(obj is candidate for candidate in listed.get(name, ())), \
            f"opturan re-exports {name}, which no module lists"


# The private helpers each module takes from another opturan module, as
# `from .x import _y` or as `x._y`: a new reach-in, or a helper that falls
# out of use, shows in this dict's diff.
CROSS_MODULE_PRIVATES = {
    ("cli", "graph_core"): {"_check_sorted_chords", "_dot_lines", "_edge_list_lines",
                            "_fan_chords", "_sorted_edges", "_triple_fan_chords"},
    ("cli", "numeral_paths"): {"_numeral_stream"},
    ("extremal_search", "graph_core"): {"_dihedral_images", "_dual_subtree_counts", "_walk"},
    ("extremal_search", "numeral_paths"): {"_numeral_adjacency", "_numeral_stream"},
    ("numeral_paths", "graph_core"): {"_check_sorted_chords"},
}


def _sibling(node: ast.ImportFrom) -> str | None:
    """The opturan module a `from ... import` reads, "" for the package
    itself, None for a module outside it."""
    if node.level == 1:
        return node.module or ""
    package = opturan.__name__
    if node.module == package or (node.module or "").startswith(package + "."):
        return node.module[len(package) + 1:]
    return None


def test_cross_module_private_names_are_the_pinned_ones():
    taken = {}
    for module in MODULES:
        name = module.__name__.rpartition(".")[2]
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and _sibling(node) is not None]
        # `from . import x` binds the sibling module x to a local name
        modules = {alias.asname or alias.name: alias.name
                   for node in imports if not _sibling(node) for alias in node.names}
        pairs = [(_sibling(node), alias.name) for node in imports if _sibling(node)
                 for alias in node.names]
        pairs += [(modules[node.value.id], node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules]
        for source, helper in pairs:
            if helper.startswith("_") and not helper.startswith("__"):
                taken.setdefault((name, source), set()).add(helper)
    assert taken == CROSS_MODULE_PRIVATES


def test_every_import_is_used():
    # __init__.py imports only to re-export
    for path in sorted(Path(opturan.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Import)
                    or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} never uses {sorted(imported - used)}"


def _scale_refusal_handlers(node: ast.AST, where: str):
    """The name of the innermost function around each `except` clause that
    catches ScaleLimitError under node ("<module>" outside any function)."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.ExceptHandler) and child.type is not None
                and "ScaleLimitError" in ast.unparse(child.type)):
            yield where
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from _scale_refusal_handlers(child, inner)


def test_only_entry_points_rewrite_a_refusal():
    # a ceiling that no caller can lift raises with its own hint
    # (check_limit's hint=); only verify_suite and the CLI rewrite the
    # refusals raised below them
    handlers = sorted((module.__name__.rpartition(".")[2], where) for module in MODULES
                      for where in _scale_refusal_handlers(
                          ast.parse(Path(module.__file__).read_text(encoding="utf-8")),
                          "<module>"))
    assert handlers == [("cli", "run"), ("extremal_search", "verify_suite")]



def _builds_refusal(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "ScaleLimitError"


def _raises(node: ast.AST, where: str):
    """(function, node) for each `raise` and each `ScaleLimitError(...)`
    under node, with the name of the innermost function around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise) or _builds_refusal(child):
            yield where, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from _raises(child, inner)


def test_every_size_guard_refuses_through_check_limit():
    # a refusal past a size bound is a ScaleLimitError built by
    # check_limit, or by _numeral_size, which refuses base**width before
    # computing it; no other raise names a guard
    builders = {("guards", "check_limit"), ("numeral_paths", "_numeral_size")}
    stray = []
    for module in MODULES:
        name = module.__name__.rpartition(".")[2]
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for where, node in _raises(tree, "<module>"):
            if isinstance(node, ast.Call):
                bad = (name, where) not in builders
            else:
                bad = (node.exc is not None and not _builds_refusal(node.exc)
                       and any(isinstance(c, ast.Constant) and "guard" in str(c.value)
                               for c in ast.walk(node.exc)))
            if bad:
                stray.append((name, where, ast.unparse(node)))
    assert not stray
