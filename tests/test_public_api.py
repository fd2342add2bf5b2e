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
    ("extremal_search", "graph_core"): {"_decode", "_dihedral_images", "_dual_subtree_counts",
                                        "_orbit_keys", "_sorted_edges", "_walk"},
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
