"""The public surface: each module's `__all__` names exactly what it
defines for callers, and the package re-exports only listed names."""

import importlib
import inspect
import pkgutil

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
