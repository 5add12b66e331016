"""Every public name the package declares resolves."""

import importlib
import pkgutil

import ruledistill


def test_every_name_in_all_resolves():
    names = ["ruledistill"] + [f"ruledistill.{info.name}"
                               for info in pkgutil.iter_modules(ruledistill.__path__)]
    missing = [
        f"{name}.{attr}"
        for name in names
        for module in [importlib.import_module(name)]
        for attr in getattr(module, "__all__", ())
        if not hasattr(module, attr)
    ]
    assert not missing
