"""Every public name the package declares resolves, and so does every
library name the benchmark tracer patches."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import ruledistill

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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


def test_every_traced_name_resolves():
    # The tracer looks each target up with vars(), so a name that is only
    # inherited or was dropped from a module's namespace would fail it.
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner}.{attr}" for owner, attr, *_ in tracing.TARGETS
               if attr not in vars(tracing._resolve(owner))]
    assert tracing.TARGETS and not missing
