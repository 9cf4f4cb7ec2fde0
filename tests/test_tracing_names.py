"""Every function and method the benchmark tracer wraps exists in projclass.

bench/tracing.py names its targets as strings and resolves them only when a
traced run starts, so a renamed function would otherwise surface only there.
The module is loaded by path; loading it runs no trace.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {m: importlib.import_module(f"projclass.{m}") for m in tracing.MODULES}
    missing = [
        f"{module}.{name}"
        for module, name in tracing.FUNCTIONS
        if not callable(getattr(modules[module], name, None))
    ]
    # the tracer reads each method from its class dict, not through inheritance
    missing += [
        f"{module}.{cls}.{method}"
        for module, cls, method in tracing.METHODS
        if not callable(vars(getattr(modules[module], cls, object)).get(method))
    ]
    assert missing == []
