"""Every function and method the benchmark's span tracer wraps must exist.

The tracer reports a function the program no longer has as not measured, so
renaming or deleting one of them silently blanks per-layer metrics.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_and_method_resolves():
    tracer = load_tracer()
    missing = []
    for short, names in tracer.TARGETS.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{short}")
        missing += [f"{short}.{n}" for n in names if not callable(getattr(module, n, None))]
    for short, classes in tracer.METHODS.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{short}")
        for cname, methods in classes.items():
            cls = getattr(module, cname, None)
            missing += [
                f"{short}.{cname}.{m}"
                for m in methods
                if cls is None or not callable(vars(cls).get(m))
            ]
    assert not missing, f"perfbench traces names the program lacks: {missing}"
