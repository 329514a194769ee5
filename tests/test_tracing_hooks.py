"""The benchmark's tracing hooks against the installed package.

`benchmarks/tracing.py` wraps the functions and methods it names, and a hook
whose target is gone records nothing, so its layer's spans read 0. This test
loads that file (without importing it as a package module or editing it) and
checks every `FUNCTIONS` and `METHODS` entry, so that renaming a traced
function fails here instead of zeroing a layer.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"

# Hooks whose targets are already gone; shrink this set as they are mended.
GONE = {
    "qdswarm.sim._apply_sensor_faults_batch",
    "qdswarm.descriptors.compute_spirit",
    "qdswarm.recovery._evaluate_elite",
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hooks_name_installed_functions_and_methods():
    tracing = _load_tracing()
    missing = set()
    for module_name, attr, *_ in tracing.FUNCTIONS:
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.add(f"{module_name}.{attr}")
    for module_name, class_name, method, *_ in tracing.METHODS:
        module = importlib.import_module(module_name)
        # the classes `Tracer.install` patches: defined in the module, by name or "*"
        classes = [
            cls
            for name, cls in vars(module).items()
            if inspect.isclass(cls) and cls.__module__ == module_name and class_name in ("*", name)
        ]
        if not any(method in vars(cls) for cls in classes):
            missing.add(f"{module_name}.{class_name}.{method}")
    assert missing == GONE
