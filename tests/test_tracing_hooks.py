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


# The per-cycle layers of `qdswarm.sim`: each runs once per control cycle,
# called through its module global, so that its span counts cycles.
CYCLE_LAYERS = (
    "proximity_activations",
    "body_frame_offsets",
    "rab_activations",
    "resolve_collisions",
)


def test_cycle_layers_run_once_per_cycle(monkeypatch):
    """One `run_trials` call of 7 cycles, over trials with and without boxes,
    neighbours in reach or faults, calls each traced per-cycle layer 7
    times: a layer that left the cycle path would read 0 in its span and in
    `sim.cycles`."""
    from qdswarm import sim
    from qdswarm.environment import NORMAL_ENV, EnvironmentSpec
    from qdswarm.genome import Genome

    hooked = {attr for module, attr, *_ in _load_tracing().FUNCTIONS if module == "qdswarm.sim"}
    assert set(CYCLE_LAYERS) <= hooked
    calls = dict.fromkeys(CYCLE_LAYERS, 0)
    for name in CYCLE_LAYERS:
        real = getattr(sim, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(sim, name, counted)
    envs = [NORMAL_ENV, EnvironmentSpec(n_robots=5, arena_side=1.0, n_obstacles=2)]
    faults = [None, [sim.FaultType.ROFS, sim.FaultType.PRAND] + [sim.FaultType.NONE] * 3]
    n_cycles = 7
    sim.run_trials(envs, [Genome()] * 2, faults, [1, 2], n_cycles * sim.CONTROL_DT, ())
    assert calls == dict.fromkeys(CYCLE_LAYERS, n_cycles)
