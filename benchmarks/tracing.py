"""Span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own code: `install` wraps the public
(and a few private) functions of the qdswarm modules in every module
namespace that imported them, patches the methods of the archive classes and
of `CompiledNetwork`, and swaps each module's `ProcessPoolExecutor` for a
subclass that times every job inside the worker and ships the worker's spans
back with the job's result (workers inherit the wrappers through the fork
start method, the Linux default before Python 3.14). `uninstall` restores
every original object, so untraced operations run the unmodified program.

A span is a list `[name, start, end, parent, op, note]`: `parent` is the
index of the enclosing span (-1 for a root), `op` the operation id and
`note` an optional per-span value (for example a trial's input key). Spans
stay in memory and are written out once, when the run ends.
"""

import functools
import importlib
import inspect
import logging
import sys
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

import numpy as np

# (module, attribute, span name, note): every module namespace holding the
# same object gets the wrapper. A note is f(bound arguments, result) -> value.
FUNCTIONS = [
    ("qdswarm.sim", "run_trial", "sim.run_trial", "trial_key"),
    ("qdswarm.sim", "place_entities", "sim.placement", None),
    ("qdswarm.sim", "proximity_activations", "sim.proximity", None),
    ("qdswarm.sim", "body_frame_offsets", "sim.rab", None),
    ("qdswarm.sim", "rab_activations", "sim.rab", None),
    ("qdswarm.sim", "_apply_sensor_faults_batch", "sim.faults", None),
    ("qdswarm.sim", "resolve_collisions", "sim.collisions", None),
    ("qdswarm.tasks", "fitness", "tasks.fitness", None),
    ("qdswarm.descriptors", "compute_spirit", "descriptors.spirit", None),
    ("qdswarm.genome", "mutate", "genome.mutate", None),
    ("qdswarm.archive", "generate_cvt_centroids", "archive.cvt_build", None),
    ("qdswarm.archive", "save_archive", "archive.io", "saved_cells"),
    ("qdswarm.archive", "load_archive", "archive.io", "loaded_cells"),
    ("qdswarm.evolve", "evolve", "evolve.evolve", None),
    ("qdswarm.evolve", "_run_batch", "evolve.batch", "batch_size"),
    ("qdswarm.recovery", "fault_recovery_records", "recovery.records", None),
    ("qdswarm.recovery", "evaluate_archive", "recovery.evaluate_archive", "fault_free"),
    ("qdswarm.recovery", "_evaluate_elite", "recovery.evaluate_elite", None),
    ("qdswarm.stats", "signature", "stats", None),
    ("qdswarm.stats", "kde_grid_2d", "stats", None),
    ("qdswarm.stats", "linear_fit", "stats", None),
    ("qdswarm.stats", "cliffs_delta", "stats", None),
    ("qdswarm.stats", "wilcoxon_rank_sum", "stats", None),
    ("qdswarm.experiment", "stage_is_complete", "experiment.manifest", None),
    ("qdswarm.experiment", "write_manifest", "experiment.manifest", None),
    ("qdswarm.experiment", "stage_evolve", "experiment.evolve", None),
    ("qdswarm.experiment", "stage_reevaluate", "experiment.reevaluate", None),
    ("qdswarm.experiment", "stage_faults", "experiment.faults", None),
    ("qdswarm.experiment", "stage_analyze", "experiment.analyze", None),
]

# (module, class or "*" for every class of the module, method, span name, note)
METHODS = [
    ("qdswarm.genome", "CompiledNetwork", "__init__", "sim.controller", None),
    ("qdswarm.genome", "CompiledNetwork", "step", "sim.controller", None),
    ("qdswarm.archive", "*", "key_of", "archive.key_of", None),
    ("qdswarm.archive", "*", "try_insert", "archive.insert", "accepted"),
]


def _trial_key(bound, result):
    args = bound.arguments
    faults = args.get("faults")
    faults = None if faults is None else tuple(int(f) for f in faults)
    return hash((args["genome"], args["env"], faults, args.get("seed"), args.get("duration")))


NOTES = {
    "trial_key": _trial_key,
    "saved_cells": lambda bound, result: len(bound.arguments["archive"].cells),
    "loaded_cells": lambda bound, result: len(result.cells),
    "batch_size": lambda bound, result: len(bound.arguments["jobs"]),
    "fault_free": lambda bound, result: bound.arguments.get("fault") is None,
    "accepted": lambda bound, result: bool(result),
}


class Tracer:
    """In-memory span store plus the pool records and counters of one run."""

    def __init__(self, op=0):
        self.spans = []
        self.stack = []
        self.op = op
        self.pools = []  # (layer, workers, born, died, busy seconds)
        self.counters = defaultdict(int)
        self.absent = []
        self._saved = []

    def wrap(self, name, fn, note=None):
        spans = self.spans
        stack = self.stack
        noter = NOTES[note] if note else None
        signature = inspect.signature(fn) if noter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if noter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[5] = noter(bound, result)
            return result

        return traced

    def adopt(self, worker_spans, caller):
        """Append spans recorded in a worker under the parent-side `caller`."""
        offset = len(self.spans)
        for rec in worker_spans:
            rec[3] = caller if rec[3] < 0 else rec[3] + offset
            rec[4] = self.op
        self.spans.extend(worker_spans)

    def current_layer(self):
        for index in reversed(self.stack):
            layer = self.spans[index][0].split(".", 1)[0]
            if layer in ("evolve", "recovery"):
                return layer
        return "other"

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for module in _qdswarm_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._saved.append((module, attr, original))

    def install(self):
        self.absent = []
        importlib.import_module("qdswarm.cli")  # loads every module the CLI reaches
        for module_name, attr, name, note in FUNCTIONS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._replace_everywhere(original, self.wrap(name, original, note))
        for module_name, class_name, method, name, note in METHODS:
            module = sys.modules.get(module_name)
            classes = [
                cls
                for cls_name, cls in (vars(module) if module else {}).items()
                if inspect.isclass(cls)
                and cls.__module__ == module_name
                and class_name in ("*", cls_name)
                and method in vars(cls)
            ]
            if not classes:
                self.absent.append(f"{module_name}.{class_name}.{method}")
            for cls in classes:
                original = vars(cls)[method]
                setattr(cls, method, self.wrap(name, original, note))
                self._saved.append((cls, method, original))
        pool_class = _traced_pool_class(self)
        self._replace_everywhere(ProcessPoolExecutor, pool_class)
        handler = _CountingHandler(self.counters)
        logger = logging.getLogger("qdswarm.evolve")
        logger.addHandler(handler)
        self._handler = (logger, handler)
        global _ACTIVE
        _ACTIVE = self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        logger, handler = self._handler
        logger.removeHandler(handler)
        global _ACTIVE
        _ACTIVE = None


class _CountingHandler(logging.Handler):
    def __init__(self, counters):
        super().__init__(logging.WARNING)
        self.counters = counters

    def emit(self, record):
        if "failed placement" in record.msg:
            self.counters["evolve.placement_failures"] += 1


def _qdswarm_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "qdswarm" and m]


# The installed tracer; pool workers forked from this process inherit it.
_ACTIVE = None


class _Job:
    """Picklable job wrapper: runs `fn(arg)` in a worker under a fresh span
    stack and returns the result together with the spans it recorded."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, arg):
        tracer = _ACTIVE
        base = len(tracer.spans)
        tracer.stack.clear()  # the stack the worker inherited from the parent
        result = tracer.wrap("pool.job", self.fn)(arg)
        spans = tracer.spans[base:]
        del tracer.spans[base:]
        for rec in spans:
            rec[3] = rec[3] - base if rec[3] >= base else -1
        return result, spans


def _traced_pool_class(tracer):
    class TracedPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self._layer = tracer.current_layer()
            self._born = perf_counter()
            self._busy = 0.0
            self._open = True

        def map(self, fn, *iterables, **kwargs):
            caller = tracer.stack[-1] if tracer.stack else -1
            results = super().map(_Job(fn), *iterables, **kwargs)

            def unpack():
                for result, spans in results:
                    self._busy += spans[0][2] - spans[0][1]
                    tracer.adopt(spans, caller)
                    yield result

            return unpack()

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait, **kwargs)
            if self._open:
                self._open = False
                tracer.pools.append(
                    (self._layer, self._max_workers, self._born, perf_counter(), self._busy)
                )

    return TracedPool


# ---------------------------------------------------------------------------
# Analysis


def self_times(spans):
    """Per-span duration minus the part of it that child spans cover.

    Children that ran in parallel (pool jobs) are merged into one covered
    interval set, so self time never goes negative.
    """
    children = defaultdict(list)
    for index, rec in enumerate(spans):
        if rec[3] >= 0:
            children[rec[3]].append(index)
    out = np.empty(len(spans))
    for index, rec in enumerate(spans):
        start, end = rec[1], rec[2]
        kids = children.get(index)
        covered = 0.0
        if kids:
            intervals = sorted(
                (max(spans[k][1], start), min(spans[k][2], end)) for k in kids
            )
            lo, hi = intervals[0]
            for a, b in intervals[1:]:
                if a > hi:
                    covered += max(0.0, hi - lo)
                    lo, hi = a, b
                else:
                    hi = max(hi, b)
            covered += max(0.0, hi - lo)
        out[index] = (end - start) - covered
    return out


def _ancestors(spans, index):
    parent = spans[index][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


# Per-layer metrics: name -> unit. Values of layers a workload does not
# exercise (or whose wrapped function no longer exists) are 0.
LAYER_METRICS = {
    "sim.trials": "count",
    "sim.cycles": "count",
    "sim.unique_trial_ratio": "ratio",
    "sim.run_trial.s": "s",
    "sim.cycle_us.p50": "us",
    "sim.cycle_us.p95": "us",
    "sim.placement.s": "s",
    "sim.proximity.s": "s",
    "sim.rab.s": "s",
    "sim.faults.s": "s",
    "sim.controller.s": "s",
    "sim.collisions.s": "s",
    "sim.integration.s": "s",
    "tasks.fitness.calls": "count",
    "tasks.fitness.s": "s",
    "descriptors.spirit.calls": "count",
    "descriptors.spirit.s": "s",
    "genome.mutate.calls": "count",
    "genome.mutate.s": "s",
    "archive.cvt_build.s": "s",
    "archive.key_of.calls": "count",
    "archive.key_of.s": "s",
    "archive.insert.accept_ratio": "ratio",
    "archive.coverage": "count",
    "archive.io.s": "s",
    "evolve.evals": "count",
    "evolve.placement_failures": "count",
    "evolve.batch_ms.p50": "ms",
    "evolve.batch_ms.p95": "ms",
    "evolve.parent.s": "s",
    "evolve.pool.starts": "count",
    "evolve.pool.busy_ratio": "ratio",
    "recovery.evaluate_archive.calls": "count",
    "recovery.evaluate_archive.s": "s",
    "recovery.rescore.s": "s",
    "recovery.replay.s": "s",
    "recovery.fault_ms.p50": "ms",
    "recovery.pool.starts": "count",
    "recovery.pool.busy_ratio": "ratio",
    "stats.s": "s",
    "experiment.manifest.s": "s",
    "experiment.analyze.s": "s",
}


def analyse(tracer):
    """(per-layer metric values, self seconds per layer) of one traced operation.

    A layer is a span name's first component.
    """
    spans, pools, counters = tracer.spans, tracer.pools, tracer.counters
    own = self_times(spans)
    total = defaultdict(float)  # inclusive seconds per span name
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for index, rec in enumerate(spans):
        total[rec[0]] += rec[2] - rec[1]
        self_s[rec[0]] += own[index]
        calls[rec[0]] += 1
    layers = defaultdict(float)
    for name, seconds in self_s.items():
        layers[name.split(".", 1)[0]] += seconds

    trial_keys = []
    cycle_us = []
    prox_starts = defaultdict(list)
    for rec in spans:
        if rec[0] == "sim.proximity" and rec[3] >= 0:
            prox_starts[rec[3]].append(rec[1])
    for index, rec in enumerate(spans):
        if rec[0] == "sim.run_trial":
            trial_keys.append(rec[5])
            starts = sorted(prox_starts.get(index, ()))
            if starts:
                cycle_us.extend(np.diff(starts + [rec[2]]) * 1e6)

    batches = [rec for rec in spans if rec[0] == "evolve.batch"]
    inserts = [rec[5] for rec in spans if rec[0] == "archive.insert"]
    coverage = [rec[5] for rec in spans if rec[0] == "archive.io" and rec[5] is not None]
    evaluations = [rec for rec in spans if rec[0] == "recovery.evaluate_archive"]
    rescore = replay = 0.0
    for index, rec in enumerate(spans):
        if rec[0] == "recovery.evaluate_archive" and rec[5]:
            if "recovery.records" in _ancestors(spans, index):
                rescore += rec[2] - rec[1]
        elif rec[0] == "sim.run_trial":
            above = set(_ancestors(spans, index))
            if "recovery.records" in above and not above & {"recovery.evaluate_elite", "pool.job"}:
                replay += rec[2] - rec[1]

    def pool_stats(layer):
        mine = [p for p in pools if p[0] == layer]
        capacity = sum(workers * (died - born) for _, workers, born, died, _ in mine)
        busy = sum(p[4] for p in mine)
        return len(mine), busy / capacity if capacity > 0 else 0.0

    evolve_pools, evolve_busy = pool_stats("evolve")
    recovery_pools, recovery_busy = pool_stats("recovery")
    n_trials = calls["sim.run_trial"]
    metrics = {
        "sim.trials": n_trials,
        "sim.cycles": calls["sim.proximity"],
        "sim.unique_trial_ratio": len(set(trial_keys)) / n_trials if n_trials else 0.0,
        "sim.run_trial.s": total["sim.run_trial"],
        "sim.cycle_us.p50": _pct(cycle_us, 50),
        "sim.cycle_us.p95": _pct(cycle_us, 95),
        "sim.placement.s": self_s["sim.placement"],
        "sim.proximity.s": self_s["sim.proximity"],
        "sim.rab.s": self_s["sim.rab"],
        "sim.faults.s": self_s["sim.faults"],
        "sim.controller.s": self_s["sim.controller"],
        "sim.collisions.s": self_s["sim.collisions"],
        "sim.integration.s": self_s["sim.run_trial"],
        "tasks.fitness.calls": calls["tasks.fitness"],
        "tasks.fitness.s": self_s["tasks.fitness"],
        "descriptors.spirit.calls": calls["descriptors.spirit"],
        "descriptors.spirit.s": self_s["descriptors.spirit"],
        "genome.mutate.calls": calls["genome.mutate"],
        "genome.mutate.s": self_s["genome.mutate"],
        "archive.cvt_build.s": total["archive.cvt_build"],
        "archive.key_of.calls": calls["archive.key_of"],
        "archive.key_of.s": self_s["archive.key_of"],
        "archive.insert.accept_ratio": sum(inserts) / len(inserts) if inserts else 0.0,
        "archive.coverage": coverage[-1] if coverage else 0,
        "archive.io.s": total["archive.io"],
        "evolve.evals": sum(rec[5] for rec in batches),
        "evolve.placement_failures": counters.get("evolve.placement_failures", 0),
        "evolve.batch_ms.p50": _pct([(r[2] - r[1]) * 1e3 for r in batches], 50),
        "evolve.batch_ms.p95": _pct([(r[2] - r[1]) * 1e3 for r in batches], 95),
        "evolve.parent.s": max(0.0, total["evolve.evolve"] - total["evolve.batch"]),
        "evolve.pool.starts": evolve_pools,
        "evolve.pool.busy_ratio": evolve_busy,
        "recovery.evaluate_archive.calls": len(evaluations),
        "recovery.evaluate_archive.s": total["recovery.evaluate_archive"],
        "recovery.rescore.s": rescore,
        "recovery.replay.s": replay,
        "recovery.fault_ms.p50": _pct(
            [(r[2] - r[1]) * 1e3 for r in evaluations if r[5] is False], 50
        ),
        "recovery.pool.starts": recovery_pools,
        "recovery.pool.busy_ratio": recovery_busy,
        "stats.s": self_s["stats"],
        "experiment.manifest.s": total["experiment.manifest"],
        "experiment.analyze.s": total["experiment.analyze"],
    }
    return metrics, dict(layers)


def write_spans(path, tracers):
    """Write the spans of every traced operation as parallel arrays: a name
    table plus one row per span, parents as run-wide indices."""
    spans = []
    for tracer in tracers:
        offset = len(spans)
        spans.extend([r[0], r[1], r[2], r[3] + offset if r[3] >= 0 else -1, r[4]] for r in tracer.spans)
    names = sorted({rec[0] for rec in spans})
    code = {name: i for i, name in enumerate(names)}
    np.savez(
        path,
        names=np.array(names),
        name=np.array([code[rec[0]] for rec in spans], dtype=np.int16),
        start=np.array([rec[1] for rec in spans]),
        end=np.array([rec[2] for rec in spans]),
        parent=np.array([rec[3] for rec in spans], dtype=np.int64),
        op=np.array([rec[4] for rec in spans], dtype=np.int32),
    )
