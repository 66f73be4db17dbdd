"""Span tracing of mixedsde's layers, installed from outside the package.

``install`` wraps every public function of each layer module wherever a
mixedsde module bound it by name (``moments.generate_fbm``,
``cli.holder_seminorm_batch``, ``fbm.rnd.normal_matrix`` through the
module, ...), plus ``CoefficientField.__call__``. A span records its name,
start, end, parent span and thread; spans live in memory and ``save``
writes them when the run ends. ``layer_metrics`` turns saved spans into
the per-layer metrics listed in BENCHMARK.json.

Self time is a span's duration minus the part of it covered by its child
spans. Job spans of a thread pool are children of their ``run_jobs`` span
and overlap each other, so with two workers a layer's self time is summed
over threads and can exceed the wall time.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("randomness", "fbm", "solver", "models", "analysis", "young", "moments", "parallel", "cli")
PARSE_SPANS = ("cli.parse_config_file", "cli.resolve_config")


def _synthesis_count(args, kwargs, batch):
    return {"fbm.values": batch.values[:, 1:].size}


def _euler_count(args, kwargs, out):
    values = out.paths.values
    return {"solver.path_steps": values.shape[0] * (values.shape[1] - 1), "solver.blowups": out.blowup_count}


def _seminorm_count(args, kwargs, best):
    n = args[0].shape[1] - 1
    return {"analysis.seminorm.paths": best.shape[0], "analysis.pairs": best.shape[0] * n * (n + 1) // 2}


# Work counters read from a call's arguments and result, keyed by span name.
COUNTERS = {
    "randomness.normal_matrix": lambda args, kwargs, z: {"randomness.draws": z.size},
    "fbm.generate_fbm": _synthesis_count,
    "fbm.generate_wiener": _synthesis_count,
    "solver.euler_mixed": _euler_count,
    "solver.euler_coupled": _euler_count,
    "analysis.holder_seminorm_batch": _seminorm_count,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread)
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add_counts(self, counts: dict) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counts[key] += value

    def wrap(self, name: str, fn, count=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            span_id = next(self._ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, threading.get_ident()))
            if count is not None:
                self.add_counts(count(args, kwargs, result))
            return result

        return traced

    def wrap_run_jobs(self, run_jobs):
        """``parallel.run_jobs`` with each job traced under the pool span."""

        def run_traced(jobs, workers=1):
            parent = self._stack()[-1]
            traced_jobs = [self._job(job, parent) for job in jobs]
            cpu = time.process_time()
            try:
                return run_jobs(traced_jobs, workers)
            finally:
                self.add_counts({"parallel.cpu_s": time.process_time() - cpu})

        return self.wrap("parallel.run_jobs", functools.wraps(run_jobs)(run_traced))

    def _job(self, job, parent: int):
        # A job belongs to the layer whose code defined it (cli or moments).
        layer = job.__module__.rpartition(".")[2]
        traced = self.wrap(f"{layer}.job", job)

        def run():
            stack = self._stack()
            adopted = not stack  # pool thread: the pool span is the parent
            if adopted:
                stack.append(parent)
            try:
                return traced()
            finally:
                if adopted:
                    stack.pop()

        return run

    def save(self, path) -> None:
        ids, names, starts, ends, parents, threads = zip(*self.spans) if self.spans else ((),) * 6
        name_table = sorted(set(names))
        index = {n: i for i, n in enumerate(name_table)}
        thread_table = {t: i for i, t in enumerate(dict.fromkeys(threads))}
        np.savez(
            path,
            id=np.asarray(ids, dtype=np.int64),
            name=np.asarray([index[n] for n in names], dtype=np.int32),
            start=np.asarray(starts, dtype=float),
            end=np.asarray(ends, dtype=float),
            parent=np.asarray(parents, dtype=np.int64),
            thread=np.asarray([thread_table[t] for t in threads], dtype=np.int32),
            names=np.asarray(name_table, dtype=str),
            run_id=np.asarray(self.run_id),
            counts=np.asarray(json.dumps(self.counts)),
        )


def install(tracer: Tracer) -> None:
    """Wrap every public layer function wherever a mixedsde module bound it."""
    from mixedsde import parallel
    from mixedsde.models import CoefficientField

    wrappers = {}
    for layer in LAYERS:
        module = sys.modules.get(f"mixedsde.{layer}")
        if module is None:
            continue
        names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
        for name in names:
            fn = getattr(module, name, None)
            if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                span = f"{layer}.{name}"
                wrappers[fn] = tracer.wrap(span, fn, COUNTERS.get(span))
    wrappers[parallel.run_jobs] = tracer.wrap_run_jobs(parallel.run_jobs)
    for module_name, module in list(sys.modules.items()):
        if module_name != "mixedsde" and not module_name.startswith("mixedsde."):
            continue
        for name, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(module, name, wrappers[value])
    CoefficientField.__call__ = tracer.wrap("models.field", CoefficientField.__call__)


# --------------------------------------------------------------------------
# aggregation (benchmark process side)


def load(path) -> dict:
    with np.load(path) as data:
        spans = {key: data[key] for key in data.files}
    spans["names"] = [str(n) for n in spans["names"]]
    spans["counts"] = json.loads(str(spans["counts"]))
    return spans


def self_times(spans: dict) -> np.ndarray:
    """Per span: duration minus the union of its children's intervals."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    row_of = {int(span_id): row for row, span_id in enumerate(spans["id"])}
    children = defaultdict(list)
    for row, p in enumerate(parent):
        if p:
            children[row_of[int(p)]].append(row)
    out = end - start
    for row, kids in children.items():
        covered, reach = 0.0, start[row]
        for lo, hi in sorted((start[k], end[k]) for k in kids):
            lo, hi = max(lo, reach), min(hi, end[row])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[row] -= covered
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: dict) -> tuple[dict, dict]:
    """(per-layer metrics, self seconds by layer) for one traced run."""
    names = np.asarray(spans["names"], dtype=object)[spans["name"]]
    durations = spans["end"] - spans["start"]
    own = self_times(spans)
    layers = np.asarray([n.split(".", 1)[0] for n in names], dtype=object)
    root_parse = np.isin(names, PARSE_SPANS) & (spans["parent"] == 0)
    counts = spans["counts"]

    def total(*span_names):
        return float(durations[np.isin(names, span_names)].sum())

    def calls(*span_names):
        return int(np.isin(names, span_names).sum())

    def layer_self(layer):
        return float(own[(layers == layer) & ~root_parse].sum())

    jobs = durations[np.char.endswith(names.astype(str), ".job")]
    normal_s = total("randomness.normal_matrix")
    synthesis_s = total("fbm.generate_fbm", "fbm.generate_wiener")
    euler_s = total("solver.euler_mixed", "solver.euler_coupled")
    seminorm_s = total("analysis.holder_seminorm_batch")
    pool_s = total("parallel.run_jobs")
    draws = counts.get("randomness.draws", 0)
    values = counts.get("fbm.values", 0)
    steps = counts.get("solver.path_steps", 0)
    pairs = counts.get("analysis.pairs", 0)
    metrics = {
        "randomness.normal_matrix.s": normal_s,
        "randomness.normal_matrix.calls": calls("randomness.normal_matrix"),
        "randomness.draws": int(draws),
        "randomness.ns_per_draw": 1e9 * _ratio(normal_s, draws),
        "randomness.path_stream.s": total("randomness.path_stream"),
        "randomness.path_stream.calls": calls("randomness.path_stream"),
        "fbm.generate_fbm.s": total("fbm.generate_fbm"),
        "fbm.generate_wiener.s": total("fbm.generate_wiener"),
        "fbm.self_s": layer_self("fbm"),
        "fbm.values": int(values),
        "fbm.ns_per_value": 1e9 * _ratio(synthesis_s, values),
        "solver.euler.calls": calls("solver.euler_mixed", "solver.euler_coupled"),
        "solver.self_s": layer_self("solver"),
        "solver.path_steps": int(steps),
        "solver.ns_per_path_step": 1e9 * _ratio(euler_s, steps),
        "solver.blowups": int(counts.get("solver.blowups", 0)),
        "models.field_calls": calls("models.field"),
        "models.field_s": total("models.field"),
        "analysis.seminorm.s": seminorm_s,
        "analysis.seminorm.paths": int(counts.get("analysis.seminorm.paths", 0)),
        "analysis.pairs": int(pairs),
        "analysis.ns_per_pair": 1e9 * _ratio(seminorm_s, pairs),
        "moments.self_s": layer_self("moments"),
        "parallel.jobs": len(jobs),
        "parallel.wall_s": pool_s,
        "parallel.job_s_max": float(jobs.max()) if len(jobs) else 0.0,
        "parallel.job_s_mean": float(jobs.mean()) if len(jobs) else 0.0,
        "parallel.cpu_util": _ratio(counts.get("parallel.cpu_s", 0.0), pool_s),
        "cli.parse_s": float(durations[root_parse].sum()),
        "cli.self_s": layer_self("cli"),
    }
    by_layer = {layer: layer_self(layer) for layer in LAYERS}
    return metrics, by_layer
