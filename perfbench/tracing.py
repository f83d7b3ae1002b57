"""Spans around the calls into stacknash, recorded from outside the package.

``instrument`` replaces every public function of the traced modules, at
every module attribute through which callers resolve it (for example
``stacknash.equilibrium.phi``, which the solver calls, and
``stacknash.cli.solve``), with a wrapper that records a span: name, start,
end, parent span and op id. Spans are held in flat integer arrays and
analysed or written out when the run ends. Untraced runs install nothing.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import math
import statistics
import time
import tracemalloc
from array import array
from pathlib import Path

LAYERS = ("model", "bestresponse", "equilibrium", "valuation",
          "sensitivity", "mcsim", "cli")


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.current_op = -1
        self.errors: dict[int, str] = {}        # span -> exception type
        self.attrs: dict[int, dict] = {}        # span -> measured values
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None, measure_alloc=False):
        """``fn`` recorded as span ``name``; ``after(recorder, span, args,
        kwargs, result)`` may attach values to the span."""
        nid = self.name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, ops, stack = self.parent, self.op, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0)
            stack.append(span)
            if measure_alloc:
                tracemalloc.start()
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[span] = clock()
                stack.pop()
                self.errors[span] = type(exc).__name__
                if measure_alloc:
                    tracemalloc.stop()
                raise
            ends[span] = clock()
            stack.pop()
            if measure_alloc:
                self.attrs[span] = {"peak_alloc": tracemalloc.get_traced_memory()[1]}
                tracemalloc.stop()
            if after is not None:
                after(self, span, args, kwargs, result)
            return result

        return wrapper

    def dump(self) -> dict:
        return {"names": self.names, "name": self.name.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "op": self.op.tolist(),
                "errors": {str(k): v for k, v in self.errors.items()},
                "attrs": {str(k): v for k, v in self.attrs.items()}}

    def extend(self, dump: dict) -> None:
        """Append spans recorded by another process (a traced CLI child)."""
        offset = len(self.name)
        ids = [self.name_id(n) for n in dump["names"]]
        self.name.extend(ids[i] for i in dump["name"])
        self.start.extend(dump["start"])
        self.end.extend(dump["end"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in dump["parent"])
        self.op.extend(dump["op"])
        self.errors.update({int(k) + offset: v for k, v in dump["errors"].items()})
        self.attrs.update({int(k) + offset: v for k, v in dump["attrs"].items()})

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV, one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,op,name,start_ns,end_ns,parent,error\n")
            for i, (nid, s, e, p, op) in enumerate(zip(
                    self.name, self.start, self.end, self.parent, self.op)):
                out.write(f"{i},{op},{self.names[nid]},{s},{e},{p},"
                          f"{self.errors.get(i, '')}\n")


def _after_solve(recorder, span, args, kwargs, result):
    recorder.attrs[span] = {"iterations": result.iterations}


def _after_simulate(recorder, span, args, kwargs, result):
    config = kwargs.get("config", args[3] if len(args) > 3 else None)
    recorder.attrs.setdefault(span, {})["paths"] = config.paths


def deviation_grid_points(params, grid_step: float) -> int:
    """Points the deviation search evaluates, computed from the grid sizes:
    the cession simplex plus each reinsurer's loading range."""
    def size(start, stop):
        return max(0, math.ceil((stop - start) / grid_step))

    m = size(0.0, 1.0 + 0.5 * grid_step)
    return m * (m + 1) // 2 + sum(
        size(grid_step, d + params.delta0 / 2.0 + 0.5 * grid_step)
        for d in (params.delta1, params.delta2))


def _after_deviation(recorder, span, args, kwargs, result):
    recorder.attrs[span] = {"grid_points": deviation_grid_points(
        args[0], kwargs.get("grid_step", args[2] if len(args) > 2 else 1e-3))}


HOOKS = {"equilibrium.solve": {"after": _after_solve},
         "mcsim.simulate_utilities": {"after": _after_simulate,
                                      "measure_alloc": True},
         "mcsim.deviation_test": {"after": _after_deviation}}


def instrument(recorder: Recorder, package: str = "stacknash"):
    """Wrap the public functions of every traced module; returns a function
    that restores the originals."""
    modules = {layer: importlib.import_module(f"{package}.{layer}")
               for layer in LAYERS}
    wrappers: dict[int, object] = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if inspect.isfunction(value) and not attr.startswith("_") \
                    and value.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                wrappers[id(value)] = recorder.wrap(name, value,
                                                    **HOOKS.get(name, {}))
    patched = []
    for module in (importlib.import_module(package), *modules.values()):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and id(value) in wrappers:
                patched.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def restore():
        for module, attr, value in patched:
            setattr(module, attr, value)

    return restore


# -- analysis -----------------------------------------------------------------

def union_length(intervals, lo: int, hi: int) -> int:
    """Length of the union of [start, end) intervals clipped to [lo, hi)."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(rec: Recorder) -> list[int]:
    """Each span's duration minus the union of its child spans."""
    children: dict[int, list] = {}
    for i, p in enumerate(rec.parent):
        if p >= 0:
            children.setdefault(p, []).append((rec.start[i], rec.end[i]))
    return [rec.end[i] - rec.start[i]
            - union_length(children.get(i, ()), rec.start[i], rec.end[i])
            for i in range(len(rec.name))]


def _has_ancestor(rec: Recorder, span: int, wanted: set[int]) -> bool:
    p = rec.parent[span]
    while p >= 0 and rec.name[p] not in wanted:
        p = rec.parent[p]
    return p >= 0


def layer_metrics(rec: Recorder, ops: int, op_ns: int) -> dict[str, float]:
    """Per-layer metrics of the traced ops. Counts and busy times are per op;
    shares are of the summed op time ``op_ns``."""
    ops = max(ops, 1)
    op_ns = max(op_ns, 1)
    selfs = self_times(rec)
    by_name: dict[str, list[int]] = {}
    for i, nid in enumerate(rec.name):
        by_name.setdefault(rec.names[nid], []).append(i)

    def spans(*names):
        return [i for name in names for i in by_name.get(name, ())]

    def duration(items):
        return sum(rec.end[i] - rec.start[i] for i in items)

    def busy_ns(*names):
        """Time inside any of ``names``, counting nested calls once."""
        wanted = {rec.name_id(name) for name in names}
        return duration(i for i in spans(*names)
                        if not _has_ancestor(rec, i, wanted))

    def attr_values(items, key):
        return [rec.attrs[i][key] for i in items
                if i in rec.attrs and key in rec.attrs[i]]

    solves = spans("equilibrium.solve")
    solve_errors = [rec.errors[i] for i in solves if i in rec.errors]
    solve_id = {rec.name_id("equilibrium.solve")}
    phis = spans("bestresponse.phi")
    simulate = spans("mcsim.simulate_utilities")
    simulate_ns = duration(simulate)
    deviation = spans("mcsim.deviation_test")
    valuation = [x for x in by_name if x.startswith("valuation.")]

    module_self = dict.fromkeys(LAYERS, 0)
    for i, nid in enumerate(rec.name):
        module_self[rec.names[nid].split(".")[0]] += selfs[i]

    ms = 1e-6
    metrics = {
        "model.parse_validate.busy_ms":
            busy_ns("model.params_from_json", "model.validate") * ms / ops,
        "equilibrium.solve.calls": len(solves) / ops,
        "equilibrium.solve.self_us_p50":
            statistics.median(selfs[i] for i in solves) * 1e-3 if solves else 0.0,
        "equilibrium.solve.busy_share": busy_ns("equilibrium.solve") / op_ns,
        "equilibrium.iterations_mean":
            statistics.fmean(attr_values(solves, "iterations") or [0]),
        "bestresponse.phi.calls_per_solve":
            sum(1 for i in phis if _has_ancestor(rec, i, solve_id))
            / max(len(solves), 1),
        "bestresponse.phi.busy_ms": busy_ns("bestresponse.phi") * ms / ops,
        "sensitivity.analytic_report.calls":
            len(spans("sensitivity.analytic_report")) / ops,
        "sensitivity.analytic_report.busy_ms":
            busy_ns("sensitivity.analytic_report") * ms / ops,
        "valuation.busy_ms": busy_ns(*valuation) * ms / ops,
        "cli.main.self_ms": module_self["cli"] * ms / ops,
        "mcsim.simulate_utilities.busy_ms": simulate_ns * ms / ops,
        "mcsim.paths_per_s":
            sum(attr_values(simulate, "paths")) / (simulate_ns * 1e-9)
            if simulate_ns else 0.0,
        "mcsim.simulate_utilities.peak_alloc_mb":
            max(attr_values(simulate, "peak_alloc") or [0]) / 2 ** 20,
        "mcsim.deviation_test.busy_ms": duration(deviation) * ms / ops,
        "mcsim.deviation_test.grid_points":
            statistics.fmean(attr_values(deviation, "grid_points") or [0]),
    }
    for error in ("SolverFailure", "NoEquilibrium"):
        metrics[f"equilibrium.solve.failures.{error}"] = \
            solve_errors.count(error) / max(len(solves), 1)
    metrics["equilibrium.solve.failures.other"] = sum(
        1 for e in solve_errors
        if e not in ("SolverFailure", "NoEquilibrium")) / max(len(solves), 1)
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = module_self[layer] / op_ns
    metrics["trace.span_coverage"] = sum(module_self.values()) / op_ns
    return metrics
