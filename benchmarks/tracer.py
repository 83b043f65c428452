"""Spans around the program's public functions, installed from outside it.

``Tracer.install`` wraps every public function (and public method of a
public class) defined in the layer modules of ``schoenberg``, and puts the
wrapper in every ``schoenberg`` module namespace that holds the original,
so calls between modules are traced as well as calls from the benchmark.
A span is ``[name id, start, end, parent index]`` on the system-wide
monotonic clock, kept in memory and written out by ``dump``. A function the
metrics rely on that a later version no longer has is listed as absent;
its metrics then read 0.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "quadrature",
    "gegenbauer",
    "real_coeffs",
    "functions",
    "walk_real",
    "disk_polys",
    "complex_coeffs",
    "walk_complex",
    "spd",
    "sequences",
    "cli",
)
#: private functions wrapped too: the CLI's only JSON writer
PRIVATE = ("cli._write_json",)
#: spans of the benchmark's own callables passed to the program
EVAL_SPAN = "functions.eval"

DUMP = (
    "sequences.RealSchoenbergSequence.to_dict",
    "sequences.RealSchoenbergSequence.dumps",
    "sequences.RealSchoenbergSequence.save",
    "sequences.ComplexSchoenbergSequence.to_dict",
    "sequences.ComplexSchoenbergSequence.dumps",
    "sequences.ComplexSchoenbergSequence.save",
    "cli._write_json",
)
LOAD = (
    "sequences.load_sequence",
    "sequences.loads_sequence",
    "sequences.RealSchoenbergSequence.from_dict",
    "sequences.ComplexSchoenbergSequence.from_dict",
)

#: per-task counters filled from a call's arguments: name -> (parameters, update)
COUNTERS = {
    "quadrature.gauss_legendre": (("n_nodes", "a", "b"), "_count_rule"),
    "gegenbauer.gegenbauer_table": (("n_max", "u"), "_count_table"),
    "gegenbauer.normalized_gegenbauer_table": (("n_max", "u"), "_count_table"),
    "walk_real.inverse_walk_weights": (("j_max",), "_count_real_terms"),
    "walk_complex.inverse_walk_weights_complex": (("j_max",), "_count_complex_terms"),
    "disk_polys.disk_poly_eval": (("z",), "_count_disk_eval"),
}

#: every per-layer metric, in report order, with its unit
METRICS = (
    ("quadrature.rule_builds", "count"),
    ("quadrature.repeat_builds", "count"),
    ("quadrature.nodes_built", "count"),
    ("quadrature.self_ms", "ms"),
    ("gegenbauer.table_cells", "count"),
    ("gegenbauer.self_ms", "ms"),
    ("real_coeffs.coeffs_self_ms", "ms"),
    ("real_coeffs.reconstruct_self_ms", "ms"),
    ("functions.eval_ms", "ms"),
    ("walk_real.walk_up_ms", "ms"),
    ("walk_real.walk_down_ms", "ms"),
    ("walk_real.cross_project_self_ms", "ms"),
    ("walk_real.inverse_weight_terms", "count"),
    ("disk_polys.poly_evals", "count"),
    ("disk_polys.point_evals", "count"),
    ("disk_polys.self_ms", "ms"),
    ("complex_coeffs.coeffs_self_ms", "ms"),
    ("complex_coeffs.reconstruct_self_ms", "ms"),
    ("walk_complex.walk_up_ms", "ms"),
    ("walk_complex.walk_down_ms", "ms"),
    ("walk_complex.inverse_weight_terms", "count"),
    ("spd.self_ms", "ms"),
    ("sequences.dump_ms", "ms"),
    ("sequences.load_ms", "ms"),
    ("sequences.json_bytes", "count"),
    ("cli.processes", "count"),
    ("cli.startup_ms", "ms"),
    ("cli.main_self_ms", "ms"),
)

#: program functions the metrics are computed from
SOURCES = (
    ("quadrature.gauss_legendre", "gegenbauer.gegenbauer_table",
     "gegenbauer.normalized_gegenbauer_table", "real_coeffs.compute_real_coeffs",
     "real_coeffs.reconstruct", "walk_real.walk_up", "walk_real.walk_down",
     "walk_real.cross_project", "walk_real.inverse_walk_weights",
     "disk_polys.disk_poly_eval", "complex_coeffs.compute_complex_coeffs",
     "complex_coeffs.reconstruct_complex", "walk_complex.walk_up_complex",
     "walk_complex.walk_down_complex", "walk_complex.inverse_walk_weights_complex",
     "cli.main")
    + DUMP
    + LOAD
)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self.installed = set()
        self._rules_seen = set()
        self.totals = defaultdict(float)
        self.tasks = 0

    # ------------------------------------------------------------ wrapping

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        """``fn`` with a span named ``name`` around every call."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.monotonic
        counter = self._counter(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            if counter is not None:
                counter(args, kwargs)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _counter(self, name, fn):
        if name not in COUNTERS:
            return None
        wanted, method = COUNTERS[name]
        params = inspect.signature(fn).parameters
        if not all(p in params for p in wanted):
            return None
        order = list(params)
        slots = [(order.index(p), p, params[p].default) for p in wanted]
        update = getattr(self, method)

        def count(args, kwargs):
            update(*[args[i] if i < len(args) else kwargs.get(p, default)
                     for i, p, default in slots])

        return count

    def _count_rule(self, n_nodes, a, b):
        key = (int(n_nodes), float(a), float(b))
        self.counts["quadrature.rule_builds"] += 1
        self.counts["quadrature.nodes_built"] += key[0]
        if key in self._rules_seen:
            self.counts["quadrature.repeat_builds"] += 1
        self._rules_seen.add(key)

    def _count_table(self, n_max, u):
        self.counts["gegenbauer.table_cells"] += (int(n_max) + 1) * int(np.size(u))

    def _count_real_terms(self, j_max):
        self.counts["walk_real.inverse_weight_terms"] += int(j_max) + 1

    def _count_complex_terms(self, j_max):
        self.counts["walk_complex.inverse_weight_terms"] += int(j_max) + 1

    def _count_disk_eval(self, z):
        self.counts["disk_polys.poly_evals"] += 1
        self.counts["disk_polys.point_evals"] += int(np.size(z))

    def install(self):
        """Wrap the layer modules' public functions wherever they are bound."""
        wrapped = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"schoenberg.{layer}")
            except ImportError:
                continue
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") and name not in PRIVATE:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[id(obj)] = (obj, self.wrap(name, obj))
                    self.installed.add(name)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(name, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "schoenberg" and not mod_name.startswith("schoenberg."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def _wrap_methods(self, prefix, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, obj.__func__)))
            else:
                continue
            self.installed.add(name)

    @property
    def absent(self):
        return sorted(set(SOURCES) - self.installed)

    def callable(self, fn):
        """A benchmark callable handed to the program, traced as one span."""
        return self.wrap(EVAL_SPAN, fn)

    # ------------------------------------------------------------ tasks

    def begin_task(self, label):
        """Open the root span of one task; returns its index."""
        self.counts = defaultdict(float)
        self.stack.append(len(self.spans))
        self.spans.append([self._name_id(label), time.monotonic(), 0.0, -1])
        return self.stack[-1]

    def end_task(self, root, timed):
        """Close the task's root span and add its metrics to the totals.

        An untimed task (the warm-up, or one past those the metrics cover)
        has its spans dropped, so memory and the trace file stay bounded.
        """
        self.spans[root][2] = time.monotonic()
        self.stack.pop()
        if not timed:
            del self.spans[root:]
            return
        self.tasks += 1
        for name, value in task_metrics(self.names, self.spans[root:], root,
                                        self.counts).items():
            self.totals[name] += value

    def absorb(self, dump, parent):
        """Append spans and counts written by a traced child process."""
        offset = len(self.spans)
        ids = [self._name_id(n) for n in dump["names"]]
        for nid, start, end, p in dump["spans"]:
            self.spans.append([ids[nid], start, end, parent if p < 0 else p + offset])
        for name, value in dump["counts"].items():
            self.counts[name] += value
        self.installed.update(dump["installed"])

    def per_task(self):
        """Every per-layer metric as a mean per timed task."""
        return {name: self.totals.get(name, 0.0) / max(self.tasks, 1) for name, _ in METRICS}

    def dump(self, path, extra=None):
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "names": self.names,
            "spans": [[nid, round((s - origin) * 1e9), round((e - origin) * 1e9), p]
                      for nid, s, e, p in self.spans],
            "span_units": "ns from the first span",
            "counts": dict(self.counts),
            "installed": sorted(self.installed),
            "absent": self.absent,
        }
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def raw(self):
        """Spans and counts for ``absorb`` in the parent, clock unchanged."""
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            "installed": sorted(self.installed),
        }


def task_metrics(names, spans, base, counts):
    """Per-layer metrics of one task from its spans (parents come first)."""
    n = len(spans)
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * n
    for i, (_, _, _, p) in enumerate(spans):
        if p >= base:
            child[p - base] += dur[i]
    self_by = defaultdict(float)
    dur_by = defaultdict(float)
    module_self = defaultdict(float)
    dump_set = {names.index(x) for x in DUMP if x in names}
    load_set = {names.index(x) for x in LOAD if x in names}
    in_dump = [False] * n
    in_load = [False] * n
    outer_dump = outer_load = 0.0
    for i, (nid, _, _, p) in enumerate(spans):
        name = names[nid]
        own = dur[i] - child[i]
        self_by[name] += own
        dur_by[name] += dur[i]
        module_self[name.split(".", 1)[0]] += own
        parent_dump = in_dump[p - base] if p >= base else False
        parent_load = in_load[p - base] if p >= base else False
        in_dump[i] = parent_dump or nid in dump_set
        in_load[i] = parent_load or nid in load_set
        if nid in dump_set and not parent_dump:
            outer_dump += dur[i]
        if nid in load_set and not parent_load:
            outer_load += dur[i]
    ms = 1e3
    out = {name: counts.get(name, 0.0) for name, unit in METRICS if unit == "count"}
    out.update({
        "quadrature.self_ms": module_self["quadrature"] * ms,
        "gegenbauer.self_ms": module_self["gegenbauer"] * ms,
        "real_coeffs.coeffs_self_ms":
            (module_self["real_coeffs"] - self_by["real_coeffs.reconstruct"]) * ms,
        "real_coeffs.reconstruct_self_ms": self_by["real_coeffs.reconstruct"] * ms,
        "functions.eval_ms": dur_by[EVAL_SPAN] * ms,
        "walk_real.walk_up_ms": dur_by["walk_real.walk_up"] * ms,
        "walk_real.walk_down_ms": dur_by["walk_real.walk_down"] * ms,
        "walk_real.cross_project_self_ms": self_by["walk_real.cross_project"] * ms,
        "disk_polys.self_ms": module_self["disk_polys"] * ms,
        "complex_coeffs.coeffs_self_ms":
            self_by["complex_coeffs.compute_complex_coeffs"] * ms,
        "complex_coeffs.reconstruct_self_ms":
            self_by["complex_coeffs.reconstruct_complex"] * ms,
        "walk_complex.walk_up_ms": dur_by["walk_complex.walk_up_complex"] * ms,
        "walk_complex.walk_down_ms": dur_by["walk_complex.walk_down_complex"] * ms,
        "spd.self_ms": module_self["spd"] * ms,
        "sequences.dump_ms": outer_dump * ms,
        "sequences.load_ms": outer_load * ms,
        "cli.startup_ms": counts.get("cli.startup_ms", 0.0),
        "cli.main_self_ms": self_by["cli.main"] * ms,
    })
    return out
