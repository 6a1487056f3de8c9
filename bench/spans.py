"""Span tracing for the benchmark's traced run.

`install` wraps public functions of the library with timing wrappers that
live in this file; nothing under src/ changes.  Most of these functions are
imported by name into other modules (`from .lattice import build_rho`), so
the wrapper replaces every module-level binding of the original function,
not only the one in the defining module.

Spans are kept in memory as [name, start, end, parent, op, status] and
summarised by `layer_metrics`; `Tracer.dump` writes them out at the end of
a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute) pairs wrapped in the traced run; names become span names.
FUNCTIONS = [
    ("intlinalg", "hnf_row"),
    ("intlinalg", "left_kernel"),
    ("intlinalg", "smith_normal_form"),
    ("lattice", "build_rho"),
    ("linprog", "solve_eq_nonneg"),
    ("tropical", "tropical_feasible"),
    ("schema", "loads"),
    ("graphs", "validate_graph"),
    ("obstruction", "compute_ob"),
    ("obstruction", "canonical_characters"),
    ("sections", "leading_coefficient"),
    ("dimension", "dimension_report"),
    ("rt", "rt_reduce"),
    ("positivity", "classify_pair"),
    ("cli", "main"),
]
LATTICE_METHODS = ["kernel_basis", "character_basis", "invariant_factors"]


def _u_bits(tracer, args, result):
    u = result[1]
    bits = max((abs(x).bit_length() for row in u for x in row), default=0)
    tracer.peak["intlinalg.hnf_row.u_bits"] = max(tracer.peak.get("intlinalg.hnf_row.u_bits", 0), bits)


def _matrix_cells(tracer, args, result):
    tracer.sizes.setdefault("lattice.matrix_cells", []).append(result.n_rows * result.n_cols)


def _lp_cells(tracer, args, result):
    a = args[0]
    tracer.sizes.setdefault("linprog.solve_eq_nonneg.lp_cells", []).append(
        len(a) * (len(a[0]) if a else 0))


# Readings taken from a wrapped call's arguments or result, outside its span.
MEASURES = {
    "intlinalg.hnf_row": _u_bits,
    "lattice.build_rho": _matrix_cells,
    "linprog.solve_eq_nonneg": _lp_cells,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.peak = {}
        self.sizes = {}

    def begin_op(self, op_id):
        """Start a new op; spans left open by an interrupted op are closed."""
        now = time.perf_counter()
        for idx in self.stack:
            self.spans[idx][2] = now
            self.spans[idx][5] = "interrupted"
        self.stack = []
        self.op = op_id

    def wrap(self, name, fn):
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None,
                    self.op, "ok"]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                if self.stack:
                    self.stack.pop()
            if measure is not None:
                measure(self, args, result)
            return result

        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "status"],
                       "spans": self.spans, "peak": self.peak, "sizes": self.sizes}, fh)

    def merge(self, child):
        """Add the spans and readings a traced child process dumped, as part
        of the current op."""
        base = len(self.spans)
        for name, start, end, parent, _op, status in child["spans"]:
            self.spans.append([name, start, end, None if parent is None else parent + base,
                               self.op, status])
        for key, value in child["peak"].items():
            self.peak[key] = max(self.peak.get(key, 0), value)
        for key, values in child["sizes"].items():
            self.sizes.setdefault(key, []).extend(values)


def install(tracer):
    """Wrap every function in FUNCTIONS at all its binding sites, and the
    LatticeMap normal-form methods on the class."""
    from logmoduli import lattice

    for modname, attr in FUNCTIONS:
        module = importlib.import_module(f"logmoduli.{modname}")
        original = getattr(module, attr)
        wrapper = tracer.wrap(f"{modname}.{attr}", original)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(mod, key, wrapper)
    cls = lattice.LatticeMap
    cls.rank = property(tracer.wrap("lattice.rank", cls.rank.fget))
    for meth in LATTICE_METHODS:
        setattr(cls, meth, tracer.wrap(f"lattice.{meth}", getattr(cls, meth)))




def _aggregate(spans):
    """Per span name: calls, busy seconds, self seconds, timeouts."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child_time[span[3]] += span[2] - span[1]
    stats = {}
    for idx, (name, start, end, parent, _op, status) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0, "timeouts": 0})
        entry["calls"] += 1
        entry["self"] += (end - start) - child_time[idx]
        if status == "Timeout":
            entry["timeouts"] += 1
        # busy time counts a span only when no enclosing span has the same name
        anc = parent
        while anc is not None and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc is None:
            entry["busy"] += end - start
    return stats


def layer_metrics(spans, n_ops, peak, sizes):
    """The per-layer metrics of BENCHMARK.json that spans can give.

    Times (wall time, not scaled to the reference speed) and call counts
    are per op (n_ops ops were traced); matrix sizes are means over calls;
    `u_bits_max` is the largest over the run.
    """
    stats = _aggregate(spans)
    n = max(n_ops, 1)

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    out = {}

    def put(metric, value, unit):
        out[metric] = (value, unit)

    for name in ("intlinalg.hnf_row", "schema.loads", "graphs.validate_graph",
                 "lattice.build_rho", "sections.leading_coefficient"):
        put(f"{name}.calls_per_op", get(name, "calls") / n, "calls/op")
    for name in ("intlinalg.hnf_row", "intlinalg.left_kernel", "intlinalg.smith_normal_form",
                 "lattice.rank", "lattice.kernel_basis", "lattice.character_basis",
                 "lattice.invariant_factors", "linprog.solve_eq_nonneg", "schema.loads",
                 "graphs.validate_graph", "lattice.build_rho", "obstruction.canonical_characters",
                 "sections.leading_coefficient", "dimension.dimension_report", "rt.rt_reduce",
                 "positivity.classify_pair"):
        put(f"{name}.busy_ms", 1000 * get(name, "busy") / n, "ms/op")
    for name in ("tropical.tropical_feasible", "obstruction.compute_ob", "cli.main"):
        put(f"{name}.self_ms", 1000 * get(name, "self") / n, "ms/op")
    put("intlinalg.hnf_row.u_bits_max", peak.get("intlinalg.hnf_row.u_bits", 0), "bits")
    put("lattice.character_basis.timeouts", get("lattice.character_basis", "timeouts"), "count")
    for key in ("lattice.matrix_cells", "linprog.solve_eq_nonneg.lp_cells"):
        values = sizes.get(key, [])
        put(key, sum(values) / len(values) if values else 0, "cells")
    return out
