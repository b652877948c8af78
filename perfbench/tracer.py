"""Out-of-program tracing: wrap the public functions of graphonlab's
modules, plus numpy.linalg.eigh, and record one span per call.

A span is ``[id, parent, name, start, end, pass_id, work]``. ``work`` is an
optional count computed from the call (bytes parsed, n^3 of an eigh,
sign vectors enumerated, ...). Spans stay in memory; the worker writes
them out once its passes are done. Self-time is a span's duration minus
the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("fileio", "core", "spectral", "cutnorm", "regularity", "homdensity",
          "ensembles", "distance", "cli")
EIGH = "spectral.numpy_eigh"  # numpy.linalg.eigh is booked to the spectral layer


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _text_len(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "text"))


# Work counts recorded at the layer boundaries, from the call's arguments and
# result. All are computed from sizes, so they repeat exactly between runs.
WORK = {
    "fileio.parse_matrix": _text_len,
    "fileio.parse_step": _text_len,
    "fileio.parse_graph": _text_len,
    EIGH: lambda a, k, r: _arg(a, k, 0, "a").shape[0] ** 3,
    "cutnorm.cutnorm_exact": lambda a, k, r: 2 ** (_arg(a, k, 0, "kernel").n - 1),
    "homdensity.hom_density_mc": lambda a, k, r: _arg(a, k, 2, "samples"),
    "regularity.automorphisms": lambda a, k, r: len(r.generators),
    "cli.canonical_json": lambda a, k, r: len(r),
}


class Tracer:
    """Collects nested spans of one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.pass_id = None
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, name, self.clock(), None, self.pass_id, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[4] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, work=None):
        """fn with a span around every call; work(args, kwargs, result)
        gives the span's work count when the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if work is not None:
                span[6] = work(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every public function of the layer modules in every graphonlab
    namespace that holds it, and numpy.linalg.eigh."""
    import numpy as np

    wrapped = {}  # id(original) -> wrapper
    for layer in LAYERS:
        mod = sys.modules[f"graphonlab.{layer}"]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, tracer.wrap(name, obj, WORK.get(name)))
    for modname, mod in list(sys.modules.items()):
        if modname != "graphonlab" and not modname.startswith("graphonlab."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    np.linalg.eigh = tracer.wrap(EIGH, np.linalg.eigh, WORK[EIGH])


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append((s[3], s[4]))
    out = {}
    for s in spans:
        start, end = s[3], s[4]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children[s[0]]):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s[0]] = (end - start) - covered
    return out


PARSERS = ("fileio.parse_matrix", "fileio.parse_step", "fileio.parse_graph")

# name, unit, how, span names; how is "self" (summed self-time), "calls",
# or "work" (summed work counts).
PER_LAYER = [
    ("fileio.parse_s", "s", "self", PARSERS),
    ("fileio.bytes_read", "bytes", "work", PARSERS),
    ("core.kernel_build_s", "s", "self",
     ("core.kernel_from_matrix", "core.symmetric_kernel")),
    ("core.quotient_average_s", "s", "self", ("core.quotient_average",)),
    ("core.quotient_average_calls", "count", "calls", ("core.quotient_average",)),
    ("spectral.decompose_calls", "count", "calls", ("spectral.decompose",)),
    ("spectral.eigh_calls", "count", "calls", (EIGH,)),
    ("spectral.eigh_s", "s", "self", (EIGH,)),
    ("spectral.eigh_n3", "count", "work", (EIGH,)),
    ("spectral.decompose_self_s", "s", "self", ("spectral.decompose",)),
    ("cutnorm.heuristic_calls", "count", "calls", ("cutnorm.cutnorm_heuristic",)),
    ("cutnorm.heuristic_self_s", "s", "self", ("cutnorm.cutnorm_heuristic",)),
    ("cutnorm.exact_calls", "count", "calls", ("cutnorm.cutnorm_exact",)),
    ("cutnorm.exact_s", "s", "self", ("cutnorm.cutnorm_exact",)),
    ("cutnorm.exact_sign_vectors", "count", "work", ("cutnorm.cutnorm_exact",)),
    ("regularity.decompose_self_s", "s", "self", ("regularity.regularity_decompose",)),
    ("regularity.cluster_self_s", "s", "self", ("regularity.cluster_eigenvectors",)),
    ("regularity.automorphisms_s", "s", "self", ("regularity.automorphisms",)),
    ("regularity.aut_generators", "count", "work", ("regularity.automorphisms",)),
    ("homdensity.mc_s", "s", "self", ("homdensity.hom_density_mc",)),
    ("homdensity.mc_samples", "count", "work", ("homdensity.hom_density_mc",)),
    ("homdensity.step_s", "s", "self", ("homdensity.hom_density_step",)),
    ("homdensity.step_calls", "count", "calls", ("homdensity.hom_density_step",)),
    ("ensembles.sphere_kernel_s", "s", "self", ("ensembles.sphere_kernel",)),
    ("ensembles.w_random_s", "s", "self",
     ("ensembles.w_random_sample", "ensembles.w_random_graph")),
    ("distance.delta_self_s", "s", "self", ("distance.delta_bracket",)),
    ("cli.canonical_json_s", "s", "self", ("cli.canonical_json",)),
    ("cli.report_bytes", "bytes", "work", ("cli.canonical_json",)),
    ("cli.main_self_s", "s", "self", ("cli.main",)),
]


def pass_metrics(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per pass id, the value of every PER_LAYER metric."""
    selfs = self_times(spans)
    by_pass = defaultdict(list)
    for s in spans:
        by_pass[s[5]].append(s)
    out = {}
    for pass_id, group in by_pass.items():
        values = {}
        for metric, _unit, how, names in PER_LAYER:
            chosen = [s for s in group if s[2] in names]
            if how == "self":
                values[metric] = sum(selfs[s[0]] for s in chosen)
            elif how == "calls":
                values[metric] = len(chosen)
            else:
                values[metric] = sum(s[6] or 0 for s in chosen)
        out[pass_id] = values
    return out


def median_metrics(per_pass: dict[int, dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the passes; counts take the lower median,
    so they stay whole numbers."""
    passes = list(per_pass.values())
    return {m: (statistics.median if how == "self" else statistics.median_low)(
                [p[m] for p in passes]) for m, _unit, how, _names in PER_LAYER}
