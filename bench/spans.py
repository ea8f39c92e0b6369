"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` replaces public functions of ``ripshadow`` at the names
the calling modules use (``limits.build_rips``, ``homology.homology_basis``
and so on) with wrappers that open a span and record counts.  No pipeline
logic is copied here: a wrapper calls the original and only looks at its
arguments and result.  Spans are kept in memory and written once, by
``write``, at the end of a run.

A layer's time is the self time of its spans: the span's duration minus the
time covered by its child spans, summed over calls.  Hooks that check or
count a result run inside a ``trace.hook`` span, so their cost is excluded
from every layer and shows only in the tracing overhead.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

import numpy as np

from checks import (
    box_overlap_pairs,
    euler_characteristic,
    require,
    rips_counts,
    vertex_sharing_pairs,
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._child_time: list[float] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._child_time.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span[0]} closed out of order")
        duration = end - span[1]
        self.self_time[span[0]] += duration - self._child_time[idx]
        self.calls[span[0]] += 1
        if span[3] >= 0:
            self._child_time[span[3]] += duration

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- wrappers -----------------------------------------------------------

    def wrap(self, target: str, name: str | None, hook=None) -> None:
        """Wrap ``module:attr`` or ``module:Class.attr``.

        With ``name`` the call becomes a span; ``hook(result, *args)`` runs
        after it, inside a ``trace.hook`` span.  A missing target raises, so
        a rename in the program stops the traced run instead of silently
        emptying a layer.
        """
        module_name, _, attr_path = target.partition(":")
        owner = importlib.import_module(module_name)
        *classes, attr = attr_path.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name)
        raw = vars(owner).get(attr)
        if raw is None:
            raise RuntimeError(f"traced name {target} is missing from the program")
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        if not callable(fn):
            raise RuntimeError(f"traced name {target} is not callable")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                result = tracer.call(name, fn, *args, **kwargs)
            if hook is not None:
                tracer.call("trace.hook", hook, tracer, result, *args, **kwargs)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def install(self) -> None:
        for target, name, hook in TARGETS:
            self.wrap(target, name, hook)

    # -- results ------------------------------------------------------------

    def seen(self, name: str) -> int:
        return self.calls[name] + self.counts[name]

    def write(self, path: str) -> None:
        """One JSON line per span, then one line with the calls and counts."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
            fh.write(json.dumps({"calls": self.calls, "counts": self.counts}) + "\n")


# ---------------------------------------------------------------------------
# hooks: counts and checks on the objects crossing a layer boundary


def _rips_hook(tracer: Tracer, complex_, metric, beta, cap=2, **_):
    counts = complex_.counts()
    tracer.counts["rips.simplices"] += sum(counts)
    edges, triangles = rips_counts(metric.d, beta)
    want = [metric.n, edges, triangles][: cap + 1]
    require(
        counts + [0] * (len(want) - len(counts)) == want,
        f"build_rips at beta={beta}: counts {counts}, adjacency {want}",
    )


def _cliques_hook(tracer: Tracer, cliques, *args, **kwargs):
    tracer.counts["rips.cells"] += len(cliques)


def _nerve_hook(tracer: Tracer, nerve, system, cap=2, **_):
    simplices = nerve.complex.simplices
    tracer.counts["shadow.nerve_simplices"] += sum(len(g) for g in simplices.values())
    tracer.counts["shadow.nerve_edges"] += len(simplices.get(1, ()))
    cells = system.cells.cliques
    pts = system.coords.points
    los = np.array([pts[list(c)].min(axis=0) for c in cells])
    his = np.array([pts[list(c)].max(axis=0) for c in cells])
    tracer.counts["shadow.pair_candidates"] += box_overlap_pairs(los, his)
    edges = set(simplices.get(1, ()))
    missing = vertex_sharing_pairs(cells) - edges
    require(not missing, f"cells sharing a vertex are not nerve edges: {sorted(missing)[:3]}")


def _lp_hook(tracer: Tracer, feasible, *args, **kwargs):
    tracer.counts["exact.lp_feasible"] += bool(feasible)


def _columns_hook(tracer: Tracer, cols, *args, **kwargs):
    tracer.counts["homology.columns"] += len(cols)


def _subdivision_hook(tracer: Tracer, result, complex_, **_):
    sd, _carriers = result
    tracer.counts["homology.subdivision_simplices"] += sum(
        len(g) for g in sd.simplices.values()
    )
    require(
        euler_characteristic(sd.simplices) == euler_characteristic(complex_.simplices),
        "barycentric subdivision changed the Euler characteristic",
    )


def _simple_hook(tracer: Tracer, result, curve, **_):
    pts = curve.points
    nxt = np.roll(pts, -1, axis=0) if curve.closed else pts[1:]
    starts = pts if curve.closed else pts[:-1]
    tracer.counts["reconstruct.edge_pairs"] += box_overlap_pairs(
        np.minimum(starts, nxt), np.maximum(starts, nxt)
    )


R = "ripshadow."
TARGETS = [
    # models
    (R + "limits:euclidean_metric", "models.metric", None),
    (R + "limits:epsilon_path_metric", "models.metric", None),
    (R + "reconstruct:euclidean_metric", "models.metric", None),
    (R + "models:Model.geodesic_metric", "models.metric", None),
    (R + "models:Circle.project", "models.project", None),
    (R + "models:Trefoil.project", "models.project", None),
    (R + "models:EmbeddedGraph.project", "models.project", None),
    (R + "limits:check_scale_conditions", "models.conditions", None),
    (R + "reconstruct:check_scale_conditions", "models.conditions", None),
    # a sample spec checks its noise against the tube radius, which fills a
    # trefoil's cached constants (about 1 s) before any scale condition runs
    (R + "models:SamplerSpec.__post_init__", "models.conditions", None),
    # rips
    (R + "limits:build_rips", "rips.build", _rips_hook),
    (R + "cli:build_rips", "rips.build", _rips_hook),
    (R + "reconstruct:build_rips", "rips.build", _rips_hook),
    (R + "limits:maximal_cliques", "rips.cliques", _cliques_hook),
    # shadow
    (R + "limits:build_nerve", "shadow.nerve", _nerve_hook),
    (R + "limits:nerve_coarsening_map", "shadow.coarsen", None),
    (R + "homology:hulls_intersect", "shadow.hull_test", None),
    # _exact: every LP, whichever predicate asks for it
    (R + "_exact:feasible_nonneg_eq", "exact.lp", _lp_hook),
    # homology
    (R + "limits:homology_basis", "homology.basis", None),
    (R + "homology:homology_basis", "homology.basis", None),
    (R + "homology:ChainComplexZ2.boundary_columns", None, _columns_hook),
    (R + "limits:induced_map_on_bases", "homology.induced", None),
    (R + "homology:induced_map_on_bases", "homology.induced", None),
    (R + "limits:induced_from_chain_columns", "homology.induced", None),
    (R + "homology:induced_from_chain_columns", "homology.induced", None),
    (R + "limits:tower_ranks", "homology.rank_table", None),
    (R + "limits:betti", "homology.betti", None),
    (R + "cli:betti", "homology.betti", None),
    (R + "limits:barycentric_subdivision", "homology.subdivision", _subdivision_hook),
    (R + "limits:subdivision_chain_columns", "homology.subdivision", None),
    (R + "limits:carrier_map_to_nerve", "homology.carrier", None),
    # limits
    (R + "limits:measured_density", "limits.density", None),
    (R + "reconstruct:measured_density", "limits.density", None),
    (R + "cli:run_inverse_system", "limits.run", None),
    (R + "cli:run_projection_check", "limits.run", None),
    # reconstruct
    (R + "reconstruct:order_by_projection", "reconstruct.order", None),
    (R + "reconstruct:polyline_is_simple", "reconstruct.simple", _simple_hook),
    (R + "cli:build_curve_K", "reconstruct.run", None),
    # cli
    (R + "rips:SimplicialComplex.load", "cli.load", None),
]


# per-layer metric -> (kind, source): "self" is summed self time of a span,
# "calls" its call count, "count" a hook counter
LAYER_METRICS = {
    "models.metric_s": ("self", "models.metric"),
    "models.project_s": ("self", "models.project"),
    "models.project_calls": ("calls", "models.project"),
    "models.conditions_s": ("self", "models.conditions"),
    "rips.build_s": ("self", "rips.build"),
    "rips.simplices": ("count", "rips.simplices"),
    "rips.cliques_s": ("self", "rips.cliques"),
    "rips.cells": ("count", "rips.cells"),
    "shadow.nerve_s": ("self", "shadow.nerve"),
    "shadow.nerve_simplices": ("count", "shadow.nerve_simplices"),
    "shadow.pair_candidates": ("count", "shadow.pair_candidates"),
    "shadow.coarsen_s": ("self", "shadow.coarsen"),
    "shadow.hull_tests": ("calls", "shadow.hull_test"),
    "shadow.hull_test_s": ("self", "shadow.hull_test"),
    "exact.lp_calls": ("calls", "exact.lp"),
    "exact.lp_s": ("self", "exact.lp"),
    "homology.basis_s": ("self", "homology.basis"),
    "homology.columns": ("count", "homology.columns"),
    "homology.induced_s": ("self", "homology.induced"),
    "homology.rank_table_s": ("self", "homology.rank_table"),
    "homology.betti_s": ("self", "homology.betti"),
    "homology.subdivision_s": ("self", "homology.subdivision"),
    "homology.subdivision_simplices": ("count", "homology.subdivision_simplices"),
    "homology.carrier_s": ("self", "homology.carrier"),
    "limits.density_s": ("self", "limits.density"),
    "limits.self_s": ("self", "limits.run"),
    "reconstruct.order_s": ("self", "reconstruct.order"),
    "reconstruct.simple_s": ("self", "reconstruct.simple"),
    "reconstruct.edge_pairs": ("count", "reconstruct.edge_pairs"),
    "reconstruct.self_s": ("self", "reconstruct.run"),
    "cli.self_s": ("self", "cli.main"),
    "cli.load_s": ("self", "cli.load"),
    # sizes of the files a successful operation names with --out,
    # --curve-csv, --points or --complex, counted by run.py
    "cli.bytes_written": ("count", "cli.bytes_written"),
    "cli.bytes_read": ("count", "cli.bytes_read"),
}


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced round, plus the two ratios."""
    out = {}
    for metric, (kind, source) in LAYER_METRICS.items():
        if kind == "self":
            out[metric] = float(tracer.self_time[source])
        elif kind == "calls":
            out[metric] = int(tracer.calls[source])
        else:
            out[metric] = int(tracer.counts[source])
    candidates = tracer.counts["shadow.pair_candidates"]
    out["shadow.edge_yield"] = (
        tracer.counts["shadow.nerve_edges"] / candidates if candidates else 0.0
    )
    lp_calls = tracer.calls["exact.lp"]
    out["exact.lp_feasible_ratio"] = (
        tracer.counts["exact.lp_feasible"] / lp_calls if lp_calls else 0.0
    )
    return out
