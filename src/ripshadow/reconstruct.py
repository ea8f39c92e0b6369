"""Closed-curve reconstruction from samples with tube noise.

Given a sample whose projections are dense along a closed model curve,
the reconstruction orders one representative per projection fiber by arc
position and joins consecutive representatives by straight edges.  The
result record reports the verification battery, not just the polyline:
exact simplicity, edge bounds, membership of every edge in the working
complex, and a certified Hausdorff distance to the model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _exact
from .limits import measured_density
from .models import (
    AmbiguousProjectionError,
    ConditionReport,
    Condition,
    Model,
    PointCloud,
    check_scale_conditions,
    euclidean_metric,
)
from .rips import build_rips
from .shadow import _box_overlap_pairs

OK = "ok"
OUT_OF_REGIME = "out-of-regime"


@dataclass(frozen=True)
class Polyline:
    """Ordered vertices joined by straight edges, optionally wrapping."""

    points: np.ndarray
    closed: bool = True

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise ValueError("a polyline needs at least two vertices")
        object.__setattr__(self, "points", pts)
        pairs = list(zip(pts[:-1], pts[1:]))
        if self.closed:
            pairs.append((pts[-1], pts[0]))
        for a, b in pairs:
            if np.array_equal(a, b):
                raise ValueError("consecutive polyline vertices coincide")

    def __len__(self) -> int:
        return self.points.shape[0]

    def edges(self):
        pts = self.points
        k = pts.shape[0]
        last = k if self.closed else k - 1
        for i in range(last):
            yield pts[i], pts[(i + 1) % k]

    def edge_lengths(self) -> np.ndarray:
        return np.array([float(np.linalg.norm(b - a)) for a, b in self.edges()])

    def to_json_dict(self) -> dict:
        return {
            "closed": self.closed,
            "points": [[float(v) for v in row] for row in self.points],
        }


@dataclass
class ReconstructionResult:
    """Curve plus its verification battery and the hypothesis echo."""

    curve: Polyline | None
    checks: dict
    conditions: ConditionReport
    order: list[int]
    params: list[float]
    verdict: str
    annotations: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "curve": None if self.curve is None else self.curve.to_json_dict(),
            "checks": self.checks,
            "conditions": self.conditions.to_json_dict(),
            "order": [int(i) for i in self.order],
            "params": [float(t) for t in self.params],
            "verdict": self.verdict,
            "annotations": list(self.annotations),
        }


# ---------------------------------------------------------------------------
# ordering samples along the model


def order_by_projection(model: Model, cloud: PointCloud):
    """Sort samples by the arc position of their projections.

    Samples landing on the same projection point (within 1e-9 of the arc
    length) form one fiber; the fiber keeps the sample nearest to the
    projection, ties to the lowest index.  Returns (indices, parameters).
    """
    if not model.is_closed_curve():
        raise ValueError("projection ordering needs a closed curve model")
    try:
        _, params, dists = model.project_many(cloud.points)
    except AmbiguousProjectionError as exc:
        where = tuple(float(v) for v in cloud.points[exc.row])
        raise AmbiguousProjectionError(f"sample {exc.row} at {where}: {exc}") from exc
    order = sorted(range(cloud.n), key=lambda i: (params[i], i))
    tol = 1e-9 * model.length
    groups: list[list[int]] = []
    for i in order:
        if groups and params[i] - params[groups[-1][0]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    # arc positions wrap, so a group at the end may continue the one at 0
    if len(groups) > 1:
        wrap = params[groups[0][0]] + model.length
        if wrap - params[groups[-1][0]] <= tol:
            groups[0] = groups.pop() + groups[0]
    reps = [min(g, key=lambda i: (dists[i], i)) for g in groups]
    reps.sort(key=lambda i: (params[i], i))
    return reps, params[reps]


# ---------------------------------------------------------------------------
# simplicity of a polyline, decided exactly


def _edge_boxes(pts: np.ndarray, closed: bool):
    nxt = np.roll(pts, -1, axis=0)
    if not closed:
        nxt = nxt[:-1]
        pts = pts[:-1]
    lo = np.minimum(pts, nxt)
    hi = np.maximum(pts, nxt)
    return lo, hi


def polyline_is_simple(curve: Polyline) -> bool:
    """No two edges share a point besides common endpoints.  Exact tests
    run only on the edge pairs whose closed bounding boxes overlap, taken
    in lexicographic order from one bulk box test; the boxes use the same
    floats the rational predicates consume, so the prefilter loses nothing."""
    edges = list(curve.edges())
    m = len(edges)
    for i, j in _box_overlap_pairs(*_edge_boxes(curve.points, curve.closed)):
        (a0, a1), (b0, b1) = edges[i], edges[j]
        if j == i + 1:
            # consecutive edges meet at a1 == b0; any further contact
            # means a fold-back along the shared line
            if _exact.point_on_segment(a0, b0, b1) or _exact.point_on_segment(b1, a0, a1):
                return False
            continue
        if curve.closed and i == 0 and j == m - 1:
            # the closing edge meets edge 0 at v0; a fold-back there puts b0
            # on edge 0 or a1 on the closing edge, which the pairs with edge
            # m - 2 or edge 1 decide (for m <= 3 these pairs are consecutive)
            continue
        if _exact.segments_intersect(a0, a1, b0, b1):
            return False
    return True


# ---------------------------------------------------------------------------
# the reconstruction itself


def _hausdorff_to_model(model: Model, curve: Polyline, zeta: float) -> float:
    """Two-sided Hausdorff distance, reported with its discretization slack.

    The curve side walks every edge at a step of zeta/10 and queries the
    nearest-point projection; the model side walks an arc grid ten times
    finer than zeta and queries segment distances.  Both walks add half a
    step, so the returned value is an upper bound.
    """
    segs = list(curve.edges())
    step = max(zeta / 10.0, 1e-6 * model.length)

    # the walk points of every edge go through one batched projection
    lengths = np.array([np.linalg.norm(b - a) for a, b in segs])
    cuts = np.maximum(2, np.ceil(lengths / step).astype(int) + 1)
    walks = [
        a + np.linspace(0.0, 1.0, c)[:, None] * (b - a) for (a, b), c in zip(segs, cuts)
    ]
    dists = model.project_many(np.concatenate(walks))[2]
    worst = np.maximum.reduceat(dists, np.cumsum(cuts) - cuts)
    d_curve = float(np.max(worst + lengths / (cuts - 1) / 2.0))

    grid_n = int(math.ceil(model.length / step))
    grid = np.arange(grid_n) * (model.length / grid_n)
    mpts = model.points_at(grid)
    best = np.full(grid_n, np.inf)
    for a, b in segs:
        seg = b - a
        denom = float(seg @ seg)
        t = np.clip((mpts - a) @ seg / denom, 0.0, 1.0)
        proj = a + t[:, None] * seg
        best = np.minimum(best, np.linalg.norm(mpts - proj, axis=1))
    d_model = float(best.max()) + model.length / grid_n / 2.0
    return max(d_curve, d_model)


def build_curve_K(
    model: Model,
    cloud: PointCloud,
    beta: float,
    tau: float,
    zeta: float | None = None,
) -> ReconstructionResult:
    """Order the sample along the model and join the fiber representatives.

    With tau the tube noise and the projections zeta-dense, the hypothesis
    tau + zeta < beta/2 makes every edge shorter than beta, so the curve
    lies in the shadow of the working complex.  All verification fields
    are computed fresh on the produced polyline.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if tau < 0:
        raise ValueError("noise amplitude must be nonnegative")
    order, params = order_by_projection(model, cloud)
    density = measured_density(model, params)
    if zeta is None:
        zeta_eff = density
        density_cond = Condition(
            "projection-density",
            density,
            density,
            True,
            "density measured from the sample itself",
        )
    else:
        zeta_eff = float(zeta)
        density_cond = Condition(
            "projection-density",
            density,
            zeta_eff,
            density <= zeta_eff,
            "measured projection density against the claimed bound",
        )
    conditions = check_scale_conditions(model, beta, tau, zeta=zeta_eff)
    conditions.conditions.append(density_cond)

    if not conditions.all_hold():
        return ReconstructionResult(
            curve=None,
            checks={},
            conditions=conditions,
            order=list(order),
            params=list(params),
            verdict=OUT_OF_REGIME,
            annotations=[
                f"hypothesis {name} fails" for name in conditions.failing()
            ],
        )

    curve = Polyline(cloud.points[order].copy(), closed=True)
    lengths = curve.edge_lengths()
    max_edge = float(lengths.max())

    # membership of every edge in the working complex, checked through the
    # complex itself rather than through the length bound
    rips = build_rips(euclidean_metric(cloud), beta, cap=1)
    in_shadow = True
    k = len(order)
    for i in range(k):
        a, b = order[i], order[(i + 1) % k]
        if not rips.has_simplex(tuple(sorted((a, b)))):
            in_shadow = False
            break

    checks = {
        "simple": polyline_is_simple(curve),
        "closed": bool(curve.closed and len(curve) >= 3),
        "max_edge": max_edge,
        "edges_under_beta": bool(max_edge < beta),
        "in_shadow": in_shadow,
        "hausdorff_to_model": _hausdorff_to_model(model, curve, zeta_eff),
    }
    return ReconstructionResult(
        curve=curve,
        checks=checks,
        conditions=conditions,
        order=list(order),
        params=list(params),
        verdict=OK,
    )
