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
from scipy.spatial.distance import cdist

from . import _exact
from .limits import OUT_OF_REGIME, measured_density
from .models import (
    AmbiguousProjectionError,
    ConditionReport,
    Condition,
    Model,
    PointCloud,
    _near_tile_pairs,
    _tile_spheres,
    check_scale_conditions,
    euclidean_metric,
)
from .rips import build_rips
from .shadow import _box_overlap_pairs

OK = "ok"

# grid points and edges per tile of the Hausdorff model walk
_WALK_TILE = 16


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
        _, params, dists = model.project(cloud.points)
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


def _edge_ends(pts: np.ndarray, closed: bool):
    """Start and end points of every edge, in the order of ``Polyline.edges``."""
    nxt = np.roll(pts, -1, axis=0)
    if not closed:
        nxt = nxt[:-1]
        pts = pts[:-1]
    return pts, nxt


def polyline_is_simple(curve: Polyline) -> bool:
    """No two edges share a point besides common endpoints.  Exact tests
    run only on the edge pairs whose closed bounding boxes overlap, taken
    in lexicographic order from one bulk box test; the boxes use the same
    floats the rational predicates consume, so the prefilter loses nothing."""
    edges = list(curve.edges())
    m = len(edges)
    a, b = _edge_ends(curve.points, curve.closed)
    first, second = _box_overlap_pairs(np.minimum(a, b), np.maximum(a, b))
    for i, j in zip(first.tolist(), second.tolist()):
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
    dists = model.project(np.concatenate(walks))[2]
    worst = np.maximum.reduceat(dists, np.cumsum(cuts) - cuts)
    d_curve = float(np.max(worst + lengths / (cuts - 1) / 2.0))

    grid_n = int(math.ceil(model.length / step))
    grid = np.arange(grid_n) * (model.length / grid_n)
    best = _grid_to_curve(model.points_at(grid), curve)
    d_model = float(best.max()) + model.length / grid_n / 2.0
    return max(d_curve, d_model)


def _grid_to_curve(mpts: np.ndarray, curve: Polyline) -> np.ndarray:
    """Distance from each row of mpts to the polyline.

    Grid points and edges are cut into tiles of ``_WALK_TILE``.  Each grid
    tile is first walked against the edge tile whose centre is nearest;
    the largest distance found bounds the tile, and only the edge tiles
    whose spheres come within that bound are walked next.  An edge left
    out is farther than the bound from every point of the tile, so each
    entry is the minimum of the same floats as a walk over every edge.
    """
    a, b = _edge_ends(curve.points, curve.closed)
    seg = b - a
    # matmul runs per edge the BLAS dot of ``seg @ seg`` and, for two or
    # more points, the matrix-vector product of ``(pts - a) @ seg``, whose
    # entries do not depend on the other rows: the floats agree
    denom = np.matmul(seg[:, None], seg[:, :, None])[:, 0, 0]
    grid_items, edge_items = mpts[:, None], np.stack([a, b], axis=1)
    size = _WALK_TILE
    best = np.full(len(mpts), np.inf)

    def walk(grid_tiles, edge_tile):
        """Lower ``best`` on some grid tiles to the edges of one edge tile,
        4096 grid points at a time to bound the blocks' memory."""
        k = slice(edge_tile * size, edge_tile * size + size)
        every = (grid_tiles[:, None] * size + np.arange(size)).ravel()
        every = every[every < len(mpts)]
        for lo in range(0, len(every), 4096):
            rows = every[lo : lo + 4096]
            if len(rows) == 1 < len(mpts):
                # a one-row product is a BLAS dot, not the matrix-vector
                # product of a full walk; a second row keeps that path (its
                # entries are true edge distances, so no minimum moves)
                rows = np.array([rows[0], rows[0] - 1 if rows[0] else 1])
            pts = mpts[rows]
            lead = np.matmul(pts - a[k, None], seg[k, :, None])[..., 0]
            t = np.clip(lead / denom[k, None], 0.0, 1.0)
            proj = a[k, None] + t[..., None] * seg[k, None]
            dist = np.linalg.norm(pts - proj, axis=-1)
            best[rows] = np.minimum(best[rows], dist.min(axis=0))

    ca, ra = _tile_spheres(grid_items, size)
    cb, rb = _tile_spheres(edge_items, size)
    centre_d = cdist(ca, cb)
    nearest = np.argmin(centre_d, axis=1)
    for e in np.unique(nearest):
        walk(np.flatnonzero(nearest == e), e)
    bound = np.maximum.reduceat(best, np.arange(0, len(mpts), size))
    rows, cols = _near_tile_pairs(centre_d, ra, rb, bound)
    later = cols != nearest[rows]
    for e in np.unique(cols[later]):
        walk(rows[later & (cols == e)], e)
    return best


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
    ends = np.asarray(order, dtype=np.int64)
    edges = np.sort(np.column_stack([ends, np.roll(ends, -1)]), axis=1)
    in_shadow = bool(np.all(rips._locate(1, edges) >= 0))

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
