"""Independent checkers for the benchmark's outputs.

Nothing here imports ripshadow: each checker recomputes a property of the
program's output from plain numpy, so a fault in a shared helper cannot make
the program and its check agree by accident.
"""
from __future__ import annotations

import numpy as np


class CheckError(AssertionError):
    """An output of the program failed an independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def distances(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def strict_adjacency(dist: np.ndarray, beta: float) -> np.ndarray:
    """0/1 matrix of pairs strictly closer than beta, zero diagonal."""
    adj = (np.asarray(dist, dtype=float) < beta).astype(float)
    np.fill_diagonal(adj, 0.0)
    return adj


def rips_counts(dist: np.ndarray, beta: float) -> tuple[int, int]:
    """Edge and triangle counts of the strict Rips complex.

    Edges are nnz(A)/2 and triangles trace(A^3)/6 for the strict adjacency
    matrix A; both are exact in float64 far beyond the sizes used here.
    """
    adj = strict_adjacency(dist, beta)
    edges = int(round(adj.sum() / 2.0))
    triangles = int(round(np.einsum("ij,ji->", adj @ adj, adj) / 6.0))
    return edges, triangles


def complex_counts(simplices) -> list[int]:
    """Per-dimension counts of a flat simplex list, as a stored complex holds it."""
    counts: dict[int, int] = {}
    for s in simplices:
        counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
    top = max(counts, default=-1)
    return [counts.get(d, 0) for d in range(top + 1)]


def euler_characteristic(simplices_by_dim: dict) -> int:
    return sum((-1) ** int(d) * len(group) for d, group in simplices_by_dim.items())


def rank_table_monotone(table) -> bool:
    """Composite ranks never grow away from the diagonal.

    table[i][j] is the rank of the composite from stage i to stage j
    (i <= j).  Composing with one more map cannot raise a rank, so every row
    is non-increasing left to right from the diagonal and every column is
    non-increasing bottom to top from it.
    """
    k = len(table)
    for i in range(k):
        for j in range(i, k):
            if table[i][j] is None or table[i][j] < 0:
                return False
            if j > i and table[i][j] > table[i][j - 1]:
                return False
            if j > i and table[i][j] > table[i + 1][j]:
                return False
    return True


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(p, a, b) -> bool:
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_meet(a, b, c, d) -> bool:
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    if ((o1 > 0 and o2 < 0) or (o1 < 0 and o2 > 0)) and (
        (o3 > 0 and o4 < 0) or (o3 < 0 and o4 > 0)
    ):
        return True
    return (
        (o1 == 0 and _on_segment(c, a, b))
        or (o2 == 0 and _on_segment(d, a, b))
        or (o3 == 0 and _on_segment(a, c, d))
        or (o4 == 0 and _on_segment(b, c, d))
    )


def closed_polyline_crossings(points) -> list[tuple[int, int]]:
    """Pairs of edges of a closed planar polyline that touch where they should not.

    Edge i joins vertex i to vertex i+1 (wrapping).  Non-adjacent edges must
    not meet at all; adjacent edges must meet only at their shared vertex,
    so a fold-back along the common line is reported too.  Float orientation
    tests: a crossing that depends on the last bit of a coordinate is beyond
    this checker, which the program's exact test covers.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("closed_polyline_crossings needs planar points")
    m = pts.shape[0]
    if m < 3:
        raise ValueError("a closed polyline needs at least three vertices")
    edges = [(pts[i], pts[(i + 1) % m]) for i in range(m)]
    bad = []
    for i in range(m):
        a, b = edges[i]
        for j in range(i + 1, m):
            c, d = edges[j]
            if j == i + 1 or (i == 0 and j == m - 1):
                # shared vertex: b == c, or a == d when wrapping
                shared, other_i, other_j = (b, a, d) if j == i + 1 else (a, b, c)
                if _orient(other_i, shared, other_j) == 0 and np.dot(
                    other_i - shared, other_j - shared
                ) > 0:
                    bad.append((i, j))
                continue
            if _segments_meet(a, b, c, d):
                bad.append((i, j))
    return bad


def circle_hausdorff_lower_bound(
    points, radius: float = 1.0, center=(0.0, 0.0), grid: int = 20000
) -> float:
    """A lower bound on the Hausdorff distance from a closed polyline to a circle.

    Curve side, exact: along a segment the distance to the centre is convex,
    so its largest excess over the radius sits at an endpoint and its
    largest shortfall at the segment's closest point to the centre.  Circle
    side, a lower bound: the largest distance from ``grid`` equally spaced
    circle points to the polyline; the true supremum can only be larger.
    """
    pts = np.asarray(points, dtype=float) - np.asarray(center, dtype=float)
    a = pts
    b = np.roll(pts, -1, axis=0)
    seg = b - a
    seg_len2 = np.einsum("ij,ij->i", seg, seg)
    t = np.clip(-np.einsum("ij,ij->i", a, seg) / seg_len2, 0.0, 1.0)
    closest = a + t[:, None] * seg
    r_end = np.linalg.norm(a, axis=1)
    r_min = np.linalg.norm(closest, axis=1)
    curve_side = float(max(np.max(r_end - radius), np.max(radius - r_min)))

    ang = np.arange(grid) * (2.0 * np.pi / grid)
    circ = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    best = np.full(grid, np.inf)
    for k in range(len(a)):
        s = np.clip((circ - a[k]) @ seg[k] / seg_len2[k], 0.0, 1.0)
        proj = a[k] + s[:, None] * seg[k]
        best = np.minimum(best, np.linalg.norm(circ - proj, axis=1))
    return max(curve_side, float(best.max()))


def box_overlap_pairs(los: np.ndarray, his: np.ndarray) -> int:
    """Number of unordered pairs of closed axis boxes that overlap."""
    lo = np.maximum(los[:, None, :], los[None, :, :])
    hi = np.minimum(his[:, None, :], his[None, :, :])
    overlap = np.all(lo <= hi, axis=2)
    return int((overlap.sum() - len(los)) // 2)


def vertex_sharing_pairs(cells) -> set[tuple[int, int]]:
    """Pairs of cells (by index) that have a vertex in common."""
    by_vertex: dict[int, list[int]] = {}
    for idx, cell in enumerate(cells):
        for v in cell:
            by_vertex.setdefault(int(v), []).append(idx)
    pairs = set()
    for owners in by_vertex.values():
        for x in range(len(owners)):
            for y in range(x + 1, len(owners)):
                pairs.add((owners[x], owners[y]))
    return pairs
