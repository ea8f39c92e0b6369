"""Brute-force oracles kept deliberately separate from the main pipeline.

These use different algorithms and different pivot orders than the
production code, so a shared bug would have to be introduced twice.
Budgets are hard limits; the oracles are for desk-scale cross-checks.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import _exact
from .models import (
    AmbiguousProjectionError,
    Circle,
    MetricMatrix,
    Trefoil,
    _ball_offset,
    _trefoil_d1,
    _trefoil_point,
)
from .rips import SimplicialComplex
from .shadow import ConvexCellSystem


class OracleBudgetError(ValueError):
    """Input too large for a brute-force check."""


def brute_rips(metric: MetricMatrix, beta: float, cap: int = 2) -> SimplicialComplex:
    """Every subset up to size cap+1, tested by its full pairwise diameter."""
    n = metric.n
    if n > 20:
        raise OracleBudgetError(f"brute_rips handles at most 20 points, got {n}")
    if beta <= 0:
        raise ValueError("beta must be positive")
    d = metric.d
    simplices: dict[int, list[tuple[int, ...]]] = {0: [(i,) for i in range(n)]}
    for size in range(2, cap + 2):
        group = []
        for s in combinations(range(n), size):
            if all(d[a, b] < beta for a, b in combinations(s, 2)):
                group.append(s)
        if group:
            simplices[size - 1] = group
    return SimplicialComplex(n, cap, simplices)


def _dense_rank_mod2(mat: np.ndarray) -> int:
    """Row-reduction rank with top-down pivot search, columns right to left."""
    a = mat.copy() % 2
    rows, cols = a.shape
    rank = 0
    row = 0
    for col in range(cols - 1, -1, -1):
        pivot = -1
        for r in range(row, rows):
            if a[r, col]:
                pivot = r
                break
        if pivot < 0:
            continue
        a[[row, pivot]] = a[[pivot, row]]
        hits = np.flatnonzero(a[:, col])
        for r in hits:
            if r != row:
                a[r] ^= a[row]
        row += 1
        rank += 1
        if row == rows:
            break
    return rank


def brute_homology(complex_: SimplicialComplex, m: int) -> int:
    """Betti number in one dimension by dense mod-2 Gaussian elimination."""
    total = sum(complex_.counts())
    if total > 5000:
        raise OracleBudgetError(
            f"brute_homology handles at most 5000 simplices, got {total}"
        )
    if m > complex_.cap - 1:
        raise ValueError(f"dimension {m} not certified at cap {complex_.cap}")
    simplices = complex_.simplices

    def boundary_matrix(k: int) -> np.ndarray:
        rows = simplices.get(k - 1, [])
        cols = simplices.get(k, [])
        idx = {s: i for i, s in enumerate(rows)}
        mat = np.zeros((len(rows), len(cols)), dtype=np.uint8)
        for j, s in enumerate(cols):
            for face in combinations(s, k):
                mat[idx[face], j] ^= 1
        return mat

    n_m = len(simplices.get(m, []))
    rank_in = _dense_rank_mod2(boundary_matrix(m)) if m > 0 else 0
    rank_out = _dense_rank_mod2(boundary_matrix(m + 1)) if m + 1 <= complex_.cap else 0
    return n_m - rank_in - rank_out


def brute_barycentric_subdivision(
    complex_: SimplicialComplex,
) -> tuple[SimplicialComplex, list[tuple[int, ...]]]:
    """First barycentric subdivision from vertex tuples, chain by chain.

    New vertices are the simplices of the input in (dimension,
    lexicographic) order.  Each chain of proper inclusions is grown
    recursively downwards from its largest simplex through every proper
    face, and the chains are collected as sorted tuples.
    """
    carriers = []
    vertex_of: dict[tuple[int, ...], int] = {}
    simplices = complex_.simplices
    for d in sorted(simplices):
        for s in simplices[d]:
            vertex_of[s] = len(carriers)
            carriers.append(s)

    chains_cache: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def chains_ending_at(s: tuple[int, ...]) -> list[tuple[int, ...]]:
        got = chains_cache.get(s)
        if got is not None:
            return got
        out = [(vertex_of[s],)]
        for size in range(1, len(s)):
            for face in combinations(s, size):
                for ch in chains_ending_at(face):
                    out.append(ch + (vertex_of[s],))
        chains_cache[s] = out
        return out

    groups: dict[int, set] = {}
    for s in vertex_of:
        for ch in chains_ending_at(s):
            groups.setdefault(len(ch) - 1, set()).add(tuple(sorted(ch)))
    simplices = {d: sorted(g) for d, g in groups.items()}
    return SimplicialComplex(len(carriers), complex_.cap, simplices), carriers


def brute_feasible_nonneg_eq(rows: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    """Is there x >= 0 with A x = b?  Phase-1 simplex with Bland's rule on a
    Fraction tableau that keeps every artificial column and normalizes the
    pivot row; entries must be Fractions."""
    m = len(rows)
    if m == 0:
        return True
    n = len(rows[0])
    tab = []
    b = []
    for i in range(m):
        r = list(rows[i])
        bi = rhs[i]
        if bi < 0:
            r = [-v for v in r]
            bi = -bi
        tab.append(r + [Fraction(1) if j == i else Fraction(0) for j in range(m)])
        b.append(bi)
    basis = [n + i for i in range(m)]
    # objective w = obj + sum(cost[j] * x_j) over nonbasic x; the basic
    # artificial columns start with reduced cost zero
    cost = [Fraction(0)] * (n + m)
    obj = Fraction(0)
    for i in range(m):
        for j in range(n):
            cost[j] -= tab[i][j]
        obj += b[i]
    while True:
        enter = -1
        for j in range(n + m):  # Bland: smallest index with negative cost
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return obj == 0
        leave = -1
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = b[i] / tab[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            # minimization of a sum of nonnegative variables cannot be
            # unbounded; defensive guard
            raise ArithmeticError("phase-1 simplex reported an unbounded column")
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        b[leave] = b[leave] / piv
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[leave])]
                b[i] = b[i] - f * b[leave]
        f = cost[enter]
        if f != 0:
            cost = [v - f * w for v, w in zip(cost, tab[leave])]
            obj = obj + f * b[leave]
        basis[leave] = enter


def brute_nerve(system: ConvexCellSystem, cap: int = 2) -> SimplicialComplex:
    """Every subset of up to cap+1 cells, decided by exact feasibility alone.

    No shared-vertex shortcut and no bounding-box pruning, so the filters
    of the production nerve are checked rather than reused.
    """
    k = len(system)
    if k > 20:
        raise OracleBudgetError(f"brute_nerve handles at most 20 cells, got {k}")
    cells = [system.cell_points(i) for i in range(k)]
    simplices: dict[int, list[tuple[int, ...]]] = {0: [(i,) for i in range(k)]}
    for size in range(2, cap + 2):
        group = [
            s
            for s in combinations(range(k), size)
            if _exact.hulls_common_point([cells[i] for i in s])
        ]
        if group:
            simplices[size - 1] = group
    return SimplicialComplex(k, cap, simplices)


def brute_hull_intersection(
    system: ConvexCellSystem, ids, resolution: int = 16
) -> bool:
    """Grid search for a common point of the named cell hulls.

    True is a certificate (the witness passed an exact membership test in
    every hull); False only says the grid found nothing and is advisory.
    """
    ids = sorted(set(int(i) for i in ids))
    dim = system.coords.dim
    if dim > 3:
        raise OracleBudgetError("grid oracle handles ambient dimension <= 3")
    if not ids:
        raise ValueError("need at least one cell id")
    cells = [system.cell_points(i) for i in ids]
    lo = np.max([c.min(axis=0) for c in cells], axis=0)
    hi = np.min([c.max(axis=0) for c in cells], axis=0)
    if np.any(lo > hi):
        return False
    axes = [np.linspace(lo[k], hi[k], resolution) for k in range(dim)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    for p in grid:
        ok = True
        for c in cells:
            if np.any(p < c.min(axis=0)) or np.any(p > c.max(axis=0)):
                ok = False
                break
            if dim == 2:
                if not _exact.point_in_hull_2d(p, c):
                    ok = False
                    break
            else:
                if not _exact.point_in_hull(p, c):
                    ok = False
                    break
        if ok:
            return True
    return False


def brute_curve_projection(curve, x, period=2.0 * math.pi, coarse=20_000):
    """Nearest parameter and distance from x to the closed curve ``curve(u)``,
    u in [0, period), by scans alone: ``coarse`` uniform parameters, then
    four nested 201-point scans around each local minimum of that scan."""
    x = np.asarray(x, dtype=float)
    u = np.arange(coarse) * (period / coarse)
    d2 = np.sum((curve(u) - x) ** 2, axis=1)
    best = (math.inf, 0.0)
    for i in np.flatnonzero((d2 <= np.roll(d2, 1)) & (d2 <= np.roll(d2, -1))):
        lo, hi = u[i] - period / coarse, u[i] + period / coarse
        for _ in range(4):
            grid = np.linspace(lo, hi, 201)
            dd = np.sum((curve(grid) - x) ** 2, axis=1)
            k = int(np.argmin(dd))
            lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, 200)]
        best = min(best, (float(dd[k]), float(grid[k] % period)))
    return best[1], math.sqrt(best[0])


def _project_rows(project_one, X):
    """Project every row of X by ``project_one(x) -> (point, param,
    distance)``, row by row; an ambiguous row is named in the error."""
    X = np.asarray(X, dtype=float)
    points, params, dists = np.zeros(X.shape), np.zeros(len(X)), np.zeros(len(X))
    for i, x in enumerate(X):
        try:
            points[i], params[i], dists[i] = project_one(x)
        except AmbiguousProjectionError as exc:
            exc.row = i
            raise
    return points, params, dists


def brute_circle_projection(circle, X):
    """The circle's projection of every row of X by scalar formulas:
    (points, params, distances)."""

    def project_one(x):
        u = x[:2] - circle.center[:2]
        nu = float(np.hypot(u[0], u[1]))
        if nu <= 1e-12 * max(1.0, circle.radius):
            raise AmbiguousProjectionError(
                "point lies on the circle's axis; projection is ambiguous"
            )
        p = circle.center.copy()
        p[0] += circle.radius * u[0] / nu
        p[1] += circle.radius * u[1] / nu
        t = (math.atan2(u[1], u[0]) % (2.0 * math.pi)) * circle.radius
        return p, float(t), float(np.linalg.norm(x - p))

    return _project_rows(project_one, X)


def brute_graph_projection(graph, X):
    """The graph's projection of every row of X, one segment at a time:
    (points, params, distances).  A segment whose nearest point is clamped
    to a vertex of the nearest segment does not compete, and a parameter
    that reaches the next edge's start is moved one float below it."""

    def project_one(x):
        best = []
        for k, (a, b) in enumerate(graph.edges):
            pa, pb = graph.vertices[a], graph.vertices[b]
            seg = pb - pa
            tt = float(np.dot(x - pa, seg) / np.dot(seg, seg))
            tt = min(max(tt, 0.0), 1.0)
            q = pa + tt * seg
            best.append((float(np.linalg.norm(x - q)), k, tt, q))
        best.sort(key=lambda item: (item[0], item[1]))
        d0, k0, t0, q0 = best[0]
        tol = 1e-9 * max(1.0, graph.length)
        for d, k, tt, q in best[1:]:
            if d > d0 + tol:
                break
            if tt in (0.0, 1.0) and graph.edges[k][int(tt)] in graph.edges[k0]:
                continue
            if np.linalg.norm(q - q0) > 1e-6 * max(1.0, graph.length):
                raise AmbiguousProjectionError(
                    "point is equidistant from two separated strands of the graph"
                )
        t = float(graph._starts[k0] + t0 * graph._elens[k0])
        end = float(graph._starts[k0 + 1])
        # keep the parameter on edge k0, short of the next edge's start
        return q0, (t if t < end else math.nextafter(end, -math.inf)), d0

    return _project_rows(project_one, X)


def _scalar_golden(scale, x, a, b):
    """Golden-section search for the trefoil parameter nearest to x in
    [a, b], one probe at a time."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0

    def f(u):
        return float(np.sum((_trefoil_point(u, scale) - x) ** 2))

    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-12:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    u = 0.5 * (a + b)
    return u, f(u)


def brute_trefoil_projection(trefoil, X):
    """The trefoil's projection of every row of X, one row at a time against
    all 4096 scan points, with a full sort of their distances: (points,
    params, distances)."""
    u_grid, pts = trefoil._scan_points
    s, h = trefoil.scale, 2.0 * math.pi / trefoil._SCAN

    def project_one(x):
        d2 = np.sum((pts - x) ** 2, axis=1)
        best = int(np.argmin(d2))
        u, f = _scalar_golden(s, x, u_grid[best] - 2 * h, u_grid[best] + 2 * h)
        for j in np.argsort(d2)[1:8]:
            du = abs(u_grid[j] - u_grid[best]) % (2.0 * math.pi)
            if min(du, 2.0 * math.pi - du) <= 4 * h:
                continue
            slack = f + 1e-7 * s**2 + 4.0 * h * s * math.sqrt(f) + 40.0 * h**2 * s**2
            if d2[j] > slack:
                continue
            alt_u, alt_f = _scalar_golden(s, x, u_grid[j] - 2 * h, u_grid[j] + 2 * h)
            if abs(math.sqrt(alt_f) - math.sqrt(f)) < 1e-9 * s:
                gap = _trefoil_point(u, s) - _trefoil_point(alt_u, s)
                if np.linalg.norm(gap) > 1e-6 * s:
                    raise AmbiguousProjectionError(
                        "point is equidistant from two separated strands"
                    )
        p = _trefoil_point(u, s)
        return p, float(trefoil._arc_of_param(u)), float(np.linalg.norm(x - p))

    return _project_rows(project_one, X)


def brute_trefoil_clearance(trefoil) -> tuple[float, float]:
    """The trefoil's ``(normal clearance, separation)``, scanning every base
    row against all 4096 scan points, one row at a time."""
    kappa = trefoil._curvature_max
    excl = min(0.5 * math.pi / kappa * 0.98, trefoil.length / 4.0)
    n_base, n_scan = 2048, 4096
    ub = np.linspace(0.0, 2.0 * math.pi, n_base, endpoint=False)
    us = np.linspace(0.0, 2.0 * math.pi, n_scan, endpoint=False)
    base_pts = _trefoil_point(ub, trefoil.scale)
    base_tan = _trefoil_d1(ub, trefoil.scale)
    base_tan /= np.linalg.norm(base_tan, axis=-1, keepdims=True)
    scan_pts = _trefoil_point(us, trefoil.scale)
    base_arc = trefoil._arc_of_param(ub)
    scan_arc = trefoil._arc_of_param(us)
    clearance = math.inf
    separation = math.inf
    for i in range(n_base):
        arc_d = np.abs(scan_arc - base_arc[i]) % trefoil.length
        arc_d = np.minimum(arc_d, trefoil.length - arc_d)
        far = arc_d > excl
        diff = scan_pts - base_pts[i]
        if np.any(far):
            separation = min(
                separation, float(np.min(np.linalg.norm(diff[far], axis=-1)))
            )
        g = diff @ base_tan[i]
        g_next = np.roll(g, -1)
        cross = far & (np.roll(far, -1)) & (g * g_next <= 0.0) & (g != g_next)
        idx = np.flatnonzero(cross)
        if idx.size == 0:
            continue
        u_lo = us[idx]
        u_hi = u_lo + (2.0 * math.pi / n_scan)
        frac = g[idx] / (g[idx] - g_next[idx])
        u_zero = u_lo + frac * (u_hi - u_lo)
        zero_pts = _trefoil_point(u_zero, trefoil.scale)
        dist = np.linalg.norm(zero_pts - base_pts[i], axis=-1)
        clearance = min(clearance, float(np.min(dist)))
    return clearance * 0.995, separation


def _scalar_tangent(model, t):
    """The unit tangent at one arc parameter, by scalar formulas."""
    if isinstance(model, Circle):
        theta = (t % model.length) / model.radius
        v = np.zeros(model.dim)
        v[0], v[1] = -math.sin(theta), math.cos(theta)
        return v
    if isinstance(model, Trefoil):
        d = _trefoil_d1(model._param_of_arc(t), model.scale)
        return d / np.linalg.norm(d)
    k, _ = model._locate(t)
    return model._segs[k] / model._elens[k]


def brute_sample(spec) -> np.ndarray:
    """The points ``sample(spec)`` draws, one point at a time: its tangent,
    one SVD for its normal basis, then its offset."""
    model, n = spec.model, spec.n
    rng = np.random.default_rng(spec.seed)
    if spec.scheme == "stratified":
        params = np.arange(n) * (model.length / n)
    else:
        params = rng.uniform(0.0, model.length, size=n)
    pts = model.points_at(params)
    if spec.tau > 0:
        for i, t in enumerate(params):
            tangent = _scalar_tangent(model, t)
            basis = np.linalg.svd((tangent / np.linalg.norm(tangent))[None, :])[2][1:]
            pts[i] = pts[i] + _ball_offset(rng, basis.shape[0], spec.tau) @ basis
    return pts


def brute_grid_to_curve(mpts: np.ndarray, curve) -> np.ndarray:
    """Distance from each row of mpts to a polyline, one edge at a time
    over every point."""
    best = np.full(len(mpts), np.inf)
    for a, b in curve.edges():
        seg = b - a
        denom = float(seg @ seg)
        t = np.clip((mpts - a) @ seg / denom, 0.0, 1.0)
        proj = a + t[:, None] * seg
        best = np.minimum(best, np.linalg.norm(mpts - proj, axis=1))
    return best


_DENSITY_BLOCK = 256
# arc grid points per parameter, at least 2048 in all
_DENSITY_GRID_FACTOR = 8


def brute_density(model, params) -> float:
    """Geodesic density of a parameter set, plus the grid's own half-step.

    Evaluated on a uniform arc grid.  On a closed curve the reported value
    is an upper bound on the true sup-distance.  On a graph it is not
    always: the grid reaches each edge's end only from inside the edge, so
    a vertex can lie a whole step from the grid points that see it.
    """
    params = np.asarray(params, dtype=float)
    grid_n = max(2048, _DENSITY_GRID_FACTOR * len(params))
    step = model.length / grid_n
    # the distance is elementwise, so blocks of grid rows give the same
    # maximum as one grid_n x n matrix without holding it in memory
    worst = -math.inf
    for start in range(0, grid_n, _DENSITY_BLOCK):
        grid = np.arange(start, min(start + _DENSITY_BLOCK, grid_n)) * step
        d = np.asarray(model.geodesic_param_distance(grid[:, None], params[None, :]))
        worst = max(worst, float(d.min(axis=1).max()))
    return worst + model.length / (2.0 * grid_n)


def brute_maximal_cliques(metric: MetricMatrix, beta: float) -> list[tuple[int, ...]]:
    """Maximal cliques of the strict proximity graph, sorted, by scanning
    every vertex subset: a clique is maximal when no other vertex is
    joined to all of it."""
    n = metric.n
    if n > 12:
        raise OracleBudgetError(f"brute_maximal_cliques handles at most 12 points, got {n}")
    if beta <= 0:
        raise ValueError("beta must be positive")
    joined = [[i != j and metric.d[i, j] < beta for j in range(n)] for i in range(n)]
    out = []
    for size in range(1, n + 1):
        for s in combinations(range(n), size):
            if all(joined[a][b] for a, b in combinations(s, 2)) and not any(
                all(joined[v][a] for a in s) for v in range(n) if v not in s
            ):
                out.append(s)
    return sorted(out)
