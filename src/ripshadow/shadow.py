"""Euclidean shadows of complexes, realized as nerves of convex cells.

The shadow of a complex with embedded vertices is the union of the convex
hulls of its simplices, which equals the union over maximal cells.  Those
hulls form a finite closed convex cover of the shadow, so the nerve of the
cover carries the shadow's homotopy type.  Intersection decisions are made
by exact rational feasibility; floating point only prunes candidates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
from scipy import ndimage

from . import _exact
from .models import PointCloud
from .rips import CliqueList, SimplicialComplex, SimplicialMap


_PAIR_BLOCK = 256
# the raster oracle's first grid, doubled until two agree or past the last
_RASTER_FIRST = 64
_RASTER_LAST = 4096


class RasterInconclusiveError(RuntimeError):
    """Raised when raster Betti numbers fail to stabilize by the finest grid."""


@dataclass(frozen=True)
class ConvexCellSystem:
    """Embedded vertex coordinates plus the index sets of the convex cells."""

    coords: PointCloud
    cells: CliqueList

    def __post_init__(self) -> None:
        if self.cells.n != self.coords.n:
            raise ValueError("cell system and coordinates disagree on vertex count")
        if any(len(c) == 0 for c in self.cells.cliques):
            raise ValueError("empty cell")

    def cell_points(self, i: int) -> np.ndarray:
        return self.coords.points[list(self.cells.cliques[i])]

    def __len__(self) -> int:
        return len(self.cells)

    @cached_property
    def boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell coordinate-wise minima and maxima, each of shape (k, dim).

        Min and max are exact, so box tests on these prune without rounding.
        """
        cliques = self.cells.cliques
        sizes = np.fromiter(map(len, cliques), dtype=np.intp, count=len(cliques))
        flat = np.fromiter(chain.from_iterable(cliques), dtype=np.intp, count=int(sizes.sum()))
        pts = self.coords.points[flat]
        starts = np.cumsum(sizes) - sizes
        return np.minimum.reduceat(pts, starts, axis=0), np.maximum.reduceat(pts, starts, axis=0)

    @cached_property
    def cell_sets(self) -> list[frozenset]:
        return [frozenset(c) for c in self.cells.cliques]

    @cached_property
    def _cells_by_vertex(self) -> list[list[int]]:
        by_vertex: list[list[int]] = [[] for _ in range(self.coords.n)]
        for i, cell in enumerate(self.cells.cliques):
            for v in cell:
                by_vertex[v].append(i)
        return by_vertex

    def first_cell_containing(self, vertices: tuple[int, ...]) -> int | None:
        """Lowest index of a cell holding every vertex of a nonempty simplex.

        Any such cell holds the simplex's first vertex, so only the cells
        through that vertex are scanned, in ascending order.
        """
        if not 0 <= vertices[0] < self.coords.n:
            return None
        want = set(vertices)
        for j in self._cells_by_vertex[vertices[0]]:
            if want <= self.cell_sets[j]:
                return j
        return None


@dataclass
class NerveComplex:
    """Nerve of a convex cell system; vertex i stands for cell i."""

    complex: SimplicialComplex
    cells: CliqueList

    def to_json_dict(self) -> dict:
        out = self.complex.to_json_dict()
        out["cells"] = [list(c) for c in self.cells.cliques]
        return out


def hulls_intersect(system: ConvexCellSystem, ids) -> bool:
    """Do the convex hulls of the named cells share a common point?

    Exact rational feasibility; a shared vertex short-circuits to True and
    disjoint bounding boxes short-circuit to False, both of which are exact.
    """
    ids = sorted(set(int(i) for i in ids))
    if not ids:
        raise ValueError("need at least one cell id")
    count = len(system)
    for i in ids:
        if not 0 <= i < count:
            raise ValueError(f"cell id {i} out of range")
    if len(ids) == 1:
        return True
    return _common_point(system, tuple(ids))


def _common_point(system: ConvexCellSystem, ids: tuple[int, ...]) -> bool:
    """Exact decision for two or more distinct cell ids, cheapest test first.

    A shared vertex is a common point and disjoint boxes rule one out; only
    the cases left between them reach the rational LP.
    """
    sets = system.cell_sets
    common = sets[ids[0]]
    for i in ids[1:]:
        common = common & sets[i]
    if common:
        return True
    los, his = system.boxes
    idx = list(ids)
    if np.any(los[idx].max(axis=0) > his[idx].min(axis=0)):
        return False
    return _exact.hulls_common_point([system.cell_points(i) for i in ids])


def _box_overlap_pairs(los: np.ndarray, his: np.ndarray):
    """Index pairs i < j whose boxes overlap, in lexicographic order.

    One broadcast comparison per block of rows keeps memory at
    O(block * k) instead of O(k^2).
    """
    k, dim = los.shape
    for start in range(0, k, _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, k)
        ok = np.triu(np.ones((stop - start, k - start), dtype=bool), 1)
        for c in range(dim):
            lo = np.maximum(los[start:stop, c, None], los[None, start:, c])
            hi = np.minimum(his[start:stop, c, None], his[None, start:, c])
            ok &= lo <= hi
        rows, cols = np.nonzero(ok)
        yield from zip((rows + start).tolist(), (cols + start).tolist())


def build_nerve(system: ConvexCellSystem, cap: int = 2) -> NerveComplex:
    """Nerve of the cell cover up to dimension cap.

    Candidate edges are the box-overlapping cell pairs, found in bulk by a
    blocked broadcast test.  Each accepted edge enters the neighbour sets
    of its cells, and a simplex s is extended only by the cells after s[-1]
    that neighbour every cell of s (Zomorodian's incremental expansion).
    Every candidate is then decided exactly, as in `hulls_intersect`.
    """
    k = len(system)
    los, his = system.boxes
    # later_nbrs[i] holds the cells j > i that form a nerve edge with i
    later_nbrs: list[set[int]] = [set() for _ in range(k)]
    groups: dict[int, list[tuple[int, ...]]] = {0: [(i,) for i in range(k)]}
    frontier: list[tuple[int, ...]] = []
    if cap >= 1:
        for i, j in _box_overlap_pairs(los, his):
            if _common_point(system, (i, j)):
                later_nbrs[i].add(j)
                frontier.append((i, j))
        groups[1] = frontier
    for dim in range(2, cap + 1):
        nxt = []
        for s in frontier:
            common = later_nbrs[s[-1]]
            for v in s[:-1]:
                common = common & later_nbrs[v]
            for j in sorted(common):
                if _common_point(system, s + (j,)):
                    nxt.append(s + (j,))
        groups[dim] = sorted(nxt)
        frontier = nxt
    rows = {
        d: np.fromiter(chain.from_iterable(g), np.int64).reshape(len(g), d + 1)
        for d, g in groups.items()
    }
    nerve = SimplicialComplex(k, cap, rows)
    nerve.validate_face_closed()
    return NerveComplex(nerve, system.cells)


def nerve_coarsening_map(
    fine_system: ConvexCellSystem,
    fine_nerve: NerveComplex,
    coarse_system: ConvexCellSystem,
    coarse_nerve: NerveComplex,
) -> SimplicialMap:
    """Map each fine cell to the first coarse cell containing its vertex set.

    When the fine cells come from a smaller scale over the same points,
    every fine cell is contained in some coarse cell, and cells with a
    common hull point keep one after coarsening, so the assignment is
    simplicial (verified on construction).
    """
    if fine_system.coords.n != coarse_system.coords.n:
        raise ValueError("cell systems must share their vertex cloud")
    assignment = []
    for cell in fine_system.cells.cliques:
        j = coarse_system.first_cell_containing(cell)
        if j is None:
            raise ValueError(
                f"fine cell {cell} is not contained in any coarse cell; "
                "the systems are not nested"
            )
        assignment.append(j)
    return SimplicialMap(fine_nerve.complex, coarse_nerve.complex, tuple(assignment))


def _raster_once(system: ConvexCellSystem, resolution: int) -> tuple[int, int]:
    pts = system.coords.points
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    extent = float(max(hi - lo))
    if extent == 0.0:
        return (1, 0)
    h = extent / resolution
    lo = lo - h
    nx = int(math.ceil((hi[0] - lo[0]) / h)) + 2
    ny = int(math.ceil((hi[1] - lo[1]) / h)) + 2
    mask = np.zeros((ny, nx), dtype=bool)
    pad = 0.71 * h
    xs = lo[0] + (np.arange(nx) + 0.5) * h
    ys = lo[1] + (np.arange(ny) + 0.5) * h
    for i in range(len(system)):
        cpts = system.cell_points(i)
        cl = cpts.min(axis=0) - pad
        ch = cpts.max(axis=0) + pad
        ix = np.flatnonzero((xs >= cl[0]) & (xs <= ch[0]))
        iy = np.flatnonzero((ys >= cl[1]) & (ys <= ch[1]))
        if ix.size == 0 or iy.size == 0:
            continue
        gx, gy = np.meshgrid(xs[ix], ys[iy])
        plist = np.stack([gx.ravel(), gy.ravel()], axis=1)
        hull = _float_hull(cpts)
        near = _near_hull(plist, hull, pad)
        sub = near.reshape(gy.shape)
        mask[np.ix_(iy, ix)] |= sub
    fg_structure = np.ones((3, 3), dtype=bool)
    _, b0 = ndimage.label(mask, structure=fg_structure)
    bg_labels, nbg = ndimage.label(~mask)
    border = set(bg_labels[0, :]) | set(bg_labels[-1, :]) | set(bg_labels[:, 0]) | set(
        bg_labels[:, -1]
    )
    border.discard(0)
    b1 = nbg - len(border)
    return (int(b0), int(b1))


def _float_hull(points: np.ndarray) -> np.ndarray:
    """Counterclockwise planar hull; collinear inputs give a 2-point chain."""
    pts = np.unique(points, axis=0)
    if pts.shape[0] <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = np.array(lower[:-1] + upper[:-1])
    if hull.shape[0] < 3:
        return np.array([pts[0], pts[-1]])
    return hull


def _near_hull(plist: np.ndarray, hull: np.ndarray, pad: float) -> np.ndarray:
    """Which query points are inside the hull or within pad of its boundary."""
    m = hull.shape[0]
    if m == 1:
        return np.linalg.norm(plist - hull[0], axis=1) <= pad
    inside = np.ones(plist.shape[0], dtype=bool)
    near = np.zeros(plist.shape[0], dtype=bool)
    if m == 2:
        inside[:] = False
    edges = [(hull[i], hull[(i + 1) % m]) for i in range(m)] if m >= 3 else [
        (hull[0], hull[1])
    ]
    for a, b in edges:
        d = b - a
        if m >= 3:
            cr = d[0] * (plist[:, 1] - a[1]) - d[1] * (plist[:, 0] - a[0])
            inside &= cr >= 0
        seg2 = float(d @ d)
        t = np.clip(((plist - a) @ d) / seg2, 0.0, 1.0)
        proj = a + t[:, None] * d
        near |= np.linalg.norm(plist - proj, axis=1) <= pad
    return inside | near


def raster_betti_2d(system: ConvexCellSystem) -> tuple[int, int]:
    """Grid oracle for the Betti numbers of the union of planar cells.

    The union is drawn with one-pixel strokes, components are counted with
    8-connectivity and holes as bounded background components under
    4-connectivity, and the grid is refined until two consecutive
    resolutions agree.
    """
    if system.coords.dim != 2:
        raise ValueError("raster oracle is planar only")
    res = _RASTER_FIRST
    prev: tuple[int, int] | None = None
    while res <= _RASTER_LAST:
        cur = _raster_once(system, res)
        if prev is not None and cur == prev:
            return cur
        prev = cur
        res *= 2
    raise RasterInconclusiveError(
        f"raster Betti numbers failed to stabilize below resolution {_RASTER_LAST}"
    )
