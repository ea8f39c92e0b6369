"""Euclidean shadows of complexes, realized as nerves of convex cells.

The shadow of a complex with embedded vertices is the union of the convex
hulls of its simplices, which equals the union over maximal cells.  Those
hulls form a finite closed convex cover of the shadow, so the nerve of the
cover carries the shadow's homotopy type.  Every hull intersection is
decided in one place, `hulls_intersect`, on arrays of cell-id rows: shared
vertices and disjoint boxes settle most rows exactly, and exact rational
feasibility settles the rest; floating point only prunes candidates.  Every
containment of a vertex set in a cell is looked up in one place,
`ConvexCellSystem.first_cells_containing`.
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
from .rips import CliqueList, SimplicialComplex, SimplicialMap, _flag_rows


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
    def _members(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell index and vertex of every (cell, vertex) incidence, cell by cell."""
        cliques = self.cells.cliques
        sizes = np.fromiter(map(len, cliques), dtype=np.intp, count=len(cliques))
        flat = np.fromiter(chain.from_iterable(cliques), dtype=np.intp, count=int(sizes.sum()))
        return np.repeat(np.arange(len(cliques)), sizes), flat

    @cached_property
    def boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell coordinate-wise minima and maxima, each of shape (k, dim).

        Min and max are exact, so box tests on these prune without rounding.
        """
        cell, flat = self._members
        pts = self.coords.points[flat]
        starts = np.searchsorted(cell, np.arange(len(self)))
        return np.minimum.reduceat(pts, starts, axis=0), np.maximum.reduceat(pts, starts, axis=0)

    @cached_property
    def incidence(self) -> np.ndarray:
        """Cell-vertex incidence, one ``np.packbits`` row of vertex bits per cell."""
        inc = np.zeros((len(self), self.coords.n), bool)
        inc[self._members] = True
        return np.packbits(inc, axis=1)

    @cached_property
    def _cells_at(self) -> np.ndarray:
        """The incidence transposed: one little-endian ``np.packbits`` row
        of cell bits per vertex."""
        cell, flat = self._members
        at = np.zeros((self.coords.n, len(self)), bool)
        at[flat, cell] = True
        return np.packbits(at, axis=1, bitorder="little")

    def first_cells_containing(self, rows) -> np.ndarray:
        """Lowest index of a cell holding every vertex of each row of an
        (m, d) vertex array, or -1 where no cell does.

        The cells holding a row are the AND of its vertices' packed cell
        bits, so each temporary takes one bit per (row, cell).  A row with
        a vertex out of range is held by no cell.
        """
        rows = np.asarray(rows, dtype=np.intp)
        ok = (rows >= 0) & (rows < self.coords.n)
        safe = np.where(ok, rows, 0)
        held = self._cells_at[safe[:, 0]]
        for c in range(1, rows.shape[1]):
            held &= self._cells_at[safe[:, c]]
        held[~ok.all(axis=1)] = 0
        nonzero = held != 0
        byte = nonzero.argmax(axis=1)
        first = held[np.arange(len(held)), byte]
        bit = np.unpackbits(first[:, None], axis=1, bitorder="little").argmax(axis=1)
        return np.where(nonzero.any(axis=1), 8 * byte + bit, -1)


@dataclass
class NerveComplex:
    """Nerve of a convex cell system; vertex i stands for cell i."""

    complex: SimplicialComplex
    cells: CliqueList

    def to_json_dict(self) -> dict:
        out = self.complex.to_json_dict()
        out["cells"] = [list(c) for c in self.cells.cliques]
        return out


def _box_overlap_pairs(los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), i < j, of the cell pairs whose boxes overlap, in
    lexicographic order.

    One broadcast comparison per block of rows keeps memory at
    O(block * k) instead of O(k^2).
    """
    k, dim = los.shape
    firsts, seconds = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for start in range(0, k, _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, k)
        ok = np.triu(np.ones((stop - start, k - start), dtype=bool), 1)
        for c in range(dim):
            lo = np.maximum(los[start:stop, c, None], los[None, start:, c])
            hi = np.minimum(his[start:stop, c, None], his[None, start:, c])
            ok &= lo <= hi
        rows, cols = np.nonzero(ok)
        firsts.append(rows + start)
        seconds.append(cols + start)
    return np.concatenate(firsts), np.concatenate(seconds)


def hulls_intersect(system: ConvexCellSystem, rows) -> np.ndarray:
    """Whether the convex hulls of the cells of each row share a point.

    ``rows`` is an (r, k) array of cell ids, k >= 1; the answer is one bool
    per row, decided exactly.  A shared vertex, read from the packed
    incidence, is a common point, and disjoint bounding boxes rule one out;
    only the rows left between them reach the rational LP of
    ``_exact.hulls_common_point``, one at a time.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise ValueError("need an (r, k) array of cell ids, k >= 1")
    bad = (rows < 0) | (rows >= len(system))
    if bad.any():
        raise ValueError(f"cell id {rows[bad][0]} out of range")
    inc = system.incidence
    common = inc[rows[:, 0]]
    for c in range(1, rows.shape[1]):
        common &= inc[rows[:, c]]
    met = common.any(axis=1)
    rest = np.flatnonzero(~met)
    los, his = system.boxes
    sub = rows[rest]
    rest = rest[np.all(los[sub].max(axis=1) <= his[sub].min(axis=1), axis=1)]
    for r in rest.tolist():
        met[r] = _exact.hulls_common_point([system.cell_points(i) for i in rows[r].tolist()])
    return met


def build_nerve(system: ConvexCellSystem, cap: int = 2) -> NerveComplex:
    """Nerve of the cell cover up to dimension cap.

    Candidate edges are the box-overlapping cell pairs, found in bulk by a
    blocked broadcast test.  The nerve is the flag expansion
    ``rips._flag_rows`` of that candidate graph with every level filtered
    once by the exact decision of `hulls_intersect`.
    Every face of a nerve simplex is in the nerve, its prefix and its
    edges included, so each level's candidates hold all of that level's
    nerve simplices, and the filter keeps exactly those.
    """
    k = len(system)
    cand = np.zeros((k, k), bool)
    cand[_box_overlap_pairs(*system.boxes)] = True
    rows = {0: np.arange(k, dtype=np.int64)[:, None]}
    rows.update(_flag_rows(cand, cap, keep=lambda r: hulls_intersect(system, r)))
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
    cells = fine_system.cells.cliques
    width = max(map(len, cells), default=1)
    # each cell padded with its first vertex, which leaves its vertex set as it is
    rows = np.array([c + c[:1] * (width - len(c)) for c in cells], np.intp).reshape(-1, width)
    assignment = coarse_system.first_cells_containing(rows)
    if (assignment < 0).any():
        raise ValueError(
            f"fine cell {cells[int(np.argmax(assignment < 0))]} is not contained "
            "in any coarse cell; the systems are not nested"
        )
    return SimplicialMap(fine_nerve.complex, coarse_nerve.complex, assignment)


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
