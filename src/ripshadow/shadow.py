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

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from . import _exact
from .models import PointCloud
from .rips import CliqueList, SimplicialComplex, SimplicialMap, _flag_rows


_PAIR_BLOCK = 256


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

    def to_text(self) -> str:
        """The nerve file: the complex file of the nerve with ``cells``,
        one vertex list per cell, as ``json.dumps`` renders it."""
        return self.complex._file_text({"cells": [list(c) for c in self.cells.cliques]})


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
