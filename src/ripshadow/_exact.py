"""Exact rational predicates over binary-float inputs.

Every decision is one phase-1 simplex solved by integer pivoting on exactly
scaled float inputs: each row is scaled to integers by the lcm of its
entries' denominators (a power of two for floats), and the tableau stays
integral by fraction-free pivoting (Bareiss, as in Avis's ``lrs``).  Nothing
is rounded, so every decision is a statement about the actual stored
coordinates.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np


def fractionize(row) -> list[Fraction]:
    return [Fraction(float(v)) for v in row]


def _python_floats(points: np.ndarray) -> list:
    """The array as nested lists of Python floats.  The first NaN or
    infinity in row order raises what its exact conversion raises:
    ValueError for NaN, OverflowError for an infinity."""
    if not np.isfinite(points).all():
        for v in points.flat:
            float(v).as_integer_ratio()
    return points.tolist()


def _integer_row(row, b) -> list[int]:
    """The row and its right-hand side b, times the lcm of their
    denominators, negated when b is negative."""
    pairs = [v.as_integer_ratio() for v in row]
    pairs.append(b.as_integer_ratio())
    scale = lcm(*[d for _, d in pairs])
    out = [num * (scale // d) for num, d in pairs]
    return [-v for v in out] if out[-1] < 0 else out


def feasible_nonneg_eq(rows: list[list], rhs: list) -> bool:
    """Is there x >= 0 with A x = b?  Phase-1 simplex with Bland's rule.

    Entries are ints, Fractions or floats, each taken exactly.  Scaling a
    row and its right-hand side changes no solution, so each row is scaled
    to integers.  The tableau holds [A | b] and a last row of reduced costs
    and -w, w the sum of the artificial variables that form the starting
    basis; every entry is its true value times ``det``, the last pivot, so a
    pivot keeps it integral with one exact division.  An artificial that
    leaves the basis is dropped: the system is feasible exactly when the
    remaining artificials can be driven to zero.
    """
    m = len(rows)
    if m == 0:
        return True
    n = len(rows[0])
    tab = [_integer_row(row, b) for row, b in zip(rows, rhs)]
    tab.append([-sum(col) for col in zip(*tab)])
    obj = tab[-1]
    basis = list(range(n, n + m))  # the artificials get the indices after x
    det = 1
    while obj[-1]:  # w > 0
        enter = -1
        for j in range(n):  # Bland: smallest index with negative cost
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return False
        # min-ratio test on b_i / a_i over a_i > 0, by cross-multiplication
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                ours = tab[i][-1] * tab[leave][enter]
                theirs = tab[leave][-1] * a
                if ours < theirs or (ours == theirs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # minimization of a sum of nonnegative variables cannot be
            # unbounded; defensive guard
            raise ArithmeticError("phase-1 simplex reported an unbounded column")
        prow = tab[leave]
        p = prow[enter]  # positive, like det: every division below is exact
        for i in range(m + 1):
            if i != leave:
                f = tab[i][enter]
                tab[i] = [(v * p - f * w) // det for v, w in zip(tab[i], prow)]
        obj = tab[-1]
        det = p
        basis[leave] = enter
    return True


def hulls_common_point(cells: list[np.ndarray]) -> bool:
    """Do the convex hulls of all the given point sets share a point?

    Feasibility of: barycentric weights per cell, each summing to one, with
    all weighted centroids equal coordinate-wise.
    """
    k = len(cells)
    if k == 0:
        raise ValueError("need at least one cell")
    mats = [np.atleast_2d(np.asarray(c, dtype=float)) for c in cells]
    dim = mats[0].shape[1]
    for m in mats:
        if m.shape[1] != dim:
            raise ValueError("cells live in different ambient dimensions")
        if m.shape[0] == 0:
            raise ValueError("empty cell")
    if k == 1:
        return True
    sizes = [m.shape[0] for m in mats]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    total = offsets[-1]
    # coordinate-major: cols[ci][c] lists cell ci's c-th coordinates
    cols = [list(zip(*_python_floats(m))) for m in mats]
    rows: list[list] = []
    rhs: list = []
    for ci in range(k):
        row = [0] * total
        row[offsets[ci] : offsets[ci + 1]] = [1] * sizes[ci]
        rows.append(row)
        rhs.append(1)
    for ci in range(1, k):
        for c in range(dim):
            row = [0] * total
            row[: sizes[0]] = cols[0][c]
            row[offsets[ci] : offsets[ci + 1]] = [-v for v in cols[ci][c]]
            rows.append(row)
            rhs.append(0)
    return feasible_nonneg_eq(rows, rhs)


def point_in_hull(point, vertices) -> bool:
    """Is the point a convex combination of the vertices?  Exact."""
    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    p = _python_floats(np.asarray(point, dtype=float))
    k, dim = verts.shape
    if len(p) != dim:
        raise ValueError("dimension mismatch")
    return feasible_nonneg_eq([[1] * k, *zip(*_python_floats(verts))], [1, *p])


def segments_intersect(a0, a1, b0, b1) -> bool:
    """Do two closed segments (any ambient dimension) share a point?  Exact."""
    return hulls_common_point([np.array([a0, a1]), np.array([b0, b1])])


def point_on_segment(x, a, b) -> bool:
    return point_in_hull(x, np.array([a, b]))


def convex_hull_2d(points: list[list[Fraction]]) -> list[list[Fraction]]:
    """Monotone chain over exact coordinates; collinear sets give 2 points."""
    pts = sorted({(p[0], p[1]) for p in points})
    if len(pts) <= 2:
        return [list(p) for p in pts]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # everything collinear
        return [list(pts[0]), list(pts[-1])]
    return [list(p) for p in hull]


def point_in_hull_2d(point, vertices) -> bool:
    """Exact 2-d membership via hull edges; independent of the simplex solver."""
    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    if verts.shape[1] != 2:
        raise ValueError("point_in_hull_2d needs planar input")
    p = fractionize(np.asarray(point, dtype=float))
    frs = [fractionize(row) for row in verts]
    hull = convex_hull_2d(frs)
    if len(hull) == 1:
        return p[0] == hull[0][0] and p[1] == hull[0][1]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    if len(hull) == 2:
        a, b = hull
        if cross(a, b, p) != 0:
            return False
        dot = (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])
        sq = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
        return 0 <= dot <= sq
    for i in range(len(hull)):
        a = hull[i]
        b = hull[(i + 1) % len(hull)]
        if cross(a, b, p) < 0:
            return False
    return True
