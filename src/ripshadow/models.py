"""Ground-truth model spaces: circle, trefoil knot, embedded graphs.

Each model carries an arc-length parametrization, a nearest-point
projection, a geodesic metric, and the regularity constants consumed by
the scale-condition checker:

* ``tube_radius``        largest noise amplitude for which nearest-point
                         projection stays well defined,
* ``normal_clearance``   largest radius at which the normal slice through
                         any model point meets the model only at that point,
* ``homotopy_radius``    pointwise closeness under which two maps into the
                         model are homotopic,
* ``distortion(c)``      bound on geodesic/Euclidean ratio for point pairs
                         whose Euclidean distance is below ``c``.

For the circle all constants are closed form.  For the trefoil and for
embedded graphs they are certified numerically from dense parameter
tables.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial.distance import cdist


class AmbiguousProjectionError(ValueError):
    """Raised when a point sits on the medial axis of a model; ``row`` is
    the index of the first such point of a projected batch."""

    row: int | None = None


def _finite_rows(X) -> np.ndarray:
    """X as a float array; a ``ValueError`` names its first row with a
    non-finite coordinate, which has no nearest model point."""
    X = np.asarray(X, dtype=float)
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"row {bad[0]} has a non-finite coordinate")
    return X


# ---------------------------------------------------------------------------
# point containers


@dataclass(frozen=True)
class PointCloud:
    """A finite ordered list of points in Euclidean space, shape (n, dim)."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("point cloud must be a 2-d array of shape (n, dim)")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def from_csv(cls, path: str) -> "PointCloud":
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                rows.append([float(tok) for tok in line.split(",")])
        if not rows:
            raise ValueError(f"no points found in {path}")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError(f"inconsistent column counts in {path}")
        return cls(np.array(rows, dtype=float))


@dataclass(frozen=True)
class MetricMatrix:
    """Symmetric pairwise-distance matrix; +inf marks disconnected pairs."""

    d: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.d, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("metric matrix must be square")
        if np.any(np.isnan(mat)):
            raise ValueError("metric matrix contains NaN")
        if mat.size and np.any(np.diag(mat) != 0.0):
            raise ValueError("metric matrix has nonzero diagonal")
        if not np.array_equal(mat, mat.T):
            raise ValueError("metric matrix is not symmetric")
        if np.any(mat < 0.0):
            raise ValueError("metric matrix has negative entries")
        object.__setattr__(self, "d", mat)

    @property
    def n(self) -> int:
        return self.d.shape[0]


def _symmetric(d: np.ndarray) -> np.ndarray:
    """A square distance matrix with its diagonal zeroed in place, then
    each pair's two entries replaced by the smaller."""
    np.fill_diagonal(d, 0.0)
    return np.minimum(d, d.T)


def euclidean_metric(cloud: PointCloud) -> MetricMatrix:
    if cloud.n == 0:
        return MetricMatrix(np.zeros((0, 0)))
    return MetricMatrix(_symmetric(cdist(cloud.points, cloud.points)))


def epsilon_path_metric(cloud: PointCloud, eps: float) -> MetricMatrix:
    """Shortest-path metric over the graph joining pairs closer than ``eps``.

    Pairs in different graph components get +inf.  For pairs whose straight
    distance is below ``eps`` the value is that straight distance exactly
    (the direct edge is a path, and no path of straight segments can be
    shorter than the straight line); we pin those entries to the chord to
    keep the identity free of shortest-path rounding.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = cloud.n
    if n == 0:
        return MetricMatrix(np.zeros((0, 0)))
    w = _symmetric(cdist(cloud.points, cloud.points))
    mask = w < eps
    np.fill_diagonal(mask, False)
    graph = csr_matrix(np.where(mask, w, 0.0))
    d = dijkstra(graph, directed=False)
    # chords are exact lower bounds on any path length
    d = np.maximum(d, w)
    d[mask] = w[mask]
    return MetricMatrix(_symmetric(d))


# ---------------------------------------------------------------------------
# models


class Model:
    """Base class: a compact subset of Euclidean space with arc-length
    coordinates in [0, length)."""

    kind: str = "abstract"

    # geometry -------------------------------------------------------------
    @property
    def dim(self) -> int:
        raise NotImplementedError

    @property
    def length(self) -> float:
        raise NotImplementedError

    def points_at(self, ts) -> np.ndarray:
        """The model point at each arc parameter of ts, one row each."""
        raise NotImplementedError

    def tangent_at(self, ts) -> np.ndarray:
        """The unit tangent at each arc parameter of ts, one row each."""
        raise NotImplementedError

    def project(self, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nearest model point of every row of X, shape (n, dim): (points,
        params, distances).  An ``AmbiguousProjectionError`` names the first
        row on the model's medial axis, and a ``ValueError`` the first row
        with a non-finite coordinate."""
        raise NotImplementedError

    def geodesic_param_distance(self, t1, t2):
        """Shortest arc between parameters of a closed curve; broadcasts."""
        return _arc_distance(np.asarray(t1), np.asarray(t2), self.length)

    def covering_radius(self, params: np.ndarray) -> float:
        """Largest distance from a point of a closed curve to its nearest
        parameter, rounded up one ulp: half the largest circular gap
        between the sorted parameters."""
        p = np.sort(params % self.length)
        # p[0] - (p[-1] - length) rounds once, p[0] + (length - p[-1]) twice
        gaps = np.append(np.diff(p), p[0] - (p[-1] - self.length))
        return float(np.nextafter(gaps.max() / 2.0, math.inf))

    def geodesic_metric(self, cloud: PointCloud) -> MetricMatrix:
        params = self.project(cloud.points)[1]
        d = self.geodesic_param_distance(params[:, None], params[None, :])
        return MetricMatrix(_symmetric(np.asarray(d, dtype=float)))

    # constants ------------------------------------------------------------
    @property
    def tube_radius(self) -> float:
        raise NotImplementedError

    @property
    def normal_clearance(self) -> float:
        raise NotImplementedError

    @property
    def homotopy_radius(self) -> float:
        raise NotImplementedError

    def _pair_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """Arc parameters and points of the distortion table."""
        raise NotImplementedError

    @cached_property
    def _pair_tables(self):
        params, pts = self._pair_samples()
        geo = self.geodesic_param_distance(params[:, None], params[None, :])
        return cdist(pts, pts), np.asarray(geo)

    @cached_property
    def max_chord_bound(self) -> float:
        """The largest chord of the distortion table, less 0.1 %; one scan
        of the table, on the first read."""
        chord, _ = self._pair_tables
        return float(chord.max()) * 0.999

    def distortion(self, chord_bound: float) -> float:
        """Largest geodesic/chord ratio of the table's pairs under the bound,
        with a 1.02 margin; infinite when such a pair is disconnected."""
        if not 0.0 < chord_bound <= self.max_chord_bound:
            raise ValueError(f"chord bound out of range (0, {self.max_chord_bound}]")
        chord, geo = self._pair_tables
        mask = (chord > 1e-12 * max(1.0, self.length)) & (chord < chord_bound)
        if not np.any(mask):
            return 1.0
        vals = geo[mask] / chord[mask]
        if not np.all(np.isfinite(vals)):
            return math.inf
        return float(np.max(vals)) * 1.02

    def betti(self) -> tuple[int, int]:
        raise NotImplementedError

    def is_closed_curve(self) -> bool:
        return False

    # serialization ----------------------------------------------------------
    def to_spec_json(self) -> dict:
        raise NotImplementedError


_atan2 = np.frompyfunc(math.atan2, 2, 1)
_sin = np.frompyfunc(math.sin, 1, 1)
_cos = np.frompyfunc(math.cos, 1, 1)


class Circle(Model):
    """Round circle of a given radius, embedded in the first two coordinates."""

    kind = "circle"

    def __init__(self, radius: float = 1.0, center=None, dim: int = 2):
        if radius <= 0:
            raise ValueError("radius must be positive")
        if dim < 2:
            raise ValueError("circle needs ambient dimension >= 2")
        self.radius = float(radius)
        self._dim = int(dim)
        if center is None:
            center = np.zeros(self._dim)
        self.center = np.asarray(center, dtype=float)
        if self.center.shape != (self._dim,):
            raise ValueError("center has wrong dimension")

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def length(self) -> float:
        return 2.0 * math.pi * self.radius

    def points_at(self, ts) -> np.ndarray:
        theta = (np.asarray(ts, dtype=float) % self.length) / self.radius
        p = np.tile(self.center, (len(theta), 1))
        p[:, 0] += self.radius * np.cos(theta)
        p[:, 1] += self.radius * np.sin(theta)
        return p

    def tangent_at(self, ts) -> np.ndarray:
        theta = (np.asarray(ts, dtype=float) % self.length) / self.radius
        v = np.zeros((len(theta), self._dim))
        # math.sin and math.cos, element by element: np.sin rounds differently
        v[:, 0] = -_sin(theta).astype(float)
        v[:, 1] = _cos(theta).astype(float)
        return v

    def project(self, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        X = _finite_rows(X)
        u = X[:, :2] - self.center[:2]
        nu = np.hypot(u[:, 0], u[:, 1])
        axis = np.flatnonzero(nu <= 1e-12 * max(1.0, self.radius))
        if axis.size:
            exc = AmbiguousProjectionError(
                "point lies on the circle's axis; projection is ambiguous"
            )
            exc.row = int(axis[0])
            raise exc
        p = np.tile(self.center, (len(X), 1))
        p[:, 0] += self.radius * u[:, 0] / nu
        p[:, 1] += self.radius * u[:, 1] / nu
        # math.atan2, element by element: np.arctan2 rounds differently
        angle = _atan2(u[:, 1], u[:, 0]).astype(float)
        diff = X - p
        return p, (angle % (2.0 * math.pi)) * self.radius, np.sqrt(np.vecdot(diff, diff))

    @property
    def tube_radius(self) -> float:
        return self.radius

    @property
    def normal_clearance(self) -> float:
        # the normal line at p re-enters the circle only at the antipode
        return 2.0 * self.radius

    @property
    def homotopy_radius(self) -> float:
        # below half the circumference, geodesic interpolation is unique
        return math.pi * self.radius

    @property
    def max_chord_bound(self) -> float:
        return 2.0 * self.radius

    def distortion(self, chord_bound: float) -> float:
        if not 0.0 < chord_bound <= 2.0 * self.radius:
            raise ValueError(
                f"chord bound must lie in (0, {2 * self.radius}]; got {chord_bound}"
            )
        ratio = chord_bound / (2.0 * self.radius)
        return 2.0 * self.radius * math.asin(ratio) / chord_bound

    def betti(self) -> tuple[int, int]:
        return (1, 1)

    def is_closed_curve(self) -> bool:
        return True

    def to_spec_json(self) -> dict:
        return {
            "kind": "circle",
            "params": {
                "radius": self.radius,
                "center": [float(v) for v in self.center],
                "dim": self._dim,
            },
        }


def _trefoil_point(u, scale):
    u = np.asarray(u, dtype=float)
    return scale * np.stack(
        [
            np.sin(u) + 2.0 * np.sin(2.0 * u),
            np.cos(u) - 2.0 * np.cos(2.0 * u),
            -np.sin(3.0 * u),
        ],
        axis=-1,
    )


def _trefoil_d1(u, scale):
    u = np.asarray(u, dtype=float)
    return scale * np.stack(
        [
            np.cos(u) + 4.0 * np.cos(2.0 * u),
            -np.sin(u) + 4.0 * np.sin(2.0 * u),
            -3.0 * np.cos(3.0 * u),
        ],
        axis=-1,
    )


def _trefoil_d2(u, scale):
    u = np.asarray(u, dtype=float)
    return scale * np.stack(
        [
            -np.sin(u) - 8.0 * np.sin(2.0 * u),
            -np.cos(u) + 8.0 * np.cos(2.0 * u),
            9.0 * np.sin(3.0 * u),
        ],
        axis=-1,
    )


def _second_to_eighth_nearest(d2: np.ndarray) -> np.ndarray:
    """Columns of the 2nd to 8th smallest entries of each row of d2, by
    value: a partition picks the nine smallest, and only those are sorted."""
    nine = np.argpartition(d2, 8, axis=1)[:, :9]
    order = np.argsort(np.take_along_axis(d2, nine, axis=1), axis=1)
    return np.take_along_axis(nine, order[:, 1:8], axis=1)


def _tile_spheres(items: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Centre and radius of a sphere around each run of ``size`` consecutive
    items of an (n, k, dim) array, an item being the hull of its k points.
    The radius is padded by 1e-9 of the tile's extent from the origin, far
    above the rounding of any distance computed from these coordinates."""
    n, k, _ = items.shape
    starts = np.arange(0, n, size)
    counts = np.diff(np.append(starts, n)) * k
    centres = np.add.reduceat(items.sum(axis=1), starts) / counts[:, None]
    reach = np.linalg.norm(items - centres[np.arange(n) // size, None], axis=-1)
    radii = np.maximum.reduceat(reach.max(axis=1), starts)
    return centres, radii + 1e-9 * (radii + np.linalg.norm(centres, axis=1))


def _near_tile_pairs(centre_d: np.ndarray, ra: np.ndarray, rb: np.ndarray, bound):
    """Tile pairs (row tile, column tile) whose spheres may hold a point
    pair within ``bound``: those with ``|c1 - c2| - r1 - r2 <= bound``.

    ``centre_d`` is the ``cdist`` of the two tilings' sphere centres and
    ``ra``, ``rb`` their radii, as ``_tile_spheres`` gives them; ``bound``
    is one number or one per row tile.  Returns two index arrays, sorted
    by row tile.
    """
    gap = centre_d - ra[:, None] - rb[None, :]
    return np.nonzero(gap <= np.reshape(bound, (-1, 1)))


def _arc_distance(a, b, length: float):
    """Distance along a closed curve of the given length between the arc
    positions a and b."""
    d = np.abs(b - a) % length
    return np.minimum(d, length - d)


def _may_hold_far_pairs(base_arcs: np.ndarray, scan_arcs: np.ndarray, excl: float, length: float):
    """Whether each tile pair may hold a base/scan pair more than ``excl``
    apart along the curve; row i pairs the base arcs ``base_arcs[i]`` with
    the scan arcs ``scan_arcs[i]``, each a run of consecutive samples.

    Only the four corner pairs are read.  Arc length is monotone along a
    tile, and a tile is far shorter than the gap between the exclusion
    zones, so no arc distance inside exceeds the largest at the corners.
    The margin is far above the rounding of any arc distance.
    """
    corners = _arc_distance(base_arcs[:, [0, -1], None], scan_arcs[:, None, [0, -1]], length)
    return np.any(corners >= excl - 1e-9 * length, axis=(1, 2))


class Trefoil(Model):
    """Trefoil knot  scale * (sin u + 2 sin 2u, cos u - 2 cos 2u, -sin 3u).

    Arc length is tabulated on a dense parameter grid.  Projection takes a
    batch: a coarse scan over those of ``_SCAN`` curve points, in tiles of
    ``_TILE``, that can be among a row's nine nearest, ``_BLOCK`` query rows
    at a time to bound memory, then golden-section refinement of all rows
    at once, and of far scan minima that may tie with it (ambiguity test).
    """

    kind = "trefoil"
    _TABLE = 8192
    _SCAN = 4096
    _BLOCK = 32
    _PAIRS = 1024
    _TILE = 16
    _PROBE = 64

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)

    @property
    def dim(self) -> int:
        return 3

    @cached_property
    def _arc_table(self):
        u = np.linspace(0.0, 2.0 * math.pi, self._TABLE + 1)
        speed = np.linalg.norm(_trefoil_d1(u, self.scale), axis=-1)
        # trapezoid cumulative arc length over the parameter grid
        du = u[1] - u[0]
        seg = 0.5 * (speed[:-1] + speed[1:]) * du
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        return u, cum

    @property
    def length(self) -> float:
        return float(self._arc_table[1][-1])

    def _param_of_arc(self, t):
        u, cum = self._arc_table
        t = np.asarray(t, dtype=float) % cum[-1]
        return np.interp(t, cum, u)

    def _arc_of_param(self, uu):
        u, cum = self._arc_table
        return np.interp(np.asarray(uu, dtype=float) % (2.0 * math.pi), u, cum)

    def points_at(self, ts) -> np.ndarray:
        return _trefoil_point(self._param_of_arc(ts), self.scale)

    def tangent_at(self, ts) -> np.ndarray:
        d = _trefoil_d1(self._param_of_arc(ts), self.scale)
        return d / np.sqrt(np.vecdot(d, d))[:, None]

    @cached_property
    def _scan_points(self):
        u = np.linspace(0.0, 2.0 * math.pi, self._SCAN, endpoint=False)
        return u, _trefoil_point(u, self.scale)

    @cached_property
    def _scan_tiles(self):
        return _tile_spheres(self._scan_points[1][:, None], self._TILE)

    def _nearest_scan_points(self, X):
        """Column of the nearest scan point of each row of X, and the columns
        and squared distances of the 2nd to 8th nearest.

        Each ``_BLOCK`` of rows first scans the tile whose centre is nearest
        to each row; the 9th smallest distance there bounds the row's 9th
        smallest over all scan points.  Only the tiles whose spheres come
        within that bound of some row of the block are scanned, in column
        order, so every entry, minimum and tie is that of a full scan.
        """
        pts = self._scan_points[1]
        centres, radii = self._scan_tiles
        size, n = self._TILE, len(X)
        best = np.zeros(n, dtype=np.intp)
        near, near_d2 = np.zeros((n, 7), dtype=np.intp), np.zeros((n, 7))

        def sq_dist(x, cols):
            # summed coordinate by coordinate, in np.sum's order, as 2-d arrays
            return sum((pts[cols, c] - x[:, c, None]) ** 2 for c in range(3))

        for lo in range(0, n, self._BLOCK):
            blk = slice(lo, lo + self._BLOCK)
            centre_d = cdist(X[blk], centres)
            own = np.argmin(centre_d, axis=1)[:, None] * size + np.arange(size)
            ninth = np.sqrt(np.partition(sq_dist(X[blk], own), 8, axis=1)[:, 8])
            # padded far above the rounding of the distances and the centres
            bound = ninth[:, None] + 1e-9 * (ninth[:, None] + centre_d)
            # a tile is left out only where every row proves it too far, so a
            # row without a bound (not finite) scans every tile
            tiles = np.flatnonzero(~np.all(centre_d - radii > bound, axis=0))
            cols = (tiles[:, None] * size + np.arange(size)).ravel()
            d2 = sq_dist(X[blk], cols)
            best[blk] = cols[np.argmin(d2, axis=1)]
            nearest = _second_to_eighth_nearest(d2)
            near[blk] = cols[nearest]
            near_d2[blk] = np.take_along_axis(d2, nearest, axis=1)
        return best, near, near_d2

    def project(self, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        X = _finite_rows(X)
        s = self.scale
        u_grid = self._scan_points[0]
        h = 2.0 * math.pi / self._SCAN
        best, near, near_d2 = self._nearest_scan_points(X)
        u, f = self._golden(X, u_grid[best] - 2 * h, u_grid[best] + 2 * h)
        # ambiguity: another scan minimum, far away in parameter, equally close
        du = np.abs(u_grid[near] - u_grid[best][:, None]) % (2.0 * math.pi)
        du = np.minimum(du, 2.0 * math.pi - du)
        slack = f + 1e-7 * s**2 + 4.0 * h * s * np.sqrt(f) + 40.0 * h**2 * s**2
        rows, cols = np.nonzero((du > 4 * h) & (near_d2 <= slack[:, None]))
        if rows.size:
            alt = u_grid[near[rows, cols]]
            alt_u, alt_f = self._golden(X[rows], alt - 2 * h, alt + 2 * h)
            gap = _trefoil_point(u[rows], s) - _trefoil_point(alt_u, s)
            tied = np.abs(np.sqrt(alt_f) - np.sqrt(f[rows])) < 1e-9 * s
            apart = np.sqrt(np.vecdot(gap, gap)) > 1e-6 * s
            if np.any(tied & apart):
                msg = "point is equidistant from two separated strands"
                exc = AmbiguousProjectionError(msg)
                exc.row = int(rows[tied & apart].min())
                raise exc
        p = _trefoil_point(u, s)
        diff = X - p
        return p, self._arc_of_param(u), np.sqrt(np.vecdot(diff, diff))

    def _golden(self, X, a, b):
        """Golden-section search for the nearest parameter in [a, b], every
        row at once; each row stops once its own bracket is 1e-12 wide."""
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = np.array(a, dtype=float), np.array(b, dtype=float)

        def f(u, x):
            return np.sum((_trefoil_point(u, self.scale) - x) ** 2, axis=-1)

        c, d = b - phi * (b - a), a + phi * (b - a)
        fc, fd = f(c, X), f(d, X)
        live = np.flatnonzero(b - a > 1e-12)
        while live.size:
            cl, dl, fcl, fdl = c[live], d[live], fc[live], fd[live]
            left = fcl < fdl
            # left: [a, d] keeps c as its upper probe; right: [c, b] keeps d
            na, nb = np.where(left, a[live], cl), np.where(left, dl, b[live])
            probe = np.where(left, nb - phi * (nb - na), na + phi * (nb - na))
            fp = f(probe, X[live])
            c[live], d[live] = np.where(left, probe, dl), np.where(left, cl, probe)
            fc[live], fd[live] = np.where(left, fp, fdl), np.where(left, fcl, fp)
            a[live], b[live] = na, nb
            live = live[b[live] - a[live] > 1e-12]
        u = 0.5 * (a + b)
        return u, f(u, X)

    @cached_property
    def _curvature_max(self) -> float:
        u = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        d1 = _trefoil_d1(u, self.scale)
        d2 = _trefoil_d2(u, self.scale)
        num = np.linalg.norm(np.cross(d1, d2), axis=-1)
        den = np.linalg.norm(d1, axis=-1) ** 3
        return float(np.max(num / den)) * 1.02

    def _pair_samples(self):
        u = np.linspace(0.0, 2.0 * math.pi, self._PAIRS, endpoint=False)
        return self._arc_of_param(u), _trefoil_point(u, self.scale)

    @cached_property
    def _clearance_numbers(self):
        """Scan normal-plane crossings to certify clearance and separation.

        Both are exact minima over all 2048 x 4096 base/scan pairs, taken
        only where they can be attained.  A full scan of every
        ``_PROBE``-th base row bounds each minimum from above.  A crossing
        between scan points j and j+1 lies within ``h * max speed`` of
        scan point j, so only tile pairs within the separation bound or
        within the clearance bound plus twice that can hold a minimum, and
        of those only the ones that ``_may_hold_far_pairs`` keeps.
        """
        kappa = self._curvature_max
        length = self.length
        excl = min(0.5 * math.pi / kappa * 0.98, length / 4.0)
        n_base, n_scan, size = 2048, 4096, self._TILE
        ub = np.linspace(0.0, 2.0 * math.pi, n_base, endpoint=False)
        us = np.linspace(0.0, 2.0 * math.pi, n_scan, endpoint=False)
        base_pts = _trefoil_point(ub, self.scale)
        base_tan = _trefoil_d1(ub, self.scale)
        base_tan /= np.linalg.norm(base_tan, axis=-1, keepdims=True)
        scan_pts = _trefoil_point(us, self.scale)
        base_arc = self._arc_of_param(ub)
        scan_arc = self._arc_of_param(us)
        # each scan tile's columns and the next column, which it reads for crossings
        tile_cols = (np.arange(0, n_scan, size)[:, None] + np.arange(size + 1)) % n_scan

        def scan(rows, cols):
            """(clearance, separation) minima of base rows against tiles of
            scan columns: ``cols[i]`` holds the tiles of row ``rows[i]``, or
            of every row when ``cols`` has one."""
            far = _arc_distance(base_arc[rows, None, None], scan_arc[cols], length) > excl
            cols = np.broadcast_to(cols, far.shape)
            diff = scan_pts[cols] - base_pts[rows, None, None]
            # one BLAS matrix-vector product per row, as in a full row scan
            g = np.matmul(diff.reshape(len(rows), -1, 3), base_tan[rows, :, None])
            g = g.reshape(far.shape)
            dist = np.linalg.norm(diff[..., :size, :], axis=-1)
            separation = dist[far[..., :size]].min(initial=math.inf)
            g_lo, g_hi = g[..., :size], g[..., 1:]
            cross = far[..., :size] & far[..., 1:] & (g_lo * g_hi <= 0.0) & (g_lo != g_hi)
            r, k, c = np.nonzero(cross)
            u_lo = us[cols[r, k, c]]
            u_hi = u_lo + (2.0 * math.pi / n_scan)
            frac = g_lo[cross] / (g_lo[cross] - g_hi[cross])
            u_zero = u_lo + frac * (u_hi - u_lo)
            zero_pts = _trefoil_point(u_zero, self.scale)
            dist = np.linalg.norm(zero_pts - base_pts[rows[r]], axis=-1)
            return dist.min(initial=math.inf), separation

        clr_ub, sep_ub = scan(np.arange(0, n_base, self._PROBE), tile_cols[None])
        # |gamma'|^2 = scale^2 (17 + 8 cos 3u + 9 cos^2 3u) <= 34 scale^2
        step = 2.0 * math.pi / n_scan * math.sqrt(34.0) * self.scale
        bound = max(sep_ub, clr_ub + 2.0 * step)
        ca, ra = _tile_spheres(base_pts[:, None], size)
        cb, rb = _tile_spheres(scan_pts[:, None], size)
        row_tiles, col_tiles = _near_tile_pairs(cdist(ca, cb), ra, rb, bound)
        tile_rows = row_tiles[:, None] * size + np.arange(size)
        keep = _may_hold_far_pairs(
            base_arc[tile_rows], scan_arc[tile_cols[col_tiles]], excl, length
        )
        rows = tile_rows[keep].ravel()
        clr, sep = scan(rows, np.repeat(tile_cols[col_tiles[keep]], size, axis=0)[:, None])
        return float(min(clr_ub, clr)) * 0.995, float(min(sep_ub, sep))

    @property
    def normal_clearance(self) -> float:
        return self._clearance_numbers[0]

    @property
    def homotopy_radius(self) -> float:
        # unique shortest arcs below half the total length
        return self.length / 2.0

    @property
    def tube_radius(self) -> float:
        sep = self._clearance_numbers[1]
        return min(sep / 2.0, 1.0 / self._curvature_max) * 0.95

    def betti(self) -> tuple[int, int]:
        return (1, 1)

    def is_closed_curve(self) -> bool:
        return True

    def to_spec_json(self) -> dict:
        return {"kind": "trefoil", "params": {"scale": self.scale}}


class EmbeddedGraph(Model):
    """Straight-segment graph embedded in Euclidean space.

    Arc-length coordinates run over the edges in declaration order; the
    geodesic metric is shortest-path length along the segments.
    """

    kind = "embedded_graph"

    def __init__(self, vertices, edges):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2:
            raise ValueError("vertices must be a (V, dim) array")
        self.edges = [(int(a), int(b)) for a, b in edges]
        v = self.vertices.shape[0]
        for a, b in self.edges:
            if not (0 <= a < v and 0 <= b < v) or a == b:
                raise ValueError(f"bad edge ({a}, {b})")
        if len(set(tuple(sorted(e)) for e in self.edges)) != len(self.edges):
            raise ValueError("duplicate edges")
        self._ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        self._tails = self.vertices[self._ends[:, 0]]
        self._segs = self.vertices[self._ends[:, 1]] - self._tails
        # np.vecdot rounds as the 1-d np.dot does; norm(axis=1) does not
        self._elens = np.sqrt(np.vecdot(self._segs, self._segs))
        if np.any(self._elens <= 0):
            raise ValueError("zero-length edge")
        self._starts = np.concatenate([[0.0], np.cumsum(self._elens)])

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def length(self) -> float:
        return float(self._starts[-1])

    def _locate(self, t):
        """Edge index and offset along it of each arc parameter."""
        t = np.asarray(t, dtype=float) % self.length
        k = np.searchsorted(self._starts, t, side="right") - 1
        k = np.clip(k, 0, len(self.edges) - 1)
        return k, t - self._starts[k]

    def points_at(self, ts) -> np.ndarray:
        k, off = self._locate(ts)
        frac = (off / self._elens[k])[:, None]
        ends = self._ends[k]
        return (1.0 - frac) * self.vertices[ends[:, 0]] + frac * self.vertices[ends[:, 1]]

    def tangent_at(self, ts) -> np.ndarray:
        k, _ = self._locate(ts)
        return self._segs[k] / self._elens[k, None]

    def project(self, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nearest point of every segment, then the nearest segment, ties to
        the lowest edge index.  A row is ambiguous when another segment's
        nearest point is as close, within tolerance, and apart from it.  A
        nearest point clamped to a vertex of the winning segment lies on
        that segment, whose nearest point is unique, so it never competes.
        Each parameter lies on the winning edge: one at the edge's head is
        the largest float below the next edge's start."""
        X = _finite_rows(X)
        rows = np.arange(len(X))
        # (row, edge) tables
        tt = np.vecdot(X[:, None] - self._tails, self._segs) / np.vecdot(self._segs, self._segs)
        # min(max(tt, 0.0), 1.0), signed zeros included
        tt = np.where(tt < 0.0, 0.0, np.where(tt > 1.0, 1.0, tt))
        q = self._tails + tt[..., None] * self._segs
        diff = X[:, None] - q
        d = np.sqrt(np.vecdot(diff, diff))
        k0 = np.argmin(d, axis=1)
        d0, q0 = d[rows, k0], q[rows, k0]
        scale = max(1.0, self.length)
        gap = q - q0[:, None]
        apart = np.sqrt(np.vecdot(gap, gap)) > 1e-6 * scale
        foot = np.where(tt == 0.0, self._ends[:, 0], np.where(tt == 1.0, self._ends[:, 1], -1))
        ends0 = self._ends[k0]
        apart &= (foot != ends0[:, :1]) & (foot != ends0[:, 1:])
        tied = np.flatnonzero(np.any(apart & (d <= (d0 + 1e-9 * scale)[:, None]), axis=1))
        if tied.size:
            exc = AmbiguousProjectionError(
                "point is equidistant from two separated strands of the graph"
            )
            exc.row = int(tied[0])
            raise exc
        params = self._starts[k0] + tt[rows, k0] * self._elens[k0]
        # a foot at its edge's head would read as the next edge's start
        return q0, np.minimum(params, np.nextafter(self._starts[k0 + 1], -math.inf)), d0

    @cached_property
    def _vertex_dist(self) -> np.ndarray:
        v = self.vertices.shape[0]
        rows, cols, data = [], [], []
        for (a, b), w in zip(self.edges, self._elens):
            rows += [a, b]
            cols += [b, a]
            data += [w, w]
        graph = csr_matrix((data, (rows, cols)), shape=(v, v))
        return dijkstra(graph, directed=False)

    def geodesic_param_distance(self, t1, t2):
        t1 = np.atleast_1d(np.asarray(t1, dtype=float))
        t2 = np.atleast_1d(np.asarray(t2, dtype=float))
        shape = np.broadcast_shapes(t1.shape, t2.shape)
        t1 = np.broadcast_to(t1, shape).ravel()
        t2 = np.broadcast_to(t2, shape).ravel()
        k1, o1 = self._locate(t1)
        k2, o2 = self._locate(t2)
        dv = self._vertex_dist
        a1, b1 = self._ends[k1, 0], self._ends[k1, 1]
        a2, b2 = self._ends[k2, 0], self._ends[k2, 1]
        l1 = self._elens[k1]
        l2 = self._elens[k2]
        cand = np.minimum.reduce(
            [
                o1 + dv[a1, a2] + o2,
                o1 + dv[a1, b2] + (l2 - o2),
                (l1 - o1) + dv[b1, a2] + o2,
                (l1 - o1) + dv[b1, b2] + (l2 - o2),
            ]
        )
        same = k1 == k2
        cand[same] = np.minimum(cand[same], np.abs(o1[same] - o2[same]))
        return cand.reshape(shape)

    def covering_radius(self, params: np.ndarray) -> float:
        """Largest distance from a graph point to its nearest parameter,
        rounded up one ulp; infinite when a component holds no parameter.

        D(v) is the distance from vertex v to its nearest parameter.  On an
        edge of length l from a to b, the distance to the nearest parameter
        is the lower envelope of |x - p| over the parameters' offsets p on
        the edge and the virtual sources -D(a) and l + D(b), so its maximum
        over [0, l] lies at the clipped midpoint of two neighbouring sources.
        """
        k, off = self._locate(params)
        n_edges = len(self.edges)
        first = np.full(n_edges, math.inf)
        last = np.full(n_edges, -math.inf)
        np.minimum.at(first, k, off)
        np.maximum.at(last, k, off)
        a, b, lens, dv = self._ends[:, 0], self._ends[:, 1], self._elens, self._vertex_dist
        # leave by either end of every edge that holds a parameter
        near = np.minimum(dv[:, a] + first, dv[:, b] + (lens - last)).min(axis=1)
        edge = np.concatenate([k, np.arange(n_edges), np.arange(n_edges)])
        src = np.concatenate([off, -near[a], lens + near[b]])
        order = np.lexsort((src, edge))
        edge, src = edge[order], src[order]
        pair = edge[1:] == edge[:-1]
        lo, hi, ln = src[:-1][pair], src[1:][pair], lens[edge[1:][pair]]
        with np.errstate(invalid="ignore"):
            mid = np.clip((lo + hi) / 2.0, 0.0, ln)
            worst = np.minimum(mid - lo, hi - mid)
        # NaN where both sources are infinite: an edge of a component
        # without parameters
        worst[np.isnan(worst)] = math.inf
        return float(np.nextafter(worst.max(), math.inf))

    @cached_property
    def normal_clearance(self) -> float:
        """Smallest gap between segments that do not share a vertex, in
        closed form (Lumelsky, IPL 1985).  The nearest points a + s d1 and
        b + t d2 minimise a convex quadratic over the unit square: s comes
        from the unconstrained minimum (0 for parallel segments), t from s,
        and where t leaves [0, 1] it is clamped and s solved again."""
        i, j = np.triu_indices(len(self.edges), 1)
        apart = np.all(self._ends[i, :, None] != self._ends[j, None, :], axis=(1, 2))
        i, j = i[apart], j[apart]
        d1, d2, r = self._segs[i], self._segs[j], self._tails[i] - self._tails[j]
        aa, bb, cc = np.vecdot(d1, d1), np.vecdot(d1, d2), np.vecdot(d1, r)
        ee, ff = np.vecdot(d2, d2), np.vecdot(d2, r)
        denom = aa * ee - bb * bb
        s = np.divide(bb * ff - cc * ee, denom, out=np.zeros_like(denom), where=denom > 0.0)
        s = np.clip(s, 0.0, 1.0)
        t = (bb * s + ff) / ee
        s = np.where(t < 0.0, np.clip(-cc / aa, 0.0, 1.0), s)
        s = np.where(t > 1.0, np.clip((bb - cc) / aa, 0.0, 1.0), s)
        t = np.clip(t, 0.0, 1.0)
        gap = r + s[:, None] * d1 - t[:, None] * d2
        return float(np.sqrt(np.vecdot(gap, gap)).min(initial=math.inf))

    @cached_property
    def _girth(self) -> float:
        v = self.vertices.shape[0]
        best = math.inf
        for skip, ((a, b), w) in enumerate(zip(self.edges, self._elens)):
            rows, cols, data = [], [], []
            for k, ((x, y), wk) in enumerate(zip(self.edges, self._elens)):
                if k == skip:
                    continue
                rows += [x, y]
                cols += [y, x]
                data += [wk, wk]
            if not rows:
                continue
            graph = csr_matrix((data, (rows, cols)), shape=(v, v))
            d = dijkstra(graph, directed=False, indices=a)
            if np.isfinite(d[b]):
                best = min(best, float(d[b]) + float(w))
        return best

    @property
    def homotopy_radius(self) -> float:
        # below half the shortest cycle, shortest paths are unique
        return self._girth / 2.0

    @property
    def tube_radius(self) -> float:
        return self.normal_clearance / 2.0 * 0.95

    def _pair_samples(self):
        params = []
        for k in range(len(self.edges)):
            m = max(2, int(round(self._elens[k] / self.length * 600)))
            params.append(self._starts[k] + np.linspace(0.0, self._elens[k], m))
        params = np.concatenate(params) % self.length
        return params, self.points_at(params)

    def betti(self) -> tuple[int, int]:
        v = self.vertices.shape[0]
        parent = list(range(v))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        comps = len({find(i) for i in range(v)})
        return (comps, len(self.edges) - v + comps)

    def to_spec_json(self) -> dict:
        return {
            "kind": "embedded_graph",
            "params": {
                "vertices": [[float(v) for v in row] for row in self.vertices],
                "edges": [[a, b] for a, b in self.edges],
            },
        }


def theta_graph(segments_per_arc: int = 16) -> EmbeddedGraph:
    """Two junction points joined by three arcs: a straight bar and two
    polyline semicircles.  First homology has rank 2."""
    k = int(segments_per_arc)
    if k < 2:
        raise ValueError("need at least 2 segments per arc")
    verts = [(-1.0, 0.0), (1.0, 0.0)]
    edges = []
    upper = []
    for j in range(1, k):
        theta = math.pi * (1.0 - j / k)
        upper.append((math.cos(theta), math.sin(theta)))
    lower = [(x, -y) for x, y in upper]
    idx_upper = []
    for p in upper:
        idx_upper.append(len(verts))
        verts.append(p)
    idx_lower = []
    for p in lower:
        idx_lower.append(len(verts))
        verts.append(p)
    chain_u = [0] + idx_upper + [1]
    chain_l = [0] + idx_lower + [1]
    for a, b in zip(chain_u[:-1], chain_u[1:]):
        edges.append((a, b))
    for a, b in zip(chain_l[:-1], chain_l[1:]):
        edges.append((a, b))
    edges.append((0, 1))
    return EmbeddedGraph(np.array(verts), edges)


def model_from_json(obj: dict) -> Model:
    """Model of a spec ``{"kind": ..., "params": {...}}`` as ``to_spec_json``
    writes it.  Raises ``ValueError`` for a spec that is not an object, an
    unknown kind or a missing parameter."""
    params = obj.get("params", {}) if isinstance(obj, dict) else None
    if not isinstance(params, dict):
        raise ValueError("a model spec must be a JSON object with an object of params")
    kind = obj.get("kind")
    if kind == "circle":
        return Circle(
            radius=params.get("radius", 1.0),
            center=params.get("center"),
            dim=params.get("dim", 2),
        )
    if kind == "trefoil":
        return Trefoil(scale=params.get("scale", 1.0))
    if kind == "embedded_graph":
        for key in ("vertices", "edges"):
            if key not in params:
                raise ValueError(f"embedded_graph model is missing {key!r}")
        return EmbeddedGraph(params["vertices"], params["edges"])
    if kind == "theta":
        return theta_graph(params.get("segments_per_arc", 16))
    raise ValueError(f"unknown model kind {kind!r}")


def load_model(path: str) -> Model:
    with open(path) as fh:
        return model_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class SamplerSpec:
    """How to draw points from a model: count, tube noise, seed, scheme."""

    model: Model
    n: int
    tau: float = 0.0
    seed: int = 0
    scheme: str = "stratified"

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("sample count must be positive")
        if self.tau < 0:
            raise ValueError("noise amplitude must be nonnegative")
        if self.scheme not in ("stratified", "uniform-arc"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.tau > 0 and self.tau >= self.model.tube_radius:
            raise ValueError(
                f"noise amplitude {self.tau} exceeds the model tube radius "
                f"{self.model.tube_radius}; projections would be unreliable"
            )


def _normal_bases(tangents: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of each row of an
    (n, d) array of unit vectors, shape (n, d - 1, d)."""
    t = tangents / np.sqrt(np.vecdot(tangents, tangents))[:, None]
    # one stacked SVD runs the same LAPACK call on each (1, d) row
    return np.linalg.svd(t[:, None, :])[2][:, 1:]


def _ball_offset(rng: np.random.Generator, k: int, radius: float) -> np.ndarray:
    g = rng.standard_normal(k)
    u = rng.uniform()
    norm = np.linalg.norm(g)
    if norm < 1e-12:
        return np.zeros(k)
    return radius * (u ** (1.0 / k)) * g / norm


def sample(spec: SamplerSpec) -> PointCloud:
    """Draw points from a model, with optional uniform noise in the normal
    disk of radius tau.  Deterministic for a fixed spec."""
    model, n = spec.model, spec.n
    rng = np.random.default_rng(spec.seed)
    if spec.scheme == "stratified":
        params = np.arange(n) * (model.length / n)
    else:
        params = rng.uniform(0.0, model.length, size=n)
    pts = model.points_at(params)
    if spec.tau > 0:
        # the offsets draw from the generator point by point, in order
        for i, basis in enumerate(_normal_bases(model.tangent_at(params))):
            pts[i] = pts[i] + _ball_offset(rng, basis.shape[0], spec.tau) @ basis
    return PointCloud(pts)


# ---------------------------------------------------------------------------
# scale conditions


@dataclass(frozen=True)
class Condition:
    name: str
    lhs: float
    rhs: float
    holds: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "holds": bool(self.holds),
            "detail": self.detail,
        }


@dataclass
class ConditionReport:
    model_kind: str
    beta: float
    tau: float
    zeta: float | None
    conditions: list[Condition] = field(default_factory=list)

    def all_hold(self) -> bool:
        return all(c.holds for c in self.conditions)

    def failing(self) -> list[str]:
        return [c.name for c in self.conditions if not c.holds]

    def to_json_dict(self) -> dict:
        return {
            "model": self.model_kind,
            "beta": float(self.beta),
            "tau": float(self.tau),
            "zeta": None if self.zeta is None else float(self.zeta),
            "conditions": [c.to_json_dict() for c in self.conditions],
        }


def check_scale_conditions(
    model: Model, beta: float, tau: float = 0.0, zeta: float | None = None
) -> ConditionReport:
    """Evaluate every named scale hypothesis at (beta, tau[, zeta]).

    Each condition records the two sides of its inequality; callers decide
    which subset is binding for a given experiment.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    report = ConditionReport(model.kind, float(beta), float(tau), zeta)
    conds = report.conditions

    conds.append(
        Condition(
            "shadow-within-tube",
            beta + tau,
            model.tube_radius,
            beta + tau < model.tube_radius,
            "hulls of sub-beta cells stay inside the projection tube",
        )
    )
    conds.append(
        Condition(
            "normal-clearance",
            3.0 * beta,
            model.normal_clearance,
            3.0 * beta < model.normal_clearance,
            "no foreign strand crosses the normal slice at working scale",
        )
    )

    # Each map needs a chord window over its reach, and its homotopy bound
    # is offset + distortion * span.  Nearest-point projection moves a point
    # of the radius-t tube by at most t, whence the terms beta and
    # beta + tau.  The maps: coarsening between scales of noiseless
    # samples, the same of tube-noisy samples, and projection from the
    # complex to its shadow.
    maps = (
        ("coarsening", 2.0 * beta + beta, 0.0, 2.0 * beta + beta),
        ("noisy-coarsening", beta + beta + (beta + tau), 0.0, beta + beta),
        ("projection", beta + beta, beta, beta + beta),
    )
    cap = model.max_chord_bound
    for name, needed, offset, span in maps:
        # the distortion bound holds for every window under the model cap,
        # so the smallest window that fits gives the least distortion
        ok = needed < cap
        window = min(needed * 1.001, cap)
        xi = model.distortion(window) if ok else math.inf
        conds.append(Condition(f"{name}-window", needed, window, ok, f"window={window!r}"))
        lhs = offset + xi * span
        conds.append(
            Condition(
                f"{name}-homotopy",
                lhs,
                model.homotopy_radius,
                ok and lhs < model.homotopy_radius,
                f"distortion={xi!r}",
            )
        )

    if zeta is not None:
        conds.append(
            Condition(
                "noise-density-margin",
                tau + zeta,
                beta / 2.0,
                tau + zeta < beta / 2.0,
                "tube noise plus projection density stays under half the scale",
            )
        )
    return report
