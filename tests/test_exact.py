"""The integer-pivoting phase-1 simplex against the Fraction reference, and
the hull predicates built on it at degenerate inputs."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ripshadow import _exact
from ripshadow.models import PointCloud
from ripshadow.oracle import brute_feasible_nonneg_eq
from ripshadow.reconstruct import Polyline, polyline_is_simple
from ripshadow.rips import CliqueList
from ripshadow.shadow import ConvexCellSystem, hulls_intersect

NAN, INF = float("nan"), float("inf")

# entries of four kinds, each taken exactly by the integer kernel
_INTS = st.integers(-4, 4)
_DYADIC = st.builds(lambda a, k: Fraction(a, 2**k), st.integers(-64, 64), st.integers(0, 10))
_RATIONAL = st.fractions(-4, 4, max_denominator=12)
_EXTREME = st.one_of(
    st.builds(lambda a: a * 5e-324, st.integers(-3, 3)),  # subnormals k * 2**-1074
    st.floats(1e299, 1e300).flatmap(lambda v: st.sampled_from([v, -v])),
    st.sampled_from([0.0, -0.0, 0.5, -1.5, 1.0]),
)


@st.composite
def _systems(draw):
    """(rows, rhs) with m in 0..4 rows and n in 0..5 columns.  Some have a
    zeroed column or a repeated row, and some are planted feasible: b = A x
    for an x >= 0 drawn with the entries."""
    entries = draw(st.sampled_from([_INTS, _DYADIC, _RATIONAL, _EXTREME]))
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    if n and draw(st.booleans()):
        zero = draw(st.integers(0, n - 1))
        for row in rows:
            row[zero] = 0
    if m and draw(st.booleans()):
        rows.append(list(rows[draw(st.integers(0, m - 1))]))
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        rhs = [sum((Fraction(v) * w for v, w in zip(row, x)), Fraction(0)) for row in rows]
    else:
        rhs = [draw(entries) for _ in rows]
    return rows, rhs


def _fractions(rows, rhs):
    return [[Fraction(v) for v in row] for row in rows], [Fraction(v) for v in rhs]


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_integer_kernel_equals_the_fraction_reference(system):
    rows, rhs = system
    assert _exact.feasible_nonneg_eq(rows, rhs) == brute_feasible_nonneg_eq(
        *_fractions(rows, rhs)
    )


@pytest.mark.parametrize(
    "rows, rhs, feasible",
    [
        ([], [], True),
        ([[]], [0], True),
        ([[]], [1], False),
        # negative right-hand sides: x1 = -1 has no nonnegative solution, -x1 = -1 has one
        ([[1, 0]], [-1], False),
        ([[-1, 0]], [-1], True),
        # repeated and contradictory rows
        ([[1, 1], [1, 1]], [1, 1], True),
        ([[1, 1], [1, 1]], [1, Fraction(1, 3)], False),
        # x1 / 2 = 1/3 and x1 = 2/3: a row scale must be a multiple of 2 and 3
        ([[Fraction(1, 2), 0], [1, 0]], [Fraction(1, 3), Fraction(2, 3)], True),
        # a 2**-1074 step against a 1e300 one: x = (1e300 / 5e-324, 0) only
        ([[5e-324, 1e300], [0, 1]], [1e300, 0], True),
        ([[5e-324, 1e300], [0, 1]], [-1e300, 0], False),
    ],
)
def test_kernels_on_hand_made_systems(rows, rhs, feasible):
    assert _exact.feasible_nonneg_eq(rows, rhs) == feasible
    assert brute_feasible_nonneg_eq(*_fractions(rows, rhs)) == feasible


@st.composite
def _cells(draw):
    """Two to three point sets in dimension 1 to 3 on a coarse dyadic grid,
    so that touching, collinear and coplanar configurations are common."""
    dim = draw(st.integers(1, 3))
    coord = st.integers(-3, 3).map(lambda v: v / 2.0)
    point = st.lists(coord, min_size=dim, max_size=dim)
    k = draw(st.integers(2, 3))
    return [np.array(draw(st.lists(point, min_size=1, max_size=4))) for _ in range(k)]


@settings(max_examples=100, deadline=None)
@given(_cells())
def test_hull_systems_equal_the_fraction_reference(cells):
    """Every system hulls_common_point builds is decided as the Fraction
    simplex decides it."""
    seen = []
    kernel = _exact.feasible_nonneg_eq

    def recording(rows, rhs):
        seen.append((rows, rhs))
        return kernel(rows, rhs)

    _exact.feasible_nonneg_eq = recording
    try:
        got = _exact.hulls_common_point(cells)
    finally:
        _exact.feasible_nonneg_eq = kernel
    assert len(seen) == 1
    assert got == brute_feasible_nonneg_eq(*_fractions(*seen[0]))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=2, max_size=2),
    st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=1, max_size=5),
    st.integers(0, 3),
)
def test_planar_membership_agrees_with_the_solver_free_test(p, verts, shift):
    point = np.array(p, dtype=float) / 2**shift
    cell = np.array(verts, dtype=float) / 2**shift
    inside = _exact.point_in_hull_2d(point, cell)
    assert _exact.hulls_common_point([point[None], cell]) == inside
    assert _exact.point_in_hull(point, cell) == inside


def _system(points, cells) -> ConvexCellSystem:
    cloud = PointCloud(np.asarray(points, dtype=float))
    return ConvexCellSystem(cloud, CliqueList(cloud.n, tuple(sorted(cells))))


def test_hulls_touching_at_one_boundary_point_without_a_shared_vertex():
    # the segment's top end (1, 0) lies inside the triangle's bottom edge
    pts = [[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, 0.0], [1.0, -1.0]]
    assert hulls_intersect(_system(pts, [(0, 1, 2), (3, 4)]), [(0, 1)])[0]
    assert _exact.hulls_common_point([np.array(pts[:3]), np.array(pts[3:])])
    below = [[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, -2**-1074], [1.0, -1.0]]
    assert not hulls_intersect(_system(below, [(0, 1, 2), (3, 4)]), [(0, 1)])[0]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_collinear_segments(dim):
    def seg(a, b):
        return np.array([[a] + [0.5 * a] * (dim - 1), [b] + [0.5 * b] * (dim - 1)])

    assert _exact.segments_intersect(*seg(0.0, 2.0), *seg(1.0, 3.0))  # overlap
    assert _exact.segments_intersect(*seg(0.0, 1.0), *seg(1.0, 2.0))  # an end point
    assert _exact.segments_intersect(*seg(0.0, 3.0), *seg(2.0, 1.0))  # nested
    assert not _exact.segments_intersect(*seg(0.0, 1.0), *seg(1.0 + 2**-52, 2.0))
    assert _exact.point_on_segment(seg(0.25, 0.25)[0], *seg(0.0, 1.0))
    assert not _exact.point_on_segment(seg(-5e-324, 0.0)[0], *seg(0.0, 1.0))


def test_folded_back_consecutive_edges():
    # the second edge runs back along the first in 3-d, at dyadic coordinates
    folded = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.25], [0.5, 0.25, 0.125]])
    assert not polyline_is_simple(Polyline(folded, closed=False))
    # the same turn, one unit in the last place off the first edge's line
    turned = folded.copy()
    turned[2, 2] = np.nextafter(0.125, 1.0)
    assert polyline_is_simple(Polyline(turned, closed=False))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: _exact.hulls_common_point([[[0, 0], [1, NAN]], [[0, 0], [1, 1]]]), ValueError),
        (lambda: _exact.hulls_common_point([[[0, 0], [1, 1]], [[0, -INF], [1, 1]]]), OverflowError),
        # the first non-finite coordinate, cell by cell and row by row, decides
        (lambda: _exact.hulls_common_point([[[0, 0], [1, NAN]], [[INF, 0], [1, 1]]]), ValueError),
        (lambda: _exact.hulls_common_point([[[0, 0], [INF, 1]], [[NAN, 0], [1, 1]]]), OverflowError),
        (lambda: _exact.hulls_common_point([[[0, NAN], [INF, 1]], [[0, 0], [1, 1]]]), ValueError),
        # the point is converted before the vertices
        (lambda: _exact.point_in_hull([NAN, 0], [[0, 0], [1, INF]]), ValueError),
        (lambda: _exact.point_in_hull([0, INF], [[0, 0], [1, NAN]]), OverflowError),
        (lambda: _exact.point_in_hull([0, 0], [[0, INF], [NAN, 0]]), OverflowError),
        (lambda: _exact.point_on_segment([0, 0], [0, 0], [1, -INF]), OverflowError),
        (lambda: _exact.segments_intersect([0, 0], [1, 1], [NAN, 1], [1, 0]), ValueError),
    ],
)
def test_non_finite_coordinates_raise(call, error):
    with pytest.raises(error):
        call()


def test_a_single_cell_needs_no_conversion():
    assert _exact.hulls_common_point([[[0.0, NAN]]])
