"""The deliberately slow cross-checks and their budgets."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ripshadow.homology import betti
from ripshadow.models import PointCloud, euclidean_metric
from ripshadow.oracle import (
    OracleBudgetError,
    brute_curve_projection,
    brute_homology,
    brute_hull_intersection,
    brute_nerve,
    brute_rips,
)
from ripshadow.rips import CliqueList, SimplicialComplex, build_rips
from ripshadow.shadow import ConvexCellSystem, hulls_intersect


def _system(points, cells) -> ConvexCellSystem:
    cloud = PointCloud(np.asarray(points, dtype=float))
    return ConvexCellSystem(cloud, CliqueList(cloud.n, tuple(sorted(cells))))


def test_subset_scan_is_strict_at_the_threshold():
    met = euclidean_metric(PointCloud(np.array([[0.0, 0.0], [2.0, 0.0]])))
    assert not brute_rips(met, 2.0, cap=1).has_simplex((0, 1))
    assert brute_rips(met, 2.0 + 1e-9, cap=1).has_simplex((0, 1))


def test_subset_scan_budget():
    rng = np.random.default_rng(0)
    met = euclidean_metric(PointCloud(rng.uniform(size=(21, 2))))
    with pytest.raises(OracleBudgetError):
        brute_rips(met, 0.5)


def test_dense_elimination_matches_known_spaces():
    edges = sorted(tuple(sorted((i, (i + 1) % 5))) for i in range(5))
    cycle = SimplicialComplex(5, 2, {0: [(i,) for i in range(5)], 1: edges})
    assert brute_homology(cycle, 0) == 1
    assert brute_homology(cycle, 1) == 1

    from itertools import combinations

    tetra = SimplicialComplex(
        4,
        3,
        {
            0: [(i,) for i in range(4)],
            1: list(combinations(range(4), 2)),
            2: list(combinations(range(4), 3)),
        },
    )
    assert [brute_homology(tetra, m) for m in range(3)] == [1, 0, 1]


def test_dense_elimination_guards_dimension_and_size():
    c = SimplicialComplex(3, 1, {0: [(0,), (1,), (2,)], 1: [(0, 1)]})
    with pytest.raises(ValueError):
        brute_homology(c, 1)  # cap certifies only dimension zero
    big = SimplicialComplex(6000, 1, {0: [(i,) for i in range(6000)]})
    with pytest.raises(OracleBudgetError):
        brute_homology(big, 0)


def test_both_homology_routes_agree_on_random_rips_complexes():
    rng = np.random.default_rng(17)
    from ripshadow.homology import homology_basis

    for _ in range(8):
        n = int(rng.integers(5, 10))
        cloud = PointCloud(rng.uniform(size=(n, 2)))
        complex_ = build_rips(euclidean_metric(cloud), float(rng.uniform(0.3, 0.8)), cap=2)
        assert betti(complex_, 1) == [brute_homology(complex_, 0), brute_homology(complex_, 1)]
        assert homology_basis(complex_, 1).rank(1) == brute_homology(complex_, 1)


def test_grid_witness_confirms_an_overlap():
    sys_ = _system(
        [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0], [1.0, 1.0], [3.0, 1.0], [3.0, 3.0], [1.0, 3.0]],
        [(0, 1, 2, 3), (4, 5, 6, 7)],
    )
    assert brute_hull_intersection(sys_, (0, 1))
    assert hulls_intersect(sys_, (0, 1))


def test_grid_search_rejects_separated_boxes():
    sys_ = _system(
        [[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [6.0, 0.0]],
        [(0, 1), (2, 3)],
    )
    assert not brute_hull_intersection(sys_, (0, 1))
    assert not hulls_intersect(sys_, (0, 1))


def test_grid_oracle_works_in_three_dimensions():
    pts = [
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
        [0.5, 0.1, 0.1], [1.5, 0.1, 0.1], [0.5, 1.1, 0.1], [0.5, 0.1, 1.1],
    ]
    sys_ = _system(pts, [(0, 1, 2, 3), (4, 5, 6, 7)])
    assert brute_hull_intersection(sys_, (0, 1), resolution=12)
    assert hulls_intersect(sys_, (0, 1))


def test_nerve_subset_scan_budget():
    pts = np.arange(42, dtype=float).reshape(21, 2)
    sys_ = _system(pts, [(i,) for i in range(21)])
    with pytest.raises(OracleBudgetError):
        brute_nerve(sys_, cap=1)


def test_grid_oracle_refuses_high_ambient_dimension():
    pts = np.zeros((3, 4))
    pts[1, 0] = 1.0
    pts[2, 1] = 1.0
    sys_ = ConvexCellSystem(PointCloud(pts), CliqueList(3, ((0, 1), (1, 2))))
    with pytest.raises(OracleBudgetError):
        brute_hull_intersection(sys_, (0, 1))


def test_curve_scan_matches_the_circle_in_closed_form():
    def circle(u):
        return np.stack([2.0 * np.cos(u), 2.0 * np.sin(u)], axis=-1)

    for x in ([3.0, 1.0], [0.1, -0.5], [-2.0, 0.0], [1.2, 1.6]):
        u, d = brute_curve_projection(circle, x)
        assert d == pytest.approx(abs(2.0 - math.hypot(*x)), abs=1e-9)
        assert u == pytest.approx(math.atan2(x[1], x[0]) % (2.0 * math.pi), abs=1e-6)
