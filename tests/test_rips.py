"""Proximity complexes: strict threshold, clique expansion, inclusion maps."""

from __future__ import annotations

import numpy as np
import pytest

from ripshadow.cli import _write_json
from ripshadow.models import PointCloud, euclidean_metric
from ripshadow.oracle import brute_rips
from ripshadow.rips import (
    CliqueBudgetError,
    CliqueList,
    SimplicialComplex,
    SimplicialMap,
    build_rips,
    inclusion_map,
    maximal_cliques,
)


def _unit_square() -> PointCloud:
    return PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def test_threshold_is_strict_at_an_exact_distance():
    met = euclidean_metric(PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]])))
    complex_ = build_rips(met, 1.0, cap=1)
    assert not complex_.has_simplex((0, 1))
    # a hair above the distance the edge appears
    assert build_rips(met, 1.0 + 1e-12, cap=1).has_simplex((0, 1))


def test_square_counts_by_scale():
    met = euclidean_metric(_unit_square())
    # sides only: four edges, no triangles (diagonals are sqrt(2))
    sides = build_rips(met, 1.001, cap=2)
    assert sides.counts() == [4, 4]
    # just under the diagonal nothing changes
    assert build_rips(met, np.sqrt(2.0) - 1e-9, cap=2).counts() == [4, 4]
    # past the diagonal the square fills in completely
    full = build_rips(met, np.sqrt(2.0) + 1e-9, cap=3)
    assert full.counts() == [4, 6, 4, 1]


def test_matches_subset_scan_on_random_clouds():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 11))
        cloud = PointCloud(rng.uniform(0.0, 1.0, size=(n, 2)))
        met = euclidean_metric(cloud)
        beta = float(rng.uniform(0.1, 1.2))
        fast = build_rips(met, beta, cap=3)
        slow = brute_rips(met, beta, cap=3)
        assert fast.simplices == slow.simplices


def test_complex_is_face_closed_and_json_stable(tmp_path):
    met = euclidean_metric(_unit_square())
    complex_ = build_rips(met, 1.5, cap=2)
    complex_.validate_face_closed()
    path = tmp_path / "cx.json"
    _write_json(str(path), complex_.to_json_dict())
    back = SimplicialComplex.load(str(path))
    assert back.simplices == complex_.simplices
    assert back.n == complex_.n and back.cap == complex_.cap


def test_has_simplex_requires_sorted_vertices():
    met = euclidean_metric(_unit_square())
    complex_ = build_rips(met, 1.1, cap=1)
    assert complex_.has_simplex((0, 1))
    assert not complex_.has_simplex((2, 0))  # diagonal, absent at this scale


def test_maximal_cliques_on_the_square():
    met = euclidean_metric(_unit_square())
    cliques = maximal_cliques(met, 1.001)
    assert sorted(cliques.cliques) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    full = maximal_cliques(met, 2.0)
    assert sorted(full.cliques) == [(0, 1, 2, 3)]


def test_clique_budget_guards_blowup():
    # a path graph has one maximal clique per edge, here more than the budget
    pts = np.stack([np.arange(12.0), np.zeros(12)], axis=1)
    met = euclidean_metric(PointCloud(pts))
    with pytest.raises(CliqueBudgetError):
        maximal_cliques(met, 1.1, budget=10)


def test_clique_list_requires_sorted_tuples():
    with pytest.raises(ValueError):
        CliqueList(3, ((1, 0),))


def test_simplicial_map_verifies_images():
    met = euclidean_metric(_unit_square())
    sides = build_rips(met, 1.001, cap=2)
    # rotating the square by one vertex is simplicial on the side graph
    rot = SimplicialMap(sides, sides, [1, 2, 3, 0])
    assert rot.map_simplex((0, 1)) == (1, 2)
    # collapsing everything onto one vertex is fine too
    SimplicialMap(sides, sides, [0, 0, 0, 0])
    # sending a side to a non-edge is not
    full = build_rips(met, 2.0, cap=2)
    with pytest.raises(ValueError):
        SimplicialMap(full, sides, [0, 2, 1, 3])


def test_inclusion_map_checks_scale_monotonicity():
    met = euclidean_metric(_unit_square())
    small = build_rips(met, 1.001, cap=2)
    large = build_rips(met, 1.5, cap=2)
    inc = inclusion_map(small, large, src_scale=1.001, dst_scale=1.5)
    assert list(inc.vertex_map) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        inclusion_map(large, small, src_scale=1.5, dst_scale=1.001)


def test_inclusion_map_with_prefix_embedding():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    small = build_rips(euclidean_metric(PointCloud(pts[:2])), 1.1, cap=1)
    large = build_rips(euclidean_metric(PointCloud(pts)), 1.1, cap=1)
    inc = inclusion_map(small, large, embedding=range(2))
    assert inc.map_simplex((0, 1)) == (0, 1)
