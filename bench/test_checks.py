"""The benchmark's own checkers against the program's brute-force oracles.

Run from the repository root:  python3 -m pytest -q bench/test_checks.py
"""
from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from checks import (  # noqa: E402
    box_overlap_pairs,
    circle_hausdorff_lower_bound,
    closed_polyline_crossings,
    distances,
    rank_table_monotone,
    rips_counts,
    vertex_sharing_pairs,
)
from ripshadow.homology import HomologyTower, tower_ranks  # noqa: E402
from ripshadow.models import PointCloud, euclidean_metric  # noqa: E402
from ripshadow.oracle import brute_homology, brute_rips  # noqa: E402
from ripshadow.reconstruct import Polyline, polyline_is_simple  # noqa: E402
from ripshadow.rips import build_rips, inclusion_map  # noqa: E402


def test_adjacency_counts_match_the_subset_scan():
    rng = np.random.default_rng(3)
    for _ in range(12):
        n = int(rng.integers(4, 21))
        pts = rng.uniform(size=(n, int(rng.integers(2, 4))))
        metric = euclidean_metric(PointCloud(pts))
        for beta in (0.2, 0.45, 0.8):
            brute = brute_rips(metric, beta, cap=2)
            want = [len(brute.simplices.get(d, ())) for d in (1, 2)]
            assert list(rips_counts(distances(pts), beta)) == want


def test_adjacency_counts_are_strict_at_the_threshold():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert rips_counts(distances(square), 1.0) == (0, 0)
    assert rips_counts(distances(square), 1.0 + 1e-9) == (4, 0)
    assert rips_counts(distances(square), 1.5) == (6, 4)


def _closed_ring(m: int, radius: float = 1.0) -> np.ndarray:
    ang = np.arange(m) * (2.0 * math.pi / m)
    return radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def test_float_crossing_test_agrees_with_the_exact_simplicity_test():
    rng = np.random.default_rng(11)
    seen = {True: 0, False: 0}
    for _ in range(60):
        m = int(rng.integers(4, 21))
        pts = _closed_ring(m) + rng.normal(scale=float(rng.uniform(0.0, 0.6)), size=(m, 2))
        simple = polyline_is_simple(Polyline(pts, closed=True))
        assert (not closed_polyline_crossings(pts)) == simple
        seen[simple] += 1
    assert seen[True] and seen[False]


def test_crossing_test_flags_a_bowtie_and_a_fold_back():
    bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    assert closed_polyline_crossings(bowtie) == [(0, 2)]
    fold = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert (0, 1) in closed_polyline_crossings(fold)
    assert closed_polyline_crossings(_closed_ring(12)) == []


def test_hausdorff_lower_bound_on_an_inscribed_polygon():
    for m in (6, 13, 20):
        exact = 1.0 - math.cos(math.pi / m)  # sagitta at each edge midpoint
        bound = circle_hausdorff_lower_bound(_closed_ring(m))
        assert exact - 1e-12 <= bound <= exact + 1e-12


def test_hausdorff_lower_bound_sees_both_sides():
    # a polygon pushed outward: the curve side dominates
    outward = circle_hausdorff_lower_bound(_closed_ring(16, radius=1.1))
    assert outward == pytest.approx(0.1, abs=1e-12)
    # a polygon covering half the circle: the circle side dominates
    half = _closed_ring(16)[:9]
    assert circle_hausdorff_lower_bound(half) > 0.99


def _small_rips_tower(n: int, betas):
    ang = np.arange(n) * (2.0 * math.pi / n)
    rng = np.random.default_rng(5)
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1) + rng.normal(scale=0.03, size=(n, 2))
    metric = euclidean_metric(PointCloud(pts))
    complexes = [build_rips(metric, b, cap=2) for b in betas]
    maps = [
        inclusion_map(
            complexes[i], complexes[i + 1], embedding=range(n),
            src_scale=betas[i], dst_scale=betas[i + 1],
        )
        for i in range(len(betas) - 1)
    ]
    return complexes, tower_ranks(HomologyTower(complexes, maps, up_to=1))


def test_rank_tables_of_small_towers_are_monotone():
    for n, betas in ((12, (0.4, 0.6, 1.0, 1.2, 1.8)), (20, (0.2, 0.35, 0.7, 1.1))):
        complexes, report = _small_rips_tower(n, betas)
        for m in (0, 1):
            table = report.rank_table[m]
            assert rank_table_monotone(table)
            assert [table[i][i] for i in range(len(betas))] == [
                brute_homology(c, m) for c in complexes
            ]


def test_rank_table_check_rejects_growth_away_from_the_diagonal():
    assert rank_table_monotone([[2, 1, 1], [None, 1, 1], [None, None, 3]])
    assert not rank_table_monotone([[1, 2], [None, 2]])  # row grows
    assert not rank_table_monotone([[1, 1, 1], [None, 1, 0], [None, None, 1]])  # column grows
    assert not rank_table_monotone([[1, None], [None, 1]])


def test_box_and_vertex_pair_counts_on_a_small_cover():
    los = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0]])
    his = np.array([[1.0, 1.0], [2.0, 2.0], [4.0, 1.0]])
    assert box_overlap_pairs(los, his) == 1  # corners touch; the third is apart
    assert vertex_sharing_pairs([(0, 1), (1, 2), (3, 4), (0, 4)]) == {(0, 1), (0, 3), (2, 3)}
