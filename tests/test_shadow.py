"""Hull covers, their nerves, exact hull membership, and the raster cross-check."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ripshadow import _exact
from ripshadow.homology import betti
from ripshadow.models import Circle, PointCloud, SamplerSpec, euclidean_metric, sample, theta_graph
from ripshadow.oracle import brute_hull_intersection, brute_nerve, raster_betti_2d
from ripshadow.rips import CliqueList, maximal_cliques
from ripshadow.shadow import (
    ConvexCellSystem,
    _box_overlap_pairs,
    build_nerve,
    hulls_intersect,
    nerve_coarsening_map,
)


def _system(points, cells) -> ConvexCellSystem:
    cloud = PointCloud(np.asarray(points, dtype=float))
    return ConvexCellSystem(cloud, CliqueList(cloud.n, tuple(sorted(cells))))


def _circle_system(n: int, beta: float, seed: int = 0, tau: float = 0.0):
    cloud = sample(SamplerSpec(Circle(1.0), n, tau=tau, seed=seed))
    cells = maximal_cliques(euclidean_metric(cloud), beta)
    return ConvexCellSystem(cloud, cells)


def test_hulls_meeting_in_a_single_point_intersect():
    # two triangles sharing exactly the origin
    sys_ = _system(
        [[0.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]],
        [(0, 1, 2), (0, 3, 4)],
    )
    assert hulls_intersect(sys_, [(0, 1)])[0]


def test_disjoint_hulls_do_not_intersect():
    sys_ = _system(
        [[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [4.0, 0.0]],
        [(0, 1), (2, 3)],
    )
    assert not hulls_intersect(sys_, [(0, 1)])[0]


def test_crossing_segments_intersect_without_shared_vertices():
    sys_ = _system(
        [[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]],
        [(0, 1), (2, 3)],
    )
    assert hulls_intersect(sys_, [(0, 1)])[0]


def test_nerve_of_three_hulls_in_a_row():
    # middle segment touches both ends; the ends stay apart
    sys_ = _system(
        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
        [(0, 1), (1, 2), (0,)],
    )
    nerve = build_nerve(sys_, cap=2)
    edges = set(nerve.complex.simplices.get(1, []))
    pairs = {tuple(sorted((a, b))) for a, b in edges}
    idx = {cell: i for i, cell in enumerate(sys_.cells.cliques)}
    assert (idx[(0,)], idx[(0, 1)]) in pairs or (idx[(0, 1)], idx[(0,)]) in pairs
    assert (idx[(0, 1)], idx[(1, 2)]) in pairs
    assert (idx[(0,)], idx[(1, 2)]) not in pairs


def test_nerve_against_grid_witness_on_random_cells():
    rng = np.random.default_rng(4)
    for _ in range(10):
        pts = rng.uniform(0.0, 1.0, size=(8, 2))
        cloud = PointCloud(pts)
        cells = tuple(
            tuple(sorted(rng.choice(8, size=3, replace=False).tolist())) for _ in range(4)
        )
        sys_ = ConvexCellSystem(cloud, CliqueList(8, tuple(sorted(set(cells)))))
        for i in range(len(sys_)):
            for j in range(i + 1, len(sys_)):
                exact = hulls_intersect(sys_, [(i, j)])[0]
                if brute_hull_intersection(sys_, (i, j), resolution=24):
                    # a grid witness is a certificate the exact test must honor
                    assert exact


def test_shadow_membership_on_a_square_cell():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert _exact.point_in_hull([0.5, 0.5], square)
    assert _exact.point_in_hull([1.0, 1.0], square)
    assert not _exact.point_in_hull([1.0 + 1e-9, 1.0], square)


def test_circle_nerve_carries_the_loop():
    sys_ = _circle_system(40, 0.4)
    nerve = build_nerve(sys_, cap=2)
    assert betti(nerve.complex, 1) == [1, 1]


def test_raster_agrees_with_nerve_on_circle_and_theta():
    sys_ = _circle_system(40, 0.4)
    assert tuple(raster_betti_2d(sys_)) == tuple(betti(build_nerve(sys_, cap=2).complex, 1))

    g = theta_graph()
    cloud = sample(SamplerSpec(g, 200, seed=1))
    cells = maximal_cliques(euclidean_metric(cloud), 0.06)
    gsys = ConvexCellSystem(cloud, cells)
    nerve_b = tuple(betti(build_nerve(gsys, cap=2).complex, 1))
    assert nerve_b == (1, 2)
    assert tuple(raster_betti_2d(gsys)) == nerve_b


def test_coarsening_map_lands_fine_cells_in_coarse_cells():
    fine = _circle_system(30, 0.3)
    coarse = _circle_system(30, 0.5)
    fine_nerve = build_nerve(fine, cap=2)
    coarse_nerve = build_nerve(coarse, cap=2)
    f = nerve_coarsening_map(fine, fine_nerve, coarse, coarse_nerve)
    coarse_sets = [set(c) for c in coarse.cells.cliques]
    for i, cell in enumerate(fine.cells.cliques):
        assert set(cell) <= coarse_sets[f.vertex_map[i]]


def test_coarsening_map_rejects_unnested_systems():
    fine = _circle_system(30, 0.5)
    coarse = _circle_system(30, 0.3)
    with pytest.raises(ValueError):
        nerve_coarsening_map(
            fine, build_nerve(fine, cap=2), coarse, build_nerve(coarse, cap=2)
        )


@st.composite
def _cell_systems(draw):
    # integer grid coordinates make touching and collinear hulls common, so
    # the exact decision runs on boundary cases in both directions
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 8))
    coords = draw(
        st.lists(
            st.lists(st.integers(0, 4), min_size=dim, max_size=dim),
            min_size=n,
            max_size=n,
        )
    )
    cells = draw(
        st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4), min_size=1, max_size=7)
    )
    return _system(0.5 * np.array(coords, dtype=float), {tuple(sorted(c)) for c in cells})


# crossing segments meet without a shared vertex (the LP says yes); the
# second pair has overlapping boxes but no common point (the LP says no)
_CROSSING = _system([[0, 0], [2, 2], [0, 2], [2, 0]], [(0, 1), (2, 3)])
_NEAR_MISS = _system([[0, 0], [2, 2], [1.5, 0], [2, 1]], [(0, 1), (2, 3)])


@settings(max_examples=60, deadline=None)
@given(_cell_systems(), st.integers(1, 3))
@example(_CROSSING, 1)
@example(_NEAR_MISS, 2)
def test_nerve_matches_the_subset_scan_oracle(sys_, cap):
    assert build_nerve(sys_, cap=cap).complex.simplices == brute_nerve(sys_, cap=cap).simplices


# rows of width 2 or 3 whose entries are taken modulo the number of cells
_ID_ROWS = st.sampled_from([2, 3]).flatmap(
    lambda w: st.lists(st.tuples(*[st.integers(0, 6)] * w), min_size=1, max_size=12)
)


@settings(max_examples=60, deadline=None)
@given(_cell_systems(), _ID_ROWS)
@example(_CROSSING, [(0, 1), (1, 1), (1, 0)])
@example(_NEAR_MISS, [(0, 1, 1), (1, 0, 0), (0, 0, 0)])
def test_batched_hulls_intersect_equals_the_per_row_decision(sys_, rows):
    # drawn rows mix shared vertices, disjoint boxes and rows left to the
    # LP; in the examples, every row with both cells reaches the LP
    rows = [tuple(i % len(sys_) for i in row) for row in rows]
    got = hulls_intersect(sys_, rows)
    assert got.dtype == bool and got.shape == (len(rows),)
    for row, met in zip(rows, got.tolist()):
        assert met == _exact.hulls_common_point([sys_.cell_points(i) for i in row])


def test_hulls_intersect_rejects_bad_ids_and_takes_an_empty_batch():
    with pytest.raises(ValueError, match="cell id 2 out of range"):
        hulls_intersect(_CROSSING, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="cell id -1 out of range"):
        hulls_intersect(_CROSSING, [(-1, 0)])
    assert hulls_intersect(_CROSSING, np.empty((0, 2), np.intp)).shape == (0,)


def _lp_calls(monkeypatch, system) -> int:
    """LP calls of one nerve at cap 2; every call must come from cells that
    share no vertex and whose boxes overlap."""
    calls = []
    hull_test, kernel = _exact.hulls_common_point, _exact.feasible_nonneg_eq

    def checked(cells):
        shared = set(map(tuple, cells[0].tolist()))
        for c in cells[1:]:
            shared &= set(map(tuple, c.tolist()))
        assert not shared
        lo = np.max([c.min(axis=0) for c in cells], axis=0)
        assert np.all(lo <= np.min([c.max(axis=0) for c in cells], axis=0))
        return hull_test(cells)

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(_exact, "hulls_common_point", checked)
    monkeypatch.setattr(_exact, "feasible_nonneg_eq", counted)
    build_nerve(system, cap=2)
    return len(calls)


def test_nerve_sends_the_lp_only_undecided_candidates(monkeypatch):
    # shared vertices and disjoint boxes are settled without the LP
    assert _lp_calls(monkeypatch, _CROSSING) == 1
    assert _lp_calls(monkeypatch, _NEAR_MISS) == 1
    assert _lp_calls(monkeypatch, _circle_system(200, 0.3)) == 0
    assert _lp_calls(monkeypatch, _circle_system(200, 0.3, seed=0, tau=0.05)) == 2
    assert _lp_calls(monkeypatch, _circle_system(200, 0.3, seed=2, tau=0.05)) == 1


def test_nerve_edge_cases():
    segs = _system([[0, 0], [1, 0], [3, 0], [4, 0], [6, 0], [7, 0]], [(0, 1), (2, 3), (4, 5)])
    # cap 0 keeps only the vertices, whatever overlaps
    assert build_nerve(_CROSSING, cap=0).complex.simplices == {0: [(0,), (1,)]}
    assert build_nerve(_system([[0, 0], [1, 1]], [(0, 1)]), cap=2).complex.simplices == {
        0: [(0,)]
    }
    # disjoint cells leave an empty frontier: no edges and no triangles
    assert build_nerve(segs, cap=2).complex.simplices == {0: [(0,), (1,), (2,)]}
    assert not build_nerve(_NEAR_MISS, cap=2).complex.simplices.get(1)
    assert build_nerve(_CROSSING, cap=2).complex.simplices[1] == [(0, 1)]


def test_boxes_and_pair_candidates_match_per_cell_loops():
    sys_ = _circle_system(300, 0.15)
    assert len(sys_) > 256  # more than one block of rows
    los, his = sys_.boxes
    for i in range(len(sys_)):
        pts = sys_.cell_points(i)
        assert np.array_equal(los[i], pts.min(axis=0))
        assert np.array_equal(his[i], pts.max(axis=0))
    dense = np.all(
        np.maximum(los[:, None], los[None]) <= np.minimum(his[:, None], his[None]), axis=2
    )
    want = [tuple(p) for p in np.argwhere(np.triu(dense, 1)).tolist()]
    assert list(zip(*(a.tolist() for a in _box_overlap_pairs(los, his)))) == want
    edges = build_nerve(sys_, cap=1).complex.simplices[1]
    assert edges == sorted(edges)
    assert set(edges) <= set(want)


def test_first_cells_containing_matches_a_linear_scan():
    sys_ = _circle_system(40, 0.5)
    sets = [set(c) for c in sys_.cells.cliques]
    queries = [(v,) for v in range(sys_.coords.n)] + list(sys_.cells.cliques)
    queries += [(0, 20), (sys_.coords.n,)]
    by_width: dict[int, list] = {}
    for q in queries:
        by_width.setdefault(len(q), []).append(q)
    for group in by_width.values():
        want = [next((j for j, cs in enumerate(sets) if set(q) <= cs), -1) for q in group]
        assert sys_.first_cells_containing(np.array(group)).tolist() == want
