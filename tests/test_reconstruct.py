"""Curve rebuilding: ordering, simplicity, the check battery."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ripshadow import _exact, reconstruct
from ripshadow.cli import _points_csv, _write_json, _write_text
from ripshadow.models import (
    AmbiguousProjectionError,
    Circle,
    PointCloud,
    SamplerSpec,
    Trefoil,
    sample,
)
from ripshadow.oracle import brute_grid_to_curve
from ripshadow.reconstruct import (
    Polyline,
    _grid_to_curve,
    build_curve_K,
    order_by_projection,
    polyline_is_simple,
)


def _circle_points(angles) -> PointCloud:
    arr = np.array([[math.cos(a), math.sin(a)] for a in angles])
    return PointCloud(arr)


# ---------------------------------------------------------------------------
# polylines


def test_polyline_rejects_degenerate_input():
    with pytest.raises(ValueError):
        Polyline(np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        Polyline(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
    # closing edge may not collapse either
    with pytest.raises(ValueError):
        Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]), closed=True)


def test_polyline_edges_wrap_when_closed():
    square = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert len(list(square.edges())) == 4
    assert np.allclose(square.edge_lengths(), 1.0)
    open_path = Polyline(square.points, closed=False)
    assert len(list(open_path.edges())) == 3


def test_square_is_simple_and_bowtie_is_not():
    square = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert polyline_is_simple(square)
    bowtie = Polyline(np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))
    assert not polyline_is_simple(bowtie)


def test_fold_back_at_a_shared_vertex_is_not_simple():
    path = Polyline(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]]), closed=False)
    assert not polyline_is_simple(path)


def test_touching_non_adjacent_edges_are_not_simple():
    # the closing edge passes through an earlier vertex
    curve = Polyline(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 0.0], [0.0, 1.0]]),
        closed=True,
    )
    assert not polyline_is_simple(curve)


def test_consecutive_collinear_edges_fold_back():
    straight = Polyline(np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), closed=False)
    assert polyline_is_simple(straight)
    # the second edge runs back over the first, past its start
    folded = Polyline(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]]), closed=False)
    assert not polyline_is_simple(folded)


def test_closing_edge_folding_back_onto_the_first_edge():
    # each closing edge runs back from the last vertex over the first edge;
    # with two or three vertices the first and closing edges are all there is
    for pts in (
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.0, 0.0]],
        [[0.0, 0.0], [1.0, 0.0]],
        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
    ):
        curve = Polyline(np.array(pts))
        assert not polyline_is_simple(curve)
        assert polyline_is_simple(Polyline(curve.points, closed=False))


def test_edges_whose_boxes_touch_only_at_a_corner():
    # first and last edge meet at (0, 0), the one corner their boxes share
    meeting = np.array([[0, 0], [-1, -1], [3, -1], [3, 3], [1, 1], [0, 0]], dtype=float)
    assert not polyline_is_simple(Polyline(meeting, closed=False))
    # boxes [0, 1]^2 and [1, 2]^2 share the corner (1, 1), the segments nothing
    missing = np.array([[0, 1], [1, 0], [3, 0], [3, 3], [2, 2], [1, 1]], dtype=float)
    assert polyline_is_simple(Polyline(missing, closed=False))


def _folds_back(s, p, q) -> bool:
    """Edges s-p and s-q overlap beyond s: parallel and on the same side."""
    u = [a - b for a, b in zip(p, s)]
    w = [a - b for a, b in zip(q, s)]
    pairs = combinations(range(len(u)), 2)
    parallel = all(u[a] * w[b] == u[b] * w[a] for a, b in pairs)
    return parallel and sum(a * b for a, b in zip(u, w)) > 0


def _simple_by_all_pairs(curve: Polyline) -> bool:
    """Every edge pair, no box filter; edges that share a vertex index are
    decided by the rational parallel-and-same-side test above."""
    pts = curve.points
    exact = [[Fraction(float(v)) for v in row] for row in pts]
    k = len(pts)
    edges = [(i, (i + 1) % k) for i in range(k if curve.closed else k - 1)]
    for e, f in combinations(edges, 2):
        shared = set(e) & set(f)
        if not shared and _exact.segments_intersect(*pts[list(e)], *pts[list(f)]):
            return False
        for s in shared:
            p, q = e[e[0] == s], f[f[0] == s]
            if _folds_back(exact[s], exact[p], exact[q]):
                return False
    return True


@st.composite
def _grid_polylines(draw):
    dim = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(2, 7))
    closed = draw(st.booleans())
    coords = st.lists(st.integers(0, 6), min_size=dim, max_size=dim)
    pts = np.array(draw(st.lists(coords, min_size=k, max_size=k)), dtype=float) / 2.0
    nxt = np.roll(pts, -1, axis=0)
    steps = pts - nxt if closed else (pts - nxt)[:-1]
    assume(np.all(np.any(steps != 0.0, axis=1)))
    return Polyline(pts, closed=closed)


@settings(max_examples=150, deadline=None)
@given(_grid_polylines())
def test_simplicity_matches_an_all_pairs_reference(curve):
    assert polyline_is_simple(curve) == _simple_by_all_pairs(curve)


def test_polyline_csv_lists_vertices_in_order(tmp_path):
    square = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    path = tmp_path / "curve.csv"
    _write_text(str(path), _points_csv(square.points))
    rows = [r for r in path.read_text().splitlines() if r and not r.startswith("#")]
    assert len(rows) == 4
    assert rows[0].split(",")[0] == "0.0"


# ---------------------------------------------------------------------------
# ordering by projection


def test_order_recovers_the_angular_walk():
    c = Circle(1.0)
    base = sample(SamplerSpec(c, 12, seed=0))
    perm = np.random.default_rng(3).permutation(12)
    shuffled = PointCloud(base.points[perm])
    order, params = order_by_projection(c, shuffled)
    assert np.allclose(shuffled.points[order], base.points)
    assert np.all(np.diff(params) > 0)


def test_order_collapses_samples_over_one_fiber():
    c = Circle(1.0)
    # two samples over the same parameter at different heights
    pts = np.array([[1.1, 0.0], [0.95, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    order, _ = order_by_projection(c, PointCloud(pts))
    assert len(order) == 4
    # the representative hugs the model more closely
    assert 1 in order and 0 not in order


def test_order_merges_the_seam_fiber():
    c = Circle(1.0)
    pts = np.array(
        [
            [1.0, 0.0],
            [math.cos(-1e-12), math.sin(-1e-12)],  # same fiber across the seam
            [0.0, 1.0],
            [-1.0, 0.0],
        ]
    )
    order, _ = order_by_projection(c, PointCloud(pts))
    assert len(order) == 3


def test_order_refuses_ambiguous_samples():
    from ripshadow.models import AmbiguousProjectionError

    with pytest.raises(AmbiguousProjectionError):
        order_by_projection(Circle(1.0), PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]])))


def test_order_names_the_first_ambiguous_trefoil_sample():
    t = Trefoil(1.0)
    pts = sample(SamplerSpec(t, 12)).points
    pts[2] = pts[5] = 0.0  # the origin is equidistant from three strands
    message = r"^sample 2 at \(0\.0, 0\.0, 0\.0\): point is equidistant"
    with pytest.raises(AmbiguousProjectionError, match=message):
        order_by_projection(t, PointCloud(pts))


# ---------------------------------------------------------------------------
# the full battery


def test_noiseless_reconstruction_returns_the_samples_in_order():
    c = Circle(1.0)
    cloud = sample(SamplerSpec(c, 40, seed=0))
    result = build_curve_K(c, cloud, 0.2, 0.0)
    assert result.verdict == "ok"
    assert result.order == list(range(40))
    assert np.array_equal(result.curve.points, cloud.points)
    assert result.checks["simple"] and result.checks["closed"]
    assert result.checks["edges_under_beta"] and result.checks["in_shadow"]


def test_noisy_reconstruction_passes_all_checks():
    c = Circle(1.0)
    cloud = sample(SamplerSpec(c, 126, tau=0.02, seed=0))
    result = build_curve_K(c, cloud, 0.2, 0.02, zeta=0.05)
    assert result.verdict == "ok"
    assert result.checks["simple"] is True
    assert result.checks["closed"] is True
    assert result.checks["edges_under_beta"] is True
    assert result.checks["in_shadow"] is True
    assert result.checks["max_edge"] < 0.2
    # noise amplitude plus density plus chord sag
    assert result.checks["hausdorff_to_model"] <= 0.02 + 0.05 + 0.2**2 / 8.0


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(-3.0, 3.0),
    st.sampled_from(["circle", "trefoil"]),
    st.integers(3, 200),
    st.booleans(),
    st.integers(1, 2500),
    st.sampled_from([1, 2, 5, 16]),
)
# a last grid tile of one point
@example(0, 0.0, "circle", 40, True, 33, 16)
def test_pruned_model_walk_equals_the_walk_over_every_edge(
    seed, log_scale, kind, n, closed, grid_n, size
):
    scale = 10.0**log_scale
    model = Circle(scale) if kind == "circle" else Trefoil(scale)
    rng = np.random.default_rng(seed)
    params = np.sort(rng.uniform(0.0, model.length, n))
    # from tube noise to vertices scattered far off the model
    noise = rng.normal(size=(n, model.dim)) * 10.0 ** rng.uniform(-4.0, 0.5) * scale
    curve = Polyline(model.points_at(params) + noise, closed=closed)
    mpts = model.points_at(np.arange(grid_n) * (model.length / grid_n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reconstruct, "_WALK_TILE", size)
        fast = _grid_to_curve(mpts, curve)
    assert np.array_equal(fast, brute_grid_to_curve(mpts, curve))


def test_reconstruction_gates_when_noise_crowds_the_scale():
    c = Circle(1.0)
    cloud = sample(SamplerSpec(c, 126, tau=0.02, seed=0))
    result = build_curve_K(c, cloud, 0.1, 0.02, zeta=0.05)
    assert result.verdict == "out-of-regime"
    assert result.curve is None
    assert result.checks == {}
    assert any("noise-density-margin" in note for note in result.annotations)


def test_measured_density_substitutes_for_a_missing_claim():
    c = Circle(1.0)
    cloud = sample(SamplerSpec(c, 80, seed=1))
    result = build_curve_K(c, cloud, 0.3, 0.0, zeta=None)
    assert result.verdict == "ok"
    cond = result.conditions.conditions[-1]
    assert cond.name == "projection-density" and cond.holds
    assert cond.lhs == cond.rhs  # measured value plays both roles


def test_result_json_round_trip_is_deterministic(tmp_path):
    c = Circle(1.0)
    cloud = sample(SamplerSpec(c, 60, tau=0.01, seed=4))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _write_json(str(a), build_curve_K(c, cloud, 0.25, 0.01, zeta=0.06).to_json_dict())
    _write_json(str(b), build_curve_K(c, cloud, 0.25, 0.01, zeta=0.06).to_json_dict())
    assert a.read_bytes() == b.read_bytes()
    obj = json.loads(a.read_text())
    assert set(obj) == {
        "curve",
        "checks",
        "conditions",
        "order",
        "params",
        "verdict",
        "annotations",
    }
    assert obj["curve"]["closed"] is True
