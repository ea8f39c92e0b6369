"""Geometry layer: point clouds, metrics, models, sampling, scale conditions."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ripshadow import models
from ripshadow.cli import _points_csv, _write_text
from ripshadow.limits import measured_density
from ripshadow.models import (
    AmbiguousProjectionError,
    Circle,
    EmbeddedGraph,
    PointCloud,
    SamplerSpec,
    Trefoil,
    _trefoil_point,
    check_scale_conditions,
    epsilon_path_metric,
    euclidean_metric,
    load_model,
    model_from_json,
    sample,
    theta_graph,
)
from ripshadow.oracle import (
    brute_circle_projection,
    brute_curve_projection,
    brute_graph_projection,
    brute_trefoil_clearance,
)
from ripshadow.reconstruct import Polyline, _hausdorff_to_model, order_by_projection


def _circle_cloud(n: int, r: float = 1.0) -> PointCloud:
    ts = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return PointCloud(np.stack([r * np.cos(ts), r * np.sin(ts)], axis=1))


# ---------------------------------------------------------------------------
# clouds and metrics


def test_point_cloud_validates_shape_and_finiteness():
    with pytest.raises(ValueError):
        PointCloud(np.zeros(3))
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, np.inf]]))


def test_point_cloud_csv_round_trip(tmp_path):
    cloud = _circle_cloud(7)
    path = tmp_path / "pts.csv"
    _write_text(str(path), _points_csv(cloud.points))
    back = PointCloud.from_csv(str(path))
    assert np.array_equal(back.points, cloud.points)


def test_euclidean_metric_matches_hand_distances():
    cloud = PointCloud(np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]]))
    met = euclidean_metric(cloud)
    assert met.d[0, 1] == pytest.approx(5.0)
    assert met.d[0, 2] == pytest.approx(1.0)
    assert np.array_equal(met.d, met.d.T)
    assert np.all(np.diag(met.d) == 0.0)


def test_metric_matrix_rejects_asymmetry_and_negative_entries():
    from ripshadow.models import MetricMatrix

    with pytest.raises(ValueError):
        MetricMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        MetricMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_path_metric_agrees_with_chords_below_cutoff():
    # three collinear points one unit apart; cutoff just above one unit
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    met = epsilon_path_metric(cloud, 1.1)
    assert met.d[0, 1] == pytest.approx(1.0)
    # the long pair is out of cutoff range, so its distance rides the path
    assert met.d[0, 2] == pytest.approx(2.0)


def test_path_metric_marks_disconnected_pairs_infinite():
    cloud = PointCloud(np.array([[0.0, 0.0], [10.0, 0.0]]))
    met = epsilon_path_metric(cloud, 1.0)
    assert np.isinf(met.d[0, 1])


# ---------------------------------------------------------------------------
# models


def test_circle_constants():
    c = Circle(1.0)
    assert c.length == pytest.approx(2.0 * math.pi)
    assert c.normal_clearance == pytest.approx(2.0)
    assert c.homotopy_radius == pytest.approx(math.pi)
    assert c.tube_radius == pytest.approx(1.0)
    assert c.max_chord_bound == pytest.approx(2.0)
    assert c.betti() == (1, 1)
    # the chord window may reach the diameter, where the distortion is pi/2
    assert c.distortion(2.0) == pytest.approx(math.pi / 2.0)
    with pytest.raises(ValueError):
        c.distortion(2.0 + 1e-12)


def _scalar_point(model, t: float) -> np.ndarray:
    """One point by the scalar formulas, the reference for ``points_at``."""
    if isinstance(model, Circle):
        theta = (t % model.length) / model.radius
        p = model.center.copy()
        p[0] += model.radius * math.cos(theta)
        p[1] += model.radius * math.sin(theta)
        return p
    if isinstance(model, EmbeddedGraph):
        t = float(t) % model.length
        k = int(np.searchsorted(model._starts, t, side="right")) - 1
        k = min(max(k, 0), len(model.edges) - 1)
        a, b = model.edges[k]
        frac = (t - model._starts[k]) / model._elens[k]
        return (1.0 - frac) * model.vertices[a] + frac * model.vertices[b]
    return np.atleast_2d(_trefoil_point(model._param_of_arc(t), model.scale))[0]


@pytest.mark.parametrize(
    "model",
    [
        Circle(1.0),
        Circle(0.37, center=[0.5, -1.0, 2.0], dim=3),
        Trefoil(1.0),
        Trefoil(2.5),
        theta_graph(16),
    ],
    ids=["circle", "circle-3d", "trefoil", "trefoil-2.5", "theta"],
)
def test_model_grid_equals_the_point_by_point_loop(model):
    # the arc grids of the reconstruction's Hausdorff walk, bit for bit
    for step in (0.0362 / 10.0, 0.002 * model.length):
        grid_n = int(math.ceil(model.length / step))
        grid = np.arange(grid_n) * (model.length / grid_n)
        want = np.stack([_scalar_point(model, t) for t in grid])
        assert np.array_equal(model.points_at(grid), want)
        # parameters past the length wrap, by the same formulas
        past = grid[:9] + 3.0 * model.length
        assert np.array_equal(model.points_at(past), np.stack([_scalar_point(model, t) for t in past]))


def test_circle_projection_and_geodesic():
    c = Circle(1.0)
    points, _, dists = c.project(np.array([[2.0, 0.0]]))
    assert np.allclose(points, [[1.0, 0.0]])
    assert dists[0] == pytest.approx(1.0)
    assert c.geodesic_param_distance(0.0, math.pi) == pytest.approx(math.pi)
    # wrap-around takes the short way
    assert c.geodesic_param_distance(0.1, 2.0 * math.pi - 0.1) == pytest.approx(0.2)


def test_circle_projection_ambiguous_at_center():
    with pytest.raises(AmbiguousProjectionError):
        Circle(1.0).project(np.array([[0.0, 0.0]]))


def _projection_outcome(project, X):
    """(points, params, distances), or the first ambiguous row."""
    try:
        return project(X)
    except AmbiguousProjectionError as exc:
        return exc.row


def _assert_same_outcome(got, want):
    if isinstance(want, int):
        assert got == want
    else:
        assert not isinstance(got, int)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_circle_projection_equals_the_row_loop():
    c = Circle(2.0)
    X = np.array([[3.0, 1.0], [-0.5, 0.25], [0.0, -4.0]])
    _assert_same_outcome(c.project(X), brute_circle_projection(c, X))
    with pytest.raises(AmbiguousProjectionError) as info:
        c.project(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    assert info.value.row == 1
    assert [a.shape for a in c.project(np.zeros((0, 2)))] == [(0, 2), (0,), (0,)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_circle_projection_is_bit_equal_to_the_oracle(dim, n, seed):
    rng = np.random.default_rng(seed)
    c = Circle(10.0 ** rng.uniform(-2.0, 2.0), center=rng.normal(size=dim) * 5.0, dim=dim)
    X = c.center + rng.normal(size=(n, dim)) * c.radius * rng.choice([0.1, 1.0, 3.0])
    if n > 2 and rng.random() < 0.3:
        # rows on the axis: the centre, and above it in the third coordinate
        X[rng.integers(n, size=2)] = c.center + np.eye(dim)[dim - 1] * (dim - 2)
    _assert_same_outcome(
        _projection_outcome(c.project, X), _projection_outcome(lambda X: brute_circle_projection(c, X), X)
    )


def _random_graph(rng) -> EmbeddedGraph:
    """A closed 3-d polygon on 4 to 9 vertices with one chord."""
    v = int(rng.integers(4, 10))
    edges = [(k, (k + 1) % v) for k in range(v)] + [(0, v // 2)]
    return EmbeddedGraph(rng.normal(size=(v, 3)), edges)


@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_graph_projection_is_bit_equal_to_the_oracle(theta, n, seed):
    rng = np.random.default_rng(seed)
    g = theta_graph(int(rng.integers(2, 20))) if theta else _random_graph(rng)
    near = g.points_at(rng.uniform(0.0, g.length, n))
    X = near + rng.normal(size=near.shape) * rng.choice([1e-3, 0.05, 1.0])
    if n > 2 and rng.random() < 0.3:
        # rows at vertices and on a segment's own points
        X[rng.integers(n, size=2)] = g.vertices[rng.integers(len(g.vertices), size=2)]
    _assert_same_outcome(
        _projection_outcome(g.project, X), _projection_outcome(lambda X: brute_graph_projection(g, X), X)
    )


def test_graph_projection_names_the_first_ambiguous_row():
    # rows 1 and 2 are equidistant from the two parallel bars
    g = EmbeddedGraph([[-1.0, 0.0], [1.0, 0.0], [-1.0, 2.0], [1.0, 2.0]], [(0, 1), (2, 3)])
    X = np.array([[0.0, -1.0], [0.3, 1.0], [5.0, 1.0], [0.0, 3.0]])
    with pytest.raises(AmbiguousProjectionError) as info:
        g.project(X)
    assert info.value.row == 1
    points, params, dists = g.project(X[[0, 3]])
    assert np.array_equal(points, [[0.0, 0.0], [0.0, 2.0]])
    assert params.tolist() == [1.0, 3.0] and dists.tolist() == [1.0, 1.0]


def test_graph_projection_near_a_convex_corner_is_not_ambiguous():
    # the foot lies on one segment, 7e-5 from the vertex it shares with the
    # next; that segment's clamped foot, the vertex itself, is no rival
    g = theta_graph(16)
    X = np.array([[-0.82801656, -1.34132997]])
    points, params, dists = g.project(X)
    k, off = g._locate(params)
    assert 0.0 < off[0] < g._elens[k[0]]  # inside its segment, off the vertex
    assert np.array_equal(dists, np.linalg.norm(X - points, axis=1))
    _assert_same_outcome(
        _projection_outcome(g.project, X), _projection_outcome(lambda X: brute_graph_projection(g, X), X)
    )


def _trefoil_queries(scale: float, n: int, seed: int) -> np.ndarray:
    """Points within 0.05 * scale of the curve mixed with points up to
    6 * scale away, in random order."""
    rng = np.random.default_rng(seed)
    near = _trefoil_point(rng.uniform(0.0, 2.0 * math.pi, n), scale)
    near += rng.uniform(-0.05, 0.05, (n, 3)) * scale
    far = rng.uniform(-6.0, 6.0, (n, 3)) * scale
    return np.where(rng.random((n, 1)) < 0.5, near, far)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([0.4, 1.0, 2.5]), st.integers(1, 80), st.integers(0, 2**32 - 1))
def test_trefoil_batch_projection_equals_row_by_row(scale, n, seed):
    """Up to 80 rows span three 32-row scan blocks; a row's result, and
    whether it is ambiguous, must not depend on the rest of its batch."""
    t = Trefoil(scale)
    X = _trefoil_queries(scale, n, seed)
    rows = []
    for i in range(n):
        try:
            rows.append(t.project(X[i : i + 1]))
        except AmbiguousProjectionError:
            with pytest.raises(AmbiguousProjectionError) as info:
                t.project(X)
            assert info.value.row == i
            return
    points, params, dists = t.project(X)
    for i, (p, u, d) in enumerate(rows):
        assert np.array_equal(points[i], p[0])
        assert params[i] == u[0] and dists[i] == d[0]


def _scalar_golden(scale, x, a, b):
    phi = (math.sqrt(5.0) - 1.0) / 2.0

    def f(u):
        return float(np.sum((_trefoil_point(u, scale) - x) ** 2))

    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-12:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    u = 0.5 * (a + b)
    return u, f(u)


def _scalar_trefoil_project(t: Trefoil, x):
    """One point at a time, by loops: the reference the batch must equal bit
    for bit; None for an ambiguous point."""
    u_grid, pts = t._scan_points
    s, h = t.scale, 2.0 * math.pi / t._SCAN
    d2 = np.sum((pts - x) ** 2, axis=1)
    best = int(np.argmin(d2))
    u, f = _scalar_golden(s, x, u_grid[best] - 2 * h, u_grid[best] + 2 * h)
    for j in np.argsort(d2)[1:8]:
        du = abs(u_grid[j] - u_grid[best]) % (2.0 * math.pi)
        if min(du, 2.0 * math.pi - du) <= 4 * h:
            continue
        slack = f + 1e-7 * s**2 + 4.0 * h * s * math.sqrt(f) + 40.0 * h**2 * s**2
        if d2[j] > slack:
            continue
        alt_u, alt_f = _scalar_golden(s, x, u_grid[j] - 2 * h, u_grid[j] + 2 * h)
        if abs(math.sqrt(alt_f) - math.sqrt(f)) < 1e-9 * s:
            gap = _trefoil_point(u, s) - _trefoil_point(alt_u, s)
            if np.linalg.norm(gap) > 1e-6 * s:
                return None
    p = _trefoil_point(u, s)
    return p, float(t._arc_of_param(u)), float(np.linalg.norm(x - p))


def test_trefoil_batch_projection_equals_the_scalar_loops():
    for scale in (0.4, 2.5):
        t = Trefoil(scale)
        X = _trefoil_queries(scale, 50, 17)
        X[[7, 41]] = [[0.0, 0.0, -0.4 * scale], [0.0, 0.0, 0.0]]
        ref = [_scalar_trefoil_project(t, x) for x in X]
        assert [i for i, r in enumerate(ref) if r is None] == [7, 41]
        points, params, dists = t.project(np.delete(X, [7, 41], axis=0))
        ref = [r for r in ref if r is not None]
        for i, (p, u, d) in enumerate(ref):
            assert np.array_equal(points[i], p) and (params[i], dists[i]) == (u, d)


def test_batched_golden_search_stops_each_row_on_its_own():
    # brackets from 1e-12 to 1 wide take from 0 to about 57 iterations
    t = Trefoil(1.0)
    X = _trefoil_queries(1.0, 6, 3)
    lo = np.linspace(0.5, 5.0, 6)
    hi = lo + np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0])
    u, f = t._golden(X, lo, hi)
    for i in range(6):
        ui, fi = t._golden(X[i : i + 1], lo[i : i + 1], hi[i : i + 1])
        assert (u[i], f[i]) == (ui[0], fi[0])
    assert np.all((lo <= u) & (u <= hi))


def test_trefoil_projection_distances_match_a_dense_scan():
    for scale in (0.5, 2.0):
        t = Trefoil(scale)
        X = _trefoil_queries(scale, 40, 11)
        _, _, dists = t.project(X)
        for x, d in zip(X, dists):
            _, ref = brute_curve_projection(lambda u: _trefoil_point(u, scale), x)
            assert abs(d - ref) <= 1e-6 * scale


def test_trefoil_batch_keeps_the_ambiguity_of_the_symmetry_axis():
    # points of the z-axis, the origin among them, lie on the axis of the
    # knot's 3-fold rotation symmetry
    t = Trefoil(1.0)
    X = np.array([[3.0, 0.0, 0.0], [0.0, 3.0, 0.5], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    with pytest.raises(AmbiguousProjectionError) as info:
        t.project(X)
    assert info.value.row == 2
    with pytest.raises(AmbiguousProjectionError):
        t.project(np.zeros((1, 3)))
    assert t.project(X[[0, 1, 3]])[2].shape == (3,)
    # past the first scan block
    X = _trefoil_queries(1.0, 40, 5)
    X[35] = X[38] = [0.0, 0.0, 0.3]
    with pytest.raises(AmbiguousProjectionError) as info:
        t.project(X)
    assert info.value.row == 35


def test_partial_neighbour_sort_matches_a_full_sort(monkeypatch):
    """Points, parameters, distances and the first ambiguous row equal those
    of a full argsort of the scan distances on a trefoil rebuild's sample
    (n = 141, tau = 0.01, seed 0), on its Hausdorff walk, and on the sample
    followed by points of the z-axis."""
    t = Trefoil(1.0)
    cloud = sample(SamplerSpec(t, 141, tau=0.01, seed=0))
    order, params = order_by_projection(t, cloud)
    walks = []
    batch = t.project
    monkeypatch.setattr(t, "project", lambda X: walks.append(X) or batch(X))
    _hausdorff_to_model(t, Polyline(cloud.points[order], closed=True), measured_density(t, params))
    monkeypatch.undo()
    z = np.linspace(-3.0, 3.0, 61)
    axis = np.column_stack([np.zeros_like(z), np.zeros_like(z), z])
    inputs = [cloud.points, walks[0], np.concatenate([cloud.points[:40], axis])]

    def outcomes():
        out = []
        for X in inputs:
            try:
                out.append(t.project(X))
            except AmbiguousProjectionError as exc:
                out.append(exc.row)
        return out

    # without ties the nearest seven after the first are one set
    d2 = np.random.default_rng(0).random((64, 4096))
    assert np.array_equal(
        np.sort(models._second_to_eighth_nearest(d2), axis=1),
        np.sort(np.argsort(d2, axis=1)[:, 1:8], axis=1),
    )
    partial = outcomes()
    monkeypatch.setattr(models, "_second_to_eighth_nearest", lambda d2: np.argsort(d2, axis=1)[:, 1:8])
    full = outcomes()
    assert len(walks[0]) > 2000 and partial[2] == full[2] == 40
    for got, ref in zip(partial[:2], full[:2]):
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_trefoil_constants_are_stable():
    t = Trefoil(1.0)
    assert t.length == pytest.approx(28.8262902, rel=1e-6)
    # exact floats: a pruned scan that loses one pair moves a bit here
    assert t.normal_clearance == 1.2082656589332508
    assert t.tube_radius == 0.5767989182371627
    assert t.tube_radius < t.normal_clearance
    assert t.betti() == (1, 1)


@settings(max_examples=4, deadline=None)
@given(st.floats(-3.0, 3.0))
@example(math.log10(0.37))
def test_pruned_clearance_scan_equals_the_full_scan(log_scale):
    t = Trefoil(10.0**log_scale)
    assert t._clearance_numbers == brute_trefoil_clearance(t)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 70),
    st.integers(1, 70),
    st.sampled_from([1, 3, 16]),
    st.sampled_from(["scalar", "per-tile", "inf"]),
)
def test_near_tile_pairs_keep_every_pair_within_the_bound(seed, n_a, n_b, size, kind):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    shift = rng.normal(size=3) * scale * rng.choice([0.0, 1e3])
    a = shift + rng.normal(size=(n_a, 3)) * scale
    b = shift + rng.normal(size=(n_b, 3)) * scale
    d = cdist(a, b)
    tiles_a = (n_a + size - 1) // size
    bound = {
        "scalar": float(np.quantile(d, rng.uniform())),
        "per-tile": np.quantile(d, rng.uniform(size=tiles_a)),
        "inf": math.inf,
    }[kind]
    ca, ra = models._tile_spheres(a[:, None], size)
    cb, rb = models._tile_spheres(b[:, None], size)
    rows, cols = models._near_tile_pairs(cdist(ca, cb), ra, rb, bound)
    kept = set(zip(rows.tolist(), cols.tolist()))
    per_row = np.broadcast_to(bound, (tiles_a,))[np.arange(n_a) // size]
    i, j = np.nonzero(d <= per_row[:, None])
    assert set(zip((i // size).tolist(), (j // size).tolist())) <= kept
    if kind == "inf":
        assert len(kept) == tiles_a * ((n_b + size - 1) // size)
    # a segment tile's sphere holds every point of its segments
    segs = np.stack([a, np.roll(a, 1, axis=0)], axis=1)
    centres, radii = models._tile_spheres(segs, size)
    w = rng.uniform(size=(n_a, 1))
    inner = w * segs[:, 0] + (1.0 - w) * segs[:, 1]
    assert np.all(np.linalg.norm(inner - centres[np.arange(n_a) // size], axis=1)
                  <= radii[np.arange(n_a) // size])


def test_theta_graph_length_matches_chord_formula():
    g = theta_graph(segments_per_arc=16)
    # straight bar of length 2 plus two inscribed semicircles of 16 chords
    expected = 2.0 + 2.0 * 16 * 2.0 * math.sin(math.pi / 32.0)
    assert g.length == pytest.approx(expected, rel=1e-12)
    assert g.betti() == (1, 2)


def test_graph_clearance_is_the_exact_segment_gap():
    # a vertex hanging just above the bar's interior: 33 x 33 samples read 0.014142
    bar = EmbeddedGraph([[0.0, 0.0], [1.0, 0.0], [0.51, 0.01], [0.51, 1.0]], [(0, 1), (2, 3)])
    assert bar.normal_clearance == pytest.approx(0.01, rel=1e-12)
    assert bar.tube_radius == pytest.approx(0.00475, rel=1e-12)
    # skew segments in R^3, nearest at both interiors
    skew = EmbeddedGraph(
        [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.3], [0.0, 1.0, 0.3]], [(0, 1), (2, 3)]
    )
    assert skew.normal_clearance == pytest.approx(0.3, rel=1e-12)
    # the bar against the second chord of each arc; samples read 0.1960342806591209
    assert theta_graph(16).normal_clearance == math.sin(math.pi / 16.0)
    # parallel and collinear pairs; adjacent segments do not count
    assert EmbeddedGraph(
        [[0.0, 0.0], [1.0, 0.0], [0.5, 0.2], [2.0, 0.2]], [(0, 1), (2, 3)]
    ).normal_clearance == pytest.approx(0.2, rel=1e-12)
    assert EmbeddedGraph(
        [[0.0, 0.0], [1.0, 0.0], [1.5, 0.0], [3.0, 0.0]], [(0, 1), (2, 3)]
    ).normal_clearance == pytest.approx(0.5, rel=1e-12)
    assert EmbeddedGraph([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], [(0, 1), (1, 2)]).normal_clearance == math.inf


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_graph_clearance_lies_within_the_sampling_error(seed, dim):
    # a k x k sampling of two segments overstates their gap by at most half
    # a sampling step of each, and never understates it
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(4, dim))
    if rng.random() < 0.3:
        v[3] = v[2] + (v[1] - v[0]) * rng.uniform(-2.0, 2.0)  # parallel
    g = EmbeddedGraph(v, [(0, 1), (2, 3)])
    k = 257
    w = np.linspace(0.0, 1.0, k)[:, None]
    sampled = cdist(v[0] + w * (v[1] - v[0]), v[2] + w * (v[3] - v[2])).min()
    step = (g._elens[0] + g._elens[1]) / (2.0 * (k - 1))
    assert sampled - step - 1e-12 <= g.normal_clearance <= sampled + 1e-12


def test_model_json_round_trip(tmp_path):
    for model in (Circle(2.0), Trefoil(0.5), theta_graph(8)):
        back = model_from_json(model.to_spec_json())
        assert back.kind == model.kind
        assert back.length == pytest.approx(model.length)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(Circle(3.0).to_spec_json()))
    assert load_model(str(path)).length == pytest.approx(6.0 * math.pi)


def test_model_from_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        model_from_json({"kind": "klein-bottle"})


# ---------------------------------------------------------------------------
# sampling


def test_stratified_sample_is_evenly_spaced_on_the_model():
    c = Circle(1.0)
    cloud = sample(SamplerSpec(c, 8, seed=5))
    assert cloud.n == 8
    radii = np.linalg.norm(cloud.points, axis=1)
    assert np.allclose(radii, 1.0)
    # consecutive gaps all equal one stratum
    angles = np.sort(np.arctan2(cloud.points[:, 1], cloud.points[:, 0]) % (2 * math.pi))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))
    assert np.allclose(gaps, 2 * math.pi / 8)


def test_noisy_sample_stays_inside_the_tube():
    c = Circle(1.0)
    tau = 0.05
    cloud = sample(SamplerSpec(c, 60, tau=tau, seed=2))
    radii = np.linalg.norm(cloud.points, axis=1)
    assert np.all(np.abs(radii - 1.0) <= tau + 1e-12)


def test_sample_is_deterministic_per_seed():
    spec = SamplerSpec(Circle(1.0), 30, tau=0.02, seed=11, scheme="uniform-arc")
    assert np.array_equal(sample(spec).points, sample(spec).points)
    other = SamplerSpec(Circle(1.0), 30, tau=0.02, seed=12, scheme="uniform-arc")
    assert not np.array_equal(sample(spec).points, sample(other).points)


def test_sampler_spec_rejects_bad_inputs():
    c = Circle(1.0)
    with pytest.raises(ValueError):
        SamplerSpec(c, 0)
    with pytest.raises(ValueError):
        SamplerSpec(c, 5, tau=-0.1)
    with pytest.raises(ValueError):
        SamplerSpec(c, 5, scheme="poisson")
    # noise amplitude at the tube radius would break projections
    with pytest.raises(ValueError):
        SamplerSpec(c, 5, tau=1.0)


# ---------------------------------------------------------------------------
# scale conditions


_NOISELESS_NAMES = [
    "shadow-within-tube",
    "normal-clearance",
    "coarsening-window",
    "coarsening-homotopy",
    "noisy-coarsening-window",
    "noisy-coarsening-homotopy",
    "projection-window",
    "projection-homotopy",
]


def test_condition_names_and_clean_regime():
    rep = check_scale_conditions(Circle(1.0), 0.4)
    assert [c.name for c in rep.conditions] == _NOISELESS_NAMES
    assert rep.all_hold()
    assert rep.failing() == []


def test_noise_margin_condition_appears_with_amplitudes():
    rep = check_scale_conditions(Circle(1.0), 0.4, tau=0.02, zeta=0.05)
    names = [c.name for c in rep.conditions]
    assert names == _NOISELESS_NAMES + ["noise-density-margin"]
    assert rep.all_hold()
    # tau + zeta must stay under half the scale
    bad = check_scale_conditions(Circle(1.0), 0.1, tau=0.02, zeta=0.05)
    assert "noise-density-margin" in bad.failing()


def test_large_scale_breaks_clearance():
    rep = check_scale_conditions(Circle(1.0), 0.7)
    assert "normal-clearance" in rep.failing()
    assert not rep.all_hold()


def test_condition_report_serializes_with_sorted_content(tmp_path):
    rep = check_scale_conditions(Circle(1.0), 0.3, tau=0.01, zeta=0.02)
    obj = rep.to_json_dict()
    assert obj["model"] == "circle"
    assert obj["beta"] == pytest.approx(0.3)
    assert {c["name"] for c in obj["conditions"]} >= set(_NOISELESS_NAMES)
    # every condition row carries the compared numbers
    for row in obj["conditions"]:
        assert set(row) == {"name", "lhs", "rhs", "holds", "detail"}


@pytest.mark.parametrize(
    "model, betas",
    [(Circle(1.0), (0.3, 0.7)), (Trefoil(1.0), (0.2, 2.2)), (theta_graph(8), (0.05, 0.7))],
    ids=["circle", "trefoil", "theta"],
)
@pytest.mark.parametrize("tau", [0.0, 0.01])
def test_window_and_homotopy_conditions_keep_their_formulas(model, betas, tau):
    cap = model.max_chord_bound
    held = set()
    for b in betas:
        conds = {c.name: c for c in check_scale_conditions(model, b, tau).conditions}
        # (map, window lhs, homotopy offset, homotopy span)
        for name, needed, offset, span in (
            ("coarsening", 2.0 * b + b, 0.0, 2.0 * b + b),
            ("noisy-coarsening", b + b + (b + tau), 0.0, b + b),
            ("projection", b + b, b, b + b),
        ):
            window, homotopy = conds[f"{name}-window"], conds[f"{name}-homotopy"]
            xi = float(homotopy.detail.removeprefix("distortion="))
            assert window.lhs == needed
            assert window.rhs == min(needed * 1.001, cap)
            assert window.detail == f"window={window.rhs!r}"
            assert window.holds == (needed < cap)
            assert xi == (model.distortion(window.rhs) if window.holds else math.inf)
            assert homotopy.lhs == offset + xi * span
            assert homotopy.rhs == model.homotopy_radius
            assert homotopy.holds == (window.holds and homotopy.lhs < model.homotopy_radius)
            held.add(window.holds)
    # each model sees a window that fits and one that does not
    assert held == {True, False}
