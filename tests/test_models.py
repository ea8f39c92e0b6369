"""Geometry layer: point clouds, metrics, models, sampling, scale conditions."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from ripshadow.cli import _points_csv, _write_text
from ripshadow.models import (
    AmbiguousProjectionError,
    Circle,
    PointCloud,
    SamplerSpec,
    Trefoil,
    check_scale_conditions,
    epsilon_path_metric,
    euclidean_metric,
    hausdorff_distance,
    load_model,
    model_from_json,
    sample,
    theta_graph,
)


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


def test_hausdorff_distance_on_interval_endpoints():
    a = PointCloud(np.array([[0.0], [1.0]]))
    b = PointCloud(np.array([[0.0], [2.0]]))
    assert hausdorff_distance(a, b) == pytest.approx(1.0)


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


def test_circle_projection_and_geodesic():
    c = Circle(1.0)
    res = c.project(np.array([2.0, 0.0]))
    assert np.allclose(res.point, [1.0, 0.0])
    assert res.distance == pytest.approx(1.0)
    assert c.geodesic_param_distance(0.0, math.pi) == pytest.approx(math.pi)
    # wrap-around takes the short way
    assert c.geodesic_param_distance(0.1, 2.0 * math.pi - 0.1) == pytest.approx(0.2)


def test_circle_projection_ambiguous_at_center():
    with pytest.raises(AmbiguousProjectionError):
        Circle(1.0).project(np.array([0.0, 0.0]))


def test_trefoil_constants_are_stable():
    t = Trefoil(1.0)
    assert t.length == pytest.approx(28.8262902, rel=1e-6)
    assert t.normal_clearance == pytest.approx(1.208265659, rel=1e-6)
    assert t.tube_radius == pytest.approx(0.5767989182, rel=1e-6)
    assert t.tube_radius < t.normal_clearance
    assert t.betti() == (1, 1)


def test_theta_graph_length_matches_chord_formula():
    g = theta_graph(segments_per_arc=16)
    # straight bar of length 2 plus two inscribed semicircles of 16 chords
    expected = 2.0 + 2.0 * 16 * 2.0 * math.sin(math.pi / 32.0)
    assert g.length == pytest.approx(expected, rel=1e-12)
    assert g.betti() == (1, 2)


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
