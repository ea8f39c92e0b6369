"""Tower experiments: direct and inverse systems, twin metrics, projection."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ripshadow.limits
from ripshadow.cli import _write_json
from ripshadow.homology import (
    barycentric_subdivision,
    carrier_map_to_nerve,
    composed_chain_columns,
    homology_basis,
    induced_from_chain_columns,
    induced_map_on_bases,
    subdivision_chain_columns,
)
from ripshadow.limits import (
    DirectSystemSpec,
    InverseSystemSpec,
    _sample_stages,
    default_sample_count,
    dense_arc_enumeration,
    measured_density,
    radical_inverse_base2,
    run_direct_system,
    run_inverse_system,
    run_metric_comparability,
    run_projection_check,
)
from ripshadow.models import Circle, SamplerSpec, sample, theta_graph
from ripshadow.rips import build_rips, maximal_cliques
from ripshadow.shadow import ConvexCellSystem, build_nerve


# ---------------------------------------------------------------------------
# enumeration and density helpers


def test_radical_inverse_base2_first_values():
    assert radical_inverse_base2(1) == 0.5
    assert radical_inverse_base2(2) == 0.25
    assert radical_inverse_base2(3) == 0.75
    assert radical_inverse_base2(4) == 0.125


def test_dense_enumeration_prefixes_nest():
    c = Circle(1.0)
    small = dense_arc_enumeration(c, 16, seed=4)
    large = dense_arc_enumeration(c, 64, seed=4)
    assert np.array_equal(large[:16], small)
    assert np.all((large >= 0.0) & (large < c.length))
    # a different seed shifts the whole sequence
    assert not np.array_equal(dense_arc_enumeration(c, 16, seed=5), small)


def test_default_sample_count_follows_the_finest_scale():
    c = Circle(1.0)
    assert default_sample_count(c, 0.2) == math.ceil(2.2 * c.length / 0.2)


def test_measured_density_on_the_theta_graph_matches_the_dense_formula():
    g = theta_graph()
    params = np.random.default_rng(3).uniform(0.0, g.length, size=100)
    grid_n = 2048  # eight blocks of grid rows
    grid = np.arange(grid_n) * (g.length / grid_n)
    d = np.asarray(g.geodesic_param_distance(grid[:, None], params[None, :]))
    want = float(d.min(axis=1).max()) + g.length / (2.0 * grid_n)
    assert measured_density(g, params) == want


def test_measured_density_bounds_the_true_gap_from_above():
    c = Circle(1.0)
    cloud = sample(SamplerSpec(c, 50, seed=0))
    params = np.arange(50) * (c.length / 50)
    density = measured_density(c, params)
    assert density >= c.length / 50 / 2.0  # covering radius of an even grid
    # the reported value includes the grid half-step, so it never understates
    assert density <= c.length / 50 / 2.0 + c.length / 2048.0


# ---------------------------------------------------------------------------
# spec validation


def test_direct_spec_requires_growing_sizes():
    with pytest.raises(ValueError):
        DirectSystemSpec(Circle(1.0), 0.4, (40, 40, 80))
    with pytest.raises(ValueError):
        DirectSystemSpec(Circle(1.0), 0.4, (80, 40))


def test_inverse_spec_requires_decreasing_scales():
    with pytest.raises(ValueError):
        InverseSystemSpec(Circle(1.0), (0.2, 0.5))
    with pytest.raises(ValueError):
        InverseSystemSpec(Circle(1.0), (0.5,))


def test_paired_noise_grid_must_shrink_slower_than_the_scales():
    # each scale step must absorb twice the noise step
    with pytest.raises(ValueError):
        InverseSystemSpec(Circle(1.0), (0.5, 0.48), taus=(0.05, 0.02))
    spec = InverseSystemSpec(Circle(1.0), (0.5, 0.4), taus=(0.05, 0.02))
    assert spec.stage_taus() == (0.05, 0.02)


def test_paired_noise_needs_the_rips_object():
    with pytest.raises(ValueError):
        InverseSystemSpec(
            Circle(1.0), (0.5, 0.4), object_kind="shadow-nerve", taus=(0.05, 0.02)
        )


# ---------------------------------------------------------------------------
# direct systems


def test_direct_system_stabilizes_on_the_circle():
    spec = DirectSystemSpec(Circle(1.0), 0.4, (20, 40, 80), seed=7)
    report = run_direct_system(spec)
    assert report.verdict == "consistent"
    assert report.target_rank == 1
    assert report.stabilized["tower"] == 1
    table = report.towers["tower"].rank_table[1]
    assert table[0][2] == 1


def test_direct_system_below_density_is_inconsistent():
    # at this scale even the largest stage barely connects; ranks never settle
    spec = DirectSystemSpec(Circle(1.0), 0.05, (20, 40, 80, 160), seed=7)
    report = run_direct_system(spec)
    assert report.verdict == "inconsistent"
    assert report.stabilized["tower"] is None
    assert any("plateau" in note for note in report.annotations)


def test_direct_system_gates_on_failed_hypotheses():
    report = run_direct_system(DirectSystemSpec(Circle(1.0), 0.9, (20, 40, 80)))
    assert report.verdict == "out-of-regime"
    assert report.towers == {}
    assert any("normal-clearance" in note for note in report.annotations)


# ---------------------------------------------------------------------------
# inverse systems


def test_inverse_system_rips_object_on_the_circle():
    spec = InverseSystemSpec(Circle(1.0), (0.5, 0.4, 0.3, 0.2), seed=7)
    report = run_inverse_system(spec)
    assert report.verdict == "consistent"
    assert report.target_rank == 1
    assert report.stabilized["tower"] == 1
    # stages run finest first so coarsening maps are honest inclusions
    betas = [st["beta"] for st in report.stages]
    assert betas == sorted(betas)


def test_inverse_system_shadow_nerve_object():
    spec = InverseSystemSpec(
        Circle(1.0), (0.5, 0.4, 0.3, 0.2), object_kind="shadow-nerve", seed=7
    )
    report = run_inverse_system(spec)
    assert report.verdict == "consistent"
    assert report.stabilized["tower"] == 1


def test_inverse_system_with_paired_noise_grid():
    spec = InverseSystemSpec(
        Circle(1.0),
        (0.14, 0.12, 0.10, 0.08),
        tau=0.02,
        n=200,
        taus=(0.02, 0.015, 0.01, 0.005),
        seed=5,
    )
    report = run_inverse_system(spec)
    assert report.verdict == "consistent"
    assert report.stabilized["tower"] == 1
    taus = [st["tau"] for st in report.stages]
    assert taus == sorted(taus)  # finest stage carries the smallest noise


def test_stage_clouds_are_drawn_by_the_sampler(monkeypatch):
    model = Circle(1.0)
    betas = (0.08, 0.10, 0.12, 0.14)  # finest stage first
    taus = (0.01, 0.015, 0.02, 0.02)
    calls = []

    def counted(model, params):
        calls.append(len(params))
        return measured_density(model, params)

    monkeypatch.setattr(ripshadow.limits, "measured_density", counted)
    for scheme in ("stratified", "uniform-arc"):
        calls.clear()
        clouds, stages, _ = _sample_stages(model, 80, 5, scheme, betas, taus)
        for cloud, tau in zip(clouds, taus):
            want = sample(SamplerSpec(model, 80, tau, 5, scheme)).points
            assert cloud.points.tobytes() == want.tobytes()
        assert clouds[2] is clouds[3]
        assert len({id(c) for c in clouds}) == 3
        # one density per distinct noise, shared by the stages that carry it
        assert calls == [80] * 3
        assert stages[2]["density"] == stages[3]["density"]
        shared, _, _ = _sample_stages(model, 80, 5, scheme, betas, (0.02,) * 4)
        assert all(c is shared[0] for c in shared)
    with pytest.raises(ValueError):
        _sample_stages(model, 20, 0, "stratified", (2.5, 3.0), (model.tube_radius,) * 2)


def test_inverse_system_gates_and_suppresses_towers():
    spec = InverseSystemSpec(Circle(1.0), (0.7, 0.6, 0.5, 0.4), seed=7)
    report = run_inverse_system(spec)
    assert report.verdict == "out-of-regime"
    assert report.towers == {}
    assert report.stabilized == {}
    assert any("normal-clearance" in note for note in report.annotations)


def test_inverse_report_json_is_reproducible(tmp_path):
    spec = InverseSystemSpec(Circle(1.0), (0.5, 0.4, 0.3), seed=2)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _write_json(str(a), run_inverse_system(spec).to_json_dict())
    _write_json(str(b), run_inverse_system(spec).to_json_dict())
    assert a.read_bytes() == b.read_bytes()
    obj = json.loads(a.read_text())
    assert obj["kind"] == "inverse-limit"
    assert obj["spec"]["object"] == "rips"


# ---------------------------------------------------------------------------
# twin metrics


def test_metric_comparability_towers_are_bit_identical(monkeypatch):
    towers = []
    build = ripshadow.limits.HomologyTower

    def counted(*args, **kwargs):
        towers.append(build(*args, **kwargs))
        return towers[-1]

    monkeypatch.setattr(ripshadow.limits, "HomologyTower", counted)
    report = run_metric_comparability(
        Circle(1.0), (0.14, 0.12, 0.10, 0.08), 0.0, 0.15, n=200, seed=1
    )
    assert report.verdict == "consistent"
    assert report.numbers["stagewise_identical"] is True
    assert report.numbers["path_to_chord_ratio_max"] >= 1.0
    assert report.stabilized["euclidean"] == report.stabilized["epsilon-path"] == 1
    # the twins' complexes are equal stage for stage, so one tower serves both
    assert len(towers) == 1
    assert report.towers["euclidean"] is report.towers["epsilon-path"]


def test_metric_comparability_requires_scales_below_the_cutoff():
    report = run_metric_comparability(
        Circle(1.0), (0.3, 0.25, 0.2, 0.15), 0.0, 0.25, n=80, seed=1
    )
    assert report.verdict == "out-of-regime"
    assert report.towers == {}
    failing = [
        c.name for rep in report.conditions for c in rep.conditions if not c.holds
    ]
    assert "scales-below-cutoff" in failing


# ---------------------------------------------------------------------------
# projection route


def test_projection_check_composite_has_full_rank():
    report = run_projection_check(Circle(1.0), 0.4, n=60, seed=0)
    assert report.verdict == "consistent"
    assert report.numbers["complex_rank"] == [1, 1]
    assert report.numbers["nerve_rank"] == [1, 1]
    assert report.numbers["composite_rank"] == [1, 1]
    assert report.numbers["subdivision_betti"] == report.numbers["complex_betti"]


def test_projection_check_gates_out_of_regime():
    report = run_projection_check(Circle(1.0), 1.2, n=60, seed=0)
    assert report.verdict == "out-of-regime"
    assert report.towers == {}


def _projection_ranks(model, cloud, beta):
    """Composite ranks of the projection route, composed before homology and
    in two steps through the subdivision's own basis."""
    metric = model.geodesic_metric(cloud)
    complex_ = build_rips(metric, beta, cap=2)
    system = ConvexCellSystem(cloud, maximal_cliques(metric, beta))
    nerve = build_nerve(system, cap=2)
    sd, carriers = barycentric_subdivision(complex_)
    base_src = homology_basis(complex_, 1)
    base_nerve = homology_basis(nerve.complex, 1)
    carrier_map = carrier_map_to_nerve(sd, carriers, system, nerve)
    sub_cols = subdivision_chain_columns(complex_, sd, 1)

    composed = composed_chain_columns(carrier_map, sub_cols)
    once = induced_from_chain_columns(composed, base_src, base_nerve, 1)

    base_sd = homology_basis(sd, 1)
    sub_mats = induced_from_chain_columns(sub_cols, base_src, base_sd, 1)
    carrier_mats = induced_map_on_bases(carrier_map, base_sd, base_nerve)
    two_step = [carrier_mats[m].matmul(sub_mats[m]) for m in range(2)]
    return [m.rank() for m in once], [m.rank() for m in two_step]


@settings(max_examples=12, deadline=None)
@given(
    model=st.sampled_from([Circle(1.0), theta_graph()]),
    n=st.integers(12, 40),
    beta=st.sampled_from([0.3, 0.5, 0.8]),
    seed=st.integers(0, 5),
)
def test_composed_chain_map_has_the_two_step_ranks(model, n, beta, seed):
    cloud = sample(SamplerSpec(model, n, seed=seed))
    once, two_step = _projection_ranks(model, cloud, beta)
    assert once == two_step


def test_projection_check_ranks_match_the_two_step_route():
    model = Circle(1.0)
    report = run_projection_check(model, 0.4, n=60, seed=0)
    cloud = _sample_stages(model, 60, 0, "stratified", (0.4,), (0.0,))[0][0]
    once, two_step = _projection_ranks(model, cloud, 0.4)
    assert report.numbers["composite_rank"] == once == two_step == [1, 1]


def test_projection_check_takes_no_basis_of_the_subdivision(monkeypatch):
    made = {}
    based = []

    def keep(name, fn):
        def wrapper(*args, **kwargs):
            made[name] = out = fn(*args, **kwargs)
            return out

        monkeypatch.setattr(ripshadow.limits, name, wrapper)

    for name in ("build_rips", "build_nerve"):
        keep(name, getattr(ripshadow.limits, name))
    basis = ripshadow.limits.homology_basis
    monkeypatch.setattr(
        ripshadow.limits,
        "homology_basis",
        lambda complex_, up_to: based.append(complex_) or basis(complex_, up_to),
    )
    report = run_projection_check(Circle(1.0), 0.4, n=60, seed=0)
    assert report.verdict == "consistent"
    assert len(based) == 2
    assert based[0] is made["build_rips"]
    assert based[1] is made["build_nerve"].complex
