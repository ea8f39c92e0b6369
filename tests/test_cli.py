"""Exit codes, artifact layout, config merging, and determinism of the CLI."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ripshadow
import ripshadow.cli
from ripshadow.cli import _write_text, main
from ripshadow.homology import betti
from ripshadow.models import PointCloud, euclidean_metric
from ripshadow.rips import CliqueList, SimplicialComplex, maximal_cliques
from ripshadow.shadow import ConvexCellSystem, NerveComplex, build_nerve


def test_inverse_tower_example_succeeds(tmp_path):
    out = tmp_path / "run1.json"
    code = main(
        [
            "tower",
            "--model", "circle", "--radius", "1",
            "--beta-grid", "0.5,0.4,0.3,0.2",
            "--object", "shadow-nerve",
            "--dim", "1", "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "consistent"
    assert report["stabilized"]["tower"] == 1


def test_increasing_scale_grid_is_a_usage_error(tmp_path):
    code = main(["tower", "--model", "circle", "--beta-grid", "0.2,0.5"])
    assert code == 64


def test_malformed_input_files_exit_one(tmp_path, capsys):
    pts = tmp_path / "bad.csv"
    pts.write_text("# x0,x1\n0.1,abc\n")
    out = tmp_path / "out.json"
    assert main(["rips", "--points", str(pts), "--beta", "0.2", "--out", str(out)]) == 1
    cx = tmp_path / "cx.json"
    # the edge (0, 2) is missing from the triangle's faces
    cx.write_text(json.dumps({"n": 3, "cap": 2, "simplices": [[0], [1], [2], [0, 1], [1, 2], [0, 1, 2]]}))
    assert main(["homology", "--complex", str(cx)]) == 1
    report = tmp_path / "report.json"
    report.write_text("{not json")
    assert main(["plot-data", "--report", str(report), "--out-dir", str(tmp_path)]) == 1
    report.write_text(json.dumps({"curve": {"points": [[0.0, 1.0], [2.0]]}}))
    assert main(["plot-data", "--report", str(report), "--out-dir", str(tmp_path)]) == 1
    assert not (tmp_path / "curve.csv").exists()
    assert "malformed input file" in capsys.readouterr().err
    assert not out.exists()


def test_direct_tower_rejects_flags_it_would_ignore(tmp_path, capsys):
    out = tmp_path / "run.json"
    base = ["tower", "--model", "circle", "--n-sequence", "20,40,80", "--beta", "0.4",
            "--out", str(out)]
    for extra, flag in (
        (["--object", "shadow-nerve"], "--object shadow-nerve"),
        (["--tau-grid", "0.01,0"], "--tau-grid"),
        (["--tau", "0.05"], "--tau"),
        (["--n", "500"], "--n "),
        (["--scheme", "uniform-arc"], "--scheme"),
    ):
        assert main(base + extra) == 64
        assert flag in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    for key, value, flag in (
        ("object", "shadow-nerve", "--object shadow-nerve"),
        ("n", 500, "--n "),
        ("scheme", "stratified", "--scheme"),
    ):
        cfg.write_text(json.dumps({key: value}))
        assert main(base + ["--config", str(cfg)]) == 64
        assert flag in capsys.readouterr().err
    assert not out.exists()
    # the values that change nothing are still accepted
    assert main(base + ["--object", "rips", "--tau", "0"]) == 0


def test_project_check_at_the_circle_diameter_is_out_of_regime(tmp_path):
    # beta close to the radius clips the coarsening window to the diameter,
    # where the circle's chord distortion is pi/2
    out = tmp_path / "pc.json"
    argv = ["project-check", "--model", "circle", "--beta", "0.9995", "--n", "60"]
    assert main(argv + ["--out", str(out)]) == 2
    assert json.loads(out.read_text())["verdict"] == "out-of-regime"


def test_missing_subcommand_and_unknown_flag_are_usage_errors():
    assert main([]) == 64
    assert main(["tower", "--frobnicate"]) == 64


def test_fault_injection_exits_two(tmp_path):
    out = tmp_path / "bad.json"
    code = main(
        ["tower", "--model", "circle", "--beta-grid", "0.7,0.6,0.5,0.4", "--out", str(out)]
    )
    assert code == 2
    report = json.loads(out.read_text())
    assert report["verdict"] == "out-of-regime"
    assert report["towers"] == {}


def test_identical_runs_produce_identical_bytes(tmp_path):
    args = [
        "tower", "--model", "circle",
        "--beta-grid", "0.5,0.4,0.3", "--n", "60", "--seed", "3",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_reconstruct_example_and_gated_variant(tmp_path):
    out = tmp_path / "rec.json"
    curve = tmp_path / "curve.csv"
    base = [
        "reconstruct", "--model", "circle",
        "--tau", "0.02", "--zeta", "0.05", "--n", "126", "--seed", "7",
        "--out", str(out), "--curve-csv", str(curve),
    ]
    assert main(base + ["--beta", "0.2"]) == 0
    result = json.loads(out.read_text())
    assert result["verdict"] == "ok"
    assert curve.read_text().startswith("# x0,x1\n")
    # the curve file reads back as a points file
    readback = tmp_path / "curve-rips.json"
    assert main(["rips", "--points", str(curve), "--beta", "0.2", "--out", str(readback)]) == 0
    assert PointCloud.from_csv(str(curve)).n == 126
    # crowding the scale with noise flips the exit code
    assert main(base + ["--beta", "0.1"]) == 2


def test_file_pipeline_sample_rips_homology(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    cx = tmp_path / "cx.json"
    assert main(["sample", "--model", "circle", "--n", "40", "--seed", "3", "--out", str(pts)]) == 0
    assert PointCloud.from_csv(str(pts)).n == 40
    assert main(["rips", "--points", str(pts), "--beta", "0.4", "--out", str(cx)]) == 0
    assert main(["homology", "--complex", str(cx), "--up-to", "1"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload == {"betti": [1, 1], "up_to": 1}


def test_shadow_and_oracle_subcommands(tmp_path):
    pts = tmp_path / "pts.csv"
    nerve = tmp_path / "nerve.json"
    small = tmp_path / "small.csv"
    cx = tmp_path / "cx.json"
    assert main(["sample", "--model", "circle", "--n", "40", "--seed", "3", "--out", str(pts)]) == 0
    assert main(["shadow", "--points", str(pts), "--beta", "0.4", "--out", str(nerve)]) == 0
    stored = json.loads(nerve.read_text())
    assert len(stored["cells"]) == stored["n"] == 40
    assert main(["sample", "--model", "circle", "--n", "14", "--seed", "3", "--out", str(small)]) == 0
    assert main(["oracle", "--check", "rips", "--points", str(small), "--beta", "0.9"]) == 0
    assert main(["rips", "--points", str(pts), "--beta", "0.4", "--out", str(cx)]) == 0
    assert main(["oracle", "--check", "homology", "--complex", str(cx), "--dim", "1"]) == 0
    assert main(["oracle", "--check", "raster", "--points", str(pts), "--beta", "0.4"]) == 0


def test_plot_data_from_tower_and_reconstruction(tmp_path):
    run = tmp_path / "run.json"
    rec = tmp_path / "rec.json"
    plots = tmp_path / "plots"
    assert main(
        ["tower", "--model", "circle", "--beta-grid", "0.5,0.4,0.3", "--n", "60",
         "--out", str(run)]
    ) == 0
    assert main(["plot-data", "--report", str(run), "--out-dir", str(plots)]) == 0
    stages = (plots / "stages.csv").read_text().splitlines()
    assert stages[0] == "stage,beta,n,rank_m"
    assert len(stages) == 4
    assert (plots / "rank-table.csv").read_text().splitlines()[0] == "i,j,rank"

    assert main(
        ["reconstruct", "--model", "circle", "--tau", "0.02", "--zeta", "0.05",
         "--beta", "0.2", "--n", "126", "--out", str(rec)]
    ) == 0
    assert main(["plot-data", "--report", str(rec), "--out-dir", str(plots)]) == 0
    curve_rows = (plots / "curve.csv").read_text().splitlines()
    assert curve_rows[0] == "# x0,x1"
    assert len(curve_rows) == 1 + 126
    # the CLI reads back the curve file it wrote
    readback = tmp_path / "curve-rips.json"
    assert main(
        ["rips", "--points", str(plots / "curve.csv"), "--beta", "0.2", "--cap", "1",
         "--out", str(readback)]
    ) == 0


def test_plot_data_of_a_gated_report_keeps_the_header(tmp_path):
    bad = tmp_path / "bad.json"
    plots = tmp_path / "plots"
    assert main(
        ["tower", "--model", "circle", "--beta-grid", "0.7,0.6,0.5", "--out", str(bad)]
    ) == 2
    assert main(["plot-data", "--report", str(bad), "--out-dir", str(plots)]) == 0
    assert (plots / "stages.csv").read_text() == "stage,beta,n,rank_m\n"


def test_plot_data_names_the_missing_field(tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_text('{"foo": 1}\n')
    assert main(["plot-data", "--report", str(junk)]) == 1
    err = capsys.readouterr().err
    assert "towers" in err and "curve" in err


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"model": "circle", "beta_grid": "0.5,0.4,0.3", "n": 80, "seed": 1}
        )
    )
    out = tmp_path / "run.json"
    assert main(["tower", "--config", str(cfg), "--n", "60", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert all(stage["n"] == 60 for stage in report["stages"])


def test_model_json_file_is_accepted(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"kind": "circle", "params": {"radius": 2.0}}))
    pts = tmp_path / "pts.csv"
    assert main(["sample", "--model", str(model), "--n", "6", "--out", str(pts)]) == 0
    radii = np.linalg.norm(PointCloud.from_csv(str(pts)).points, axis=1)
    assert np.allclose(radii, 2.0)


_EDGELESS_GRAPH = {"kind": "embedded_graph", "params": {"vertices": [[0.0, 0.0], [1.0, 0.0]]}}


@pytest.mark.parametrize(
    "text, flag, code",
    [
        ('{"kind": "circle", "params": {', "--model", 1),
        ("[1, 2]", "--model", 1),
        (json.dumps(_EDGELESS_GRAPH), "--model", 1),
        (json.dumps({"model": _EDGELESS_GRAPH}), "--config", 64),
    ],
    ids=["truncated-json", "json-list", "graph-without-edges", "config-graph-without-edges"],
)
def test_malformed_model_files_exit_cleanly(tmp_path, capsys, text, flag, code):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    pts = tmp_path / "pts.csv"
    assert main(["sample", flag, str(spec), "--n", "6", "--out", str(pts)]) == code
    err = capsys.readouterr().err
    assert ("malformed input file" in err) == (code == 1)
    assert "Traceback" not in err
    assert not pts.exists()


def test_two_runs_build_one_parser(monkeypatch):
    built = []

    class Counted(ripshadow.cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ripshadow.cli, "_Parser", Counted)
    ripshadow.cli.build_parser.cache_clear()
    try:
        assert main([]) == 64
        first = len(built)
        assert first > 0
        assert main(["rips", "--no-such-flag"]) == 64
        assert len(built) == first
    finally:
        ripshadow.cli.build_parser.cache_clear()


def test_commands_run_without_huge_page_advice(monkeypatch):
    set_advice = np._core.multiarray._set_madvise_hugepage
    seen = []

    def config(path):
        seen.append(set_advice(False))  # the advice in force, left off
        return {}

    monkeypatch.setattr(ripshadow.cli, "_load_config", config)
    before = set_advice(True)
    try:
        assert main(["rips", "--no-such-flag"]) == 64  # fails before the config
        assert set_advice(True) is True  # restored after the parse fails
        assert main(["sample", "--model", "circle"]) == 64
        assert seen == [False]
        assert set_advice(True) is True  # and after the command
    finally:
        set_advice(before)


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_artifacts_get_the_mode_a_plain_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        _write_text(str(tmp_path / "written.txt"), "x\n")
        with open(tmp_path / "opened.txt", "w") as fh:
            fh.write("x\n")
    finally:
        os.umask(old)
    mode = (tmp_path / "written.txt").stat().st_mode & 0o777
    assert mode == 0o666 & ~umask
    assert mode == (tmp_path / "opened.txt").stat().st_mode & 0o777


def test_no_temp_files_survive_a_run(tmp_path):
    out = tmp_path / "run.json"
    assert main(
        ["tower", "--model", "circle", "--beta-grid", "0.5,0.4,0.3", "--n", "60",
         "--out", str(out)]
    ) == 0
    leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".rsl-tmp-")]
    assert leftovers == []


@pytest.mark.parametrize(
    "stored, message",
    [
        ({"n": 2, "cap": 1, "simplices": [[0], [1], [0, 1.5]]}, "non-integer vertex 1.5 in simplex [0, 1.5]"),
        ({"n": 2, "cap": 1, "simplices": [[0], ["1"], [0, 1]]}, 'non-integer vertex "1" in simplex ["1"]'),
        ({"n": 2, "cap": 1, "simplices": [[0], [True], [0, 1]]}, "non-integer vertex true in simplex [true]"),
        ({"n": 2.7, "cap": 1, "simplices": [[0], [1]]}, "n must be an integer, got 2.7"),
        ({"n": 2, "cap": 1.0, "simplices": [[0], [1]]}, "cap must be an integer, got 1.0"),
        ({"n": 3, "cap": 1, "simplices": [[0], [1]]}, "vertex singleton [2] missing"),
        ({"n": 3, "cap": 1, "simplices": [[0], [2], [0, 2]]}, "vertex singleton [1] missing"),
        ({"n": 2, "cap": 1, "simplices": []}, "vertex singleton [0] missing"),
        ({"n": 2, "cap": 1, "simplices": [[0], [1], 1]}, "simplices must be a list of vertex lists"),
    ],
    ids=["float-vertex", "string-vertex", "bool-vertex", "float-n", "float-cap",
         "missing-last-singleton", "missing-middle-singleton", "empty-list", "bare-vertex"],
)
def test_malformed_complex_file_exits_one(tmp_path, capsys, stored, message):
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps(stored))
    assert main(["homology", "--complex", str(cx)]) == 1
    assert re.search(f"malformed input file .*: {re.escape(message)}", capsys.readouterr().err)


def test_empty_complex_file_loads_when_there_are_no_vertices(tmp_path, capsys):
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps({"n": 0, "cap": 2, "simplices": []}))
    assert main(["homology", "--complex", str(cx)]) == 0
    assert json.loads(capsys.readouterr().out) == {"betti": [0, 0], "up_to": 1}


def test_module_runs_as_a_script(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ripshadow.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    pts = tmp_path / "pts.csv"
    cli = [sys.executable, "-m", "ripshadow.cli"]
    run = subprocess.run(
        cli + ["sample", "--model", "circle", "--n", "5", "--out", str(pts)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0
    assert run.stdout == f"wrote 5 points in R^2 to {pts}\n"
    assert PointCloud.from_csv(str(pts)).n == 5
    run = subprocess.run(cli, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 64
    assert "a subcommand is required" in run.stderr


# ---------------------------------------------------------------------------
# complex and nerve files are what json.dumps renders, and read back


def _dumped(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@st.composite
def _complexes(draw):
    """Random face-closed complexes, n = 0 included, with some empty
    dimensions up to the cap."""
    n = draw(st.integers(0, 6))
    cap = draw(st.integers(0, 3))
    tops = draw(
        st.lists(st.sets(st.integers(0, max(n - 1, 0)), min_size=1, max_size=cap + 1), max_size=4)
        if n
        else st.just([])
    )
    faces = {d: set() for d in draw(st.sets(st.integers(0, cap)))}
    faces[0] = {(v,) for v in range(n)}
    for top in tops:
        for k in range(1, len(top) + 1):
            faces.setdefault(k - 1, set()).update(combinations(sorted(top), k))
    return SimplicialComplex(n, cap, {d: sorted(g) for d, g in faces.items()})


@settings(max_examples=100, deadline=None)
@given(_complexes(), st.lists(st.sets(st.integers(0, 9), max_size=3).map(sorted).map(tuple)))
def test_writer_matches_json_dumps_on_complexes_and_nerves(cx, cells):
    text = cx.to_text()
    obj = json.loads(text)
    flat = [list(s) for d in sorted(cx.simplices) for s in cx.simplices[d]]
    assert obj == {"cap": cx.cap, "n": cx.n, "simplices": flat}
    assert text == _dumped(obj)
    assert SimplicialComplex.from_json_dict(obj) == cx
    cliques = tuple(sorted(cells))
    nerve = NerveComplex(cx, CliqueList(10, cliques)).to_text()
    assert json.loads(nerve) == {**obj, "cells": [list(c) for c in cliques]}
    assert nerve == _dumped(json.loads(nerve))


def test_nerve_file_reads_back_as_its_complex(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    nerve_file = tmp_path / "nerve.json"
    assert main(["sample", "--model", "circle", "--n", "40", "--seed", "3", "--out", str(pts)]) == 0
    assert main(["shadow", "--points", str(pts), "--beta", "0.4", "--out", str(nerve_file)]) == 0
    capsys.readouterr()
    # the cells sit between cap and n, so the file goes through json
    with mock.patch("json.loads", wraps=json.loads) as spy:
        assert main(["homology", "--complex", str(nerve_file)]) == 0
    assert spy.called
    cloud = PointCloud.from_csv(str(pts))
    cells = maximal_cliques(euclidean_metric(cloud), 0.4)
    nerve = build_nerve(ConvexCellSystem(cloud, cells), cap=2)
    want = [int(b) for b in betti(nerve.complex, 1)]
    assert want == [1, 1]
    assert json.loads(capsys.readouterr().out) == {"betti": want, "up_to": 1}
