"""Acceptance battery: ten desk-scale checks, one verdict line per criterion.

Every criterion prints its PASS or FAIL line straight to the terminal so the
battery reads as a checklist even inside a larger run.  Each one also carries
a runtime budget; the configurations are sized to stay far inside it.
"""

from __future__ import annotations

import json
import time

import numpy as np

from ripshadow.cli import main as cli_main
from ripshadow.homology import betti
from ripshadow.limits import (
    DirectSystemSpec,
    InverseSystemSpec,
    run_direct_system,
    run_inverse_system,
    run_metric_comparability,
    run_projection_check,
)
from ripshadow.models import (
    Circle,
    PointCloud,
    SamplerSpec,
    Trefoil,
    euclidean_metric,
    sample,
    theta_graph,
)
from ripshadow.oracle import brute_rips, raster_betti_2d
from ripshadow.reconstruct import build_curve_K
from ripshadow.rips import build_rips, maximal_cliques
from ripshadow.shadow import ConvexCellSystem, build_nerve


def _verdict(capsys, num: int, limit_s: float, started: float, ok: bool, detail: str):
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < limit_s
    line = (
        f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} {detail} "
        f"[{elapsed:.2f}s, limit {limit_s:g}s]"
    )
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_strict_threshold_and_subset_scan(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 13))
        cloud = PointCloud(rng.uniform(0.0, 1.0, size=(n, 2)))
        met = euclidean_metric(cloud)
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        beta = float(met.d[i, j])
        fast = build_rips(met, beta, cap=3)
        if fast.has_simplex((i, j)):
            ok = False
            break
        if fast.simplices != brute_rips(met, beta, cap=3).simplices:
            ok = False
            break
    _verdict(capsys, 1, 5.0, started, ok, "threshold strict on 100 random clouds, subset scan agrees")


def test_criterion_02_circle_pipeline_betti(capsys):
    started = time.perf_counter()
    c = Circle(1.0)
    ok = True
    for n in (40, 80, 160):
        for beta in (0.3, 0.4, 0.5):
            cloud = sample(SamplerSpec(c, n, seed=0))
            met = euclidean_metric(cloud)
            if tuple(betti(build_rips(met, beta, cap=2), 1)) != (1, 1):
                ok = False
            system = ConvexCellSystem(cloud, maximal_cliques(met, beta))
            if tuple(betti(build_nerve(system, cap=2).complex, 1)) != (1, 1):
                ok = False
    _verdict(capsys, 2, 60.0, started, ok, "circle complexes and hull nerves both read (1, 1)")


def test_criterion_03_nerve_matches_raster_oracle(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(2026)
    c = Circle(1.0)
    theta = theta_graph()
    checked = 0
    ok = True
    for _ in range(12):
        n = int(rng.integers(34, 64))
        beta = float(rng.uniform(0.3, 0.5))
        tau = float(rng.uniform(0.0, 0.03))
        cloud = sample(SamplerSpec(c, n, tau=tau, seed=int(rng.integers(0, 1000))))
        system = ConvexCellSystem(cloud, maximal_cliques(euclidean_metric(cloud), beta))
        nerve_b = tuple(betti(build_nerve(system, cap=2).complex, 1))
        if nerve_b != tuple(raster_betti_2d(system)):
            ok = False
        checked += 1
    for _ in range(8):
        n = int(rng.integers(190, 260))
        beta = float(rng.uniform(0.05, 0.075))
        cloud = sample(SamplerSpec(theta, n, seed=int(rng.integers(0, 1000))))
        system = ConvexCellSystem(cloud, maximal_cliques(euclidean_metric(cloud), beta))
        nerve_b = tuple(betti(build_nerve(system, cap=2).complex, 1))
        if nerve_b != tuple(raster_betti_2d(system)):
            ok = False
        checked += 1
    _verdict(capsys, 3, 120.0, started, ok and checked == 20,
             f"nerve equals raster homology on {checked} randomized configurations")


def test_criterion_04_direct_system_plateau(capsys):
    started = time.perf_counter()
    report = run_direct_system(DirectSystemSpec(Circle(1.0), 0.4, (20, 40, 80, 160), seed=7))
    plateau = report.towers["tower"].plateaus[1] if report.towers else None
    ok = (
        report.verdict == "consistent"
        and plateau is not None
        and plateau.rank == 1
        and plateau.length >= 3
    )
    _verdict(capsys, 4, 60.0, started, ok, "growing-sample tower locks onto rank 1")


def test_criterion_05_inverse_system_stabilization(capsys):
    started = time.perf_counter()
    circle_report = run_inverse_system(
        InverseSystemSpec(Circle(1.0), (0.5, 0.4, 0.3, 0.2), object_kind="shadow-nerve", seed=7)
    )
    theta_report = run_inverse_system(
        InverseSystemSpec(
            theta_graph(),
            (0.064, 0.058, 0.052, 0.046),
            object_kind="shadow-nerve",
            metric="epsilon-path",
            eps=0.1,
            seed=7,
        )
    )
    ok = (
        circle_report.verdict == "consistent"
        and circle_report.stabilized["tower"] == 1
        and theta_report.verdict == "consistent"
        and theta_report.stabilized["tower"] == 2
        and theta_report.model_betti == [1, 2]
    )
    _verdict(capsys, 5, 120.0, started, ok,
             "shrinking-scale nerve towers stabilize at 1 (circle) and 2 (theta)")


def test_criterion_06_noisy_towers_and_metric_twins(capsys):
    started = time.perf_counter()
    noisy = run_inverse_system(
        InverseSystemSpec(Circle(1.0), (0.14, 0.12, 0.10, 0.08), tau=0.02, n=200, seed=1)
    )
    twins = run_metric_comparability(
        Circle(1.0), (0.14, 0.12, 0.10, 0.08), 0.02, 0.15, n=200, seed=1
    )
    ok = (
        noisy.verdict == "consistent"
        and noisy.stabilized["tower"] == 1
        and twins.verdict == "consistent"
        and twins.numbers["stagewise_identical"] is True
        and twins.stabilized["euclidean"] == twins.stabilized["epsilon-path"] == 1
    )
    _verdict(capsys, 6, 120.0, started, ok,
             "noisy tower stabilizes at 1; chord and path towers are bit-identical")


def test_criterion_07_projection_route_rank(capsys):
    started = time.perf_counter()
    report = run_projection_check(Circle(1.0), 0.4, n=60, seed=0)
    ok = (
        report.verdict == "consistent"
        and report.numbers["complex_rank"] == [1, 1]
        and report.numbers["nerve_rank"] == [1, 1]
        and report.numbers["composite_rank"] == [1, 1]
        and report.numbers["subdivision_betti"] == report.numbers["complex_betti"]
    )
    _verdict(capsys, 7, 60.0, started, ok,
             "carrier composite is a rank-level isomorphism and subdivision is invisible")


def test_criterion_08_reconstruction_battery(capsys):
    started = time.perf_counter()
    c = Circle(1.0)
    ok = True
    for seed in range(10):
        cloud = sample(SamplerSpec(c, 126, tau=0.02, seed=seed))
        res = build_curve_K(c, cloud, 0.2, 0.02, zeta=0.05)
        if res.verdict != "ok":
            ok = False
            continue
        checks = res.checks
        if not (
            checks["simple"]
            and checks["closed"]
            and checks["max_edge"] < 0.2
            and checks["edges_under_beta"]
            and checks["in_shadow"]
            and checks["hausdorff_to_model"] <= 0.075
        ):
            ok = False
    trefoil = Trefoil(1.0)
    cloud = sample(SamplerSpec(trefoil, 141, tau=0.01, seed=0))
    res = build_curve_K(trefoil, cloud, 0.362, 0.01)
    ok = ok and res.verdict == "ok"
    ok = ok and res.checks["simple"] and res.checks["closed"] and res.checks["edges_under_beta"]
    _verdict(capsys, 8, 60.0, started, ok,
             "ten circle rebuilds pass every check; the trefoil rebuild is simple and closed")


def test_criterion_09_fault_injection_flips_verdicts(capsys, tmp_path):
    started = time.perf_counter()
    reports = [
        run_direct_system(DirectSystemSpec(Circle(1.0), 0.9, (20, 40, 80))),
        run_inverse_system(InverseSystemSpec(Circle(1.0), (0.7, 0.6, 0.5, 0.4), seed=7)),
        run_metric_comparability(Circle(1.0), (0.3, 0.25, 0.2), 0.0, 0.25, n=80, seed=1),
        run_projection_check(Circle(1.0), 1.2, n=60, seed=0),
    ]
    ok = all(
        rep.verdict == "out-of-regime" and rep.towers == {} and rep.stabilized == {}
        for rep in reports
    )
    # every report must name at least one failed hypothesis
    ok = ok and all(
        any(not c.holds for cr in rep.conditions for c in cr.conditions) for rep in reports
    )
    cloud = sample(SamplerSpec(Circle(1.0), 126, tau=0.02, seed=0))
    rec = build_curve_K(Circle(1.0), cloud, 0.1, 0.02, zeta=0.05)
    ok = ok and rec.verdict == "out-of-regime" and rec.curve is None
    code = cli_main(
        ["tower", "--model", "circle", "--beta-grid", "0.7,0.6,0.5,0.4",
         "--out", str(tmp_path / "bad.json")]
    )
    ok = ok and code == 2
    _verdict(capsys, 9, 30.0, started, ok,
             "one violated hypothesis forces out-of-regime everywhere, exit code 2 included")


def test_criterion_10_byte_identical_reports(capsys, tmp_path):
    started = time.perf_counter()
    args = [
        "tower", "--model", "circle", "--radius", "1",
        "--beta-grid", "0.5,0.4,0.3,0.2", "--object", "shadow-nerve",
        "--dim", "1", "--seed", "7",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    ok = cli_main(args + ["--out", str(a)]) == 0
    ok = ok and cli_main(args + ["--out", str(b)]) == 0
    ok = ok and a.read_bytes() == b.read_bytes()
    ok = ok and json.loads(a.read_text())["stabilized"]["tower"] == 1
    _verdict(capsys, 10, 10.0, started, ok, "repeated runs of the stabilization command match byte for byte")
