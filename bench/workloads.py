"""The benchmark's four workloads: seeded operations and their checks.

Every operation is one ``ripshadow`` command line, run in-process through
``ripshadow.cli.main``.  A workload's operations are one round; a run repeats
whole rounds.  The checks read the program's output files and compare them
with computations from ``checks.py``, or with properties the method must have,
never with a saved copy of an earlier run.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from checks import (
    circle_hausdorff_lower_bound,
    closed_polyline_crossings,
    complex_counts,
    distances,
    rank_table_monotone,
    require,
    rips_counts,
    strict_adjacency,
)

# Rips tower over a circle; the seed draws the tube noise of the sample.
TOWER_BETAS = (0.3, 0.25, 0.2, 0.15)
TOWER_N = 400
TOWER_TAU = 0.01

NERVE_CIRCLE_N = 300
THETA_BETAS = (0.064, 0.058, 0.052, 0.046)
THETA_EPS = 0.1
THETA_TAU = 0.003
PROJECT_N = 200
PROJECT_BETA = 0.3

FILE_N = 700
FILE_TAU = 0.02
FILE_BETA = 0.2

CIRCLE_REBUILDS = 10
CIRCLE_N, CIRCLE_TAU, CIRCLE_ZETA, CIRCLE_BETA = 126, 0.02, 0.05, 0.2
CIRCLE_HAUSDORFF_MAX = 0.075
TREFOIL_N, TREFOIL_TAU, TREFOIL_BETA = 141, 0.01, 0.362


@dataclass(frozen=True)
class Op:
    """One command line, with the files it reads and writes."""

    argv: tuple[str, ...]
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    ops: Callable[[int, str], list[Op]]
    check: Callable[[int, str, list[int], list[str]], None]
    # traced-run spans and counts that must be nonzero: a zero means a
    # wrapper no longer sees the layer, usually after a rename in the program
    works_in: tuple[str, ...]


def _grid(values) -> str:
    return ",".join(repr(v) for v in values)


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _check_tower(path: str, rank: int) -> None:
    report = _load(path)
    require(report["verdict"] == "consistent", f"{path}: verdict {report['verdict']}")
    require(report["target_rank"] == rank, f"{path}: target rank {report['target_rank']}")
    require(
        report["stabilized"] == {"tower": rank},
        f"{path}: stabilized {report['stabilized']}, expected rank {rank}",
    )
    for dim, table in report["towers"]["tower"]["rank_table"].items():
        require(rank_table_monotone(table), f"{path}: rank table {dim} is not monotone")


# ---------------------------------------------------------------------------
# rips-tower


def _rips_tower_ops(seed: int, work: str) -> list[Op]:
    out = os.path.join(work, "rips-tower.json")
    argv = (
        "tower", "--model", "circle", "--object", "rips", "--n", str(TOWER_N),
        "--beta-grid", _grid(TOWER_BETAS), "--tau", repr(TOWER_TAU),
        "--seed", str(seed), "--out", out,
    )
    return [Op(argv, writes=(out,))]


def _rips_tower_check(seed: int, work: str, codes: list[int], stdout: list[str]) -> None:
    if codes[0] != 0:
        return
    _check_tower(os.path.join(work, "rips-tower.json"), rank=1)
    # the report carries no simplex counts, so the stages are rebuilt from
    # the same seeded sample and counted against the adjacency matrix
    from ripshadow.models import Circle, SamplerSpec, euclidean_metric, sample
    from ripshadow.rips import build_rips

    cloud = sample(SamplerSpec(Circle(), TOWER_N, TOWER_TAU, seed, "stratified"))
    dist = distances(cloud.points)
    metric = euclidean_metric(cloud)
    for beta in TOWER_BETAS:
        got = build_rips(metric, beta, cap=2).counts()
        want = [TOWER_N, *rips_counts(dist, beta)]
        require(got[:3] == want, f"stage beta={beta}: counts {got}, adjacency {want}")


# ---------------------------------------------------------------------------
# shadow


def _shadow_ops(seed: int, work: str) -> list[Op]:
    circle = os.path.join(work, "circle-nerve.json")
    theta = os.path.join(work, "theta-nerve.json")
    project = os.path.join(work, "project-check.json")
    return [
        Op(
            (
                "tower", "--model", "circle", "--object", "shadow-nerve",
                "--n", str(NERVE_CIRCLE_N), "--beta-grid", _grid(TOWER_BETAS),
                "--tau", repr(TOWER_TAU), "--seed", str(seed), "--out", circle,
            ),
            writes=(circle,),
        ),
        Op(
            (
                "tower", "--model", "theta", "--object", "shadow-nerve",
                "--metric", "epsilon-path", "--eps", repr(THETA_EPS),
                "--beta-grid", _grid(THETA_BETAS), "--tau", repr(THETA_TAU),
                "--seed", str(seed), "--out", theta,
            ),
            writes=(theta,),
        ),
        Op(
            (
                "project-check", "--model", "circle", "--beta", repr(PROJECT_BETA),
                "--n", str(PROJECT_N), "--seed", str(seed), "--out", project,
            ),
            writes=(project,),
        ),
    ]


def _shadow_check(seed: int, work: str, codes: list[int], stdout: list[str]) -> None:
    if codes[0] == 0:
        _check_tower(os.path.join(work, "circle-nerve.json"), rank=1)
    if codes[1] == 0:
        _check_tower(os.path.join(work, "theta-nerve.json"), rank=2)
    if codes[2] == 0:
        report = _load(os.path.join(work, "project-check.json"))
        nums = report["numbers"]
        require(report["verdict"] == "consistent", f"project-check: {report['verdict']}")
        for key in ("complex_rank", "nerve_rank", "composite_rank"):
            require(nums[key] == [1, 1], f"project-check: {key} {nums[key]}")
        require(
            nums["subdivision_betti"] == nums["complex_betti"],
            f"project-check: subdivision betti {nums['subdivision_betti']} "
            f"!= complex betti {nums['complex_betti']}",
        )


# ---------------------------------------------------------------------------
# complex-file


def _complex_file_ops(seed: int, work: str) -> list[Op]:
    cloud = os.path.join(work, "cloud.csv")
    complex_ = os.path.join(work, "complex.json")
    return [
        Op(
            (
                "sample", "--model", "circle", "--n", str(FILE_N), "--tau", repr(FILE_TAU),
                "--seed", str(seed), "--out", cloud,
            ),
            writes=(cloud,),
        ),
        Op(
            (
                "rips", "--points", cloud, "--beta", repr(FILE_BETA), "--cap", "2",
                "--out", complex_,
            ),
            reads=(cloud,),
            writes=(complex_,),
        ),
        Op(("homology", "--complex", complex_), reads=(complex_,)),
    ]


def _complex_file_check(seed: int, work: str, codes: list[int], stdout: list[str]) -> None:
    if codes[1] == 0:
        points = np.loadtxt(os.path.join(work, "cloud.csv"), delimiter=",", comments="#")
        require(points.shape == (FILE_N, 2), f"cloud.csv has shape {points.shape}")
        stored = _load(os.path.join(work, "complex.json"))
        require(stored["n"] == FILE_N and stored["cap"] == 2, "complex.json header")
        edges, triangles = rips_counts(distances(points), FILE_BETA)
        got = complex_counts(stored["simplices"])
        require(
            got == [FILE_N, edges, triangles],
            f"complex.json counts {got}, adjacency {[FILE_N, edges, triangles]}",
        )
    if codes[2] == 0:
        betti = json.loads(stdout[2].strip().splitlines()[-1])["betti"]
        require(betti == [1, 1], f"homology read back betti {betti}")


# ---------------------------------------------------------------------------
# reconstruct


def _reconstruct_cases(seed: int):
    cases = [
        (
            f"circle-{seed + k}",
            (
                "--model", "circle", "--n", str(CIRCLE_N), "--tau", repr(CIRCLE_TAU),
                "--zeta", repr(CIRCLE_ZETA), "--beta", repr(CIRCLE_BETA),
                "--seed", str(seed + k),
            ),
            CIRCLE_BETA,
        )
        for k in range(CIRCLE_REBUILDS)
    ]
    cases.append(
        (
            f"trefoil-{seed}",
            (
                "--model", "trefoil", "--n", str(TREFOIL_N), "--tau", repr(TREFOIL_TAU),
                "--beta", repr(TREFOIL_BETA), "--seed", str(seed),
            ),
            TREFOIL_BETA,
        )
    )
    return cases


def _reconstruct_ops(seed: int, work: str) -> list[Op]:
    ops = []
    for label, flags, beta in _reconstruct_cases(seed):
        result = os.path.join(work, f"{label}.json")
        curve = os.path.join(work, f"{label}.csv")
        readback = os.path.join(work, f"{label}-rips.json")
        ops.append(
            Op(
                ("reconstruct", *flags, "--out", result, "--curve-csv", curve),
                writes=(result, curve),
            )
        )
        # the curve CSV is fed back to the CLI, as a user would; today this
        # exits 64 because the CSV's header line is not a comment
        ops.append(
            Op(
                ("rips", "--points", curve, "--beta", repr(beta), "--cap", "1",
                 "--out", readback),
                reads=(curve,),
                writes=(readback,),
            )
        )
    return ops


def _read_curve_csv(path: str) -> np.ndarray:
    """Curve vertices, skipping the header line whether commented or not."""
    with open(path) as fh:
        rows = [ln.strip() for ln in fh if ln.strip() and ln.lstrip("# ")[0] != "x"]
    return np.array([[float(v) for v in ln.split(",")] for ln in rows])


def _reconstruct_check(seed: int, work: str, codes: list[int], stdout: list[str]) -> None:
    for k, (label, _flags, beta) in enumerate(_reconstruct_cases(seed)):
        if codes[2 * k] == 0:
            result = _load(os.path.join(work, f"{label}.json"))
            checks = result["checks"]
            require(result["verdict"] == "ok", f"{label}: verdict {result['verdict']}")
            for key in ("simple", "closed", "edges_under_beta", "in_shadow"):
                require(checks[key] is True, f"{label}: check {key} is {checks[key]}")
            points = np.asarray(result["curve"]["points"], dtype=float)
            require(result["curve"]["closed"], f"{label}: curve is not closed")
            edge = np.linalg.norm(points - np.roll(points, -1, axis=0), axis=1)
            require(float(edge.max()) < beta, f"{label}: an edge is not under beta")
            if label.startswith("circle"):
                crossings = closed_polyline_crossings(points)
                require(not crossings, f"{label}: edges {crossings[:3]} cross")
                reported = checks["hausdorff_to_model"]
                lower = circle_hausdorff_lower_bound(points)
                require(
                    lower <= reported <= CIRCLE_HAUSDORFF_MAX,
                    f"{label}: hausdorff {reported} outside "
                    f"[{lower}, {CIRCLE_HAUSDORFF_MAX}]",
                )
        if codes[2 * k + 1] == 0:
            stored = _load(os.path.join(work, f"{label}-rips.json"))
            points = _read_curve_csv(os.path.join(work, f"{label}.csv"))
            edges = int(strict_adjacency(distances(points), beta).sum() // 2)
            got = complex_counts(stored["simplices"])
            require(
                got == [len(points), edges],
                f"{label}: read-back counts {got}, adjacency {[len(points), edges]}",
            )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rips-tower",
            7,
            _rips_tower_ops,
            _rips_tower_check,
            works_in=(
                "models.metric", "models.project", "models.conditions", "rips.build",
                "homology.basis", "homology.columns", "homology.induced",
                "homology.rank_table", "limits.density", "limits.run", "cli.main",
                "cli.bytes_written",
            ),
        ),
        Workload(
            "shadow",
            7,
            _shadow_ops,
            _shadow_check,
            works_in=(
                "models.metric", "models.project", "models.conditions", "rips.build",
                "rips.cliques", "shadow.nerve", "shadow.pair_candidates",
                "shadow.coarsen", "shadow.hull_test", "homology.basis",
                "homology.columns", "homology.induced", "homology.rank_table",
                "homology.betti", "homology.subdivision", "homology.carrier",
                "limits.density", "limits.run", "cli.main", "cli.bytes_written",
            ),
        ),
        Workload(
            "complex-file",
            0,
            _complex_file_ops,
            _complex_file_check,
            works_in=(
                "models.metric", "rips.build", "homology.betti", "homology.columns",
                "cli.load", "cli.main", "cli.bytes_written", "cli.bytes_read",
            ),
        ),
        Workload(
            "reconstruct",
            0,
            _reconstruct_ops,
            _reconstruct_check,
            works_in=(
                "models.project", "models.conditions", "models.metric", "rips.build",
                "exact.lp", "reconstruct.order", "reconstruct.simple",
                "reconstruct.edge_pairs", "reconstruct.run", "limits.density",
                "cli.main", "cli.bytes_written",
            ),
        ),
    )
}
