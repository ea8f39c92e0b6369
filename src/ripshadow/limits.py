"""Tower experiments: direct and inverse systems of complexes over models.

Each runner draws a sample, builds one complex per stage, connects the
stages by verified simplicial maps, and reads off the table of composite
homology ranks.  The resulting report embeds the full scale-condition
output; a verdict of "consistent" is only possible when every named
hypothesis holds and the stabilized rank matches its comparison target.
Any failed hypothesis forces "out-of-regime" and suppresses the tower.

Two standing reductions, stated in every report's annotations: inverse
systems run over one fixed sample dense enough for the finest scale (a
cofinal choice, so all stages share vertices), and stabilization is
judged by the composite-rank plateau rule rather than an actual limit.
Stage noise comes from ``models.sample``: a paired noise grid draws each
stage's cloud with the spec's seed at that stage's amplitude.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .homology import (
    PLATEAU_MIN_LENGTH,
    HomologyTower,
    InternalConsistencyError,
    TowerReport,
    betti,
    carrier_map_to_nerve,
    barycentric_subdivision,
    composed_chain_columns,
    homology_basis,
    induced_from_chain_columns,
    induced_map_on_bases,  # unused here; the benchmark's tracer wraps this name
    subdivision_chain_columns,
    tower_ranks,
)
from .models import (
    Condition,
    ConditionReport,
    Model,
    PointCloud,
    SamplerSpec,
    check_scale_conditions,
    epsilon_path_metric,
    euclidean_metric,
    sample,
)
from .rips import SimplicialComplex, build_rips, inclusion_map, maximal_cliques
from .shadow import ConvexCellSystem, build_nerve, nerve_coarsening_map

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"
OUT_OF_REGIME = "out-of-regime"

METRIC_CHOICES = ("euclidean", "geodesic", "epsilon-path")
OBJECT_CHOICES = ("rips", "shadow-nerve")


# ---------------------------------------------------------------------------
# sampling helpers


def radical_inverse_base2(j: int) -> float:
    """Bit-reversed fraction of a nonnegative integer."""
    f, r = 0.5, 0.0
    while j:
        if j & 1:
            r += f
        j >>= 1
        f *= 0.5
    return r


def dense_arc_enumeration(model: Model, count: int, seed: int = 0) -> np.ndarray:
    """First ``count`` terms of a fixed dense sequence of arc positions.

    Bit-reversal enumeration with a seed-derived phase: every prefix is a
    prefix of the next, and prefixes of length 2^k are exactly uniform.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    phase = float(np.random.default_rng(seed).uniform())
    vals = np.array([radical_inverse_base2(j) for j in range(count)])
    return ((vals + phase) % 1.0) * model.length


_DENSITY_BLOCK = 256
# arc grid points per parameter, at least 2048 in all
_DENSITY_GRID_FACTOR = 8


def measured_density(model: Model, params: np.ndarray) -> float:
    """Geodesic density of a parameter set, plus the grid's own half-step.

    Evaluated on a uniform arc grid; the reported value is an upper bound
    on the true sup-distance, so a passing density check is trustworthy.
    """
    params = np.asarray(params, dtype=float)
    grid_n = max(2048, _DENSITY_GRID_FACTOR * len(params))
    step = model.length / grid_n
    # the distance is elementwise, so blocks of grid rows give the same
    # maximum as one grid_n x n matrix without holding it in memory
    worst = -math.inf
    for start in range(0, grid_n, _DENSITY_BLOCK):
        grid = np.arange(start, min(start + _DENSITY_BLOCK, grid_n)) * step
        d = np.asarray(model.geodesic_param_distance(grid[:, None], params[None, :]))
        worst = max(worst, float(d.min(axis=1).max()))
    return worst + model.length / (2.0 * grid_n)


def default_sample_count(model: Model, beta_min: float) -> int:
    # spacing a bit under beta/2 so the measured density clears the check
    return int(math.ceil(2.2 * model.length / beta_min))


def _sample_stages(
    model: Model, n: int, seed: int, scheme: str, betas_fine_first, taus_fine_first
) -> tuple[list[PointCloud], list[dict], list[ConditionReport]]:
    """Sample every stage and check its scale hypotheses, finest first.

    Each distinct noise amplitude is drawn once by ``sample`` and its
    density measured once, so stages with equal noise share one cloud
    object.  Returns the clouds, the stage rows and the condition reports.
    """
    drawn = {}
    for tau in taus_fine_first:
        if tau not in drawn:
            cloud = sample(SamplerSpec(model, n, tau, seed, scheme))
            drawn[tau] = cloud, measured_density(model, model.project(cloud.points)[1])
    clouds, stages, reports = [], [], []
    for i, (beta, tau) in enumerate(zip(betas_fine_first, taus_fine_first)):
        cloud, zeta = drawn[tau]
        clouds.append(cloud)
        stages.append(
            {"stage": i, "beta": float(beta), "tau": float(tau), "n": n, "density": float(zeta)}
        )
        reports.append(check_scale_conditions(model, beta, tau, zeta=zeta))
    return clouds, stages, reports


def _metric_for(cloud: PointCloud, choice: str, eps: float | None, model: Model):
    if choice == "euclidean":
        return euclidean_metric(cloud)
    if choice == "epsilon-path":
        if eps is None:
            raise ValueError("epsilon-path metric needs eps")
        return epsilon_path_metric(cloud, eps)
    if choice == "geodesic":
        return model.geodesic_metric(cloud)
    raise ValueError(f"unknown metric choice {choice!r}")


# ---------------------------------------------------------------------------
# experiment specs


@dataclass(frozen=True)
class DirectSystemSpec:
    """Growing samples at one fixed scale, joined by inclusions."""

    model: Model
    beta: float
    sizes: tuple[int, ...]
    metric: str = "euclidean"
    eps: float | None = None
    dim: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        sizes = tuple(int(n) for n in self.sizes)
        if not sizes or any(n <= 0 for n in sizes):
            raise ValueError("sample sizes must be positive")
        if any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sample sizes must be strictly increasing")
        object.__setattr__(self, "sizes", sizes)
        if self.metric not in ("euclidean", "epsilon-path"):
            raise ValueError("direct systems use the euclidean or epsilon-path metric")
        if self.metric == "epsilon-path" and self.eps is None:
            raise ValueError("epsilon-path metric needs eps")
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")

    def to_json_dict(self) -> dict:
        return {
            "kind": "direct",
            "model": self.model.to_spec_json(),
            "beta": float(self.beta),
            "sizes": list(self.sizes),
            "metric": self.metric,
            "eps": None if self.eps is None else float(self.eps),
            "dim": self.dim,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class InverseSystemSpec:
    """Shrinking scales over one fixed sample, joined by coarsening maps.

    ``taus`` optionally pairs a noise amplitude with every scale; the pairs
    must be jointly ordered (both grids nonincreasing, and each beta step
    at least twice the matching tau step) so that the stage inclusions stay
    simplicial.  Every stage draws its cloud with the same seed, so the
    stages share arc positions and noise directions.
    """

    model: Model
    betas: tuple[float, ...]
    tau: float = 0.0
    object_kind: str = "rips"
    metric: str = "euclidean"
    eps: float | None = None
    dim: int = 1
    seed: int = 0
    n: int | None = None
    scheme: str = "stratified"
    taus: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        betas = tuple(float(b) for b in self.betas)
        if len(betas) < 2:
            raise ValueError("need at least two scale stages")
        if any(b <= 0 for b in betas):
            raise ValueError("scales must be positive")
        if any(a <= b for a, b in zip(betas, betas[1:])):
            raise ValueError("scale grid must be strictly decreasing")
        object.__setattr__(self, "betas", betas)
        if self.tau < 0:
            raise ValueError("noise amplitude must be nonnegative")
        if self.object_kind not in OBJECT_CHOICES:
            raise ValueError(f"object must be one of {OBJECT_CHOICES}")
        if self.metric not in METRIC_CHOICES:
            raise ValueError(f"metric must be one of {METRIC_CHOICES}")
        if self.metric == "epsilon-path" and self.eps is None:
            raise ValueError("epsilon-path metric needs eps")
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        if self.n is not None and self.n <= 0:
            raise ValueError("sample count must be positive")
        if self.taus is not None:
            taus = tuple(float(t) for t in self.taus)
            if len(taus) != len(betas):
                raise ValueError("paired noise grid must match the scale grid")
            if any(t < 0 for t in taus):
                raise ValueError("noise amplitudes must be nonnegative")
            if any(a < b for a, b in zip(taus, taus[1:])):
                raise ValueError("paired noise grid must be nonincreasing")
            for i in range(len(betas) - 1):
                if betas[i] - betas[i + 1] < 2.0 * (taus[i] - taus[i + 1]):
                    raise ValueError(
                        "stages are not jointly ordered: the scale step from "
                        f"{betas[i]} to {betas[i + 1]} is smaller than twice "
                        "the noise step, so the stage inclusion may fail"
                    )
            if self.object_kind == "shadow-nerve":
                raise ValueError(
                    "per-stage noise amplitudes are supported for the rips "
                    "object only; the nerve tower needs a single embedding"
                )
            object.__setattr__(self, "taus", taus)

    def stage_taus(self) -> tuple[float, ...]:
        if self.taus is not None:
            return self.taus
        return (float(self.tau),) * len(self.betas)

    def to_json_dict(self) -> dict:
        return {
            "kind": "inverse",
            "model": self.model.to_spec_json(),
            "betas": [float(b) for b in self.betas],
            "tau": float(self.tau),
            "taus": None if self.taus is None else [float(t) for t in self.taus],
            "object": self.object_kind,
            "metric": self.metric,
            "eps": None if self.eps is None else float(self.eps),
            "dim": self.dim,
            "seed": self.seed,
            "n": self.n,
            "scheme": self.scheme,
        }


# ---------------------------------------------------------------------------
# reports


@dataclass
class LimitReport:
    """Everything needed to audit one tower experiment."""

    kind: str
    spec: dict
    dim: int
    model_betti: list[int]
    stages: list[dict]
    conditions: list[ConditionReport]
    towers: dict[str, TowerReport] = field(default_factory=dict)
    numbers: dict = field(default_factory=dict)
    target_rank: int | None = None
    stabilized: dict[str, int | None] = field(default_factory=dict)
    verdict: str = OUT_OF_REGIME
    annotations: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "spec": self.spec,
            "dim": self.dim,
            "model_betti": list(self.model_betti),
            "stages": self.stages,
            "conditions": [c.to_json_dict() for c in self.conditions],
            "towers": {name: t.to_json_dict() for name, t in self.towers.items()},
            "numbers": self.numbers,
            "target_rank": self.target_rank,
            "stabilized": self.stabilized,
            "verdict": self.verdict,
            "annotations": list(self.annotations),
        }


def _out_of_regime(report: LimitReport) -> bool:
    """Annotate every failed hypothesis of the report; true when one fails,
    and the caller then returns the report with its towers suppressed."""
    notes = [
        f"beta={rep.beta:g}: hypothesis {name} fails"
        for rep in report.conditions
        for name in rep.failing()
    ]
    report.annotations.extend(notes)
    return bool(notes)


def _model_betti(model: Model) -> list[int]:
    b0, b1 = model.betti()
    return [int(b0), int(b1)]


def _target_for_dim(model: Model, m: int) -> int:
    bs = _model_betti(model)
    return bs[m] if m < len(bs) else 0


def _inclusion_tower(
    complexes: list[SimplicialComplex], scales, dim: int
) -> HomologyTower:
    """Homology tower of stages joined by vertex-identity inclusions."""
    maps = [
        inclusion_map(a, b, src_scale=sa, dst_scale=sb)
        for a, b, sa, sb in zip(complexes, complexes[1:], scales, scales[1:])
    ]
    return HomologyTower(complexes, maps, up_to=dim)


def _record_tower(report: LimitReport, tower: HomologyTower, *names: str) -> int | None:
    """Store the tower's rank tables and its plateau rank in ``report.dim``
    under each name."""
    trep = tower_ranks(tower)
    plateau = trep.plateaus.get(report.dim)
    rank = None if plateau is None else int(plateau.rank)
    for name in names:
        report.towers[name] = trep
        report.stabilized[name] = rank
    return rank


def _judge_plateau(report: LimitReport, tower: HomologyTower, target_phrase: str) -> None:
    """Verdict of a single tower: its plateau rank against ``report.target_rank``."""
    rank = _record_tower(report, tower, "tower")
    if rank is None:
        report.verdict = INCONSISTENT
        report.annotations.append(
            f"no composite-rank plateau of length >= {PLATEAU_MIN_LENGTH} "
            f"within {len(tower)} stages"
        )
    elif rank == report.target_rank:
        report.verdict = CONSISTENT
    else:
        report.verdict = INCONSISTENT
        report.annotations.append(
            f"plateau rank {rank} disagrees with {target_phrase} {report.target_rank}"
        )


# ---------------------------------------------------------------------------
# direct systems


def run_direct_system(spec: DirectSystemSpec) -> LimitReport:
    """Tower of inclusions of growing samples at one fixed scale.

    The comparison target is the top stage's homology, standing in for the
    complex over the full dense enumeration.
    """
    model = spec.model
    stages = [
        {"stage": i, "beta": float(spec.beta), "tau": 0.0, "n": int(n)}
        for i, n in enumerate(spec.sizes)
    ]
    report = LimitReport(
        kind="direct-limit",
        spec=spec.to_json_dict(),
        dim=spec.dim,
        model_betti=_model_betti(model),
        stages=stages,
        conditions=[check_scale_conditions(model, spec.beta)],
        annotations=[
            "comparison target is the top-stage homology, standing in for "
            "the complex over the full dense enumeration",
        ],
    )
    if _out_of_regime(report):
        return report

    params = dense_arc_enumeration(model, spec.sizes[-1], spec.seed)
    pts = model.points_at(params)
    complexes = []
    for n in spec.sizes:
        cloud = PointCloud(pts[:n].copy())
        met = _metric_for(cloud, spec.metric, spec.eps, model)
        complexes.append(build_rips(met, spec.beta, cap=spec.dim + 1))
    tower = _inclusion_tower(complexes, [spec.beta] * len(complexes), spec.dim)
    report.target_rank = int(tower.bases[-1].rank(spec.dim))
    _judge_plateau(report, tower, "the top-stage rank")
    return report


# ---------------------------------------------------------------------------
# inverse systems


def run_inverse_system(spec: InverseSystemSpec) -> LimitReport:
    """Tower over a shrinking scale grid, one fixed sample for all stages."""
    model = spec.model
    n = spec.n if spec.n is not None else default_sample_count(model, spec.betas[-1])
    betas_fine_first = tuple(reversed(spec.betas))
    clouds, stages, cond_reports = _sample_stages(
        model, n, spec.seed, spec.scheme, betas_fine_first, tuple(reversed(spec.stage_taus()))
    )

    report = LimitReport(
        kind="inverse-limit",
        spec=spec.to_json_dict(),
        dim=spec.dim,
        model_betti=_model_betti(model),
        stages=stages,
        conditions=cond_reports,
        target_rank=_target_for_dim(model, spec.dim),
        annotations=[
            "cofinal subsystem: one fixed sample, dense enough for the finest "
            "scale, serves every stage",
            "stages run finest scale first; the input grid lists them "
            "coarsest first",
        ],
    )
    if _out_of_regime(report):
        return report

    cap = spec.dim + 1
    metrics = []
    seen: dict[int, object] = {}
    for cloud in clouds:
        key = id(cloud)
        if key not in seen:
            seen[key] = _metric_for(cloud, spec.metric, spec.eps, model)
        metrics.append(seen[key])

    if spec.object_kind == "rips":
        complexes = [
            build_rips(met, beta, cap=cap)
            for met, beta in zip(metrics, betas_fine_first)
        ]
        try:
            tower = _inclusion_tower(complexes, betas_fine_first, spec.dim)
        except ValueError as exc:
            report.annotations.append(f"stage inclusion failed: {exc}")
            return report
    else:
        systems = []
        nerves = []
        for met, beta, cloud in zip(metrics, betas_fine_first, clouds):
            cliques = maximal_cliques(met, beta)
            system = ConvexCellSystem(cloud, cliques)
            systems.append(system)
            nerves.append(build_nerve(system, cap=cap))
        complexes = [nv.complex for nv in nerves]
        maps = [
            nerve_coarsening_map(systems[i], nerves[i], systems[i + 1], nerves[i + 1])
            for i in range(len(nerves) - 1)
        ]
        tower = HomologyTower(complexes, maps, up_to=spec.dim)

    _judge_plateau(report, tower, "the model's rank")
    return report


# ---------------------------------------------------------------------------
# metric comparability


def run_metric_comparability(
    model: Model,
    betas,
    tau: float,
    eps: float,
    dim: int = 1,
    seed: int = 0,
    n: int | None = None,
    scheme: str = "stratified",
) -> LimitReport:
    """Twin towers under the ambient and the path metric, stage for stage.

    Every working scale must sit below the path cutoff; there the two
    strict complexes provably coincide, and the runner asserts it.
    """
    betas = tuple(float(b) for b in betas)
    if any(a <= b for a, b in zip(betas, betas[1:])) or len(betas) < 2:
        raise ValueError("scale grid must be strictly decreasing, length >= 2")
    if eps <= 0:
        raise ValueError("path cutoff must be positive")
    spec_echo = {
        "kind": "metric-comparability",
        "model": model.to_spec_json(),
        "betas": [float(b) for b in betas],
        "tau": float(tau),
        "eps": float(eps),
        "dim": dim,
        "seed": seed,
        "n": n,
        "scheme": scheme,
    }
    count = n if n is not None else default_sample_count(model, betas[-1])
    betas_fine_first = tuple(reversed(betas))
    clouds, stages, cond_reports = _sample_stages(
        model, count, seed, scheme, betas_fine_first, (tau,) * len(betas)
    )
    cloud = clouds[0]
    for rep in cond_reports:
        rep.conditions.append(
            Condition(
                "scales-below-cutoff",
                rep.beta,
                eps,
                rep.beta < eps,
                "below the path cutoff the two strict complexes coincide",
            )
        )

    report = LimitReport(
        kind="metric-comparability",
        spec=spec_echo,
        dim=dim,
        model_betti=_model_betti(model),
        stages=stages,
        conditions=cond_reports,
        target_rank=_target_for_dim(model, dim),
        annotations=[
            "twin towers share one sample; connecting maps are identity "
            "inclusions on vertices",
        ],
    )
    if _out_of_regime(report):
        return report

    met_e = euclidean_metric(cloud)
    met_p = epsilon_path_metric(cloud, eps)
    if np.isinf(met_p.d).any():
        i, j = np.argwhere(np.isinf(met_p.d))[0]
        report.annotations.append(
            f"path metric disconnects samples {int(i)} and {int(j)} at "
            f"cutoff {eps:g}; comparability fails"
        )
        return report
    off = met_e.d > 0
    report.numbers["path_to_chord_ratio_max"] = float(
        np.max(met_p.d[off] / met_e.d[off], initial=1.0)
    )

    complexes = [build_rips(met_e, beta, cap=dim + 1) for beta in betas_fine_first]
    for a, beta in zip(complexes, betas_fine_first):
        if a != build_rips(met_p, beta, cap=dim + 1):
            raise InternalConsistencyError(
                "strict complexes differ below the path cutoff; the pinned "
                "path metric is broken"
            )
    report.numbers["stagewise_identical"] = True

    # equal complexes and vertex-identity maps make the twins one tower
    tower = _inclusion_tower(complexes, betas_fine_first, dim)
    if _record_tower(report, tower, "euclidean", "epsilon-path") is None:
        report.verdict = INCONSISTENT
        report.annotations.append("at least one tower failed to stabilize")
    else:
        report.verdict = CONSISTENT
    return report


# ---------------------------------------------------------------------------
# projection through the shadow


def run_projection_check(
    model: Model,
    beta: float,
    n: int | None = None,
    dim: int = 1,
    seed: int = 0,
    scheme: str = "stratified",
) -> LimitReport:
    """Rank check for the map from a complex onto its shadow's nerve.

    The homology map is realized as the subdivision isomorphism followed
    by the carrier assignment of subdivision vertices to cells.  Both are
    induced by chain maps, so their composite on homology is induced by
    the one composed chain map, read between two bases: the complex's and
    the nerve's.  The subdivision needs no basis of its own.  In regime
    all three ranks agree in every dimension up to ``dim``, and the
    subdivision leaves Betti numbers unchanged.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    count = n if n is not None else default_sample_count(model, beta)
    spec_echo = {
        "kind": "projection-check",
        "model": model.to_spec_json(),
        "beta": float(beta),
        "n": count,
        "dim": dim,
        "seed": seed,
        "scheme": scheme,
    }
    clouds, stages, cond_reports = _sample_stages(model, count, seed, scheme, (beta,), (0.0,))
    cloud = clouds[0]
    report = LimitReport(
        kind="projection-check",
        spec=spec_echo,
        dim=dim,
        model_betti=_model_betti(model),
        stages=stages,
        conditions=cond_reports,
        annotations=[
            "homology map realized as subdivision followed by the carrier "
            "assignment into the nerve",
        ],
    )
    if _out_of_regime(report):
        return report

    cap = dim + 1
    metric = model.geodesic_metric(cloud)
    complex_ = build_rips(metric, beta, cap=cap)
    cliques = maximal_cliques(metric, beta)
    system = ConvexCellSystem(cloud, cliques)
    nerve = build_nerve(system, cap=cap)

    sd, carriers = barycentric_subdivision(complex_)
    base_src = homology_basis(complex_, dim)
    base_nerve = homology_basis(nerve.complex, dim)
    carrier_map = carrier_map_to_nerve(sd, carriers, system, nerve)
    composed = composed_chain_columns(
        carrier_map, subdivision_chain_columns(complex_, sd, dim)
    )
    composite = induced_from_chain_columns(composed, base_src, base_nerve, dim)

    complex_ranks = [base_src.rank(m) for m in range(dim + 1)]
    nerve_ranks = [base_nerve.rank(m) for m in range(dim + 1)]
    composite_ranks = [composite[m].rank() for m in range(dim + 1)]
    sd_betti = betti(sd, dim)
    src_betti = base_src.ranks
    report.numbers.update(
        {
            "complex_rank": complex_ranks,
            "nerve_rank": nerve_ranks,
            "composite_rank": composite_ranks,
            "complex_betti": src_betti,
            "subdivision_betti": sd_betti,
        }
    )
    iso = all(
        complex_ranks[m] == nerve_ranks[m] == composite_ranks[m]
        for m in range(dim + 1)
    )
    if not iso:
        report.verdict = INCONSISTENT
        report.annotations.append(
            "projection composite is not an isomorphism at the rank level"
        )
        return report
    if sd_betti != src_betti:
        report.verdict = INCONSISTENT
        report.annotations.append(
            f"subdivision changed Betti numbers: {src_betti} -> {sd_betti}"
        )
        return report
    report.verdict = CONSISTENT
    return report
