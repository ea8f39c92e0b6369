"""Command-line front end for the workbench.

Each subcommand reads its settings from flags, optionally seeded by a JSON
config file (``--config``); explicit flags always win over the file.  Config
keys are the flag names with dashes turned into underscores.  Artifacts are
written atomically (temp file in the target directory, then rename), so an
interrupted run never leaves a half-written file, and identical settings with
the same seed reproduce artifacts byte for byte.

Exit codes: 0 on success, 2 when a report concludes out-of-regime (failed
hypotheses are a finding, not a crash), 1 on runtime errors and malformed
input files, 64 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import tempfile

import numpy as np

from .homology import betti, homology_basis
from .limits import (
    OUT_OF_REGIME,
    DirectSystemSpec,
    InverseSystemSpec,
    LimitReport,
    METRIC_CHOICES,
    OBJECT_CHOICES,
    _metric_for,
    run_direct_system,
    run_inverse_system,
    run_metric_comparability,
    run_projection_check,
)
from .models import (
    AmbiguousProjectionError,
    Circle,
    PointCloud,
    SamplerSpec,
    Trefoil,
    euclidean_metric,
    load_model,
    model_from_json,
    sample,
    theta_graph,
)
from .oracle import OracleBudgetError, brute_homology, brute_rips, raster_betti_2d
from .reconstruct import build_curve_K
from .rips import SimplicialComplex, build_rips, maximal_cliques
from .shadow import ConvexCellSystem, build_nerve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_OUT_OF_REGIME = 2
EXIT_USAGE = 64


class UsageError(Exception):
    """Bad flags or bad config; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on bad flags; route through UsageError
    # instead so the exit-code contract stays in one place
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# atomic artifact writing


def _write_text(path: str, text: str) -> None:
    """Write text to path through a temporary file in its directory, given
    the mode a plain ``open`` would create it with (``mkstemp`` makes it
    owner-only) and then renamed over path."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rsl-tmp-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _points_csv(points: np.ndarray) -> str:
    dim = points.shape[1]
    lines = ["# " + ",".join(f"x{i}" for i in range(dim))]
    for row in points:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# input files


def _load_input(loader, path: str):
    """Read an input file with ``loader``; malformed contents exit 1."""
    try:
        return loader(path)
    except (ValueError, KeyError, TypeError) as exc:
        raise RuntimeError(f"malformed input file {path}: {exc}") from exc


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# flag / config merging


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise UsageError("config file must hold a JSON object")
    return obj


def _cfg(args, config: dict, key: str, default=None):
    val = getattr(args, key, None)
    if val is None:
        val = config.get(key, default)
    return val


def _require(args, config: dict, key: str):
    val = _cfg(args, config, key)
    if val is None:
        raise UsageError(f"missing required --{key.replace('_', '-')}")
    return val


def _require_float(args, config: dict, key: str) -> float:
    return float(_require(args, config, key))


def _require_int(args, config: dict, key: str) -> int:
    return int(_require(args, config, key))


def _number_list(val, flag: str, convert) -> tuple | None:
    if val is None:
        return None
    if isinstance(val, (list, tuple)):
        items = val
    else:
        items = [tok for tok in str(val).split(",") if tok.strip()]
    try:
        return tuple(convert(v) for v in items)
    except (TypeError, ValueError):
        raise UsageError(f"{flag} expects comma-separated numbers, got {val!r}")


def _resolve_model(args, config: dict, required: bool = True):
    val = _cfg(args, config, "model")
    if val is None:
        if required:
            raise UsageError(
                "missing required --model (circle | trefoil | theta | path to a model JSON file)"
            )
        return None
    if isinstance(val, dict):
        return model_from_json(val)
    name = str(val)
    if name == "circle":
        return Circle(radius=float(_cfg(args, config, "radius", 1.0)))
    if name == "trefoil":
        return Trefoil(scale=float(_cfg(args, config, "scale", 1.0)))
    if name in ("theta", "theta-graph"):
        return theta_graph(int(_cfg(args, config, "segments_per_arc", 16)))
    if os.path.exists(name):
        return _load_input(load_model, name)
    raise UsageError(f"unknown model {name!r} (not a builtin name or a readable file)")


def _finish_report(report: LimitReport, args, config: dict) -> int:
    out = _cfg(args, config, "out")
    if out is not None:
        _write_json(out, report.to_json_dict())
    bits = [f"{report.kind}: verdict {report.verdict}"]
    if report.target_rank is not None:
        bits.append(f"target rank {report.target_rank}")
    for name in sorted(report.stabilized):
        rank = report.stabilized[name]
        if rank is None:
            bits.append(f"{name} did not stabilize")
        else:
            bits.append(f"{name} stabilized at rank {rank}")
    print("; ".join(bits))
    for note in report.annotations:
        print(f"  note: {note}")
    if out is not None:
        print(f"report -> {out}")
    return EXIT_OUT_OF_REGIME if report.verdict == OUT_OF_REGIME else EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def _sampler_spec(args, config: dict, model) -> SamplerSpec:
    return SamplerSpec(
        model,
        _require_int(args, config, "n"),
        tau=float(_cfg(args, config, "tau", 0.0)),
        seed=int(_cfg(args, config, "seed", 0)),
        scheme=str(_cfg(args, config, "scheme", "stratified")),
    )


def _run_sample(args, config: dict) -> int:
    cloud = sample(_sampler_spec(args, config, _resolve_model(args, config)))
    out = _require(args, config, "out")
    _write_text(out, _points_csv(cloud.points))
    print(f"wrote {cloud.n} points in R^{cloud.dim} to {out}")
    return EXIT_OK


def _metric_from_flags(args, config: dict, cloud: PointCloud):
    choice = str(_cfg(args, config, "metric", "euclidean"))
    eps = _cfg(args, config, "eps")
    model = _resolve_model(args, config, required=False)
    if choice == "geodesic" and model is None:
        raise UsageError("the geodesic metric needs --model")
    return _metric_for(cloud, choice, None if eps is None else float(eps), model)


def _run_rips(args, config: dict) -> int:
    cloud = _load_input(PointCloud.from_csv, _require(args, config, "points"))
    beta = _require_float(args, config, "beta")
    cap = int(_cfg(args, config, "cap", 2))
    complex_ = build_rips(_metric_from_flags(args, config, cloud), beta, cap=cap)
    out = _require(args, config, "out")
    _write_text(out, complex_.to_text())
    print(f"complex with simplex counts {complex_.counts()} at scale {beta:g} -> {out}")
    return EXIT_OK


def _run_shadow(args, config: dict) -> int:
    cloud = _load_input(PointCloud.from_csv, _require(args, config, "points"))
    beta = _require_float(args, config, "beta")
    cap = int(_cfg(args, config, "cap", 2))
    cells = maximal_cliques(euclidean_metric(cloud), beta)
    nerve = build_nerve(ConvexCellSystem(cloud, cells), cap=cap)
    out = _require(args, config, "out")
    _write_text(out, nerve.to_text())
    print(
        f"nerve over {len(cells)} hulls with simplex counts "
        f"{nerve.complex.counts()} -> {out}"
    )
    return EXIT_OK


def _run_homology(args, config: dict) -> int:
    complex_ = _load_input(SimplicialComplex.load, _require(args, config, "complex"))
    up_to = int(_cfg(args, config, "up_to", max(0, complex_.cap - 1)))
    payload = {"betti": [int(r) for r in betti(complex_, up_to)], "up_to": up_to}
    out = _cfg(args, config, "out")
    if out is None:
        print(json.dumps(payload, sort_keys=True))
    else:
        _write_json(out, payload)
        print(f"betti {payload['betti']} -> {out}")
    return EXIT_OK


def _run_tower(args, config: dict) -> int:
    model = _resolve_model(args, config)
    beta_grid = _number_list(_cfg(args, config, "beta_grid"), "--beta-grid", float)
    n_sequence = _number_list(_cfg(args, config, "n_sequence"), "--n-sequence", int)
    if (beta_grid is None) == (n_sequence is None):
        raise UsageError(
            "give exactly one of --beta-grid (inverse system) or "
            "--n-sequence (direct system)"
        )
    dim = int(_cfg(args, config, "dim", 1))
    seed = int(_cfg(args, config, "seed", 0))
    metric = str(_cfg(args, config, "metric", "euclidean"))
    eps = _cfg(args, config, "eps")
    eps = None if eps is None else float(eps)
    tau = float(_cfg(args, config, "tau", 0.0))
    object_kind = str(_cfg(args, config, "object", "rips"))
    tau_grid = _number_list(_cfg(args, config, "tau_grid"), "--tau-grid", float)
    if n_sequence is not None:
        # a direct system samples without noise and builds rips complexes;
        # its sizes come from --n-sequence and its points from a fixed
        # enumeration, so --n and --scheme would be ignored
        for flag, given in (
            ("--object shadow-nerve", object_kind == "shadow-nerve"),
            ("--tau-grid", tau_grid is not None),
            ("--tau", tau > 0),
            ("--n", _cfg(args, config, "n") is not None),
            ("--scheme", _cfg(args, config, "scheme") is not None),
        ):
            if given:
                raise UsageError(f"{flag} does not apply to a direct system (--n-sequence)")
        spec = DirectSystemSpec(
            model,
            _require_float(args, config, "beta"),
            n_sequence,
            metric=metric,
            eps=eps,
            dim=dim,
            seed=seed,
        )
        report = run_direct_system(spec)
    else:
        n = _cfg(args, config, "n")
        spec = InverseSystemSpec(
            model,
            beta_grid,
            tau=tau,
            object_kind=object_kind,
            metric=metric,
            eps=eps,
            dim=dim,
            seed=seed,
            n=None if n is None else int(n),
            scheme=str(_cfg(args, config, "scheme", "stratified")),
            taus=tau_grid,
        )
        report = run_inverse_system(spec)
    return _finish_report(report, args, config)


def _run_compare_metrics(args, config: dict) -> int:
    model = _resolve_model(args, config)
    betas = _number_list(_require(args, config, "beta_grid"), "--beta-grid", float)
    n = _cfg(args, config, "n")
    report = run_metric_comparability(
        model,
        betas,
        float(_cfg(args, config, "tau", 0.0)),
        _require_float(args, config, "eps"),
        dim=int(_cfg(args, config, "dim", 1)),
        seed=int(_cfg(args, config, "seed", 0)),
        n=None if n is None else int(n),
        scheme=str(_cfg(args, config, "scheme", "stratified")),
    )
    return _finish_report(report, args, config)


def _run_project_check(args, config: dict) -> int:
    model = _resolve_model(args, config)
    n = _cfg(args, config, "n")
    report = run_projection_check(
        model,
        _require_float(args, config, "beta"),
        n=None if n is None else int(n),
        dim=int(_cfg(args, config, "dim", 1)),
        seed=int(_cfg(args, config, "seed", 0)),
        scheme=str(_cfg(args, config, "scheme", "stratified")),
    )
    return _finish_report(report, args, config)


def _run_reconstruct(args, config: dict) -> int:
    model = _resolve_model(args, config)
    zeta = _cfg(args, config, "zeta")
    spec = _sampler_spec(args, config, model)
    result = build_curve_K(
        model,
        sample(spec),
        _require_float(args, config, "beta"),
        spec.tau,
        zeta=None if zeta is None else float(zeta),
    )
    out = _cfg(args, config, "out")
    if out is not None:
        _write_json(out, result.to_json_dict())
    curve_csv = _cfg(args, config, "curve_csv")
    if curve_csv is not None and result.curve is not None:
        _write_text(curve_csv, _points_csv(result.curve.points))
    print(f"reconstruction: verdict {result.verdict}")
    for name in sorted(result.checks):
        print(f"  {name}: {result.checks[name]}")
    for note in result.annotations:
        print(f"  note: {note}")
    if out is not None:
        print(f"result -> {out}")
    if curve_csv is not None and result.curve is not None:
        print(f"curve -> {curve_csv}")
    return EXIT_OUT_OF_REGIME if result.verdict == OUT_OF_REGIME else EXIT_OK


def _run_oracle(args, config: dict) -> int:
    """Slow independent cross-checks; disagreement exits 1."""
    what = str(_require(args, config, "check"))
    if what == "rips":
        cloud = _load_input(PointCloud.from_csv, _require(args, config, "points"))
        beta = _require_float(args, config, "beta")
        cap = int(_cfg(args, config, "cap", 2))
        met = _metric_from_flags(args, config, cloud)
        fast = build_rips(met, beta, cap=cap)
        slow = brute_rips(met, beta, cap=cap)
        if fast != slow:
            print("oracle disagreement: clique expansion vs subset scan", file=sys.stderr)
            return EXIT_ERROR
        print(f"rips oracle agrees: counts {fast.counts()}")
        return EXIT_OK
    if what == "homology":
        complex_ = _load_input(SimplicialComplex.load, _require(args, config, "complex"))
        m = int(_cfg(args, config, "dim", 1))
        fast = homology_basis(complex_, m).rank(m)
        slow = brute_homology(complex_, m)
        if fast != slow:
            print(
                f"oracle disagreement in dimension {m}: echelon {fast}, "
                f"dense scan {slow}",
                file=sys.stderr,
            )
            return EXIT_ERROR
        print(f"homology oracle agrees: rank {fast} in dimension {m}")
        return EXIT_OK
    if what == "raster":
        cloud = _load_input(PointCloud.from_csv, _require(args, config, "points"))
        beta = _require_float(args, config, "beta")
        cells = maximal_cliques(euclidean_metric(cloud), beta)
        system = ConvexCellSystem(cloud, cells)
        nerve = build_nerve(system, cap=2)
        nerve_betti = tuple(betti(nerve.complex, 1))
        grid_betti = raster_betti_2d(system)
        if nerve_betti != tuple(grid_betti):
            print(
                f"oracle disagreement: nerve betti {nerve_betti}, "
                f"raster betti {tuple(grid_betti)}",
                file=sys.stderr,
            )
            return EXIT_ERROR
        print(f"raster oracle agrees: betti {nerve_betti}")
        return EXIT_OK
    raise UsageError(f"unknown oracle check {what!r}")


def _field(obj: dict, name: str):
    if not isinstance(obj, dict) or name not in obj:
        raise RuntimeError(f"report is missing field {name!r}")
    return obj[name]


def _run_plot_data(args, config: dict) -> int:
    report_path = _require(args, config, "report")
    obj = _load_input(_read_json, report_path)
    out_dir = str(_cfg(args, config, "out_dir", "."))
    os.makedirs(out_dir, exist_ok=True)
    written = []

    if isinstance(obj, dict) and "towers" in obj:
        dim = _field(obj, "dim")
        stages = _field(obj, "stages")
        towers = _field(obj, "towers")
        names = sorted(towers)
        if not names:
            # gated or towerless report still yields the stage table header
            target = os.path.join(out_dir, "stages.csv")
            _write_text(target, "stage,beta,n,rank_m\n")
            written.append(target)
        for name in names:
            suffix = "" if len(names) == 1 else f"-{name}"
            table = _field(towers[name], "rank_table")
            key = str(dim)
            if key not in table:
                raise RuntimeError(f"rank_table is missing dimension {key!r}")
            rows = table[key]
            lines = ["stage,beta,n,rank_m"]
            for i, row in enumerate(rows):
                st = stages[i] if i < len(stages) else {}
                lines.append(
                    f"{_field(st, 'stage')},{_field(st, 'beta')!r},"
                    f"{_field(st, 'n')},{row[i]}"
                )
            target = os.path.join(out_dir, f"stages{suffix}.csv")
            _write_text(target, "\n".join(lines) + "\n")
            written.append(target)
            pairs = ["i,j,rank"]
            for i, row in enumerate(rows):
                for j, val in enumerate(row):
                    if val is not None:
                        pairs.append(f"{i},{j},{val}")
            target = os.path.join(out_dir, f"rank-table{suffix}.csv")
            _write_text(target, "\n".join(pairs) + "\n")
            written.append(target)
    elif isinstance(obj, dict) and "curve" in obj:
        curve = obj["curve"]
        if curve is None:
            raise RuntimeError(
                f"report has no curve (verdict {obj.get('verdict')!r}); nothing to plot"
            )
        try:
            points = PointCloud(_field(curve, "points")).points
        except ValueError as exc:
            raise RuntimeError(
                f"malformed input file {report_path}: curve points: {exc}"
            ) from exc
        target = os.path.join(out_dir, "curve.csv")
        _write_text(target, _points_csv(points))
        written.append(target)
    else:
        raise RuntimeError("report JSON has neither a 'towers' nor a 'curve' field")

    for target in written:
        print(f"wrote {target}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def _add_model_flags(p) -> None:
    p.add_argument("--model", help="circle | trefoil | theta | path to a model JSON file")
    p.add_argument("--radius", type=float, help="circle radius (default 1)")
    p.add_argument("--scale", type=float, help="trefoil scale (default 1)")
    p.add_argument("--segments-per-arc", type=int, help="theta-graph resolution (default 16)")


def _add_sampling_flags(p) -> None:
    p.add_argument("--n", type=int, help="sample count")
    p.add_argument("--tau", type=float, help="tube noise amplitude (default 0)")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.add_argument(
        "--scheme",
        choices=("stratified", "uniform-arc"),
        help="arc-length sampling scheme (default stratified)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = _Parser(
        prog="ripshadow",
        description="Proximity complexes, their Euclidean shadows, and limit towers.",
    )
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON file of defaults; explicit flags win")

    # the oracle subcommand is deliberately absent from this listing; it is
    # a derivation tool, not part of the everyday surface
    sub = parser.add_subparsers(
        dest="command",
        metavar="{sample,rips,shadow,homology,tower,compare-metrics,"
        "project-check,reconstruct,plot-data}",
    )

    p = sub.add_parser("sample", parents=[common], help="draw points from a model")
    _add_model_flags(p)
    _add_sampling_flags(p)
    p.add_argument("--out", help="points CSV to write")
    p.set_defaults(runner=_run_sample)

    p = sub.add_parser("rips", parents=[common], help="build a proximity complex from points")
    p.add_argument("--points", help="points CSV")
    p.add_argument("--beta", type=float, help="strict proximity scale")
    p.add_argument("--metric", choices=METRIC_CHOICES, help="distance choice (default euclidean)")
    p.add_argument("--eps", type=float, help="cutoff for the path metric")
    p.add_argument("--cap", type=int, help="top simplex dimension kept (default 2)")
    _add_model_flags(p)
    p.add_argument("--out", help="complex JSON to write")
    p.set_defaults(runner=_run_rips)

    p = sub.add_parser("shadow", parents=[common], help="nerve of the hull cover of a complex")
    p.add_argument("--points", help="points CSV")
    p.add_argument("--beta", type=float, help="strict proximity scale")
    p.add_argument("--cap", type=int, help="top nerve dimension kept (default 2)")
    p.add_argument("--out", help="nerve JSON to write")
    p.set_defaults(runner=_run_shadow)

    p = sub.add_parser("homology", parents=[common], help="betti numbers of a stored complex")
    p.add_argument("--complex", help="complex JSON")
    p.add_argument("--up-to", type=int, help="top homology dimension (default cap-1)")
    p.add_argument("--out", help="betti JSON to write (prints when omitted)")
    p.set_defaults(runner=_run_homology)

    p = sub.add_parser("tower", parents=[common], help="run a direct or inverse tower experiment")
    _add_model_flags(p)
    _add_sampling_flags(p)
    p.add_argument("--beta", type=float, help="fixed scale for a direct system")
    p.add_argument("--beta-grid", help="comma-separated decreasing scales (inverse system)")
    p.add_argument("--n-sequence", help="comma-separated increasing sizes (direct system)")
    p.add_argument("--tau-grid", help="comma-separated per-stage noise amplitudes")
    p.add_argument("--object", choices=OBJECT_CHOICES, help="tower object (default rips)")
    p.add_argument("--metric", choices=METRIC_CHOICES, help="distance choice (default euclidean)")
    p.add_argument("--eps", type=float, help="cutoff for the path metric")
    p.add_argument("--dim", type=int, help="homology dimension (default 1)")
    p.add_argument("--out", help="report JSON to write")
    p.set_defaults(runner=_run_tower)

    p = sub.add_parser(
        "compare-metrics",
        parents=[common],
        help="twin towers under the chord and short-range path metrics",
    )
    _add_model_flags(p)
    _add_sampling_flags(p)
    p.add_argument("--beta-grid", help="comma-separated decreasing scales")
    p.add_argument("--eps", type=float, help="path-metric cutoff")
    p.add_argument("--dim", type=int, help="homology dimension (default 1)")
    p.add_argument("--out", help="report JSON to write")
    p.set_defaults(runner=_run_compare_metrics)

    p = sub.add_parser(
        "project-check",
        parents=[common],
        help="subdivision carrier route from a complex to its hull nerve",
    )
    _add_model_flags(p)
    _add_sampling_flags(p)
    p.add_argument("--beta", type=float, help="strict proximity scale")
    p.add_argument("--dim", type=int, help="top homology dimension (default 1)")
    p.add_argument("--out", help="report JSON to write")
    p.set_defaults(runner=_run_project_check)

    p = sub.add_parser("reconstruct", parents=[common], help="rebuild a closed curve from noisy samples")
    _add_model_flags(p)
    _add_sampling_flags(p)
    p.add_argument("--beta", type=float, help="strict proximity scale")
    p.add_argument("--zeta", type=float, help="claimed sample density (measured when omitted)")
    p.add_argument("--out", help="result JSON to write")
    p.add_argument("--curve-csv", help="ordered curve vertices CSV to write")
    p.set_defaults(runner=_run_reconstruct)

    p = sub.add_parser("oracle", parents=[common], help=argparse.SUPPRESS)
    p.add_argument("--check", choices=("rips", "homology", "raster"))
    p.add_argument("--points", help="points CSV")
    p.add_argument("--complex", help="complex JSON")
    p.add_argument("--beta", type=float)
    p.add_argument("--cap", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--metric", choices=METRIC_CHOICES)
    p.add_argument("--eps", type=float)
    _add_model_flags(p)
    p.set_defaults(runner=_run_oracle)

    p = sub.add_parser("plot-data", parents=[common], help="flatten a report JSON into CSV tables")
    p.add_argument("--report", help="report JSON produced by another subcommand")
    p.add_argument("--out-dir", help="directory for the CSV tables (default .)")
    p.set_defaults(runner=_run_plot_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # numpy advises huge pages for arrays of 4 MiB or more; the heap ranges
    # such short-lived arrays leave keep the advice, and the kernel (at a fault
    # or from its background scanner) fills them with 2 MiB pages however few
    # of their 4 KiB pages are in use, so identical runs differ in peak memory.
    advised = np._core.multiarray._set_madvise_hugepage(False)
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "runner"):
            raise UsageError("a subcommand is required (see --help)")
        config = _load_config(getattr(args, "config", None))
        return args.runner(args, config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OracleBudgetError, AmbiguousProjectionError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        # parameter validation raised past the flag layer, still a usage problem
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        np._core.multiarray._set_madvise_hugepage(advised)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
