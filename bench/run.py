"""Seeded end-to-end benchmark of the ripshadow command line.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 bench/run.py --workload rips-tower --seed 7 --seconds 25 --trace 0

The run sets up, then repeats whole rounds of the workload's operations
for about ``--seconds`` (it stops at the nearest round boundary), checks the
outputs, and prints one JSON object as the last line of standard output.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics and
the tracing overhead.  See
bench/README.md for the workloads, the metrics and the noise they carry.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

OUT_DIR = ".bench_out"
SETUP_PROBES = 3
# a fresh interpreter doing what the run itself does before its first
# timed operation: import the package and make the workload's temp directory
PROBE = (
    "import shutil, sys, tempfile\n"
    "sys.path.insert(0, 'src')\n"
    "import ripshadow.cli\n"
    "shutil.rmtree(tempfile.mkdtemp(dir=sys.argv[1]))\n"
)


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=25.0, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads() -> None:
    """One BLAS thread, and the program's own worker cap left unset."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("RSL_THREADS", None)


def import_program(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ripshadow", "cli.py")):
        raise SystemExit(f"bench: no ripshadow sources under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import ripshadow.cli

    if not os.path.abspath(ripshadow.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"bench: imported ripshadow from {ripshadow.cli.__file__}, not {src}")
    return ripshadow.cli


def setup_seconds(root: str, out_dir: str) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", PROBE, out_dir], cwd=root, check=True, timeout=60
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_op(cli, op, tracer=None) -> tuple[int, str, str]:
    """Run one command line in-process; returns exit code, output, digest."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        if tracer is None:
            code = cli.main(list(op.argv))
        else:
            code = tracer.call("cli.main", cli.main, list(op.argv))
    text = buf.getvalue()
    h = hashlib.sha256(f"{code}\n{text}".encode())
    for path in op.writes:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
    if tracer is not None and code == 0:
        tracer.counts["cli.bytes_written"] += sum(os.path.getsize(p) for p in op.writes)
        tracer.counts["cli.bytes_read"] += sum(os.path.getsize(p) for p in op.reads)
    return code, text, h.hexdigest()


def run_round(cli, ops, tracer=None) -> dict:
    gc.collect()
    codes, texts, digests = [], [], []
    w0, c0 = time.perf_counter(), time.process_time()
    for op in ops:
        code, text, digest = run_op(cli, op, tracer)
        codes.append(code)
        texts.append(text)
        digests.append(digest)
    return {
        "wall": time.perf_counter() - w0,
        "cpu": time.process_time() - c0,
        "codes": codes,
        "texts": texts,
        "digests": digests,
    }


def layer_metrics(per_round: list[dict], plain: list[dict], traced: list[dict]) -> dict:
    """Counts must repeat exactly across traced rounds; times are medians."""
    from checks import require

    metrics = {}
    for name, value in per_round[0].items():
        values = [v[name] for v in per_round]
        if isinstance(value, int):
            require(len(set(values)) == 1, f"count {name} differs between rounds: {values}")
            unit = "B" if name.startswith("cli.bytes") else "count"
            metrics[name] = {"value": value, "unit": unit}
        else:
            unit = "s" if name.endswith("_s") else "ratio"
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    # each traced round runs right after an untraced one; pairing them
    # cancels most of the host's slow drift in speed
    overhead = statistics.median(t["wall"] - p["wall"] for p, t in zip(plain, traced))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    pin_threads()  # before anything loads numpy
    args = parse_args(argv)
    root = os.getcwd()
    cli = import_program(root)
    from checks import CheckError, require
    from spans import Tracer, layer_values
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    setup_s = None if args.trace else setup_seconds(root, out_dir)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_dir)
    plain, traced, tracers = [], [], []
    metrics = {}
    correct = True
    try:
        ops = workload.ops(seed, work)
        start = time.perf_counter()
        while True:
            plain.append(run_round(cli, ops))
            if args.trace:
                tracer = Tracer()
                tracer.install()
                try:
                    traced.append(run_round(cli, ops, tracer))
                finally:
                    tracer.uninstall()
                tracers.append(tracer)
            # stop at the round boundary nearest to --seconds, so a run
            # measures about --seconds whatever a round's length
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / len(plain) >= args.seconds:
                break
        first = plain[0]["digests"]
        for r in plain[1:] + traced:
            require(r["digests"] == first, "outputs differ between rounds")
        workload.check(seed, work, plain[0]["codes"], plain[0]["texts"])
        if args.trace:
            for name in workload.works_in:
                require(tracers[0].seen(name) > 0, f"traced run saw no {name}")
            metrics = layer_metrics([layer_values(t) for t in tracers], plain, traced)
            tracers[0].write(os.path.join(out_dir, f"trace-{workload.name}-seed{seed}.jsonl"))
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": statistics.median(r["wall"] for r in plain), "unit": "s"},
                "cpu_s": {"value": statistics.median(r["cpu"] for r in plain), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
    except CheckError as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = plain + traced
    attempted = sum(len(r["codes"]) for r in rounds)
    failed = sum(sum(1 for c in r["codes"] if c != 0) for r in rounds)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": metrics if correct else {},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
