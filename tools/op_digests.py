"""Byte-identity digests of the benchmark's operations.

Runs one round of each named workload at each seed through
``ripshadow.cli.main`` and prints one line per workload and seed:

    workload seed sha256

where the hash is taken over the per-operation digests of ``bench/run.py``
(exit code, output text and every written file), joined by newlines.  Two
checkouts that print the same lines give the same bytes on every operation.
Run it from anywhere; it imports the ``src`` of the checkout it sits in and
refuses to run on any other copy of the package:

    python3 tools/op_digests.py --seed 0 7 11

A workload runs in the fixed directory ``<work>/<workload>-seed<seed>``,
emptied before and removed after: the output text echoes the ``--out``
paths, so two checkouts agree only when both write to the same directory.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from run import import_program, pin_threads, run_op  # noqa: E402

pin_threads()  # before anything loads numpy

from workloads import WORKLOADS  # noqa: E402


def digest(cli, name: str, seed: int, work: str) -> str:
    """sha256 of one round's per-operation digests of a workload at a seed."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        ops = WORKLOADS[name].ops(seed, work)
        digests = [run_op(cli, op)[2] for op in ops]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    p.add_argument("--seed", nargs="+", type=int, default=[0, 7, 11])
    p.add_argument(
        "--work",
        default=os.path.join(tempfile.gettempdir(), "ripshadow-op-digests"),
        help="parent of the fixed work directories (default: %(default)s)",
    )
    args = p.parse_args(argv)
    cli = import_program(ROOT)
    for name in args.workload:
        for seed in args.seed:
            work = os.path.join(args.work, f"{name}-seed{seed}")
            print(name, seed, digest(cli, name, seed, work), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
