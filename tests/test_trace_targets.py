"""The benchmark's traced run wraps program names; each must still exist."""

from __future__ import annotations

import os

import ripshadow.limits

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_every_traced_name_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import spans

    build_rips = ripshadow.limits.build_rips
    tracer = spans.Tracer()
    try:
        # raises RuntimeError when a traced name is renamed or deleted
        tracer.install()
    finally:
        tracer.uninstall()
    assert ripshadow.limits.build_rips is build_rips
