"""``bench.py --scaling`` on a box too small for its N vs 4N levels."""

from __future__ import annotations

import subprocess

import bench


def test_scaling_not_measurable_below_16_cpus(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("no benchmark may run")

    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(subprocess, "run", no_run)
    monkeypatch.setattr(bench, "_cpu_probe", no_run)
    out = bench.run_scaling("/nonexistent/sf0.01")
    assert out["scaling_efficiency"] == "not measurable: nproc=3"
