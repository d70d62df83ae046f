"""Tests of the benchmark itself, on small forms of the workloads.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture(scope="module")
def lac():
    return run.load_lacuna()


def _small(name, lac, tmp_path):
    workload = WORKLOADS[name](small=True)
    os.makedirs(tmp_path, exist_ok=True)
    return workload, workload.setup(lac, 1, str(tmp_path))


def _snapshot(lac) -> dict:
    """Every attribute of the lacuna modules, their classes, and numpy.fft."""
    owners = [getattr(lac, name) for name in tracing.LAYERS] + [lac.package, np.fft]
    owners += [obj for mod in owners[:-1] for obj in vars(mod).values()
               if isinstance(obj, type) and obj.__module__.startswith("lacuna.")]
    return {(id(owner), attr): value for owner in owners
            for attr, value in list(vars(owner).items())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_keeps_report_bytes_and_restores_wrappers(name, lac, tmp_path):
    workload, items = _small(name, lac, tmp_path)
    before = _snapshot(lac)
    args = type("Args", (), {"workload": name, "seed": 1})
    checks = Checks()
    metrics = run.traced_run(args, workload, lac, items, checks)
    # every item ran twice and each traced report matched its untraced bytes
    same = [f for f in checks.failures if f.endswith(".deterministic")]
    assert same == []
    assert checks.attempted > 0
    after = _snapshot(lac)
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    assert metrics["bench.trace_overhead"]["value"] > 0


def test_traced_run_spans_cover_declared_layers(lac, tmp_path):
    seen = set()
    for name in sorted(WORKLOADS):
        workload, items = _small(name, lac, tmp_path / name)
        tr = tracing.Tracer()
        tr.install(lac)
        try:
            run.run_pass(items, Checks())
        finally:
            tr.uninstall()
        layers = {tr.names[i].split(".")[0] for i in set(tr.spans()["nid"].tolist())}
        assert set(workload.layers) <= layers, (name, set(workload.layers) - layers)
        seen |= layers
    assert set(tracing.LAYERS) <= seen


def test_workloads_cover_every_layer():
    declared = set().union(*(w.layers for w in WORKLOADS.values()))
    assert declared == set(tracing.LAYERS)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_printed_metrics_are_declared(lac, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "child_setups", lambda args, count: [])
    workload, items = _small("czd", lac, tmp_path)
    args = type("Args", (), {"workload": "czd", "seed": 1, "seconds": 0.0})
    e2e = run.timed_run(args, workload, items, Checks(), 0.5)
    traced = run.traced_run(args, workload, lac, items, Checks())
    declared_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in e2e.items()} == declared_e2e
    assert {k: v["unit"] for k, v in traced.items()} == declared_layer
    assert [list(m) for m in tracing.PER_LAYER] == [
        [m["name"], m["unit"], m["better"]] for m in SPEC["per_layer"]]


def test_self_time_subtracts_the_union_of_children():
    # parent 0 spans [0, 10]; children 1 and 2 overlap on [3, 5]; 3 is a grandchild
    sp = {"start": np.array([0.0, 2.0, 3.0, 2.5]),
          "end": np.array([10.0, 5.0, 6.0, 3.5]),
          "parent": np.array([-1, 0, 0, 1])}
    own = tracing.self_times(sp)
    np.testing.assert_allclose(own, [10.0 - 4.0, 3.0 - 1.0, 3.0, 1.0])


def test_fails_cleanly_without_the_program(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "czd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_items_are_rescaled_only_with_a_probe():
    from workloads import Item
    items = [Item("a", lambda: None, lambda result, checks: (b"", {}))]
    raw, reported, _ = run.run_pass(items, Checks())
    assert reported == raw

    class Fixed(run.SpeedProbe):
        # a probe that always reads twice the reference time: a host at half speed
        def probe(self):
            self.samples.append(2 * run.PROBE_REF)

    raw, reported, _ = run.run_pass(items, Checks(), Fixed())
    assert reported["a"] == pytest.approx(raw["a"] / 2)


def test_speed_probe_timer_runs_and_is_removed():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with run.SpeedProbe() as probe:
        end = time.perf_counter() + 4 * run.PROBE_EVERY
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
