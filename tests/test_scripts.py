"""Smoke runs of every batch script under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, outdir, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args, "--outdir", str(outdir)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return sorted(p.name for p in outdir.iterdir())


def test_run_window_checks_writes_its_reports(tmp_path):
    assert run_script("run_window_checks.py", tmp_path, "--log2-n", "10") == sorted(
        [f"zb_tau{tau}.json" for tau in (1, 2)]
        + [f"genzb_tau{tau}_sigma{sigma}.json" for tau in (1, 2) for sigma in (0, 1)])


def test_run_endpoint_suite_writes_its_reports(tmp_path):
    names = run_script("run_endpoint_suite.py", tmp_path, "--log2-n", "9", "--ensemble", "3")
    endpoint = ("prototype", "step", "lp", "identity")
    assert names == sorted(
        [f"endpoint_{kind}.{ext}" for kind in endpoint for ext in ("json", "csv")]
        + [f"hormander_{kind}.json" for kind in ("hormander", "smooth-sqfn")])


def test_run_martingale_suite_writes_its_reports(tmp_path):
    names = run_script("run_martingale_suite.py", tmp_path, "--log2-n", "8", "--ensemble", "3")
    assert names == sorted([f"cww_sigma{sigma}.json" for sigma in (0, 1, 2)]
                           + [f"decompose_sigma{sigma}.json" for sigma in (0, 1)])


def test_run_sharpness_study_writes_its_reports(tmp_path):
    # 2^15 admits the parameters N = 2..8 of the dilated family
    names = run_script("run_sharpness_study.py", tmp_path, "--log2-n", "15", "--khintchine", "4")
    assert names == ["sharpness.csv", "sharpness.json"]
