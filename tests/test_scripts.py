"""Smoke runs of the batch scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_window_checks_writes_its_reports(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_window_checks.py"),
         "--log2-n", "10", "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"zb_tau{tau}.json" for tau in (1, 2)]
        + [f"genzb_tau{tau}_sigma{sigma}.json" for tau in (1, 2) for sigma in (0, 1)])
