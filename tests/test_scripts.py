"""Smoke runs of every batch script under ``scripts/``."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", ["run_endpoint_suite.py", "run_martingale_suite.py",
                                  "run_sharpness_study.py", "run_window_checks.py"])
def test_help_prints_the_script_docstring(name):
    path = ROOT / "scripts" / name
    doc = ast.get_docstring(ast.parse(path.read_text(encoding="utf-8")))
    assert doc, f"{name} has no docstring"
    done = subprocess.run([sys.executable, str(path), "--help"], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    # argparse rewraps the description
    assert " ".join(doc.split()) in " ".join(done.stdout.split())


def load_contract():
    spec = importlib.util.spec_from_file_location("contract", ROOT / "scripts" / "contract.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_contract_records_and_diffs_the_small_runs(tmp_path, capsys):
    contract = load_contract()
    out = tmp_path / "contract.json"
    assert contract.main(["record", "--out", str(out), "--small"]) == 0
    assert contract.main(["diff", "--record", str(out), "--small"]) == 0
    rec = json.loads(out.read_text())
    assert {path.split("/")[0] for path in rec} == {
        "czd", "decompose", "growth", "samples", "verify", "zygmund-bonami",
        "gen-zygmund-bonami", "sharpness", "cww"}
    # the reports of both zygmund-bonami experiments at tau 1-3, the cww
    # reports at sigma 0-2, all at seeds 7 and 10, and one sharpness report
    # with its Khintchine draws, each from the command line
    runs = {tuple(path.split("/")[:3]) for path in rec
            if path.startswith(("zygmund-bonami/", "gen-zygmund-bonami/", "sharpness/",
                                "cww/"))}
    assert runs == {(name, seed, f"{param}-{value}") for seed in ("7", "10")
                    for name, param, values in (("zygmund-bonami", "tau", (1, 2, 3)),
                                                ("gen-zygmund-bonami", "tau", (1, 2, 3)),
                                                ("cww", "sigma", (0, 1, 2)))
                    for value in values} | {("sharpness", "7", "khintchine-4")}
    for run in runs:
        key = "/".join(run)
        assert rec[key + "/stdout/json/config/log2_n"] in (8, 12)
        if run[0] == "gen-zygmund-bonami":
            # the exit code follows the report's verdict
            assert rec[f"{key}/stdout/json/config/tau"] == int(run[2][-1])
            assert rec[key + "/exit"] == (0 if rec[key + "/stdout/json/ok"] else 1)
        elif run[0] != "sharpness":  # whose small grid has too few orders to pass
            assert rec[key + "/exit"] == 0
    for seed in ("7", "10"):
        for sigma in (0, 1, 2):
            key = f"cww/{seed}/sigma-{sigma}/stdout/json"
            assert (rec[f"{key}/config/sigma"], rec[f"{key}/config/seed"]) == (sigma, int(seed))
            assert rec[f"{key}/config/ensemble"] == 6 and rec[f"{key}/ok"] is True
    assert rec["sharpness/7/khintchine-4/stdout/json/config/khintchine"] == 4
    assert "sharpness/7/khintchine-4/stdout/json/slope_rand" in rec
    # each builder of the small verify ensemble at each support on both
    # grids, and decompose without --input
    built = {tuple(path.split("/")[1:]) for path in rec
             if path.startswith("samples/") and "/decompose/" not in path}
    assert built == {(seed, support, label, log2_n) for seed in ("10", "2026")
                     for support, third in (("full", "czbad-2"), ("unit", "bump-2"),
                                            ("centered", "bump-2"))
                     for label in ("bump-0", "lacpoly-1", third) for log2_n in ("9", "11")}
    assert rec["samples/10/decompose/exit"] == rec["samples/2026/decompose/exit"] == 0
    # the five verify reports and the identity operator's, then the six again
    # in reverse order in the same process, each the same bytes
    verify = {tuple(path.split("/")[2:4]) for path in rec if path.startswith("verify/")}
    labels = {label for label, _ in verify if label != "reverse"}
    assert len(labels) == 6 and "endpoint-identity" in labels
    assert {("reverse", label) for label in labels} <= verify
    assert rec["verify/10/endpoint-identity/stdout/json/operator"] == "identity"
    for label in labels:
        assert rec[f"verify/10/reverse/{label}/stdout/text"] == \
            rec[f"verify/10/{label}/stdout/text"]
    # the solver workload's reports at both seeds (the small form leaves out
    # the rough input, which the full form runs to the iteration cap)
    decompose = {tuple(path.split("/")[1:3]) for path in rec if path.startswith("decompose/")}
    assert {seed for seed, _ in decompose} == {"2026", "7"}
    assert {label for seed, label in decompose if seed == "7"} == \
        {label for seed, label in decompose if seed == "2026"}
    assert contract.SEEDS["decompose"] == (2026, 7)
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"{len(rec)} leaves against {len(rec)}; 0 floats or arrays moved in 0 fields; "
        "0 other differences")

    # a moved float, a moved sample, a changed exit code and a missing leaf
    old = dict(rec)
    level = "czd/3107/member-1/report/atoms/0/level_average"
    old[level] = rec[level] * (1 + 2**-40)
    samples = contract.leaf_array(rec["czd/11/member-2/cancellative"]).copy()
    samples[3] = -samples[3]
    old["czd/11/member-2/cancellative"] = contract.array_leaf(samples)
    # a sample of the mirrored half of a sign polynomial, on the x4 grid
    poly = contract.leaf_array(rec["samples/10/full/lacpoly-1/11"]).copy()
    assert poly[1000] != 0.0
    poly[1000] = -poly[1000]
    old["samples/10/full/lacpoly-1/11"] = contract.array_leaf(poly)
    old["decompose/2026/gate08-s0-0-n6/exit"] = 1
    del old["verify/10/endpoint-lp/stdout/text"]
    lines, same = contract.summary(rec, old)
    assert not same
    assert lines[1:] == [
        "  czd/*/*/cancellative: 1 moved, largest relative move 2.000e+00",
        "  czd/*/*/report/atoms/*/level_average: 1 moved, largest relative move 9.095e-13",
        "  samples/*/full/lacpoly-1/*: 1 moved, largest relative move 2.000e+00",
        "  decompose/2026/gate08-s0-0-n6/exit: 1 -> 0",
        "  verify/10/endpoint-lp/stdout/text: only in the new record"]


def test_contract_runs_every_readme_command():
    # each shell example of README.md, flags as written
    commands = load_contract().readme_commands()
    assert len(commands) == 12
    assert {argv[0] for argv in commands} == {
        "lacunary", "project", "sqfn", "orlicz", "czd", "cww", "decompose", "verify",
        "sharpness"}
