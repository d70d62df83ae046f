#!/usr/bin/env python3
"""Record the behaviour contract leaf by leaf, or diff it against a checkout.

    python scripts/contract.py record --out FILE [--small]
    python scripts/contract.py diff --against PATH [--small]
    python scripts/contract.py diff --record FILE [--small]

The contract is a fixed list of canonical runs, built from the benchmark's
workload generators (``perfbench/workloads.py``):

- ``czd``: every member report of the czd workload at seeds 3107 and 11,
  and each member's atom samples (the cancellative and the lacunary
  samples of its atoms, in interval order);
- ``decompose``: the solver workload's 17 ``lacuna decompose`` reports at
  seeds 2026 and 7, so two rough inputs run to the 5000-iteration cap, where
  a change in rounding shows;
- ``growth``: the growth workload's report at seed 7;
- ``verify``: the verify workload's five reports at seed 10 and the report
  of ``lacuna verify endpoint --operator identity`` (the one endpoint
  operator the workload leaves out) at its configuration, and the six again
  in reverse command order in the same process, so that a state one
  experiment leaves to the next (the ensemble they share) shows as a moved
  leaf;
- ``samples``: at seeds 10 and 2026, the samples of every builder of
  ``harness.make_sample_specs`` at the verify workload's configuration, at
  supports None, ``"unit"`` and ``"centered"`` on the grid and on its x4
  refinement, and the report of ``lacuna decompose`` without ``--input``;
- ``zygmund-bonami`` and ``gen-zygmund-bonami``: the reports of ``lacuna
  verify zygmund-bonami`` and ``lacuna verify gen-zygmund-bonami`` at tau 1,
  2 and 3 on 2^10 samples, at seeds 7 and 10;
- ``sharpness``: the report of ``lacuna sharpness --log2-n 14 --n-max 6
  --khintchine 4`` (the default seed 7);
- ``cww``: the reports of ``lacuna cww --log2-n 10 --ensemble 6`` at sigma 0,
  1 and 2, at seeds 7 and 10;
- ``readme``: every ``lacuna`` command in README.md's shell examples, each
  in a fresh process in a directory holding the quick start's ``f.bin`` and
  the ``run.cfg`` example, with its stdout, stderr and exit code.

Every value of a report is a leaf, keyed by its path (``czd/3107/member-4/
atoms/0/level_average``), and every sample array is a leaf of exact bytes.
``--small`` takes the workloads' small forms, runs both zygmund-bonami
experiments on 2^8 samples, sharpness on 2^12 up to order 5 and cww on 2^8
samples, and leaves out the README examples.

``record`` runs the contract with the ``lacuna`` of ``--src`` (this
checkout's ``src/`` by default) and writes the leaves to one JSON file.
``diff`` runs this checkout's contract in this process and compares it with
a recorded file, or with another checkout's, whose ``src/`` it runs in a
subprocess.  It prints, per field (the path with its indices, seeds and
member names starred), the number of leaves that differ and the largest
relative move of a float, and every other difference.  Exit status: 0 when
every leaf is bitwise the same, 1 otherwise.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import importlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
MODULES = ("cli", "czd", "harness", "lacunary", "martingale", "multipliers", "orlicz",
           "spectral")
SEEDS = {"czd": (3107, 11), "decompose": (2026, 7), "growth": (7,), "verify": (10,),
         "samples": (10, 2026), "zygmund-bonami": (7, 10), "gen-zygmund-bonami": (7, 10),
         "sharpness": (7,), "cww": (7, 10)}
RUNS = ("czd", "decompose", "growth", "verify", "samples", "zygmund-bonami",
        "gen-zygmund-bonami", "sharpness", "cww", "readme")
SHOWN = 20  # differences printed in full before the rest are counted


def load_lacuna(src: Path) -> types.SimpleNamespace:
    """The ``lacuna`` modules imported from ``src`` and from nowhere else."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("lacuna")
    if Path(package.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"lacuna was imported from {package.__file__}, not {src}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"lacuna.{name}") for name in MODULES})


def perfbench() -> types.ModuleType:
    """``perfbench/workloads.py``, the benchmark's workload generators."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    return importlib.import_module("workloads")


def array_leaf(values: np.ndarray) -> dict:
    values = np.ascontiguousarray(values)
    return {"dtype": values.dtype.str,
            "bytes": base64.b64encode(values.tobytes()).decode("ascii")}


def leaf_array(leaf: dict) -> np.ndarray:
    return np.frombuffer(base64.b64decode(leaf["bytes"]), dtype=leaf["dtype"])


def flatten(prefix: str, value, out: dict) -> None:
    """Each scalar under ``value`` as ``out[path]``."""
    if isinstance(value, dict):
        for key, sub in value.items():
            flatten(f"{prefix}/{key}", sub, out)
    elif isinstance(value, (list, tuple)):
        for i, sub in enumerate(value):
            flatten(f"{prefix}/{i}", sub, out)
    else:
        out[prefix] = value


def text_leaves(prefix: str, text: str, out: dict) -> None:
    """A printed report: its text, and its values when it is JSON."""
    out[f"{prefix}/text"] = text
    try:
        flatten(f"{prefix}/json", json.loads(text), out)
    except ValueError:
        pass


def items_of(lac, name: str, seed: int, small: bool, workdir: str) -> list:
    kind = {"decompose": "solver"}.get(name, name)
    workload = perfbench().WORKLOADS[kind]
    if kind == "verify":  # with the one endpoint operator it leaves out, at its configuration
        workload = type("Verify", (workload,),
                        {"RUNS": workload.RUNS + (("endpoint", "identity"),)})
    return workload(small=small).setup(lac, seed, workdir)


def record_czd(lac, seed: int, small: bool, workdir: str, out: dict) -> None:
    for item in items_of(lac, "czd", seed, small, workdir):
        dec = item.run()
        key = f"czd/{seed}/{item.label}"
        flatten(f"{key}/report", dec.to_json_dict(), out)
        for part in ("cancellative", "lacunary"):
            samples = [getattr(atom, part).samples for atom in dec.atoms]
            out[f"{key}/{part}"] = array_leaf(np.concatenate(samples) if samples
                                              else np.zeros(0))


def cli_leaves(key: str, result: tuple, out: dict) -> None:
    """A command line's exit code and printed report."""
    code, text = result
    out[f"{key}/exit"] = code
    text_leaves(f"{key}/stdout", text, out)


def record_reports(lac, name: str, seed: int, small: bool, workdir: str, out: dict) -> None:
    items = items_of(lac, name, seed, small, workdir)
    for item in items:
        result = item.run()
        if name == "growth":
            text_leaves(f"{name}/{seed}/{item.label}", lac.harness.report_to_json(result), out)
        else:
            cli_leaves(f"{name}/{seed}/{item.label}", result, out)
    if name == "verify":
        for item in reversed(items):
            cli_leaves(f"{name}/{seed}/reverse/{item.label}", item.run(), out)


def command_lines(name: str, seed: int, small: bool) -> dict:
    """The command lines of a run that no workload makes, by label."""
    if name in ("zygmund-bonami", "gen-zygmund-bonami"):
        return {f"tau-{tau}": ["verify", name, "--tau", str(tau),
                               "--log2-n", "8" if small else "10", "--seed", str(seed)]
                for tau in (1, 2, 3)}
    if name == "cww":
        return {f"sigma-{sigma}": ["cww", "--sigma", str(sigma), "--log2-n",
                                   "8" if small else "10", "--ensemble", "6",
                                   "--seed", str(seed)]
                for sigma in (0, 1, 2)}
    return {"khintchine-4": ["sharpness", "--log2-n", "12" if small else "14",
                             "--n-max", "5" if small else "6", "--khintchine", "4",
                             "--seed", str(seed)]}


def record_samples(lac, seed: int, small: bool, out: dict) -> None:
    verify = perfbench().WORKLOADS["verify"](small=small)
    cfg = lac.harness.make_config({"log2_n": verify.log2_n, "tau": verify.tau,
                                   "ensemble": verify.ensemble, "seed": seed})
    for support in (None, "unit", "centered"):
        for spec in lac.harness.make_sample_specs(cfg, np.random.default_rng(seed), support):
            # the coarse grid first, as the experiments build them
            for log2_n in (cfg.log2_n, cfg.log2_n + 2):
                out[f"samples/{seed}/{support or 'full'}/{spec.label}/{log2_n}"] = \
                    array_leaf(spec.build(log2_n).samples)
    argv = ["decompose", "--seed", str(seed)] + (["--log2-n", "6"] if small else [])
    cli_leaves(f"samples/{seed}/decompose", perfbench()._call_cli(lac, argv), out)


def readme_commands() -> list:
    """The ``lacuna`` commands of README.md's shell examples, as argument lists."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
            if line.startswith("lacuna ")]


def record_readme(src: Path, workdir: str, out: dict) -> None:
    text = README.read_text(encoding="utf-8")
    Path(workdir, "run.cfg").write_text(re.findall(r"```ini\n(.*?)```", text, re.S)[0])
    quick_start = io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)  # the quick start writes f.bin
    try:
        with contextlib.redirect_stdout(quick_start):
            namespace: dict = {}
            for block in re.findall(r"```python\n(.*?)```", text, re.S):
                exec(compile(block, str(README), "exec"), namespace)
    finally:
        os.chdir(here)
    out["readme/python/stdout"] = quick_start.getvalue()
    env = {**os.environ, "PYTHONPATH": str(src)}
    main = "import sys; from lacuna.cli import main; sys.exit(main())"
    for i, argv in enumerate(readme_commands()):
        done = subprocess.run([sys.executable, "-c", main, *argv], cwd=workdir, env=env,
                              capture_output=True, text=True, timeout=600)
        key = f"readme/{i}"
        out[f"{key}/argv"] = " ".join(argv)
        out[f"{key}/exit"] = done.returncode
        out[f"{key}/stderr"] = done.stderr
        text_leaves(f"{key}/stdout", done.stdout, out)


def record(src: Path, small: bool = False, runs=RUNS) -> dict:
    """Every leaf of the contract's ``runs``, computed with the lacuna of ``src``."""
    lac = load_lacuna(src)
    out: dict = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in runs:
            if name == "readme":
                if not small:
                    record_readme(src, workdir, out)
                continue
            for seed in SEEDS[name]:
                if name == "czd":
                    record_czd(lac, seed, small, workdir, out)
                elif name == "samples":
                    record_samples(lac, seed, small, out)
                elif name in ("zygmund-bonami", "gen-zygmund-bonami", "sharpness", "cww"):
                    for label, argv in command_lines(name, seed, small).items():
                        cli_leaves(f"{name}/{seed}/{label}", perfbench()._call_cli(lac, argv),
                                   out)
                else:
                    record_reports(lac, name, seed, small, workdir, out)
    return out


def field(path: str) -> str:
    """The field a leaf belongs to: its path with numbers and member names starred."""
    return re.sub(r"(?<=/)(\d+|member-\d+)(?=/|$)", "*", path)


def float_move(a: float, b: float) -> float:
    """The relative move from ``b`` to ``a``: 0 when their bits agree, inf
    when only one is finite or they differ in sign of a zero or in nan."""
    if repr(a) == repr(b):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)) or a == b:
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def array_move(a: np.ndarray, b: np.ndarray) -> float:
    if a.tobytes() == b.tobytes() and a.dtype == b.dtype:
        return 0.0
    if a.shape != b.shape or not (np.isfinite(a).all() and np.isfinite(b).all()):
        return math.inf
    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    moved = diff > 0
    if not moved.any():  # only the sign of a zero differs
        return math.inf
    return float(np.max(diff[moved] / scale[moved]))


def compare(new: dict, old: dict) -> tuple:
    """``({field: (leaves differing, largest float move)}, [other differences])``
    between two records."""
    fields, others = {}, []
    for path in sorted(new.keys() | old.keys()):
        if path not in old or path not in new:
            others.append(f"{path}: only in the {'new' if path in new else 'old'} record")
            continue
        a, b = new[path], old[path]
        if isinstance(a, dict) and isinstance(b, dict):
            move = array_move(leaf_array(a), leaf_array(b))
        elif (isinstance(a, float) and isinstance(b, (int, float))
              and not isinstance(b, bool)) or (isinstance(b, float) and isinstance(a, int)
                                               and not isinstance(a, bool)):
            move = float_move(float(a), float(b))
        else:
            if a != b or type(a) is not type(b):
                others.append(f"{path}: {b!r} -> {a!r}"[:300])
            continue
        if move:
            count, largest = fields.get(field(path), (0, 0.0))
            fields[field(path)] = (count + 1, max(largest, move))
    return fields, others


def summary(new: dict, old: dict) -> tuple:
    """The lines ``diff`` prints, and whether every leaf agreed bitwise."""
    fields, others = compare(new, old)
    lines = [f"{len(new)} leaves against {len(old)}; "
             f"{sum(c for c, _ in fields.values())} floats or arrays moved in "
             f"{len(fields)} fields; {len(others)} other differences"]
    lines += [f"  {name}: {count} moved, largest relative move {largest:.3e}"
              for name, (count, largest) in sorted(fields.items())]
    lines += [f"  {line}" for line in others[:SHOWN]]
    if len(others) > SHOWN:
        lines.append(f"  ... and {len(others) - SHOWN} more")
    return lines, not fields and not others


def record_in_subprocess(src: Path, small: bool) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "contract.json"
        argv = [sys.executable, str(Path(__file__).resolve()), "record", "--src", str(src),
                "--out", str(path)] + (["--small"] if small else [])
        subprocess.run(argv, check=True, timeout=3600)
        return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="write the contract's leaves to a file")
    rec.add_argument("--out", type=Path, required=True)
    rec.add_argument("--src", type=Path, default=ROOT / "src")
    rec.add_argument("--small", action="store_true")
    diff = sub.add_parser("diff", help="compare this checkout with a record or a checkout")
    against = diff.add_mutually_exclusive_group(required=True)
    against.add_argument("--against", type=Path, help="another checkout's root")
    against.add_argument("--record", type=Path, help="a file written by record")
    diff.add_argument("--small", action="store_true")
    args = ap.parse_args(argv)

    if args.command == "record":
        leaves = record(args.src, args.small)
        args.out.write_text(json.dumps(leaves, sort_keys=True), encoding="utf-8")
        print(f"{len(leaves)} leaves written to {args.out}")
        return 0
    if args.against is not None:
        old = record_in_subprocess(args.against / "src", args.small)
    else:
        old = json.loads(args.record.read_text(encoding="utf-8"))
    # both sides as the file holds them, tuples as lists and numpy scalars as floats
    new = json.loads(json.dumps(record(ROOT / "src", args.small)))
    lines, same = summary(new, old)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
