"""Hypothesis fuzzing of the file-utility flags (``lacunary``, ``project``,
``sqfn``, ``orlicz``, ``czd``), of ``decompose`` with its config flags, and of
``verify``, ``cww`` and ``sharpness``.

Every generated command line must end in exit status 0, 1 or 2 without an
uncaught exception within a few seconds.  What a run prints on exit 0 or 1
must be strict JSON, with no ``Infinity`` or ``NaN`` token, and on exit 0
every float in it finite; a ``lacunary`` run's points must be as many as its
count and strictly increasing.  Flag values mix integers, floats (nan, inf,
1e+-400, negative), empty strings and junk; inputs are small stored signals,
some with huge or tiny finite samples or periods (a 1e160 bump whose czd atom
averages square past the float range), and paths that do not exist or are
not files.  ``decompose`` draws each flag from values that
parse and the same mixed values, and ``--config`` files (valid, out of range,
junk, not UTF-8, missing, a directory); a run that exits 0 must report a
feasible perturbation no worse than none (``ok``).  ``verify`` draws its
experiment, ``--tau``, ``--log2-n`` (up to 8), ``--ensemble`` (1-2),
``--seed``, ``--operator``, ``--exponent`` and refinement, now and then a value
to refuse or a flag the experiment does not take: a run prints a strict JSON
report (exit 0 when ok, 1 naming the failing rows), or exits 2 with one line
naming a flag it was given.  ``cww`` and ``sharpness`` draw ``--log2-n`` 6-8,
``--ensemble`` 1-2, ``--khintchine`` 0-4, periods and family parameters up to
and far past the feasible ones, one line in four with a value to refuse: a
run prints its strict JSON report or exits 2 naming a flag, and a
``sharpness`` report holds exactly the feasible parameters from ``n_min`` on,
noting the skipped ones.
"""

import json
import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lacuna import lacunary
from lacuna.cli import main
from lacuna.harness import ENDPOINT_OPERATORS, HORMANDER_OPERATORS
from lacuna.multipliers import max_feasible_parameter
from lacuna.spectral import Signal, write_signal

SPECIAL = ["", "nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "-1e-400", "0", "-0",
           "-1", "1", "2", "8", "0.5", "1e308", "-1e308", "5e-324", "1e-320", "64",
           "1e300", "2**3", "x"]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.integers().map(str),
                   st.integers(-70, 70).map(str), st.floats().map(repr))
# scales around 2^-400000: windows far wider than any float range
SCALES = st.one_of(VALUES, st.integers(-400_050, -399_950).map(str))


def _signals(root):
    x = np.linspace(-4.0, 4.0, 64)
    bump = np.exp(-x ** 2)
    spiky = np.zeros(64)
    spiky[8:24] = 1.2e154
    alternating = np.where(np.arange(64) % 2, -1.0, 1.0) * 1e308
    wide = np.linspace(-4.0, 4.0, 1024)
    files = {
        "plain": Signal(bump * np.cos(6 * x), 16.0, -8.0),
        "huge": Signal(spiky, 8.0, -4.0),
        "max": Signal(alternating, 16.0, -8.0),
        "bump": Signal(1e160 * np.exp(-50 * wide ** 2), 16.0, -8.0),
        "tiny": Signal(bump * 1e-300, 16.0, -8.0),
        "subnormal": Signal(np.full(16, 5e-324), 1.0, -0.5),
        "zero": Signal(np.zeros(32), 4.0, -2.0),
        "long-period": Signal(bump, 2.0**1000, -(2.0**999)),
        "short-period": Signal(bump, 2.0**-1000, -(2.0**-1001)),
    }
    paths = []
    for name, sig in files.items():
        write_signal(root / f"{name}.bin", sig)
        paths.append(str(root / f"{name}.bin"))
    return paths + [str(root / "missing.bin"), "", str(root)]


def _configs(root):
    texts = {
        "solver.cfg": "sigma = 1\nseed = 3\nlog2_n = 6\n",
        "range.cfg": "sigma = 9\nthreads = -1\n",
        "junk.cfg": "sigma\n= = =\nsigma = x\n",
        "binary.cfg": "\udcff\udcfe",
    }
    for name, text in texts.items():
        (root / name).write_bytes(text.encode("utf-8", "surrogateescape"))
    return [str(root / name) for name in texts] + [str(root / "missing.cfg"), str(root)]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return root, _signals(root), _configs(root)


def _reject(token):
    raise ValueError(f"non-strict JSON token {token}")


def _flag(draw, name):
    # one token, so that argparse reads a value like "-1" as the value
    return f"{name}={draw(SCALES if name == '--min-scale-log2' else VALUES)}"


def _flags(draw, names):
    return [_flag(draw, name) for name in names if draw(st.booleans())]


@st.composite
def command_lines(draw, inputs, outdir):
    command = draw(st.sampled_from(["lacunary", "project", "sqfn", "orlicz", "czd"]))
    argv = [command]
    if command != "lacunary":
        argv += ["--input", draw(st.sampled_from(inputs))]
    if command == "lacunary":
        argv += _flags(draw, ["--tau", "--min-scale-log2", "--max-abs"])
        if draw(st.booleans()):
            argv.append("--intervals")
    elif command == "project":
        argv += [_flag(draw, "--lo"), _flag(draw, "--hi")]
        argv += ["--mode", draw(st.sampled_from(["sharp", "smooth"]))]
    elif command == "sqfn":
        argv += _flags(draw, ["--tau", "--min-scale-log2", "--max-abs"])
        argv += ["--mode", draw(st.sampled_from(["sharp", "smooth"]))]
    elif command == "orlicz":
        argv += _flags(draw, ["--sigma", "--alpha"])
    else:
        argv.append(_flag(draw, "--alpha"))
        argv += _flags(draw, ["--sigma", "--min-margin", "--threads"])
    if command in ("project", "sqfn", "czd") and draw(st.booleans()):
        argv += ["--output", str(outdir / "out")]
    return argv


def run_main(argv):
    try:
        with np.errstate(all="ignore"):
            return main(argv)
    except SystemExit as exc:  # argparse rejects the flag
        return exc.code


@settings(max_examples=300, deadline=timedelta(seconds=5), derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_flags_end_in_a_status_and_strict_json(workdir, capsys, monkeypatch, data):
    # lower budgets keep every example fast; what is fuzzed is the exit
    # path, and a refusal takes the same path at any budget
    monkeypatch.setattr(lacunary, "MAX_LACUNARY_TERMS", 20_000)
    monkeypatch.setattr(lacunary, "MAX_LACUNARY_INTERVALS", 2_000)
    root, inputs, _ = workdir
    argv = data.draw(command_lines(inputs, root))
    code = run_main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in captured.err
    if code == 1 and captured.out:  # a non-finite value or an aliased band
        json.loads(captured.out, parse_constant=_reject)
    if code == 0:
        payload = json.loads(captured.out, parse_constant=_reject)
        assert all(math.isfinite(v) for v in payload.values() if isinstance(v, float))
        if argv[0] == "lacunary":
            # distinct points that round to one float would repeat
            listed = payload.get("points", payload.get("intervals"))
            assert payload["count"] == len(listed)
            if "points" in payload:
                assert all(a < b for a, b in zip(listed, listed[1:])), argv


# the files the solver accepts: finite samples with max|f| in [2^-400, 2^400]
SOLVABLE = ("plain", "zero", "long-period", "short-period")
DECOMPOSE_FLAGS = (
    ("--sigma", st.integers(0, 8)),
    ("--seed", st.integers(0, 2**64)),
    ("--threads", st.integers(0, 4)),
    ("--log2-n", st.integers(4, 10)),
    ("--period", st.sampled_from(["2", "16", "1.8446744073709552e19", "0.5", "3"])),
    ("--tau", st.integers(1, 6)),
)


@st.composite
def decompose_lines(draw, inputs, configs):
    solvable = [p for p in inputs if any(p.endswith(f"/{name}.bin") for name in SOLVABLE)]
    argv = ["decompose"]
    if draw(st.integers(0, 5)):
        argv += ["--input", draw(st.sampled_from(solvable) | st.sampled_from(inputs))]
    for name, good in DECOMPOSE_FLAGS:
        if draw(st.booleans()):
            argv.append(f"{name}={draw(good.map(str) | VALUES)}")
    if draw(st.integers(0, 3)) == 0:
        argv += ["--config", draw(st.sampled_from(configs))]
    return argv + draw(st.sampled_from([[], ["--refine"], ["--no-refine"]]))


@settings(max_examples=120, deadline=timedelta(seconds=5), derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_decompose_flags_end_in_a_status_and_strict_json(workdir, capsys, data):
    _, inputs, configs = workdir
    argv = data.draw(decompose_lines(inputs, configs))
    code = run_main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in captured.err
    if code == 0:
        payload = json.loads(captured.out, parse_constant=_reject)
        assert payload["ok"] is True, argv
        assert payload["objective"] <= payload["baseline"] + 1e-9, argv
        assert payload["certificate"]["constraint_residual"] <= 1e-8, argv


VERIFY_OPERATORS = {"endpoint": ENDPOINT_OPERATORS, "hormander": HORMANDER_OPERATORS,
                    "zygmund-bonami": (), "gen-zygmund-bonami": ()}
# (flag, values that run in a few tens of milliseconds, values to refuse); a
# refused value does not parse or is out of range, and --operator runs with
# the experiment's own operators
VERIFY_FLAGS = (
    ("--tau", st.integers(1, 6).map(str), VALUES),
    ("--log2-n", st.integers(4, 8).map(str),
     st.sampled_from(["", "x", "nan", "-1", "3", "23", "1e400", "2**3", str(2**70)])),
    ("--ensemble", st.integers(1, 2).map(str),
     st.sampled_from(["", "x", "0", "-1", "1.5", "10001", str(2**70)])),
    ("--seed", st.integers(0, 2**64).map(str), VALUES),
    ("--exponent", st.floats(0.0, 8.0).map(repr), VALUES),
    ("--operator", None, st.sampled_from(ENDPOINT_OPERATORS + HORMANDER_OPERATORS + ("", "x"))),
)
# unset, these two would run the default 2^12 grid with 12 signals
ALWAYS = ("--log2-n", "--ensemble")


def _one_in(draw, k):
    # the top of the range: Hypothesis leans towards the bottom one
    return draw(st.integers(1, k)) == k


@st.composite
def verify_lines(draw):
    experiment = draw(st.sampled_from(sorted(VERIFY_OPERATORS)))
    operators = VERIFY_OPERATORS[experiment]
    argv = ["verify", experiment]
    for name, good, bad in VERIFY_FLAGS:
        if name in ("--operator", "--exponent") and not operators:
            good = None  # zygmund-bonami and gen-zygmund-bonami take neither
        elif name == "--operator":
            good = st.sampled_from(operators)
        # a flag the experiment does not take is given one time in eight
        if name in ALWAYS or _one_in(draw, 2 if good is not None else 8):
            # and one value in eight is drawn to be refused, so most lines run
            refuse = good is None or _one_in(draw, 8)
            argv.append(f"{name}={draw(bad if refuse else good)}")
    return argv + draw(st.sampled_from([[], ["--refine"], ["--no-refine"]]))


def _report_or_named_field(argv, code, captured, experiment):
    """A run ends in a strict JSON report of its experiment (ok exactly when
    it exits 0), or exits 2 with one line naming a flag it was given."""
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in captured.err
    if code == 2:
        # argparse prints its usage first; the program's own refusal is one line
        lines = captured.err.splitlines()
        assert lines and (len(lines) == 1 or "error: argument" in lines[-1]), (argv, lines)
        fields = {arg.split("=")[0][2:] for arg in argv if arg.startswith("--")}
        fields |= {field.replace("-", "_") for field in fields}
        assert any(field in lines[-1] for field in fields), (argv, lines)
        return None
    payload = json.loads(captured.out, parse_constant=_reject)
    assert payload["ok"] is (code == 0), argv
    assert payload["experiment"] == experiment
    return payload


@settings(max_examples=150, deadline=timedelta(seconds=5), derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=verify_lines())
def test_verify_flags_end_in_a_report_or_a_named_field(capsys, argv):
    code = run_main(argv)
    payload = _report_or_named_field(argv, code, capsys.readouterr(), argv[1])
    if payload is not None:
        # exit 1 is a report whose gate failed, and it names the failing rows
        assert bool(payload["notes"]) is (code == 1), argv


# family parameters past every feasible one (at most 3 on these grids)
PAST_FEASIBLE = st.sampled_from(["8", "64", "1000000000000", str(2**70)])
# (flag, values that run in a few tens of milliseconds, values to refuse)
EXPERIMENT_FLAGS = {
    "cww": (
        ("--log2-n", st.integers(6, 8).map(str), st.sampled_from(["", "x", "3", "23"])),
        ("--ensemble", st.integers(1, 2).map(str),
         st.sampled_from(["", "x", "0", "-1", "1.5", "10001", str(2**70)])),
        ("--sigma", st.integers(0, 8).map(str), VALUES),
        ("--seed", st.integers(0, 2**64).map(str), VALUES),
    ),
    # largest first: at 2^8 and period 2 the feasible parameters are 2 and 3
    "sharpness": (
        ("--log2-n", st.sampled_from(["8", "7", "6"]), st.sampled_from(["", "x", "3", "23"])),
        ("--period", st.sampled_from(["2", "4", "16"]), VALUES),
        ("--n-min", st.sampled_from(["2", "3", "8"]), VALUES),
        ("--n-max", st.sampled_from(["3", "2", "5"]) | PAST_FEASIBLE, VALUES),
        ("--khintchine", st.integers(0, 4).map(str),
         st.sampled_from(["", "x", "-1", "1.5", "10001", str(2**70)])),
        ("--n-levels", st.integers(2, 40).map(str), VALUES),
        ("--seed", st.integers(0, 2**64).map(str), VALUES),
    ),
}
# unset, these would run the default 2^12 grid, 12 members or 256 draws, or
# leave no feasible family parameter (period 16, n_min 4)
EXPERIMENT_ALWAYS = ("--log2-n", "--ensemble", "--khintchine", "--period", "--n-min",
                     "--n-max")


@st.composite
def experiment_lines(draw):
    experiment = draw(st.sampled_from(sorted(EXPERIMENT_FLAGS)))
    flags = [(name, good, bad) for name, good, bad in EXPERIMENT_FLAGS[experiment]
             if name in EXPERIMENT_ALWAYS or draw(st.booleans())]
    # one line in four gives one flag a value to refuse, so most lines run
    refused = draw(st.sampled_from(range(len(flags)))) if _one_in(draw, 4) else None
    return [experiment] + [f"{name}={draw(bad if i == refused else good)}"
                           for i, (name, good, bad) in enumerate(flags)]


@settings(max_examples=100, deadline=timedelta(seconds=5), derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=experiment_lines())
def test_cww_and_sharpness_flags_end_in_a_report_or_a_named_field(capsys, argv):
    code = run_main(argv)
    payload = _report_or_named_field(argv, code, capsys.readouterr(), argv[0])
    if payload is not None and argv[0] == "sharpness":
        # the parameters past the feasible one are skipped, and the note says so
        cfg = payload["config"]
        feasible = max_feasible_parameter(cfg["log2_n"], cfg["period"])
        assert [row["n"] for row in payload["rows"]] == list(
            range(cfg["n_min"], min(cfg["n_max"], feasible) + 1)), argv
        skipped = f"parameters above {feasible} skipped (band overflow)"
        assert (skipped in payload["notes"]) is (cfg["n_max"] > feasible), argv
