"""End-to-end tests of the command line: every subcommand through
``main(argv)``, exit codes, file round trips, and config layering."""

import json
import math
import resource
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lacuna import lacunary
from lacuna.cli import main
from lacuna.dyadic import DyadicScalar
from lacuna.lacunary import lambda_tau
from lacuna.orlicz import luxemburg_avg
from lacuna.spectral import Signal, read_signal, write_signal


@pytest.fixture()
def stored_signal(tmp_path):
    n = 1 << 11
    x = -8.0 + (16.0 / n) * np.arange(n)
    vals = np.exp(-(x ** 2)) * np.cos(2 * np.pi * 3 * x) + 0.6 * (np.abs(x) < 0.25)
    path = tmp_path / "f.bin"
    write_signal(path, Signal(vals, 16.0, -8.0))
    return path


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestLacunary:
    def test_points(self, capsys):
        code, got = run_json(capsys, ["lacunary", "--tau", "1",
                                      "--min-scale-log2", "0", "--max-abs", "8"])
        assert code == 0
        assert got["points"] == [-8.0, -4.0, -2.0, -1.0, 1.0, 2.0, 4.0, 8.0]
        assert got["count"] == 8

    def test_intervals(self, capsys):
        # the exact line format: order, then the mantissa/exponent pairs of
        # left, right and anchor, one line per lambda_tau interval in order
        for tau in (1, 2, 3):
            code, got = run_json(capsys, ["lacunary", "--tau", str(tau), "--intervals",
                                          "--min-scale-log2", "-3", "--max-abs", "8"])
            fam = lambda_tau(tau, DyadicScalar.pow2(-3), DyadicScalar(8, 0))
            want = [
                f"{L.order} {L.left.mantissa} {L.left.exponent} "
                f"{L.right.mantissa} {L.right.exponent} "
                f"{L.anchor.mantissa} {L.anchor.exponent}"
                for L in fam
            ]
            assert code == 0 and got["count"] == len(fam) > 0
            assert got["intervals"] == want

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "pts.json"
        code = main(["lacunary", "--tau", "2", "--max-abs", "4", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["tau"] == 2

    def test_enumeration_over_budget_is_a_usage_error(self):
        # lattice 2^40 at tau 8: the fourth step's digit choices are counted
        # before they are placed; run capped, so that a step allocated before
        # its count is checked would fail on memory or time instead
        done = run_capped(["lacunary", "--tau", "8", "--min-scale-log2", "-20",
                           "--max-abs", str(2.0**20)])
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == ("lacuna: tau 8 would place 1118880 digit choices at one step, "
                               f"above the budget of {lacunary.MAX_LACUNARY_TERMS}\n")

    def test_interval_system_over_budget_is_a_usage_error(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the interval system was built")

        monkeypatch.setattr(lacunary, "_whitney_levels", refuse)
        code = main(["lacunary", "--intervals", "--tau", "6", "--min-scale-log2", "-16"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "would build 792064 intervals" in captured.err
        assert str(lacunary.MAX_LACUNARY_INTERVALS) in captured.err

    @pytest.mark.parametrize("argv, code, err", [
        (["--intervals", "--tau", "1", "--min-scale-log2", "-1000000000"], 2,
         "would build 2000000012 intervals"),
        (["--intervals", "--tau", "2", "--min-scale-log2", "-100000"], 2,
         "would build 20001800040 intervals"),
        (["--intervals", "--tau", "2000"], 2, "tau must lie in [1, 20]"),
        (["--intervals", "--tau", "20", f"--min-scale-log2=-{10**300}"], 2,
         "tau 20 would build more than 10^12 intervals, above the budget of 300000"),
        (["--tau", "20", f"--min-scale-log2=-{10**300}"], 2,
         "max_abs / min_scale must lie below 2^2100"),
        (["--tau", "1", "--min-scale-log2", "-400000", "--max-abs", "1"], 2,
         "max_abs / min_scale must lie below 2^2100"),
        (["--tau", "2", "--min-scale-log2", "-1000", "--max-abs", "1e300"], 2,
         "tau 2 would place 7972024 digit choices at one step, above the budget of 1000000"),
    ], ids=["tau1-scale-2^-1e9", "tau2-scale-2^-1e5", "tau2000", "intervals-tau20-scale-2^-1e300",
            "points-tau20-scale-2^-1e300", "points-tau1-scale-2^-4e5", "points-tau2-span-2000"])
    def test_huge_systems_are_refused_at_once(self, argv, code, err):
        # sized by a closed form or counted a step ahead: no per-scale table
        # (MemoryError), no quadratic recurrence (no answer in 30 s), no
        # recursion per order (RecursionError), no 400,000-bit window that
        # passes a signed-sum budget and runs past 20 s, and no count of
        # 10^6000 printed past str()'s digit limit; run capped so that a
        # regression cannot take the machine's memory with it
        start = time.perf_counter()
        done = run_capped(["lacunary", *argv])
        assert time.perf_counter() - start < 10.0
        assert done.returncode == code and done.stdout == ""
        assert err in done.stderr and "Traceback" not in done.stderr
        assert len(done.stderr) < 200

    @pytest.mark.parametrize("flags", [["--tau", "21"], ["--tau", "100000"], ["--tau", "-1"],
                                       ["--intervals", "--tau", "0"]])
    def test_tau_outside_its_range_is_a_usage_error(self, capsys, flags):
        low = 1 if "--intervals" in flags else 0
        code = main(["lacunary", *flags])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"lacuna: tau must lie in [{low}, 20]\n"

    def test_scale_past_the_index_range_is_refused(self):
        # 2^-(8.4e25): the exponent range has no len(), which used to raise
        # OverflowError before the budget was checked; the lattice's bound
        # is refused before it is built
        done = run_capped(["lacunary", "--min-scale-log2=-83715809102568938782326784"])
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == "lacuna: max_abs / min_scale must lie below 2^2100\n"

    def test_a_2000_bit_window_of_order_one(self, capsys):
        # +-2^k for k = -1000 .. 1000: each point's lattice integer has 2000
        # trailing zeros, which canonical form strips in one shift
        start = time.perf_counter()
        code, got = run_json(capsys, ["lacunary", "--tau", "1", "--min-scale-log2", "-1000",
                                      "--max-abs", repr(2.0**1000)])
        assert time.perf_counter() - start < 5.0
        assert code == 0 and got["count"] == 4002
        positive = [2.0**k for k in range(-1000, 1001)]
        assert got["points"] == [-x for x in reversed(positive)] + positive

    @pytest.mark.parametrize("argv, err", [
        (["--tau", "1", "--min-scale-log2", "-1076", "--max-abs", "1e-320"],
         "points finer than 2^-1074 are not floats: raise --min-scale-log2 to -1074 or more"),
        (["--tau", "2", "--min-scale-log2", "-60", "--max-abs", "1"],
         "points of more than 53 significant bits are not floats: lower --max-abs to at "
         "most 2^53 times the smallest scale"),
    ], ids=["below-2^-1074", "mantissa-past-53-bits"])
    def test_points_that_are_not_floats_are_a_usage_error(self, capsys, argv, err):
        # printed as floats they used to collapse: 26 points with -0.0, -0.0,
        # 0.0, 0.0 among them, and 1 - 2^-60 printed as 1.0 next to 1.0
        code = main(["lacunary", *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"lacuna: {err}\n"

    def test_points_at_the_float_limits_are_printed_exactly(self, capsys):
        # the smallest subnormal and 53-bit mantissas are floats
        code, got = run_json(capsys, ["lacunary", "--tau", "1", "--min-scale-log2", "-1074",
                                      "--max-abs", repr(4 * 5e-324)])
        assert code == 0 and got["points"] == [-4 * 5e-324, -2 * 5e-324, -5e-324,
                                               5e-324, 2 * 5e-324, 4 * 5e-324]
        code, got = run_json(capsys, ["lacunary", "--tau", "2", "--min-scale-log2", "-52",
                                      "--max-abs", "1"])
        assert code == 0 and got["count"] == len(set(got["points"])) > 0
        assert 1.0 - 2.0**-52 in got["points"]


def run_capped(argv, seconds=20, address_space=3 << 29):
    """Run ``python -m lacuna.cli`` under a wall-clock limit and an
    address-space cap (1.5 GB)."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "lacuna.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=seconds, preexec_fn=cap)


class TestProject:
    def test_sharp_round_trip(self, stored_signal, tmp_path, capsys):
        out_bin = tmp_path / "g.bin"
        code, got = run_json(capsys, ["project", "--input", str(stored_signal),
                                      "--lo", "2", "--hi", "4",
                                      "--output", str(out_bin)])
        assert code == 0
        assert got["alias_events"] == []
        assert 0.0 < got["l2_out"] <= got["l2_in"]
        piece = read_signal(out_bin)
        assert piece.n == 2048 and piece.period == 16.0

    def test_band_beyond_lattice_fails(self, stored_signal, capsys):
        code = main(["project", "--input", str(stored_signal),
                     "--lo", "2", "--hi", "4096"])
        assert code == 1
        got = json.loads(capsys.readouterr().out)
        assert got["alias_events"]

    def test_missing_input_is_a_usage_error(self, tmp_path, capsys):
        code = main(["project", "--input", str(tmp_path / "nope.bin"),
                     "--lo", "1", "--hi", "2"])
        assert code == 2
        assert "lacuna:" in capsys.readouterr().err

    def test_band_edge_far_past_a_tiny_period(self, tmp_path, capsys):
        # the smooth window's length 1e308 - 1.09e-5 is exact with a mantissa
        # past the float range, whose float conversion used to raise
        path = tmp_path / "short.bin"
        x = np.linspace(-4.0, 4.0, 64)
        write_signal(path, Signal(np.exp(-x ** 2), 2.0**-1000, -(2.0**-1001)))
        code, got = run_json(capsys, ["project", "--input", str(path), "--mode", "smooth",
                                      "--lo", "1.0862168472479359e-05", "--hi", "1e308"])
        assert code == 1
        assert "exceeds lattice" in got["alias_events"][0]

    def test_non_finite_summary_fails(self, tmp_path, capsys):
        # finite samples whose squares sum past the float range: the norm is
        # not, and is the exact one
        vals = np.zeros(64)
        vals[8:24] = 1.2e154
        path = tmp_path / "huge.bin"
        write_signal(path, Signal(vals, 8.0, -4.0))
        code, got = run_json(capsys, ["project", "--input", str(path),
                                      "--lo", "0.25", "--hi", "0.5"])
        assert code == 0
        exact = math.sqrt(8.0 / 64) * math.hypot(*vals)
        assert got["l2_in"] == pytest.approx(exact, rel=1e-15)
        assert 0 < got["l2_out"] < got["l2_in"]
        # a norm whose exact value lies past the float range still fails:
        # 16 samples of 1e200 on a window of 2^1020 have l2 2^510 * 5e199
        vals[8:24] = 1e200
        write_signal(path, Signal(vals, 2.0**1020, -(2.0**1019)))
        code = main(["project", "--input", str(path), "--lo", repr(2.0**-1018),
                     "--hi", repr(2.0**-1017)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "project: summary not finite: l2_in, l2_out\n"


class TestSqfn:
    def test_summary_and_output(self, stored_signal, tmp_path, capsys):
        out_bin = tmp_path / "s.bin"
        code, got = run_json(capsys, ["sqfn", "--input", str(stored_signal),
                                      "--tau", "2", "--max-abs", "32",
                                      "--output", str(out_bin)])
        assert code == 0
        assert got["sup"] > 0 and got["l2"] > 0 and got["weak_l1"] > 0
        agg = read_signal(out_bin)
        assert np.all(np.abs(agg.samples.imag) == 0.0)

    @pytest.mark.parametrize("mode", ["sharp", "smooth"])
    def test_windows_past_int64_are_flagged_exactly(self, tmp_path, capsys, mode):
        # up to 1e300 at scale 2^-6 the window ends span about 1,000 bits: the
        # resolution runs on Python integers, and each event names the exact
        # lattice bounds, as the per-window reference resolves them
        from test_lacunary import sorted_lambda_tau
        from test_spectral import eta_window, reference_resolve, sharp_window

        path = tmp_path / "f.bin"
        sig = Signal(np.cos(np.arange(256)), 16.0, -8.0)
        write_signal(path, sig)
        code, got = run_json(capsys, ["sqfn", "--input", str(path), "--tau", "1",
                                      "--max-abs", "1e300", "--mode", mode])
        window = sharp_window if mode == "sharp" else eta_window
        family = sorted_lambda_tau(1, DyadicScalar.pow2(-6), DyadicScalar.from_float(1e300))
        want = reference_resolve([window(L) for L in family], "square_function", sig)[3]
        assert code == 1 and got["alias_events"] == list(want)
        assert max(len(event) for event in want) > 600

    def test_smooth_mode(self, stored_signal, capsys):
        code, got = run_json(capsys, ["sqfn", "--input", str(stored_signal),
                                      "--mode", "smooth", "--max-abs", "16",
                                      "--min-scale-log2", "-3"])
        assert code == 0 and got["mode"] == "smooth"


    @pytest.mark.parametrize("period, max_abs", [(2.0**-1000, []), (16.0, ["--max-abs", "1e300"])],
                             ids=["tiny-period", "huge-max-abs"])
    def test_interval_system_over_budget_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                          period, max_abs):
        # a file's period of 2^-1000 puts the default band edge at 2^1005:
        # the order-2 family would hold 2,038,180 intervals
        def refuse(*args):
            raise AssertionError("the interval system was built")

        monkeypatch.setattr(lacunary, "_whitney_levels", refuse)
        path = tmp_path / "tiny.bin"
        write_signal(path, Signal(np.ones(64), period, -period / 2))
        code = main(["sqfn", "--input", str(path)] + max_abs)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "intervals, above the budget" in captured.err

    def test_huge_samples_give_a_finite_aggregate(self, tmp_path, capsys):
        # 16 samples of 1.2e154: the square function used to overflow and
        # reject its own aggregate as "samples must be finite" (exit 2); now
        # only a summary field whose value passes the float range is named
        vals = np.zeros(64)
        vals[8:24] = 1.2e154
        path = tmp_path / "huge.bin"
        write_signal(path, Signal(vals, 8.0, -4.0))
        for mode in ("sharp", "smooth"):
            with np.errstate(over="ignore"):
                code = main(["sqfn", "--input", str(path), "--mode", mode,
                             "--output", str(tmp_path / "agg.bin")])
            captured = capsys.readouterr()
            got = json.loads(captured.out)
            overflowed = sorted(key for key, val in got.items()
                                if isinstance(val, float) and not np.isfinite(val))
            assert code == (1 if overflowed else 0)
            assert captured.err == (f"sqfn: summary not finite: {', '.join(overflowed)}\n"
                                    if overflowed else "")
            assert np.isfinite(got["sup"]) and got["sup"] > 1e153
            assert np.all(np.isfinite(read_signal(tmp_path / "agg.bin").samples))

    @pytest.mark.parametrize("tau", ["0", "21", "100000"])
    def test_tau_outside_its_range_is_a_usage_error(self, stored_signal, capsys, tau):
        code = main(["sqfn", "--input", str(stored_signal), f"--tau={tau}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "lacuna: tau must lie in [1, 20]\n"

    def test_non_finite_summary_fails(self, tmp_path, capsys):
        # a period of 2^1000 puts the weak-L1 norm of a 3e9 aggregate past
        # the float range; this used to print Infinity and exit 0 (its l2,
        # 2^500 times the aggregate's RMS, is finite and not named)
        x = np.linspace(-4.0, 4.0, 64)
        path = tmp_path / "long.bin"
        write_signal(path, Signal(1e10 * np.exp(-x ** 2), 2.0**1000, -(2.0**999)))
        with np.errstate(over="ignore"):
            code = main(["sqfn", "--input", str(path), "--tau", "1",
                         "--min-scale-log2", "-1000"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "sqfn: summary not finite: weak_l1\n"


class TestOrlicz:
    def test_constant_signal_values(self, tmp_path, capsys):
        path = tmp_path / "c.bin"
        write_signal(path, Signal(np.full(64, 2.0), 16.0, -8.0))
        code, got = run_json(capsys, ["orlicz", "--input", str(path),
                                      "--sigma", "0", "--alpha", "1.0"])
        assert code == 0
        # sigma = 0 is the plain average and the Young mass is the integral
        assert got["luxemburg_avg"] == pytest.approx(2.0, abs=1e-12)
        assert got["young_mass"] == pytest.approx(32.0, rel=1e-12)

    def test_exp_norm_reported_for_positive_sigma(self, stored_signal, capsys):
        code, got = run_json(capsys, ["orlicz", "--input", str(stored_signal),
                                      "--sigma", "1"])
        assert code == 0 and got["exp_norm_dual"] > 0

    @pytest.mark.parametrize("sigma", ["nan", "inf", "1e308", "-1", "8.5"])
    def test_sigma_outside_its_range_is_a_usage_error(self, tmp_path, capsys, sigma):
        path = tmp_path / "c.bin"
        write_signal(path, Signal(np.full(64, 1.5), 16.0, -8.0))
        code = main(["orlicz", "--input", str(path), f"--sigma={sigma}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "lacuna: sigma must lie in [0, 8]" in captured.err

    @pytest.mark.parametrize("alpha", ["0", "-1", "nan"])
    def test_bad_alpha_is_a_usage_error(self, tmp_path, capsys, alpha):
        path = tmp_path / "c.bin"
        write_signal(path, Signal(np.full(64, 1.5), 16.0, -8.0))
        code = main(["orlicz", "--input", str(path), "--sigma", "1", f"--alpha={alpha}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "lacuna: alpha must be finite and positive" in captured.err

    @pytest.mark.parametrize("sigma", [0.3, 1.2])
    def test_young_mass_takes_the_luxemburg_exponent(self, tmp_path, capsys, sigma):
        # the mass uses B_sigma, as the average does, not B_{round(2 sigma)/2}
        ramp = np.linspace(0.0, 3.0, 64)
        path = tmp_path / "ramp.bin"
        write_signal(path, Signal(ramp, 2.0, -1.0))
        code, got = run_json(capsys, ["orlicz", "--input", str(path),
                                      f"--sigma={sigma}", "--alpha", "0.5"])
        assert code == 0
        t = ramp / 0.5
        want = 2.0 / 64 * np.sum(t * np.log(np.e + t) ** sigma)
        assert got["young_mass"] == pytest.approx(want, rel=1e-13)
        assert got["luxemburg_avg"] == pytest.approx(
            luxemburg_avg(ramp, sigma), rel=1e-15)

    def test_non_finite_result_fails(self, tmp_path, capsys):
        # |f|/alpha overflows: the Young mass is past the float range
        path = tmp_path / "c.bin"
        write_signal(path, Signal(np.exp(-np.linspace(-4.0, 4.0, 64) ** 2), 16.0, -8.0))
        with np.errstate(over="ignore"):
            code = main(["orlicz", "--input", str(path), "--alpha", "1e-320"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "orlicz: result not finite: young_mass\n"
        # strict JSON on exit 1 too: the infinite mass prints as null
        assert json.loads(captured.out, parse_constant=pytest.fail)["young_mass"] is None


class TestCzd:
    def test_decomposition_json_and_files(self, stored_signal, tmp_path, capsys):
        prefix = tmp_path / "dec"
        code = main(["czd", "--input", str(stored_signal), "--sigma", "1", "--alpha", "0.5",
                     "--output", str(prefix)])
        out = capsys.readouterr().out
        got = json.loads(out)
        assert code == 0
        assert got["constants"]["reconstruction_error"] < 1e-10
        assert got["constants"]["sandwich_ok"] is True
        # the saved report is the printed one, byte for byte
        assert (tmp_path / "dec.json").read_text(encoding="ascii") == out
        assert (tmp_path / "dec_good.bin").exists()

    def test_min_margin_guard(self, tmp_path, capsys):
        # 16 nonzero samples of 256: the window is 16 times the support
        vals = np.zeros(256)
        vals[120:136] = 1.0
        path = tmp_path / "pulse.bin"
        write_signal(path, Signal(vals, 8.0, -4.0))
        argv = ["czd", "--input", str(path), "--sigma", "0", "--alpha", "2"]
        code, got = run_json(capsys, argv + ["--min-margin", "16"])
        assert code == 0
        assert got == run_json(capsys, argv)[1]
        code = main(argv + ["--min-margin", "16.5"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "czd: support margin below the requested minimum\n"

    @pytest.mark.parametrize("margin", ["nan", "inf", "-inf"])
    def test_non_finite_min_margin_is_refused_by_name(self, stored_signal, capsys, margin):
        # `support_margin < nan` is never true: a NaN margin once ran unguarded
        code = main(["czd", "--input", str(stored_signal), "--sigma", "1", "--alpha", "2",
                     f"--min-margin={margin}"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"czd: min_margin must be finite, got {float(margin)!r}\n"

    @pytest.mark.parametrize("alpha", ["0.6", "10"])
    def test_period_not_a_power_of_two_fails_on_entry(self, tmp_path, capsys, alpha):
        # at alpha 0.6 the first half is a stopping interval, at 10 none is;
        # either way the period is refused before any atom is built
        path = tmp_path / "three.bin"
        write_signal(path, Signal(np.r_[np.ones(8), np.zeros(8)], 3.0, -1.5))
        code = main(["czd", "--input", str(path), "--sigma", "0", "--alpha", alpha])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "czd: period must be a power of two, got 3.0\n"

    @pytest.mark.parametrize("sigma", ["-1", "9", "100000"])
    def test_sigma_outside_its_range_is_a_usage_error(self, stored_signal, capsys, sigma):
        code = main(["czd", "--input", str(stored_signal), f"--sigma={sigma}",
                     "--alpha", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "lacuna: sigma must lie in [0, 8]\n"

    def test_sigma_8_decomposes_without_a_budget(self, tmp_path, capsys):
        # 0.7 on the first 4096 of 2^14 samples: at sigma 8 (B(0.7) = 1.6) the
        # first quarter is the one stopping interval, and its 2^11 bins once
        # held 24,379,392 signed sums of orders 1..8; every one of the 4095
        # bins below its Nyquist is a lacunary frequency of order at most 8
        vals = np.zeros(1 << 14)
        vals[: 1 << 12] = 0.7
        path = tmp_path / "quarter.bin"
        write_signal(path, Signal(vals, 16.0, -8.0))
        start = time.perf_counter()
        code, got = run_json(capsys, ["czd", "--input", str(path), "--sigma", "8",
                                      "--alpha", "1"])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert [atom["n_frequencies"] for atom in got["atoms"]] == [4095]

    def test_subnormal_input_leaves_no_division_by_zero(self, tmp_path, capsys):
        # alpha^2 times a Young mass of 1e-323 underflows to zero; dividing
        # by it used to raise ZeroDivisionError
        path = tmp_path / "subnormal.bin"
        write_signal(path, Signal(np.full(16, 5e-324), 1.0, -0.5))
        code, got = run_json(capsys, ["czd", "--input", str(path), "--sigma", "8",
                                      "--alpha", "0.5"])
        assert code == 0
        assert got["constants"]["orlicz_mass"] > 0
        assert got["constants"]["lacunary_vs_mass"] == 0.0

    def test_alpha_below_root_average_fails_cleanly(self, stored_signal, capsys):
        code = main(["czd", "--input", str(stored_signal),
                     "--sigma", "0", "--alpha", "1e-6"])
        assert code == 1
        assert "czd:" in capsys.readouterr().err

    def test_non_finite_sample_is_rejected(self, tmp_path, capsys):
        vals = np.exp(-np.linspace(-4.0, 4.0, 64) ** 2)
        path = tmp_path / "nan.bin"
        write_signal(path, Signal(vals, 16.0, -8.0))
        data = bytearray(path.read_bytes())
        data[16 + 16 * 30 : 16 + 16 * 30 + 8] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(data))
        code = main(["czd", "--input", str(path), "--sigma", "1", "--alpha", "0.5"])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_non_finite_certificate_fails(self, tmp_path, capsys):
        # finite samples whose squares sum past the float range
        vals = np.zeros(64)
        vals[8:24] = 1.2e154
        path = tmp_path / "huge.bin"
        write_signal(path, Signal(vals, 8.0, -4.0))
        with np.errstate(over="ignore"):
            code = main(["czd", "--input", str(path), "--sigma", "0", "--alpha", "3e153"])
        captured = capsys.readouterr()
        assert code == 1
        assert "not finite: lacunary_l2_sq" in captured.err
        got = json.loads(captured.out, parse_constant=pytest.fail)
        assert got["constants"]["lacunary_l2_sq"] is None

    def test_alpha_whose_square_overflows_fails_cleanly(self, tmp_path, capsys):
        vals = np.zeros(64)
        vals[10:14] = 1e200
        path = tmp_path / "huge.bin"
        write_signal(path, Signal(vals, 1.0, -0.5))
        with np.errstate(over="ignore"):
            code = main(["czd", "--input", str(path), "--sigma", "0", "--alpha", "5e199"])
        captured = capsys.readouterr()
        assert code == 1
        assert "czd: certificate not finite: lacunary_l2_sq, lacunary_vs_mass" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("sigma", ["0", "2"])
    def test_atom_average_whose_square_overflows_fails_cleanly(self, tmp_path, capsys, sigma):
        # finite samples whose atom averages pass 1.3e154, where a float's
        # ** 2 raises OverflowError; their weighted sum of squares is inf
        x = np.linspace(-4.0, 4.0, 1024)
        path = tmp_path / "bump.bin"
        write_signal(path, Signal(1e160 * np.exp(-50 * x ** 2), 16.0, -8.0))
        # in a process of its own, so that stderr holds numpy's warnings too:
        # the verdict is its one line
        done = run_capped(["czd", "--input", str(path), "--sigma", sigma, "--alpha", "2.5e159"])
        assert done.returncode == 1
        assert done.stderr == ("czd: certificate not finite: atom_weighted_sq, "
                               "lacunary_l2_sq, lacunary_vs_atoms, lacunary_vs_mass\n")
        got = json.loads(done.stdout, parse_constant=pytest.fail)["constants"]
        assert got["atom_weighted_sq"] is None and got["n_atoms"] == 2

    @pytest.mark.parametrize("cut", ["half", "trailing", "header", "big_j", "inf_period"])
    def test_malformed_input_is_a_usage_error(self, stored_signal, tmp_path, capsys, cut):
        data = stored_signal.read_bytes()
        if cut == "half":
            data = data[: 16 + (len(data) - 16) // 2]
        elif cut == "trailing":
            data = data + b"\x00" * 8
        elif cut == "header":
            data = data[:10]
        elif cut == "big_j":
            data = data[:4] + struct.pack("<I", 40) + data[8:]
        else:
            data = data[:8] + struct.pack("<d", float("inf")) + data[16:]
        path = tmp_path / "bad.bin"
        path.write_bytes(data)
        code = main(["czd", "--input", str(path), "--sigma", "1", "--alpha", "0.5"])
        assert code == 2
        assert "lacuna:" in capsys.readouterr().err


    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_corrupted_file_exits_2(self, stored_signal, tmp_path, capsys, data):
        # cut or extend the file, or overwrite part of its header with
        # random bytes; whatever read_signal rejects exits 2 through main
        raw = stored_signal.read_bytes()
        start = data.draw(st.integers(0, 15))
        patch = data.draw(st.binary(min_size=1, max_size=16 - start))
        raw = raw[:start] + patch + raw[start + len(patch):]
        raw = data.draw(st.sampled_from([
            raw, raw[: data.draw(st.integers(0, len(raw) - 1))],
            raw + data.draw(st.binary(min_size=1, max_size=24))]))
        path = tmp_path / "fuzz.bin"
        path.write_bytes(raw)
        try:
            read_signal(path)
            want = 0
        except ValueError:
            want = 2
        code = main(["orlicz", "--input", str(path), "--sigma", "1"])
        assert code == want
        assert "Traceback" not in capsys.readouterr().err


class TestExperimentCommands:
    def test_cww(self, capsys):
        code, got = run_json(capsys, ["cww", "--log2-n", "8", "--ensemble", "2"])
        assert code == 0 and got["ok"]

    def test_decompose_with_input(self, stored_signal, capsys):
        code, got = run_json(capsys, ["decompose", "--input", str(stored_signal),
                                      "--sigma", "1"])
        assert code == 0 and got["ok"]

    def test_decompose_refuses_a_complex_input(self, tmp_path, capsys):
        # it used to solve the real part and exit 0 with "ok": true
        x = -8.0 + (16.0 / 256) * np.arange(256)
        path = tmp_path / "wave.bin"
        write_signal(path, Signal(np.exp(2j * np.pi * 3 * x) * (np.abs(x) < 1.0), 16.0, -8.0))
        code = main(["decompose", "--input", str(path), "--sigma", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert str(path) in captured.err and "nonzero imaginary part" in captured.err

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
    def test_decompose_rejects_out_of_range_magnitudes(self, scale, tmp_path, capsys):
        # 1e-300 used to exit 0 with a zero objective after no iterations
        path = tmp_path / "scaled.bin"
        write_signal(path, Signal(scale * np.linspace(-1.0, 1.0, 64) ** 3, 16.0, -8.0))
        code = main(["decompose", "--input", str(path), "--sigma", "1"])
        assert code == 2
        assert "outside [2^-400, 2^400]" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field", [
        ("--seed=-1", "seed"), ("--threads=-2", "threads"),
        ("--period=nan", "period"), ("--period=inf", "period"), ("--period=-inf", "period"),
    ])
    @pytest.mark.parametrize("command", [["decompose"], ["cww"]])
    def test_bad_config_values_name_their_field(self, command, flag, field,
                                                stored_signal, capsys):
        # found by fuzzing decompose: a negative seed reached numpy, whose
        # message names no field, and a non-finite period failed in the dyadic
        # conversion with "not a finite value"
        extra = ["--input", str(stored_signal)] if command == ["decompose"] else []
        code = main(command + extra + ["--log2-n", "6", flag])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"lacuna: {field} must"), err

    @pytest.mark.parametrize("line, argv", [
        ("period = 8.98846567431158e307", ["verify", "endpoint"]),
        ("period = 65536", ["verify", "endpoint"]),
        ("min_scale_log2 = -1000000", ["verify", "endpoint"]),
        ("n_levels = 1000000000", ["verify", "endpoint"]),
        ("ensemble = 100000000", ["cww"]),
        ("khintchine = 1180591620717411303424", ["sharpness"]),
    ])
    def test_oversized_config_values_are_usage_errors(self, line, argv, tmp_path, capsys):
        # each used to end in a traceback, a hang or a memory error
        cfg = tmp_path / "big.cfg"
        cfg.write_text(line + "\n")
        code = main(argv + ["--log2-n", "6", "--config", str(cfg)])
        assert code == 2
        assert line.split(" = ")[0] in capsys.readouterr().err

    def test_cww_bounds_the_samples_it_draws_at_once(self, capsys):
        # 10,000 members of 2^22 samples would be one 335 GB array
        code = main(["cww", "--log2-n", "22", "--ensemble", "10000"])
        assert code == 2
        assert "ensemble" in capsys.readouterr().err

    def test_verify_endpoint(self, capsys):
        code, got = run_json(capsys, ["verify", "endpoint", "--operator", "step",
                                      "--log2-n", "9", "--ensemble", "2",
                                      "--n-levels", "8"])
        assert code == 0
        assert got["ok"] and got["operator"].startswith("step")

    def test_verify_rejects_wrong_operator(self, capsys):
        code = main(["verify", "endpoint", "--operator", "smooth-sqfn",
                     "--log2-n", "9"])
        assert code == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1", "8.5", "1e308"])
    def test_verify_exponent_out_of_range_names_the_flag(self, bad, capsys):
        # used to blame "sigma" (nan, inf, -1), or to run with a Young function
        # that overflowed to inf and report a ratio of 0 as ok (1e308)
        code = main(["verify", "endpoint", f"--exponent={bad}", "--log2-n", "6",
                     "--ensemble", "1"])
        assert code == 2
        assert capsys.readouterr().err == "lacuna: exponent must lie in [0, 8]\n"

    def test_verify_empty_operator_is_not_the_default(self, capsys):
        # used to run the prototype operator
        code = main(["verify", "endpoint", "--operator", "", "--log2-n", "6",
                     "--ensemble", "1"])
        assert code == 2
        assert "endpoint operator must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["zygmund-bonami", "gen-zygmund-bonami"])
    @pytest.mark.parametrize("flag", ["--operator=lp", "--exponent=1"])
    def test_verify_rejects_a_flag_the_experiment_does_not_take(self, experiment, flag,
                                                                capsys):
        # used to be ignored, exit 0
        code = main(["verify", experiment, flag, "--log2-n", "6", "--ensemble", "1"])
        assert code == 2
        name = flag.split("=")[0]
        assert capsys.readouterr().err == f"lacuna: {experiment} takes no {name}\n"

    def test_verify_report_with_aborted_rows_is_strict_json(self, capsys):
        # every sample of a 2^4 window aborts the cancellative branches on a zero
        # average; their ratio (and max_drift without pairs) used to print Infinity
        code = main(["verify", "gen-zygmund-bonami", "--log2-n", "4", "--ensemble", "1"])
        assert code == 1
        text = capsys.readouterr().out
        got = json.loads(text, parse_constant=lambda token: pytest.fail(token))
        aborted = [row for row in got["samples"] if row["aborted"]]
        assert aborted and all(row["ratio"] is None for row in aborted)

    def test_zygmund_bonami_grid_too_coarse_names_log2_n(self, capsys):
        code = main(["verify", "zygmund-bonami", "--log2-n", "5", "--ensemble", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("lacuna: log2_n 5 at period 16: no nonzero")

    def test_verify_config_layering(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("log2_n = 9\nensemble = 2\nn_levels = 8\nrefine = false\n")
        code, got = run_json(capsys, ["verify", "zygmund-bonami",
                                      "--config", str(cfg), "--tau", "1"])
        assert code == 0
        assert got["config"]["ensemble"] == 2
        assert got["config"]["tau"] == 1
        assert got["refinement"] == {}

    def test_verify_gen_zb(self, capsys):
        code, got = run_json(capsys, ["verify", "gen-zygmund-bonami",
                                      "--log2-n", "9", "--ensemble", "2",
                                      "--no-refine"])
        assert code == 0 and got["ok"]

    def test_verify_writes_report_files(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        rows = tmp_path / "rep.csv"
        code = main(["verify", "endpoint", "--operator", "identity",
                     "--log2-n", "9", "--ensemble", "2", "--n-levels", "6",
                     "--no-refine", "--out", str(rep), "--csv", str(rows)])
        assert code == 0
        assert json.loads(rep.read_text())["ok"]
        assert rows.read_text().startswith("label,")

    def test_sharpness_failure_exit_code(self, capsys):
        # a single feasible parameter cannot certify growth: exit 1
        code, got = run_json(capsys, ["sharpness", "--log2-n", "9",
                                      "--n-min", "2", "--n-max", "3",
                                      "--khintchine", "0"])
        assert code == 1 and not got["ok"]

    @pytest.mark.parametrize("n_min, rows", [("2", [2, 3]), ("1000000000000", [])])
    def test_sharpness_far_past_feasible_exits_promptly_with_its_note(self, n_min, rows):
        # used to walk every parameter up to n_max before dropping the
        # infeasible ones: hours for 10^12
        done = run_capped(["sharpness", "--log2-n", "10", "--n-min", n_min,
                           "--n-max", "1000000000000", "--khintchine", "0"])
        got = json.loads(done.stdout)
        assert done.returncode == 1 and [row["n"] for row in got["rows"]] == rows
        assert got["notes"][0] == "parameters above 3 skipped (band overflow)"

    @pytest.mark.parametrize("text, message", [
        ("tau = 1.5\n", "config line 1: key 'tau': cannot read '1.5' as int"),
        ("log2_n = 9\n\ngamma = 'two' # comment\n",
         "config line 3: key 'gamma': cannot read 'two' as float"),
        ("refine = maybe\n", "config line 1: key 'refine': cannot read 'maybe' as a flag"),
    ])
    def test_config_value_of_the_wrong_type_names_line_and_key(self, text, message,
                                                               tmp_path, capsys):
        # used to print the bare "invalid literal for int() with base 10: '1.5'"
        cfg = tmp_path / "typed.cfg"
        cfg.write_text(text)
        code = main(["cww", "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err == f"lacuna: {message}\n"

    def test_unknown_config_key_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha = 1\n")
        code = main(["cww", "--config", str(cfg)])
        assert code == 2

    @pytest.mark.parametrize("raw, offset", [(b"\xff\xfe", 0),
                                             (b"log2_n = 9\n# caf\xc3\xa9 \xff\n", 19)])
    def test_config_that_is_not_utf8_names_file_flag_and_byte(self, raw, offset,
                                                              tmp_path, capsys):
        # used to exit with the bare codec message, naming neither
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(raw)
        code = main(["cww", "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"lacuna: --config {cfg}: not UTF-8 at byte {offset}\n"

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_gamma_is_a_usage_error(self, bad, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"gamma = {bad}\nlog2_n = 9\nensemble = 2\n")
        code = main(["verify", "gen-zygmund-bonami", "--config", str(cfg)])
        assert code == 2
        assert "gamma must be finite" in capsys.readouterr().err

    def test_bad_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_byte_deterministic_stdout(self, capsys):
        argv = ["verify", "hormander", "--log2-n", "9", "--ensemble", "2",
                "--n-levels", "8"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first


class TestExactFlags:
    """The flags parsed into exact dyadic values refuse a non-finite float
    as a usage error that names the flag and the value."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, flag", [
        (["lacunary"], "--max-abs"),
        (["project", "--hi", "2"], "--lo"),
        (["project", "--lo", "1"], "--hi"),
        (["sqfn"], "--max-abs"),
    ])
    def test_non_finite_value_is_named(self, command, flag, value, stored_signal, capsys):
        # each used to print only "lacuna: not a finite value"
        extra = [] if command == ["lacunary"] else ["--input", str(stored_signal)]
        code = main(command + extra + [f"{flag}={value}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"lacuna: {flag} must be finite, got {float(value)!r}\n"


class TestParser:
    def test_built_once_per_process(self):
        from lacuna import cli

        assert cli.build_parser() is cli.build_parser()

    def test_a_parse_leaves_no_state(self, stored_signal, capsys):
        # flags given to one call are not defaults of the next
        code, first = run_json(capsys, ["lacunary"])
        assert code == 0
        run_json(capsys, ["lacunary", "--tau", "1", "--min-scale-log2", "0",
                          "--max-abs", "8"])
        code, again = run_json(capsys, ["lacunary"])
        assert code == 0 and again == first
        assert (first["tau"], first["min_scale_log2"], first["max_abs"]) == (2, -6, 64.0)
        # a required flag stays required after a call that gave it
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                main(["project", "--input", str(stored_signal), "--lo", "1"])
            assert err.value.code == 2
            assert "required: --hi" in capsys.readouterr().err
            main(["project", "--input", str(stored_signal), "--lo", "1", "--hi", "2"])
            capsys.readouterr()
