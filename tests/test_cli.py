"""End-to-end tests of the command line: every subcommand through
``main(argv)``, exit codes, file round trips, and config layering."""

import json
import struct

import numpy as np
import pytest

from lacuna.cli import main
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
        code, got = run_json(capsys, ["lacunary", "--tau", "1", "--intervals",
                                      "--min-scale-log2", "0", "--max-abs", "4"])
        assert code == 0
        assert got["count"] == 4
        # the 7-field exact-arithmetic line format: order, then three
        # mantissa/exponent pairs
        assert all(len(line.split()) == 7 and line.split()[0] == "1"
                   for line in got["intervals"])

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "pts.json"
        code = main(["lacunary", "--tau", "2", "--max-abs", "4", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["tau"] == 2


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

    def test_smooth_mode(self, stored_signal, capsys):
        code, got = run_json(capsys, ["sqfn", "--input", str(stored_signal),
                                      "--mode", "smooth", "--max-abs", "16",
                                      "--min-scale-log2", "-3"])
        assert code == 0 and got["mode"] == "smooth"


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


class TestCzd:
    def test_decomposition_json_and_files(self, stored_signal, tmp_path, capsys):
        prefix = tmp_path / "dec"
        code, got = run_json(capsys, ["czd", "--input", str(stored_signal),
                                      "--sigma", "1", "--alpha", "0.5",
                                      "--output", str(prefix)])
        assert code == 0
        assert got["constants"]["reconstruction_error"] < 1e-10
        assert got["constants"]["sandwich_ok"] is True
        assert (tmp_path / "dec.json").exists()
        assert (tmp_path / "dec_good.bin").exists()

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
        assert json.loads(captured.out)["constants"]["lacunary_l2_sq"] == float("inf")

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


class TestExperimentCommands:
    def test_cww(self, capsys):
        code, got = run_json(capsys, ["cww", "--log2-n", "8", "--ensemble", "2"])
        assert code == 0 and got["ok"]

    def test_decompose_with_input(self, stored_signal, capsys):
        code, got = run_json(capsys, ["decompose", "--input", str(stored_signal),
                                      "--sigma", "1"])
        assert code == 0 and got["ok"]

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

    def test_unknown_config_key_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha = 1\n")
        code = main(["cww", "--config", str(cfg)])
        assert code == 2

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
