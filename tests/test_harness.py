"""Tests for the experiment harness: config plumbing, signal ensembles,
operator construction, the weak-type ratio measurement, and the experiment
drivers at small sizes."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna import harness as hn
from lacuna.dyadic import DyadicScalar
from lacuna.lacunary import lac_tau, lambda_tau
from lacuna.multipliers import apply_multiplier
from lacuna.orlicz import YoungFunction, luxemburg_avg
from lacuna.spectral import AliasFlags, Signal, spectrum


def tiny_config(**overrides):
    base = {"log2_n": 9, "ensemble": 3, "n_levels": 10, "seed": 7}
    base.update(overrides)
    return hn.make_config(base)


# -- configuration ----------------------------------------------------------


class TestConfig:
    def test_defaults_valid(self):
        cfg = hn.ExperimentConfig()
        assert cfg.log2_n == 12 and cfg.tau == 2 and cfg.refine

    def test_parse_text_with_comments_and_bools(self):
        text = "log2_n = 10  # grid\n\n# full line comment\nrefine = false\nperiod = 8\n"
        got = hn.parse_config_text(text)
        assert got == {"log2_n": 10, "refine": False, "period": 8.0}

    def test_parse_text_dashed_keys(self):
        assert hn.parse_config_text("min-scale-log2 = -4") == {"min_scale_log2": -4}

    def test_parse_text_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            hn.parse_config_text("alpha = 3")

    def test_parse_text_rejects_bad_line(self):
        with pytest.raises(ValueError, match="key = value"):
            hn.parse_config_text("just words")

    def test_parse_text_rejects_bad_bool(self):
        with pytest.raises(ValueError, match="flag"):
            hn.parse_config_text("refine = maybe")

    def test_layering_precedence(self):
        cfg = hn.make_config({"log2_n": 10, "tau": 3}, {"tau": 1, "seed": None})
        assert cfg.log2_n == 10 and cfg.tau == 1 and cfg.seed == 7

    def test_make_config_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown config key"):
            hn.make_config({"nonsense": 1})

    @pytest.mark.parametrize(
        "bad",
        [
            {"log2_n": 2},
            {"period": 3.0},
            {"tau": 0},
            {"sigma": -1},
            {"n_min": 1},
            {"n_min": 9, "n_max": 8},
            {"gamma": 0.5},
            {"min_scale_log2": 1},
            {"khintchine": -1},
        ],
    )
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            hn.make_config(bad)

    def test_threads_resolution(self, monkeypatch):
        monkeypatch.setenv("LACUNA_THREADS", "5")
        assert hn.make_config({"threads": 0}).resolved_threads() == 5
        assert hn.make_config({"threads": 2}).resolved_threads() == 2
        monkeypatch.setenv("LACUNA_THREADS", "junk")
        assert hn.make_config({"threads": 0}).resolved_threads() == 1

    @given(st.integers(4, 22), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_parse_round_trip(self, log2_n, refine):
        text = f"log2_n = {log2_n}\nrefine = {'true' if refine else 'false'}\n"
        got = hn.parse_config_text(text)
        assert got["log2_n"] == log2_n and got["refine"] is refine


# -- ensembles ----------------------------------------------------------------


class TestEnsembles:
    def test_labels_cycle_families(self):
        cfg = tiny_config(ensemble=6)
        specs = hn.make_sample_specs(cfg, np.random.default_rng(0))
        kinds = [spec.label.split("-")[0] for spec in specs]
        assert kinds == ["bump", "lacpoly", "czbad", "bump", "lacpoly", "czbad"]

    def test_seeded_draws_are_reproducible(self):
        cfg = tiny_config()
        a = hn.make_sample_specs(cfg, np.random.default_rng(3))
        b = hn.make_sample_specs(cfg, np.random.default_rng(3))
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.build(9).samples, sb.build(9).samples)

    @pytest.mark.parametrize("index", [0, 1])
    def test_refinement_subsamples_to_the_coarse_grid(self, index):
        # bump and polynomial builders sample one fixed function, so the
        # fine grid contains the coarse one exactly
        cfg = tiny_config()
        spec = hn.make_sample_specs(cfg, np.random.default_rng(5))[index]
        coarse = spec.build(8)
        fine = spec.build(10)
        assert np.allclose(fine.samples[::4], coarse.samples, atol=0, rtol=0)

    def test_unit_support(self):
        cfg = tiny_config(ensemble=4)
        for spec in hn.make_sample_specs(cfg, np.random.default_rng(2), support="unit"):
            sig = spec.build(10)
            outside = (sig.x < 0.0) | (sig.x >= 1.0)
            assert np.max(np.abs(sig.samples[outside])) == 0.0
            assert np.max(np.abs(sig.samples)) > 0.0

    def test_centered_support(self):
        cfg = tiny_config(ensemble=4)
        for spec in hn.make_sample_specs(cfg, np.random.default_rng(2), support="centered"):
            sig = spec.build(10)
            outside = np.abs(sig.x) >= 0.5
            # the grid point at x = -1/2 belongs to the window
            outside &= sig.x != -0.5
            assert np.max(np.abs(sig.samples[outside])) == 0.0

    def test_czbad_keeps_geometry(self):
        cfg = tiny_config()
        spec = hn.make_sample_specs(cfg, np.random.default_rng(1))[2]
        assert spec.label.startswith("czbad")
        sig = spec.build(10)
        assert sig.n == 1024 and sig.period == cfg.period and sig.offset == -8.0


# -- operators ----------------------------------------------------------------


class TestOperators:
    def test_identity(self):
        cfg = tiny_config()
        op = hn.build_operator("identity", cfg)
        sig = Signal(np.array([1.0, -2.0, 3.0, -4.0]), 16.0, -8.0)
        assert op.exponent == 0.0
        assert np.array_equal(op.apply(sig, None), [1.0, 2.0, 3.0, 4.0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown operator"):
            hn.build_operator("fourier", tiny_config())

    def test_exponents(self):
        cfg = tiny_config(tau=3)
        assert hn.build_operator("prototype", cfg).exponent == 1.5
        assert hn.build_operator("step", cfg).exponent == 1.5
        assert hn.build_operator("lp", cfg).exponent == 1.5
        assert hn.build_operator("hormander", cfg).exponent == 1.0
        assert hn.build_operator("smooth-sqfn", cfg).exponent == 1.0

    def test_prototype_deterministic_given_rng(self):
        cfg = tiny_config()
        sig = _cosine_signal(cfg)
        a = hn.build_operator("prototype", cfg, np.random.default_rng(5)).apply(sig, None)
        b = hn.build_operator("prototype", cfg, np.random.default_rng(5)).apply(sig, None)
        assert np.array_equal(a, b)

    def test_step_halves_blocks(self):
        # two half-windows per block at +-1/2 give mass 1/2 = 1/N with N = 2
        family = lambda_tau(2, DyadicScalar.pow2(-3), DyadicScalar.from_int(8))
        m = hn._halved_step(family, np.random.default_rng(0))
        report = m.validate(family)
        assert report["ok"] and m.overlap_bound == 2
        assert len(m.pieces) == 2 * len(family)
        for mass in report["block_mass"].values():
            assert abs(mass - 0.5) < 1e-15

    def test_step_scales_a_pure_tone_by_its_piece(self):
        family = lambda_tau(2, DyadicScalar.pow2(-6), DyadicScalar.from_int(32))
        m = hn._halved_step(family, np.random.default_rng(4))
        lam = 43.0 / 16.0
        lam_d = DyadicScalar.from_float(lam)
        owners = [p for p in m.pieces if p.lo <= lam_d and lam_d < p.hi]
        assert len(owners) == 1
        n = 1 << 10
        x = -8.0 + (16.0 / n) * np.arange(n)
        sig = Signal(np.exp(2j * np.pi * lam * x), 16.0, -8.0)
        out = apply_multiplier(sig, m, None)
        expected = owners[0].coeff * sig.samples
        assert np.max(np.abs(out.samples - expected)) < 1e-12

    def test_hormander_symbol_is_multiplicative_on_tones(self):
        cfg = tiny_config(log2_n=10)
        op = hn.build_operator("hormander", cfg, np.random.default_rng(2))
        n = 1 << 10
        x = -8.0 + (16.0 / n) * np.arange(n)
        inside = Signal(np.exp(2j * np.pi * 2.6875 * x), 16.0, -8.0)
        mags = op.apply(inside, None)
        # a pure tone maps to |m(lam)| times itself: constant magnitude
        assert np.ptp(mags) < 1e-10
        far = Signal(np.exp(2j * np.pi * 48.0 * x), 16.0, -8.0)
        assert np.max(op.apply(far, None)) < 1e-12

    def test_hormander_cache_reused(self):
        cfg = tiny_config(log2_n=9)
        op = hn.build_operator("hormander", cfg, np.random.default_rng(2))
        sig = _cosine_signal(cfg)
        a = op.apply(sig, None)
        b = op.apply(sig, None)
        assert np.array_equal(a, b)

    def test_lp_matches_direct_call(self):
        from lacuna.spectral import lp_square_function

        cfg = tiny_config()
        sig = _cosine_signal(cfg)
        op = hn.build_operator("lp", cfg)
        direct = lp_square_function(
            sig, cfg.tau, DyadicScalar.pow2(cfg.min_scale_log2), "sharp",
            DyadicScalar.pow2(cfg.log2_n - 2 - cfg.log2_period))
        assert np.allclose(op.apply(sig, None), np.abs(direct.samples), atol=1e-15)

    def test_alias_flags_propagate(self):
        # ask for sharp blocks beyond the representable band of a tiny grid
        cfg = tiny_config(log2_n=14)
        op = hn.build_operator("lp", cfg)
        small = _cosine_signal(tiny_config(log2_n=6))
        flags = AliasFlags()
        op.apply(small, flags)
        assert flags.aliased
        # the second apply reuses the cached bank, which replays its events
        again = AliasFlags()
        op.apply(small, again)
        assert again.events == flags.events


def _cosine_signal(cfg, scale=1.0):
    n = 1 << cfg.log2_n
    x = -cfg.period / 2 + (cfg.period / n) * np.arange(n)
    vals = scale * np.cos(2 * np.pi * 3 * x) * np.exp(-(x ** 2))
    return Signal(vals, cfg.period, -cfg.period / 2)


# -- the weak-type ratio ---------------------------------------------------


class TestWeakTypeRatio:
    def test_hand_computed_example(self):
        # out = (2, 2, 1, 0), in = 1, dx = 1/2, B(t) = t:
        # a=1: lhs = 3/2, rhs = 2 -> 0.75 ; a=2: lhs = 1, rhs = 1 -> 1.0
        got = hn.weak_type_ratio([2.0, 2.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0],
                                 0.5, 0.0, n_levels=64)
        assert got["max_ratio"] == pytest.approx(1.0, abs=1e-14)
        assert got["alpha"] == pytest.approx(2.0)

    def test_indicator_is_extremal_for_markov(self):
        out = np.zeros(64)
        out[10:20] = 1.0
        got = hn.weak_type_ratio(out, out, 0.25, 0.0, n_levels=8)
        assert got["max_ratio"] == pytest.approx(1.0, abs=1e-14)

    def test_log_weight_hand_value(self):
        # single value 1 against itself at exponent 1: ratio 1/log(e+1)
        got = hn.weak_type_ratio([1.0], [1.0], 1.0, 1.0)
        assert got["max_ratio"] == pytest.approx(1.0 / math.log(math.e + 1.0), rel=1e-12)

    def test_zero_output(self):
        got = hn.weak_type_ratio(np.zeros(8), np.ones(8), 0.5, 1.0)
        assert got == {"max_ratio": 0.0, "alpha": 0.0, "levels": 0}

    def test_subsample_never_exceeds_full_grid(self):
        rng = np.random.default_rng(0)
        out = rng.exponential(size=256) ** 2
        vals = rng.normal(size=256)
        coarse = hn.weak_type_ratio(out, vals, 0.1, 1.0, n_levels=6)
        full = hn.weak_type_ratio(out, vals, 0.1, 1.0, n_levels=100000)
        assert coarse["max_ratio"] <= full["max_ratio"] * (1 + 1e-12)
        assert full["max_ratio"] <= coarse["max_ratio"] * 4

    def test_top_threshold_is_covered(self):
        # the grid must include the maximum attained magnitude
        out = np.concatenate([np.full(100, 0.01), [50.0]])
        got = hn.weak_type_ratio(out, out, 1.0, 0.5, n_levels=5)
        assert got["alpha"] <= 50.0
        lhs = 1.0
        rhs = float(np.sum(YoungFunction(0.5)(out / 50.0)))
        assert got["max_ratio"] >= lhs / rhs - 1e-12

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_markov_bound_at_exponent_zero(self, seed):
        # |{|f| >= a}| <= integral |f|/a pointwise: the identity operator's
        # ratio never exceeds 1
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=128) * rng.exponential(size=128)
        got = hn.weak_type_ratio(vals, vals, 0.125, 0.0, n_levels=40)
        assert got["max_ratio"] <= 1.0 + 1e-12


# -- experiment drivers -----------------------------------------------------


class TestEndpointExperiments:
    def test_endpoint_report_shape(self):
        cfg = tiny_config()
        rep = hn.verify_endpoint(cfg, "prototype")
        assert rep.experiment == "endpoint" and rep.ok
        assert len(rep.samples) == cfg.ensemble
        for row in rep.samples:
            assert not row["aborted"]
            assert math.isfinite(row["ratio"]) and math.isfinite(row["drift"])
        assert rep.refinement["max_drift"] <= 2.0
        assert rep.exponent == 1.0

    def test_identity_respects_markov(self):
        rep = hn.verify_endpoint(tiny_config(ensemble=6), "identity")
        assert rep.ok and rep.max_ratio <= 1.0 + 1e-12

    def test_exponent_override(self):
        rep = hn.verify_endpoint(tiny_config(), "prototype", exponent=0.5)
        assert rep.exponent == 0.5

    def test_operator_validation(self):
        with pytest.raises(ValueError, match="endpoint operator"):
            hn.verify_endpoint(tiny_config(), "hormander")
        with pytest.raises(ValueError, match="hormander operator"):
            hn.verify_hormander(tiny_config(), "prototype")

    def test_hormander_report(self):
        rep = hn.verify_hormander(tiny_config(), "smooth-sqfn")
        assert rep.ok and rep.exponent == 0.5

    def test_no_refine_skips_fine_grid(self):
        rep = hn.verify_endpoint(tiny_config(refine=False), "step")
        assert rep.refinement == {}
        assert all("drift" not in row for row in rep.samples)

    def test_reports_are_byte_deterministic(self):
        a = hn.report_to_json(hn.verify_endpoint(tiny_config(), "step"))
        b = hn.report_to_json(hn.verify_endpoint(tiny_config(), "step"))
        assert a == b


class TestZygmundBonami:
    def test_report(self):
        rep = hn.verify_zygmund_bonami(tiny_config(ensemble=4))
        assert rep.ok and rep.experiment == "zygmund-bonami"
        assert all(math.isfinite(r["ratio"]) for r in rep.samples)

    def test_single_tone_oracle(self):
        # f = e^{2 pi i 3 x} on [0,1): the order-2 coefficient at 3 is exactly
        # 1 and every other integer coefficient vanishes on the grid, so the
        # lhs is 1 and the ratio is 1/luxemburg(1)
        cfg = tiny_config(log2_n=12, tau=2)
        n = 1 << cfg.log2_n
        x = -8.0 + (16.0 / n) * np.arange(n)
        mask = (x >= 0.0) & (x < 1.0)
        sig = Signal(np.exp(2j * np.pi * 3.0 * x) * mask, 16.0, -8.0)
        nu = 1 << (cfg.log2_n - 1 - cfg.log2_period)
        pts = lac_tau(2, DyadicScalar.from_int(1), DyadicScalar.from_int(nu - 1))
        lams = [float(p) for p in pts.points]
        assert 3.0 in lams
        pos = hn._coefficient_positions(lams, sig)
        sp = spectrum(sig)
        lhs = float(np.sqrt(np.sum(np.abs(sp[pos]) ** 2)))
        assert lhs == pytest.approx(1.0, abs=1e-12)
        rhs = luxemburg_avg(np.abs(sig.samples[mask]), 1.0)
        assert rhs == pytest.approx(luxemburg_avg(np.ones(mask.sum()), 1.0), rel=1e-12)

    def test_out_of_band_frequency_rejected(self):
        sig = Signal(np.ones(64), 16.0, -8.0)
        with pytest.raises(ValueError, match="exceeds the lattice"):
            hn._coefficient_positions([10.0], sig)


class TestGenZygmundBonami:
    def test_report_structure(self):
        cfg = tiny_config(log2_n=10, ensemble=2)
        rep = hn.verify_gen_zygmund_bonami(cfg)
        assert rep.ok
        branches = {(r["label"], r["branch"], r["gamma"]) for r in rep.samples}
        labels = {r["label"] for r in rep.samples}
        for label in labels:
            assert (label, "local", cfg.gamma) in branches
            assert (label, "cancellative", cfg.gamma) in branches
            assert (label, "combined", cfg.gamma) in branches
            for gam in (2.0, 4.0, 8.0):
                assert (label, "tail", gam) in branches

    def test_tail_ratios_decay_in_gamma(self):
        rep = hn.verify_gen_zygmund_bonami(tiny_config(log2_n=10, ensemble=3))
        by_label = {}
        for row in rep.samples:
            if row["branch"] == "tail":
                by_label.setdefault(row["label"], []).append((row["gamma"], row["ratio"]))
        assert by_label
        for pairs in by_label.values():
            pairs.sort()
            ratios = [r for _, r in pairs]
            assert ratios == sorted(ratios, reverse=True)

    def test_sigma_one_runs(self):
        rep = hn.verify_gen_zygmund_bonami(tiny_config(log2_n=10, ensemble=2, sigma=1, tau=1))
        assert rep.ok


class TestSharpness:
    def test_rows_and_growth_fields(self):
        cfg = hn.make_config({"log2_n": 12, "n_min": 2, "n_max": 4,
                              "khintchine": 4, "n_levels": 20})
        rep = hn.sharpness_growth(cfg)
        assert [row["n"] for row in rep["rows"]] == [2, 3, 4]
        for row in rep["rows"]:
            assert row["components"] == row["n"] * (row["n"] - 1) // 2
            assert row["cmin"] > 0.0
            assert row["weak_rand_max"] >= row["weak_rand_median"] > 0.0
        weaks = [row["weak_det"] for row in rep["rows"]]
        assert weaks == sorted(weaks)
        assert rep["growth_weak"] > 1.0
        assert "slope_det" in rep and "slope_rand" in rep

    def test_infeasible_parameters_are_skipped(self):
        # at 2^9 samples over a window of 16 only N = 2 fits the band
        cfg = hn.make_config({"log2_n": 9, "n_min": 2, "n_max": 20, "khintchine": 0})
        rep = hn.sharpness_growth(cfg)
        assert [row["n"] for row in rep["rows"]] == [2]
        assert not rep["ok"]
        assert any("skipped" in note for note in rep["notes"])

    def test_khintchine_zero_skips_draws(self):
        cfg = hn.make_config({"log2_n": 12, "n_min": 2, "n_max": 3, "khintchine": 0})
        rep = hn.sharpness_growth(cfg)
        assert all("weak_rand_max" not in row for row in rep["rows"])
        assert "slope_rand" not in rep

    def test_deterministic(self):
        cfg = hn.make_config({"log2_n": 12, "n_min": 2, "n_max": 4, "khintchine": 3})
        assert hn.report_to_json(hn.sharpness_growth(cfg)) == hn.report_to_json(
            hn.sharpness_growth(cfg))


class TestMartingaleExperiments:
    def test_cww_experiment(self):
        rep = hn.cww_experiment(tiny_config(ensemble=4))
        assert rep["ok"]
        assert rep["max_tail_excess"] <= 1e-12
        assert len(rep["rows"]) == 5  # ensemble + the weighted example
        assert rep["rows"][-1]["draw"] == "weighted"

    def test_decompose_experiment_default_input(self):
        rep = hn.decompose_experiment(hn.make_config({"log2_n": 8, "sigma": 1, "seed": 5}))
        assert rep["ok"] and rep["converged"]
        assert rep["objective"] <= rep["baseline"] + 1e-9
        assert rep["certificate"]["constraint_residual"] <= 1e-8

    def test_decompose_experiment_explicit_samples(self):
        x = (np.arange(256) + 0.5) / 256
        rep = hn.decompose_experiment(hn.make_config({"sigma": 0}),
                                      samples=np.sin(2 * np.pi * x))
        assert rep["ok"]
        assert rep["improvement"] >= -1e-12


class TestReportWriters:
    def test_json_writer(self, tmp_path):
        rep = hn.verify_endpoint(tiny_config(refine=False), "identity")
        path = tmp_path / "rep.json"
        hn.save_report_json(rep, path)
        loaded = json.loads(path.read_text())
        assert loaded["experiment"] == "endpoint"
        assert loaded["ok"] is True

    def test_csv_writer(self, tmp_path):
        rep = hn.verify_endpoint(tiny_config(refine=False), "identity")
        path = tmp_path / "rep.csv"
        hn.save_report_csv(rep, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("label,")
        assert len(lines) == 1 + len(rep.samples)

    def test_csv_writer_on_dict_reports(self, tmp_path):
        rep = hn.sharpness_growth(hn.make_config({"log2_n": 12, "n_min": 2,
                                                  "n_max": 3, "khintchine": 0}))
        path = tmp_path / "growth.csv"
        hn.save_report_csv(rep, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("n,")
        assert len(lines) == 3
