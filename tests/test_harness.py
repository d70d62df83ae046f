"""Tests for the experiment harness: config plumbing, signal ensembles,
operator construction, the weak-type ratio measurement, and the experiments
at small sizes.

Reference ledger:
- ``weak_type_ratio_reference`` (through
  ``assert_weak_type_ratio_matches_reference``): the per-threshold loop, one
  count over the outputs and one Orlicz sum over every input sample at each
  level, sharing only ``YoungFunction``; ``weak_type_ratio`` on the lp and
  smooth-sqfn ratios of verify at tau 3 on 2^11 and on growth rows at orders
  2, 4 and 6 on 2^14, levels and alpha exactly, the ratio to 1e-12.  It
  checks ``weak_type_ratio`` as a whole; the pair below checks its stages.
- ``reference_ratio_levels`` and ``reference_sup_ratios``: ``_ratio_levels``
  through the distinct magnitudes and ``_sup_ratios`` before its levels were
  pruned; growth rows at orders 2-7 on 2^14, all twelve ratios of each
  verify operator at tau 3 on 2^13, drawn magnitudes and edge cases,
  bitwise.
- ``full_grid_sign_polynomial`` and ``full_grid_bumps``: the sign
  polynomials with every term on the whole grid, then times the support
  mask, and the bump sums with every bump on the whole grid; the ensembles
  at periods 2, 16 and 64 on both grids, drawn bumps at the grid ends,
  narrower than a grid step or negative, the spike builder and
  ``decompose_experiment``'s grid, bitwise with the signs of zeros.
- ``copying_builders_reference``: the bump mixture and the spike builder
  as they copied their sums into signals; periods 2 and 16, every support,
  seeds 10 and 2026 on 2^9 and 2^11, bitwise, and read-only.
- ``decomposed_split_reference``: the czbad builder's split as it was, the
  full decomposition with its cancellative part reassembled from its atoms;
  the czbad members of the verify workload's ensemble at sigma 0-2, seeds 10
  and 2026, on both grids, and a flat member without atoms, bitwise.
- a cleared ensemble: each verify report on an ensemble built for it
  alone, against the same report on an ensemble that earlier experiments on
  its configuration built and froze czbad thresholds on; the verify
  workload's five reports at seeds 10 and 2026 in forward and reverse
  order, zygmund-bonami and gen-zygmund-bonami at one configuration each,
  byte-equal.
- ``square_reference`` (from ``test_spectral``): the lp and smooth-sqfn
  squares of verify at tau 3 on 2^11 and its refinement, to 1e-12 of the
  peak; ``bisection_luxemburg`` (from ``test_orlicz``): every float of a
  gen-zygmund-bonami report at sigma 2, to 1e-9.
"""

import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna import czd, spectral
from lacuna import harness as hn
from lacuna.dyadic import DyadicScalar
from lacuna.lacunary import interval_arrays, lac_tau, lambda_tau
from lacuna.multipliers import build_sharpness_family, step_multiplier
from lacuna.orlicz import YoungFunction, luxemburg_avg
from lacuna.spectral import AliasFlags, BandBank, Signal, plateau_bump, spectrum
from test_orlicz import bisection_luxemburg
from test_multipliers import step_violations
from test_spectral import bank_windows, square_reference


def weak_type_ratio_reference(out_mags, in_vals, dx, exponent, n_levels=24):
    """The per-threshold loop: one count over the outputs and one Orlicz sum
    over every input sample at each level."""
    mags = np.abs(np.asarray(out_mags)).ravel().astype(float)
    peak = float(mags.max(initial=0.0))
    if peak <= 0.0:
        return {"max_ratio": 0.0, "alpha": 0.0, "levels": 0}
    distinct = np.unique(mags[mags > 1e-13 * peak])
    lo, hi = float(distinct[0]), float(distinct[-1])
    if hi <= lo * (1.0 + 1e-12):
        alphas = np.array([hi])
    else:
        grid = np.geomspace(lo, hi, n_levels)
        idx = np.unique(np.clip(np.searchsorted(distinct, grid), 0, distinct.size - 1))
        alphas = distinct[idx]
    young = YoungFunction(exponent)
    absin = np.abs(np.asarray(in_vals).ravel())
    best_ratio, best_alpha = 0.0, float(alphas[-1])
    for a in alphas:
        lhs = dx * np.count_nonzero(mags >= a * (1.0 - 1e-12))
        rhs = dx * float(np.sum(young(absin / a)))
        if rhs > 0.0 and lhs / rhs > best_ratio:
            best_ratio, best_alpha = lhs / rhs, float(a)
    return {"max_ratio": float(best_ratio), "alpha": best_alpha, "levels": int(alphas.size)}


def assert_weak_type_ratio_matches_reference(out, in_vals, dx, exponent, n_levels):
    got = hn.weak_type_ratio(out, in_vals, dx, exponent, n_levels)
    want = weak_type_ratio_reference(out, in_vals, dx, exponent, n_levels)
    assert got["levels"] == want["levels"] and got["alpha"] == want["alpha"]
    assert abs(got["max_ratio"] - want["max_ratio"]) <= 1e-12 * want["max_ratio"]


def reference_sup_ratios(alphas, counts, in_vals, dx, exponents):
    """``_sup_ratios`` before its levels were pruned: every level's Orlicz
    mass, visited from the smallest threshold up."""
    youngs = [YoungFunction(p) for p in exponents]
    absin = np.abs(np.asarray(in_vals).ravel())
    absin = absin[absin != 0.0]
    best = [(0.0, float(alphas[-1]) if alphas.size else 0.0) for _ in youngs]
    for a, count in zip(alphas, counts):
        t = absin / a
        logs = np.log(math.e + t)
        for i, young in enumerate(youngs):
            rhs = dx * float(np.sum(t * logs**young.sigma))
            if rhs > 0.0 and dx * count / rhs > best[i][0]:
                best[i] = (dx * count / rhs, float(a))
    return [{"max_ratio": float(r), "alpha": a, "levels": int(alphas.size)} for r, a in best]


def reference_ratio_levels(out_mags, n_levels):
    """``_ratio_levels`` before it read the levels off the sorted magnitudes:
    through the array of their distinct values."""
    mags = np.sort(np.abs(np.asarray(out_mags)).ravel())
    peak = float(mags.max(initial=0.0))
    if peak <= 0.0:
        return np.empty(0), np.empty(0)
    kept = mags[np.searchsorted(mags, 1e-13 * peak, "right"):]
    distinct = kept[np.r_[True, kept[1:] != kept[:-1]]]
    lo, hi = float(distinct[0]), float(distinct[-1])
    if hi <= lo * (1.0 + 1e-12):
        alphas = np.array([hi])
    else:
        grid = np.geomspace(lo, hi, n_levels)
        idx = np.unique(np.clip(np.searchsorted(distinct, grid), 0, distinct.size - 1))
        alphas = distinct[idx]
    return alphas, mags.size - np.searchsorted(mags, alphas * (1.0 - 1e-12), "left")


def assert_sup_ratios_bitwise(out_mags, in_vals, dx, exponents, n_levels):
    levels = hn._ratio_levels(out_mags, n_levels)
    for got, want in zip(levels, reference_ratio_levels(out_mags, n_levels), strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # magnitudes near the float range's ends overflow a mass or a ratio in
    # both loops alike
    with np.errstate(over="ignore"):
        got = hn._sup_ratios(*levels, in_vals, dx, exponents)
        want = reference_sup_ratios(*levels, in_vals, dx, exponents)
    # == on floats, with the types the reports serialize
    assert [tuple(map(repr, d.values())) for d in got] == \
        [tuple(map(repr, d.values())) for d in want]


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
            {"gamma": math.nan},
            {"gamma": math.inf},
            {"min_scale_log2": 1},
            {"khintchine": -1},
            {"khintchine": 10_001},
            {"period": 2.0**65},
            {"min_scale_log2": -65},
            {"n_levels": 10_001},
            {"ensemble": 0},
            {"ensemble": 10_001},
        ],
    )
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            hn.make_config(bad)

    def test_size_bounds_are_inclusive(self):
        cfg = hn.make_config({"period": 2.0**hn.MAX_SCALE_LOG2,
                              "min_scale_log2": -hn.MAX_SCALE_LOG2,
                              "n_levels": hn.MAX_N_LEVELS, "ensemble": hn.MAX_ENSEMBLE,
                              "khintchine": hn.MAX_ENSEMBLE})
        assert cfg.ensemble == cfg.khintchine == hn.MAX_ENSEMBLE

    def test_threads_is_accepted_and_ignored(self, monkeypatch):
        # the field only echoes into the report's config block
        monkeypatch.setenv("LACUNA_THREADS", "5")
        base = {"log2_n": 12, "n_min": 2, "n_max": 3, "khintchine": 2}
        serial = hn.sharpness_growth(hn.make_config(base))
        wide = hn.sharpness_growth(hn.make_config(dict(base, threads=4)))
        assert serial["config"]["threads"] == 0 and wide["config"]["threads"] == 4
        wide["config"]["threads"] = 0
        assert hn.report_to_json(wide) == hn.report_to_json(serial)

    @given(st.lists(st.tuples(
        st.sampled_from(sorted(hn._CONFIG_FIELDS)),
        st.one_of(
            st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "",
                             "0x10", "1_000", "1e3", "4" * 400, "-" + "9" * 400,
                             "true", "off", "2.5", "  ", "'8'", "\"\"", "=", "1#2"]),
            st.integers().map(str),
            st.floats().map(repr),
            st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
        ),
    ), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_config_lines_give_a_config_or_a_value_error(self, lines):
        text = "\n".join(f"{key} = {value}" for key, value in lines)
        try:
            cfg = hn.make_config(hn.parse_config_text(text))
        except ValueError:
            return
        assert isinstance(cfg, hn.ExperimentConfig)

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


def full_grid_sign_polynomial(cfg, seed, support, log2_n):
    """The sign polynomial of ``_lac_poly_spec`` by its former path: every
    term on the whole grid, then times the support mask.  The draws repeat
    those of ``_lac_poly_spec``, from a generator of the same seed."""
    rng = np.random.default_rng(seed)
    positive = hn._lac_poly_pool(cfg)
    size = min(int(rng.integers(8, 65)), positive.size)
    lams = rng.choice(positive, size=size, replace=False)
    eps = rng.choice([-1.0, 1.0], size=size)
    x, _ = hn._grid(log2_n, cfg.period)
    vals = np.zeros(x.size, dtype=complex)
    for lam, e in zip(lams, eps):
        vals += e * np.exp(2j * np.pi * lam * x)
    vals *= size ** -0.5
    if support == "unit":
        vals *= (x >= 0.0) & (x < 1.0)
    elif support == "centered":
        vals *= np.abs(x) < 0.5
    else:
        vals *= np.abs(x) < 1.0
    return vals


def window_of(x, support):
    """The support mask of a windowed family on the grid ``x``."""
    if support == "unit":
        return (x >= 0.0) & (x < 1.0)
    return np.abs(x) < (0.5 if support == "centered" else 1.0)


class TestSignPolynomials:
    @pytest.mark.parametrize("support", [None, "unit", "centered"])
    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_support_only_sum_is_the_full_grid_sum(self, tau, support):
        # at period 2 the full window reaches both ends of the grid, so the
        # mirrored half starts at the second sample
        for period, log2_n in ((2.0, 9), (16.0, 9), (64.0, 11)):
            cfg = tiny_config(tau=tau, period=period, log2_n=log2_n)
            pool = hn._lac_poly_pool(cfg)
            for seed in (10, 2026):
                spec = hn._lac_poly_spec("lacpoly", cfg, np.random.default_rng(seed), support,
                                         pool)
                for fine in (log2_n, log2_n + 2):
                    got = spec.build(fine).samples
                    want = full_grid_sign_polynomial(cfg, seed, support, fine)
                    x, _ = hn._grid(fine, period)
                    on = window_of(x, support)
                    # the mirrored half: the window's x < 0, half of it less x = 0
                    assert np.count_nonzero(x[on] < 0.0) == (
                        0 if support == "unit" else np.count_nonzero(on) // 2)
                    # bitwise with the signs of zeros: +0.0 off the support,
                    # where the mask product could leave -0.0
                    assert got.tobytes() == np.where(on, want, 0.0).tobytes()


def full_grid_bumps(vals, x, bumps):
    """``_add_bumps`` by its former path: every bump on the whole grid."""
    for c, w, a in bumps:
        vals += a * plateau_bump((x - c) / w, 0.5, 1.0)
    return vals


def assert_bumps_bitwise(vals, x, bumps):
    got = hn._add_bumps(vals.copy(), x, bumps)
    want = full_grid_bumps(vals.copy(), x, bumps)
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[got == 0.0]).any()


@st.composite
def bump_draws(draw):
    """A grid (centred at a power-of-two period, or ``decompose_experiment``'s
    ``(k + 1/2)/n``) and bumps at its ends, narrower than a step, or signed."""
    log2_n = draw(st.integers(3, 11))
    n = 1 << log2_n
    if draw(st.booleans()):
        x, _ = hn._grid(log2_n, draw(st.sampled_from([2.0, 16.0, 64.0])))
    else:
        x = (np.arange(n) + 0.5) / n
    step = float(x[1] - x[0])
    bumps = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["end", "narrow", "any"]))
        if kind == "narrow":
            w = step * draw(st.floats(1e-3, 1.0))
        else:
            w = step * 2.0 ** draw(st.floats(-1.0, log2_n))
        if kind == "any":
            c = draw(st.floats(float(x[0]) - w, float(x[-1]) + w))
        else:  # within one width of either end, or centred on a sample
            end = float(x[draw(st.sampled_from([0, -1, n // 3]))])
            c = end + w * draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]))
        a = draw(st.floats(0.1, 8.0)) * draw(st.sampled_from([-1.0, 1.0]))
        bumps.append((c, w, a))
    return x, bumps


class TestBumpWindows:
    @given(bump_draws())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_window_sum_is_the_full_grid_sum(self, draw):
        x, bumps = draw
        assert_bumps_bitwise(np.zeros(x.size), x, bumps)

    def test_edges_exactly_one_width_away(self):
        # a sample exactly at c +- w takes u = +-1 and a bump of +0.0
        x = np.arange(16) / 8.0
        for c, w in ((0.5, 0.25), (0.0, 0.125), (1.875, 0.125), (1.0, 1.0), (0.0625, 0.0625)):
            assert_bumps_bitwise(np.zeros(16), x, [(c, w, -1.5)])

    @pytest.mark.parametrize("support", [None, "unit", "centered"])
    @pytest.mark.parametrize("period", [2.0, 16.0])
    def test_ensemble_bumps_and_spikes_are_the_full_grid_sums(self, period, support,
                                                              monkeypatch):
        # the bump mixtures, and the spike builder behind czbad (a base
        # mixture plus spikes), each from a fresh generator of one seed
        def samples(seed):
            bump = hn._bump_mixture_spec("bump", period, np.random.default_rng(seed), support)
            spikes = hn._spike_mixture_builder(period, np.random.default_rng(seed))
            return bump.build(9).samples, spikes(11).samples

        for seed in (10, 2026):
            got = samples(seed)
            with monkeypatch.context() as m:
                m.setattr(hn, "_add_bumps", full_grid_bumps)
                want = samples(seed)
            for g, w in zip(got, want, strict=True):
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("seed", [2026, 3, 10])
    def test_decompose_input_is_the_full_grid_sum(self, seed, monkeypatch):
        inputs = []

        def capture(f, sigma):
            inputs.append(np.array(f.samples))
            raise StopIteration

        monkeypatch.setattr(hn, "decompose_quotient_norm", capture)
        cfg = hn.make_config({"seed": seed})
        for add in (hn._add_bumps, full_grid_bumps):
            monkeypatch.setattr(hn, "_add_bumps", add)
            with pytest.raises(StopIteration):
                hn.decompose_experiment(cfg)
        assert inputs[0].size == 1024 and inputs[0].tobytes() == inputs[1].tobytes()


def copying_builders_reference(period, seed, support):
    """``_bump_mixture_spec``'s builder and ``_spike_mixture_builder`` as they
    were before they adopted their arrays, each from a generator of ``seed``:
    ``Signal`` copies the mixture's sums, and the spikes are added onto a copy
    of the mixture's samples, which ``with_samples`` copies again."""
    def mixture(rng, support):
        n_terms = int(rng.integers(1, 4))
        if support == "unit":
            centers = rng.uniform(0.3, 0.7, n_terms)
            widths = 2.0 ** rng.uniform(-5.0, -2.0, n_terms)
        elif support == "centered":
            centers = rng.uniform(-0.2, 0.2, n_terms)
            widths = 2.0 ** rng.uniform(-5.0, -2.0, n_terms)
        else:
            centers = rng.uniform(-0.35 * period, 0.35 * period, n_terms)
            widths = 2.0 ** rng.uniform(-3.0, 0.0, n_terms)
        amps = rng.uniform(0.3, 2.0, n_terms) * rng.choice([-1.0, 1.0], n_terms)

        def build(log2_n):
            x, offset = hn._grid(log2_n, period)
            return Signal(hn._add_bumps(np.zeros_like(x), x, zip(centers, widths, amps)),
                          period, offset)
        return build

    rng = np.random.default_rng(seed)
    base = mixture(rng, None)
    n_spikes = int(rng.integers(2, 4))
    centers = rng.uniform(-0.4 * period, 0.4 * period, n_spikes)
    widths = 2.0 ** rng.uniform(-4.0, -2.0, n_spikes)
    amps = rng.uniform(3.0, 8.0, n_spikes) * rng.choice([-1.0, 1.0], n_spikes)

    def spikes(log2_n):
        sig = base(log2_n)
        return sig.with_samples(hn._add_bumps(np.array(sig.samples), sig.x,
                                              zip(centers, widths, amps)))

    return mixture(np.random.default_rng(seed), support), spikes


class TestAdoptedSamples:
    @pytest.mark.parametrize("support", [None, "unit", "centered"])
    @pytest.mark.parametrize("period", [2.0, 16.0])
    def test_bumps_and_spikes_are_the_copied_signals(self, period, support):
        # the same dtype and bits as the copies, and as read-only
        for seed in (10, 2026):
            bump = hn._bump_mixture_spec("bump", period, np.random.default_rng(seed), support)
            spikes = hn._spike_mixture_builder(period, np.random.default_rng(seed))
            for got, want in zip((bump.build, spikes),
                                 copying_builders_reference(period, seed, support)):
                for log2_n in (9, 11):
                    a, b = got(log2_n), want(log2_n)
                    assert (a.period, a.offset) == (b.period, b.offset)
                    assert a.samples.dtype == b.samples.dtype == np.float64
                    assert a.samples.tobytes() == b.samples.tobytes()
                    assert not a.samples.flags.writeable


def decomposed_split_reference(sig, sigma, alpha):
    """``czd.cz_split`` as the czbad builder took it before: the full
    decomposition, its cancellative part put back together from its atoms."""
    dec = czd.cz_decompose(sig, sigma, alpha)
    out = np.zeros(sig.n, dtype=dec.lacunary_part.samples.dtype)
    for atom in dec.atoms:
        out[atom.interval.lo : atom.interval.hi] = atom.cancellative.samples
    part = Signal._adopt(out, sig.period, sig.offset)
    return types.SimpleNamespace(pieces=dec.atoms, cancellative_part=lambda: part)


class TestCzBadSplit:
    """The czbad builder takes czd's split without its measurements."""

    # the verify workload's ensemble and grids
    CFG = dict(log2_n=13, tau=3, ensemble=6)

    @pytest.mark.parametrize("sigma", [0, 1, 2])
    def test_builds_are_the_decomposition_reassembled(self, sigma, monkeypatch):
        cfg = hn.ExperimentConfig(sigma=sigma, **self.CFG)

        def builds(seed):
            specs = hn.make_sample_specs(cfg, np.random.default_rng(seed))
            return [spec.build(log2_n) for spec in specs if spec.label.startswith("czbad")
                    for log2_n in (cfg.log2_n, cfg.log2_n + 2)]  # coarse first

        for seed in (10, 2026):
            got = builds(seed)
            with monkeypatch.context() as m:
                m.setattr(hn, "cz_split", decomposed_split_reference)
                want = builds(seed)
            assert len(got) == 4
            for a, b in zip(got, want, strict=True):
                assert (a.period, a.offset) == (b.period, b.offset)
                assert a.samples.dtype == b.samples.dtype == np.float64
                assert a.samples.tobytes() == b.samples.tobytes()

    def test_a_member_without_atoms_is_its_base_signal(self, monkeypatch):
        # no ensemble draw was found whose every alpha gives no atoms, so
        # the base is flat: every block averages below each alpha tried
        bases = []

        def flat(period, rng):
            def build(log2_n):
                bases.append(Signal(np.ones(1 << log2_n), period, -period / 2))
                return bases[-1]
            return build

        monkeypatch.setattr(hn, "_spike_mixture_builder", flat)
        cfg = hn.ExperimentConfig(sigma=1, **self.CFG)
        for split in (decomposed_split_reference, hn.cz_split):
            monkeypatch.setattr(hn, "cz_split", split)
            spec = hn._cz_bad_spec("czbad", cfg, np.random.default_rng(10))
            for log2_n in (cfg.log2_n, cfg.log2_n + 2):
                assert spec.build(log2_n) is bases[-1]


class TestSampleWork:
    """The work of a verify-sized ensemble's sample construction, counted
    (ROADMAP item 22): the sign polynomials' complex exponentials and the
    points each bump is evaluated on."""

    CFG = dict(log2_n=13, tau=3, ensemble=6, seed=10)

    def test_sign_polynomials_evaluate_half_their_window(self, monkeypatch):
        cfg = hn.ExperimentConfig(**self.CFG)
        real_exp, sizes = np.exp, []

        def counting(z, *args, **kwargs):
            if np.iscomplexobj(z):
                sizes.append(np.size(z))
            return real_exp(z, *args, **kwargs)

        specs = [s for s in hn.make_sample_specs(cfg, np.random.default_rng(cfg.seed))
                 if s.label.startswith("lacpoly")]
        assert len(specs) == 2
        for spec in specs:
            for log2_n in (cfg.log2_n, cfg.log2_n + 2):
                x, _ = hn._grid(log2_n, cfg.period)
                window = np.count_nonzero(window_of(x, None))  # 2K + 1 samples
                sizes.clear()
                with monkeypatch.context() as m:
                    m.setattr(np, "exp", counting)
                    spec.build(log2_n)
                assert 8 <= len(sizes) <= 64 and window % 2 == 1
                # (K + 1) per term, not 2K + 1
                assert sizes == [(window + 1) // 2] * len(sizes)

    def test_czbad_builds_measure_nothing(self, monkeypatch):
        # a small verify endpoint run: its czbad member splits into atoms,
        # and neither an atom nor a decomposition is measured
        calls = {"remove_lacunary": 0, "_atom_diagnostics": 0, "_global_constants": 0}
        for name in calls:
            def counting(*args, real=getattr(czd, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(czd, name, counting)
        hn._SHARED.clear()  # so that this run builds its own ensemble
        hn.verify_endpoint(hn.ExperimentConfig(tau=2, log2_n=9, ensemble=3, refine=True))
        assert calls["remove_lacunary"] > 0
        assert calls["_atom_diagnostics"] == calls["_global_constants"] == 0

    def test_bumps_see_only_their_windows(self, monkeypatch):
        cfg = hn.ExperimentConfig(**self.CFG)
        real_bump, args = hn.plateau_bump, []

        def recording(u, plateau, support):
            args.append(np.array(u))
            return real_bump(u, plateau, support)

        monkeypatch.setattr(hn, "plateau_bump", recording)
        for spec in hn.make_sample_specs(cfg, np.random.default_rng(cfg.seed)):
            if not spec.label.startswith("lacpoly"):
                for log2_n in (cfg.log2_n, cfg.log2_n + 2):
                    spec.build(log2_n)
        assert args
        for u in args:
            # the support |u| < 1 and at most one sample past each end
            inside = np.count_nonzero(np.abs(u) < 1.0)
            assert inside > 0 and u.size <= inside + 2


VERIFY_RUNS = (("endpoint", "prototype"), ("endpoint", "step"), ("endpoint", "lp"),
               ("hormander", "hormander"), ("hormander", "smooth-sqfn"))


def verify_report(cfg, experiment, operator):
    run = hn.verify_endpoint if experiment == "endpoint" else hn.verify_hormander
    return hn.report_to_json(run(cfg, operator))


class TestSharedEnsemble:
    """Experiments on one configuration share its ensemble (``_ensemble``):
    the work of one verify pass as the benchmark runs it (ROADMAP item 22),
    the budget, and every report against its run on a cleared ensemble."""

    CFG = dict(log2_n=13, tau=3, ensemble=6, refine=True)
    # ensemble x (2^13 + 2^15) complex samples
    HELD = 6 * (5 << 13) * 16

    def counted_pass(self, monkeypatch, seed=10):
        """The builder calls and complex exponentials of the five verify
        commands of one pass, and the sign polynomials' exponentials of one
        ensemble built on both grids."""
        cfg = hn.ExperimentConfig(seed=seed, **self.CFG)
        names = ("_bump_signal", "_lac_poly_pool", "luxemburg_avg", "cz_split")
        counts = dict.fromkeys(names + ("exp",), 0)
        for name in names:
            def counting(*args, real=getattr(hn, name), name=name):
                counts[name] += 1
                return real(*args)
            monkeypatch.setattr(hn, name, counting)
        real_exp = np.exp

        def counting_exp(z, *args, **kwargs):
            counts["exp"] += np.iscomplexobj(z)
            return real_exp(z, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        for spec in hn.make_sample_specs(cfg, np.random.default_rng(seed)):
            if spec.label.startswith("lacpoly"):
                spec.build(cfg.log2_n)
                spec.build(cfg.log2_n + 2)
        one_ensemble, counts["exp"] = counts["exp"], 0
        counts["_lac_poly_pool"] = 0
        for run in VERIFY_RUNS:
            verify_report(cfg, *run)
        return cfg, counts, one_ensemble

    def test_a_verify_pass_builds_one_ensemble(self, monkeypatch):
        # seed 10 draws two of each family: the plateau mixtures, the sign
        # polynomials and the czbad thresholds are made once, while each
        # czbad member sums its spikes and splits them on both grids in each
        # of the five experiments
        hn._SHARED.clear()
        cfg, counts, one_ensemble = self.counted_pass(monkeypatch)
        assert one_ensemble == 102
        assert counts == {"_bump_signal": 4 + 5 * 4, "_lac_poly_pool": 1, "luxemburg_avg": 2,
                          "cz_split": 5 * 4, "exp": one_ensemble}
        assert list(hn._SHARED) == [(cfg, None)]

    @pytest.mark.parametrize("budget, shared", [(HELD, True), (HELD - 1, False)])
    def test_an_ensemble_over_the_budget_is_built_for_each_experiment(
            self, budget, shared, monkeypatch):
        # a smaller ensemble shared before, which the pass's replaces or drops
        hn._SHARED.clear()
        hn.verify_endpoint(tiny_config(), "identity")
        monkeypatch.setattr(hn, "MAX_SHARED_BYTES", budget)
        cfg, counts, one_ensemble = self.counted_pass(monkeypatch)
        if shared:
            assert counts["_bump_signal"] == 4 + 5 * 4 and counts["exp"] == one_ensemble
            assert list(hn._SHARED) == [(cfg, None)]
        else:
            assert counts == {"_bump_signal": 5 * 8, "_lac_poly_pool": 5, "luxemburg_avg": 10,
                              "cz_split": 5 * 4, "exp": 5 * one_ensemble}
            assert not hn._SHARED

    @pytest.mark.parametrize("seed", [10, 2026])
    def test_shared_reports_are_each_runs_own(self, seed):
        # the czbad thresholds of the shared runs are frozen on the coarse
        # grid of the first experiment, prototype or smooth-sqfn
        cfg = hn.ExperimentConfig(seed=seed, **self.CFG)
        fresh = {}
        for run in VERIFY_RUNS:
            hn._SHARED.clear()
            fresh[run] = verify_report(cfg, *run)
        hn._SHARED.clear()
        for run in VERIFY_RUNS + VERIFY_RUNS[::-1]:
            assert verify_report(cfg, *run) == fresh[run], run
        assert list(hn._SHARED) == [(cfg, None)]

    @pytest.mark.parametrize("verify, support", [
        (hn.verify_zygmund_bonami, "unit"), (hn.verify_gen_zygmund_bonami, "centered")])
    def test_windowed_reports_are_each_runs_own(self, verify, support):
        cfg = hn.make_config({"log2_n": 10, "tau": 2, "ensemble": 4, "seed": 10})
        hn._SHARED.clear()
        fresh = hn.report_to_json(verify(cfg))
        assert list(hn._SHARED) == [(cfg, support)]
        # the next run on it reads the kept signals
        assert hn.report_to_json(verify(cfg)) == fresh

    def test_only_the_last_ensemble_is_kept(self):
        hn._SHARED.clear()
        first, second = tiny_config(), tiny_config(seed=8)
        hn.verify_endpoint(first, "identity")
        hn.verify_zygmund_bonami(first)
        assert list(hn._SHARED) == [(first, "unit")]
        hn.verify_endpoint(second, "identity")
        assert list(hn._SHARED) == [(second, None)]
        # its kept signals are read-only
        sig = hn._SHARED[(second, None)][0].build(second.log2_n)
        assert not sig.samples.flags.writeable


# -- operators ----------------------------------------------------------------


class TestOperators:
    def test_identity(self):
        cfg = tiny_config()
        op = hn.build_operator("identity", cfg)
        sig = Signal(np.array([1.0, -2.0, 3.0, -4.0]), 16.0, -8.0)
        assert op.exponent == 0.0
        assert np.array_equal(np.abs(op.apply(sig, None)), [1.0, 2.0, 3.0, 4.0])

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
        family = lambda_tau(2, DyadicScalar.pow2(-3), DyadicScalar(8, 0))
        bank = step_multiplier(interval_arrays(2, -3, 3)[-1], -3, 2, np.random.default_rng(0))
        windows = bank_windows(bank)
        assert step_violations(windows, family, 2) == []
        assert len(windows) == 2 * len(family)
        for block, (lo, mid, c0), (mid_, hi, c1) in zip(family, windows[::2], windows[1::2]):
            center = block.right - block.length.scale_pow2(-1)
            assert (lo, mid, mid_, hi) == (block.left, center, center, block.right)
            assert abs(c0) ** 2 + abs(c1) ** 2 == 0.5

    def test_step_scales_a_pure_tone_by_its_piece(self):
        family = interval_arrays(2, -6, 5)[-1]
        bank = step_multiplier(family, -6, 2, np.random.default_rng(4))
        lam = 43.0 / 16.0
        lam_d = DyadicScalar.from_float(lam)
        owners = [c for lo, hi, c in bank_windows(bank) if lo <= lam_d and lam_d < hi]
        assert len(owners) == 1
        n = 1 << 10
        x = -8.0 + (16.0 / n) * np.arange(n)
        sig = Signal(np.exp(2j * np.pi * lam * x), 16.0, -8.0)
        out = bank.combine(sig)
        expected = owners[0] * sig.samples
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_hormander_symbol_is_multiplicative_on_tones(self):
        cfg = tiny_config(log2_n=10)
        op = hn.build_operator("hormander", cfg, np.random.default_rng(2))
        n = 1 << 10
        x = -8.0 + (16.0 / n) * np.arange(n)
        inside = Signal(np.exp(2j * np.pi * 2.6875 * x), 16.0, -8.0)
        mags = np.abs(op.apply(inside, None))
        # a pure tone maps to |m(lam)| times itself: constant magnitude
        assert np.ptp(mags) < 1e-10
        far = Signal(np.exp(2j * np.pi * 48.0 * x), 16.0, -8.0)
        assert np.max(np.abs(op.apply(far, None))) < 1e-12

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

    @pytest.mark.parametrize("kind", ["lp", "smooth-sqfn"])
    def test_square_operators_match_band_by_band_sum(self, kind, monkeypatch):
        # the verify banks at tau 3 (the eta rows drop their zero weights) on
        # the ensemble and its 4x refinement
        square = BandBank.square
        seen = []

        def checked(bank, sig, flags=None):
            got = square(bank, sig, flags)
            want = square_reference(bank, sig)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
            seen.append((got, sig))
            return got

        monkeypatch.setattr(BandBank, "square", checked)
        cfg = hn.make_config({"log2_n": 11, "tau": 3, "ensemble": 3, "seed": 5})
        run = hn.verify_endpoint if kind == "lp" else hn.verify_hormander
        rep = run(cfg, kind)
        assert rep.ok and len(seen) == 2 * cfg.ensemble
        for out, sig in seen:
            assert_weak_type_ratio_matches_reference(out, sig.samples, sig.dx,
                                                     rep.exponent, cfg.n_levels)

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
    def test_the_ratio_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma (12-15 ms) on first use; a fresh
        # process that measures one ratio must not pay for it
        script = ("import sys\nimport numpy as np\nfrom lacuna.harness import weak_type_ratio\n"
                  "weak_type_ratio(np.arange(256.0) % 7, np.ones(256), 1 / 256, 1.0)\n"
                  "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
        src = os.path.dirname(os.path.dirname(hn.__file__))
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=60,
                             env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == 0, run.stderr.decode()

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

    @pytest.mark.parametrize("exponents", [(1.0, 0.5)] + [(tau / 2, (tau - 1) / 2)
                                                          for tau in (1, 2, 3, 4)])
    def test_masses_are_young_functions_bitwise(self, exponents):
        # growth's pair, and verify's tau/2 and (tau - 1)/2: each mass of
        # _sup_ratios is dx * sum B(t) by YoungFunction, through the one
        # power path of orlicz
        rng = np.random.default_rng(43)
        absin = np.concatenate([rng.lognormal(0.0, 3.0, 4093), [1e-300, 1.0, 1e300]])
        dx = 2.0**-12
        for a in (1e-3, 0.7, 1.0, 64.0, 1e250):
            t = absin / a
            with np.errstate(over="ignore"):  # the mass at 1e300 / 1e-3
                want = [dx * float(np.sum(YoungFunction(p)(t))) for p in exponents]
                got = hn._orlicz_masses(t, dx, [YoungFunction(p) for p in exponents])
                ratios = hn._sup_ratios(np.array([a]), np.array([7]), absin, dx, exponents)
            assert list(map(repr, got)) == list(map(repr, want))
            for ratio, rhs in zip(ratios, want, strict=True):
                assert repr(ratio["max_ratio"]) == repr(dx * 7 / rhs if rhs > 0.0 else 0.0)

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_matches_per_threshold_loop_on_growth_rows(self, order):
        fam = build_sharpness_family(order, 14)
        g = fam.g_n
        agg = fam.bank.square(g)
        inside = np.abs(g.x) < 1.0
        # the aggregate, then outputs that vanish off [-1, 1] exactly and to
        # about the 1e-13 * peak cutoff of the level grid
        for out in (agg, agg * inside, agg * np.where(inside, 1.0, 1.2e-13)):
            for exponent in (1.0, 0.5):
                assert_weak_type_ratio_matches_reference(out, g.samples, g.dx, exponent, 40)

    @pytest.mark.parametrize("order", range(2, 8))
    def test_pruned_levels_on_growth_rows_are_bitwise(self, order):
        # the growth study's inputs at 2^14: the aggregate on g_N against
        # g_N's block, both exponents in one pass
        fam = build_sharpness_family(order, 14)
        g = fam.g_n
        agg = fam.bank.square(g)
        assert_sup_ratios_bitwise(agg, g.samples[fam.block], g.dx, (1.0, 0.5), 40)

    @pytest.mark.parametrize("experiment, operator", [
        ("endpoint", "prototype"), ("endpoint", "step"), ("endpoint", "lp"),
        ("hormander", "hormander"), ("hormander", "smooth-sqfn")])
    def test_pruned_levels_on_verify_inputs_are_bitwise(self, experiment, operator,
                                                        monkeypatch):
        # every ratio of the verify commands at the benchmark's tau, grid and
        # ensemble: twelve signals, each on its grid and the x4 refinement
        seen = []
        real_levels, real = hn._ratio_levels, hn._sup_ratios

        def levels(out_mags, n_levels):
            out = real_levels(out_mags, n_levels)
            for got, want in zip(out, reference_ratio_levels(out_mags, n_levels)):
                assert got.tobytes() == want.tobytes()
            return out

        def recording(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(hn, "_ratio_levels", levels)
        monkeypatch.setattr(hn, "_sup_ratios", recording)
        cfg = hn.ExperimentConfig(log2_n=13, tau=3, ensemble=6, seed=10, refine=True)
        run = hn.verify_endpoint if experiment == "endpoint" else hn.verify_hormander
        run(cfg, operator)
        assert len(seen) == 12
        for alphas, counts, in_vals, dx, exponents in seen:
            assert real(alphas, counts, in_vals, dx, exponents) == \
                reference_sup_ratios(alphas, counts, in_vals, dx, exponents)

    @given(st.lists(st.sampled_from([0.0, 1e-300, 0.25, 0.5, 1.0, 3.0, 7.5, 1e3, 1e150]),
                    min_size=1, max_size=40),
           st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40),
           st.sampled_from([2, 5, 40]), st.sampled_from([0.125, 1.0, 3.0]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_pruned_levels_on_drawn_magnitudes_are_bitwise(self, out, vals, n_levels, dx):
        # few distinct values: single levels, ties and repeated counts
        for exponents in ((1.0, 0.5), (0.0,), (1.5,)):
            assert_sup_ratios_bitwise(np.array(out), np.array(vals), dx, exponents, n_levels)

    @pytest.mark.parametrize("out, vals", [
        (np.zeros(6), np.ones(6)), (np.ones(6), np.zeros(6)), (np.full(6, 2.0), np.ones(6)),
        (np.array([1.0, 2.0, 2.0, 4.0]), np.array([4.0, 2.0, 2.0, 1.0])),
        (np.array([1.0, 1.0, 2.0, 2.0]), np.ones(4)),
        (np.array([1.0, 1e-200, 1e200]), np.array([1e-310, 1.0, 1e300]))])
    def test_pruned_levels_edge_cases_are_bitwise(self, out, vals):
        # all-zero outputs or inputs, a single level, tied levels and masses
        # near the float range's ends
        for exponents in ((1.0, 0.5), (0.0,)):
            assert_sup_ratios_bitwise(out, vals, 0.5, exponents, 24)

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
        pts = lac_tau(2, DyadicScalar(1, 0), DyadicScalar(nu - 1, 0))
        lams = np.array([p.mantissa << p.exponent for p in pts.points])
        assert 3 in lams
        # the report's integer map from the unit lattice to the DFT bins
        # against the float one, frequency times period rounded
        pos = (lams << cfg.log2_period) % sig.n
        assert np.array_equal(pos, np.rint(lams * sig.period).astype(int) % sig.n)
        coeffs = np.abs(np.fft.fft(sig.samples)[pos]) * sig.dx
        lhs = float(np.sqrt(np.sum(coeffs ** 2)))
        assert lhs == pytest.approx(1.0, abs=1e-12)
        # the offset phase of the true-phase transform cancels in the modulus
        with_phase = np.abs(spectrum(sig)[pos])
        assert np.all(np.abs(coeffs - with_phase) <= 1e-15 * np.max(with_phase))
        rhs = luxemburg_avg(np.abs(sig.samples[mask]), 1.0)
        assert rhs == pytest.approx(luxemburg_avg(np.ones(mask.sum()), 1.0), rel=1e-12)

    def test_coefficients_match_the_complex_path(self, monkeypatch):
        # a real member's coefficients come from one rfft: against the complex
        # fft of the same samples each coefficient-built field lies within
        # 1e-14, the Luxemburg side is bitwise, and complex members are bitwise
        cfg = hn.make_config({"log2_n": 11, "tau": 2, "ensemble": 4, "seed": 3})
        got = hn.verify_zygmund_bonami(cfg)
        monkeypatch.setattr(czd, "coefficients",
                            lambda samples, pos: np.fft.fft(samples.astype(complex))[pos])
        want = hn.verify_zygmund_bonami(cfg)
        moved = 0
        for a, b in zip(got.samples, want.samples, strict=True):
            assert a.keys() == b.keys() and a["rhs"] == b["rhs"]
            for key in ("lhs", "ratio", "fine_ratio"):
                assert a[key] == pytest.approx(b[key], rel=1e-14, abs=0.0)
                moved += a[key] != b[key]
            if a["label"].startswith("lacpoly"):
                assert a == b
        assert moved

    def test_out_of_band_frequency_rejected(self):
        # 32 samples on a window of 16: the unit-lattice frequency 1 is the
        # Nyquist bin 16, and no nonzero one lies below it
        with pytest.raises(ValueError, match="no nonzero unit-lattice frequency"):
            hn.verify_zygmund_bonami(tiny_config(log2_n=5))


class TestGenZygmundBonami:
    def test_bank_rows_are_resolved_once_per_grid(self, monkeypatch):
        # three banks (wide, sub-unit, all) at two grids, however many samples
        cfg = tiny_config(log2_n=10, ensemble=4)
        resolved = []
        real = BandBank._resolve

        def counting(bank, sig):
            resolved.append((id(bank), bank.label, sig.n, sig.period))
            return real(bank, sig)

        monkeypatch.setattr(BandBank, "_resolve", counting)
        cached = hn.report_to_json(hn.verify_gen_zygmund_bonami(cfg))
        assert len(resolved) == 6 and len(set(resolved)) == 6
        assert {label for _, label, _, _ in resolved} == {
            "project_smooth", "cancellative", "combined"}
        # against plans resolved anew at every use: every operation reads
        # its grid's plan through _grid
        grid = BandBank._grid

        def fresh_grid(bank, sig, flags):
            bank.grids.clear()
            return grid(bank, sig, flags)

        monkeypatch.setattr(BandBank, "_grid", fresh_grid)
        resolved.clear()
        fresh = hn.report_to_json(hn.verify_gen_zygmund_bonami(cfg))
        assert len(resolved) == 3 * 2 * cfg.ensemble
        assert cached == fresh

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

    def test_newton_rows_match_the_bisection_reference(self, monkeypatch):
        # every Luxemburg average of the report, the per-band rows included,
        # against the bracketed bisection the Newton solve replaced
        cfg = tiny_config(log2_n=10, ensemble=2, tau=2, sigma=2)
        newton = json.loads(hn.report_to_json(hn.verify_gen_zygmund_bonami(cfg)))
        monkeypatch.setattr(hn, "luxemburg_avg", bisection_luxemburg)
        bisected = json.loads(hn.report_to_json(hn.verify_gen_zygmund_bonami(cfg)))

        def leaves(node, path=()):
            if isinstance(node, dict):
                for key, val in node.items():
                    yield from leaves(val, path + (key,))
            elif isinstance(node, list):
                for i, val in enumerate(node):
                    yield from leaves(val, path + (i,))
            else:
                yield path, node

        got, want = dict(leaves(newton)), dict(leaves(bisected))
        assert got.keys() == want.keys()
        floats = 0
        for path, a in got.items():
            b = want[path]
            if isinstance(a, float) and isinstance(b, float):
                assert abs(a - b) <= 1e-9 * max(abs(a), abs(b)), path
                floats += 1
            else:
                assert a == b, path
        assert floats > 0


class TestRefinementRule:
    """One pairing of coarse and x4-finer rows behind every verify experiment."""

    def test_every_kept_row_carries_its_drift(self):
        cfg = tiny_config(log2_n=10)
        reports = [hn.verify_endpoint(cfg, op) for op in hn.ENDPOINT_OPERATORS]
        reports += [hn.verify_hormander(cfg, op) for op in hn.HORMANDER_OPERATORS]
        reports += [hn.verify_zygmund_bonami(cfg), hn.verify_gen_zygmund_bonami(cfg)]
        for rep in reports:
            kept = [row for row in rep.samples if not row["aborted"]]
            assert kept, rep.experiment
            for row in kept:
                assert row["drift"] == hn._drift(row["ratio"], row["fine_ratio"])
            assert rep.refinement["pairs"] == len(kept)

    def test_fine_grid_abort_aborts_its_coarse_mates(self, monkeypatch):
        # only the fine grid's coefficient removal check fails: the coarse
        # cancellative and combined rows lose their mates and abort with them
        cfg = tiny_config(log2_n=10, ensemble=2)
        fine_piece = 1 << (cfg.log2_n + 2 - cfg.log2_period)
        real = hn.lattice_coefficients

        def failing_on_fine(piece, freqs):
            coeffs = real(piece, freqs)
            return coeffs + 1.0 if piece.n == fine_piece else coeffs

        monkeypatch.setattr(hn, "lattice_coefficients", failing_on_fine)
        rep = hn.verify_gen_zygmund_bonami(cfg)
        assert not rep.ok
        for row in rep.samples:
            if row["branch"] in ("cancellative", "combined"):
                assert row["aborted"] and row["note"] == "coefficient removal residual"
                assert "drift" not in row
                assert (f"{row['label']} {row['branch']} gamma 2: aborted"
                        " (coefficient removal residual)") in rep.notes
            else:
                assert not row["aborted"] and "drift" in row
        assert rep.refinement["pairs"] == sum(not row["aborted"] for row in rep.samples)
        # one note per failing row, naming its cause, and no summary note
        # repeating their labels
        assert rep.notes == [f"{row['label']} {row['branch']} gamma 2: aborted ({row['note']})"
                             for row in rep.samples if row["aborted"]]

    def test_failing_rows_are_named_in_the_notes(self):
        cfg = hn.make_config({"log2_n": 10, "tau": 3, "sigma": 0, "gamma": 2.0,
                              "ensemble": 3, "seed": 9})
        rep = hn.verify_gen_zygmund_bonami(cfg)
        assert not rep.ok and not any(row["aborted"] for row in rep.samples)
        assert rep.notes == ["bump-0 cancellative gamma 2: drift 2.7287 above 2"]


@settings(max_examples=40, deadline=None, derandomize=True)  # the same draws each run
@given(tau=st.integers(1, 6), log2_period=st.integers(1, hn.MAX_SCALE_LOG2),
       log2_n=st.integers(4, 8), min_scale_log2=st.integers(-hn.MAX_SCALE_LOG2, 0))
def test_no_experiment_bank_aliases(tau, log2_period, log2_n, min_scale_log2):
    # the experiments keep no alias abort: every bank an admitted endpoint,
    # hormander or gen-zygmund-bonami run builds resolves with no alias event
    # on the base grid and on the x4 refine grid
    cfg = hn.make_config({"tau": tau, "period": 2.0**log2_period, "log2_n": log2_n,
                          "min_scale_log2": min_scale_log2, "ensemble": 1})
    flags = AliasFlags()
    for grid in (log2_n, log2_n + 2):
        sig = Signal(np.zeros(1 << grid), cfg.period, -cfg.period / 2)
        for kind in hn.ENDPOINT_OPERATORS + hn.HORMANDER_OPERATORS:
            try:
                op = hn.build_operator(kind, cfg)
            except ValueError:  # the experiment refuses this config
                continue
            op.apply(sig, flags)
        try:
            banks = hn._gen_zb_banks(cfg)
        except ValueError:
            continue
        for bank in banks:
            bank.symbol(sig, flags=flags)
    assert not flags.aliased, flags.events


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
        # the closed-form least-squares slopes are np.polyfit's to rounding
        ns = np.log([row["n"] for row in rep["rows"]])
        for key, field in (("slope_det", "weak_det"), ("slope_rand", "weak_rand_max")):
            fit = np.polyfit(ns, np.log([row[field] for row in rep["rows"]]), 1)[0]
            assert rep[key] == pytest.approx(fit, rel=1e-14)

    def test_infeasible_parameters_are_skipped(self):
        # at 2^9 samples over a window of 16 only N = 2 fits the band
        cfg = hn.make_config({"log2_n": 9, "n_min": 2, "n_max": 20, "khintchine": 0})
        rep = hn.sharpness_growth(cfg)
        assert [row["n"] for row in rep["rows"]] == [2]
        assert not rep["ok"]
        assert any("skipped" in note for note in rep["notes"])

    @pytest.mark.parametrize("period", [16.0, 8.0])
    def test_khintchine_rows_match_the_per_draw_combine_loop(self, period):
        # the draws read g_N's coefficients once per order; the loop they
        # replaced called bank.combine(g, signs) for each draw
        cfg = hn.make_config({"log2_n": 13, "period": period, "n_min": 2, "n_max": 6,
                              "khintchine": 5})
        rows = hn.sharpness_growth(cfg)["rows"]
        rng = np.random.default_rng(cfg.seed)
        for row in rows:
            fam = build_sharpness_family(row["n"], cfg.log2_n, cfg.period)
            weaks = []
            for signs in rng.choice([-1.0, 1.0], size=(cfg.khintchine, len(fam.pairs))):
                out = fam.bank.combine(fam.g_n, signs)
                weaks.append(hn.weak_l1_norm(np.abs(out[fam.block]), fam.g_n.dx))
            assert repr(row["weak_rand_max"]) == repr(max(weaks))
            assert repr(row["weak_rand_median"]) == repr(float(np.median(weaks)))

    def test_khintchine_draws_read_the_coefficients_once_per_order(self, monkeypatch):
        # the draws' work, counted (ROADMAP item 22): five draws add one read
        # of g_N's coefficients per order to the study without draws
        real, calls = spectral.coefficients, []

        def counting(samples, pos):
            calls.append(samples.size)
            return real(samples, pos)

        monkeypatch.setattr(spectral, "coefficients", counting)
        reads = {}
        for draws in (0, 5):
            calls.clear()
            cfg = hn.make_config({"log2_n": 12, "n_min": 2, "n_max": 5, "khintchine": draws})
            orders = len(hn.sharpness_growth(cfg)["rows"])
            reads[draws] = len(calls)
        assert orders == 4 and reads[0] > 0
        assert reads[5] == reads[0] + orders

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

    def test_json_writer_prints_non_finite_floats_as_null(self):
        payload = {"ok": False, "rows": [{"ratio": math.inf, "drift": -math.inf},
                                         {"ratio": math.nan, "x": 0.1 + 0.2}],
                   "max": 1.7976931348623157e308, "tiny": 5e-324, "note": "drift inf"}
        text = hn.report_to_json(payload)
        got = json.loads(text, parse_constant=lambda token: pytest.fail(token))
        assert got["rows"] == [{"ratio": None, "drift": None}, {"ratio": None, "x": 0.1 + 0.2}]
        # finite floats keep their bytes
        finite = dict(payload, rows=[])
        assert hn.report_to_json(finite) == json.dumps(finite, indent=2, sort_keys=True) + "\n"

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
