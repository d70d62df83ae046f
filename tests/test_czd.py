"""Tests for the level-set decomposition with lacunary coefficient removal.

Oracles: stopping intervals recomputed by enumerating every aligned dyadic
block and filtering to maximal ones; vanishing coefficients re-checked by
direct quadrature at each frequency (the implementation works through local
FFT bins, so the quadrature is an independent path); the batched
integer-phase quadrature checked against the per-frequency one.
"""

import json

import numpy as np
import pytest

from lacuna import czd
from lacuna.orlicz import YoungFunction, luxemburg_avg
from lacuna.spectral import Signal, plateau_bump, read_signal


def grid_signal(func, n=256, period=2.0, offset=0.0):
    x = offset + period / n * np.arange(n)
    return Signal(func(x), period=period, offset=offset)


def square_pulse(n=256):
    """1 on [0,1), 0 on [1,2); the single-atom worked example."""
    return grid_signal(lambda x: (x < 1.0).astype(float), n=n, period=2.0)


def random_signal(n, seed, period=8.0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(n) * np.exp(
        -0.5 * (np.linspace(-3, 3, n, endpoint=False)) ** 2
    )
    return Signal(vals, period=period, offset=-period / 2)


def brute_stopping(sig, sigma, alpha):
    """All aligned dyadic blocks with average > alpha, filtered to maximal."""
    v = np.abs(sig.samples)
    n = sig.n
    qualifying = []
    size = n
    while size >= 1:
        for lo in range(0, n, size):
            if luxemburg_avg(v[lo : lo + size], sigma / 2) > alpha:
                qualifying.append((lo, lo + size))
        size //= 2
    maximal = [
        b
        for b in qualifying
        if not any(o != b and o[0] <= b[0] and b[1] <= o[1] for o in qualifying)
    ]
    return sorted(maximal)


class TestLeafThreshold:
    def test_sigma_zero(self):
        assert czd.leaf_threshold(0.0) == 1.0

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_solves_unit_equation(self, s):
        t = czd.leaf_threshold(s)
        assert 0 < t < 1
        assert float(YoungFunction(s)(t)) == pytest.approx(1.0, abs=1e-12)


class TestStoppingIntervals:
    def test_square_pulse_single_block(self):
        sig = square_pulse()
        out = czd.stopping_intervals(sig, 0, 0.5)
        assert len(out) == 1
        j = out[0]
        assert (j.lo, j.hi) == (0, sig.n // 2)
        assert (j.x_lo, j.x_hi) == (0.0, 1.0)
        assert j.length == 1.0

    def test_alpha_above_max_gives_empty(self):
        sig = square_pulse()
        assert czd.stopping_intervals(sig, 0, 1.5) == ()

    def test_root_exceeding_raises(self):
        sig = square_pulse()
        with pytest.raises(ValueError):
            czd.stopping_intervals(sig, 0, 0.25)

    def test_parameter_validation(self):
        sig = square_pulse(16)
        with pytest.raises(ValueError):
            czd.stopping_intervals(sig, 0.5, 1.0)
        with pytest.raises(ValueError):
            czd.stopping_intervals(sig, 0, 0.0)

    @pytest.mark.parametrize("sigma", [0, 1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_enumeration(self, sigma, seed):
        sig = random_signal(64, seed=seed)
        root = luxemburg_avg(np.abs(sig.samples), sigma / 2)
        alpha = 2.0 * root
        got = [(j.lo, j.hi) for j in czd.stopping_intervals(sig, sigma, alpha)]
        assert got == brute_stopping(sig, sigma, alpha)
        assert len(got) > 0  # the draw actually exercises the walk

    def test_disjoint_and_sorted(self):
        sig = random_signal(512, seed=3)
        alpha = 2.0 * luxemburg_avg(np.abs(sig.samples), 0.5)
        out = czd.stopping_intervals(sig, 1, alpha)
        for a, b in zip(out, out[1:]):
            assert a.hi <= b.lo

    def test_sandwich_on_every_block(self):
        sig = random_signal(256, seed=4)
        for sigma in (0, 1, 2):
            alpha = 1.5 * luxemburg_avg(np.abs(sig.samples), sigma / 2)
            for j in czd.stopping_intervals(sig, sigma, alpha):
                avg = luxemburg_avg(np.abs(sig.samples[j.lo : j.hi]), sigma / 2)
                assert alpha * (1 - 1e-9) < avg <= 2 * alpha * (1 + 1e-9)

    def test_measure_bound(self):
        sig = random_signal(1024, seed=5)
        for sigma in (0, 1, 2):
            alpha = 1.2 * luxemburg_avg(np.abs(sig.samples), sigma / 2)
            total = sum(j.length for j in czd.stopping_intervals(sig, sigma, alpha))
            assert total <= czd.young_mass(sig, sigma, alpha) * (1 + 1e-9)


class TestLacunaryFrequencies:
    def test_order_zero_is_mean_only(self):
        assert czd.lacunary_frequencies(1.0, 8.0, 0) == (0.0,)

    def test_order_one_unit_scale(self):
        got = czd.lacunary_frequencies(1.0, 8.0, 1)
        assert got == (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0)

    def test_order_two_fills_integers(self):
        got = czd.lacunary_frequencies(1.0, 8.0, 2)
        assert got == tuple(float(q) for q in range(-7, 8))

    def test_scale_halves_with_doubled_length(self):
        unit = np.array(czd.lacunary_frequencies(1.0, 8.0, 1))
        doubled = np.array(czd.lacunary_frequencies(2.0, 4.0, 1))
        assert np.array_equal(doubled, unit / 2.0)

    def test_tight_nyquist_keeps_only_zero(self):
        assert czd.lacunary_frequencies(1.0, 1.0, 2) == (0.0,)

    def test_all_on_local_lattice(self):
        for f in czd.lacunary_frequencies(4.0, 16.0, 2):
            assert (f * 4.0) == round(f * 4.0)
            assert abs(f) < 16.0

    def test_non_dyadic_length_rejected(self):
        with pytest.raises(ValueError):
            czd.lacunary_frequencies(3.0, 8.0, 1)

    def test_memoized_one_enumeration_per_order(self, monkeypatch):
        calls = []
        real = czd.lac_tau

        def counting(tau, min_scale, max_abs):
            calls.append(tau)
            return real(tau, min_scale, max_abs)

        monkeypatch.setattr(czd, "lac_tau", counting)
        czd._lacunary_frequencies.cache_clear()
        first = czd.lacunary_frequencies(0.5, 64.0, 2)
        assert czd.lacunary_frequencies(0.5, 64, 2) is first
        assert calls == [1, 2]
        czd._lacunary_frequencies.cache_clear()


class TestWindowedCoefficient:
    def test_pure_local_tone(self):
        piece = grid_signal(
            lambda x: np.exp(2j * np.pi * 3.0 * x), n=64, period=2.0, offset=0.5
        )
        # frequency 3 = 6/|J| is on the local lattice: coefficient = |J|
        assert czd.windowed_coefficient(piece, 3.0) == pytest.approx(2.0, abs=1e-12)
        assert abs(czd.windowed_coefficient(piece, 2.5)) < 1e-12

    def test_mean_at_zero(self):
        piece = grid_signal(lambda x: np.full_like(x, 1.5), n=16, period=4.0)
        assert czd.windowed_coefficient(piece, 0.0) == pytest.approx(6.0)


class TestLatticeCoefficients:
    """The batched integer-phase quadrature against the per-frequency one."""

    @pytest.mark.parametrize("log2_n", range(16))
    def test_matches_windowed_coefficient(self, log2_n):
        rng = np.random.default_rng(100 + log2_n)
        n = 1 << log2_n
        period = 2.0 ** (log2_n - 10)
        for offset in (-period / 2, 3.375 * period + 0.125):
            vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            piece = Signal(vals, period=period, offset=offset)
            tol = 1e-11 * period * np.sqrt(np.mean(np.abs(vals) ** 2))
            for sigma in range(4):
                freqs = czd.lacunary_frequencies(period, n / (2 * period), sigma)
                got = czd.lattice_coefficients(piece, freqs)
                assert got.shape == (len(freqs),)
                # the reference costs n exponentials per frequency: check the
                # extremes and a random sample of the rest
                pick = {0, len(freqs) - 1}
                pick.update(rng.choice(len(freqs), size=min(len(freqs), 24)).tolist())
                for i in sorted(pick):
                    ref = czd.windowed_coefficient(piece, freqs[i])
                    assert abs(got[i] - ref) <= tol

    def test_off_lattice_frequency_rejected(self):
        piece = Signal(np.ones(16), period=2.0, offset=-1.0)
        with pytest.raises(ValueError):
            czd.lattice_coefficients(piece, [0.25])


class TestRemoveLacunary:
    def rand_piece(self, n=128, period=1.0, seed=10, offset=0.25):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return Signal(vals, period=period, offset=offset)

    def test_sigma_zero_removes_exactly_the_mean(self):
        piece = self.rand_piece()
        canc, lac = czd.remove_lacunary(piece, 0)
        mean = np.mean(piece.samples)
        assert np.max(np.abs(lac.samples - mean)) < 1e-12
        assert np.max(np.abs(canc.samples - (piece.samples - mean))) < 1e-12

    def test_parts_sum_back(self):
        piece = self.rand_piece(seed=11)
        canc, lac = czd.remove_lacunary(piece, 2)
        err = np.max(np.abs(canc.samples + lac.samples - piece.samples))
        assert err < 1e-15 * np.max(np.abs(piece.samples))

    @pytest.mark.parametrize("sigma", [0, 1, 2])
    def test_vanishing_by_direct_quadrature(self, sigma):
        piece = self.rand_piece(seed=12 + sigma)
        canc, _ = czd.remove_lacunary(piece, sigma)
        nu = piece.n / (2 * piece.period)
        scale = piece.period * np.sqrt(np.mean(np.abs(piece.samples) ** 2))
        for f in czd.lacunary_frequencies(piece.period, nu, sigma):
            assert abs(czd.windowed_coefficient(canc, f)) < 1e-12 * scale

    def test_lattice_exponential_fully_removed(self):
        # a tone on the local lattice at a first-order lacunary frequency
        piece = grid_signal(
            lambda x: np.exp(2j * np.pi * 4.0 * x), n=128, period=1.0, offset=-0.5
        )
        canc, lac = czd.remove_lacunary(piece, 1)
        assert np.max(np.abs(canc.samples)) < 1e-12
        assert np.max(np.abs(lac.samples - piece.samples)) < 1e-12

    def test_offset_does_not_matter(self):
        rng = np.random.default_rng(14)
        vals = rng.standard_normal(64)
        a = Signal(vals, period=0.5, offset=0.0)
        b = Signal(vals, period=0.5, offset=-7.25)
        canc_a, _ = czd.remove_lacunary(a, 2)
        canc_b, _ = czd.remove_lacunary(b, 2)
        assert np.max(np.abs(canc_a.samples - canc_b.samples)) < 1e-12

    def test_projection_idempotent(self):
        piece = self.rand_piece(seed=15)
        canc, _ = czd.remove_lacunary(piece, 2)
        again, lac2 = czd.remove_lacunary(canc, 2)
        assert np.max(np.abs(lac2.samples)) < 1e-13
        assert np.max(np.abs(again.samples - canc.samples)) < 1e-13

    def test_pythagoras(self):
        piece = self.rand_piece(seed=16)
        canc, lac = czd.remove_lacunary(piece, 1)
        total = np.sum(np.abs(piece.samples) ** 2)
        split = np.sum(np.abs(canc.samples) ** 2) + np.sum(np.abs(lac.samples) ** 2)
        assert split == pytest.approx(total, rel=1e-12)

    def test_single_sample_atom(self):
        piece = Signal(np.array([3.0]), period=2.0 ** -5, offset=0.125)
        canc, lac = czd.remove_lacunary(piece, 2)
        assert canc.samples[0] == 0.0
        assert lac.samples[0] == 3.0


class TestDecomposition:
    def test_square_pulse_worked_example(self):
        sig = square_pulse()
        dec = czd.cz_decompose(sig, 0, 0.5)
        assert len(dec.atoms) == 1
        # everything of f lives on the one stopping interval
        assert np.max(np.abs(dec.good.samples)) == 0.0
        # the atom is mean-free, so the lacunary part carries the pulse
        assert np.max(np.abs(dec.atoms[0].cancellative.samples)) < 1e-12
        assert np.max(np.abs(dec.lacunary_part.samples - sig.samples)) < 1e-12
        err = np.max(np.abs(dec.reconstruct().samples - sig.samples))
        assert err < 1e-12
        assert dec.constants["measure_bound_ratio"] == pytest.approx(0.5)
        assert dec.constants["sandwich_ok"]

    def test_alpha_above_max(self):
        sig = square_pulse()
        dec = czd.cz_decompose(sig, 1, 10.0)
        assert dec.atoms == ()
        assert np.array_equal(dec.good.samples, sig.samples)
        assert np.max(np.abs(dec.lacunary_part.samples)) == 0.0

    def test_residual_certificate_survives_huge_samples(self):
        # squaring these samples overflows; the atom diagnostics must not
        vals = np.zeros(256)
        vals[8:24] = 1.2e154
        sig = Signal(vals, 1.0, -0.5)
        with np.errstate(over="ignore"):
            dec = czd.cz_decompose(sig, 1, 3e153)
        assert dec.atoms
        for atom in dec.atoms:
            assert np.isfinite(atom.diagnostics["lacunary_l2"])
            assert atom.diagnostics["residual_coefficient"] <= 1e-12

    @pytest.mark.parametrize("sigma", [0, 1, 2])
    def test_random_ensemble_invariants(self, sigma):
        for seed in range(4):
            sig = random_signal(1024, seed=30 + seed)
            alpha = 1.5 * luxemburg_avg(np.abs(sig.samples), sigma / 2)
            dec = czd.cz_decompose(sig, sigma, alpha)
            c = dec.constants
            assert c["reconstruction_error"] < 1e-10
            assert c["measure_bound_ratio"] <= 1.0 + 1e-9
            assert c["max_residual_coefficient"] < 1e-9
            assert c["sandwich_ok"]
            assert c["good_sup_constant"] <= 1.0 + 1e-9
            assert c["good_l1_ratio"] <= 1.0 + 1e-12

    def test_spiky_member_residuals_at_rounding_level(self, monkeypatch):
        # a gate 06 style member: wide plateaus plus narrow tall spikes at 2^16
        rng = np.random.default_rng(3107)
        n, period = 1 << 16, 16.0
        x = -period / 2 + period / n * np.arange(n)
        vals = np.zeros(n)
        for lo_w, hi_w, lo_a, hi_a, count in ((-2.0, 0.5, 0.3, 1.5, 2),
                                              (-4.0, -2.0, 3.0, 8.0, 3)):
            for _ in range(count):
                c = rng.uniform(-0.35, 0.35) * period
                w = 2.0 ** rng.uniform(lo_w, hi_w)
                a = rng.choice([-1.0, 1.0]) * rng.uniform(lo_a, hi_a)
                vals += a * plateau_bump((x - c) / w, 0.5, 1.0)
        sig = Signal(vals, period, -period / 2)

        def no_reference(*args):
            raise AssertionError("the decomposition ran the per-frequency loop")

        calls = []
        real = czd.lacunary_frequencies

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(czd, "windowed_coefficient", no_reference)
        monkeypatch.setattr(czd, "lacunary_frequencies", counting)
        alpha = 1.5 * luxemburg_avg(np.abs(sig.samples), 1.0)
        dec = czd.cz_decompose(sig, 2, alpha)
        assert len(dec.atoms) > 1
        assert len(calls) == len(dec.atoms)
        for atom in dec.atoms:
            assert atom.diagnostics["residual_coefficient"] <= 1e-12

    def test_good_part_bounded_by_leaf_threshold(self):
        sig = random_signal(512, seed=40)
        sigma = 2
        alpha = 1.2 * luxemburg_avg(np.abs(sig.samples), sigma / 2)
        dec = czd.cz_decompose(sig, sigma, alpha)
        t_star = czd.leaf_threshold(sigma / 2)
        assert np.max(np.abs(dec.good.samples)) <= t_star * alpha * (1 + 1e-9)

    def test_refinement_keeps_constants_stable(self):
        def gen(x):
            return np.exp(-(x**2)) * (2.0 + np.sin(3.0 * x))

        coarse = grid_signal(gen, n=512, period=8.0, offset=-4.0)
        fine = grid_signal(gen, n=2048, period=8.0, offset=-4.0)
        alpha = 1.2 * luxemburg_avg(np.abs(coarse.samples), 0.5)
        a = czd.cz_decompose(coarse, 1, alpha).constants
        b = czd.cz_decompose(fine, 1, alpha).constants
        for key in ("measure_bound_ratio", "good_sup_constant", "max_atom_constant"):
            lo, hi = sorted([a[key], b[key]])
            assert hi <= 2.0 * max(lo, 1e-12)

    def test_threaded_matches_serial(self):
        sig = random_signal(1024, seed=41)
        alpha = 1.3 * luxemburg_avg(np.abs(sig.samples), 0.5)
        serial = czd.cz_decompose(sig, 1, alpha, threads=1)
        threaded = czd.cz_decompose(sig, 1, alpha, threads=4)
        assert np.array_equal(serial.good.samples, threaded.good.samples)
        assert np.array_equal(
            serial.lacunary_part.samples, threaded.lacunary_part.samples
        )
        assert serial.to_json_dict() == threaded.to_json_dict()

    def test_margin_guard(self):
        vals = np.zeros(256)
        vals[120:136] = 1.0  # 16 of 256 samples: margin 16x
        sig = Signal(vals, period=8.0, offset=-4.0)
        assert czd.support_margin(sig) == pytest.approx(16.0)
        czd.cz_decompose(sig, 0, 2.0, min_margin=4.0)  # passes the guard
        with pytest.raises(ValueError):
            czd.cz_decompose(sig, 0, 2.0, min_margin=100.0)

    def test_atom_diagnostics_fields(self):
        sig = random_signal(512, seed=43)
        alpha = 1.4 * luxemburg_avg(np.abs(sig.samples), 0.5)
        dec = czd.cz_decompose(sig, 1, alpha)
        assert len(dec.atoms) > 0
        for atom in dec.atoms:
            d = atom.diagnostics
            assert d["n_frequencies"] >= 1
            assert d["atom_constant"] >= 0
            assert d["lacunary_constant"] >= 0
            assert d["hi"] - d["lo"] == atom.cancellative.n

    def test_save_round_trip(self, tmp_path):
        sig = random_signal(256, seed=44, period=8.0)
        alpha = 1.5 * luxemburg_avg(np.abs(sig.samples), 0.0)
        dec = czd.cz_decompose(sig, 0, alpha)
        paths = dec.save(tmp_path / "case")
        with open(paths["json"]) as fh:
            meta = json.load(fh)
        assert meta["sigma"] == 0
        assert meta["n"] == 256
        assert len(meta["stopping"]) == len(dec.stopping)
        good = read_signal(paths["good"])
        assert np.array_equal(good.samples, dec.good.samples)
        lac = read_signal(paths["lacunary"])
        assert np.array_equal(lac.samples, dec.lacunary_part.samples)

    def test_json_serializable(self):
        sig = random_signal(128, seed=45)
        alpha = 2.0 * luxemburg_avg(np.abs(sig.samples), 1.0)
        dec = czd.cz_decompose(sig, 2, alpha)
        text = json.dumps(dec.to_json_dict())
        assert "constants" in json.loads(text)

    def test_young_mass_sigma_zero(self):
        sig = square_pulse(64)
        # sigma = 0: plain integral of |f| / alpha
        assert czd.young_mass(sig, 0, 0.5) == pytest.approx(2.0, abs=1e-12)
