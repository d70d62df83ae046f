"""Tests for signals, projections, and square functions.

The transform oracle is a direct O(n^2) Riemann-sum DFT, written against the
stated convention fhat(xi_j) = (T/M) sum_k f(x_k) exp(-2 pi i x_k xi_j); the
fast path must agree with it to near machine precision.
"""

import math
import struct
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna.dyadic import DyadicScalar as D
from lacuna.lacunary import LacInterval, lambda_tau
from lacuna import spectral as sp


def brute_spectrum(samples, period, offset):
    """Direct quadrature transform on the lattice j/T (FFT index layout)."""
    samples = np.asarray(samples, dtype=complex)
    n = samples.size
    x = offset + (period / n) * np.arange(n)
    out = np.empty(n, dtype=complex)
    for pos, j in enumerate(sp.freq_indices(n)):
        xi = j / period
        out[pos] = (period / n) * np.sum(samples * np.exp(-2j * np.pi * x * xi))
    return out


def dyadic_interval(left, right, anchor=0):
    return LacInterval(
        left=D.from_fraction(F(left)),
        right=D.from_fraction(F(right)),
        order=1,
        anchor=D.from_fraction(F(anchor)),
    )


def random_signal(rng, j=6, period=4.0, centered=True):
    n = 1 << j
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    offset = -period / 2 if centered else 0.0
    return sp.Signal(samples, period, offset)


class TestSignalValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        vals = np.ones(8, dtype=complex)
        vals[3] = bad
        with pytest.raises(ValueError, match="finite"):
            sp.Signal(vals, period=2.0)
        vals[3] = complex(1.0, bad)
        with pytest.raises(ValueError, match="finite"):
            sp.Signal(vals, period=2.0)

    @pytest.mark.parametrize("period", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_period_rejected(self, period):
        with pytest.raises(ValueError, match="period"):
            sp.Signal(np.ones(8), period=period)


# -- transform conventions -----------------------------------------------


class TestTransform:
    def test_matches_brute_dft(self):
        rng = np.random.default_rng(11)
        for offset in (0.0, -2.0, 0.375):
            sig = sp.Signal(
                rng.standard_normal(64) + 1j * rng.standard_normal(64),
                period=4.0,
                offset=offset,
            )
            fast = sp.spectrum(sig)
            slow = brute_spectrum(sig.samples, sig.period, sig.offset)
            assert np.max(np.abs(fast - slow)) < 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(12)
        sig = random_signal(rng, j=9, period=8.0)
        back = sp.synthesize(sp.spectrum(sig), sig.period, sig.offset)
        assert np.max(np.abs(back.samples - sig.samples)) < 1e-12

    @given(
        j=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
        centered=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, j, seed, centered):
        rng = np.random.default_rng(seed)
        sig = random_signal(rng, j=j, period=2.0, centered=centered)
        back = sp.synthesize(sp.spectrum(sig), sig.period, sig.offset)
        scale = np.max(np.abs(sig.samples)) + 1.0
        assert np.max(np.abs(back.samples - sig.samples)) < 1e-12 * scale

    def test_pure_tone_lands_on_single_bin(self):
        period, n = 8.0, 256
        xi0 = 3.0 / period  # on the lattice
        offset = -period / 2
        x = offset + (period / n) * np.arange(n)
        sig = sp.Signal(np.exp(2j * np.pi * xi0 * x), period, offset)
        coeffs = sp.spectrum(sig)
        idx = list(sp.freq_indices(n)).index(3)
        assert abs(coeffs[idx] - period) < 1e-9
        rest = np.abs(np.delete(coeffs, idx))
        assert np.max(rest) < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(13)
        sig = random_signal(rng, j=10, period=16.0)
        energy_x = sig.dx * np.sum(np.abs(sig.samples) ** 2)
        coeffs = sp.spectrum(sig)
        energy_f = np.sum(np.abs(coeffs) ** 2) / sig.period
        assert math.isclose(energy_x, energy_f, rel_tol=1e-12)

    def test_samples_are_frozen(self):
        sig = random_signal(np.random.default_rng(0), j=3)
        with pytest.raises(ValueError):
            sig.samples[0] = 0.0

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            sp.Signal(np.zeros(12), 1.0)
        with pytest.raises(ValueError):
            sp.Signal(np.zeros(8), -1.0)


# -- bumps ----------------------------------------------------------------


class TestBumps:
    def test_smoothstep_partition(self):
        u = np.linspace(-0.5, 1.5, 401)
        s = sp.smoothstep(u)
        assert np.max(np.abs(s + sp.smoothstep(1 - u) - 1)) < 1e-14
        assert np.all(np.diff(s) >= -1e-15)
        assert s[0] == 0.0 and s[-1] == 1.0

    def test_eta_plateau_and_support(self):
        x = np.linspace(-0.5, 0.5, 101)
        assert np.all(sp.eta(x) == 1.0)
        far = np.array([-0.625, -0.7, 0.625, 2.0])
        assert np.all(sp.eta(far) == 0.0)
        ramp = sp.eta(np.linspace(0.5, 0.625, 100))
        assert np.all(np.diff(ramp) <= 1e-15)
        assert np.max(np.abs(sp.eta(x) - sp.eta(-x))) == 0.0

    def test_plateau_bump_general(self):
        b = sp.plateau_bump(np.array([0.0, 1.9, 2.0, 3.0, 4.0, 5.0]), 2.0, 4.0)
        assert np.all(b[:3] == 1.0)
        assert 0.0 < b[3] < 1.0
        assert b[4] == 0.0 and b[5] == 0.0

    def test_admissibility_eta_passes_jump_fails(self):
        L = dyadic_interval(1, 2, anchor=0)
        grid = float(L.center) + float(L.length) * np.linspace(-0.625, 0.625, 1025)
        sym = sp.eta((grid - float(L.center)) / float(L.length))
        ok, worst = sp.bump_admissible(sym, grid, L, order=4)
        assert ok and worst < 1e10
        jump = (np.abs(grid - float(L.center)) <= 0.5 * float(L.length)).astype(float)
        ok_jump, worst_jump = sp.bump_admissible(jump, grid, L, order=4)
        assert not ok_jump and worst_jump > 1e10

    def test_admissibility_rejects_offside_support(self):
        L = dyadic_interval(1, 2, anchor=0)
        grid = np.linspace(0.0, 4.0, 513)
        sym = np.ones_like(grid)
        ok, worst = sp.bump_admissible(sym, grid, L)
        assert not ok and worst == math.inf


# -- lattice windows and sharp projections --------------------------------


class TestSharpProjection:
    def test_band_indices_exact(self):
        sig = sp.Signal(np.zeros(64), period=8.0, offset=-4.0)
        idx = sp.band_indices(sig, D.from_int(1), D.from_int(2))
        js = sp.freq_indices(64)[idx]
        assert sorted(js) == list(range(8, 16))
        idx_neg = sp.band_indices(sig, D.from_int(-2), D.from_int(-1))
        js_neg = sorted(sp.freq_indices(64)[idx_neg])
        assert js_neg == list(range(-16, -8))

    def test_band_indices_half_open(self):
        sig = sp.Signal(np.zeros(64), period=8.0)
        idx = sp.band_indices(sig, D.from_fraction(F(1, 8)), D.from_fraction(F(1, 4)))
        assert sorted(sp.freq_indices(64)[idx]) == [1]

    def test_band_at_nyquist_edges(self):
        sig = sp.Signal(np.zeros(64), period=8.0)
        flags = sp.AliasFlags()
        # positive block ending exactly at the band edge: fits (half-open)
        idx = sp.band_indices(sig, D.from_int(2), D.from_int(4), flags)
        assert sorted(sp.freq_indices(64)[idx]) == list(range(16, 32))
        # negative block starting at -edge: the -n/2 bin is representable
        idx = sp.band_indices(sig, D.from_int(-4), D.from_int(-2), flags)
        assert sorted(sp.freq_indices(64)[idx]) == list(range(-32, -16))
        assert not flags.aliased

    def test_band_beyond_nyquist_flags(self):
        sig = sp.Signal(np.zeros(64), period=8.0)
        flags = sp.AliasFlags()
        sp.band_indices(sig, D.from_int(4), D.from_int(8), flags)
        assert flags.aliased

    def test_projection_idempotent_and_band_limited(self):
        rng = np.random.default_rng(21)
        sig = random_signal(rng, j=8, period=8.0)
        L = dyadic_interval(1, 2)
        once = sp.project_sharp(sig, L)
        twice = sp.project_sharp(once, L)
        assert np.max(np.abs(once.samples - twice.samples)) < 1e-12
        coeffs = sp.spectrum(once)
        js = sp.freq_indices(sig.n)
        outside = (js < 8) | (js >= 16)
        assert np.max(np.abs(coeffs[outside])) < 1e-12

    def test_disjoint_projections_orthogonal(self):
        rng = np.random.default_rng(22)
        sig = random_signal(rng, j=9, period=4.0)
        p1 = sp.project_sharp(sig, dyadic_interval(1, 2))
        p2 = sp.project_sharp(sig, dyadic_interval(2, 4))
        inner = sig.dx * np.vdot(p1.samples, p2.samples)
        assert abs(inner) < 1e-12

    def test_parseval_tiling_order_one(self):
        rng = np.random.default_rng(23)
        sig = random_signal(rng, j=10, period=8.0)
        family = sp.family_for_signal(sig, 1, D.pow2(-3))
        coeffs = sp.spectrum(sig)
        total = np.sum(np.abs(coeffs) ** 2) / sig.period
        covered = 0.0
        flags = sp.AliasFlags()
        for L in family:
            piece = sp.project_sharp(sig, L, flags)
            covered += sig.dx * np.sum(np.abs(piece.samples) ** 2)
        # residual: all bins not in any block (the gap around zero frequency)
        mask = np.ones(sig.n, dtype=bool)
        for L in family:
            mask[sp.band_indices(sig, L.left, L.right)] = False
        residual = np.sum(np.abs(coeffs[mask]) ** 2) / sig.period
        assert not flags.aliased
        assert math.isclose(covered + residual, total, rel_tol=1e-10)


# -- smooth projections and modulation -------------------------------------


class TestSmoothProjection:
    def test_symbol_values_on_lattice(self):
        sig = sp.Signal(np.zeros(128), period=16.0, offset=-8.0)
        L = dyadic_interval(2, 4)
        sym = sp.symbol_on_lattice(sig, L)
        xi = sp.freq_indices(sig.n) / sig.period
        expected = sp.eta((xi - 3.0) / 2.0)
        assert np.max(np.abs(sym - expected)) < 1e-14

    def test_plateau_tone_passes_unchanged(self):
        period, n = 8.0, 512
        offset = -period / 2
        x = offset + (period / n) * np.arange(n)
        tone = np.exp(2j * np.pi * 3.0 * x)  # xi=3 at center of [2,4)
        sig = sp.Signal(tone, period, offset)
        out = sp.project_smooth(sig, dyadic_interval(2, 4))
        assert np.max(np.abs(out.samples - tone)) < 1e-10

    def test_support_tone_blocked(self):
        period, n = 8.0, 512
        x = -period / 2 + (period / n) * np.arange(n)
        tone = np.exp(2j * np.pi * 8.0 * x)  # far outside (5/4)[2,4)
        sig = sp.Signal(tone, period, -period / 2)
        out = sp.project_smooth(sig, dyadic_interval(2, 4))
        assert np.max(np.abs(out.samples)) < 1e-12

    def test_modulate_inverse(self):
        rng = np.random.default_rng(31)
        sig = random_signal(rng, j=7, period=4.0)
        back = sp.modulate(sp.modulate(sig, 2.5), -2.5)
        assert np.max(np.abs(back.samples - sig.samples)) < 1e-12

    def test_modulate_project_matches_direct_smooth(self):
        rng = np.random.default_rng(32)
        period = 8.0
        sig = random_signal(rng, j=11, period=period)
        family = lambda_tau(2, D.pow2(-2), D.from_int(8))
        flags = sp.AliasFlags()
        worst = 0.0
        for L in family:
            direct = sp.project_smooth(sig, L, flags=flags)
            via_anchor = sp.modulate_project(sig, L, flags=flags)
            num = np.max(np.abs(direct.samples - via_anchor.samples))
            den = np.max(np.abs(direct.samples)) + 1e-30
            worst = max(worst, num / max(den, 1.0))
        assert not flags.aliased
        assert worst < 1e-9

    def test_order_one_anchor_is_identity_path(self):
        rng = np.random.default_rng(33)
        sig = random_signal(rng, j=8, period=4.0)
        L = dyadic_interval(1, 2)  # anchor zero
        direct = sp.project_smooth(sig, L)
        via = sp.modulate_project(sig, L)
        assert np.max(np.abs(direct.samples - via.samples)) < 1e-12


# -- square functions -------------------------------------------------------


class TestSquareFunction:
    def test_sharp_single_tone_is_flat_one(self):
        period, n = 8.0, 1024
        x = -period / 2 + (period / n) * np.arange(n)
        sig = sp.Signal(np.exp(2j * np.pi * 3.0 * x), period, -period / 2)
        s = sp.lp_square_function(sig, 1, D.pow2(-3), mode="sharp")
        assert np.max(np.abs(s.samples.real - 1.0)) < 1e-10
        assert np.max(np.abs(s.samples.imag)) == 0.0

    def test_smooth_single_tone_bounded_by_overlap(self):
        period, n = 8.0, 1024
        x = -period / 2 + (period / n) * np.arange(n)
        sig = sp.Signal(np.exp(2j * np.pi * 3.0 * x), period, -period / 2)
        s = sp.lp_square_function(sig, 1, D.pow2(-3), mode="smooth")
        vals = s.samples.real
        assert np.all(vals >= 1.0 - 1e-10)
        assert np.all(vals <= math.sqrt(2.0) + 1e-10)

    def test_sharp_energy_identity(self):
        # Fubini: ||S f||_2^2 equals the summed energy of the projections
        rng = np.random.default_rng(41)
        sig = random_signal(rng, j=10, period=8.0)
        family = sp.family_for_signal(sig, 1, D.pow2(-3))
        s = sp.lp_square_function(sig, 1, D.pow2(-3), mode="sharp")
        lhs = sig.dx * np.sum(s.samples.real ** 2)
        rhs = 0.0
        for L in family:
            piece = sp.project_sharp(sig, L)
            rhs += sig.dx * np.sum(np.abs(piece.samples) ** 2)
        assert math.isclose(lhs, rhs, rel_tol=1e-10)

    def test_random_signs_preserve_l2(self):
        # disjoint bands: sign flips never change the l2 norm of the sum
        rng = np.random.default_rng(42)
        sig = random_signal(rng, j=9, period=4.0)
        family = sp.family_for_signal(sig, 1, D.pow2(-2))
        pieces = [sp.project_sharp(sig, L).samples for L in family]
        base = sum(sig.dx * np.sum(np.abs(p) ** 2) for p in pieces)
        for _ in range(8):
            signs = rng.choice([-1.0, 1.0], size=len(pieces))
            total = np.zeros(sig.n, dtype=complex)
            for eps, p in zip(signs, pieces):
                total += eps * p
            assert math.isclose(
                sig.dx * np.sum(np.abs(total) ** 2), base, rel_tol=1e-10
            )

    def test_higher_order_family_runs(self):
        rng = np.random.default_rng(43)
        sig = random_signal(rng, j=9, period=4.0)
        s = sp.lp_square_function(sig, 2, D.pow2(-2), mode="smooth")
        assert np.all(np.isfinite(s.samples.real))
        assert np.all(s.samples.real >= 0.0)


# -- the band bank -----------------------------------------------------------


def _reference_spectra(sig, kind, family):
    """Each band's weighted true-phase spectrum, built band by band from the
    lattice frequencies, independent of band_indices."""
    coeffs = sp.spectrum(sig)
    xi = sp.freqs(sig)
    rows = []
    for L in family:
        if kind == "sharp":
            weight = (xi >= float(L.left)) & (xi < float(L.right))
        else:
            weight = sp.eta((xi - float(L.center)) / float(L.length))
        rows.append(coeffs * weight)
    return np.array(rows)


class TestBandBank:
    # scales down to 1/32 on the 1/8 lattice: some band edges fall on lattice
    # points, some between them, and some bands hold no lattice point at all
    FAMILY = lambda_tau(2, D.pow2(-5), D.from_int(8))
    PERIOD = 8.0

    @pytest.mark.parametrize("kind", ["sharp", "eta"])
    @pytest.mark.parametrize("offset", [0.0, -4.0])
    def test_matches_band_by_band_reference(self, kind, offset):
        rng = np.random.default_rng(51)
        n = 1 << 10
        sig = sp.Signal(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                        self.PERIOD, offset)
        window = sp.sharp_window if kind == "sharp" else sp.eta_window
        bank = sp.BandBank.build(sig, [window(L) for L in self.FAMILY])
        spectra = _reference_spectra(sig, kind, self.FAMILY)
        pieces = np.array([sp.synthesize(row, sig.period, sig.offset).samples
                           for row in spectra])
        top = np.max(np.abs(pieces))

        def close(got, want, scale):
            assert np.max(np.abs(got - want)) <= 1e-12 * scale

        weights = rng.standard_normal(len(self.FAMILY)) + 1j * rng.standard_normal(
            len(self.FAMILY))
        combined = weights @ pieces
        close(bank.combine(sig, weights), combined, np.max(np.abs(combined)))
        close(bank.combine(sig), pieces.sum(axis=0), top)
        close(bank.magnitudes(sig), np.abs(pieces), top)
        cols = np.abs(sig.x) < 1.0
        close(bank.magnitudes(sig, cols), np.abs(pieces[:, cols]), top)
        square = np.sqrt(np.sum(np.abs(pieces) ** 2, axis=0))
        close(bank.square(sig), square, np.max(square))
        energies = sig.dx * np.sum(np.abs(pieces) ** 2, axis=1)
        close(bank.energies(sig), energies, np.max(energies))
        # off-grid: the band pieces as trigonometric sums at arbitrary points
        xs = np.concatenate([sig.x[[3, 400, 1000]], [-3.7, -0.01, 0.123, 2.9]])
        phases = np.exp(2j * np.pi * np.outer(xs, sp.freqs(sig)))
        at = np.sqrt(np.sum(np.abs(phases @ spectra.T / sig.period) ** 2, axis=1))
        close(bank.square_at(sig, xs), at, np.max(at))
        close(at[:3], square[[3, 400, 1000]], np.max(at))

    def test_rows_hold_exact_bands_with_nonzero_weights(self):
        on_lattice = [(L.left.as_fraction() * 8).denominator == 1
                      and (L.right.as_fraction() * 8).denominator == 1
                      for L in self.FAMILY]
        assert any(on_lattice) and not all(on_lattice)
        sig = sp.Signal(np.zeros(1 << 10), self.PERIOD)
        sharp = sp.BandBank.build(sig, [sp.sharp_window(L) for L in self.FAMILY])
        for (idx, vals), L in zip(sharp.rows, self.FAMILY):
            assert np.array_equal(idx, sp.band_indices(sig, L.left, L.right))
            assert np.all(vals == 1.0)
        assert any(idx.size == 0 for idx, _ in sharp.rows)
        eta = sp.BandBank.build(sig, [sp.eta_window(L) for L in self.FAMILY])
        assert all(np.all(vals != 0.0) for _, vals in eta.rows)


# -- weak L1 and dumps -------------------------------------------------------


class TestWeakNormAndIO:
    def test_indicator_exact(self):
        vals = np.zeros(64)
        vals[:16] = 2.5
        assert sp.weak_l1_norm(vals, dx=0.25) == pytest.approx(2.5 * 16 * 0.25)

    def test_harmonic_staircase(self):
        # k-th largest value 1/k on its own cell: every level gives dx
        n = 128
        vals = 1.0 / np.arange(1, n + 1)
        assert sp.weak_l1_norm(vals, dx=0.5) == pytest.approx(0.5)
        # strictly below the L1 norm, which grows like log n
        assert sp.weak_l1_norm(vals, dx=0.5) < 0.5 * np.sum(vals)

    def test_zero_function(self):
        assert sp.weak_l1_norm(np.zeros(8), dx=1.0) == 0.0

    def test_distribution_measure(self):
        vals = np.array([0.0, 1.0, 2.0, 3.0])
        assert sp.distribution_measure(vals, 1.5, dx=0.5) == 1.0
        assert sp.distribution_measure(vals, 3.0, dx=0.5) == 0.0

    def test_dump_round_trip(self, tmp_path):
        rng = np.random.default_rng(51)
        sig = random_signal(rng, j=7, period=2.0, centered=True)
        path = tmp_path / "sig.lac"
        sp.write_signal(path, sig)
        back = sp.read_signal(path)
        assert back.period == sig.period
        assert back.offset == sig.offset
        assert np.array_equal(back.samples, sig.samples)
        assert path.stat().st_size == 16 + 16 * sig.n

    def test_dump_rejects_uncentered(self, tmp_path):
        sig = sp.Signal(np.zeros(8), period=2.0, offset=0.0)
        with pytest.raises(ValueError):
            sp.write_signal(tmp_path / "x.lac", sig)

    def test_read_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.lac"
        path.write_bytes(b"NOPE" + b"\x00" * 28)
        with pytest.raises(ValueError):
            sp.read_signal(path)

    @staticmethod
    def header(j, period):
        return sp.MAGIC + struct.pack("<I", j) + struct.pack("<d", period)

    def stored(self, tmp_path, j=5):
        path = tmp_path / "sig.lac"
        sp.write_signal(path, random_signal(np.random.default_rng(52), j=j))
        return path, path.read_bytes()

    def test_read_rejects_truncated_payload(self, tmp_path):
        path, data = self.stored(tmp_path)
        # half the payload would read as a valid signal of half the size
        path.write_bytes(data[: 16 + (len(data) - 16) // 2])
        with pytest.raises(ValueError, match="payload"):
            sp.read_signal(path)
        path.write_bytes(data[:-1])
        with pytest.raises(ValueError, match="payload"):
            sp.read_signal(path)

    def test_read_rejects_trailing_bytes(self, tmp_path):
        path, data = self.stored(tmp_path)
        path.write_bytes(data + b"\x00" * 16)
        with pytest.raises(ValueError, match="payload"):
            sp.read_signal(path)

    def test_read_rejects_truncated_header(self, tmp_path):
        path, data = self.stored(tmp_path)
        path.write_bytes(data[:12])
        with pytest.raises(ValueError, match="header"):
            sp.read_signal(path)

    def test_read_bounds_j(self, tmp_path):
        path = tmp_path / "big.lac"
        path.write_bytes(self.header(sp.MAX_LOG2_N + 1, 2.0) + b"\x00" * 64)
        with pytest.raises(ValueError, match="exceeds"):
            sp.read_signal(path)
        path.write_bytes(self.header(2**32 - 1, 2.0))
        with pytest.raises(ValueError, match="exceeds"):
            sp.read_signal(path)

    @pytest.mark.parametrize("period", [math.inf, -math.inf, math.nan, 0.0, -2.0])
    def test_read_rejects_bad_period(self, tmp_path, period):
        path = tmp_path / "per.lac"
        path.write_bytes(self.header(2, period) + b"\x00" * 64)
        with pytest.raises(ValueError, match="period"):
            sp.read_signal(path)

    def test_read_rejects_non_finite_sample(self, tmp_path):
        path, data = self.stored(tmp_path)
        data = bytearray(data)
        data[16 + 8 * 5 : 16 + 8 * 6] = struct.pack("<d", math.nan)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="finite"):
            sp.read_signal(path)

    def test_csv_export(self, tmp_path):
        sig = sp.Signal(np.arange(4, dtype=float), period=2.0, offset=-1.0)
        path = tmp_path / "sig.csv"
        sp.profile_to_csv(path, sig)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,value_re,value_im"
        assert len(lines) == 5
        assert float(lines[1].split(",")[0]) == -1.0
