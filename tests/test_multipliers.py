"""Tests for step multipliers, their application, and the sharpness family."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from lacuna.dyadic import DyadicScalar as D
from lacuna.lacunary import LacInterval, lambda_tau
from lacuna import multipliers as mult
from lacuna import spectral as sp
from test_spectral import square_reference


def apply_component(sig, k, l):
    """One component of the sharpness family through the true-phase
    transforms, on the whole lattice: the reference the bank operations are
    tested against."""
    symbol = mult.component_symbol_func(k, l)(sp.freq_indices(sig.n) / sig.period)
    return sp.synthesize(sp.spectrum(sig) * symbol, sig.period, sig.offset)


def block_at(family, left):
    """The unique family block whose left endpoint is the given float."""
    matches = [L for L in family if float(L.left) == left]
    assert len(matches) == 1
    return matches[0]


# -- step multipliers --------------------------------------------------------


def apply_step(sig, m, flags=None):
    """A step multiplier applied through its band bank, one inverse transform."""
    return sig.with_samples(m.bank().combine(sig, flags=flags))


def two_block_step(coeffs=(0.5, 0.5), overlap_bound=2):
    family = lambda_tau(1, D.pow2(-1), D.from_int(8))
    L1 = block_at(family, 1.0)  # [1, 2)
    L2 = block_at(family, 2.0)  # [2, 4)
    pieces = (
        mult.StepPiece(D.from_int(1), D.from_fraction(F(3, 2)), coeffs[0], L1),
        mult.StepPiece(D.from_int(2), D.from_int(3), coeffs[1], L2),
    )
    return mult.StepMultiplier(pieces, overlap_bound)


class TestStepMultiplier:
    def test_valid_construction(self):
        sm = two_block_step()
        report = sm.validate()
        assert report["ok"]
        assert report["max_overlap"] == 1

    def test_containment_violation_raises(self):
        family = lambda_tau(1, D.pow2(-1), D.from_int(8))
        L1 = family[0]
        piece = mult.StepPiece(
            L1.left, L1.right + L1.length, 0.1, L1
        )  # escapes on the right
        with pytest.raises(ValueError):
            mult.StepMultiplier((piece,), 1)

    def test_budget_violation_raises(self):
        with pytest.raises(ValueError):
            two_block_step(coeffs=(0.9, 0.2), overlap_bound=2)  # 0.81 > 1/2

    def test_overlap_violation_raises(self):
        family = lambda_tau(1, D.pow2(-1), D.from_int(8))
        L = block_at(family, 1.0)
        pieces = (
            mult.StepPiece(D.from_int(1), D.from_fraction(F(7, 4)), 0.5, L),
            mult.StepPiece(D.from_fraction(F(3, 2)), D.from_int(2), 0.5, L),
        )
        with pytest.raises(ValueError):
            mult.StepMultiplier(pieces, 1)
        # the same geometry is fine with bound 2 (budget 1/2 still met)
        sm = mult.StepMultiplier(pieces, 2)
        assert sm.validate()["max_overlap"] == 2

    def test_family_membership_check(self):
        sm = two_block_step()
        fam1 = lambda_tau(1, D.pow2(-1), D.from_int(8))
        assert sm.validate(fam1)["ok"]
        fam2 = lambda_tau(2, D.pow2(-4), D.from_int(8))
        assert not sm.validate(fam2)["ok"]

    def test_prototype_is_valid_step_form(self):
        proto = mult.prototype_multiplier(2, D.pow2(-3), D.from_int(8))
        report = proto.validate(lambda_tau(2, D.pow2(-3), D.from_int(8)))
        assert report["ok"]
        assert report["max_overlap"] == 1
        assert all(abs(p.coeff) == 1.0 for p in proto.pieces)


# -- application --------------------------------------------------------------


class TestApplication:
    def make_signal(self, j=10, period=8.0, seed=3):
        rng = np.random.default_rng(seed)
        n = 1 << j
        return sp.Signal(
            rng.standard_normal(n) + 1j * rng.standard_normal(n),
            period,
            -period / 2,
        )

    def test_identity_symbol(self):
        # one unit piece over the whole sampled band [-n/(2P), n/(2P))
        sig = self.make_signal()
        half = D.from_fraction(F(sig.n, 2) / F(sig.period))
        band = LacInterval(-half, half, 1, D.from_int(0), None)
        m = mult.StepMultiplier((mult.StepPiece(band.left, band.right, 1.0, band),), 1)
        out = apply_step(sig, m)
        scale = np.max(np.abs(sig.samples))
        assert np.max(np.abs(out.samples - sig.samples)) < 1e-12 * scale

    def test_block_indicator_equals_sharp_projection(self):
        sig = self.make_signal()
        family = lambda_tau(1, D.pow2(-1), D.from_int(8))
        L = block_at(family, 1.0)
        piece = mult.StepPiece(L.left, L.right, 1.0, L)
        sm = mult.StepMultiplier((piece,), 1)
        via_mult = apply_step(sig, sm)
        via_proj = sp.project_sharp(sig, L)
        assert np.max(np.abs(via_mult.samples - via_proj.samples)) < 1e-12

    def test_plancherel_contraction(self):
        sig = self.make_signal(seed=4)
        sm = two_block_step()
        out = apply_step(sig, sm)
        sup = max(abs(p.coeff) for p in sm.pieces)
        assert _l2(out) <= sup * _l2(sig) + 1e-12

    def test_linearity(self):
        f = self.make_signal(seed=5)
        g = self.make_signal(seed=6)
        sm = two_block_step(coeffs=(0.3, 0.4j))
        both = apply_step(f.with_samples(f.samples + g.samples), sm)
        separate = (
            apply_step(f, sm).samples + apply_step(g, sm).samples
        )
        assert np.max(np.abs(both.samples - separate)) < 1e-12

    def test_translation_commutes(self):
        sig = self.make_signal(seed=8)
        sm = two_block_step()
        rolled = sig.with_samples(np.roll(sig.samples, 5))
        a = apply_step(rolled, sm).samples
        b = np.roll(apply_step(sig, sm).samples, 5)
        assert np.max(np.abs(a - b)) < 1e-11

    def test_aliasing_flagged(self):
        sig = self.make_signal(j=4, period=8.0)  # band edge at 1
        family = lambda_tau(1, D.pow2(-1), D.from_int(8))
        L = block_at(family, 2.0)
        sm = mult.StepMultiplier((mult.StepPiece(L.left, L.right, 1.0, L),), 1)
        flags = sp.AliasFlags()
        apply_step(sig, sm, flags)
        assert flags.aliased


# -- sharpness family ---------------------------------------------------------


class TestSharpnessFamily:
    def test_pair_enumeration(self):
        fam = mult.build_sharpness_family(4, 12)
        assert fam.pairs == ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))

    def test_feasibility_guard(self):
        assert mult.max_feasible_parameter(20, 16.0) == 13
        with pytest.raises(ValueError):
            mult.build_sharpness_family(14, 20, period=16.0)

    def test_seed_bump_spectrum_plateau(self):
        fam = mult.build_sharpness_family(4, 14, period=16.0)
        coeffs = sp.spectrum(fam.f_n)
        xi = sp.freq_indices(fam.f_n.n) / fam.f_n.period
        plateau = np.abs(xi) <= 2.0 * 2**4
        assert np.max(np.abs(coeffs[plateau] - 1.0)) < 1e-9
        outside = np.abs(xi) >= 4.0 * 2**4
        assert np.max(np.abs(coeffs[outside])) < 1e-9

    @pytest.mark.parametrize("order, log2_n", [(4, 12), (8, 16), (11, 18)])
    def test_dilated_bump_is_the_exact_sign_synthesis(self, order, log2_n):
        # the centered window's offset phase at j/T is exactly (-1)^j;
        # synthesize, which evaluates it as exp(-pi i j), stays the near reference
        fam = mult.build_sharpness_family(order, log2_n)
        n, period = 1 << log2_n, fam.period
        js = sp.freq_indices(n)
        coeffs = mult.base_bump_spectrum(js / period / 2.0**order).astype(complex)
        exact = np.fft.ifft(coeffs * (-1.0) ** np.abs(js)) * (n / period)
        assert np.array_equal(fam.f_n.samples, exact)
        assert fam.f_n.offset == -period / 2
        near = sp.synthesize(coeffs, period, -period / 2).samples
        assert np.max(np.abs(near - exact)) <= 1e-10 * np.max(np.abs(exact))

    def test_dilated_bump_is_real_and_concentrated(self):
        fam = mult.build_sharpness_family(5, 14, period=16.0)
        f = fam.f_n.samples
        assert np.max(np.abs(f.imag)) < 1e-9
        x = fam.f_n.x
        center_mass = np.sum(np.abs(f[np.abs(x) <= 0.25]) ** 2)
        total = np.sum(np.abs(f) ** 2)
        assert center_mass > 0.99 * total

    def test_truncation(self):
        fam = mult.build_sharpness_family(4, 12)
        x = fam.f_n.x
        inside = np.abs(x) <= 0.5
        assert np.array_equal(fam.g_n.samples[inside], fam.f_n.samples[inside])
        assert np.all(fam.g_n.samples[~inside] == 0.0)

    def test_component_on_pure_tone(self):
        fam = mult.build_sharpness_family(4, 12, period=16.0)
        k, l = 3, 2
        xi0 = 2.0**3 + 2.0  # inside the (3,2) band, symbol value m0(2) = psi(1)=0
        xi0 = 2.0**3 + 2.0 ** (l - 1)  # symbol value m0(1) = 1
        n, period = 1 << 12, 16.0
        x = -period / 2 + (period / n) * np.arange(n)
        sig = sp.Signal(np.exp(2j * np.pi * xi0 * x), period, -period / 2)
        out = apply_component(sig, k, l)
        assert np.max(np.abs(out.samples - sig.samples)) < 1e-9

    def test_square_aggregate_matches_component_loop(self):
        fam = mult.build_sharpness_family(4, 12)
        sig = fam.g_n
        agg = fam.bank.square(sig)
        acc = np.zeros(sig.n)
        for k, l in fam.pairs:
            piece = apply_component(sig, k, l).samples
            acc += np.abs(piece) ** 2
        assert np.max(np.abs(agg - np.sqrt(acc))) < 1e-10

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_aggregate_matches_band_by_band_sum(self, order):
        fam = mult.build_sharpness_family(order, 14)
        for sig in (fam.g_n, fam.f_n):
            want = square_reference(fam.bank, sig)
            got = fam.bank.square(sig)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    def test_random_sign_apply_matches_sum(self):
        fam = mult.build_sharpness_family(4, 12)
        rng = np.random.default_rng(2)
        signs = rng.choice([-1.0, 1.0], size=len(fam.pairs))
        fast = fam.bank.combine(fam.g_n, signs)
        slow = np.zeros(fam.g_n.n, dtype=complex)
        for eps, (k, l) in zip(signs, fam.pairs):
            slow += eps * apply_component(fam.g_n, k, l).samples
        assert np.max(np.abs(fast - slow)) < 1e-10

    def test_offgrid_quadrature_matches_grid(self):
        fam = mult.build_sharpness_family(4, 12)
        sig = fam.f_n
        agg = fam.bank.square(sig)
        pick = np.array([100, 777, 2048, 3000])
        xs = sig.x[pick]
        direct = fam.bank.square_at(sig, xs)
        grid_vals = agg[pick]
        assert np.max(np.abs(direct - grid_vals)) < 1e-8 * max(1.0, grid_vals.max())


def one_matrix_square_at(bank, sig, xs):
    """``BandBank.square_at`` before its phases were exponentiated in place:
    the complex phase argument and its exponential both held at once."""
    plan = bank._grid(sig, None)
    coeffs = np.fft.fft(sig.samples)
    t = np.asarray(xs, dtype=float) - sig.offset
    xi = sp.freq_indices(sig.n)[plan.pos] / sig.period
    terms = np.exp(2j * np.pi * np.outer(xi, t))
    terms *= (coeffs[plan.pos] * plan.vals)[:, None]
    return np.sqrt(np.sum(np.abs(sp._band_sums(plan, terms) / sig.n) ** 2, axis=0))


@pytest.mark.parametrize("order, log2_n", [(4, 12), (7, 14)])
def test_square_at_is_the_one_matrix_expression_bitwise(order, log2_n):
    fam = mult.build_sharpness_family(order, log2_n)
    rng = np.random.default_rng(order)
    xs = np.concatenate([fam.f_n.x[[0, 5, 1 << (log2_n - 1)]],
                         rng.uniform(-fam.period / 2, fam.period / 2, 13)])
    for sig in (fam.f_n, fam.g_n):
        got = fam.bank.square_at(sig, xs)
        assert np.array_equal(got, one_matrix_square_at(fam.bank, sig, xs))
        assert np.array_equal(fam.bank.square_at(sig, xs[4]),
                              one_matrix_square_at(fam.bank, sig, xs[4]))


def _l2(sig):
    return math.sqrt(sig.dx * float(np.sum(np.abs(sig.samples) ** 2)))
