"""Tests for step multipliers (band-bank windows in the step class), their
application, and the sharpness family.

Reference ledger:
- ``square_reference`` (from ``test_spectral``): the band-by-band aggregate,
  one complex inverse transform per band; the sharpness family's aggregate
  of f_N and g_N at orders 2-6 on 2^14 samples, to 1e-12 of the peak.
- ``fraction_band`` (from ``test_spectral``): the band ``n / 2T`` in exact
  rationals; ``max_feasible_parameter`` is ``max(log2 - 2, 0)`` of it,
  exactly, at 2^4 to 2^22 samples on the periods 2^1 to 2^64.
- ``one_matrix_square_at``: ``BandBank.square_at`` before it exponentiated
  its phases in place; f_N and g_N at orders 4 and 7 on 16 points, bitwise
  (``test_spectral.reference_band_square_at``, a per-band loop, is 1e-14).
- ``step_violations``: the step class (containment, l2 budget, overlap) in
  exact rationals, on hand-made windows and both built step multipliers.
"""

import bisect
import math
from fractions import Fraction as F

import numpy as np
import pytest

from lacuna.dyadic import DyadicScalar as D
from lacuna.lacunary import interval_arrays, lambda_tau
from lacuna import harness
from lacuna import multipliers as mult
from lacuna import spectral as sp
from test_spectral import bank_of, bank_windows, fraction_band, square_reference


def apply_component(sig, k, l):
    """One component of the sharpness family through the true-phase
    transforms, on the whole lattice: the reference the bank operations are
    tested against."""
    symbol = mult.component_symbol(sp.freq_indices(sig.n) / sig.period, k, l)
    return sp.synthesize(sp.spectrum(sig) * symbol, sig.period, sig.offset)


def center(block):
    """The midpoint of a block, exactly."""
    return block.right - block.length.scale_pow2(-1)


def block_at(family, left):
    """The unique family block whose left endpoint is the given float."""
    matches = [L for L in family if float(L.left) == left]
    assert len(matches) == 1
    return matches[0]


# -- step multipliers --------------------------------------------------------


def step_violations(windows, family, bound):
    """The step-class invariants with class parameter N = ``bound``, checked
    in exact rationals: every window ``(lo, hi, coeff)`` is nonempty and lies
    in the family block that holds ``lo`` (the blocks are disjoint), each
    block's coefficient l2 mass is at most 1/N, and no frequency lies in more
    than N windows.  Returns one message per violation."""
    violations = []
    blocks = sorted((L.left.as_fraction(), L.right.as_fraction()) for L in family)
    lefts = [left for left, _ in blocks]
    mass = {}
    for i, (lo, hi, coeff) in enumerate(windows):
        lo, hi, coeff = lo.as_fraction(), hi.as_fraction(), complex(coeff)
        if not lo < hi:
            violations.append(f"window {i} is empty")
        owner = blocks[max(bisect.bisect_right(lefts, lo) - 1, 0)]
        if not owner[0] <= lo < owner[1]:
            violations.append(f"window {i} lies in no block")
        elif hi > owner[1]:
            violations.append(f"window {i} escapes its block")
        else:
            mass[owner] = mass.get(owner, 0) + F(coeff.real) ** 2 + F(coeff.imag) ** 2
    for block, total in sorted(mass.items()):
        if total > F(1, bound):
            violations.append(f"block [{block[0]}, {block[1]}) coefficient mass {total} "
                              "exceeds 1/N")
    # sweep the window ends, a window's end before another's start at one point
    depth = overlap = 0
    for _, step in sorted(e for lo, hi, _ in windows
                          for e in ((lo.as_fraction(), 1), (hi.as_fraction(), -1))):
        depth += step
        overlap = max(overlap, depth)
    if overlap > bound:
        violations.append(f"overlap {overlap} exceeds bound {bound}")
    return violations


def apply_step(sig, windows, flags=None):
    """A step multiplier applied through its band bank, one inverse transform."""
    return sig.with_samples(bank_of(windows).combine(sig, flags=flags))


ORDER1 = lambda_tau(1, D.pow2(-1), D(8, 0))


def two_block_step(coeffs=(0.5, 0.5)):
    """Windows [1, 3/2) and [2, 3) in the order-1 blocks [1, 2) and [2, 4)."""
    return [(D(1, 0), D(3, -1), coeffs[0]),
            (D(2, 0), D(3, 0), coeffs[1])]


class TestStepMultiplier:
    def test_valid_construction(self):
        assert step_violations(two_block_step(), ORDER1, 1) == []
        assert step_violations(two_block_step(), ORDER1, 2) == []

    def test_containment_violation_raises(self):
        L1 = ORDER1[0]
        window = (L1.left, L1.right - (L1.left - L1.right), 0.1)  # escapes on the right
        assert step_violations([window], ORDER1, 1) == ["window 0 escapes its block"]
        empty = (L1.right, L1.left, 0.1)
        assert step_violations([empty], ORDER1, 1) == ["window 0 is empty"]

    def test_budget_violation_raises(self):
        # 0.9^2 > 1/2, and the mass is summed exactly: 0.5^2 + 0.5^2 = 1/2 passes
        assert step_violations(two_block_step(coeffs=(0.9, 0.2)), ORDER1, 2) == [
            f"block [1, 2) coefficient mass {F(0.9) ** 2} exceeds 1/N"]
        L = block_at(ORDER1, 1.0)
        halves = [(L.left, center(L), 0.5), (center(L), L.right, 0.5j)]
        assert step_violations(halves, ORDER1, 2) == []
        assert len(step_violations(halves, ORDER1, 3)) == 1

    def test_overlap_violation_raises(self):
        L = block_at(ORDER1, 1.0)
        windows = [(D(1, 0), D(7, -2), 0.5),
                   (D(3, -1), D(2, 0), 0.5)]
        assert step_violations(windows, ORDER1, 1) == ["overlap 2 exceeds bound 1"]
        # the same geometry is fine with bound 2 (budget 1/2 still met)
        assert step_violations(windows, ORDER1, 2) == []
        # half-open windows that only touch do not overlap
        assert step_violations([(L.left, center(L), 0.5), (center(L), L.right, 0.5)],
                               ORDER1, 2) == []

    def test_family_membership_check(self):
        assert step_violations(two_block_step(), ORDER1, 2) == []
        # the order-2 blocks start at 1 + 1/16 and 2 + 1/16
        fam2 = lambda_tau(2, D.pow2(-4), D(8, 0))
        assert step_violations(two_block_step(), fam2, 2) == [
            "window 0 lies in no block", "window 1 lies in no block"]
        # [5/4, 3) starts in the block [5/4, 3/2) and leaves it
        across = [(D(5, -2), D(3, 0), 0.5)]
        assert step_violations(across, fam2, 2) == ["window 0 escapes its block"]

    def test_prototype_is_valid_step_form(self):
        family = lambda_tau(2, D.pow2(-3), D(8, 0))
        bank = mult.prototype_multiplier(2, -3, 3, np.random.default_rng(0))
        assert step_violations(bank_windows(bank), family, 1) == []
        assert all(abs(c) == 1.0 for _, _, c in bank_windows(bank))
        assert bank.label == "step_multiplier"


@pytest.mark.parametrize("tau", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 10, 2026])
def test_prototype_windows_are_the_signed_blocks(tau, seed):
    family = lambda_tau(tau, D.pow2(-6), D(64, 0))
    bank = mult.prototype_multiplier(tau, -6, 6, rng=np.random.default_rng(seed))
    signs = np.random.default_rng(seed).choice([-1, 1], size=len(family))
    windows = bank_windows(bank)
    assert windows == tuple((L.left, L.right, complex(s)) for L, s in zip(family, signs))
    assert step_violations(windows, family, 1) == []


@pytest.mark.parametrize("tau", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 10, 2026])
def test_halved_step_windows_are_the_signed_halves(tau, seed):
    family = lambda_tau(tau, D.pow2(-6), D(64, 0))
    bank = harness._halved_step(interval_arrays(tau, -6, 6)[-1], -6, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    want = []
    for L in family:
        s = rng.choice([-1.0, 1.0], size=2)
        want += [(L.left, center(L), complex(0.5 * s[0])), (center(L), L.right, complex(0.5 * s[1]))]
    windows = bank_windows(bank)
    assert windows == tuple(want) and bank.label == "step_multiplier"
    assert step_violations(windows, family, 2) == []
    assert len(step_violations(windows, family, 3)) == len(family)  # mass 1/2 > 1/3


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
        # one unit window over the whole sampled band [-n/(2P), n/(2P))
        sig = self.make_signal()
        half = sig.n / (2 * sig.period)  # 64, exactly
        out = apply_step(sig, [(D.from_float(-half), D.from_float(half), 1.0)])
        scale = np.max(np.abs(sig.samples))
        assert np.max(np.abs(out.samples - sig.samples)) < 1e-12 * scale

    def test_block_indicator_equals_sharp_projection(self):
        sig = self.make_signal()
        L = block_at(ORDER1, 1.0)
        via_mult = apply_step(sig, [(L.left, L.right, 1.0)])
        via_proj = sp.project_sharp(sig, L)
        assert np.max(np.abs(via_mult.samples - via_proj.samples)) < 1e-12

    def test_plancherel_contraction(self):
        sig = self.make_signal(seed=4)
        windows = two_block_step()
        out = apply_step(sig, windows)
        sup = max(abs(c) for _, _, c in windows)
        assert _l2(out) <= sup * _l2(sig) + 1e-12

    def test_linearity(self):
        f = self.make_signal(seed=5)
        g = self.make_signal(seed=6)
        windows = two_block_step(coeffs=(0.3, 0.4j))
        both = apply_step(f.with_samples(f.samples + g.samples), windows)
        separate = (
            apply_step(f, windows).samples + apply_step(g, windows).samples
        )
        assert np.max(np.abs(both.samples - separate)) < 1e-12

    def test_translation_commutes(self):
        sig = self.make_signal(seed=8)
        windows = two_block_step()
        rolled = sig.with_samples(np.roll(sig.samples, 5))
        a = apply_step(rolled, windows).samples
        b = np.roll(apply_step(sig, windows).samples, 5)
        assert np.max(np.abs(a - b)) < 1e-11

    def test_aliasing_flagged(self):
        sig = self.make_signal(j=4, period=8.0)  # band edge at 1
        L = block_at(ORDER1, 2.0)
        flags = sp.AliasFlags()
        apply_step(sig, [(L.left, L.right, 1.0)], flags)
        assert flags.aliased


# -- sharpness family ---------------------------------------------------------


class TestSharpnessFamily:
    def test_pair_enumeration(self):
        fam = mult.build_sharpness_family(4, 12)
        assert fam.pairs == ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))

    def test_feasibility_guard(self):
        assert mult.max_feasible_parameter(20, 16.0) == 13
        # the support 2^(N+3) of the next dilated bump spectrum passes the
        # exact rational band, on every power-of-two period the configs take
        for log2_n in range(4, 23):
            for period in (2.0**p for p in range(1, 65)):
                want = max(fraction_band(1 << log2_n, period).log2() - 2, 0)
                assert mult.max_feasible_parameter(log2_n, period) == want, (log2_n, period)
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

    @pytest.mark.parametrize("order, log2_n", [(4, 12), (8, 16), (11, 18), (12, 20)])
    def test_dilated_bump_is_the_exact_sign_synthesis(self, order, log2_n):
        # the centered window's offset phase at j/T is exactly (-1)^j; the
        # complex ifft of the full signed spectrum is the reference, and
        # synthesize, which evaluates the phase as exp(-pi i j), the near one
        fam = mult.build_sharpness_family(order, log2_n)
        n, period = 1 << log2_n, fam.f_n.period
        js = sp.freq_indices(n)
        coeffs = mult.base_bump_spectrum(js / period / 2.0**order).astype(complex)
        exact = np.fft.ifft(coeffs * (-1.0) ** np.abs(js)) * (n / period)
        assert not fam.f_n.samples.imag.any()
        assert np.max(np.abs(fam.f_n.samples - exact)) <= 1e-14 * np.max(np.abs(exact))
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

    def test_unit_block_is_the_mask(self):
        # the samples np.abs(Signal.x) <= 0.5 picks, on dyadic and other periods
        for period in (16.0, 10.0, 3.0, 2.0**-3):
            for log2_n in range(4, 23):
                n = 1 << log2_n
                x = -period / 2 + (period / n) * np.arange(n)  # Signal.x
                block = mult.unit_block(n, period)
                assert np.array_equal(np.arange(n)[block],
                                      np.flatnonzero(np.abs(x) <= 0.5)), (period, log2_n)

    @pytest.mark.parametrize("period, log2_n", [(16.0, 12), (16.0, 14), (10.0, 13),
                                                (3.0, 12), (2.0**-3, 9)])
    def test_truncation_is_the_masked_copy_bitwise(self, period, log2_n):
        # g_N as it was built before: np.where over the whole grid
        for order in (2, mult.max_feasible_parameter(log2_n, period)):
            fam = mult.build_sharpness_family(order, log2_n, period)
            f = fam.f_n
            want = np.where(np.abs(f.x) <= 0.5, f.samples, 0)
            assert fam.g_n.samples.tobytes() == want.tobytes()
            assert (fam.g_n.period, fam.g_n.offset) == (f.period, f.offset)
            assert not fam.g_n.samples.flags.writeable

    @pytest.mark.parametrize("period, top", [(16.0, 7), (1.0, 11)])
    def test_envelope_from_the_known_spectrum(self, period, top):
        # f_N's coefficients read from its half spectrum against a transform
        # of its samples; at 2^14 period 16 holds orders up to 7, period 1 up to 11
        for order in range(2, top + 1):
            fam = mult.build_sharpness_family(order, 14, period)
            f = fam.f_n
            plan = fam.bank._grid(f, None)
            assert plan.pos.max() < fam.f_half.size <= f.n // 2 + 1
            rfft = np.fft.rfft(f.samples.real)[:fam.f_half.size]
            assert np.max(np.abs(fam.f_half - rfft)) <= 1e-14 * np.max(np.abs(rfft))
            xs = np.geomspace(2.0 ** (-5 * order / 8), 0.25, 16)
            want = fam.bank.square_at(f, xs)
            got = fam.bank.square_at(f, xs, fam.f_half)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)

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
    t = np.asarray(xs, dtype=float) - sig.offset
    xi = sp.freq_indices(sig.n)[plan.pos] / sig.period
    terms = np.exp(2j * np.pi * np.outer(xi, t))
    terms *= (sp.coefficients(sig.samples, plan.pos) * plan.vals)[:, None]
    return np.sqrt(np.sum(np.abs(sp._band_sums(plan, terms) / sig.n) ** 2, axis=0))


@pytest.mark.parametrize("order, log2_n", [(4, 12), (7, 14)])
def test_square_at_is_the_one_matrix_expression_bitwise(order, log2_n):
    fam = mult.build_sharpness_family(order, log2_n)
    rng = np.random.default_rng(order)
    xs = np.concatenate([fam.f_n.x[[0, 5, 1 << (log2_n - 1)]],
                         rng.uniform(-fam.f_n.period / 2, fam.f_n.period / 2, 13)])
    for sig in (fam.f_n, fam.g_n):
        got = fam.bank.square_at(sig, xs)
        assert np.array_equal(got, one_matrix_square_at(fam.bank, sig, xs))
        assert np.array_equal(fam.bank.square_at(sig, xs[4]),
                              one_matrix_square_at(fam.bank, sig, xs[4]))


def _l2(sig):
    return math.sqrt(sig.dx * float(np.sum(np.abs(sig.samples) ** 2)))
