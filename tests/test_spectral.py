"""Tests for signals, projections, and square functions.

The transform oracle is a direct O(n^2) Riemann-sum DFT, written against the
stated convention fhat(xi_j) = (T/M) sum_k f(x_k) exp(-2 pi i x_k xi_j); the
fast path must agree with it to near machine precision.

Reference ledger:
- ``brute_spectrum``: the direct Riemann-sum DFT, sharing no code with the
  FFT path; ``spectrum`` at 64 samples and three offsets, to 1e-10.
- ``fraction_band``: the band ``n / 2T`` in exact rationals; ``band_log2``
  at 2^0 to 2^22 samples on every power-of-two period a float holds, one
  float step either side and five non-dyadic periods, exactly.
- ``reference_lattice_bounds``: each window's lattice bounds from exact
  rationals; ``_window_bounds`` on drawn windows up to 2^64 mantissas at
  five periods, on and next to lattice points, and on 20- to 700-bit ends,
  exactly.
- ``reference_resolve``: the per-window resolution, one window at a time
  on those bounds; every bank verify, gen-zygmund-bonami, sqfn, the
  projections and the sharpness families build (intervals from
  ``test_lacunary.sorted_lambda_tau``), positions, weights and counts as
  arrays and alias events as text.
- ``_reference_spectra``: each band's true-phase spectrum from the float
  frequencies, independent of the plan; ``TestBandBank.FAMILY`` sharp and
  eta at two offsets, on a complex and a real signal, to 1e-12 of the peak.
- ``reference_band_square``, ``reference_band_symbol``,
  ``reference_band_magnitudes``, ``reference_band_energies`` and
  ``reference_band_square_at``: the per-band loops the grid plan replaced;
  every bank operation of verify at tau 3, the sharpness families and the
  growth study at 2^14, gen-zygmund-bonami and the edge bands; square and
  symbol bitwise, magnitudes bitwise on complex signals and to 1e-14 of the
  peak on real ones (one ``rfft`` against the loop's ``fft``), energies and
  square_at to 1e-14 of the peak.
- ``reference_weak_l1_norm``: ``weak_l1_norm`` as it was, with every
  input cast to complex before its magnitudes; real, complex, integer,
  signed-zero and subnormal inputs, bitwise.
- ``square_reference``: the band-by-band aggregate, one complex inverse
  transform per band; ``square`` on the edge bands, and the verify and
  growth squares in ``test_harness`` and ``test_multipliers``, to 1e-12 of
  the peak.
"""

import inspect
import math
import struct
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lacuna.dyadic import DyadicScalar as D
from lacuna.lacunary import LacInterval, interval_arrays, lambda_tau, lattice_points
from lacuna import spectral as sp
from test_lacunary import D as fraction_scalar


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


def fraction_band(n, period):
    """The former ``default_band``, in exact rationals: the largest dyadic
    window at most n / (2 T), the reference ``band_log2`` is checked against."""
    band = F(n, 2) / F(period)
    if band.denominator & (band.denominator - 1) == 0:
        return fraction_scalar(band)
    # non-dyadic lattice spacing: fall back to the largest power of two below
    k = band.numerator.bit_length() - band.denominator.bit_length()
    if F(2) ** k > band:
        k -= 1
    return D.pow2(k)


def dyadic_interval(left, right, anchor=0):
    return LacInterval(
        left=fraction_scalar(F(left)),
        right=fraction_scalar(F(right)),
        order=1,
        anchor=fraction_scalar(F(anchor)),
    )


def sharp_window(interval):
    """The ``(lo, hi, weight)`` window of the indicator of ``[left, right)``."""
    return interval.left, interval.right, 1.0


def eta_window(interval):
    """The ``(lo, hi, weight)`` window of the adapted bump ``eta((xi -
    c_L)/|L|)``: the padded window ``(5/4)L`` covers its support."""
    length = interval.length
    center = float(interval.right - length.scale_pow2(-1))
    pad = D(3 * length.mantissa, length.exponent - 2)
    return (interval.left - pad, interval.right - D(-pad.mantissa, pad.exponent),
            lambda xi: sp.eta((xi - center) / float(length)))


def window_ends(windows):
    """The ends of ``(lo, hi, weight)`` windows as Python integers times one
    power of two: ``(lo, hi, exponent)``."""
    ends = [end for lo, hi, _ in windows for end in (lo, hi)]
    e = min((end.exponent for end in ends), default=0)
    q = np.array([end.mantissa << (end.exponent - e) for end in ends], dtype=object)
    return q[0::2], q[1::2], e


def bank_of(windows, label="band"):
    """The bank of ``(lo, hi, weight)`` windows with scalar ends, each weight a
    constant or a function of the window's frequencies."""
    lo, hi, e = window_ends(windows)
    weights = [w for *_, w in windows]
    if not any(callable(w) for w in weights):
        return sp.BandBank(lo, hi, e, np.array(weights), label)

    def weight(xi, at):
        # window by window in window order, promoted as one concatenation
        parts = [np.empty(0)]
        for i, w in enumerate(weights):
            part = xi[at == i]
            parts.append(w(part) if callable(w) else np.full(part.size, w))
        return np.concatenate(parts)

    return sp.BandBank(lo, hi, e, weight, label)


def bank_windows(bank):
    """The ``(lo, hi, weight)`` windows of a bank of constant weights."""
    e = bank.exponent
    return tuple((D(lo, e), D(hi, e), w) for lo, hi, w in
                 zip(bank.lo.tolist(), bank.hi.tolist(), bank.weight.tolist()))


def bank_rows(bank, sig, flags=None):
    """The bank's plan on ``sig``'s grid split into ``(positions, weights)``
    rows, one per window (empty for a band without lattice points); the
    grid's alias events are marked on ``flags``."""
    plan = bank._grid(sig, flags)
    return [(plan.pos[at:at + k], plan.vals[at:at + k])
            for at, k in zip(plan.starts, plan.counts)]


def reference_resolve(windows, label, sig):
    """The per-window resolution of ``(lo, hi, weight)`` windows on ``sig``'s
    grid: each window's lattice band from exact rational bounds, clipped and
    flagged, its weights on it, and the nonzero ones kept, concatenated in
    window order.  Returns ``(pos, vals, counts, events)``."""
    half = sig.n // 2
    pos, vals, counts, events = [np.empty(0, np.int64)], [np.empty(0)], [], []
    for lo, hi, weight in windows:
        jmin, jmax = reference_lattice_bounds(lo, hi, sig.period)
        if jmin < -half or jmax > half - 1:
            events.append(f"{label}: window [{jmin},{jmax}] exceeds lattice +-{half}")
        first, last = max(jmin, -half), min(jmax, half - 1)
        if first > last and jmin <= jmax:
            events.append(f"{label}: window entirely outside lattice")
        js = np.arange(first, last + 1, dtype=np.int64) if first <= last else np.empty(0, np.int64)
        w = weight(js / sig.period) if callable(weight) else np.full(js.size, weight)
        keep = w != 0.0
        pos.append(js[keep] % sig.n)
        vals.append(w[keep])
        counts.append(int(np.count_nonzero(keep)))
    return (np.concatenate(pos), np.concatenate(vals), np.array(counts, dtype=np.int64),
            tuple(events))


def family_bank(kind, label="band"):
    """The sharp or eta bank of ``TestBandBank.FAMILY``, from its arrays."""
    family = interval_arrays(2, -5, 3)[-1]
    if kind == "sharp":
        return sp.BandBank(family.left, family.right, -5, np.ones(family.left.size), label)
    return sp.eta_bank(family.left, family.right, -5, label)


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

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_public_constructor_copies_the_callers_array(self, dtype):
        vals = np.arange(8, dtype=dtype)
        sig = sp.Signal(vals, period=2.0)
        assert not np.shares_memory(sig.samples, vals)
        assert vals.flags.writeable and not sig.samples.flags.writeable
        vals[0] = 5.0
        assert sig.samples[0] == 0.0
        with pytest.raises(ValueError):
            sig.samples[0] = 1.0


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

    @pytest.mark.parametrize("log2_n", range(1, 21))
    def test_signed_indices_pick_the_fft_layout(self, log2_n):
        n = 1 << log2_n
        rng = np.random.default_rng(log2_n)
        pos = np.concatenate([[0, n // 2 - 1, n // 2, n - 1], rng.integers(0, n, 64)])
        pos = np.unique(pos % n).astype(np.int64)  # n = 2 repeats the ends
        got = sp._signed_indices(pos, n)
        assert got.dtype == np.int64
        assert np.array_equal(got, sp.freq_indices(n)[pos])
        if log2_n <= 12:
            for m in (n, n + 1, n - 1):  # odd lengths too
                whole = np.arange(m, dtype=np.int64)
                assert np.array_equal(sp._signed_indices(whole, m), sp.freq_indices(m))

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

# -- lattice windows and sharp projections --------------------------------


def band_periods():
    """Every power of two a float holds, one float step either side of each,
    and periods that are not dyadic."""
    for e in range(-1074, 1024):
        p = math.ldexp(1.0, e)
        yield from (p, math.nextafter(p, math.inf), math.nextafter(p, 0.0))
    yield from (3.0, 10.0, 0.75, 0.1, 1e300)


def test_band_log2_matches_the_rational_band():
    periods = [p for p in band_periods() if p > 0.0]  # below 2^-1074 lies 0
    assert len(periods) == 3 * 2098 + 4
    for log2_n in range(23):
        for period in periods:
            want = fraction_band(1 << log2_n, period)
            assert want.log2() == sp.band_log2(log2_n, period), (log2_n, period)


class TestSharpProjection:
    def test_band_indices_exact(self):
        sig = sp.Signal(np.zeros(64), period=8.0, offset=-4.0)
        idx = sp.band_indices(sig, D(1, 0), D(2, 0))
        js = sp.freq_indices(64)[idx]
        assert sorted(js) == list(range(8, 16))
        idx_neg = sp.band_indices(sig, D(-2, 0), D(-1, 0))
        js_neg = sorted(sp.freq_indices(64)[idx_neg])
        assert js_neg == list(range(-16, -8))

    def test_band_indices_half_open(self):
        sig = sp.Signal(np.zeros(64), period=8.0)
        idx = sp.band_indices(sig, D(1, -3), D(1, -2))
        assert sorted(sp.freq_indices(64)[idx]) == [1]

    def test_band_at_nyquist_edges(self):
        sig = sp.Signal(np.zeros(64), period=8.0)
        flags = sp.AliasFlags()
        # positive block ending exactly at the band edge: fits (half-open)
        idx = bank_rows(bank_of([(D(2, 0), D(4, 0), 1.0)]), sig, flags)[0][0]
        assert sorted(sp.freq_indices(64)[idx]) == list(range(16, 32))
        # negative block starting at -edge: the -n/2 bin is representable
        idx = bank_rows(bank_of([(D(-4, 0), D(-2, 0), 1.0)]), sig, flags)[0][0]
        assert sorted(sp.freq_indices(64)[idx]) == list(range(-32, -16))
        assert not flags.aliased

    def test_band_beyond_nyquist_flags(self):
        sig = sp.Signal(np.zeros(64), period=8.0)
        flags = sp.AliasFlags()
        bank_rows(bank_of([(D(4, 0), D(8, 0), 1.0)]), sig, flags)
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
        family = lambda_tau(1, D.pow2(-3), fraction_band(sig.n, sig.period))
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


def reference_lattice_bounds(lo, hi, period):
    """The integers j with lo <= j/T < hi, from exact rational arithmetic."""
    t = F(period)
    return math.ceil(lo.as_fraction() * t), math.ceil(hi.as_fraction() * t) - 1


LATTICE_PERIODS = [16.0, 3.0, 0.1, 2.0**-40, 1e300]


def window_bounds(lo, hi, period):
    """The resolver's lattice bounds of one window."""
    jmin, jmax = sp._window_bounds(*window_ends([(lo, hi, 1.0)]), period)
    return int(jmin[0]), int(jmax[0])


class TestLatticeBounds:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(-(1 << 64), 1 << 64), st.integers(-1000, 1000),
           st.integers(-(1 << 64), 1 << 64), st.integers(-1000, 1000),
           st.sampled_from(LATTICE_PERIODS))
    def test_matches_exact_rationals(self, m_lo, e_lo, m_hi, e_hi, period):
        lo, hi = D(m_lo, e_lo), D(m_hi, e_hi)
        assert window_bounds(lo, hi, period) == reference_lattice_bounds(lo, hi, period)

    @pytest.mark.parametrize("period", LATTICE_PERIODS)
    def test_bounds_on_and_next_to_lattice_points(self, period):
        # with T = t 2^-k (t odd unless k = 0), x = i 2^(k - v) with v the
        # 2-adic valuation of t sits exactly on the lattice point j = i t/2^v
        t, den = period.as_integer_ratio()
        k = den.bit_length() - 1
        v = (t & -t).bit_length() - 1
        rng = np.random.default_rng(61)
        for i in [0, 1, -1, 2, -3] + rng.integers(-(1 << 40), 1 << 40, 20).tolist():
            on = D(i, k - v)
            j = i * (t >> v)
            assert window_bounds(on, on, period) == (j, j - 1)
            for off in (-1, 1):  # half a lattice step below or above the point
                near = on - D(-off, k - v - 1)
                for lo, hi in ((on, near), (near, on), (near, near)):
                    assert window_bounds(lo, hi, period) == reference_lattice_bounds(
                        lo, hi, period)

    def test_windows_are_resolved_at_once(self):
        # many windows of one bank in one call, int64 and Python integers alike
        rng = np.random.default_rng(62)
        for period in LATTICE_PERIODS:
            for bits in (20, 70, 700):
                q = [int(v) for v in rng.integers(-(1 << 62), 1 << 62, 64)]
                ends = [D(v << max(bits - 62, 0) >> max(62 - bits, 0), -bits // 2) for v in q]
                pairs = list(zip(ends[0::2], ends[1::2]))
                lo, hi, e = window_ends([(a, b, 1.0) for a, b in pairs])
                jmin, jmax = sp._window_bounds(lo, hi, e, period)
                assert list(zip(jmin.tolist(), jmax.tolist())) == [
                    reference_lattice_bounds(a, b, period) for a, b in pairs]


# -- smooth projections and modulation -------------------------------------


class TestSmoothProjection:
    def test_symbol_values_on_lattice(self):
        sig = sp.Signal(np.zeros(128), period=16.0, offset=-8.0)
        bank = sp.eta_bank(np.array([2]), np.array([4]), 0, "project_smooth")
        sym = bank.symbol(sig).real
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
        family = lambda_tau(2, D.pow2(-2), D(8, 0))
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
        family = lambda_tau(1, D.pow2(-3), fraction_band(sig.n, sig.period))
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
        family = lambda_tau(1, D.pow2(-2), fraction_band(sig.n, sig.period))
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
    xi = sp.freq_indices(sig.n) / sig.period
    rows = []
    for L in family:
        if kind == "sharp":
            weight = (xi >= float(L.left)) & (xi < float(L.right))
        else:
            weight = sp.eta((xi - float(L.right - L.length.scale_pow2(-1))) / float(L.length))
        rows.append(coeffs * weight)
    return np.array(rows)


def reference_band_square(bank, sig):
    """The per-band ``BandBank.square`` loop that the grid plan replaced: two
    small transforms per band, each band's lags added on its own, in band
    order, reading the coefficients as ``square`` does.  The plan must give
    its bits."""
    rows = bank_rows(bank, sig)
    samples = sig.samples
    peak = max(np.max(np.abs(samples.real)), np.max(np.abs(samples.imag)))
    shift = int(np.clip(np.frexp(peak)[1], -1021, 1021))
    n = sig.n
    coeffs = sp.coefficients(samples * 2.0**-shift, np.arange(n))
    total = np.zeros(n // 2 + 1, dtype=np.complex128)
    for idx, vals in rows:
        if not idx.size:
            continue
        offs = (idx - idx[0]) % n
        assert np.all(np.diff(offs) > 0)
        w = int(offs[-1]) + 1
        size = min(1 << (2 * w - 1).bit_length(), n)
        run = np.zeros(size, dtype=np.complex128)
        run[offs] = coeffs[idx] * vals
        spec = np.fft.fft(run)
        lags = np.fft.ihfft(spec.real**2 + spec.imag**2)
        head = min(w, size // 2 + 1)
        total[:head] += lags[:head]
    power = np.fft.irfft(total, n) / n
    return np.ldexp(np.sqrt(np.maximum(power, 0.0)), shift)


def reference_band_symbol(bank, sig, weights=None):
    """The per-band ``BandBank.symbol`` loop that the one scatter replaced."""
    rows = bank_rows(bank, sig)
    if weights is None:
        weights = np.ones(len(rows))
    sym = np.zeros(sig.n, dtype=np.complex128)
    for w, (idx, vals) in zip(weights, rows):
        sym[idx] += w * vals
    return sym


def reference_band_magnitudes(bank, sig, columns=slice(None)):
    """The per-band ``BandBank.magnitudes`` loop over the rows: one masked
    spectrum and one inverse transform per band.  The plan must give its bits."""
    rows = bank_rows(bank, sig)
    coeffs = np.fft.fft(sig.samples)
    out = np.zeros((len(rows), sig.samples[columns].size))
    for out_row, (idx, vals) in zip(out, rows):
        if idx.size:
            masked = np.zeros_like(coeffs)
            masked[idx] = coeffs[idx] * vals
            out_row[:] = np.abs(np.fft.ifft(masked)[columns])
    return out


def reference_band_energies(bank, sig):
    """The per-band ``BandBank.energies`` loop that the segmented sum replaced."""
    coeffs = np.fft.fft(sig.samples)
    scale = sig.period / sig.n**2
    return np.array(
        [scale * np.sum(np.abs(coeffs[idx] * vals) ** 2) for idx, vals in bank_rows(bank, sig)]
    )


def reference_band_square_at(bank, sig, xs):
    """The per-band ``BandBank.square_at`` loop that the one phase matrix
    replaced: one matrix-vector product per band, squares added in band order."""
    coeffs = sp.coefficients(sig.samples, np.arange(sig.n))
    js = sp.freq_indices(sig.n)
    t = np.asarray(xs, dtype=float) - sig.offset
    acc = np.zeros(t.shape)
    for idx, vals in bank_rows(bank, sig):
        phases = np.exp(2j * np.pi * np.outer(t, js[idx] / sig.period))
        acc += np.abs(phases @ (coeffs[idx] * vals) / sig.n) ** 2
    return np.sqrt(acc)


def square_reference(bank, sig):
    """The band-by-band aggregate: one inverse transform per band, squared
    and added in band order."""
    coeffs = np.fft.fft(sig.samples)
    acc = np.zeros(sig.n)
    for idx, vals in bank_rows(bank, sig):
        masked = np.zeros_like(coeffs)
        masked[idx] = coeffs[idx] * vals
        piece = np.fft.ifft(masked)
        acc += piece.real**2 + piece.imag**2
    return np.sqrt(acc)


@pytest.mark.parametrize("log2_n", [0, 1, 2, 3, 7, 12, 16])
def test_coefficients_are_the_fft_at_the_positions(log2_n):
    # bitwise for complex samples, zero imaginary parts included; within 1e-14
    # of the peak coefficient for real ones, read from one rfft on both half-axes
    from lacuna.multipliers import build_sharpness_family

    n = 1 << log2_n
    rng = np.random.default_rng(80 + log2_n)
    pos = np.concatenate([np.arange(n), rng.integers(0, n, 64), [n // 2, 0, n - 1]])
    real = [rng.standard_normal(n), rng.pareto(1.5, n) * (rng.random(n) < 0.3),
            np.full(n, -2.5), np.zeros(n)]
    if log2_n >= 12:
        fam = build_sharpness_family(log2_n - 9, log2_n)
        real += [fam.f_n.samples, fam.g_n.samples]
    for values in real:
        want = np.fft.fft(values)[pos]
        got = sp.coefficients(values, pos)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        negative_zero = values.astype(complex)
        negative_zero.imag = -0.0
        for samples in (values + 0j, negative_zero, values + 1j * rng.standard_normal(n)):
            got = sp.coefficients(samples, pos)
            assert got.tobytes() == np.fft.fft(samples)[pos].tobytes()


@pytest.mark.parametrize("log2_n", [0, 1, 2, 3, 7, 12])
def test_from_coefficients_inverts_the_reader(log2_n):
    # the ifft of the values scattered into zeros, bitwise; a real grid with
    # Hermitian values (a symmetric set read from real samples) takes one
    # irfft of the half and comes back float64, bitwise that irfft
    n = 1 << log2_n
    rng = np.random.default_rng(120 + log2_n)
    values = rng.standard_normal(n)
    half = np.unique(rng.integers(0, n // 2 + 1, 8))
    symmetric = np.unique(np.concatenate([half, -half % n]))
    one_sided = np.unique(rng.integers(1, max(n // 2, 2), 8)) % n
    for samples in (values, values + 0j, values + 1j * rng.standard_normal(n)):
        for pos in (symmetric, one_sided, np.arange(n), np.arange(0)):
            coeffs = sp.coefficients(samples, pos)
            spec = np.zeros(n, dtype=complex)
            spec[pos] = coeffs
            got = sp.from_coefficients(coeffs, pos, samples)
            mirrored = np.array_equal(np.sort(-pos % n), np.sort(pos))
            if samples.dtype == np.float64 and (mirrored or not np.any(coeffs)):
                assert got.dtype == np.float64
                assert got.tobytes() == np.fft.irfft(spec[:n // 2 + 1], n).tobytes()
            else:
                assert got.tobytes() == np.fft.ifft(spec).tobytes()
        full = sp.from_coefficients(sp.coefficients(samples, np.arange(n)), np.arange(n), samples)
        assert np.max(np.abs(full - samples)) <= 1e-14 * np.max(np.abs(samples))


@pytest.mark.parametrize("log2_n", range(3, 16))
def test_complex_inverse_in_place_is_the_out_of_place_transform(log2_n):
    # complex pieces at czd's sizes, read at their lacunary bins of orders
    # 0-2 and at every position: the in-place ifft, bitwise
    n = 1 << log2_n
    rng = np.random.default_rng(160 + log2_n)
    like = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    sets = [lattice_points(sigma, (n - 1) // 2) % n for sigma in (0, 1, 2)]
    for pos in sets + [np.arange(n)]:
        values = sp.coefficients(like, pos)
        spec = np.zeros(n, dtype=complex)
        spec[pos] = values
        got = sp.from_coefficients(values, pos, like)
        assert got.dtype == np.complex128 and got.tobytes() == np.fft.ifft(spec).tobytes()


def test_complex_inverse_allocates_one_spectrum():
    # the spectrum is transformed in place: one n-length complex128 array,
    # where an out-of-place ifft holds two
    n = 1 << 15
    rng = np.random.default_rng(159)
    like = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    pos = lattice_points(2, (n - 1) // 2) % n
    values = sp.coefficients(like, pos)
    sp.from_coefficients(values, pos, like)  # the transform's plan, made once
    tracemalloc.start()
    try:
        sp.from_coefficients(values, pos, like)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 16 * n, peak / (16 * n)


@pytest.mark.parametrize("log2_n", [0, 1, 2, 3, 7])
def test_from_coefficients_is_real_exactly_for_hermitian_values(log2_n):
    # on a float64 grid: one irfft of the half, bitwise, when the scattered
    # spectrum is its own mirrored conjugate, else the ifft; mirrors dropped
    # on either half-axis, values off their mirror's conjugate or zeroed,
    # imaginary ends and repeated positions
    n = 1 << log2_n
    rng = np.random.default_rng(140 + log2_n)
    like, taken = np.zeros(n), set()
    for _ in range(300):
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n) * (rng.random() < 0.2)
        q = rng.integers(0, n // 2 + 1, rng.integers(0, 6))
        mirrors = -q % n
        extra = rng.integers(0, n, rng.integers(0, 3) // 2)
        pos = np.concatenate([q, mirrors[rng.random(q.size) < 0.9], extra])
        values = np.fft.fft(samples)[pos]
        if pos.size and rng.random() < 0.4:
            values[pos == rng.choice(pos)] *= rng.choice([0.0, 1.0 + 1e-3j])
        spec = np.zeros(n, dtype=complex)
        spec[pos] = values
        hermitian = np.array_equal(spec, np.conjugate(spec[-np.arange(n) % n]))
        got = sp.from_coefficients(values, pos, like)
        want = np.fft.irfft(spec[:n // 2 + 1], n) if hermitian else np.fft.ifft(spec)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        taken.add(hermitian)
    assert taken == {True, False}


class TestBandBank:
    # scales down to 1/32 on the 1/8 lattice: some band edges fall on lattice
    # points, some between them, and some bands hold no lattice point at all
    FAMILY = lambda_tau(2, D.pow2(-5), D(8, 0))
    PERIOD = 8.0

    @pytest.mark.parametrize("kind", ["sharp", "eta"])
    @pytest.mark.parametrize("offset", [0.0, -4.0])
    def test_matches_band_by_band_reference(self, kind, offset):
        # one bank serves both grids, each with its own rows
        bank = family_bank(kind)
        for n in (1 << 10, 1 << 11, 1 << 10):
            self._check_against_reference(bank, kind, offset, n)
        assert set(bank.grids) == {(1 << 10, self.PERIOD), (1 << 11, self.PERIOD)}

    @pytest.mark.parametrize("kind", ["sharp", "eta"])
    @pytest.mark.parametrize("offset", [0.0, -4.0])
    def test_real_signal_matches_band_by_band_reference(self, kind, offset):
        # the real parts of the same samples, read from one rfft
        bank = family_bank(kind)
        for n in (1 << 10, 1 << 11):
            self._check_against_reference(bank, kind, offset, n, real=True)

    def test_combinations_mark_each_alias_event_once(self):
        # three rows on a bank whose one window leaves the lattice: one
        # event, as for combine, and each row bitwise its combine
        bank = sp.BandBank(np.array([0]), np.array([1000]), 0, np.ones(1))
        sig = sp.Signal(np.cos(np.arange(64.0)), 1.0)
        rows = [[1.0], [-2.0], [0.5j]]
        flags, one = sp.AliasFlags(), sp.AliasFlags()
        outs = list(bank.combinations(sig, rows, flags))
        bank.combine(sig, rows[0], one)
        assert flags.events == one.events == ["band: window [0,999] exceeds lattice +-32"]
        for out, row in zip(outs, rows):
            assert out.tobytes() == bank.combine(sig, row).tobytes()

    def _check_against_reference(self, bank, kind, offset, n, real=False):
        rng = np.random.default_rng(51)
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sig = sp.Signal(samples.real if real else samples, self.PERIOD, offset)
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
        phases = np.exp(2j * np.pi * np.outer(xs, sp.freq_indices(sig.n) / sig.period))
        at = np.sqrt(np.sum(np.abs(phases @ spectra.T / sig.period) ** 2, axis=1))
        close(bank.square_at(sig, xs), at, np.max(at))
        close(at[:3], square[[3, 400, 1000]], np.max(at))

    @staticmethod
    def edge_windows():
        return [
            (D(-1, 0), D(1, 0), 1.0),  # straddles index 0
            (D(-48, 0), D(40, 0), 1.0),  # 704 > n/2 points: L = n
            (D(-64, 0), D(64, 0), 1.0),  # the whole lattice
            (D(56, 0), D(72, 0), 1.0),  # clipped at the top edge
            (D(-64, 0), D(-60, 0), 1.0),  # starts at -n/2
            (D.pow2(-6), D.pow2(-5), 1.0),  # no lattice point: an empty row
            # zero weights inside the run are dropped from the row
            (D(5, 0), D(15, 0), lambda xi: np.abs(xi - 10.0) > 1.0),
            (D(2, 0), D(9, 0), lambda xi: np.exp(1j * xi) * xi),
        ] + [eta_window(L) for L in TestBandBank.FAMILY]

    @pytest.mark.parametrize("offset", [0.0, -4.0])
    def test_square_matches_band_by_band_sum_on_edge_bands(self, offset):
        rng = np.random.default_rng(53)
        n = 1 << 10
        sig = sp.Signal(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                        self.PERIOD, offset)
        bank = bank_of(self.edge_windows())
        assert bank_rows(bank, sig)[5][0].size == 0
        assert bank_rows(bank, sig)[6][0].size < 80
        want = square_reference(bank, sig)
        assert np.max(np.abs(bank.square(sig) - want)) <= 1e-12 * np.max(want)

    def test_square_is_exactly_scale_covariant(self):
        # the samples are brought near 1 by a power of two before they are
        # squared, so scaling the input by 2^k scales the result by exactly
        # 2^k, also where the squares alone would over- or underflow
        rng = np.random.default_rng(55)
        sig = sp.Signal(rng.standard_normal(1 << 10) + 1j * rng.standard_normal(1 << 10),
                        self.PERIOD)
        bank = family_bank("sharp")
        base = bank.square(sig)
        assert np.max(base) > 0.0
        for k in (-900, -300, 300, 900):
            assert np.array_equal(bank.square(sig.with_samples(sig.samples * 2.0**k)),
                                  base * 2.0**k)

    def test_square_of_huge_samples_is_finite(self):
        # 16 samples of 1.2e154 (the CLI fuzz's "huge" signal): the band
        # coefficients' squares pass the float range unless scaled
        vals = np.zeros(64)
        vals[8:24] = 1.2e154
        sig = sp.Signal(vals, 8.0, -4.0)
        agg = sp.lp_square_function(sig, 2, D.pow2(-6), "sharp", fraction_band(sig.n, sig.period))
        assert np.all(np.isfinite(agg.samples)) and np.max(np.abs(agg.samples)) > 1e153
        small = sp.lp_square_function(sig.with_samples(vals * 2.0**-600), 2, D.pow2(-6),
                                      "sharp", fraction_band(sig.n, sig.period))
        assert np.array_equal(agg.samples, small.samples * 2.0**600)

    def test_square_is_exactly_zero_without_signal_or_lattice_points(self):
        zero = sp.Signal(np.zeros(1 << 10), self.PERIOD)
        assert np.array_equal(family_bank("sharp").square(zero), np.zeros(1 << 10))
        rng = np.random.default_rng(54)
        sig = sp.Signal(rng.standard_normal(1 << 10), self.PERIOD)
        empty = bank_of([(D.pow2(-6), D.pow2(-5), 1.0)] * 3)
        assert np.array_equal(empty.square(sig), np.zeros(1 << 10))
        assert np.array_equal(bank_of([]).square(sig), np.zeros(1 << 10))

    @pytest.mark.parametrize("idx", [[4, 6, 5], [1, 2, 2], [0, 5, 3]])
    def test_square_rejects_a_row_that_is_not_one_run(self, idx, monkeypatch):
        # the grid's plan checks its rows when it is built, so the bad row
        # comes in through the window resolution
        monkeypatch.setattr(sp, "_lattice_windows",
                            lambda *args: (np.array(idx), np.zeros(len(idx), np.int64), []))
        sig = sp.Signal(np.ones(16), 2.0)
        bank = bank_of([(D(0, 0), D(1, 0), 1.0)])
        with pytest.raises(ValueError, match="one run"):
            bank.square(sig)

    def test_rows_hold_exact_bands_with_nonzero_weights(self):
        on_lattice = [(L.left.as_fraction() * 8).denominator == 1
                      and (L.right.as_fraction() * 8).denominator == 1
                      for L in self.FAMILY]
        assert any(on_lattice) and not all(on_lattice)
        sig = sp.Signal(np.zeros(1 << 10), self.PERIOD)
        sharp = family_bank("sharp")
        for (idx, vals), L in zip(bank_rows(sharp, sig), self.FAMILY):
            assert np.array_equal(idx, sp.band_indices(sig, L.left, L.right))
            assert np.all(vals == 1.0)
        assert any(idx.size == 0 for idx, _ in bank_rows(sharp, sig))
        eta = family_bank("eta")
        assert all(np.all(vals != 0.0) for _, vals in bank_rows(eta, sig))

    def test_rows_are_resolved_once_per_grid(self, monkeypatch):
        resolved = []
        real = sp.BandBank._resolve

        def counting(bank, sig):
            resolved.append((id(bank), sig.n, sig.period))
            return real(bank, sig)

        monkeypatch.setattr(sp.BandBank, "_resolve", counting)
        rng = np.random.default_rng(55)
        banks = [family_bank("eta"), family_bank("eta")]
        grids = [(1 << 9, self.PERIOD), (1 << 10, self.PERIOD), (1 << 10, 2 * self.PERIOD)]
        for _ in range(3):
            for n, period in grids:
                sig = sp.Signal(rng.standard_normal(n), period, -period / 2)
                for bank in banks:
                    bank.square(sig)
                    bank.combine(sig, flags=sp.AliasFlags())
                    bank.energies(sig)
                # a resolved grid gives what fresh rows give, bit for bit
                fresh = family_bank("eta")
                assert np.array_equal(banks[0].magnitudes(sig), fresh.magnitudes(sig))
        ids = {id(bank) for bank in banks}
        assert sorted(r for r in resolved if r[0] in ids) == sorted(
            (id(bank), n, period) for bank in banks for n, period in grids)

    def test_resolved_grid_replays_its_alias_events(self):
        # 2^8 samples at period 4 reach the frequency 32: the blocks +-[32, 64)
        # leave the lattice
        family = interval_arrays(1, 0, 6)[-1]
        bank = sp.BandBank(family.left, family.right, 0, np.ones(family.left.size), "wide")
        sig = sp.Signal(np.ones(1 << 8), 4.0)
        first, again = sp.AliasFlags(), sp.AliasFlags()
        bank.square(sig, first)
        bank.magnitudes(sig, flags=again)
        assert first.aliased and again.events == first.events
        assert all(event.startswith("wide:") for event in first.events)
        # on a grid that holds the whole family nothing is flagged
        clean = sp.AliasFlags()
        bank.combine(sp.Signal(np.ones(1 << 8), 1.0), flags=clean)
        assert not clean.aliased


class TestBandPlan:
    """Every ``BandBank`` operation on a grid's plan against the per-band loop
    it replaced, on the banks the experiments build: ``square`` and
    ``symbol`` give its bits, ``magnitudes`` too on a complex signal and
    within ``1e-14`` of its peak on a real one (read from one ``rfft``, where
    the loop takes the complex ``fft``), ``energies`` and ``square_at`` (one
    segmented sum where the loop summed band by band) within ``1e-14``."""

    REFERENCES = {  # name: (reference, tolerance on complex signals, on real ones)
        "square": (reference_band_square, 0.0, 0.0),
        "symbol": (reference_band_symbol, 0.0, 0.0),
        "magnitudes": (reference_band_magnitudes, 0.0, 1e-14),
        "energies": (reference_band_energies, 1e-14, 1e-14),
        "square_at": (reference_band_square_at, 1e-14, 1e-14),
    }

    @classmethod
    def record(cls, monkeypatch):
        # every bank operation the code makes: its arguments but the flags
        # and a known half spectrum (the reference transforms the samples),
        # its result, its reference and the tolerance
        calls = []
        for name, (reference, *tols) in cls.REFERENCES.items():
            real = getattr(sp.BandBank, name)

            def operation(*args, real=real, reference=reference, tols=tols, **kwargs):
                out = real(*args, **kwargs)
                bound = inspect.signature(real).bind(*args, **kwargs)
                bound.arguments.pop("flags", None)
                bound.arguments.pop("half", None)
                tol = tols[bound.arguments["sig"].samples.dtype != np.complex128]
                calls.append((*bound.arguments.values(), out, reference, tol))
                return out

            monkeypatch.setattr(sp.BandBank, name, operation)
        return calls

    @staticmethod
    def assert_matches(calls):
        for *args, out, reference, tol in calls:
            want = reference(*args)
            if tol:
                assert np.max(np.abs(out - want), initial=0.0) <= tol * np.max(
                    np.abs(want), initial=0.0)
            else:
                assert np.array_equal(out, want), (args[0].label, args[1].n)

    @pytest.mark.parametrize("experiment, operator", [
        ("endpoint", "prototype"), ("endpoint", "step"), ("endpoint", "lp"),
        ("hormander", "hormander"), ("hormander", "smooth-sqfn")])
    def test_verify_banks_at_tau_3(self, experiment, operator, monkeypatch):
        from lacuna import harness

        calls = self.record(monkeypatch)
        cfg = harness.ExperimentConfig(log2_n=13, tau=3, ensemble=1, seed=10,
                                       n_levels=8, refine=True)
        run = harness.verify_endpoint if experiment == "endpoint" else harness.verify_hormander
        run(cfg, operator)
        # the coarse grid and its x4 refinement, each on a bank of over 100 bands
        assert {sig.n for _, sig, *_ in calls} == {1 << 13, 1 << 15}
        assert min(bank.lo.size for bank, *_ in calls) > 100
        self.assert_matches(calls)

    def test_sharpness_banks(self, monkeypatch):
        from lacuna import multipliers

        calls = self.record(monkeypatch)
        rng = np.random.default_rng(63)
        # at 2^14 the growth study's period 16 holds N <= 7, period 8 also N = 8
        for period, top in ((16.0, 7), (8.0, 8)):
            for n_param in range(2, top + 1):
                fam = multipliers.build_sharpness_family(n_param, 14, period)
                for sig in (fam.f_n, fam.g_n):
                    fam.bank.square(sig)
                    fam.bank.symbol(sig)
                    fam.bank.symbol(sig, rng.choice([-1.0, 1.0], size=len(fam.pairs)))
        assert len(calls) == (6 + 7) * 2 * 3
        self.assert_matches(calls)

    @pytest.mark.parametrize("offset", [0.0, -4.0])
    def test_edge_bands(self, offset, monkeypatch):
        calls = self.record(monkeypatch)
        rng = np.random.default_rng(64)
        windows = TestBandBank.edge_windows()
        bank = bank_of(windows)
        for n in (1 << 10, 1 << 7):
            sig = sp.Signal(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                            TestBandBank.PERIOD, offset)
            bank.square(sig)
            bank.symbol(sig)
            bank.symbol(sig, rng.standard_normal(len(windows)))
            bank.symbol(sig, list(rng.standard_normal(len(windows)) * 1j))
        self.assert_matches(calls)

    @pytest.mark.parametrize("tau", [2, 3])
    def test_gen_zygmund_bonami_banks(self, tau, monkeypatch):
        from lacuna import harness

        calls = self.record(monkeypatch)
        cfg = harness.make_config({"log2_n": 10, "tau": tau, "ensemble": 3, "seed": 7})
        harness.verify_gen_zygmund_bonami(cfg)
        ops = {reference for *_, reference, _ in calls}
        assert {reference_band_magnitudes, reference_band_energies} <= ops
        self.assert_matches(calls)

    def test_sharpness_growth_banks(self, monkeypatch):
        from lacuna import harness

        calls = self.record(monkeypatch)
        cfg = harness.make_config({"log2_n": 14, "n_min": 2, "n_max": 7, "khintchine": 2})
        harness.sharpness_growth(cfg)
        assert sum(reference is reference_band_square_at for *_, reference, _ in calls) == 6
        self.assert_matches(calls)

    @pytest.mark.parametrize("offset", [0.0, -4.0])
    def test_edge_bands_band_by_band(self, offset, monkeypatch):
        calls = self.record(monkeypatch)
        rng = np.random.default_rng(65)
        xs = np.concatenate([rng.uniform(-6.0, 6.0, 9), [-4.0, 0.0, 3.9375]])
        banks = [bank_of(TestBandBank.edge_windows()), bank_of([]),
                 bank_of([(D.pow2(-6), D.pow2(-5), 1.0)] * 3)]
        for n in (1 << 10, 1 << 7):
            sig = sp.Signal(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                            TestBandBank.PERIOD, offset)
            for bank in banks:
                outs = [bank.magnitudes(sig), bank.magnitudes(sig, np.abs(sig.x) < 1.0),
                        bank.energies(sig), bank.square_at(sig, xs)]
                # exactly zero on the banks without lattice points
                assert (bank is banks[0]) == any(np.any(out) for out in outs)
        self.assert_matches(calls)


class TestWindowResolution:
    """Every bank the program builds resolves, in one pass over its window
    arrays, the plan of the per-window path: each window's ``(lo, hi,
    weight)`` from the intervals of the sorted construction, resolved one at
    a time (``reference_resolve``).  Positions, counts and weights are equal
    as arrays and the alias events equal in text and order."""

    @staticmethod
    def record(monkeypatch):
        resolved = []
        real = sp.BandBank._resolve

        def recording(bank, sig):
            out = real(bank, sig)
            resolved.append((bank, sig, *out))
            return out

        monkeypatch.setattr(sp.BandBank, "_resolve", recording)
        return resolved

    @staticmethod
    def assert_same_plans(resolved, windows_of):
        assert resolved
        for bank, sig, plan, events in resolved:
            pos, vals, counts, want_events = reference_resolve(windows_of(bank), bank.label, sig)
            assert np.array_equal(plan.pos, pos) and np.array_equal(plan.counts, counts)
            assert plan.vals.dtype == vals.dtype and np.array_equal(plan.vals, vals)
            assert events == want_events

    @staticmethod
    def operator_windows(kind, cfg):
        """The windows of ``build_operator(kind, cfg)`` from the reference
        intervals, with the same draws."""
        from lacuna import harness
        from test_lacunary import sorted_lambda_tau

        rng = np.random.default_rng(cfg.seed + 1)
        sharp_cap, smooth_cap, min_scale, smooth_floor = map(D.pow2, harness._caps(cfg))
        if kind in ("hormander", "smooth-sqfn"):
            return [eta_window(L) for L in sorted_lambda_tau(cfg.tau, smooth_floor, smooth_cap)]
        family = sorted_lambda_tau(cfg.tau, min_scale, sharp_cap)
        if kind == "prototype":
            signs = rng.choice([-1, 1], size=len(family))
            return [(L.left, L.right, complex(s)) for L, s in zip(family, signs)]
        if kind == "lp":
            return [sharp_window(L) for L in family]
        windows = []
        for L in family:
            mid = L.right - L.length.scale_pow2(-1)
            signs = rng.choice([-1.0, 1.0], size=2)
            windows += [(L.left, mid, complex(0.5 * signs[0])),
                        (mid, L.right, complex(0.5 * signs[1]))]
        return windows

    # verify's default scales at 2^13 samples (sharp cap 2^7 over 2^-6, smooth
    # cap 2^6 over 2^-3), and windows of more than 62 bits at period 2 down
    # to 2^-64, where the smooth floor stays at 2^-3
    @pytest.mark.parametrize("kind", ["prototype", "step", "lp", "smooth-sqfn", "hormander"])
    @pytest.mark.parametrize("config", [
        {"tau": 1, "log2_n": 13}, {"tau": 2, "log2_n": 13}, {"tau": 3, "log2_n": 13},
        {"tau": 4, "log2_n": 13},
        {"tau": 1, "log2_n": 8, "period": 2.0, "min_scale_log2": -64}],
        ids=["tau1", "tau2", "tau3", "tau4", "wide"])
    def test_verify_operator_banks(self, kind, config, monkeypatch):
        from lacuna import harness

        cfg = harness.make_config({"seed": 10, **config})
        windows = self.operator_windows(kind, cfg)
        resolved = self.record(monkeypatch)
        op = harness.build_operator(kind, cfg, np.random.default_rng(cfg.seed + 1))
        rng = np.random.default_rng(66)
        for log2_n in (cfg.log2_n, cfg.log2_n + 2):
            n = 1 << log2_n
            op.apply(sp.Signal(rng.standard_normal(n), cfg.period, -cfg.period / 2),
                     sp.AliasFlags())
        assert len(resolved) == 2
        self.assert_same_plans(resolved, lambda bank: windows)

    @pytest.mark.parametrize("tau", [2, 3])
    def test_gen_zygmund_bonami_banks(self, tau, monkeypatch):
        from lacuna import harness
        from test_lacunary import sorted_lambda_tau

        cfg = harness.make_config({"log2_n": 10, "tau": tau, "ensemble": 2, "seed": 7})
        _, smooth_cap, min_scale, _ = map(D.pow2, harness._caps(cfg))
        every = sorted_lambda_tau(tau, min_scale, smooth_cap)
        windows = {
            "project_smooth": [eta_window(L) for L in
                               sorted_lambda_tau(tau, D(1, 0), smooth_cap)],
            "cancellative": [sharp_window(L) for L in every if float(L.length) < 1.0],
            "combined": [sharp_window(L) for L in every]}
        resolved = self.record(monkeypatch)
        harness.verify_gen_zygmund_bonami(cfg)
        assert {bank.label for bank, *_ in resolved} == set(windows)
        self.assert_same_plans(resolved, lambda bank: windows[bank.label])

    @pytest.mark.parametrize("mode", ["sharp", "smooth"])
    @pytest.mark.parametrize("log2_n, period, order, scale_log2, max_abs", [
        (8, 16.0, 1, -6, 1e300), (11, 16.0, 3, -4, None), (10, 2.0**-20, 2, -40, None),
        (9, 1024.0, 2, -6, 1e12)], ids=["1e300", "tau3", "tiny-period", "1e12"])
    def test_square_function_banks(self, mode, log2_n, period, order, scale_log2, max_abs,
                                   monkeypatch):
        from test_lacunary import sorted_lambda_tau

        sig = sp.Signal(np.random.default_rng(67).standard_normal(1 << log2_n), period,
                        -period / 2)
        cap = fraction_band(sig.n, sig.period) if max_abs is None else D.from_float(max_abs)
        window = sharp_window if mode == "sharp" else eta_window
        windows = [window(L) for L in sorted_lambda_tau(order, D.pow2(scale_log2), cap)]
        resolved = self.record(monkeypatch)
        flags = sp.AliasFlags()
        sp.lp_square_function(sig, order, D.pow2(scale_log2), mode,
                              None if max_abs is None else cap, flags)
        self.assert_same_plans(resolved, lambda bank: windows)
        assert flags.events == list(resolved[0][3])

    @pytest.mark.parametrize("mode", ["sharp", "smooth"])
    def test_projection_banks(self, mode, monkeypatch):
        bands = [(1.0, 2.5), (-3.25, 100.0), (1e-300, 1e300), (-1e300, 3e-300), (2.0, 4.0)]
        intervals = [LacInterval(D.from_float(lo), D.from_float(hi), 1, D.from_float(lo))
                     for lo, hi in bands] + lambda_tau(2, D.pow2(-2), D(8, 0))
        window = sharp_window if mode == "sharp" else eta_window
        project = sp.project_sharp if mode == "sharp" else sp.project_smooth
        rng = np.random.default_rng(68)
        for log2_n, period in ((8, 16.0), (10, 2.0**-20)):
            sig = sp.Signal(rng.standard_normal(1 << log2_n), period, -period / 2)
            for interval in intervals:
                resolved = self.record(monkeypatch)
                project(sig, interval, sp.AliasFlags())
                self.assert_same_plans(resolved, lambda bank: [window(interval)])

    def test_sharpness_banks(self, monkeypatch):
        from lacuna import multipliers as mult

        for log2_n, period, top in ((14, 16.0, 7), (14, 8.0, 8), (12, 8.0, 6)):
            for n_param in range(2, top + 1):
                fam = mult.build_sharpness_family(n_param, log2_n, period)
                windows = [(D((1 << (k - l + 1)) + 1, l - 1), D((1 << (k - l)) + 1, l),
                            lambda xi, k=k, l=l: mult.base_symbol((xi - 2.0**k) / 2.0 ** (l - 1)))
                           for k, l in fam.pairs]
                resolved = self.record(monkeypatch)
                fam.bank.square(fam.g_n)
                self.assert_same_plans(resolved, lambda bank: windows)


class TestDilation:
    """Scaling the period by 2^k and the frequency bounds by 2^-k keeps every
    lattice index, so the square functions agree bit for bit."""

    @pytest.mark.parametrize("mode", ["sharp", "smooth"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_square_function_is_dilation_invariant(self, mode, order):
        rng = np.random.default_rng(65)
        n = 1 << 11
        complex_samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # real samples too, whose square function reads one rfft
        for samples in (complex_samples, complex_samples.real):
            self.assert_dilation_invariant(samples, mode, order)

    @staticmethod
    def assert_dilation_invariant(samples, mode, order):
        def aggregate(k):
            period = 16.0 * 2.0**k
            flags = sp.AliasFlags()
            out = sp.lp_square_function(sp.Signal(samples, period, -period / 2), order,
                                        D.pow2(-6 - k), mode, D.pow2(6 - k), flags)
            return out.samples, flags.events

        base, events = aggregate(0)
        assert np.max(base) > 0.0
        for k in (-3, 1, 5):
            scaled, scaled_events = aggregate(k)
            assert np.array_equal(scaled, base) and scaled_events == events


# -- weak L1 and dumps -------------------------------------------------------


def reference_weak_l1_norm(values, dx):
    """``weak_l1_norm`` before real input kept its real magnitudes: every
    input cast to complex first."""
    mags = np.abs(np.asarray(values, dtype=complex)).ravel()
    uniq, counts = np.unique(mags, return_counts=True)
    if uniq.size == 0 or uniq[-1] == 0.0:
        return 0.0
    tail = np.cumsum(counts[::-1])[::-1] * dx
    nz = uniq > 0
    return float(np.max(uniq[nz] * tail[nz]))


class TestWeakNormAndIO:
    def test_real_magnitudes_match_the_complex_cast(self):
        rng = np.random.default_rng(52)
        tiny = np.finfo(float).smallest_subnormal
        cases = {
            "real": rng.standard_normal(256),
            "complex": rng.standard_normal(64) + 1j * rng.standard_normal(64),
            "integer": rng.integers(-9, 10, 64),
            "signed zeros": np.array([0.0, -0.0, 1.5, -0.0, -1.5]),
            "all zeros": np.array([-0.0, 0.0]),
            "subnormal": np.array([tiny, -3 * tiny, 0.0, -tiny, 2.0**-1030]),
            "float32": rng.standard_normal(32).astype(np.float32),
            "2-d": rng.standard_normal((4, 8)),
            "list": [3, -1.0, 0.25],
        }
        for name, values in cases.items():
            for dx in (0.25, 2.0**-20):
                want = reference_weak_l1_norm(values, dx)
                got = sp.weak_l1_norm(values, dx)
                assert type(got) is float and repr(got) == repr(want), name

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

    def test_dump_keeps_every_sample_bit(self, tmp_path):
        # -0.0 samples come back with their sign from a real file and a
        # complex one; imaginary halves of -0.0 alone still read as real
        real = np.array([-0.0, 1.0, -0.0, 2.0])
        held = real.astype(complex)
        held.imag = [0.0, -0.0, 3.0, -0.0]
        zeros = real.astype(complex)
        zeros.imag = -0.0
        path = tmp_path / "sig.lac"
        for samples, want in ((real, real), (held, held), (zeros, real)):
            sp.write_signal(path, sp.Signal(samples, 2.0, -1.0))
            back = sp.read_signal(path).samples
            assert back.dtype == want.dtype and back.tobytes() == want.tobytes()

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

    @given(magic=st.just(sp.MAGIC) | st.binary(min_size=4, max_size=4),
           j=st.integers(0, 6) | st.integers(0, 2**32 - 1),
           period=st.floats() | st.just(2.0),
           sample=st.binary(min_size=8, max_size=8) | st.just(bytes(8)),
           extra=st.integers(-64, 24), keep=st.none() | st.integers(0, 15))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_read_accepts_exactly_the_well_formed_files(self, tmp_path, magic, j, period,
                                                        sample, extra, keep):
        # random header fields, a payload of one repeated sample cut short
        # or run long by ``extra`` bytes, or the file cut inside its header
        size = 16 << min(j, 6)
        data = magic + struct.pack("<I", j) + struct.pack("<d", period)
        data += (sample * (size // 8 + 3))[: max(0, size + extra)]
        if keep is not None:
            data = data[:keep]
        path = tmp_path / "fuzz.lac"
        path.write_bytes(data)
        value = struct.unpack("<d", sample)[0]
        well_formed = (keep is None and magic == sp.MAGIC and j <= 6 and extra == 0
                       and 0 < period < math.inf and math.isfinite(value))
        if not well_formed:
            with pytest.raises(ValueError):
                sp.read_signal(path)
            return
        sig = sp.read_signal(path)
        assert sig.n == 1 << j and sig.period == period and sig.offset == -period / 2
        assert np.all(sig.samples.view(np.float64) == value)

    def test_read_rejects_non_finite_sample(self, tmp_path):
        path, data = self.stored(tmp_path)
        data = bytearray(data)
        data[16 + 8 * 5 : 16 + 8 * 6] = struct.pack("<d", math.nan)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="finite"):
            sp.read_signal(path)
