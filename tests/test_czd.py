"""Tests for the level-set decomposition with lacunary coefficient removal.

Oracles: stopping intervals recomputed by enumerating every aligned dyadic
block and filtering to maximal ones; vanishing coefficients re-checked by
direct quadrature at each frequency (the implementation works through local
FFT bins, so the quadrature is an independent path); the certificate's
coefficients, one FFT of the piece, checked against the per-frequency
quadrature, a long-double direct sum and the ``%``-indexed matrix product
it once was; the closed-form lacunary bins against the
union of the signed sums of each order, built from those of the order
below, times the window length.

Reference ledger:
- ``brute_stopping``: every aligned dyadic block with average above alpha,
  filtered to the maximal ones, sharing no code with ``czd``; the stopping
  intervals of 64-sample signals at sigma 0-2, three seeds, exactly.
- ``windowed_coefficient``: direct quadrature of one Fourier coefficient,
  independent of the lattice; ``lattice_coefficients`` in modulus at 2^0 to
  2^15 (sigma 0-3, up to 26 bins each) to 1e-11 of the rms, with its phase
  at 2^6 to 1e-13, and the vanishing of removed coefficients at 2^7 to
  1e-12 of the rms.
- ``exact_lattice_coefficients``: a ``clongdouble`` direct sum whose phase
  index is exactly ``q k mod n``, independent of the FFT;
  ``lattice_coefficients`` of real and complex pieces at 2^0 to
  2^16 (sigma 0-3, at most 40 bins each) to 1e-15 of the peak coefficient,
  or of the rms of all n coefficients where that is larger.
- ``reference_lattice_coefficients``: ``lattice_coefficients`` as a matrix
  product with ``%``-indexed phase tables, as it was before it read one
  FFT; complex pieces at 2^0 to 2^16 (sigma 0-3) to 1e-14 of the peak
  coefficient, with int8, int32 and uint64 bins giving the int64 call's
  bytes.  The pin of the quadrature.
- ``reference_full_walk``: ``stopping_intervals`` as it was before the
  walk examined only the children of live blocks, with the Young weights
  taken on every sample: every block of the tree, level by level.
  Derandomized Hypothesis signals of 1 to 2^10 samples at sigma 0, 1, 2 and
  8 (zero runs, all-zero windows, block sums equal to their length,
  subnormal weights, weights that overflow), bitwise in the intervals and
  the mass, and the same error; ``young_mass`` against its weights on every
  sample at the Young exponents 0.25, 0.5, 1 and 4, bitwise.
- ``reference_cz_decompose``, with its stage parts ``reference_stopping``,
  ``reference_remove``, ``reference_diagnostics`` and
  ``reference_constants``: the decomposition before ``|f|`` and the Young
  weights were shared and before real input took the real transforms, each
  part a copy (the good part at the input's dtype, the others complex).
  Complex inputs (a gate 06 member times ``exp(2 pi i 3x)``, random complex
  signals at sigma 0-2) bitwise in the report and in every sample array;
  the only bitwise pin of czd.  Real inputs (gate 06 members 0-5 at 2^16,
  the square pulse, random signals at sigma 0-2, overflowing constants,
  the margin guard) within the tolerances of
  ``assert_close_decomposition``, and the same errors.
"""

import functools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna import czd, lacunary
from lacuna.cli import main
from lacuna.orlicz import YoungFunction, luxemburg_avg
from lacuna.spectral import Signal, plateau_bump, read_signal, rms, write_signal
import test_acceptance


def leaf_threshold(s):
    """The t with ``B_s(t) = 1``, by bisection: single samples exceed level
    alpha iff ``|f| > t * alpha``.  Equals 1 for s = 0 and decreases with s."""
    if s == 0:
        return 1.0
    B = YoungFunction(s)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(B(mid)) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def union_of_orders(length, nyquist, sigma):
    """The lacunary frequencies of orders 0..sigma at scale ``1/length``
    strictly below ``nyquist``: the union over the orders of the signed sums
    ``q / length``, ``q = ±2^{n_1} ± ... ± 2^{n_rho}`` with ``n_1 > ... >
    n_rho >= 0``, each order built from the one below (``signed_sums``)."""
    bound = math.ceil(nyquist * length) - 1
    out = set()
    for sums in signed_sums(bound, sigma):
        out |= {q for q in sums if abs(q) <= bound}
    return tuple(sorted(q / length for q in out))


@functools.cache
def signed_sums(bound, top_order):
    """One set per order ``0..top_order``: the signed sums of that many
    distinct powers ``2^n``, ``n >= 0``, that can still end in ``[-bound,
    bound]``.  An order's sums are those of the order below, each with one
    power added below its lowest one, which is ``2^v`` for ``v`` the 2-adic
    valuation of the sum.  Powers placed later add at most ``2^v - 1``, so a
    sum with ``|s| - 2^v + 1 > bound`` is dropped; a sum in the window leads
    with ``2^n``, ``2^(n - rho + 1) <= |s| <= bound``, so the first power
    stops at the order count past the bound's top bit."""
    first = bound.bit_length() + top_order  # the lowest power of the empty sum
    orders = [{0}]
    for _ in range(top_order):
        grown = set()
        for s in orders[-1]:
            low = (s & -s).bit_length() - 1 if s else first
            for e in range(low):
                for q in (s + (1 << e), s - (1 << e)):
                    if abs(q) - (1 << e) < bound:
                        grown.add(q)
        orders.append(grown)
    return orders


def windowed_coefficient(piece, freq):
    """Quadrature of the Fourier integral of the piece over its own window,
    by direct summation (works for frequencies off any lattice): the
    reference for ``czd.lattice_coefficients``."""
    phases = np.exp(-2j * np.pi * freq * piece.x)
    return complex(piece.dx * np.sum(piece.samples * phases))


def exact_lattice_coefficients(piece, bins):
    """``czd.lattice_coefficients`` as a ``clongdouble`` direct sum over the
    samples, each phase the long-double root of unity of exact index
    ``q k mod n``: independent of the FFT."""
    n = piece.n
    k = np.arange(n)
    turns = np.arctan(np.longdouble(1)) * 8 * np.arange(n, dtype=np.longdouble) / n
    roots = (np.cos(turns) - 1j * np.sin(turns)).astype(np.clongdouble)
    vals = piece.samples.astype(np.clongdouble)
    sums = [np.sum(vals * roots[(int(q) * k) & (n - 1)]) for q in bins]
    return np.array(sums, dtype=np.clongdouble) * np.longdouble(piece.dx)


def reference_lattice_coefficients(piece, bins):
    """``czd.lattice_coefficients`` as a matrix product: a coarse and a fine
    phase table built for every call, their indices reduced with ``%``."""
    qs = np.asarray(bins)
    n = piece.n
    half = piece.log2_n // 2
    m = 1 << half
    rows = n >> half
    step = -2j * np.pi / n
    coarse = np.exp(step * np.arange(0, n, m))
    fine = np.exp(step * np.arange(m))
    q_mod = qs % n
    outer = coarse[np.arange(rows)[:, None] * q_mod % rows]
    idx = np.arange(m)[:, None] * q_mod % n
    inner = coarse[idx >> half] * fine[idx & (m - 1)]
    sums = np.sum((piece.samples.reshape(rows, m).T @ outer) * inner, axis=0)
    return piece.dx * sums


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


def reconstruct(dec):
    """good + lacunary part + every atom's cancellative piece, summed over the
    whole window: the identity the decomposition must satisfy."""
    total = dec.good.samples + dec.lacunary_part.samples
    for atom in dec.atoms:
        total[atom.interval.lo : atom.interval.hi] += atom.cancellative.samples
    return dec.good.with_samples(total)


def reference_stopping(sig, sigma, alpha):
    """The stopping walk on Young weights of its own, without the mass."""
    w = YoungFunction(sigma / 2)(np.abs(sig.samples) / alpha)
    sums = czd._block_sums(w)
    if sums[0][0] / sig.n > 1.0:
        raise ValueError(
            "whole-window average exceeds alpha; enlarge the window or raise alpha"
        )
    found, covered = [], np.zeros(1, dtype=bool)
    for k in range(1, len(sums)):
        block = sig.n >> k
        parent_covered = np.repeat(covered, 2)
        fresh = (sums[k] / block > 1.0) & ~parent_covered
        found += [(int(i) * block, (int(i) + 1) * block) for i in np.nonzero(fresh)[0]]
        covered = parent_covered | fresh
    dx, off = sig.dx, sig.offset
    return tuple(czd.StoppingInterval(lo, hi, off + lo * dx, off + hi * dx)
                 for lo, hi in sorted(found))


def reference_full_walk(sig, mags, sigma, alpha):
    """``stopping_intervals`` over every block of the tree, with the Young
    weights of every sample."""
    sigma = czd._check_parameters(sigma, alpha)
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be finite and positive")
    w = YoungFunction(sigma / 2)(mags / alpha)
    n = sig.n
    sums = czd._block_sums(w)
    if sums[0][0] / n > 1.0:
        raise ValueError(
            "whole-window average exceeds alpha; enlarge the window or raise alpha"
        )
    found = []
    covered = np.zeros(1, dtype=bool)
    for k in range(1, len(sums)):
        block = n >> k
        parent_covered = np.repeat(covered, 2)
        qualifies = sums[k] / block > 1.0
        fresh = qualifies & ~parent_covered
        for idx in np.nonzero(fresh)[0]:
            found.append((int(idx) * block, (int(idx) + 1) * block))
        covered = parent_covered | fresh
    found.sort()
    dx, off = sig.dx, sig.offset
    intervals = tuple(czd.StoppingInterval(lo, hi, off + lo * dx, off + hi * dx)
                      for lo, hi in found)
    return intervals, float(dx * np.sum(w))


def copied(like, vals, dtype=np.complex128):
    """A copy of ``vals`` held as ``dtype``, on the window of the signal ``like``."""
    return Signal._adopt(np.array(vals, dtype=dtype), like.period, like.offset)


def reference_remove(piece, bins):
    """Bin masking with both parts copied into complex signals."""
    local = np.fft.fft(piece.samples)
    lac_spec = np.zeros_like(local)
    lac_spec[bins % piece.n] = local[bins % piece.n]
    lac_vals = np.fft.ifft(lac_spec)
    return copied(piece, piece.samples - lac_vals), copied(piece, lac_vals)


def reference_diagnostics(interval, piece, canc, lac, bins, s, alpha):
    level_avg = luxemburg_avg(np.abs(piece.samples), s)
    atom_avg = luxemburg_avg(np.abs(canc.samples), s)
    lac_l2 = rms(lac.samples)
    piece_rms = rms(piece.samples)
    residual = 0.0
    if piece_rms > 0:
        coeffs = czd.lattice_coefficients(canc, bins)
        scale = piece.period * piece_rms
        residual = math.inf
        if math.isfinite(scale):
            residual = float(np.max(np.abs(coeffs))) / scale
    out = interval.to_dict()
    out.update({
        "level_average": level_avg,
        "atom_average": atom_avg,
        "atom_constant": atom_avg / alpha,
        "lacunary_l2": lac_l2,
        "lacunary_constant": lac_l2 / level_avg if level_avg > 0 else 0.0,
        "n_frequencies": len(bins),
        "residual_coefficient": residual,
    })
    return out


def reference_constants(sig, dec):
    good, atoms, lac_part, alpha = dec.good, dec.atoms, dec.lacunary_part, dec.alpha
    mass = czd.young_mass(sig, dec.sigma / 2, alpha)
    total_len = float(sum(a.interval.length for a in atoms))
    sup_good = float(np.max(np.abs(good.samples)))
    l1_f = float(sig.dx * np.sum(np.abs(sig.samples)))
    l1_good = float(sig.dx * np.sum(np.abs(good.samples)))
    lac_sq = float(sig.dx * np.sum(np.abs(lac_part.samples) ** 2))
    atom_weighted = float(
        sum(a.interval.length * a.diagnostics["atom_average"] ** 2 for a in atoms)
    )
    sandwich_ok = all(
        alpha * (1 - 1e-9) < a.diagnostics["level_average"] <= 2 * alpha * (1 + 1e-9)
        for a in atoms
    )
    peak = float(np.max(np.abs(sig.samples)))
    recon_err = float(np.max(np.abs(reconstruct(dec).samples - sig.samples)))
    vs_mass = None
    if mass > 0:
        scale = alpha * alpha * mass
        vs_mass = lac_sq / scale if scale > 0 else (math.inf if lac_sq > 0 else 0.0)
    return {
        "orlicz_mass": mass,
        "total_stopping_length": total_len,
        "measure_bound_ratio": total_len / mass if mass > 0 else 0.0,
        "good_sup_constant": sup_good / alpha,
        "good_l1_ratio": l1_good / l1_f if l1_f > 0 else 0.0,
        "lacunary_l2_sq": lac_sq,
        "atom_weighted_sq": atom_weighted,
        "lacunary_vs_atoms": lac_sq / atom_weighted if atom_weighted > 0 else None,
        "lacunary_vs_mass": vs_mass,
        "max_atom_constant": max(
            (a.diagnostics["atom_constant"] for a in atoms), default=0.0
        ),
        "max_residual_coefficient": max(
            (a.diagnostics["residual_coefficient"] for a in atoms), default=0.0
        ),
        "sandwich_ok": sandwich_ok,
        "reconstruction_error": recon_err / peak if peak > 0 else recon_err,
        "n_atoms": len(atoms),
    }


def reference_cz_decompose(sig, sigma, alpha, min_margin=None):
    """The decomposition as it ran before ``|f|`` and the Young weights were
    shared: every stage takes its own ``|f|``, the Orlicz mass is a second
    Young pass, every part is a copied ``Signal``, and the reconstruction
    error is read off the whole reconstructed window."""
    sigma = czd._check_parameters(sigma, alpha)
    if math.frexp(sig.period)[0] != 0.5:
        raise ValueError(f"period must be a power of two, got {sig.period!r}")
    if min_margin is not None and czd.support_margin(sig, np.abs(sig.samples)) < min_margin:
        raise ValueError("support margin below the requested minimum")
    stopping = reference_stopping(sig, sigma, alpha)
    atoms = []
    for interval in stopping:
        piece = Signal(sig.samples[interval.lo : interval.hi], interval.length, interval.x_lo)
        bins = czd.lacunary_bins(piece.n, sigma)
        canc, lac = reference_remove(piece, bins)
        diag = reference_diagnostics(interval, piece, canc, lac, bins, sigma / 2, alpha)
        atoms.append(czd.CzAtom(interval, canc, lac, diag))
    good_vals = np.array(sig.samples)
    lac_vals = np.zeros(sig.n, dtype=np.complex128)
    for atom in atoms:
        good_vals[atom.interval.lo : atom.interval.hi] = 0.0
        lac_vals[atom.interval.lo : atom.interval.hi] = atom.lacunary.samples
    dec = czd.CzDecomposition(copied(sig, good_vals, sig.samples.dtype), tuple(atoms),
                              copied(sig, lac_vals), float(alpha), sigma, {})
    dec.constants.update(reference_constants(sig, dec))
    return dec


def signals_of(dec):
    """Every signal a decomposition hands out, in a fixed order."""
    out = [dec.good, dec.lacunary_part]
    for atom in dec.atoms:
        out += [atom.cancellative, atom.lacunary]
    return out


def assert_same_decomposition(got, want):
    """A complex input's decomposition: the reference's report bytes, and
    every part complex with the reference's bytes."""
    assert json.dumps(got.to_json_dict()).encode() == json.dumps(want.to_json_dict()).encode()
    assert got.stopping == want.stopping
    assert [a.interval for a in got.atoms] == [a.interval for a in want.atoms]
    for a, b in zip(signals_of(got), signals_of(want), strict=True):
        assert (a.period, a.offset) == (b.period, b.offset)
        assert a.samples.dtype == b.samples.dtype == np.complex128
        assert a.samples.tobytes() == b.samples.tobytes()


# fields that come out of a Luxemburg solve on a cancellative part, whose
# Newton steps may move a last-bit change of the samples to 1e-12 or so
LUXEMBURG_FIELDS = {"level_average", "atom_average", "atom_constant", "max_atom_constant",
                    "atom_weighted_sq", "lacunary_constant"}
# rounding-level certificates: bounded, not compared
RESIDUAL_FIELDS = {"residual_coefficient", "max_residual_coefficient"}


def assert_close_report(got, want, key=None):
    """Report values of a real input against the reference's complex path:
    residuals at most 1e-14, Luxemburg fields within 1e-9 relative, other
    floats within 1e-12 relative, anything else equal."""
    if isinstance(got, dict):
        assert got.keys() == want.keys(), key
        for name in got:
            assert_close_report(got[name], want[name], name)
    elif isinstance(got, list):
        assert len(got) == len(want), key
        for a, b in zip(got, want):
            assert_close_report(a, b, key)
    elif isinstance(got, float) and key in RESIDUAL_FIELDS:
        assert isinstance(want, float) and got <= 1e-14, key
    elif isinstance(got, float) and got != want:
        rel = 1e-9 if key in LUXEMBURG_FIELDS else 1e-12
        assert isinstance(want, float) and abs(got - want) <= rel * abs(want), key
    else:
        assert type(got) is type(want) and got == want, key


def assert_close_decomposition(got, want, sig):
    """A real input's decomposition: every part float64 and within 1e-14 of
    the input's peak of the reference's complex parts, and the report within
    the tolerances of :func:`assert_close_report`."""
    assert_close_report(got.to_json_dict(), want.to_json_dict())
    assert got.stopping == want.stopping
    peak = float(np.max(np.abs(sig.samples)))
    for a, b in zip(signals_of(got), signals_of(want), strict=True):
        assert (a.period, a.offset) == (b.period, b.offset)
        assert a.samples.dtype == np.float64
        assert np.max(np.abs(a.samples - b.samples)) <= 1e-14 * peak


def assert_matches_old_path(sig, sigma, alpha, min_margin=None):
    """The decomposition against :func:`reference_cz_decompose`: bitwise for
    a complex input, within stated tolerances for a real one."""
    got = czd.cz_decompose(sig, sigma, alpha, min_margin=min_margin)
    want = reference_cz_decompose(sig, sigma, alpha, min_margin=min_margin)
    if sig.samples.dtype == np.complex128:
        assert_same_decomposition(got, want)
    else:
        assert_close_decomposition(got, want, sig)
    return got


def gate06_members(count):
    """The first ``count`` members of gate 06's ensemble at 2^16 with the
    gate's alpha; their sigma cycles through 0, 1 and 2."""
    rng = np.random.default_rng(3107)
    for i in range(count):
        sig = test_acceptance._terms_signal(test_acceptance._spiky_terms(rng), 16)
        yield sig, i % 3, 1.5 * luxemburg_avg(np.abs(sig.samples), (i % 3) / 2.0)


def margin_signal():
    vals = np.zeros(256)
    vals[120:136] = 1.0  # 16 of 256 samples: margin 16x
    return Signal(vals, period=8.0, offset=-4.0)


class TestEquivalenceWithReference:
    """The decomposition against the path it replaced: for a complex input
    the same report bytes and the same bytes in every sample array; for a
    real one, which now splits its atoms by real transforms and certifies
    them on half their bins, the same report and parts within rounding; and
    the same error text where either fails."""

    @pytest.mark.parametrize("member", range(6))
    def test_gate06_members(self, member):
        sig, sigma, alpha = list(gate06_members(member + 1))[member]
        assert assert_matches_old_path(sig, sigma, alpha).atoms

    @pytest.mark.parametrize("sigma", [0, 1, 2])
    def test_complex_gate06_member(self, sigma):
        # member 0 modulated by exp(2 pi i 3x): complex, with the same |f|
        sig, _, _ = next(gate06_members(1))
        sig = sig.with_samples(sig.samples * np.exp(2j * np.pi * 3 * sig.x))
        alpha = 1.5 * luxemburg_avg(np.abs(sig.samples), sigma / 2)
        assert assert_matches_old_path(sig, sigma, alpha).atoms

    @pytest.mark.parametrize("sigma, alpha, atoms", [
        (1, 10.0, 0), (0, 0.5, 1), (1, 0.7, 1), (2, 1.0, 1)])
    def test_square_pulse(self, sigma, alpha, atoms):
        assert len(assert_matches_old_path(square_pulse(), sigma, alpha).atoms) == atoms

    @pytest.mark.parametrize("sigma", [0, 1, 2])
    def test_random_signals(self, sigma):
        for seed in range(3):
            sig = random_signal(1024, seed=60 + seed)
            alpha = 1.3 * luxemburg_avg(np.abs(sig.samples), sigma / 2)
            assert_matches_old_path(sig, sigma, alpha)

    @pytest.mark.parametrize("sigma", [0, 1, 2])
    def test_random_complex_signals(self, sigma):
        for seed in range(3):
            real, imag = (random_signal(1024, seed=60 + seed + k).samples for k in (0, 10))
            sig = Signal(real + 1j * imag, 8.0, -4.0)
            alpha = 1.3 * luxemburg_avg(np.abs(sig.samples), sigma / 2)
            assert assert_matches_old_path(sig, sigma, alpha).atoms

    @pytest.mark.parametrize("sigma", [0, 1, 2, 3])
    def test_complex_signal_with_real_stretches(self, sigma):
        # the imaginary part lives left of x = -1: the atoms to the right are
        # complex128 pieces whose imaginary parts are all zero, and they keep
        # the complex transforms
        real = random_signal(1024, seed=66)
        imag = np.where(real.x < -1.0, random_signal(1024, seed=67).samples, 0.0)
        sig = Signal(real.samples + 1j * imag, 8.0, -4.0)
        alpha = 1.2 * luxemburg_avg(np.abs(sig.samples), sigma / 2)
        dec = assert_matches_old_path(sig, sigma, alpha)
        assert any(atom.interval.x_lo >= -1.0 for atom in dec.atoms)

    def test_overflowing_constants(self):
        vals = np.zeros(256)
        vals[8:24] = 1.2e154
        sig = Signal(vals, 1.0, -0.5)
        with np.errstate(over="ignore"):
            dec = assert_matches_old_path(sig, 1, 3e153)
        assert dec.constants["lacunary_l2_sq"] == math.inf

    def test_min_margin_that_passes(self):
        assert_matches_old_path(margin_signal(), 0, 2.0, min_margin=4.0)

    @pytest.mark.parametrize("case", ["alpha inf", "alpha nan", "alpha zero", "whole window",
                                      "period", "min_margin", "sigma", "overflow"])
    def test_error_paths(self, case):
        sig, sigma, alpha, margin = square_pulse(), 1, 0.5, None
        if case == "alpha inf":
            alpha = math.inf
        elif case == "alpha nan":
            alpha = math.nan
        elif case == "alpha zero":
            alpha = 0.0
        elif case == "whole window":
            alpha = 0.25
        elif case == "period":
            sig = Signal(np.r_[np.ones(8), np.zeros(8)], 3.0, -1.5)
        elif case == "min_margin":
            sig, margin = margin_signal(), 100.0
        elif case == "sigma":
            sigma = 0.5
        else:
            sig, sigma, alpha = overflow_signal(), 0, 1e308
        messages = []
        for run in (czd.cz_decompose, czd.cz_split, reference_cz_decompose):
            with pytest.raises(ValueError) as err, np.errstate(over="ignore", invalid="ignore"):
                run(sig, sigma, alpha, min_margin=margin)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == messages[2]


def overflow_signal():
    """64 samples of +-1.5e308 on one stopping interval: removing its mean
    overflows, so the cancellative part is not finite."""
    vals = np.zeros(128)
    vals[:64] = 1.5e308 * (-1.0) ** np.arange(64)
    return Signal(vals, 2.0, -1.0)


class TestSplit:
    """``cz_split`` is the decomposition without its measurements: the same
    intervals, bins and parts, bitwise, and a cancellative part that is the
    atoms' cancellative pieces put back on the window."""

    @pytest.mark.parametrize("modulated", [False, True])
    def test_the_split_is_the_decomposition_unmeasured(self, modulated):
        for sig, sigma, alpha in gate06_members(3):
            if modulated:  # complex input keeps the complex transforms
                sig = sig.with_samples(sig.samples * np.exp(2j * np.pi * 3 * sig.x))
            dec = czd.cz_decompose(sig, sigma, alpha)
            split = czd.cz_split(sig, sigma, alpha)
            assert dec.atoms and split.mass == dec.constants["orlicz_mass"]
            assert split.sigma == dec.sigma == sigma
            assembled = np.zeros(sig.n, dtype=dec.lacunary_part.samples.dtype)
            for (interval, bins, canc, lac), atom in zip(split.pieces, dec.atoms, strict=True):
                assert interval == atom.interval
                assert bins.tobytes() == czd.lacunary_bins(canc.n, sigma).tobytes()
                for a, b in ((canc, atom.cancellative), (lac, atom.lacunary)):
                    assert (a.period, a.offset) == (b.period, b.offset)
                    assert a.samples.dtype == b.samples.dtype
                    assert a.samples.tobytes() == b.samples.tobytes()
                assembled[interval.lo : interval.hi] = atom.cancellative.samples
            got = split.cancellative_part()
            assert (got.period, got.offset) == (sig.period, sig.offset)
            assert got.samples.dtype == assembled.dtype
            assert got.samples.tobytes() == assembled.tobytes()

    def test_no_atoms_give_a_zero_cancellative_part(self):
        sig = Signal(np.ones(64), 2.0, -1.0)
        alpha = 2.0 * luxemburg_avg(sig.samples, 0.5)  # twice every block's average
        split = czd.cz_split(sig, 1.0, alpha)  # an integral float order is read as an int
        assert type(split.sigma) is int and split.sigma == 1
        assert split.pieces == () and not czd.cz_decompose(sig, 1, alpha).atoms
        zero = split.cancellative_part().samples
        assert zero.dtype == np.float64 and zero.tobytes() == np.zeros(64).tobytes()


class TestHandedOutArrays:
    """The decomposition builds its signals over arrays it has just made,
    without a copy; each is still checked finite and frozen."""

    def test_every_array_is_read_only(self):
        sig, sigma, alpha = next(gate06_members(3))
        dec = czd.cz_decompose(sig, sigma, alpha)
        assert dec.atoms and sig.samples.flags.writeable is False
        piece = Signal(np.arange(16.0), 1.0)
        parts = czd.remove_lacunary(piece, czd.lacunary_bins(16, 1))
        split = czd.cz_split(sig, sigma, alpha).cancellative_part()
        for out in signals_of(dec) + [split] + list(parts):
            assert out.samples.flags.writeable is False
            with pytest.raises(ValueError, match="read-only"):
                out.samples[0] = 1.0

    def test_parts_own_their_samples(self):
        # good, the lacunary part, the atoms' parts and the split's
        # cancellative part are fresh arrays, and no part shares memory with
        # the input or with another part
        sig, sigma, alpha = next(gate06_members(1))
        dec = czd.cz_decompose(sig, sigma, alpha)
        split = czd.cz_split(sig, sigma, alpha).cancellative_part()
        arrays = [sig.samples, split.samples] + [s.samples for s in signals_of(dec)]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)

    def test_overflowed_removal_is_refused(self):
        piece = Signal(1.5e308 * (-1.0) ** np.arange(64), 1.0, -0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^samples must be finite$"):
                czd.remove_lacunary(piece, czd.lacunary_bins(64, 1))
            with pytest.raises(ValueError, match="^samples must be finite$"):
                czd.cz_decompose(overflow_signal(), 0, 1e308)


class TestLeafThreshold:
    def test_sigma_zero(self):
        assert leaf_threshold(0.0) == 1.0

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_solves_unit_equation(self, s):
        t = leaf_threshold(s)
        assert 0 < t < 1
        assert float(YoungFunction(s)(t)) == pytest.approx(1.0, abs=1e-12)


class TestStoppingIntervals:
    def test_square_pulse_single_block(self):
        sig = square_pulse()
        out, mass = czd.stopping_intervals(sig, np.abs(sig.samples), 0, 0.5)
        assert len(out) == 1
        assert mass == 2.0
        j = out[0]
        assert (j.lo, j.hi) == (0, sig.n // 2)
        assert (j.x_lo, j.x_hi) == (0.0, 1.0)
        assert j.length == 1.0

    def test_alpha_above_max_gives_empty(self):
        sig = square_pulse()
        assert czd.stopping_intervals(sig, np.abs(sig.samples), 0, 1.5)[0] == ()

    def test_root_exceeding_raises(self):
        sig = square_pulse()
        with pytest.raises(ValueError):
            czd.stopping_intervals(sig, np.abs(sig.samples), 0, 0.25)

    def test_parameter_validation(self):
        sig = square_pulse(16)
        with pytest.raises(ValueError):
            czd.stopping_intervals(sig, np.abs(sig.samples), 0.5, 1.0)
        for alpha in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="alpha must be finite and positive"):
                czd.stopping_intervals(sig, np.abs(sig.samples), 0, alpha)

    @pytest.mark.parametrize("sigma", [0, 1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_enumeration(self, sigma, seed):
        sig = random_signal(64, seed=seed)
        root = luxemburg_avg(np.abs(sig.samples), sigma / 2)
        alpha = 2.0 * root
        stopping, _ = czd.stopping_intervals(sig, np.abs(sig.samples), sigma, alpha)
        got = [(j.lo, j.hi) for j in stopping]
        assert got == brute_stopping(sig, sigma, alpha)
        assert len(got) > 0  # the draw actually exercises the walk

    def test_disjoint_and_sorted(self):
        sig = random_signal(512, seed=3)
        alpha = 2.0 * luxemburg_avg(np.abs(sig.samples), 0.5)
        out, _ = czd.stopping_intervals(sig, np.abs(sig.samples), 1, alpha)
        for a, b in zip(out, out[1:]):
            assert a.hi <= b.lo

    def test_sandwich_on_every_block(self):
        sig = random_signal(256, seed=4)
        for sigma in (0, 1, 2):
            alpha = 1.5 * luxemburg_avg(np.abs(sig.samples), sigma / 2)
            for j in czd.stopping_intervals(sig, np.abs(sig.samples), sigma, alpha)[0]:
                avg = luxemburg_avg(np.abs(sig.samples[j.lo : j.hi]), sigma / 2)
                assert alpha * (1 - 1e-9) < avg <= 2 * alpha * (1 + 1e-9)

    @pytest.mark.parametrize("log2_n", range(17))
    def test_pairwise_pyramid_is_the_reshape_pyramid(self, log2_n):
        # the pairwise sums of every level, bitwise, with exact zeros mixed in
        rng = np.random.default_rng(40 + log2_n)
        w = rng.pareto(1.1, 1 << log2_n) * (rng.random(1 << log2_n) < 0.3)
        want = [w]
        while want[-1].size > 1:
            want.append(want[-1].reshape(-1, 2).sum(axis=1))
        want.reverse()
        got = czd._block_sums(w)
        assert len(got) == len(want) == log2_n + 1
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_measure_bound(self):
        sig = random_signal(1024, seed=5)
        for sigma in (0, 1, 2):
            alpha = 1.2 * luxemburg_avg(np.abs(sig.samples), sigma / 2)
            stopping, mass = czd.stopping_intervals(sig, np.abs(sig.samples), sigma, alpha)
            assert sum(j.length for j in stopping) <= mass * (1 + 1e-9)

    @pytest.mark.parametrize("sigma", [0, 1, 2])
    def test_mass_is_the_young_mass_bitwise(self, sigma):
        # the walk's weights summed once
        sig = random_signal(1024, seed=6)
        alpha = 1.2 * luxemburg_avg(np.abs(sig.samples), sigma / 2)
        want = czd.young_mass(sig, sigma / 2, alpha)
        assert czd.stopping_intervals(sig, np.abs(sig.samples), sigma, alpha)[1] == want


# magnitudes whose Young weights at alpha 1 and sigma 0 sum exactly, so that
# many blocks sum to exactly their length; subnormal ones; and ones that
# overflow at the smallest alphas
WALK_VALUES = np.array([0.0, 0.5, 1.0, 1.0, 2.0, 4.0, 5e-324, 1e-310, 0.3, 7.0, 1e300])


@st.composite
def walk_signals(draw):
    """A signal of 2^k samples with zero runs (or none but zeros) and the
    magnitudes of ``WALK_VALUES``, signed."""
    n = 1 << draw(st.integers(0, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.choice(WALK_VALUES, n) * rng.choice([-1.0, 1.0], n)
    for _ in range(draw(st.integers(0, 3))):
        lo = draw(st.integers(0, n - 1))
        vals[lo:lo + draw(st.integers(1, n))] = 0.0
    return Signal(vals, 2.0 ** draw(st.integers(-3, 4)), 0.0)


class TestPrunedWalk:
    """The walk that examines only the children of live blocks, against the
    full tree it replaced (``reference_full_walk``)."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(sig=walk_signals(), sigma=st.sampled_from([0, 1, 2, 8]),
           alpha=st.sampled_from([5e-324, 1e-300, 0.25, 0.5, 1.0, 1.5, 3.0, 1e300]))
    def test_walk_is_the_full_tree_walk(self, sig, sigma, alpha):
        mags = np.abs(sig.samples)
        try:
            with np.errstate(over="ignore"):
                want = reference_full_walk(sig, mags, sigma, alpha)
        except ValueError as err:
            with pytest.raises(ValueError, match=str(err)), np.errstate(over="ignore"):
                czd.stopping_intervals(sig, mags, sigma, alpha)
            return
        with np.errstate(over="ignore"):
            got, mass = czd.stopping_intervals(sig, mags, sigma, alpha)
        assert got == want[0]
        assert mass.hex() == want[1].hex()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(sig=walk_signals(), s=st.sampled_from([0.25, 0.5, 1.0, 4.0]),
           alpha=st.sampled_from([5e-324, 0.5, 1.0, 3.0]))
    def test_young_mass_is_the_mass_of_every_weight(self, sig, s, alpha):
        with np.errstate(over="ignore"):
            want = float(sig.dx * np.sum(YoungFunction(s)(np.abs(sig.samples) / alpha)))
            assert czd.young_mass(sig, s, alpha).hex() == want.hex()

    def test_a_block_summing_to_its_length_does_not_qualify(self):
        # the left half sums to exactly 4 = its length, its first quarter to 3
        sig = Signal(np.array([2.0, 1.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0]), 8.0)
        got, mass = czd.stopping_intervals(sig, np.abs(sig.samples), 0, 1.0)
        assert [(j.lo, j.hi) for j in got] == [(0, 2)]
        assert (got, mass) == reference_full_walk(sig, np.abs(sig.samples), 0, 1.0)


def gate06_small(count):
    """``count`` gate 06 members at 2^12 (seed 3107), sigma cycling 0, 1, 2,
    each with alpha 1.5 times its Luxemburg average."""
    rng = np.random.default_rng(3107)
    for i in range(count):
        sig = test_acceptance._terms_signal(test_acceptance._spiky_terms(rng), 12)
        yield sig, i % 3, 1.5 * luxemburg_avg(np.abs(sig.samples), (i % 3) / 2.0)


def live_children(mags, sigma, alpha):
    """The blocks a walk must examine: the children of every block that
    neither qualifies nor lies in one that does and sums to more than 1,
    counted over each whole level of the tree."""
    sums = czd._block_sums(YoungFunction(sigma / 2)(mags / alpha))
    count, covered = 0, np.zeros(1, dtype=bool)
    for k in range(len(sums) - 1):
        qualifies = sums[k] > mags.size >> k
        count += 2 * int(np.count_nonzero(~covered & ~qualifies & (sums[k] > 1.0)))
        covered = np.repeat(covered | qualifies, 2)
    return count


class TestWorkCounters:
    """Counts of the work a decomposition does, which no box's speed moves."""

    def test_the_walk_examines_only_the_children_of_live_blocks(self, monkeypatch):
        examined = []
        walk = czd._maximal_blocks

        def counting(sums, n):
            found, count = walk(sums, n)
            examined.append(count)
            return found, count

        monkeypatch.setattr(czd, "_maximal_blocks", counting)
        want = []
        for sig, sigma, alpha in gate06_small(6):
            czd.cz_decompose(sig, sigma, alpha)
            want.append(live_children(np.abs(sig.samples), sigma, alpha))
        assert examined == want
        # against 6 (2^13 - 2) = 49,140 blocks of the full tree
        assert sum(examined) == 890

    def test_lattice_points_runs_once_per_length_and_order(self, monkeypatch):
        calls = []
        real = lacunary.lattice_points
        monkeypatch.setattr(lacunary, "lattice_points",
                            lambda *args: calls.append(args) or real(*args))
        lacunary._nyquist_lattice.cache_clear()
        keys, atoms = set(), 0
        for sig, sigma, alpha in gate06_small(6):
            dec = czd.cz_decompose(sig, sigma, alpha)
            keys |= {(atom.cancellative.n, sigma) for atom in dec.atoms}
            atoms += len(dec.atoms)
        assert len(calls) == len(keys) < atoms
        # shared between calls, so no caller can write them
        assert not czd.lacunary_bins(64, 1).flags.writeable

    def test_a_cold_solve_peaks_at_six_times_its_input(self):
        # the magnitudes and one five-row work area; 10x when every
        # evaluation and step allocated its arrays
        v = np.random.default_rng(21).standard_normal(1 << 15)
        tracemalloc.start()
        try:
            luxemburg_avg(v, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * v.nbytes, peak / v.nbytes


class TestLacunaryFrequencies:
    """The local bins of the lacunary frequencies, against the frequencies of
    the float reference times the window length."""

    def test_order_zero_is_mean_only(self):
        assert czd.lacunary_bins(16, 0).tolist() == [0]

    def test_order_one_unit_scale(self):
        got = czd.lacunary_bins(16, 1)
        assert got.tolist() == [-4, -2, -1, 0, 1, 2, 4]

    def test_order_two_fills_integers(self):
        assert czd.lacunary_bins(16, 2).tolist() == list(range(-7, 8))

    def test_scale_halves_with_doubled_length(self):
        # 16 samples on a unit window and on a doubled one: the same bins,
        # at frequencies q/1 and q/2
        bins = czd.lacunary_bins(16, 1)
        assert np.array_equal(bins / 1.0, union_of_orders(1.0, 8.0, 1))
        assert np.array_equal(bins / 2.0, union_of_orders(2.0, 4.0, 1))

    @pytest.mark.parametrize("sigma", [-1, 0.5, math.nan, math.inf])
    def test_bad_order_is_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be a nonnegative integer"):
            czd.lacunary_bins(16, sigma)

    def test_tight_nyquist_keeps_only_zero(self):
        for n in (1, 2):
            assert czd.lacunary_bins(n, 2).tolist() == [0]

    def test_all_on_local_lattice(self):
        for n in (1, 2, 64):
            bins = czd.lacunary_bins(n, 2)
            assert bins.dtype == np.int64
            assert np.all(2 * np.abs(bins) < n)

    def test_non_dyadic_length_rejected(self):
        # the period is refused on entry, with atoms and without
        vals = np.r_[np.ones(8), np.zeros(8)]
        for alpha, atoms in ((0.6, 1), (10.0, 0)):
            assert len(czd.cz_decompose(Signal(vals, 4.0), 0, alpha).atoms) == atoms
            with pytest.raises(ValueError, match="period must be a power of two, got 3.0"):
                czd.cz_decompose(Signal(vals, 3.0), 0, alpha)

    @pytest.mark.parametrize("length", [0.25, 1.0, 16.0])
    def test_matches_the_union_of_enumerated_orders(self, length):
        # nyquist * length = n/2, bins |q| < n/2.  The reference runs once
        # per order at the largest n: its sums with |q| < n/2 are the
        # reference set at n
        top = 12
        for sigma in range(7):
            full = np.array(union_of_orders(length, (1 << top) / 2 / length, sigma)) * length
            for log2_n in range(top + 1):
                n = 1 << log2_n
                want = full[2 * np.abs(full) < n]
                got = czd.lacunary_bins(n, sigma)
                assert got.tolist() == want.tolist(), (n, sigma)

    def test_sigma_8_is_linear_in_the_bins(self):
        # 2^11 bins a side: orders 1..8 hold 24,379,392 signed sums, and
        # every q with |q| < 2^11 has at most 6 non-adjacent digits
        lacunary._nyquist_lattice.cache_clear()
        start = time.perf_counter()
        got = czd.lacunary_bins(4096, 8)
        assert time.perf_counter() - start < 1.0
        assert got.tolist() == list(range(-2047, 2048))

    def test_bad_sigma_rejected(self):
        for sigma in (-1, 1.5, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="sigma"):
                czd.lacunary_bins(16, sigma)


class TestWindowedCoefficient:
    def test_pure_local_tone(self):
        piece = grid_signal(
            lambda x: np.exp(2j * np.pi * 3.0 * x), n=64, period=2.0, offset=0.5
        )
        # frequency 3 = 6/|J| is on the local lattice: coefficient = |J|
        assert windowed_coefficient(piece, 3.0) == pytest.approx(2.0, abs=1e-12)
        assert abs(windowed_coefficient(piece, 2.5)) < 1e-12

    def test_mean_at_zero(self):
        piece = grid_signal(lambda x: np.full_like(x, 1.5), n=16, period=4.0)
        assert windowed_coefficient(piece, 0.0) == pytest.approx(6.0)


class TestLatticeCoefficients:
    """The certificate's coefficients against the per-frequency quadrature,
    the long-double direct sum and the matrix product."""

    @pytest.mark.parametrize("log2_n", range(16))
    def test_matches_windowed_coefficient(self, log2_n):
        # equal in modulus: the window start's phase is left out
        rng = np.random.default_rng(100 + log2_n)
        n = 1 << log2_n
        period = 2.0 ** (log2_n - 10)
        for offset in (-period / 2, 3.375 * period + 0.125):
            vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            piece = Signal(vals, period=period, offset=offset)
            tol = 1e-11 * period * np.sqrt(np.mean(np.abs(vals) ** 2))
            for sigma in range(4):
                bins = czd.lacunary_bins(n, sigma)
                got = czd.lattice_coefficients(piece, bins)
                assert got.shape == bins.shape
                # the reference costs n exponentials per frequency: check the
                # extremes and a random sample of the rest
                pick = {0, len(bins) - 1}
                pick.update(rng.choice(len(bins), size=min(len(bins), 24)).tolist())
                for i in sorted(pick):
                    ref = windowed_coefficient(piece, bins[i] / period)
                    assert abs(abs(got[i]) - abs(ref)) <= tol

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_matches_the_long_double_sum(self, real):
        # within 1e-15 of the peak coefficient, or of the rms of all n
        # coefficients (dx ||x||_2, by Parseval) where that is larger: a set
        # of the one bin 0 can cancel far below the samples' scale, and its
        # rounding does not (|X(0)| was 9.3e-5 against an rms of 0.06 at 2^8)
        rng = np.random.default_rng(17 + real)
        for log2_n in range(17):
            n = 1 << log2_n
            period = 2.0 ** (log2_n - 8)
            vals = rng.standard_normal(n)
            if not real:
                vals = vals + 1j * rng.standard_normal(n)
            piece = Signal(vals, period=period, offset=-period / 2)
            rms_coefficient = piece.dx * np.sqrt(np.sum(np.abs(vals) ** 2))
            for sigma in range(4):
                bins = czd.lacunary_bins(n, sigma)
                if bins.size > 40:
                    # the extremes and 38 others: the direct sum costs n per bin
                    pick = rng.choice(bins[1:-1], size=38, replace=False)
                    bins = np.sort(np.concatenate([bins[[0, -1]], pick]))
                got = czd.lattice_coefficients(piece, bins)
                want = exact_lattice_coefficients(piece, bins)
                scale = max(float(np.max(np.abs(want))), rms_coefficient)
                assert float(np.max(np.abs(got - want))) <= 1e-15 * scale, (n, sigma)

    def test_phase_is_the_window_start_phase(self):
        rng = np.random.default_rng(99)
        piece = Signal(rng.standard_normal(64), period=0.5, offset=0.375)
        bins = czd.lacunary_bins(64, 2)
        got = czd.lattice_coefficients(piece, bins)
        shift = np.exp(-2j * np.pi * piece.offset * bins / piece.period)
        want = [windowed_coefficient(piece, q / piece.period) for q in bins]
        assert np.max(np.abs(shift * got - want)) < 1e-13

    @pytest.mark.parametrize("log2_n", range(17))
    def test_matches_the_matrix_product(self, log2_n):
        # within 1e-14 of the peak coefficient
        n = 1 << log2_n
        rng = np.random.default_rng(300 + log2_n)
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        piece = Signal(vals, period=2.0 ** (log2_n - 8), offset=-0.375)
        for sigma in range(4):
            bins = czd.lacunary_bins(n, sigma)
            got = czd.lattice_coefficients(piece, bins)
            want = reference_lattice_coefficients(piece, bins)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), sigma

    def test_integer_bins_give_the_int64_bytes(self):
        # bins of another integer type that hold them give the int64 call's bytes
        for log2_n in range(17):
            n = 1 << log2_n
            rng = np.random.default_rng(300 + log2_n)
            vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            piece = Signal(vals, period=2.0 ** (log2_n - 8), offset=-0.375)
            for sigma in range(4):
                bins = czd.lacunary_bins(n, sigma)
                for dtype in (np.int8, np.int32, np.uint64):
                    held = bins[bins >= 0] if dtype is np.uint64 else bins
                    if held[-1] <= np.iinfo(dtype).max:
                        same = czd.lattice_coefficients(piece, held).tobytes()
                        got = czd.lattice_coefficients(piece, held.astype(dtype))
                        assert got.tobytes() == same, (n, sigma, dtype)

    @pytest.mark.parametrize("sigma", [4, 8])
    def test_memory_is_linear_in_n(self, sigma):
        # one transform of the samples and a few vectors of the bins, which
        # number fewer than n: 2^16 at sigma 4 holds 12,703 bins and at
        # sigma 8 all 65,535
        n = 1 << 16
        rng = np.random.default_rng(12)
        bins = czd.lacunary_bins(n, sigma)
        vals = rng.standard_normal(n)
        for piece in (Signal(vals, 1.0, -0.5), Signal(vals + 1j * vals[::-1], 1.0, -0.5)):
            tracemalloc.start()
            try:
                czd.lattice_coefficients(piece, bins)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * 16 * n, piece.samples.dtype

    def test_widest_certificate_is_one_transform(self):
        # the README's widest czd atom: 2^21 samples at sigma 8, 1,817,343
        # bins, in one transform of the piece
        n = 1 << 21
        piece = Signal(np.random.default_rng(21).standard_normal(n), 1.0, -0.5)
        bins = czd.lacunary_bins(n, 8)
        start = time.perf_counter()
        got = czd.lattice_coefficients(piece, bins)
        assert time.perf_counter() - start < 1.0
        assert got.shape == (1_817_343,)

    def test_off_lattice_frequency_rejected(self):
        # 16 samples: the bins are the integers q with |q| < 8
        piece = Signal(np.ones(16), period=2.0, offset=-1.0)
        for bins in ([0, 8], [0, -8], [0, 20], [0.0, 1.0], [0.5], [np.nan], [np.inf],
                     np.array([0, 8], dtype=np.uint8), [True], 3, [[1]]):
            with pytest.raises(ValueError, match="integers q with"):
                czd.lattice_coefficients(piece, bins)


class TestRemoveLacunary:
    def rand_piece(self, n=128, period=1.0, seed=10, offset=0.25):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return Signal(vals, period=period, offset=offset)

    def test_real_piece_stays_real_only_on_symmetric_bins(self):
        # symmetric bins: float64 parts; one-sided bins: exactly those bins
        # leave, their mirrors stay, and the parts are complex
        piece = Signal(self.rand_piece().samples.real, 1.0, 0.25)
        full = np.fft.fft(piece.samples)
        for bins, dtype in ((czd.lacunary_bins(piece.n, 2), np.float64),
                            (np.array([1, 2, 5]), np.complex128)):
            canc, lac = czd.remove_lacunary(piece, bins)
            assert canc.samples.dtype == lac.samples.dtype == dtype
            coeffs = np.fft.fft(canc.samples)
            assert np.max(np.abs(coeffs[bins % piece.n])) < 1e-12 * np.max(np.abs(full))
        kept = -bins % piece.n
        assert np.max(np.abs(coeffs[kept] - full[kept])) < 1e-12 * np.max(np.abs(full))

    def test_sigma_zero_removes_exactly_the_mean(self):
        piece = self.rand_piece()
        canc, lac = czd.remove_lacunary(piece, czd.lacunary_bins(piece.n, 0))
        mean = np.mean(piece.samples)
        assert np.max(np.abs(lac.samples - mean)) < 1e-12
        assert np.max(np.abs(canc.samples - (piece.samples - mean))) < 1e-12

    def test_parts_sum_back(self):
        piece = self.rand_piece(seed=11)
        canc, lac = czd.remove_lacunary(piece, czd.lacunary_bins(piece.n, 2))
        err = np.max(np.abs(canc.samples + lac.samples - piece.samples))
        assert err < 1e-15 * np.max(np.abs(piece.samples))

    @pytest.mark.parametrize("sigma", [0, 1, 2])
    def test_vanishing_by_direct_quadrature(self, sigma):
        piece = self.rand_piece(seed=12 + sigma)
        bins = czd.lacunary_bins(piece.n, sigma)
        canc, _ = czd.remove_lacunary(piece, bins)
        scale = piece.period * np.sqrt(np.mean(np.abs(piece.samples) ** 2))
        for q in bins:
            assert abs(windowed_coefficient(canc, q / piece.period)) < 1e-12 * scale

    def test_lattice_exponential_fully_removed(self):
        # a tone on the local lattice at a first-order lacunary frequency
        piece = grid_signal(
            lambda x: np.exp(2j * np.pi * 4.0 * x), n=128, period=1.0, offset=-0.5
        )
        canc, lac = czd.remove_lacunary(piece, czd.lacunary_bins(piece.n, 1))
        assert np.max(np.abs(canc.samples)) < 1e-12
        assert np.max(np.abs(lac.samples - piece.samples)) < 1e-12

    def test_offset_does_not_matter(self):
        rng = np.random.default_rng(14)
        vals = rng.standard_normal(64)
        a = Signal(vals, period=0.5, offset=0.0)
        b = Signal(vals, period=0.5, offset=-7.25)
        canc_a, _ = czd.remove_lacunary(a, czd.lacunary_bins(a.n, 2))
        canc_b, _ = czd.remove_lacunary(b, czd.lacunary_bins(b.n, 2))
        assert np.max(np.abs(canc_a.samples - canc_b.samples)) < 1e-12

    def test_projection_idempotent(self):
        piece = self.rand_piece(seed=15)
        canc, _ = czd.remove_lacunary(piece, czd.lacunary_bins(piece.n, 2))
        again, lac2 = czd.remove_lacunary(canc, czd.lacunary_bins(canc.n, 2))
        assert np.max(np.abs(lac2.samples)) < 1e-13
        assert np.max(np.abs(again.samples - canc.samples)) < 1e-13

    def test_pythagoras(self):
        piece = self.rand_piece(seed=16)
        canc, lac = czd.remove_lacunary(piece, czd.lacunary_bins(piece.n, 1))
        total = np.sum(np.abs(piece.samples) ** 2)
        split = np.sum(np.abs(canc.samples) ** 2) + np.sum(np.abs(lac.samples) ** 2)
        assert split == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("freq", [0.3, 8.0, -8.0, 20.0, 1e300, np.nan, np.inf])
    def test_off_lattice_frequency_is_an_error_not_a_rounded_bin(self, freq):
        # 16 samples: the bins are the integers q with |q| < 8; 0.3 must not
        # round to the mean bin, nor 20 wrap to bin 4, and a float bin is
        # refused even when it holds an integer
        piece = self.rand_piece(n=16)
        cases = [np.array([0.0, freq])]
        if np.isfinite(freq) and freq == int(freq):
            cases.append([0, int(freq)])
        for bins in cases:
            with pytest.raises(ValueError, match="integers q with"):
                czd.remove_lacunary(piece, bins)

    def test_single_sample_atom(self):
        piece = Signal(np.array([3.0]), period=2.0 ** -5, offset=0.125)
        canc, lac = czd.remove_lacunary(piece, czd.lacunary_bins(piece.n, 2))
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
        err = np.max(np.abs(reconstruct(dec).samples - sig.samples))
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

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_certificate_catches_a_removal_that_leaves_a_bin(self, real, monkeypatch):
        # the removal keeps the top bin pair +-q: the certificate reads it
        # back on the cancellative part at that coefficient's size
        sig = random_signal(1024, seed=30)
        if not real:
            sig = Signal(sig.samples + 1j * random_signal(1024, seed=40).samples, 8.0, -4.0)
        remove = czd.remove_lacunary
        monkeypatch.setattr(czd, "remove_lacunary", lambda piece, bins: remove(piece, bins[1:-1]))
        alpha = 1.5 * luxemburg_avg(np.abs(sig.samples), 1.0)
        dec = czd.cz_decompose(sig, 2, alpha)
        wide = [atom for atom in dec.atoms if atom.cancellative.n >= 4]
        assert wide and all(atom.cancellative.samples.dtype == sig.samples.dtype for atom in wide)
        for atom in wide:
            assert atom.diagnostics["residual_coefficient"] > 1e-3
        assert dec.constants["max_residual_coefficient"] > 1e-3

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

        calls = []
        real = czd.lacunary_bins

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(czd, "lacunary_bins", counting)
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
        t_star = leaf_threshold(sigma / 2)
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

    def test_margin_guard(self):
        vals = np.zeros(256)
        vals[120:136] = 1.0  # 16 of 256 samples: margin 16x
        sig = Signal(vals, period=8.0, offset=-4.0)
        assert czd.support_margin(sig, np.abs(sig.samples)) == pytest.approx(16.0)
        czd.cz_decompose(sig, 0, 2.0, min_margin=4.0)  # passes the guard
        with pytest.raises(ValueError):
            czd.cz_decompose(sig, 0, 2.0, min_margin=100.0)

    def test_margin_guard_reads_the_shared_magnitudes(self, monkeypatch):
        # the guard and the stopping walk read the one |f| of the call
        sig = margin_signal()
        seen = {}
        real_margin, real_stopping = czd.support_margin, czd.stopping_intervals

        def margin(sig, mags):
            seen["margin"] = mags
            return real_margin(sig, mags)

        def stopping(sig, mags, sigma, alpha):
            seen["stopping"] = mags
            return real_stopping(sig, mags, sigma, alpha)

        monkeypatch.setattr(czd, "support_margin", margin)
        monkeypatch.setattr(czd, "stopping_intervals", stopping)
        czd.cz_decompose(sig, 0, 2.0, min_margin=4.0)
        assert seen["margin"] is seen["stopping"]
        assert seen["margin"].tobytes() == np.abs(sig.samples).tobytes()
        assert real_margin(sig, seen["margin"]) == 16.0

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

    def test_save_round_trip(self, tmp_path, capsys):
        # ``lacuna czd --output`` saves the report and the two global parts
        sig = random_signal(256, seed=44, period=8.0)
        write_signal(tmp_path / "in.bin", sig)
        alpha = 1.5 * luxemburg_avg(np.abs(sig.samples), 0.0)
        dec = czd.cz_decompose(sig, 0, alpha)
        assert main(["czd", "--input", str(tmp_path / "in.bin"), "--sigma", "0",
                     "--alpha", repr(alpha), "--output", str(tmp_path / "case")]) == 0
        assert (tmp_path / "case.json").read_text() == capsys.readouterr().out
        with open(tmp_path / "case.json") as fh:
            meta = json.load(fh)
        assert meta["sigma"] == 0
        assert meta["n"] == 256
        assert len(meta["stopping"]) == len(dec.stopping) == len(dec.atoms) > 0
        good = read_signal(tmp_path / "case_good.bin")
        assert np.array_equal(good.samples, dec.good.samples)
        lac = read_signal(tmp_path / "case_lacunary.bin")
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


# five gate 06 style members at 2^12 (seed 3107, sigma 0, 1, 2, 0, 1), the
# last two modulated by exp(2 pi i 3x) so that both the real and the complex
# certificate run: each report's JSON and a hash of every sample array it
# hands out, one line each
THREAD_SCRIPT = """
import hashlib, json
import numpy as np
import test_acceptance as acc
from test_czd import signals_of
from lacuna.czd import cz_decompose
from lacuna.orlicz import luxemburg_avg
rng = np.random.default_rng(3107)
for i in range(5):
    sig = acc._terms_signal(acc._spiky_terms(rng), 12)
    if i >= 3:
        sig = sig.with_samples(sig.samples * np.exp(2j * np.pi * 3 * sig.x))
    alpha = 1.5 * luxemburg_avg(np.abs(sig.samples), (i % 3) / 2.0)
    dec = cz_decompose(sig, i % 3, alpha, threads=1)
    digest = hashlib.sha256(b"".join(s.samples.tobytes() for s in signals_of(dec)))
    print(json.dumps(dec.to_json_dict(), sort_keys=True), digest.hexdigest())
"""


def test_reports_do_not_depend_on_the_blas_thread_count():
    # a guard: the package makes no BLAS call (``tests/test_unused_imports.py``
    # checks the source), so a BLAS library's threads must not move the bytes
    # of a real or a complex member
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, here]))
        runs.append(subprocess.Popen([sys.executable, "-c", THREAD_SCRIPT], env=env,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    outs = [run.communicate(timeout=60) for run in runs]
    for run, (out, err) in zip(runs, outs):
        assert run.returncode == 0, err.decode()
    assert outs[0][0].count(b"\n") == 5
    assert outs[0][0] == outs[1][0]
