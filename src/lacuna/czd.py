"""Orlicz-flavoured Calderon-Zygmund decomposition with lacunary removal.

Splits a sampled signal at a level ``alpha`` into a bounded part, a sum of
local atoms whose windowed Fourier coefficients vanish on the lacunary
frequencies of every order up to ``sigma``, and the complementary lacunary
correction.  Stopping intervals are the maximal dyadic sample blocks whose
Luxemburg average of ``|f|`` under ``B_{sigma/2}(t) = t log^{sigma/2}(e + t)``
exceeds ``alpha``.

Discretization notes that drive the implementation:

- The stopping test ``<|f|>_{B,J} > alpha`` is equivalent to
  ``mean_J B(|f|/alpha) > 1`` because ``lam -> mean B(|f|/lam)`` is strictly
  decreasing.  The tree walk therefore needs one pass of Young-function
  values and per-level block sums; no bisection enters the selection, so
  maximality is exact in floating point.  The walk descends only from
  blocks whose sum exceeds 1, as no smaller sum holds a qualifying block.
- Every lacunary frequency of scale at least ``1/|J|`` that lies strictly
  below the sampling Nyquist is an integer multiple ``q/|J|``, hence the
  exact bin ``q`` of the length-``n_J`` DFT of the samples on ``J``.  The
  ``q`` with ``|q| < n_J/2`` of the orders ``0..sigma`` are read off in closed
  form (:func:`lacunary_bins`), enumerated once per length and order by
  ``lacunary.nyquist_lattice``.  Removing them is an exact orthogonal
  projection through the spectral pair: the piece's values
  at the bins by ``spectral.coefficients``, and back by
  ``spectral.from_coefficients``; the position of ``J`` only contributes a
  unitary phase, which cancels and is never computed.  The certificate
  re-reads the bins on the cancellative part (:func:`lattice_coefficients`,
  one more transform), so a bin the removal left behind shows up at that
  coefficient's size.  No BLAS call is made.
- Every part of real data is float64, so the pair takes an ``rfft`` and, on
  the symmetric bins, an ``irfft``; a complex input keeps the complex
  transforms, also on a piece whose imaginary parts are all zero.
- The split (:func:`cz_split`) is the stopping intervals and the removal on
  each; :func:`cz_decompose` runs it and then measures the atoms and the
  global constants.  A caller that needs only the parts takes the split.
- A decomposition takes ``|f|`` once and the Young weights ``B(|f|/alpha)``
  once, on the nonzero samples only (``B(0) = 0``): the stopping walk sums
  the weights by blocks and their grid sum is the Orlicz mass; the margin
  guard, the atoms' averages and the global constants read ``|f|``, its
  slices and a copy with the stopping blocks zeroed.  Arrays the
  decomposition makes become signals without a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lacunary import nyquist_lattice
from .orlicz import YoungFunction, luxemburg_avg
from .spectral import Signal, coefficients, from_coefficients, real_data, rms

__all__ = [
    "StoppingInterval",
    "CzAtom",
    "CzSplit",
    "CzDecomposition",
    "young_mass",
    "stopping_intervals",
    "lacunary_bins",
    "lattice_coefficients",
    "remove_lacunary",
    "cz_split",
    "cz_decompose",
    "support_margin",
]

SUPPORT_THRESHOLD = 1e-12  # support_margin: the support is above this times the peak


@dataclass(frozen=True)
class StoppingInterval:
    """A maximal dyadic sample block, in index and coordinate form."""

    lo: int
    hi: int
    x_lo: float
    x_hi: float

    @property
    def length(self) -> float:
        return self.x_hi - self.x_lo

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "x_lo": self.x_lo, "x_hi": self.x_hi,
                "length": self.length}


@dataclass(frozen=True)
class CzAtom:
    """One stopping interval with its cancellative and lacunary pieces."""

    interval: StoppingInterval
    cancellative: Signal
    lacunary: Signal
    diagnostics: dict


@dataclass(frozen=True)
class CzSplit:
    """The split of f at level alpha, before any measurement: the checked
    order sigma, f's samples as the decomposition reads them (float64 for real
    data), their moduli, the Orlicz mass, and per stopping interval
    ``(interval, bins, cancellative, lacunary)``."""

    sig: Signal
    sigma: int
    samples: np.ndarray
    mags: np.ndarray
    mass: float
    pieces: tuple

    def cancellative_part(self) -> Signal:
        """The atoms' cancellative parts on f's window, zero off the atoms."""
        out = np.zeros(self.sig.n, dtype=self.samples.dtype)
        for interval, _bins, canc, _lac in self.pieces:
            out[interval.lo : interval.hi] = canc.samples
        return Signal._adopt(out, self.sig.period, self.sig.offset)


@dataclass(frozen=True)
class CzDecomposition:
    """The split f = good + sum of atoms + lacunary correction; every part
    float64 for real data, complex128 otherwise."""

    good: Signal
    atoms: tuple
    lacunary_part: Signal
    alpha: float
    sigma: int
    constants: dict

    @property
    def stopping(self) -> tuple:
        """The stopping intervals, one per atom."""
        return tuple(atom.interval for atom in self.atoms)

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "alpha": self.alpha,
            "n": self.good.n,
            "period": self.good.period,
            "offset": self.good.offset,
            "stopping": [j.to_dict() for j in self.stopping],
            "atoms": [atom.diagnostics for atom in self.atoms],
            "constants": self.constants,
        }


def _young_weights(mags: np.ndarray, s: float, alpha: float) -> np.ndarray:
    B = YoungFunction(s)
    nonzero = mags != 0
    if nonzero.all():
        return B(mags / alpha)
    # B(+0) is +0.0, so only the nonzero magnitudes are evaluated
    w = np.zeros(mags.shape)
    w[nonzero] = B(mags[nonzero] / alpha)
    return w


def young_mass(sig: Signal, s: float, alpha: float) -> float:
    """Grid quadrature of ``B_s(|f|/alpha)`` over the window, with the Young
    exponent ``s`` that :func:`~lacuna.orlicz.luxemburg_avg` takes."""
    return float(sig.dx * np.sum(_young_weights(np.abs(sig.samples), s, _check_alpha(alpha))))


def _check_sigma(sigma) -> int:
    # nan fails every comparison; inf has no int
    if not (0 <= sigma < math.inf and int(sigma) == sigma):
        raise ValueError("sigma must be a nonnegative integer")
    return int(sigma)


def _check_alpha(alpha: float) -> float:
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be finite and positive")
    return alpha


def _check_parameters(sigma, alpha: float) -> int:
    sigma = _check_sigma(sigma)
    _check_alpha(alpha)
    return sigma


def _block_sums(w: np.ndarray) -> list:
    """Sums of ``w`` over the dyadic blocks of every level, root first; each
    level adds the even and odd entries of the one below it."""
    sums = [w]
    while sums[-1].size > 1:
        sums.append(sums[-1][0::2] + sums[-1][1::2])
    sums.reverse()
    return sums


def _maximal_blocks(sums: list, n: int) -> tuple:
    """``(lo, hi)`` of the maximal dyadic blocks whose sum in ``sums`` (root
    first, :func:`_block_sums` of nonnegative weights, the root's sum at most
    ``n``) exceeds their length, and the number of blocks examined.

    Only the children of live blocks are examined: blocks that neither
    qualify nor lie in one that does, with a sum above 1.  Below a block
    whose sum is at most 1 none qualifies, because every block is at least
    one sample long and, for ``a, b >= 0``, the rounded ``a + b`` is at
    least ``max(a, b)``.
    """
    found, examined = [], 0
    live = np.zeros(1 if sums[0][0] > 1.0 else 0, dtype=np.int64)
    for k in range(1, len(sums)):
        if not live.size:
            break
        block = n >> k
        children = np.add.outer(2 * live, (0, 1)).ravel()
        vals = sums[k][children]
        qualifies = vals > block  # sum / block > 1, as block is a power of two
        found += [(int(i) * block, (int(i) + 1) * block) for i in children[qualifies]]
        live = children[~qualifies & (vals > 1.0)]
        examined += children.size
    return found, examined


def stopping_intervals(sig: Signal, mags: np.ndarray, sigma, alpha: float) -> tuple:
    """Maximal dyadic sample blocks with ``<|f|>_{B_{sigma/2},J} > alpha``,
    and ``young_mass(sig, sigma / 2, alpha)``, the grid sum of the same
    Young weights; ``mags`` is ``np.abs(sig.samples)``.

    Walks the block tree top-down; a block enters the collection when its
    average exceeds alpha and no ancestor's does (:func:`_maximal_blocks`).
    The whole window itself exceeding alpha means no maximal block exists
    inside it, which is reported as an error (enlarge the window or raise
    alpha).
    """
    sigma = _check_parameters(sigma, alpha)
    w = _young_weights(mags, sigma / 2, alpha)
    n = sig.n

    sums = _block_sums(w)
    if sums[0][0] / n > 1.0:
        raise ValueError(
            "whole-window average exceeds alpha; enlarge the window or raise alpha"
        )

    found = sorted(_maximal_blocks(sums, n)[0])
    dx = sig.dx
    off = sig.offset
    intervals = tuple(
        StoppingInterval(lo, hi, off + lo * dx, off + hi * dx) for lo, hi in found
    )
    return intervals, float(dx * np.sum(w))


def lacunary_bins(n: int, sigma) -> np.ndarray:
    """The DFT bins ``q`` of the lacunary frequencies ``q/|J|`` of orders
    0..sigma on a window of ``n`` samples: the ascending integers with
    ``|q| < n/2`` and at most ``sigma`` nonzero non-adjacent digits,
    read-only and enumerated once per ``(n, sigma)``
    (``lacunary.nyquist_lattice``)."""
    return nyquist_lattice(_check_sigma(sigma), n)


def _positions(piece: Signal, bins) -> np.ndarray:
    # the FFT-layout positions of the bins, each an integer below the piece's
    # Nyquist, never rounded or wrapped
    qs = np.asarray(bins)
    half = (piece.n - 1) // 2
    if qs.ndim != 1 or qs.dtype.kind not in "iu" or np.any((qs < -half) | (qs > half)):
        raise ValueError("bins must be a 1-d array of integers q with |q| < n/2")
    return qs.astype(np.int64, copy=False) & (piece.n - 1)


def lattice_coefficients(piece: Signal, bins) -> np.ndarray:
    """The quadrature of the piece's Fourier integral over its own window at
    the frequency ``q/|J|`` of every bin ``q`` (an integer, ``|q| < n/2``), up
    to the unit factor ``exp(-2 pi i x_lo q/|J|)`` of the window's start.

    The phase of sample ``k`` is the root of unity of integer index ``q k mod
    n``, so the sums are the piece's DFT at ``q mod n``, read by
    :func:`~lacuna.spectral.coefficients` in ``O(n log n)`` for any bins.
    """
    return piece.dx * coefficients(piece.samples, _positions(piece, bins))


def remove_lacunary(piece: Signal, bins) -> tuple:
    """Split a windowed piece into (cancellative, lacunary) parts.

    The lacunary part carries the windowed Fourier coefficients at the local
    DFT ``bins`` (integers ``q`` with ``|q| < n/2``, else ``ValueError``),
    which :func:`lacunary_bins` gives for the lacunary frequencies of the
    orders up to sigma at scale ``1/|J|``; the cancellative remainder has
    those coefficients equal to zero.  Both lie on the input's window, and a
    float64 piece with symmetric bins (as :func:`lacunary_bins`) gives float64
    parts (see :func:`~lacuna.spectral.from_coefficients`).
    """
    pos = _positions(piece, bins)
    lac_vals = from_coefficients(coefficients(piece.samples, pos), pos, piece.samples)
    parts = (piece.samples - lac_vals, lac_vals)
    return tuple(Signal._adopt(vals, piece.period, piece.offset) for vals in parts)


def support_margin(sig: Signal, mags: np.ndarray) -> float:
    """Window length over support diameter (inf when effectively zero).

    The support is read off the magnitudes ``mags = np.abs(sig.samples)``
    above ``SUPPORT_THRESHOLD`` times the peak.
    """
    peak = float(mags.max()) if mags.size else 0.0
    if peak == 0.0:
        return math.inf
    idx = np.nonzero(mags > SUPPORT_THRESHOLD * peak)[0]
    diam = (int(idx[-1]) - int(idx[0]) + 1) * sig.dx
    return sig.period / diam


def _atom_diagnostics(interval: StoppingInterval, piece_mags: np.ndarray, canc: Signal,
                      lac: Signal, bins: np.ndarray, s: float, alpha: float) -> dict:
    level_avg = luxemburg_avg(piece_mags, s)
    atom_avg = luxemburg_avg(canc.samples, s)  # of the moduli
    lac_l2 = rms(lac.samples)
    piece_rms = rms(piece_mags)
    residual = 0.0
    if piece_rms > 0:
        # re-read the removed coefficients on the cancellative part from a
        # transform of its own
        coeffs = lattice_coefficients(canc, bins)
        scale = interval.length * piece_rms
        # an overflowed normaliser must not pass for a vanishing residual
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


def cz_split(sig: Signal, sigma, alpha: float, min_margin: Optional[float] = None) -> CzSplit:
    """The stopping intervals of f at level alpha and the (cancellative,
    lacunary) parts of its piece on each (:func:`remove_lacunary`), without
    the measurements of :func:`cz_decompose`, which raises the same errors.

    ``min_margin`` optionally enforces a window/support ratio so that the
    periodic wrap-around stays away from the data.
    """
    sigma = _check_parameters(sigma, alpha)
    if min_margin is not None and not math.isfinite(min_margin):
        raise ValueError(f"min_margin must be finite, got {min_margin!r}")
    # the lacunary frequencies of a stopping interval are DFT bins only when
    # its length, the period over a power of two, is dyadic
    if math.frexp(sig.period)[0] != 0.5:
        raise ValueError(f"period must be a power of two, got {sig.period!r}")
    samples = real_data(sig.samples)
    mags = np.abs(samples)
    if min_margin is not None and support_margin(sig, mags) < min_margin:
        raise ValueError("support margin below the requested minimum")

    stopping, mass = stopping_intervals(sig, mags, sigma, alpha)
    pieces = []
    for interval in stopping:
        # a read-only view of the checked samples of sig
        piece = Signal._adopt(samples[interval.lo : interval.hi], interval.length,
                              interval.x_lo)
        bins = lacunary_bins(piece.n, sigma)
        pieces.append((interval, bins) + remove_lacunary(piece, bins))
    return CzSplit(sig, sigma, samples, mags, mass, tuple(pieces))


def cz_decompose(sig: Signal, sigma, alpha: float, min_margin: Optional[float] = None,
                 threads: int = 1) -> CzDecomposition:
    """Run the split at level alpha (:func:`cz_split`) and measure its constants.

    ``threads`` is accepted and ignored: the atoms are built serially.
    """
    split = cz_split(sig, sigma, alpha, min_margin)
    sigma, samples, mags = split.sigma, split.samples, split.mags
    s = sigma / 2
    atoms = []
    good_vals = np.array(samples)
    lac_vals = np.zeros(sig.n, dtype=samples.dtype)
    # |good|: bitwise the magnitudes of good_vals, whose atom blocks are 0
    good_mags = mags.copy()
    for interval, bins, canc, lac in split.pieces:
        lo, hi = interval.lo, interval.hi
        diag = _atom_diagnostics(interval, mags[lo:hi], canc, lac, bins, s, alpha)
        atoms.append(CzAtom(interval, canc, lac, diag))
        good_vals[lo:hi] = 0.0
        good_mags[lo:hi] = 0.0
        lac_vals[lo:hi] = lac.samples
    good = Signal._adopt(good_vals, sig.period, sig.offset)
    lac_part = Signal._adopt(lac_vals, sig.period, sig.offset)

    dec = CzDecomposition(good, tuple(atoms), lac_part, float(alpha), sigma, {})
    dec.constants.update(_global_constants(sig, dec, mags, good_mags, split.mass))
    return dec


def _global_constants(sig: Signal, dec: CzDecomposition, mags: np.ndarray,
                      good_mags: np.ndarray, mass: float) -> dict:
    atoms, lac_part, alpha = dec.atoms, dec.lacunary_part, dec.alpha
    total_len = float(sum(a.interval.length for a in atoms))
    sup_good = float(np.max(good_mags))
    l1_f = float(sig.dx * np.sum(mags))
    l1_good = float(sig.dx * np.sum(good_mags))
    with np.errstate(over="ignore"):  # past the float range it is inf, named on exit
        lac_sq = float(sig.dx * np.sum(np.abs(lac_part.samples) ** 2))
    try:
        atom_weighted = float(sum(a.interval.length * a.diagnostics["atom_average"] ** 2
                                  for a in atoms))
    except OverflowError:  # a float's ** 2 raises past the float range
        atom_weighted = math.inf
    sandwich_ok = all(
        alpha * (1 - 1e-9) < a.diagnostics["level_average"] <= 2 * alpha * (1 + 1e-9)
        for a in atoms
    )
    peak = float(np.max(mags))
    # good + lacunary + cancellative - f is exactly 0 off the atoms, where
    # good is f and the other two are 0
    recon_err = max((float(np.max(np.abs(a.lacunary.samples + a.cancellative.samples
                                         - sig.samples[a.interval.lo : a.interval.hi])))
                     for a in atoms), default=0.0)
    vs_mass = None
    if mass > 0:
        # a normaliser that underflows leaves the ratio past the float range
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
        "max_atom_constant": max((a.diagnostics["atom_constant"] for a in atoms),
                                 default=0.0),
        "max_residual_coefficient": max((a.diagnostics["residual_coefficient"] for a in atoms),
                                        default=0.0),
        "sandwich_ok": sandwich_ok,
        "reconstruction_error": recon_err / peak if peak > 0 else recon_err,
        "n_atoms": len(atoms),
    }
