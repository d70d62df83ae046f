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
  maximality is exact in floating point.
- Every lacunary frequency of scale at least ``1/|J|`` that lies strictly
  below the sampling Nyquist is an integer multiple of ``1/|J|``, hence an
  exact bin of the length-``n_J`` DFT of the samples on ``J``.  Removing
  those coefficients is an exact orthogonal projection (bin masking); the
  position of ``J`` only contributes a unitary phase that cancels.  The
  certificate re-checks the vanishing by direct quadrature over the samples,
  independent of the removal FFT: with ``f = q/|J|`` the phase of sample
  ``k`` is the root of unity ``exp(-2 pi i (q k mod n_J) / n_J)``, indexed
  by exact integers, so all frequencies of an atom come out of one matrix
  product (:func:`lattice_coefficients`).
"""

from __future__ import annotations

import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .dyadic import DyadicScalar
from .lacunary import lac_tau
from .orlicz import YoungFunction, luxemburg_avg
from .spectral import Signal, write_signal

__all__ = [
    "StoppingInterval",
    "CzAtom",
    "CzDecomposition",
    "leaf_threshold",
    "young_mass",
    "stopping_intervals",
    "lacunary_frequencies",
    "windowed_coefficient",
    "lattice_coefficients",
    "remove_lacunary",
    "cz_decompose",
    "support_margin",
]


@dataclass(frozen=True)
class StoppingInterval:
    """A maximal dyadic sample block, in index and coordinate form."""

    lo: int
    hi: int
    x_lo: float
    x_hi: float

    @property
    def size(self) -> int:
        return self.hi - self.lo

    @property
    def length(self) -> float:
        return self.x_hi - self.x_lo

    def to_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "x_lo": self.x_lo,
            "x_hi": self.x_hi,
            "length": self.length,
        }


@dataclass(frozen=True)
class CzAtom:
    """One stopping interval with its cancellative and lacunary pieces."""

    interval: StoppingInterval
    cancellative: Signal
    lacunary: Signal
    diagnostics: dict


@dataclass(frozen=True)
class CzDecomposition:
    """The split f = good + sum of atoms + lacunary correction."""

    good: Signal
    atoms: tuple
    lacunary_part: Signal
    stopping: tuple
    alpha: float
    sigma: int
    constants: dict

    def cancellative_part(self) -> Signal:
        out = np.zeros(self.good.n, dtype=np.complex128)
        for atom in self.atoms:
            out[atom.interval.lo : atom.interval.hi] = atom.cancellative.samples
        return self.good.with_samples(out)

    def reconstruct(self) -> Signal:
        total = self.good.samples + self.lacunary_part.samples
        total = total + self.cancellative_part().samples
        return self.good.with_samples(total)

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

    def save(self, prefix) -> dict:
        """Write ``<prefix>.json`` plus binary dumps of the two global parts.

        The binary signal format is centered, so this requires the ambient
        window to be centered as well.
        """
        prefix = Path(prefix)
        paths = {
            "json": prefix.with_suffix(".json"),
            "good": prefix.parent / (prefix.name + "_good.bin"),
            "lacunary": prefix.parent / (prefix.name + "_lacunary.bin"),
        }
        with open(paths["json"], "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
        write_signal(paths["good"], self.good)
        write_signal(paths["lacunary"], self.lacunary_part)
        return {k: str(v) for k, v in paths.items()}


def leaf_threshold(s: float) -> float:
    """The t with ``B_s(t) = 1``; single samples exceed level alpha iff
    ``|f| > t * alpha``.  Equals 1 for s = 0 and decreases with s."""
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


def young_mass(sig: Signal, sigma: int, alpha: float) -> float:
    """Grid quadrature of ``B_{sigma/2}(|f|/alpha)`` over the window."""
    B = YoungFunction(sigma / 2)
    return float(sig.dx * np.sum(B(np.abs(sig.samples) / alpha)))


def _check_parameters(sigma, alpha: float) -> int:
    if int(sigma) != sigma or sigma < 0:
        raise ValueError("sigma must be a nonnegative integer")
    if not (alpha > 0):
        raise ValueError("alpha must be positive")
    return int(sigma)


def stopping_intervals(sig: Signal, sigma, alpha: float) -> tuple:
    """Maximal dyadic sample blocks with ``<|f|>_{B_{sigma/2},J} > alpha``.

    Walks the block tree top-down; a block enters the collection when its
    average exceeds alpha and no ancestor's does.  The whole window itself
    exceeding alpha means no maximal block exists inside it, which is
    reported as an error (enlarge the window or raise alpha).
    """
    sigma = _check_parameters(sigma, alpha)
    B = YoungFunction(sigma / 2)
    w = np.asarray(B(np.abs(sig.samples) / alpha), dtype=float)
    n = sig.n

    # per-level block sums, root first
    sums = [w]
    while sums[-1].size > 1:
        sums.append(sums[-1].reshape(-1, 2).sum(axis=1))
    sums.reverse()

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
    dx = sig.dx
    off = sig.offset
    return tuple(
        StoppingInterval(lo, hi, off + lo * dx, off + hi * dx) for lo, hi in found
    )


def _dyadic_from_float(x: float, what: str) -> DyadicScalar:
    d = DyadicScalar.from_float(x)
    if not d.is_power_of_two():
        raise ValueError(f"{what} must be a power of two, got {x}")
    return d


def lacunary_frequencies(length: float, nyquist: float, sigma: int) -> tuple:
    """Deduplicated union of the lacunary frequencies of orders 0..sigma at
    scale ``1/length``, restricted strictly below ``nyquist``.

    Every returned value is an integer multiple of ``1/length``; the full
    sets are infinite upward, so the Nyquist cut is what makes them finite.
    Results are memoized: a decomposition asks for the same few
    ``(length, nyquist, sigma)`` triples once per atom.
    """
    sigma = _check_parameters(sigma, 1.0)
    return _lacunary_frequencies(float(length), float(nyquist), sigma)


@functools.lru_cache(maxsize=1024)
def _lacunary_frequencies(length: float, nyquist: float, sigma: int) -> tuple:
    len_d = _dyadic_from_float(length, "length")
    nu = _dyadic_from_float(nyquist, "nyquist")
    one_over = DyadicScalar.pow2(-len_d.log2())
    out = {DyadicScalar.from_int(0)}
    max_abs = nu - one_over  # largest lattice multiple strictly below nyquist
    if max_abs > DyadicScalar.from_int(0):
        for rho in range(1, sigma + 1):
            out.update(lac_tau(rho, one_over, max_abs).points)
    return tuple(sorted((float(d) for d in out)))


def windowed_coefficient(piece: Signal, freq: float) -> complex:
    """Quadrature of the Fourier integral of the piece over its own window,
    by direct summation (works for frequencies off any lattice).

    The reference for :func:`lattice_coefficients`."""
    phases = np.exp(-2j * np.pi * freq * piece.x)
    return complex(piece.dx * np.sum(piece.samples * phases))


def lattice_coefficients(piece: Signal, freqs) -> np.ndarray:
    """:func:`windowed_coefficient` at every ``freqs`` value, all of which
    must lie on the local lattice ``q/|J|``, as one direct sum over samples.

    With ``x_k = x_lo + k |J|/n`` the phase ``exp(-2 pi i f x_k)`` is
    ``exp(-2 pi i f x_lo)`` times the root of unity of exact integer index
    ``q k mod n``.  Splitting ``k = a + m b`` with ``m ~ sqrt(n)`` turns the
    sum into an ``(n/m x m)^T @ (n/m x n_freq)`` product followed by an
    ``m x n_freq`` elementwise sum, so memory stays ``O(n + sqrt(n) n_freq)``.
    No FFT is involved.
    """
    scaled = np.asarray(freqs, dtype=float) * piece.period
    qs = np.rint(scaled)
    if not np.array_equal(qs, scaled):
        raise ValueError("frequencies must lie on the local lattice q/|J|")
    n = piece.n
    half = piece.log2_n // 2
    m = 1 << half
    rows = n >> half
    step = -2j * np.pi / n
    # exp(-2 pi i idx / n) for 0 <= idx < n is coarse[idx >> half] times
    # fine[idx mod m]; the index of sample a + m b is (q a + q m b) mod n
    coarse = np.exp(step * np.arange(0, n, m))
    fine = np.exp(step * np.arange(m))
    q_mod = qs.astype(np.int64) % n
    outer = coarse[np.arange(rows)[:, None] * q_mod % rows]
    idx = np.arange(m)[:, None] * q_mod % n
    inner = coarse[idx >> half] * fine[idx & (m - 1)]
    sums = np.sum((piece.samples.reshape(rows, m).T @ outer) * inner, axis=0)
    shift = np.exp(-2j * np.pi * (piece.offset / piece.period) * qs)
    return piece.dx * shift * sums


def remove_lacunary(piece: Signal, sigma, freqs: Optional[tuple] = None) -> tuple:
    """Split a windowed piece into (cancellative, lacunary) parts.

    The lacunary part carries the windowed Fourier coefficients at the
    lacunary frequencies of all orders up to sigma at scale ``1/|J|``; the
    cancellative remainder has those coefficients equal to zero.  Both parts
    keep the window geometry of the input.  ``freqs`` passes in those
    frequencies when the caller already holds them.
    """
    sigma = _check_parameters(sigma, 1.0)
    if freqs is None:
        len_d = _dyadic_from_float(piece.period, "window length")
        nu_d = DyadicScalar.pow2(piece.log2_n - 1 - len_d.log2())
        freqs = lacunary_frequencies(piece.period, float(nu_d), sigma)

    # each frequency is q/|J| with |q| < n/2: an exact local DFT bin
    qs = np.array([round(f * piece.period) for f in freqs], dtype=int)
    bins = np.mod(qs, piece.n)

    local = np.fft.fft(piece.samples)
    lac_spec = np.zeros_like(local)
    lac_spec[bins] = local[bins]
    lac_vals = np.fft.ifft(lac_spec)
    canc_vals = piece.samples - lac_vals
    return piece.with_samples(canc_vals), piece.with_samples(lac_vals)


def _restrict(sig: Signal, interval: StoppingInterval) -> Signal:
    return Signal(
        sig.samples[interval.lo : interval.hi],
        period=interval.length,
        offset=interval.x_lo,
    )


def support_margin(sig: Signal, threshold: float = 1e-12) -> float:
    """Window length over support diameter (inf when effectively zero).

    The support is read off the samples at the given magnitude threshold
    relative to the peak.
    """
    mags = np.abs(sig.samples)
    peak = float(mags.max()) if mags.size else 0.0
    if peak == 0.0:
        return math.inf
    idx = np.nonzero(mags > threshold * peak)[0]
    diam = (int(idx[-1]) - int(idx[0]) + 1) * sig.dx
    return sig.period / diam


def _rms(values: np.ndarray) -> float:
    """Root mean square, scaled by the peak so that no square overflows."""
    mags = np.abs(values)
    peak = float(mags.max(initial=0.0))
    if peak == 0.0:
        return 0.0
    return peak * float(np.sqrt(np.mean((mags / peak) ** 2)))


def _atom_diagnostics(
    interval: StoppingInterval,
    piece: Signal,
    canc: Signal,
    lac: Signal,
    freqs: tuple,
    s: float,
    alpha: float,
) -> dict:
    level_avg = luxemburg_avg(np.abs(piece.samples), s)
    atom_avg = luxemburg_avg(np.abs(canc.samples), s)
    lac_l2 = _rms(lac.samples)
    rms = _rms(piece.samples)
    residual = 0.0
    if rms > 0:
        # re-evaluate the removed coefficients on the cancellative part as
        # one direct integer-phase product, independent of the removal FFT
        coeffs = lattice_coefficients(canc, freqs)
        scale = piece.period * rms
        # an overflowed normaliser must not pass for a vanishing residual
        residual = math.inf
        if math.isfinite(scale):
            residual = float(np.max(np.abs(coeffs))) / scale
    out = interval.to_dict()
    out.update(
        {
            "level_average": level_avg,
            "atom_average": atom_avg,
            "atom_constant": atom_avg / alpha,
            "lacunary_l2": lac_l2,
            "lacunary_constant": lac_l2 / level_avg if level_avg > 0 else 0.0,
            "n_frequencies": len(freqs),
            "residual_coefficient": residual,
        }
    )
    return out


def cz_decompose(
    sig: Signal,
    sigma,
    alpha: float,
    min_margin: Optional[float] = None,
    threads: int = 1,
) -> CzDecomposition:
    """Run the full decomposition at level alpha and measure its constants.

    ``min_margin`` optionally enforces a window/support ratio so that the
    periodic wrap-around stays away from the data.  ``threads`` parallelizes
    the per-atom frequency removal (atoms are independent).
    """
    sigma = _check_parameters(sigma, alpha)
    if min_margin is not None and support_margin(sig) < min_margin:
        raise ValueError("support margin below the requested minimum")
    s = sigma / 2

    stopping = stopping_intervals(sig, sigma, alpha)
    pieces = [_restrict(sig, j) for j in stopping]

    def build_atom(args):
        interval, piece = args
        nu = piece.n / (2.0 * piece.period)
        freqs = lacunary_frequencies(piece.period, nu, sigma)
        canc, lac = remove_lacunary(piece, sigma, freqs)
        diag = _atom_diagnostics(interval, piece, canc, lac, freqs, s, alpha)
        return CzAtom(interval, canc, lac, diag)

    jobs = list(zip(stopping, pieces))
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            atoms = tuple(pool.map(build_atom, jobs))
    else:
        atoms = tuple(map(build_atom, jobs))

    good_vals = np.array(sig.samples, dtype=np.complex128)
    lac_vals = np.zeros(sig.n, dtype=np.complex128)
    for atom in atoms:
        good_vals[atom.interval.lo : atom.interval.hi] = 0.0
        lac_vals[atom.interval.lo : atom.interval.hi] = atom.lacunary.samples
    good = sig.with_samples(good_vals)
    lac_part = sig.with_samples(lac_vals)

    constants = _global_constants(sig, good, atoms, lac_part, sigma, alpha)
    return CzDecomposition(
        good, atoms, lac_part, stopping, float(alpha), sigma, constants
    )


def _global_constants(sig, good, atoms, lac_part, sigma, alpha) -> dict:
    mass = young_mass(sig, sigma, alpha)
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
    peak = float(np.max(np.abs(sig.samples))) if sig.n else 0.0
    recon = good.samples + lac_part.samples
    for a in atoms:
        recon[a.interval.lo : a.interval.hi] += a.cancellative.samples
    recon_err = float(np.max(np.abs(recon - sig.samples)))
    return {
        "orlicz_mass": mass,
        "total_stopping_length": total_len,
        "measure_bound_ratio": total_len / mass if mass > 0 else 0.0,
        "good_sup_constant": sup_good / alpha,
        "good_l1_ratio": l1_good / l1_f if l1_f > 0 else 0.0,
        "lacunary_l2_sq": lac_sq,
        "atom_weighted_sq": atom_weighted,
        "lacunary_vs_atoms": lac_sq / atom_weighted if atom_weighted > 0 else None,
        "lacunary_vs_mass": lac_sq / (alpha * alpha * mass) if mass > 0 else None,
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
