"""Periodic signals, frequency projections, and square functions.

A :class:`Signal` holds ``M = 2**J`` complex samples of one period ``T``
starting at ``offset``.  The analysis convention is the Riemann-sum
transform on the lattice ``xi_j = j/T``::

    fhat(xi_j) = (T/M) * sum_k f(x_k) exp(-2 pi i x_k xi_j)

so spectra approximate continuum Fourier integrals of compactly supported
functions placed well inside the window.  Frequency-window membership for
sharp projections is decided exactly on the integer lattice (intervals have
dyadic endpoints and the half-open convention ``[left, right)`` is used on
both half-axes).

Smooth projections use the pinned plateau bump ``eta``: 1 on [-1/2, 1/2],
supported in [-5/8, 5/8], built from the standard exp(-1/u) smoothstep; a
projection to interval ``L`` multiplies by ``eta((xi - c_L)/|L|)``.

Anything that would touch frequencies outside the representable band sets a
flag on the optional :class:`AliasFlags` accumulator instead of raising, so
experiments can assert clean runs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .dyadic import DyadicScalar
from .lacunary import LacInterval, lambda_tau, normalize_to_origin

MAGIC = b"LAC1"
# largest grid exponent a signal file may declare (the experiments' own limit)
MAX_LOG2_N = 22


@dataclass(frozen=True)
class Signal:
    """One period of a complex signal on a power-of-two sample grid."""

    samples: np.ndarray
    period: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples)
        if arr.ndim != 1 or arr.size == 0 or arr.size & (arr.size - 1):
            raise ValueError("sample count must be a positive power of two")
        if not (self.period > 0 and math.isfinite(self.period)):
            raise ValueError("period must be positive and finite")
        arr = arr.astype(np.complex128, copy=True)
        # the float view tests real and imaginary parts in one pass
        if not np.isfinite(arr.view(np.float64)).all():
            raise ValueError("samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def log2_n(self) -> int:
        return self.n.bit_length() - 1

    @property
    def dx(self) -> float:
        return self.period / self.n

    @property
    def x(self) -> np.ndarray:
        return self.offset + self.dx * np.arange(self.n)

    @property
    def nyquist(self) -> float:
        # one-sided band edge of the frequency lattice j/T, |j| <= n/2
        return self.n / (2 * self.period)

    def with_samples(self, samples: np.ndarray) -> "Signal":
        return Signal(samples, self.period, self.offset)


class AliasFlags:
    """Accumulates band-edge events; experiments assert it stays clear."""

    def __init__(self) -> None:
        self.events: list[str] = []

    @property
    def aliased(self) -> bool:
        return bool(self.events)

    def mark(self, event: str) -> None:
        self.events.append(event)

    def __repr__(self) -> str:
        return f"AliasFlags({self.events!r})"


# -- transforms ---------------------------------------------------------------


def freq_indices(n: int) -> np.ndarray:
    """Integer lattice indices in FFT layout: 0, 1, ..., -1; -n/2 included."""
    return np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)


def freqs(sig: Signal) -> np.ndarray:
    return freq_indices(sig.n) / sig.period


def spectrum(sig: Signal) -> np.ndarray:
    """Transform values on the lattice ``j/T`` in FFT layout."""
    coeffs = np.fft.fft(sig.samples) * (sig.period / sig.n)
    if sig.offset != 0.0:
        coeffs = coeffs * np.exp(-2j * np.pi * sig.offset * freqs(sig))
    return coeffs


def synthesize(coeffs: np.ndarray, period: float, offset: float = 0.0) -> Signal:
    """Inverse of :func:`spectrum`."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    n = coeffs.size
    if offset != 0.0:
        xi = freq_indices(n) / period
        coeffs = coeffs * np.exp(2j * np.pi * offset * xi)
    samples = np.fft.ifft(coeffs) * (n / period)
    return Signal(samples, period, offset)


# -- bump profiles -------------------------------------------------------------


def smoothstep(u):
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, exp(-1/u) blend between."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    out[u >= 1.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    um = u[mid]
    with np.errstate(over="ignore"):
        a = np.exp(-1.0 / um)
        b = np.exp(-1.0 / (1.0 - um))
    out[mid] = a / (a + b)
    return out


def plateau_bump(x, plateau: float, support: float):
    """1 on |x| <= plateau, 0 off |x| >= support, smoothstep ramp between."""
    x = np.asarray(x, dtype=float)
    return smoothstep((support - np.abs(x)) / (support - plateau))


def eta(x):
    """The projection cutoff: plateau 1/2, support 5/8."""
    return plateau_bump(x, 0.5, 0.625)


def omega_bump(x):
    """Polynomial-tail bump (1 + x^2)^(-5): decay order 10."""
    x = np.asarray(x, dtype=float)
    return (1.0 + x * x) ** -5.0


def phi_moderate(x):
    """Slow-decay profile (1 + x^2)^(-3/4): integrable but not square-summed fast."""
    x = np.asarray(x, dtype=float)
    return (1.0 + x * x) ** -0.75


_PROFILE_FUNCS = {
    "eta_cutoff": eta,
    "omega_tail": omega_bump,
    "phi_moderate": phi_moderate,
}


@dataclass(frozen=True)
class BumpProfile:
    kind: str = "eta_cutoff"
    smoothness_order: int = 4

    def __post_init__(self) -> None:
        if self.kind not in _PROFILE_FUNCS:
            raise ValueError(f"unknown profile kind {self.kind!r}")

    def __call__(self, u):
        return _PROFILE_FUNCS[self.kind](u)


ETA_PROFILE = BumpProfile("eta_cutoff")


def central_diff(values: np.ndarray, h: float, order: int) -> np.ndarray:
    """Iterated centered differences; shrinks by one point per side per order."""
    v = np.asarray(values)
    v = v.astype(np.result_type(v.dtype, np.float64))
    for _ in range(order):
        v = (v[2:] - v[:-2]) / (2.0 * h)
    return v


def bump_admissible(
    values: np.ndarray,
    grid: np.ndarray,
    interval: LacInterval,
    order: int = 4,
    bound: float = 1e10,
) -> tuple[bool, float]:
    """Check the adapted-bump class: support in (5/4)L and scaled derivative
    bounds ``|L|^a sup |d^a phi| <= bound`` for a <= order (finite differences).

    Returns (admissible, worst scaled derivative sup).
    """
    length = float(interval.length)
    center = float(interval.center)
    lo = center - 0.625 * length
    hi = center + 0.625 * length
    outside = (grid < lo - 1e-12) | (grid > hi + 1e-12)
    if np.any(np.abs(values[outside]) > 1e-12):
        return False, math.inf
    h = float(grid[1] - grid[0])
    worst = float(np.max(np.abs(values)))
    for a in range(1, order + 1):
        d = central_diff(values, h, a)
        worst = max(worst, length**a * float(np.max(np.abs(d))))
    return worst <= bound, worst


# -- exact lattice windows ------------------------------------------------


def _lattice_bounds(
    lo: DyadicScalar, hi: DyadicScalar, period: float
) -> tuple[int, int]:
    """Integer j with lo <= j/T < hi, exactly (T is a dyadic float)."""
    t = Fraction(period)
    lo_t = lo.as_fraction() * t
    hi_t = hi.as_fraction() * t
    jmin = math.ceil(lo_t)
    jmax = math.ceil(hi_t) - 1
    return jmin, jmax


def band_indices(
    sig: Signal,
    lo: DyadicScalar,
    hi: DyadicScalar,
    flags: Optional[AliasFlags] = None,
    label: str = "band",
) -> np.ndarray:
    """FFT-layout positions of lattice frequencies in [lo, hi), clipped to the
    representable range [-n/2, n/2 - 1] with flagging."""
    jmin, jmax = _lattice_bounds(lo, hi, sig.period)
    half = sig.n // 2
    lo_clip, hi_clip = max(jmin, -half), min(jmax, half - 1)
    if flags is not None and (jmin < -half or jmax > half - 1):
        flags.mark(f"{label}: window [{jmin},{jmax}] exceeds lattice +-{half}")
    if lo_clip > hi_clip:
        if flags is not None and jmin <= jmax:
            flags.mark(f"{label}: window entirely outside lattice")
        return np.empty(0, dtype=np.int64)
    return np.arange(lo_clip, hi_clip + 1, dtype=np.int64) % sig.n


# -- projections ----------------------------------------------------------


def project_sharp(
    sig: Signal, interval: LacInterval, flags: Optional[AliasFlags] = None
) -> Signal:
    """Zero all coefficients outside ``[left, right)`` (exact membership)."""
    idx = band_indices(sig, interval.left, interval.right, flags, "project_sharp")
    coeffs = spectrum(sig)
    kept = np.zeros_like(coeffs)
    kept[idx] = coeffs[idx]
    return synthesize(kept, sig.period, sig.offset)


def symbol_on_lattice(
    sig: Signal,
    interval: LacInterval,
    profile: BumpProfile = ETA_PROFILE,
    flags: Optional[AliasFlags] = None,
) -> np.ndarray:
    """Sampled ``profile((xi - c_L)/|L|)``, full FFT-layout array."""
    length = float(interval.length)
    center = float(interval.center)
    pad = DyadicScalar.from_float(0.75) * interval.length
    idx = band_indices(
        sig, interval.left - pad, interval.right + pad, flags, "project_smooth"
    )
    sym = np.zeros(sig.n)
    if idx.size:
        xi = freq_indices(sig.n)[idx] / sig.period
        sym[idx] = profile((xi - center) / length)
    return sym


def project_smooth(
    sig: Signal,
    interval: LacInterval,
    profile: BumpProfile = ETA_PROFILE,
    flags: Optional[AliasFlags] = None,
) -> Signal:
    """Multiply the spectrum by the adapted bump ``profile((xi - c_L)/|L|)``."""
    sym = symbol_on_lattice(sig, interval, profile, flags)
    return synthesize(spectrum(sig) * sym, sig.period, sig.offset)


def modulate(sig: Signal, lam: float) -> Signal:
    """Multiply samples by exp(2 pi i lam x)."""
    return sig.with_samples(sig.samples * np.exp(2j * np.pi * lam * sig.x))


def modulate_project(
    sig: Signal,
    interval: LacInterval,
    profile: BumpProfile = ETA_PROFILE,
    flags: Optional[AliasFlags] = None,
) -> Signal:
    """Smooth projection through the anchor: modulate down by lambda(L),
    project onto the translated block L - lambda(L), modulate back."""
    lam = float(interval.anchor)
    star = normalize_to_origin(interval)
    shifted = modulate(sig, -lam)
    projected = project_smooth(shifted, star, profile, flags)
    return modulate(projected, lam)


# -- square functions -----------------------------------------------------


def default_band(sig: Signal) -> DyadicScalar:
    """Largest dyadic window that keeps half-open blocks on the lattice."""
    band = Fraction(sig.n, 2) / Fraction(sig.period)
    if band.denominator & (band.denominator - 1) == 0:
        return DyadicScalar.from_fraction(band)
    # non-dyadic lattice spacing: fall back to the largest power of two below
    k = band.numerator.bit_length() - band.denominator.bit_length()
    if Fraction(2) ** k > band:
        k -= 1
    return DyadicScalar.pow2(k)


def family_for_signal(
    sig: Signal,
    order: int,
    min_scale: DyadicScalar,
    max_abs: Optional[DyadicScalar] = None,
) -> list[LacInterval]:
    if max_abs is None:
        max_abs = default_band(sig)
    return lambda_tau(order, min_scale, max_abs)


def lp_square_function(
    sig: Signal,
    order: int,
    min_scale: DyadicScalar,
    mode: str = "sharp",
    max_abs: Optional[DyadicScalar] = None,
    profile: BumpProfile = ETA_PROFILE,
    flags: Optional[AliasFlags] = None,
) -> Signal:
    """Pointwise l2 aggregate of the band projections over the order-``order``
    family: sharp mode uses indicator windows, smooth mode the eta symbols."""
    if mode not in ("sharp", "smooth"):
        raise ValueError("mode must be 'sharp' or 'smooth'")
    family = family_for_signal(sig, order, min_scale, max_abs)
    # fold the window-offset phase into the coefficients once, so each band
    # piece comes out sampled at the true positions x_k = offset + k dx
    coeffs = spectrum(sig)
    if sig.offset != 0.0:
        coeffs = coeffs * np.exp(2j * np.pi * sig.offset * freqs(sig))
    acc = np.zeros(sig.n)
    masked = np.empty_like(coeffs)
    for interval in family:
        masked[:] = 0
        if mode == "sharp":
            idx = band_indices(
                sig, interval.left, interval.right, flags, "square_function"
            )
            masked[idx] = coeffs[idx]
        else:
            sym = symbol_on_lattice(sig, interval, profile, flags)
            np.multiply(coeffs, sym, out=masked)
        piece = np.fft.ifft(masked) * (sig.n / sig.period)
        acc += piece.real**2 + piece.imag**2
    return sig.with_samples(np.sqrt(acc).astype(np.complex128))


# -- weak L1 ------------------------------------------------------------------


def weak_l1_norm(values, dx: float) -> float:
    """``sup_a a * |{|f| >= a}|`` over the distinct sampled magnitudes.

    The closed sublevel convention evaluates the limit from below of
    ``a |{|f| > a - }|``, which is where the sup of the step distribution
    function lives (e.g. ``c 1_E`` gives exactly ``c |E|``).
    """
    mags = np.abs(np.asarray(values, dtype=complex)).ravel()
    uniq, counts = np.unique(mags, return_counts=True)
    if uniq.size == 0 or uniq[-1] == 0.0:
        return 0.0
    # measure of {|f| >= uniq[k]} = dx * sum of counts from k on
    tail = np.cumsum(counts[::-1])[::-1] * dx
    nz = uniq > 0
    return float(np.max(uniq[nz] * tail[nz]))


def distribution_measure(values, level: float, dx: float) -> float:
    """``|{|f| > level}|`` on the sample grid."""
    mags = np.abs(np.asarray(values, dtype=complex)).ravel()
    return float(np.count_nonzero(mags > level)) * dx


# -- binary dump ----------------------------------------------------------


def write_signal(path, sig: Signal) -> None:
    """16-byte header (magic, J, T as float64) + interleaved re/im float64.

    The file format does not carry the offset; files use the centered-window
    convention offset = -T/2, which the writer enforces.
    """
    if abs(sig.offset + sig.period / 2) > 1e-12 * sig.period:
        raise ValueError("signal files use the centered convention offset=-T/2")
    # layout: 4 magic + 4 uint32 J + 8 float64 T = 16 bytes
    header = MAGIC + struct.pack("<I", sig.log2_n) + struct.pack("<d", sig.period)
    inter = np.empty(2 * sig.n, dtype="<f8")
    inter[0::2] = sig.samples.real
    inter[1::2] = sig.samples.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(inter.tobytes())


def read_signal(path) -> Signal:
    """Inverse of :func:`write_signal`.

    Rejects with ``ValueError`` a header with ``J > MAX_LOG2_N`` or a period
    that is not finite and positive, a payload that is not exactly
    ``16 * 2**J`` bytes, and non-finite samples.
    """
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise ValueError("truncated header")
        if header[:4] != MAGIC:
            raise ValueError("bad magic")
        (j,) = struct.unpack("<I", header[4:8])
        (period,) = struct.unpack("<d", header[8:16])
        if j > MAX_LOG2_N:
            raise ValueError(f"header J = {j} exceeds the limit {MAX_LOG2_N}")
        if not (period > 0 and math.isfinite(period)):
            raise ValueError(f"header period {period!r} is not finite and positive")
        size = 16 << j
        payload = fh.read(size + 1)
    if len(payload) != size:
        found = "more" if len(payload) > size else str(len(payload))
        raise ValueError(f"J = {j} needs {size} payload bytes, found {found}")
    inter = np.frombuffer(payload, dtype="<f8")
    samples = inter[0::2] + 1j * inter[1::2]
    return Signal(samples, period, offset=-period / 2)


# -- csv export ----------------------------------------------------------


def profile_to_csv(path, sig: Signal, column: str = "value") -> None:
    xs = sig.x
    vals = sig.samples
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"x,{column}_re,{column}_im\n")
        for x, v in zip(xs, vals):
            fh.write(f"{float(x)!r},{float(v.real)!r},{float(v.imag)!r}\n")
