"""Periodic signals, frequency projections, and square functions.

A :class:`Signal` holds ``M = 2**J`` samples, float64 for a real signal and
complex128 otherwise, of one period ``T`` starting at ``offset``.  The
analysis convention is the Riemann-sum transform on the lattice ``xi_j = j/T``::

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
flag on the optional :class:`AliasFlags` accumulator instead of raising, for
the caller to report (no experiment's bank reaches one).

Band operators read coefficients through :func:`coefficients` and write
samples through :func:`from_coefficients`, the one pair that picks a real
transform (for float64 samples; the square functions take :func:`real_data`
first) or a complex one.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dyadic import DyadicScalar
from .lacunary import LacInterval, interval_arrays, normalize_to_origin, window_log2

MAGIC = b"LAC1"
# largest grid exponent a signal file may declare (the experiments' own limit)
MAX_LOG2_N = 22


@dataclass(frozen=True)
class Signal:
    """One period of a signal on a power-of-two grid: float64 samples for real
    input (a real dtype, or imaginary parts all ``+0.0``), complex128 otherwise."""

    samples: np.ndarray
    period: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples)
        if arr.ndim != 1 or arr.size == 0 or arr.size & (arr.size - 1):
            raise ValueError("sample count must be a positive power of two")
        if not (self.period > 0 and math.isfinite(self.period)):
            raise ValueError("period must be positive and finite")
        samples = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=True)
        if samples.dtype == np.complex128 and not samples.imag.view(np.int64).any():
            # from the whole copy: read straight from the input, czd's set-up refaulted its heap
            samples = samples.real.copy()
        object.__setattr__(self, "samples", _frozen(samples))

    @classmethod
    def _adopt(cls, samples: np.ndarray, period: float, offset: float = 0.0) -> "Signal":
        """A signal over an array the package has just made, with no copy or
        cast: a fresh float64 or complex128 array is checked finite and frozen,
        a read-only one (a view of a signal's checked samples) is taken as is."""
        sig = object.__new__(cls)
        samples = _frozen(samples) if samples.flags.writeable else samples
        for name, value in (("samples", samples), ("period", period), ("offset", offset)):
            object.__setattr__(sig, name, value)
        return sig

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

    def with_samples(self, samples: np.ndarray) -> "Signal":
        return Signal(samples, self.period, self.offset)


def _frozen(arr: np.ndarray) -> np.ndarray:
    # the float view tests real and imaginary parts in one pass
    if not np.isfinite(arr.view(np.float64)).all():
        raise ValueError("samples must be finite")
    arr.setflags(write=False)
    return arr


class AliasFlags:
    """Accumulates band-edge events; ``lacuna project`` and ``sqfn`` report them."""

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


def _signed_indices(pos: np.ndarray, n: int) -> np.ndarray:
    """``freq_indices(n)[pos]`` with no full-length array: ``pos - n`` from ``(n + 1) // 2``."""
    return pos - n * (pos >= (n + 1) // 2)


def coefficients(samples: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """``np.fft.fft(samples)[pos]`` at FFT-layout positions: one ``fft`` of
    complex samples, bitwise, and one ``rfft`` of real-dtype ones (see
    :func:`_from_half`), within about ``1e-14`` of the peak coefficient."""
    if samples.dtype.kind == "c":
        return np.fft.fft(samples)[pos]
    return _from_half(np.fft.rfft(samples), pos, samples.size)


def real_data(samples: np.ndarray) -> np.ndarray:
    """``samples`` as float64 when no imaginary part is nonzero, else as they are."""
    return samples if samples.dtype.kind == "c" and samples.imag.any() else samples.real


def from_coefficients(values: np.ndarray, pos: np.ndarray, like: np.ndarray) -> np.ndarray:
    """The inverse of :func:`coefficients`: the samples on ``like``'s grid
    whose ``fft`` is ``values`` at the FFT-layout positions ``pos`` (repeats
    carry one value) and zero elsewhere; float64 from one ``irfft`` of the
    half spectrum when ``like`` is real and the values Hermitian (as real
    samples read on a symmetric set), and complex from one ``ifft`` otherwise."""
    n, low = like.size, pos <= like.size // 2
    if like.dtype.kind != "c":
        lo, mirror = pos[low], n - pos[~low]
        half = np.zeros(n // 2 + 1, dtype=np.complex128)
        half[lo] = values[low]
        # the ends pair with themselves and must be real; each value past n/2
        # conjugates its mirror's, and each nonzero one below has a mirror
        paired = np.zeros(half.size, dtype=bool)
        paired[mirror] = paired[0] = paired[-1] = True
        if (half[mirror] == np.conjugate(values[~low])).all() and not (
                half[lo[~paired[lo]]].any() or half[0].imag or half[-1].imag):
            return np.fft.irfft(half, n)
    spec = np.zeros(n, dtype=np.complex128)
    spec[pos] = values
    # in place: bitwise the out-of-place transform, with one n-length array
    return np.fft.ifft(spec, out=spec)


def _from_half(half: np.ndarray, pos: np.ndarray, n: int) -> np.ndarray:
    """The ``fft`` values at ``pos`` of a real length-``n`` signal from its half
    spectrum ``half`` (``rfft`` layout): a position past ``n/2`` is the
    conjugate of its mirror ``n - pos``."""
    mirrored = pos > n // 2
    coeffs = half[np.where(mirrored, n - pos, pos)]
    return np.conjugate(coeffs, out=coeffs, where=mirrored)


def spectrum(sig: Signal) -> np.ndarray:
    """Transform values on the lattice ``j/T`` in FFT layout."""
    coeffs = np.fft.fft(sig.samples) * (sig.period / sig.n)
    if sig.offset != 0.0:
        coeffs = coeffs * np.exp(-2j * np.pi * sig.offset * (freq_indices(sig.n) / sig.period))
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


# -- exact lattice windows ------------------------------------------------


def _window_bounds(lo: np.ndarray, hi: np.ndarray, exponent: int, period: float) -> tuple:
    """Per window, the first and last ``j`` with ``lo <= j 2^-exponent / T < hi``,
    exactly: with ``T = t 2^-k`` a dyadic float, ``ceil(q 2^e T) = -floor(-q t
    2^(e-k))`` is a shift of the integer ``q t``, in int64 where it fits and in
    Python integers beyond."""
    t, den = float(period).as_integer_ratio()
    shift = exponent - (den.bit_length() - 1)
    ends = np.concatenate((lo, hi))
    bits = int(np.abs(ends).max(initial=0)).bit_length() + t.bit_length() + max(shift, 0)
    ends = ends.astype(np.int64 if bits < 63 and shift > -63 else object) * t
    ends = ends << shift if shift >= 0 else -(-ends >> -shift)
    return ends[:lo.size], ends[lo.size:] - 1


def _lattice_windows(lo: np.ndarray, hi: np.ndarray, exponent: int, n: int,
                     period: float, label: str) -> tuple:
    """FFT-layout positions of the lattice frequencies ``j/T`` in each window
    ``[lo, hi) 2^exponent``, clipped to the representable ``[-n/2, n/2 - 1]``,
    concatenated in window order with each position's window index, and the
    alias events of the windows that leave the lattice, in window order."""
    jmin, jmax = _window_bounds(lo, hi, exponent, period)
    half = n // 2
    exceeds = (jmin < -half) | (jmax > half - 1)
    # clipped on both sides, so that an empty window stays empty in int64
    first = np.clip(jmin, -half, half).astype(np.int64)
    last = np.clip(jmax, -half - 1, half - 1).astype(np.int64)
    counts = np.maximum(last - first + 1, 0)
    outside = (counts == 0) & (jmin <= jmax)
    events = []
    for i in np.flatnonzero(exceeds | outside).tolist():
        if exceeds[i]:
            events.append(f"{label}: window [{jmin[i]},{jmax[i]}] exceeds lattice +-{half}")
        if outside[i]:
            events.append(f"{label}: window entirely outside lattice")
    owner = np.repeat(np.arange(lo.size), counts)
    pos = np.arange(owner.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    return pos % n, owner, events


def _window(lo: DyadicScalar, hi: DyadicScalar) -> tuple:
    """``[lo, hi)`` as one-entry integer arrays times ``2^exponent``: ``(lo, hi, exponent)``."""
    e = min(lo.exponent, hi.exponent)
    return (np.array([lo.mantissa << (lo.exponent - e)], dtype=object),
            np.array([hi.mantissa << (hi.exponent - e)], dtype=object), e)


def band_indices(sig: Signal, lo: DyadicScalar, hi: DyadicScalar) -> np.ndarray:
    """FFT-layout positions of lattice frequencies in [lo, hi), clipped to the
    representable range [-n/2, n/2 - 1]."""
    return BandBank(*_window(lo, hi), np.ones(1))._grid(sig, None).pos


# -- band banks ------------------------------------------------------------


_BandPlan = namedtuple("_BandPlan", "pos vals counts starts slots runs heads lags")


def _band_plan(pos: np.ndarray, vals: np.ndarray, counts: np.ndarray, n: int) -> _BandPlan:
    """A grid's bands laid out for every bank operation: band ``i`` holds the
    ``counts[i]`` lattice positions ``pos`` and weights ``vals`` from ``starts[i]``
    on.  Each band gets a run of ``L`` slots (see ``square``), stacked by ``L``
    and then band order (``runs`` lists ``(L, k)``); head entry ``e`` adds lag
    ``heads[e]`` from stacked place ``lags[e]``, bands in order."""
    starts = np.cumsum(counts) - counts
    live = counts[counts > 0]
    owner = np.repeat(np.arange(live.size), live)
    offs = (pos - pos[starts[counts > 0]][owner]) % n
    if np.any((np.diff(offs) <= 0) & (np.diff(owner) == 0)):
        raise ValueError("a band row must be one run of lattice points mod n")
    span = offs[np.cumsum(live) - 1] + 1
    size = np.minimum(1 << np.frexp(2 * span - 1)[1].astype(np.int64), n)
    head = np.minimum(span, size // 2 + 1)
    order = np.argsort(size, kind="stable")  # the stacking order of the runs
    run_at, lag_at = np.empty((2, live.size), dtype=np.int64)
    run_at[order] = np.cumsum(size[order]) - size[order]
    lag_at[order] = np.cumsum(size[order] // 2 + 1) - (size[order] // 2 + 1)
    heads = np.arange(head.sum()) - np.repeat(np.cumsum(head) - head, head)
    return _BandPlan(pos, vals, counts, starts, run_at[owner] + offs,
                     list(zip(*np.unique(size, return_counts=True))), heads,
                     np.repeat(lag_at, head) + heads)


def _band_sums(plan: _BandPlan, values: np.ndarray) -> np.ndarray:
    """Per-band sums of ``values`` laid out along ``plan.pos`` (first axis),
    one segmented sum; a band without lattice points sums to zero."""
    out = np.zeros((plan.counts.size,) + values.shape[1:], dtype=values.dtype)
    out[plan.counts > 0] = np.add.reduceat(values, plan.starts[plan.counts > 0], axis=0)
    return out


class BandBank:
    """The band operators ``T_i`` of windows ``[lo_i, hi_i) 2^exponent``
    (integer arrays): symbol ``m_i`` is ``weight`` on the exact lattice band
    of window ``i``, one constant per window or one function ``weight(xi,
    window)`` of all the bands' frequencies and their window indices.

    Every operation takes the grid from its signal and reads its one plan
    (:func:`_band_plan`), resolved in one pass when the first signal on a
    ``(n, period)`` arrives and kept in ``grids`` with the alias events raised
    meanwhile (replayed into the caller's flags on every use).  Operations
    work on the bare DFT of the samples, read by :func:`coefficients` (or, in
    ``square_at``, from a known half spectrum): the offset phases that
    :func:`spectrum` multiplies in and :func:`synthesize` takes out cancel in
    every band piece, so the pieces come out at the signal's own samples.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, exponent: int, weight,
                 label: str = "band") -> None:
        self.lo, self.hi, self.exponent, self.weight, self.label = lo, hi, exponent, weight, label
        # (n, period) -> (plan, alias events)
        self.grids: dict = {}

    def _resolve(self, sig: Signal) -> tuple:
        pos, owner, events = _lattice_windows(self.lo, self.hi, self.exponent,
                                              sig.n, sig.period, self.label)
        xi = _signed_indices(pos, sig.n) / sig.period
        vals = self.weight(xi, owner) if callable(self.weight) else self.weight[owner]
        keep = vals != 0.0
        counts = np.bincount(owner[keep], minlength=self.lo.size)
        return _band_plan(pos[keep], vals[keep], counts, sig.n), tuple(events)

    def _grid(self, sig: Signal, flags: Optional[AliasFlags]) -> _BandPlan:
        key = (sig.n, sig.period)
        if key not in self.grids:
            self.grids[key] = self._resolve(sig)
        plan, events = self.grids[key]
        if flags is not None:
            for event in events:
                flags.mark(event)
        return plan

    def symbol(
        self, sig: Signal, weights=None, flags: Optional[AliasFlags] = None
    ) -> np.ndarray:
        """The FFT-layout symbol ``sum_i w_i m_i`` on ``sig``'s grid (every
        ``w_i = 1`` by default), by one scatter that adds in band order."""
        plan = self._grid(sig, flags)
        # complex weights keep np.add.at on its fast path, with the same sums
        weights = np.asarray(np.ones(plan.counts.size) if weights is None else weights, complex)
        if len(weights) != plan.counts.size:
            raise ValueError("need one weight per band")
        sym = np.zeros(sig.n, dtype=np.complex128)
        np.add.at(sym, plan.pos, np.repeat(weights, plan.counts) * plan.vals)
        return sym

    def combine(
        self, sig: Signal, weights=None, flags: Optional[AliasFlags] = None
    ) -> np.ndarray:
        """Samples of ``sum_i w_i T_i f``: the one-row case of :meth:`combinations`."""
        return next(self.combinations(sig, [weights], flags))

    def combinations(self, sig: Signal, rows, flags: Optional[AliasFlags] = None):
        """Samples of ``sum_i w_i T_i f`` for each row ``w`` of ``rows`` in turn:
        the coefficients at the plan's positions, read once, weighted by each
        row's symbol and transformed back (one inverse transform a row)."""
        pos = self._grid(sig, flags).pos  # the grid's alias events, marked once a call
        coeffs = coefficients(sig.samples, pos)
        for row in rows:
            yield from_coefficients(coeffs * self.symbol(sig, row)[pos], pos, sig.samples)

    def magnitudes(
        self, sig: Signal, columns=slice(None), flags: Optional[AliasFlags] = None
    ) -> np.ndarray:
        """``|T_i f|`` at the selected samples, one row per band (zero for a
        band without lattice points): one inverse transform per band."""
        plan = self._grid(sig, flags)
        values = coefficients(sig.samples, plan.pos) * plan.vals
        bands = zip(np.split(plan.pos, plan.starts[1:]), np.split(values, plan.starts[1:]))
        out = np.zeros((plan.counts.size, sig.samples[columns].size))
        for out_row, (pos, vals) in zip(out, bands):
            if pos.size:
                out_row[:] = np.abs(from_coefficients(vals, pos, sig.samples)[columns])
        return out

    def square(self, sig: Signal, flags: Optional[AliasFlags] = None) -> np.ndarray:
        """Pointwise l2 norm ``(sum_i |T_i f|^2)^(1/2)`` by one spectral sum.

        Band ``i`` holds coefficients ``b_0 .. b_(w-1)`` on one run of lattice
        points mod ``n`` (dropped zero weights read as zeros), so
        ``|T_i f(x_k)|^2 = n^-2 sum_(|d|<w) A_i(d) exp(2 pi i d k / n)`` with
        the autocorrelation ``A_i(d) = sum_j b_(j+d) conj(b_j)``; the run's
        start cancels in the modulus, and ``A_i(-d) = conj(A_i(d))``.  The
        transforms of ``|fft(b)|^2`` at length ``L = min(2^ceil(log2 2w), n)``
        give the lags ``0 <= d < w`` without wrap-around, or their sums mod
        ``n`` when ``L = n``; the plan stacks the ``k`` runs of one ``L`` in a
        ``(k, L)`` array, one ``fft`` and one ``ihfft`` per length.  All lags go
        into one half spectrum at ``d mod n`` in band order, as a band loop would,
        and one real inverse transform gives the sum of squares.  The result
        is within about ``1e-13`` of its peak of the sum of squared pieces,
        and exactly zero for a zero input or a bank without lattice points.
        The samples' peak is brought near 1 by a power of two and the root is
        scaled back: exact, so only a result past the float range overflows.
        """
        plan = self._grid(sig, flags)
        # the float view holds every real and imaginary part
        peak = np.max(np.abs(sig.samples.view(np.float64)))
        shift = int(np.clip(np.frexp(peak)[1], -1021, 1021))
        n = sig.n
        stack = np.zeros(sum(size * k for size, k in plan.runs), dtype=np.complex128)
        stack[plan.slots] = coefficients(real_data(sig.samples) * 2.0**-shift, plan.pos) * plan.vals
        lags, at = [np.empty(0)], 0
        for size, k in plan.runs:
            spec = np.fft.fft(stack[at:at + k * size].reshape(k, size), axis=1)
            at += k * size
            # the lags d >= 0; A(-d) = conj(A(d)) gives the others
            lags.append(np.fft.ihfft(spec.real**2 + spec.imag**2, axis=1).ravel())
        total = np.zeros(n // 2 + 1, dtype=np.complex128)
        np.add.at(total, plan.heads, np.concatenate(lags)[plan.lags])
        # roundoff can leave a sum of squares slightly below zero; the
        # steps after the transform work in its array
        power = np.fft.irfft(total, n)
        power /= n
        np.sqrt(np.maximum(power, 0.0, out=power), out=power)
        return np.ldexp(power, shift, out=power)

    def energies(self, sig: Signal) -> np.ndarray:
        """``||T_i f||_2^2`` per band by Parseval, with no inverse transform:
        one gather of the weighted coefficients and one segmented sum."""
        plan = self._grid(sig, None)
        power = np.abs(coefficients(sig.samples, plan.pos) * plan.vals) ** 2
        return sig.period / sig.n**2 * _band_sums(plan, power)

    def square_at(self, sig: Signal, xs, half: Optional[np.ndarray] = None) -> np.ndarray:
        """The pointwise l2 norm at arbitrary positions ``xs``, by direct
        quadrature of each band (no interpolation between samples): one phase
        matrix over the plan's positions, one segmented sum per band, and the
        squares added in band order.

        ``half``, when given, is the known half spectrum of a real ``sig`` (its
        ``rfft``, or a prefix holding the plan's positions), read as
        :func:`coefficients` reads it; the result is bitwise the samples' own.
        """
        plan = self._grid(sig, None)
        # relative to the window start the band pieces carry no offset phase
        t = np.asarray(xs, dtype=float) - sig.offset
        xi = _signed_indices(plan.pos, sig.n) / sig.period
        # the phases 2 pi xi t, exponentiated in place: one complex matrix
        terms = np.zeros((xi.size, t.size), dtype=complex)
        np.outer(xi, t, out=terms.imag)
        terms.imag *= 2 * np.pi
        np.exp(terms, out=terms)
        coeffs = (coefficients(real_data(sig.samples), plan.pos) if half is None
                  else _from_half(half, plan.pos, sig.n))
        terms *= (coeffs * plan.vals)[:, None]
        return np.sqrt(np.sum(np.abs(_band_sums(plan, terms) / sig.n) ** 2, axis=0))


def eta_bank(lo: np.ndarray, hi: np.ndarray, exponent: int, label: str) -> BandBank:
    """The bank of the adapted bumps ``eta((xi - c_L)/|L|)`` of the intervals
    ``L = [lo, hi) 2^exponent``, each on the padded window ``(5/4)L`` that
    covers its support."""
    center = np.array([float(DyadicScalar(q, exponent - 1)) for q in (lo + hi).tolist()])
    length = np.array([float(DyadicScalar(q, exponent)) for q in (hi - lo).tolist()])
    return BandBank(7 * lo - 3 * hi, 7 * hi - 3 * lo, exponent - 2,
                    lambda xi, at: eta((xi - center[at]) / length[at]), label)


# -- projections ----------------------------------------------------------


def project_sharp(
    sig: Signal, interval: LacInterval, flags: Optional[AliasFlags] = None
) -> Signal:
    """Zero all coefficients outside ``[left, right)`` (exact membership)."""
    bank = BandBank(*_window(interval.left, interval.right), np.ones(1), "project_sharp")
    return sig.with_samples(bank.combine(sig, flags=flags))


def project_smooth(
    sig: Signal, interval: LacInterval, flags: Optional[AliasFlags] = None
) -> Signal:
    """Multiply the spectrum by the adapted bump ``eta((xi - c_L)/|L|)``."""
    bank = eta_bank(*_window(interval.left, interval.right), "project_smooth")
    return sig.with_samples(bank.combine(sig, flags=flags))


def modulate(sig: Signal, lam: float) -> Signal:
    """Multiply samples by exp(2 pi i lam x)."""
    return sig.with_samples(sig.samples * np.exp(2j * np.pi * lam * sig.x))


def modulate_project(
    sig: Signal, interval: LacInterval, flags: Optional[AliasFlags] = None
) -> Signal:
    """Smooth projection through the anchor: modulate down by lambda(L),
    project onto the translated block L - lambda(L), modulate back."""
    lam = float(interval.anchor)
    star = normalize_to_origin(interval)
    shifted = modulate(sig, -lam)
    projected = project_smooth(shifted, star, flags)
    return modulate(projected, lam)


# -- square functions -----------------------------------------------------


def band_log2(log2_n: int, period: float) -> int:
    """``floor(log2(2^log2_n / (2 period)))``, exactly for any positive finite
    period: the largest dyadic window a grid of ``2^log2_n`` samples resolves."""
    mantissa, exponent = math.frexp(period)
    return log2_n - 1 - exponent + (mantissa == 0.5)


def lp_square_function(
    sig: Signal,
    order: int,
    min_scale: DyadicScalar,
    mode: str = "sharp",
    max_abs: Optional[DyadicScalar] = None,
    flags: Optional[AliasFlags] = None,
) -> Signal:
    """Pointwise l2 aggregate of the band projections over the order-``order``
    family: sharp mode uses indicator windows, smooth mode the eta symbols."""
    if mode not in ("sharp", "smooth"):
        raise ValueError("mode must be 'sharp' or 'smooth'")
    band = DyadicScalar.pow2(band_log2(sig.log2_n, sig.period))
    m, top = window_log2(min_scale, max_abs or band)
    family = interval_arrays(order, m, top)[-1]
    if mode == "sharp":
        bank = BandBank(family.left, family.right, m, np.ones(family.left.size), "square_function")
    else:
        bank = eta_bank(family.left, family.right, m, "square_function")
    return sig.with_samples(bank.square(sig, flags=flags))


# -- norms --------------------------------------------------------------------


def rms(values: np.ndarray) -> float:
    """Root mean square, scaled by the peak so that no square overflows."""
    mags = np.abs(values)
    peak = float(mags.max(initial=0.0))
    if peak == 0.0:
        return 0.0
    return peak * float(np.sqrt(np.mean((mags / peak) ** 2)))


def weak_l1_norm(values, dx: float) -> float:
    """``sup_a a * |{|f| >= a}|`` over the distinct sampled magnitudes.

    The closed sublevel convention evaluates the limit from below of
    ``a |{|f| > a - }|``, which is where the sup of the step distribution
    function lives (e.g. ``c 1_E`` gives exactly ``c |E|``).
    """
    # |x| of a real x is hypot(x, 0): real magnitudes need no complex cast
    mags = np.abs(np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)).ravel()
    uniq, counts = np.unique(mags, return_counts=True)
    if uniq.size == 0 or uniq[-1] == 0.0:
        return 0.0
    # measure of {|f| >= uniq[k]} = dx * sum of counts from k on
    tail = np.cumsum(counts[::-1])[::-1] * dx
    nz = uniq > 0
    return float(np.max(uniq[nz] * tail[nz]))


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
    with open(path, "wb") as fh:
        fh.write(header)
        # interleaved re/im; a real signal's imaginary parts are +0.0
        fh.write(sig.samples.astype("<c16").tobytes())


def read_signal(path) -> Signal:
    """Inverse of :func:`write_signal`: every sample's bits as written, and
    imaginary parts all ``+-0.0`` give a real signal.

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
    vals = np.frombuffer(payload, dtype="<c16")
    samples = vals.astype(np.complex128) if vals.imag.any() else vals.real.astype(np.float64)
    return Signal._adopt(samples, period, -period / 2)
