"""Step multipliers and the sharpness family.

Two kinds of operator live here:

* step multipliers -- coefficient-weighted half-open frequency windows, each
  inside a block of the lacunary family, held as the windows of a
  :class:`~lacuna.spectral.BandBank` whose ``combine`` applies the symbol
  with one inverse transform.  :func:`step_multiplier` cuts every block into
  N equal windows with random signs +-1/N (class parameter N; N = 1 is the
  random-sign block symbol); the class invariants (containment, per-block
  coefficient mass at most 1/N, pointwise overlap at most N) hold by
  construction and are checked exactly in the tests.
* the sharpness family -- the parametrized array of second-order components
  whose vector-valued action on a dilated bump grows linearly in the
  parameter; see :func:`build_sharpness_family`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .lacunary import Level
from .spectral import BandBank, Signal, band_log2, plateau_bump


# -- step multipliers ----------------------------------------------------------


def step_multiplier(family: Level, exponent: int, n_param: int,
                    rng: np.random.Generator) -> BandBank:
    """The random-sign step multiplier of class parameter ``n_param`` = N, a
    power of two up to 16 (int64 block ends, below 2^58, stay int64): each
    block ``[left, right) 2^exponent`` of ``family`` cut into N equal windows
    at ``2^(exponent - log2 N)``, with coefficients +-1/N drawn from ``rng``
    block by block."""
    shift = n_param.bit_length() - 1
    if not 1 <= n_param <= 16 or n_param != 1 << shift:
        raise ValueError("the class parameter N must be a power of two in [1, 16]")
    # the N + 1 cut points of each block, in units of 2^(exponent - log2 N)
    cuts = (n_param * family.left[:, None]
            + (family.right - family.left)[:, None] * np.arange(n_param + 1))
    signs = rng.choice([-1.0, 1.0], size=(family.left.size, n_param))
    return BandBank(cuts[:, :-1].ravel(), cuts[:, 1:].ravel(), exponent - shift,
                    (signs / n_param).ravel().astype(complex), "step_multiplier")


# -- the sharpness family ------------------------------------------------------


def psi_bump(x):
    """Pinned smooth profile: 1 at 0, plateau [-1/4, 1/4], support [-1/2, 1/2]."""
    return plateau_bump(x, 0.25, 0.5)


def base_symbol(xi):
    """Jump-plus-smooth-tail profile: psi(xi - 1) cut off below 1."""
    xi = np.asarray(xi, dtype=float)
    return psi_bump(xi - 1.0) * (xi >= 1.0)


def component_symbol(xi, k, l):
    """The ``(k, l)`` component's symbol ``base_symbol((xi - 2^k) / 2^(l-1))``,
    elementwise over ``xi``, ``k`` and ``l``."""
    return base_symbol((np.asarray(xi, dtype=float) - 2.0**k) / 2.0 ** (l - 1))


def base_bump_spectrum(xi):
    """The dilation seed: identically 1 on [-2, 2], supported in [-4, 4]."""
    return plateau_bump(xi, 2.0, 4.0)


def max_feasible_parameter(log2_n: int, period: float) -> int:
    """Largest N whose dilated bump spectrum (support 2^{N+2}) fits the band, or 0."""
    return max(band_log2(log2_n, period) - 2, 0)


def unit_block(n: int, period: float) -> slice:
    """The samples of the centered window with ``|x| <= 1/2``, as one slice.

    The sample positions ``x_k = -period/2 + (period/n) k`` (the floats of
    ``Signal.x``) do not decrease in ``k``, so the block is one run of indices,
    found by bisection on those floats: exactly the samples ``np.abs(x) <= 0.5``
    picks.
    """
    grid, x = range(n), lambda k: -period / 2 + period / n * k
    return slice(bisect_left(grid, -0.5, key=x), bisect_right(grid, 0.5, key=x))


@dataclass
class SharpnessFamily:
    """The O(N^2) array of second-order components and its test signals;
    ``bank`` holds one band per component, in ``pairs`` order.

    ``block`` is the slice of samples with ``|x| <= 1/2`` (:func:`unit_block`),
    on which g_N equals f_N and off which it is zero.  ``f_half`` is the
    prefix of f_N's half spectrum (``rfft`` layout, unnormalized) that holds
    the bank's bands; ``bank.square_at(f_n, xs, f_half)`` reads f_N's
    coefficients from it instead of transforming f_N.
    """

    pairs: tuple[tuple[int, int], ...]
    f_n: Signal
    g_n: Signal
    bank: BandBank = field(repr=False)
    block: slice
    f_half: np.ndarray = field(repr=False)


def build_sharpness_family(
    n_param: int, log2_n: int, period: float = 16.0
) -> SharpnessFamily:
    """Construct the component array and the dilated/truncated test signals.

    The seed bump has spectrum identically 1 on [-2, 2] and support [-4, 4];
    its 2^N-dilation f_N is synthesized exactly in frequency, and g_N is the
    restriction of f_N to [-1/2, 1/2].  f_N is one ``irfft`` of the half
    spectrum: float64, within about ``1e-14`` of the peak of the ``ifft``.
    g_N copies f_N's samples on the block slice into zeros.  The family keeps
    of the half spectrum only its prefix through the top band (``f_half``).
    """
    if n_param < 2:
        raise ValueError("the family needs parameter at least 2")
    feasible = max_feasible_parameter(log2_n, period)
    if n_param > feasible:
        raise ValueError(
            f"parameter {n_param} overflows the band; max feasible is {feasible}"
        )
    n = 1 << log2_n
    # the real, even spectrum vanishes from |j| >= 4 2^N T on; the centered
    # window's offset phase at j/T is exactly (-1)^j, folded in with n/T
    js = np.arange(min(int(4 * 2.0**n_param * period) + 2, n // 2 + 1))
    half = np.zeros(n // 2 + 1)
    half[:js.size] = base_bump_spectrum(js / period / 2.0**n_param) * (1 - 2 * (js & 1))
    half *= n / period
    f_n = Signal._adopt(np.fft.irfft(half, n), period, -period / 2)
    block = unit_block(n, period)
    g = np.zeros(n)
    g[block] = f_n.samples[block]
    g_n = Signal._adopt(g, period, -period / 2)
    pairs = tuple((k, l) for k in range(2, n_param + 1) for l in range(1, k))
    ks, ls = np.array(pairs).T
    # the (k, l) symbol lives in 2^k + 2^{l-1} * [1, 3/2]
    lo = (1 << ks) + (1 << (ls - 1))
    hi = lo + (1 << (ls - 1))
    bank = BandBank(lo, hi, 0, lambda xi, at: component_symbol(xi, ks[at], ls[at]), "sharpness")
    # the bands' lattice points j/T lie below the top window end
    f_half = half[:math.ceil(int(hi.max()) * period) + 1].copy()
    return SharpnessFamily(pairs, f_n, g_n, bank, block, f_half)
