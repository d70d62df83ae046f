"""Step multipliers and the sharpness family.

Two kinds of operator live here:

* step multipliers -- coefficient-weighted half-open frequency windows, each
  inside a block of the lacunary family, held as the windows of a
  :class:`~lacuna.spectral.BandBank` whose ``combine`` applies the symbol
  with one inverse transform.  :func:`prototype_multiplier` is the
  random-sign block symbol (one window per block, class parameter N = 1);
  the class invariants (containment, per-block coefficient mass at most
  1/N, pointwise overlap at most N) hold by construction and are checked
  exactly in the tests.
* the sharpness family -- the parametrized array of second-order components
  whose vector-valued action on a dilated bump grows linearly in the
  parameter; see :func:`build_sharpness_family`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lacunary import interval_arrays
from .spectral import BandBank, Signal, band_log2, plateau_bump


# -- step multipliers ----------------------------------------------------------


def prototype_multiplier(tau: int, min_log2: int, top_log2: int,
                         rng: np.random.Generator) -> BandBank:
    """Random-sign block symbol: one window per block of the system of
    ``interval_arrays(tau, min_log2, top_log2)``, coefficient +-1 drawn from
    ``rng`` (a step multiplier with N = 1)."""
    family = interval_arrays(tau, min_log2, top_log2)[-1]
    signs = rng.choice([-1, 1], size=family.left.size)
    return BandBank(family.left, family.right, min_log2, signs.astype(complex),
                    "step_multiplier")


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
    ``Signal.x``) do not decrease in ``k``, so the block is one run of indices.
    Its ends are estimated from ``(period/2 -+ 1/2) / dx`` and settled on those
    floats, so the slice picks exactly the samples ``np.abs(x) <= 0.5`` picks.
    """
    dx, offset = period / n, -period / 2

    def first(estimate: float, past) -> int:
        # the first index whose position is ``past`` the edge (n when none is)
        k = min(max(math.ceil(estimate), 0), n)
        while k > 0 and past(offset + dx * (k - 1)):
            k -= 1
        while k < n and not past(offset + dx * k):
            k += 1
        return k

    return slice(first((period / 2 - 0.5) / dx, lambda x: x >= -0.5),
                 first((period / 2 + 0.5) / dx, lambda x: x > 0.5))


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
