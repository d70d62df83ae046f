"""Iterated Whitney interval systems and their endpoint frequency sets.

The order-1 system is the family of dyadic blocks ``±[2^k, 2^(k+1))``.  The
order-``tau`` system is obtained by replacing every interval of the previous
order with its Whitney decomposition: the maximal dyadic subintervals ``L``
of ``I`` with ``dist(L, R \\ I) = |L|``.  Each interval carries its parent
and its *anchor*: the endpoint of the parent at distance ``|L|`` from ``L``.

All endpoint/scale arithmetic is exact.  The integers ``(tau, m, t)`` fix the
system truncated at scale ``2^m`` in the window ``[-2^t, 2^t]``, and
:func:`interval_arrays` builds it as integer arrays in units of ``2^m``.  The
public ``lambda_tau`` and ``lac_tau`` read ``m`` and ``t`` from exact
:class:`~lacuna.dyadic.DyadicScalar` bounds (:func:`window_log2`) and return
such values.  Intervals are half-open ``[left, right)`` on both half-axes.

The point sets ``lac_tau`` are the signed sums ``±2^{n_1} ± ... ± 2^{n_tau}``
with strictly decreasing exponents, which is the closure of the interval
endpoint sets; scale truncation bounds the smallest exponent from below.
Endpoints of the truncated interval system are always contained in the
matching signed-sum set (asserted in the test suite), while the reverse
containment fails exactly at points that are limits of interval endpoints
(e.g. powers of two for order 2), which is why the signed-sum semantics is
the one exposed here.

On the ``min_scale`` lattice these sums are exactly the nonzero ``q`` whose
non-adjacent form has at most ``tau`` nonzero digits, so one enumeration of
non-adjacent forms (:func:`lattice_points`) yields every point set, each
point once; :func:`nyquist_lattice` keeps those below a Nyquist.  The size
of an interval system is a closed form in ``(tau, m, t)``
(:func:`lambda_tau_count`), so a system is refused before it is built.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dyadic import ZERO, DyadicScalar

# most digit choices one step of ``lattice_points`` places, counted before
# they are; ``lattice_points(8, 2^20 - 1)``, czd's widest, places at most
# 631,488 at a step and takes 0.16 s on a 2-vCPU x86 host
MAX_LACUNARY_TERMS = 1_000_000
# most bits of a lattice bound: floats span 2,098 bits, 2^-1074 .. 2^1024,
# and the cap bounds the Python integers a wide lattice is built from
MAX_LATTICE_BITS = 2_100
# largest interval system ``interval_arrays`` builds; at tau 5, window 64,
# scale 2^-16 (274,176 intervals) its arrays take 0.02 s and ``lambda_tau``'s
# list of intervals 4.0 s, 15 us an interval, on a 2-vCPU x86 host
MAX_LACUNARY_INTERVALS = 300_000


@dataclass(frozen=True)
class LacInterval:
    """Half-open interval ``[left, right)`` with Whitney lineage."""

    left: DyadicScalar
    right: DyadicScalar
    order: int
    anchor: DyadicScalar
    # lineage is auxiliary: it never enters equality/hashing and is not
    # serialized, so identity is geometry + order + anchor
    parent: Optional["LacInterval"] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.left < self.right:
            raise ValueError("empty or reversed interval")

    @property
    def length(self) -> DyadicScalar:
        return self.right - self.left

    def covers(self, lo: DyadicScalar, hi: DyadicScalar) -> bool:
        return self.left <= lo and hi <= self.right

    def key(self) -> tuple:
        return (self.order, self.left, self.right, self.anchor)


def _require_pow2(x: DyadicScalar, what: str) -> None:
    if not (x.mantissa == 1):
        raise ValueError(f"{what} must be a positive power of two, got {x!r}")


# one order of a system in integer units: row i is ``[left[i], right[i])``, its
# anchor, and its parent's row ``parent[i]`` in the order below (-1 at order 1)
Level = namedtuple("Level", "left right anchor parent")


def interval_arrays(tau: int, min_log2: int, top_log2: int) -> list[Level]:
    """The orders ``1 .. tau`` of the system of scales ``2^min_log2`` and up in
    the window ``[-2^top_log2, 2^top_log2]``, in units of ``2^min_log2``.  A
    system of more than ``MAX_LACUNARY_INTERVALS`` intervals, or of a window
    of ``MAX_LATTICE_BITS`` bits, is refused first."""
    count = lambda_tau_count(tau, min_log2, top_log2)
    if count > MAX_LACUNARY_INTERVALS:
        # a huge window's count has more digits than str() converts
        shown = count if count < 10**12 else "more than 10^12"
        raise ValueError(f"tau {tau} would build {shown} intervals, "
                         f"above the budget of {MAX_LACUNARY_INTERVALS}")
    if count and top_log2 - min_log2 >= MAX_LATTICE_BITS:
        raise ValueError(f"max_abs / min_scale must lie below 2^{MAX_LATTICE_BITS}")
    return _whitney_levels(tau, max(top_log2 - min_log2, 0))  # a scale above the window: none


def _whitney_levels(tau: int, span: int) -> list[Level]:
    """Orders ``1 .. tau`` in units of the order-``tau`` scale, window
    ``2^span``; order ``k`` keeps pieces of at least ``4^(tau - k)`` units.
    Order 1 is the blocks ``+-[2^k, 2^(k+1))``, the negative ones first, each
    half by growing ``|x|``.  One Whitney step makes each next order: a parent
    ``[A, B)`` of length ``2^S`` has the pieces ``[A + 2^s, A + 2^(s+1))`` and
    their mirrors at ``B``, ``s <= S - 2``, left to right.  Values stay below
    2^58 in int64, leaving room for small multiples; Python integers above."""
    dtype = np.int64 if span <= 58 else object
    pow2 = np.array([1 << k for k in range(span + 1)], dtype=dtype)
    scale = np.arange(2 * (tau - 1), span)
    blocks = pow2[scale]
    left = np.concatenate((-2 * blocks[::-1], blocks))
    right = np.concatenate((-blocks[::-1], 2 * blocks))
    scale = np.concatenate((scale[::-1], scale))
    levels = [Level(left, right, np.zeros_like(left), np.full(left.size, -1))]
    for order in range(2, tau + 1):
        floor = 2 * (tau - order)
        # parent i holds count[i] pieces on each side, at scales floor .. S - 2
        count = np.maximum(scale - 1 - floor, 0)
        parent = np.repeat(np.arange(count.size), 2 * count)
        j = np.arange(parent.size) - np.repeat(np.cumsum(2 * count) - 2 * count, 2 * count)
        per = count[parent]
        up = j < per  # anchored at the left end
        scale = np.where(up, floor + j, floor + 2 * per - 1 - j)
        step = pow2[scale]
        a, b = left[parent], right[parent]
        left = np.where(up, a + step, b - 2 * step)
        right = np.where(up, a + 2 * step, b - step)
        levels.append(Level(left, right, np.where(up, a, b), parent))
    return levels


def lambda_tau(
    tau: int, min_scale: DyadicScalar, max_abs: DyadicScalar
) -> list[LacInterval]:
    """Order-``tau`` interval system, truncated and windowed: the last order
    of :func:`interval_arrays` as intervals that hold their parents.

    Keeps intervals with ``|L| ≥ min_scale`` contained in ``[-max_abs, max_abs]``.
    ``tau = 0`` is rejected: the order-0 objects are the two open half-lines
    (the parent of every order-1 block), not bounded intervals.
    """
    m, top = window_log2(min_scale, max_abs)
    built = []
    for order, level in enumerate(interval_arrays(tau, m, top), start=1):
        parents = built
        built = [LacInterval(DyadicScalar(left, m), DyadicScalar(right, m), order,
                             DyadicScalar(anchor, m), parents[up] if order > 1 else None)
                 for left, right, anchor, up in zip(level.left.tolist(), level.right.tolist(),
                                                    level.anchor.tolist(), level.parent.tolist())]
    return built


def lambda_tau_count(tau: int, min_log2: int, top_log2: int) -> int:
    """The size of the order-``tau`` system of :func:`interval_arrays`, in
    closed form.

    An order-``tau`` interval is ``2^tau`` side choices times a chain of log2
    lengths ``s_1 > ... > s_tau`` with gaps of at least 2, ``s_1 < top_log2``
    and ``s_k >= min_log2 + 2 (tau - k)``; shifting ``s_k`` by ``2 (tau - k)``
    makes them the nonincreasing ``tau``-tuples of ``m`` values, ``C(m + tau -
    1, tau)`` of them.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1; order 0 is the two half-lines")
    m = top_log2 - min_log2 - 2 * tau + 2
    return math.comb(m + tau - 1, tau) << tau if m > 0 else 0


def normalize_to_origin(interval: LacInterval) -> LacInterval:
    """Translate by the anchor: ``L - λ(L)`` lands on ``±[|L|, 2|L|)``.

    Identity for order-1 intervals (their anchor is 0).  The result is tagged
    order 1 with anchor 0: it is an order-1 block up to mirror symmetry, which
    is what the spectral modulation identity consumes.
    """
    if interval.order == 1:
        return interval
    left = interval.left - interval.anchor
    right = interval.right - interval.anchor
    return LacInterval(left, right, 1, ZERO, None)


@dataclass(frozen=True)
class LacPointSet:
    """Signed-sum frequency set of a given order with truncation metadata."""

    order: int
    min_scale: DyadicScalar
    max_abs: DyadicScalar
    points: tuple[DyadicScalar, ...]

    def __len__(self) -> int:
        return len(self.points)


def window_log2(min_scale: DyadicScalar, max_abs: DyadicScalar) -> tuple[int, int]:
    """``log2(min_scale)`` and ``floor(log2(max_abs))`` of a valid window: the
    integer scales :func:`interval_arrays` takes."""
    _require_pow2(min_scale, "min_scale")
    if max_abs <= ZERO:
        raise ValueError("max_abs must be positive")
    return min_scale.log2(), max_abs.exponent + abs(max_abs.mantissa).bit_length() - 1


def lac_tau(
    tau: int, min_scale: DyadicScalar, max_abs: DyadicScalar
) -> LacPointSet:
    """Signed sums ``±2^{n_1} ± ... ± 2^{n_tau}``, ``n_1 > ... > n_tau``.

    Truncation: smallest exponent ``n_tau ≥ log2(min_scale)``; window:
    ``|x| ≤ max_abs``.  Each value appears once, although distinct
    representations can collide (e.g. ``2^4 - 2^2 = 2^3 + 2^2``).  ``tau = 0``
    gives ``{0}``.  The points are ``min_scale`` times the nonzero
    ``lattice_points(tau, floor(max_abs / min_scale))``, a signed sum of
    fewer powers gaining terms at its leading one, ``2^e = 2^(e+1) - 2^e``.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if tau == 0:
        return LacPointSet(0, min_scale, max_abs, (ZERO,))
    emin, _ = window_log2(min_scale, max_abs)
    ratio = max_abs.scale_pow2(-emin)
    # a shift capped at MAX_LATTICE_BITS still leaves a bound that is refused
    shift = min(ratio.exponent, MAX_LATTICE_BITS)
    bound = ratio.mantissa << shift if shift >= 0 else ratio.mantissa >> -shift
    qs = lattice_points(tau, bound)
    points = tuple(DyadicScalar(q, emin) for q in qs[qs != 0].tolist())
    return LacPointSet(tau, min_scale, max_abs, points)


def lattice_points(tau: int, bound: int) -> np.ndarray:
    """Sorted array of the ``q`` with ``|q| <= bound`` whose non-adjacent form
    has at most ``tau`` nonzero digits: for ``tau >= 1``, 0 and the points of
    ``lac_tau(tau, 1, bound)``, the union of the orders ``0..tau``.

    Each form is built from its top digit down.  A partial sum ``P`` whose
    last digit sits at ``2^p`` takes its next one at ``2^j``, ``j <= p - 2``;
    the digits below ``2^p`` add less than ``2^(p-1)``, so ``P`` is dropped
    once ``|P| > bound + 2^(p-1)``.  Every point comes once, at a cost
    proportional to the points, in int64 below 2^61 and in Python integers
    above.  A bound of more than ``MAX_LATTICE_BITS`` bits, or a step of more
    than ``MAX_LACUNARY_TERMS`` digit choices, is refused before it is built.
    """
    if tau < 0 or bound < 0:
        return np.zeros(0, dtype=np.int64)
    top = bound.bit_length()
    if top > MAX_LATTICE_BITS:
        raise ValueError(f"max_abs / min_scale must lie below 2^{MAX_LATTICE_BITS}")
    dtype = np.int64 if bound < 1 << 61 else object
    pow2 = np.array([1 << p for p in range(top + 1)], dtype=dtype)
    # P = 0, as if its last digit sat at 2^(top+2): a first digit past 2^top
    # leaves no room for the bound
    partial, last = np.zeros(1, dtype=dtype), np.array([top + 2])
    found = [partial]
    for _ in range(tau):
        counts = np.maximum(last - 1, 0)
        choices = 2 * int(counts.sum())
        if choices > MAX_LACUNARY_TERMS:
            raise ValueError(f"tau {tau} would place {choices} digit choices at one "
                             f"step, above the budget of {MAX_LACUNARY_TERMS}")
        # partial sum i takes its next digit at 2^j, j = 0 .. last_i - 2
        partial = np.repeat(partial, counts)
        last = np.arange(choices // 2) - np.repeat(np.cumsum(counts) - counts, counts)
        digit = pow2[last]
        last = np.concatenate((last, last))
        partial = np.concatenate((partial + digit, partial - digit))
        keep = 2 * np.abs(partial) <= 2 * bound + pow2[last]
        last, partial = last[keep], partial[keep]
        found.append(partial[np.abs(partial) <= bound])
    return np.sort(np.concatenate(found))


def nyquist_lattice(tau: int, n: int) -> np.ndarray:
    """``lattice_points(tau, (n - 1) // 2)``, the points below the Nyquist of
    ``n`` samples, read-only.  Each ``(tau, n)`` is enumerated once, and the
    last 64 are kept."""
    # a plain function in front of the cache, which tracers of public functions wrap
    return _nyquist_lattice(tau, n)


@functools.lru_cache(maxsize=64)
def _nyquist_lattice(tau: int, n: int) -> np.ndarray:
    points = lattice_points(tau, (n - 1) // 2)
    points.flags.writeable = False
    return points


def dilate_set(points: LacPointSet, factor: DyadicScalar) -> LacPointSet:
    """Exact dilation ``x -> factor * x`` (factor a power of two)."""
    _require_pow2(abs(factor), "dilation factor")
    k = factor.log2()
    return LacPointSet(
        points.order,
        points.min_scale.scale_pow2(k),
        points.max_abs.scale_pow2(k),
        tuple(p.scale_pow2(k) for p in points.points),
    )


# -- line format (printed by ``lacuna lacunary --intervals``) ----------------
# order left_mantissa left_exp right_mantissa right_exp anchor_mantissa
# anchor_exp (parent lineage beyond the anchor is not printed)


def interval_to_line(interval: LacInterval) -> str:
    fields = [interval.order]
    for end in (interval.left, interval.right, interval.anchor):
        fields += [end.mantissa, end.exponent]
    return " ".join(str(field) for field in fields)
