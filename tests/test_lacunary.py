"""Lacunary interval systems: oracles, frozen examples, invariants.

Reference ledger (each compared with the code exactly, in exact rationals or
integers; none shares code with ``lacunary``):
- ``brute_whitney``: scans every dyadic subinterval with Fraction arithmetic
  and keeps those at Whitney distance (qualifying intervals form an
  antichain, so no maximality pass is needed); one Whitney step of
  ``sorted_whitney`` on the frozen parents, six parents at scales 2^-4 to 1
  and random parents of scale 2^-2 to 2^6, as sets of ends.
- ``brute_signed_sums_exact``: every ``±2^{n_1}±...±2^{n_tau}`` over the
  exponents -3..3 in Fractions; ``lac_tau`` at tau 1-3, as sets.
- ``reference_lac_tau``: the signed sums order by order in Python sets;
  ``lac_tau`` on 154 windows (mantissas and exponents), ``lattice_points``
  at tau 1-6 on every bound up to 2^10 (2^7 at tau 6) and past int64.
- ``popcount_points``: the former rule behind ``lattice_points``, a scan of
  ``[-bound, bound]`` for ``popcount(q ^ 3q) <= tau``; tau 0-8 on every bound
  up to 2^10, either side of 2^11..2^16, and 2^20 - 1 at tau 8, as arrays.
- ``sorted_whitney`` and ``sorted_lambda_tau``: the systems as they were
  built before ``interval_arrays``, one ``LacInterval`` of ``DyadicScalar``
  ends at a time, each order recursively from the one below and sorted by
  left end; ``lambda_tau``'s lineage and ``interval_arrays``' ends,
  anchors, parent rows and dtype on ``ARRAY_CASES``, ``lambda_tau`` at tau
  1-4 on 12 windows each, and the reference systems of the band-plan tests
  in ``test_spectral`` and ``test_cli``.
- ``lac_tau`` is the oracle for ``lambda_tau_count``, which is also checked
  against the built system.
"""

from __future__ import annotations

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna import lacunary
from lacuna.dyadic import ZERO, DyadicScalar
from lacuna.lacunary import (
    MAX_LACUNARY_INTERVALS,
    MAX_LACUNARY_TERMS,
    MAX_LATTICE_BITS,
    LacInterval,
    dilate_set,
    interval_arrays,
    interval_to_line,
    lac_tau,
    lambda_tau,
    lambda_tau_count,
    lattice_points,
    normalize_to_origin,
    window_log2,
)

F = Fraction
ONE = DyadicScalar(1, 0)


def D(q: Fraction) -> DyadicScalar:
    """The dyadic rational ``q`` as a scalar: its numerator times 2^-k."""
    assert q.denominator & (q.denominator - 1) == 0, q
    return DyadicScalar(q.numerator, 1 - q.denominator.bit_length())


def dilate_interval(interval, k):
    """Scale an interval (and its lineage) by ``2**k``."""
    parent = dilate_interval(interval.parent, k) if interval.parent else None
    return LacInterval(
        interval.left.scale_pow2(k),
        interval.right.scale_pow2(k),
        interval.order,
        interval.anchor.scale_pow2(k),
        parent,
    )


def endpoints_of(intervals):
    """Every left and right endpoint of the intervals, in increasing order."""
    seen = set()
    for interval in intervals:
        seen.add(interval.left)
        seen.add(interval.right)
    return tuple(sorted(seen))


def ival(lo, hi, order=1, anchor=0):
    return LacInterval(D(F(lo)), D(F(hi)), order, D(F(anchor)), None)


def as_pairs(intervals):
    return {(i.left.as_fraction(), i.right.as_fraction()) for i in intervals}


# -- oracles -----------------------------------------------------------------


def brute_whitney(a: Fraction, b: Fraction, min_scale: Fraction):
    """All dyadic [m*2^s, (m+1)*2^s) inside [a,b) with dist to the complement
    equal to the length, length >= min_scale.  Exhaustive Fraction scan."""
    out = set()
    scale = min_scale
    while scale <= (b - a):
        m = a / scale
        m0 = int(m) if m == int(m) else int(m) + 1  # ceil
        m_end = int((b / scale))  # right edge index bound
        for k in range(m0, m_end):
            lo, hi = k * scale, (k + 1) * scale
            if hi > b:
                continue
            if min(lo - a, b - hi) == scale:
                out.add((lo, hi))
        scale *= 2
    return out


def brute_signed_sums_exact(tau: int, emin: int, emax: int):
    """Values of tau-term signed power sums with exponents in [emin, emax]."""
    vals = set()
    for combo in itertools.combinations(range(emin, emax + 1), tau):
        for signs in itertools.product((1, -1), repeat=tau):
            total = F(0)
            for s, e in zip(signs, combo):
                total += s * (F(2**e) if e >= 0 else F(1, 2**-e))
            vals.add(total)
    return vals


def reference_lac_tau(tau: int, min_scale: DyadicScalar, max_abs: DyadicScalar) -> tuple:
    """The sorted points of ``lac_tau``: the signed sums of ``tau`` distinct
    powers ``2^e``, ``log2(min_scale) <= e <= floor(log2(max_abs)) + tau`` (a
    sum led by a larger power exceeds ``max_abs``), built order by order in
    units of ``min_scale``.  A sum takes its next power below its lowest one,
    ``2^v`` for ``v`` its 2-adic valuation, and the powers still to come add
    at most ``2^v - 1``, so a sum with ``|s| - 2^v + 1`` past the window is
    dropped."""
    if tau == 0:
        return (ZERO,)
    emin = min_scale.log2()
    top = max_abs.exponent + abs(max_abs.mantissa).bit_length() - 1
    window = max_abs.as_fraction() / F(2) ** emin
    sums = {0}
    for _ in range(tau):
        grown = set()
        for s in sums:
            low = (s & -s).bit_length() - 1 if s else top - emin + tau + 1
            for e in range(low):
                for q in (s + (1 << e), s - (1 << e)):
                    if abs(q) - (1 << e) + 1 <= window:
                        grown.add(q)
        sums = grown
    return tuple(DyadicScalar(q, emin) for q in sorted(sums) if abs(q) <= window)


def popcount_points(tau: int, bound: int) -> np.ndarray:
    """The ``q`` in ``[-bound, bound]`` with at most ``tau`` nonzero
    non-adjacent digits, by the popcount of ``q ^ 3q`` over every ``q``."""
    q = np.arange(-bound, bound + 1, dtype=np.int64)
    return q[np.bitwise_count(q ^ 3 * q) <= tau]


# -- dyadic scalar arithmetic -------------------------------------------------

dyadics = st.builds(
    DyadicScalar,
    st.integers(min_value=-(2**24), max_value=2**24),
    st.integers(min_value=-24, max_value=24),
)


@given(dyadics, dyadics)
def test_dyadic_sub_matches_fractions(x, y):
    assert (x - y).as_fraction() == x.as_fraction() - y.as_fraction()


@given(dyadics)
def test_dyadic_canonical_form(x):
    assert x.mantissa == 0 and x.exponent == 0 or x.mantissa % 2 == 1
    assert DyadicScalar.from_float(float(x)).as_fraction() == x.as_fraction() or abs(
        x.mantissa
    ) >= 2**53


def test_dyadic_canonical_form_of_wide_mantissas():
    # trailing zeros come off in one shift, not one halving each
    start = time.perf_counter()
    for k in range(0, 4000, 7):
        for m in (1, -3, 5 << 200):
            x = DyadicScalar(m << k, -k)
            assert (x.mantissa, x.exponent) == (m >> (m & -m).bit_length() - 1,
                                                (m & -m).bit_length() - 1)
    assert time.perf_counter() - start < 1.0


@given(dyadics, dyadics)
def test_dyadic_ordering(x, y):
    assert (x < y) == (x.as_fraction() < y.as_fraction())
    assert (x <= y) == (x.as_fraction() <= y.as_fraction())
    # the reflected comparisons
    assert (x > y) == (x.as_fraction() > y.as_fraction())
    assert (x >= y) == (x.as_fraction() >= y.as_fraction())


@given(st.lists(st.tuples(dyadics, st.sampled_from([1, -1])), max_size=40))
def test_native_sort_matches_fraction_order(events):
    # the interval, point and overlap-event sorts compare scalars natively;
    # the Fraction keys they replaced give the same order
    assert sorted(events) == sorted(events, key=lambda e: (e[0].as_fraction(), e[1]))
    values = [v for v, _ in events]
    assert sorted(values) == sorted(values, key=lambda v: v.as_fraction())


@given(dyadics, st.integers(min_value=-10, max_value=10))
def test_dyadic_pow2_scaling(x, k):
    assert x.scale_pow2(k).as_fraction() == x.as_fraction() * F(2) ** k


@given(st.integers(min_value=-(2**1200), max_value=2**1200),
       st.integers(min_value=-2400, max_value=1100))
def test_dyadic_float_is_correctly_rounded(m, e):
    # Fraction's float is an int true division, rounded correctly; past the
    # float range it raises where the scalar, like float arithmetic, is inf
    x = DyadicScalar(m, e)
    try:
        want = float(x.as_fraction())
    except OverflowError:
        want = math.inf if m > 0 else -math.inf
    assert float(x) == want and math.copysign(1.0, float(x)) == math.copysign(1.0, want)


def test_dyadic_float_extremes():
    # a mantissa past the float range over an exponent that brings it back
    # (a band edge minus a tiny one) used to raise OverflowError; a power
    # 2^e below the float range used to zero a mantissa that lifts it back
    assert float(DyadicScalar(2**1100 + 1, -1100)) == 1.0
    assert float(D(F(10**308)) - D(F(1, 2**70))) == 1e308
    assert float(DyadicScalar(2**100, -1100)) == 2.0**-1000
    assert float(DyadicScalar.pow2(-1100)) == 0.0
    assert float(DyadicScalar(-1, -2000)) == 0.0 and math.copysign(1, float(DyadicScalar(-1, -2000))) < 0
    assert float(DyadicScalar.pow2(1024)) == math.inf
    assert float(DyadicScalar(-3, 10**9)) == -math.inf


def test_dyadic_from_float_exact():
    assert DyadicScalar.from_float(0.75) == D(F(3, 4))
    assert DyadicScalar.from_float(-2.5) == D(F(-5, 2))


# -- the former construction ------------------------------------------------


def sorted_whitney(interval, min_scale):
    """One Whitney step as it was before its pieces came out in order: the
    maximal dyadic ``L`` in ``interval`` with ``dist(L, R\\I) = |L| >=
    min_scale``, both anchored pieces ``[A + 2^s, A + 2^(s+1))`` and their
    mirrors at ``B`` for each scale ``2^s <= |I|/4``, then one sort by left
    end; each piece has ``interval`` as its parent."""
    pieces = []
    a, b = interval.left, interval.right
    for s in range(min_scale.log2(), interval.length.log2() - 1):
        step, double = DyadicScalar.pow2(s), DyadicScalar.pow2(s + 1)
        pieces.append(LacInterval(a - (ZERO - step), a - (ZERO - double), interval.order + 1, a,
                                  interval))
        pieces.append(LacInterval(b - double, b - step, interval.order + 1, b, interval))
    pieces.sort(key=lambda piece: piece.left)
    return tuple(pieces)


def sorted_lambda_tau(tau, min_scale, max_abs):
    """``lambda_tau`` as it was before it was built in order: recursively
    from order ``tau - 1`` at four times the scale, each order sorted by left
    end after it is built."""
    out = []
    if tau == 1:
        k = min_scale.log2()
        while DyadicScalar.pow2(k + 1) <= max_abs:
            lo, hi = DyadicScalar.pow2(k), DyadicScalar.pow2(k + 1)
            out += [LacInterval(lo, hi, 1, ZERO, None), LacInterval(ZERO - hi, ZERO - lo, 1, ZERO, None)]
            k += 1
    else:
        for parent in sorted_lambda_tau(tau - 1, min_scale.scale_pow2(2), max_abs):
            out.extend(sorted_whitney(parent, min_scale))
    out.sort(key=lambda piece: piece.left)
    return out


def lineage(interval):
    """The keys of an interval and of every ancestor, nearest first."""
    keys = []
    while interval is not None:
        keys.append(interval.key())
        interval = interval.parent
    return tuple(keys)


# gate 02's systems, the verify operators' at their default scales (sharp cap
# 2^7, smooth cap 2^6 over the floor 2^-3 at 2^13 samples of period 16), and
# windows of more than 62 bits: the 2^8-sample sqfn up to 1e300 and verify at
# period 2 down to 2^-64
ARRAY_CASES = (
    [(tau, DyadicScalar.pow2(-6), DyadicScalar.pow2(10)) for tau in (1, 2, 3, 4)]
    + [(tau, DyadicScalar.pow2(-6), DyadicScalar.pow2(7)) for tau in (1, 2, 3, 4)]
    + [(tau, DyadicScalar.pow2(-3), DyadicScalar.pow2(6)) for tau in (1, 2, 3, 4)]
    + [(1, DyadicScalar.pow2(-6), DyadicScalar.from_float(1e300)),
       (1, DyadicScalar.pow2(-64), DyadicScalar.pow2(5)),
       (2, DyadicScalar.pow2(-64), DyadicScalar.pow2(5)),
       (2, DyadicScalar.pow2(-1000), DyadicScalar.from_float(3e-290))])


@pytest.mark.parametrize("tau, min_scale, max_abs", ARRAY_CASES)
def test_array_builder_matches_the_recursion(tau, min_scale, max_abs):
    # the arrays themselves, in units of min_scale: ends, anchors, and each
    # piece's parent as its row in the order below, against the sorted
    # recursion's orders 1 .. tau
    systems = [sorted_lambda_tau(order, min_scale.scale_pow2(2 * (tau - order)), max_abs)
               for order in range(1, tau + 1)]
    want = systems[-1]
    assert want
    got = lambda_tau(tau, min_scale, max_abs)
    assert [lineage(i) for i in got] == [lineage(i) for i in want]
    levels = interval_arrays(tau, *window_log2(min_scale, max_abs))
    assert len(levels) == tau
    wide = max_abs.as_fraction() / min_scale.as_fraction() >= 2**59
    m = min_scale.log2()
    for order, (level, system) in enumerate(zip(levels, systems), start=1):
        assert level.left.dtype == (object if wide else np.int64)
        assert [(DyadicScalar(l, m), DyadicScalar(r, m), DyadicScalar(a, m))
                for l, r, a in zip(level.left.tolist(), level.right.tolist(),
                                   level.anchor.tolist())] == [
            (i.left, i.right, i.anchor) for i in system]
        if order == 1:
            assert level.parent.tolist() == [-1] * len(system)
        else:
            rows = {parent.key(): row for row, parent in enumerate(systems[order - 2])}
            assert level.parent.tolist() == [rows[i.parent.key()] for i in system]


def test_a_window_of_2100_bits_is_refused_before_it_is_built(monkeypatch):
    # tau 1 keeps within the interval budget up to 150,000 bits, where the
    # arrays would hold integers of that many bits; the window is refused
    # as the lattices are, and the budget is still checked first
    monkeypatch.setattr(lacunary, "_whitney_levels", _refuse)
    with pytest.raises(ValueError, match=f"below 2\\^{MAX_LATTICE_BITS}$"):
        lambda_tau(1, DyadicScalar.pow2(-MAX_LATTICE_BITS), ONE)
    with pytest.raises(ValueError, match="tau 2 would build"):
        lambda_tau(2, DyadicScalar.pow2(-MAX_LATTICE_BITS), ONE)


# -- one Whitney step: frozen examples (oracle-computed) ---------------------


def test_whitney_8_16():
    res = sorted_whitney(ival(8, 16), D(F(1)))
    assert as_pairs(res) == {
        (F(9), F(10)),
        (F(10), F(12)),
        (F(12), F(14)),
        (F(14), F(15)),
    }
    anchors = {
        (i.left.as_fraction(), i.anchor.as_fraction()) for i in res
    }
    assert anchors == {(F(9), F(8)), (F(10), F(8)), (F(12), F(16)), (F(14), F(16))}
    assert as_pairs(res) == brute_whitney(F(8), F(16), F(1))


def test_whitney_unit_interval_quarter_scale():
    # post-condition |L| >= min_scale is authoritative: at min_scale 1/4 only
    # the two central quarter pieces survive (oracle-verified)
    res = sorted_whitney(ival(1, 2), D(F(1, 4)))
    expect = {(F(5, 4), F(3, 2)), (F(3, 2), F(7, 4))}
    assert as_pairs(res) == expect
    assert as_pairs(res) == brute_whitney(F(1), F(2), F(1, 4))


def test_whitney_unit_interval_eighth_scale():
    res = sorted_whitney(ival(1, 2), D(F(1, 8)))
    expect = {
        (F(9, 8), F(5, 4)),
        (F(5, 4), F(3, 2)),
        (F(3, 2), F(7, 4)),
        (F(7, 4), F(15, 8)),
    }
    assert as_pairs(res) == expect
    assert as_pairs(res) == brute_whitney(F(1), F(2), F(1, 8))


def test_whitney_over_truncated():
    assert sorted_whitney(ival(0, 1), D(F(1, 2))) == ()


def test_whitney_rejects_non_pow2_scale():
    with pytest.raises(ValueError):
        sorted_whitney(ival(0, 1), D(F(3, 8)))


@pytest.mark.parametrize(
    "a,b,ms",
    [
        (F(8), F(16), F(1, 4)),
        (F(1), F(2), F(1, 16)),
        (F(-16), F(-8), F(1)),
        (F(-4), F(-2), F(1, 8)),
        (F(0), F(8), F(1, 2)),
        (F(6), F(8), F(1, 4)),
    ],
)
def test_whitney_matches_brute_force(a, b, ms):
    res = sorted_whitney(LacInterval(D(a), D(b), 1, ZERO, None), D(ms))
    assert as_pairs(res) == brute_whitney(a, b, ms)


def test_whitney_invariants():
    parent = ival(8, 16, order=1)
    pieces = sorted_whitney(parent, D(F(1, 4)))
    # pairwise disjoint, inside parent, dist == length, anchor correct
    for p in pieces:
        assert parent.left <= p.left and p.right <= parent.right
        dist = min(
            (p.left - parent.left).as_fraction(),
            (parent.right - p.right).as_fraction(),
        )
        assert dist == p.length.as_fraction()
        assert p.anchor in (parent.left, parent.right)
        assert min(
            abs(p.left - p.anchor).as_fraction(),
            abs(p.right - p.anchor).as_fraction(),
        ) == p.length.as_fraction()
        assert p.order == parent.order + 1
        assert p.parent is parent
    spans = sorted(as_pairs(pieces))
    for (l1, r1), (l2, r2) in zip(spans, spans[1:]):
        assert r1 <= l2
    # partition: contiguous chain with one min_scale gap at each end
    assert spans[0][0] - parent.left.as_fraction() == F(1, 4)
    assert parent.right.as_fraction() - spans[-1][1] == F(1, 4)
    for (l1, r1), (l2, r2) in zip(spans, spans[1:]):
        assert r1 == l2


@pytest.mark.parametrize("tau", [1, 2, 3, 4])
def test_lambda_tau_matches_the_sorted_construction(tau):
    for min_log2 in (-2 * tau - 2, -3, 0):
        for max_abs in (F(1), F(3), F(64), F(100)):
            args = (DyadicScalar.pow2(min_log2), D(max_abs))
            got, want = lambda_tau(tau, *args), sorted_lambda_tau(tau, *args)
            assert [lineage(i) for i in got] == [lineage(i) for i in want]
            assert all(a.right <= b.left for a, b in zip(got, got[1:]))


# -- lambda_tau ----------------------------------------------------------------


def test_lambda_1_window():
    fam = lambda_tau(1, D(F(1)), D(F(8)))
    assert as_pairs(fam) == {
        (F(1), F(2)),
        (F(2), F(4)),
        (F(4), F(8)),
        (F(-2), F(-1)),
        (F(-4), F(-2)),
        (F(-8), F(-4)),
    }
    assert all(i.anchor == ZERO and i.parent is None and i.order == 1 for i in fam)


def test_lambda_tau_rejects_order_zero():
    with pytest.raises(ValueError):
        lambda_tau(0, ONE, D(F(8)))
    with pytest.raises(ValueError):
        lambda_tau_count(0, 0, 3)


@pytest.mark.parametrize("tau", [1, 2, 3, 4])
def test_lambda_tau_count_matches_the_built_system(tau):
    # windows on and between powers of two, scales above and below them
    for min_log2 in (-2 * tau, -1, 0, 2):
        for max_abs in (F(1, 4), F(1), F(3), F(64), F(100)):
            fam = lambda_tau(tau, DyadicScalar.pow2(min_log2), D(max_abs))
            top = window_log2(ONE, D(max_abs))[1]
            assert lambda_tau_count(tau, min_log2, top) == len(fam)


def test_lambda_tau_count_needs_no_system_and_no_recursion():
    # a window of 2^1,000,000,006 at unit scale, and orders past the window
    start = time.perf_counter()
    assert lambda_tau_count(1, -10**9, 6) == 2 * (10**9 + 6)
    assert lambda_tau_count(2, -10**5, 6) == 20_001_800_040
    assert lambda_tau(2000, DyadicScalar.pow2(-6), D(F(64))) == []
    assert lambda_tau_count(2000, -6, 6) == 0
    assert time.perf_counter() - start < 1.0


def _refuse(*args):
    raise AssertionError("the enumeration was started")


def test_enumerations_over_budget_are_refused_before_they_start(monkeypatch):
    monkeypatch.setattr(lacunary, "_whitney_levels", _refuse)
    with pytest.raises(ValueError, match=f"tau 6 would build 792064 intervals, "
                                         f"above the budget of {MAX_LACUNARY_INTERVALS}"):
        lambda_tau(6, DyadicScalar.pow2(-16), D(F(64)))
    # the digit choices of a step are counted before any is allocated: each
    # refused step would hold an array of one 8-byte entry per choice, while
    # both runs together peak below 8 bytes per budgeted choice
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"tau 8 would place 1118880 digit choices at "
                                             f"one step, above the budget of {MAX_LACUNARY_TERMS}"):
            lac_tau(8, DyadicScalar.pow2(-20), DyadicScalar.pow2(20))
        with pytest.raises(ValueError, match="tau 2 would place 8004000 digit choices"):
            lac_tau(2, DyadicScalar.pow2(-1000), DyadicScalar.pow2(1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * MAX_LACUNARY_TERMS
    # the widest lattice is refused before its bound is built
    for argv in ((1, DyadicScalar.pow2(-400000), ONE),
                 (20, DyadicScalar.pow2(-10**300), D(F(64)))):
        with pytest.raises(ValueError, match=f"below 2\\^{MAX_LATTICE_BITS}$"):
            lac_tau(*argv)
    with pytest.raises(ValueError, match=f"below 2\\^{MAX_LATTICE_BITS}$"):
        lattice_points(1, 1 << MAX_LATTICE_BITS)


def test_a_scale_far_above_the_window_leaves_no_point():
    # the bound floor(max_abs / min_scale) is 0 by a shift, not a division
    # that first builds 2^(10^300)
    assert lac_tau(2, DyadicScalar.pow2(10**300), D(F(64))).points == ()
    assert lambda_tau(2, DyadicScalar.pow2(10**300), D(F(64))) == []
    assert lac_tau(1, D(F(2)), D(F(3, 2))).points == ()


def test_lambda_tau_budget_message_stays_short():
    # a count of more digits than str() converts is not printed
    with pytest.raises(ValueError) as err:
        lambda_tau(20, DyadicScalar.pow2(-10**300), D(F(64)))
    assert str(err.value) == ("tau 20 would build more than 10^12 intervals, "
                              f"above the budget of {MAX_LACUNARY_INTERVALS}")


def test_lambda_2_parent_8_16():
    fam = lambda_tau(2, D(F(1)), D(F(16)))
    inside = [i for i in fam if i.parent is not None and i.parent.left == D(F(8))]
    assert as_pairs(inside) == {
        (F(9), F(10)),
        (F(10), F(12)),
        (F(12), F(14)),
        (F(14), F(15)),
    }
    anchors = sorted(i.anchor.as_fraction() for i in inside)
    assert anchors == [F(8), F(8), F(16), F(16)]


@pytest.mark.parametrize("tau", [2, 3, 4])
def test_lambda_tau_structure(tau):
    fam = lambda_tau(tau, D(F(1, 2 ** (2 * tau))), D(F(2**6)))
    assert fam, "family should be nonempty at this truncation"
    for piece in fam:
        assert piece.order == tau
        # lineage chain decrements order down to 1
        q = piece
        while q.parent is not None:
            assert q.parent.order == q.order - 1
            assert q.parent.left <= q.left and q.right <= q.parent.right
            assert q.anchor in (q.parent.left, q.parent.right)
            q = q.parent
        assert q.order == 1 and q.anchor == ZERO
        # window and truncation
        assert abs(piece.left) <= D(F(2**6)) and abs(piece.right) <= D(F(2**6))
        assert piece.length >= D(F(1, 2 ** (2 * tau)))
    # mirror symmetry
    pairs = as_pairs(fam)
    assert {(-r, -l) for (l, r) in pairs} == pairs


def test_normalize_to_origin_examples():
    fam = lambda_tau(2, D(F(1)), D(F(16)))
    by_span = {(i.left.as_fraction(), i.right.as_fraction()): i for i in fam}
    star = normalize_to_origin(by_span[(F(12), F(14))])
    assert (star.left.as_fraction(), star.right.as_fraction()) == (F(-4), F(-2))
    star = normalize_to_origin(by_span[(F(9), F(10))])
    assert (star.left.as_fraction(), star.right.as_fraction()) == (F(1), F(2))
    block = ival(2, 4, order=1)
    assert normalize_to_origin(block) is block


@pytest.mark.parametrize("tau", [2, 3])
def test_normalize_lands_on_order_one_blocks(tau):
    for piece in lambda_tau(tau, D(F(1, 2 ** (2 * tau))), D(F(16))):
        star = normalize_to_origin(piece)
        ln = piece.length.as_fraction()
        span = (star.left.as_fraction(), star.right.as_fraction())
        assert span in {(ln, 2 * ln), (-2 * ln, -ln)}


@pytest.mark.parametrize("tau,k", [(1, 2), (2, -1), (3, 3)])
def test_lambda_tau_dilation_equivariance(tau, k):
    base = lambda_tau(tau, D(F(1, 16)), D(F(16)))
    scaled = lambda_tau(
        tau, D(F(1, 16)).scale_pow2(k), D(F(16)).scale_pow2(k)
    )
    assert as_pairs(dilate_interval(i, k) for i in base) == as_pairs(scaled)


# -- lac_tau -------------------------------------------------------------------


def test_lac_tau_order_zero_and_one():
    assert [p.as_fraction() for p in lac_tau(0, ONE, D(F(8))).points] == [F(0)]
    pts = lac_tau(1, ONE, D(F(8))).points
    assert {p.as_fraction() for p in pts} == {F(s * 2**k) for s in (1, -1) for k in range(4)}


@pytest.mark.parametrize("tau", [1, 2, 3])
def test_lac_tau_equals_brute_enumeration(tau):
    # Window matched to the exponent range [-3, 3]: a tau-term sum led by
    # 2^(E+1) is at least 2^(E+2-tau), so max_abs strictly below that bound
    # keeps every out-of-range representation outside the window.
    max_abs = D(F(2 ** (5 - tau)) - F(1, 8))
    got = {p.as_fraction() for p in lac_tau(tau, D(F(1, 8)), max_abs).points}
    want = {
        v
        for v in brute_signed_sums_exact(tau, -3, 3)
        if abs(v) <= max_abs.as_fraction()
    }
    assert got == want


@pytest.mark.parametrize("tau", [1, 2, 3])
def test_endpoints_contained_in_signed_sums(tau):
    ms, ma = D(F(1, 4)), D(F(16))
    fam = lambda_tau(tau, ms, ma)
    pts = set(lac_tau(tau, ms, ma).points)
    for e in endpoints_of(fam):
        assert e in pts
    if tau == 1:
        assert {e for e in endpoints_of(fam)} == pts


def test_lac_tau_nesting():
    ms, ma = D(F(1, 4)), D(F(16))
    prev = set(lac_tau(1, ms, ma).points)
    for tau in (2, 3):
        cur = set(lac_tau(tau, ms, ma).points)
        assert prev <= cur
        prev = cur


@pytest.mark.parametrize("tau", [1, 2])
@pytest.mark.parametrize("k", [-2, 1, 4])
def test_lac_tau_dilation_lemma(tau, k):
    # a^{-1} lac_tau^a == lac_tau^1 with the window scaled alongside
    a = DyadicScalar.pow2(k)
    scaled = lac_tau(tau, a, D(F(8)).scale_pow2(k))
    back = dilate_set(scaled, DyadicScalar.pow2(-k))
    base = lac_tau(tau, ONE, D(F(8)))
    assert {p.as_fraction() for p in back.points} == {
        p.as_fraction() for p in base.points
    }


@pytest.mark.parametrize("tau", range(1, 7))
def test_lattice_points_match_lac_tau(tau):
    # the nonzero points are the order-tau signed sums on the unit lattice;
    # the reference's window keeps every exponent a bound's sums can use, so
    # its points at smaller bounds are the restrictions checked here (at tau
    # 6 they are all of [-2^7, 2^7] \ {0}, and enumerating 2^10 takes 2 s)
    top = 1 << (10 if tau < 6 else 7)
    want = np.array([int(p.as_fraction()) for p in reference_lac_tau(tau, ONE, D(F(top)))])
    for bound in (1, 2, 3, 7, 8, 9, 31, 32, 33):
        direct = [int(p.as_fraction()) for p in reference_lac_tau(tau, ONE, D(F(bound)))]
        assert direct == want[np.abs(want) <= bound].tolist()
    for bound in range(top + 1):
        got = lattice_points(tau, bound)
        assert got.dtype == np.int64
        assert np.array_equal(got[got != 0], want[np.abs(want) <= bound])
        assert 0 in got


def test_lattice_points_are_the_union_of_orders():
    bound = 100
    union = {0}
    for tau in range(7):
        if tau:
            union |= {int(p.as_fraction()) for p in reference_lac_tau(tau, ONE, D(F(bound)))}
        assert lattice_points(tau, bound).tolist() == sorted(union)
    # no q has fewer than 0 digits, and no |q| is at most -1
    assert lattice_points(-1, 8).size == 0 and lattice_points(2, -1).size == 0


def test_lattice_points_match_the_popcount_rule():
    # every bound up to 2^10, bounds on either side of powers of two, and
    # czd's widest lattice, the bins of half a 2^22-sample signal
    bounds = list(range((1 << 10) + 1)) + [(1 << k) + d for k in range(11, 17) for d in (-1, 1)]
    for tau in range(9):
        for bound in bounds:
            assert np.array_equal(lattice_points(tau, bound), popcount_points(tau, bound))
    got = lattice_points(8, (1 << 20) - 1)
    assert got.dtype == np.int64 and got.size == 1_817_343
    assert np.array_equal(got, popcount_points(8, (1 << 20) - 1))


def test_lattice_points_past_int64_hold_python_integers():
    # above 2^61 the same enumeration runs on Python integers
    bound = (1 << 70) + 12345
    got = lattice_points(2, bound)
    assert got.dtype == object and all(type(q) is int for q in got)
    want = reference_lac_tau(2, ONE, DyadicScalar(bound, 0))
    assert got.tolist() == sorted([0] + [int(p.as_fraction()) for p in want])


def _random_windows(count: int, seed: int):
    """Windows ``(tau, min_scale, max_abs)`` whose reference enumeration is
    small: odd and even mantissas, bounds below the scale, and each span."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        tau = rng.randint(0, 4)
        emin = rng.randint(-12, 6)
        max_abs = DyadicScalar(rng.randint(1, 1 << 12), rng.randint(-16, 4))
        top = max_abs.exponent + abs(max_abs.mantissa).bit_length() - 1
        if math.comb(max(top + tau + 1 - emin, 0), tau) << tau <= 20_000:
            out.append((tau, DyadicScalar.pow2(emin), max_abs))
    return out


@pytest.mark.parametrize("tau, min_scale, max_abs", _random_windows(150, 2026)
                         + [(1, DyadicScalar.pow2(-100), DyadicScalar(3, 0)),
                            (1, DyadicScalar.pow2(-200), DyadicScalar(5, 10)),
                            (2, DyadicScalar.pow2(-66), DyadicScalar(7, -1)),
                            (3, DyadicScalar.pow2(-3), DyadicScalar(1, -4))])
def test_lac_tau_matches_the_signed_sum_reference(tau, min_scale, max_abs):
    # the same points with the same canonical mantissas and exponents; the
    # last four windows span 100 to 210 bits or lie below the scale
    got = lac_tau(tau, min_scale, max_abs).points
    want = reference_lac_tau(tau, min_scale, max_abs)
    assert [(p.mantissa, p.exponent) for p in got] == [(p.mantissa, p.exponent) for p in want]


def test_lac_tau_dedup_collisions():
    # 2^4 - 2^2 == 2^3 + 2^2 == 12: single point
    pts = lac_tau(2, ONE, D(F(32))).points
    twelves = [p for p in pts if p.as_fraction() == F(12)]
    assert len(twelves) == 1


def test_containing_interval():
    # lambda_2 on [1, 16]: [10, 11) lies in exactly one block, [10, 12);
    # [7, 9) straddles the dyadic point 8 and lies in none
    fam = lambda_tau(2, D(F(1)), D(F(16)))
    hits = [L for L in fam if L.covers(D(F(10)), D(F(11)))]
    assert [(L.left.as_fraction(), L.right.as_fraction()) for L in hits] == [
        (F(10), F(12))
    ]
    assert not any(L.covers(D(F(7)), D(F(9))) for L in fam)


@pytest.mark.parametrize("tau", [1, 2, 3])
def test_interval_line_roundtrip(tau):
    # the printed line determines the interval's key: order, left, right
    # and anchor, each as an exact mantissa/exponent pair
    for piece in lambda_tau(tau, D(F(1, 8)), D(F(8))):
        fields = [int(tok) for tok in interval_to_line(piece).split()]
        assert len(fields) == 7
        order, lm, le, rm, re_, am, ae = fields
        back = LacInterval(
            DyadicScalar(lm, le), DyadicScalar(rm, re_), order,
            DyadicScalar(am, ae), None,
        )
        assert back.key() == piece.key()


@given(
    st.integers(min_value=-2, max_value=6),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=-6, max_value=0),
)
@settings(max_examples=60)
def test_whitney_partition_property(scale_exp, offset_mult, ms_exp):
    # random dyadic parent [A, A + 2^s) with A a multiple of 2^s
    s = F(2) ** scale_exp
    a = offset_mult * s
    parent = LacInterval(D(a), D(a + s), 1, ZERO, None)
    ms = F(2) ** ms_exp
    if ms > s / 4:
        assert sorted_whitney(parent, D(ms)) == ()
        return
    res = sorted_whitney(parent, D(ms))
    spans = sorted(as_pairs(res))
    assert spans[0][0] == a + ms and spans[-1][1] == a + s - ms
    for (l1, r1), (l2, r2) in zip(spans, spans[1:]):
        assert r1 == l2
    assert as_pairs(res) == brute_whitney(a, a + s, ms)
