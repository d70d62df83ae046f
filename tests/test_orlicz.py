"""Orlicz machinery: scalar oracles, exact degenerations, norm axioms.

Reference ledger for ``luxemburg_avg``:
- ``test_acceptance._scalar_luxemburg``: gate 05's interval halving on the
  scalar equation ``B(c / lam) = 1``, sharing only ``YoungFunction.__call__``;
  constant functions at four levels and three sigmas, to 1e-8.
- ``bisection_luxemburg``: the bracketed bisection the Newton solve
  replaced, sharing only ``YoungFunction.__call__``; ``newton_inputs`` of
  five kinds at six sigmas and sizes 1 to 2^16, to 1e-9, with the computed
  constraint within ``CONSTRAINT_TOL``.
- ``bracket_probe_luxemburg``: the Newton step on ``mean B - 1``, steered by
  its own pow-form ``mean B'(t) t``, before the solve trusted the bracket
  bound (it doubles the first upper end until the constraint is at most 1,
  and its collapse test underflows where the mean is subnormal).  The solve
  steps on ``log mean B`` instead, so its root moves within the contract:
  on ``normal_range_corpus`` cold and at ``starts_around``, ``newton_inputs``
  with and without zeros at four starts, a start above the root, and every
  warm start of one decomposition solve, the computed constraint is within
  ``CONSTRAINT_TOL`` and the root within ``ROOT_RTOL`` of the pin's.
  ``subnormal_corpus`` roots, cold and at ``0.7 root``, stay bitwise.
- ``m_minus_one_solve``: that step from the solve's own bracket (the pin
  less its probe), which the log-space step replaced.  Each case of
  ``normal_range_corpus`` and ``newton_inputs`` makes no more Young
  evaluations than it, and a small czd ensemble at least 15% fewer; other
  counts are absolute counts of the solve.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna import martingale as mg
from lacuna import orlicz
from lacuna.czd import cz_decompose, young_mass
from lacuna.orlicz import (
    CONSTRAINT_TOL,
    SCREEN_MARGIN,
    YoungFunction,
    exp_norm,
    llogl_avg_equiv,
    luxemburg_avg,
    luxemburg_exceeds,
    luxemburg_solve,
)
from lacuna.spectral import Signal
import test_acceptance

E = math.e


# -- oracles -------------------------------------------------------------


def bisection_luxemburg(values, sigma: float) -> float:
    """The bracketed bisection ``luxemburg_avg`` used before its Newton
    solve: the same bracket and stopping test, midpoint steps only."""
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    mean = float(v.mean())
    if mean == 0.0:
        return 0.0
    B = YoungFunction(sigma)

    def g(lam: float) -> float:
        return float(np.mean(B(v / lam)))

    lo = mean
    hi = mean * max(2.0, math.log(E + float(np.max(v)) / mean) ** sigma)
    while g(hi) > 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = g(mid)
        if abs(val - 1.0) <= CONSTRAINT_TOL:
            return mid
        if val > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def pow_mean_slope(sigma: float, terms: tuple, size: int) -> float:
    """``mean B'(t) t`` as the solve steered before its log-space step, with
    a second pow: ``B'(t) = log(e+t)^sigma + sigma t log(e+t)^(sigma-1) / (e+t)``."""
    t, et, logs, power = terms
    return float(((power + sigma * t * logs ** (sigma - 1) / et) * t).sum()) / size


def m_minus_one_newton(B, v, size, lo, hi, lam, evaluation, floor=0.0) -> tuple:
    """The Newton loop on ``mean B(v/lam) - 1`` from the iterate ``lam`` and its
    evaluation: ``(lam, terms)`` once the constraint is met, else the midpoint
    of the bracket once it is within ``max(1e-15 hi, floor)``, and ``None``."""
    val, terms = evaluation
    for _ in range(200):
        if abs(val - 1.0) <= CONSTRAINT_TOL:
            return lam, terms
        if val > 1.0:
            lo = lam
        else:
            hi = lam
        if hi - lo <= max(1e-15 * hi, floor):
            break
        step = (val - 1.0) / pow_mean_slope(B.sigma, terms, size)
        nxt = lam * math.exp(step) if step < math.log(hi / lam) else hi
        lam = nxt if lo < nxt < hi else 0.5 * (lo + hi)
        val, terms = B.mean_terms(v / lam, size)
    return 0.5 * (lo + hi), None


def bracket_probe_luxemburg(values, sigma: float, start=None) -> float:
    """``luxemburg_avg`` before it trusted the bracket bound: ``hi`` doubles
    until ``mean B(|f|/hi) <= 1`` before the Newton loop on ``mean B - 1``,
    except after a warm start inside the first bracket whose constraint is
    at most ``1 + CONSTRAINT_TOL``, which is evaluated first and is then the
    upper end."""
    B = YoungFunction(sigma)
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    mean = float(v.sum()) / v.size
    if mean == 0.0:
        return 0.0
    if sigma == 0:
        return mean
    lo = mean
    hi = mean * max(2.0, math.log(E + float(v.max()) / mean) ** sigma)
    size = v.size
    v = v if v.all() else v[v != 0]
    inside = start is not None and lo < start < hi
    if inside:
        lam = start
        evaluation = B.mean_terms(v / lam, size)
    if not inside or evaluation[0] - 1.0 > CONSTRAINT_TOL:
        grow = 0
        while B.mean_terms(v / hi, size)[0] > 1.0 and grow < 200:
            hi *= 2.0
            grow += 1
        if not inside:
            lam = start if start is not None and lo < start < hi else 0.5 * (lo + hi)
            evaluation = B.mean_terms(v / lam, size)
    return m_minus_one_newton(B, v, size, lo, hi, lam, evaluation)[0]


def m_minus_one_solve(values, sigma: float, start=None) -> tuple:
    """``luxemburg_solve`` before its log-space step: the same bracket,
    doubling where the mean is subnormal, warm start and collapse test, with
    the Newton loop on ``mean B - 1`` (``orlicz._solve``'s signature)."""
    B = YoungFunction(sigma)
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    mean = float(v.sum()) / v.size
    if mean == 0.0 or sigma == 0:
        return mean, None
    lo = mean
    hi = mean * max(2.0, math.log(E + float(v.max()) / mean) ** sigma)
    size = v.size
    v = v if v.all() else v[v != 0]
    while mean < np.finfo(float).tiny and B.mean_terms(v / hi, size)[0] > 1.0:
        hi *= 2.0
    lam = start if start is not None and lo < start < hi else 0.5 * (lo + hi)
    return m_minus_one_newton(B, v, size, lo, hi, lam, B.mean_terms(v / lam, size),
                              2.0**-1074)


ROOT_RTOL = 2 * CONSTRAINT_TOL  # two roots that both meet the contract, see assert_meets_the_pin


def assert_meets_the_pin(v, sigma, start, got):
    """The solve's root ``got`` from ``start`` has its computed constraint
    within ``CONSTRAINT_TOL`` and lies within ``ROOT_RTOL`` of the pin's.
    ``mean B(|f|/lam)`` falls at least as fast as ``1/lam`` (``B(t)/t``
    increases), so two roots whose constraints both lie within
    ``CONSTRAINT_TOL`` of 1 differ by at most about ``2 CONSTRAINT_TOL``
    relative."""
    want = bracket_probe_luxemburg(v, sigma, start=start)
    assert abs(mean_young(v, sigma, got) - 1.0) <= CONSTRAINT_TOL, (v.size, sigma, start)
    assert abs(got - want) <= ROOT_RTOL * want, (v.size, sigma, start, got, want)


def count_young_calls(monkeypatch, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the number of ``B`` evaluations it made:
    calls of ``YoungFunction.mean_terms``, through which ``luxemburg_avg``,
    ``luxemburg_solve``, ``luxemburg_exceeds`` and the references make every one."""
    calls = []
    real_terms = YoungFunction.mean_terms
    monkeypatch.setattr(YoungFunction, "mean_terms",
                        lambda self, t, size: calls.append(1) or real_terms(self, t, size))
    out = fn(*args, **kwargs)
    monkeypatch.setattr(YoungFunction, "mean_terms", real_terms)
    return out, len(calls)


def newton_inputs(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "normal":
        return rng.standard_normal(n)
    if kind == "spike":
        v = np.zeros(n)
        v[n // 2] = 1e12
        return v
    if kind == "pareto":
        return rng.pareto(1.1, n)
    if kind == "constant":
        return np.full(n, 3.0)
    return rng.random(n) * 1e-300  # "tiny"


# -- exact degenerations ---------------------------------------------------


def test_sigma_zero_is_exact_mean():
    rng = np.random.default_rng(7)
    v = rng.exponential(size=257)
    assert luxemburg_avg(v, 0.0) == np.abs(v).mean()


def test_constant_function_matches_scalar_root():
    for c in (0.25, 1.0, 3.5, 100.0):
        for sigma in (0.5, 1.0, 2.0):
            got = luxemburg_avg(np.full(64, c), sigma)
            # for a constant function |f| = c the Luxemburg average is the root
            want = test_acceptance._scalar_luxemburg(c, sigma)
            assert abs(got - want) <= 1e-8 * want


def test_unit_constant_sigma_one_frozen():
    # lam = 1/t* with t* log(e + t*) = 1; oracle-computed root
    t_star = 1.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.log(E + mid) < 1:
            lo = mid
        else:
            hi = mid
    t_star = 0.5 * (lo + hi)
    got = luxemburg_avg(np.ones(16), 1.0)
    assert abs(got - 1.0 / t_star) <= 1e-8
    # frozen: 1/t* at 30 digits via an independent root finder
    assert abs(got - 1.2567506185377672) <= 1e-6


def test_exp_norm_constant_is_two_to_minus_sigma():
    for sigma in (0.5, 1.0, 1.5):
        assert abs(exp_norm(np.ones(32), sigma) - 2.0**-sigma) <= 1e-12


def test_exp_norm_rejects_sigma_zero():
    with pytest.raises(ValueError):
        exp_norm(np.ones(4), 0.0)


def test_zero_function():
    assert luxemburg_avg(np.zeros(8), 1.0) == 0.0
    assert llogl_avg_equiv(np.zeros(8), 1.0) == 0.0
    assert exp_norm(np.zeros(8), 1.0) == 0.0


# -- norm axioms ------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0.5, 1.0, 1.5]),
    st.floats(min_value=0.01, max_value=50.0),
)
@settings(max_examples=40, deadline=None)
def test_homogeneity(seed, sigma, c):
    rng = np.random.default_rng(seed)
    v = rng.exponential(size=128) + 1e-3
    a = luxemburg_avg(c * v, sigma)
    b = c * luxemburg_avg(v, sigma)
    assert abs(a - b) <= 1e-9 * max(a, b)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=25, deadline=None)
def test_monotone_and_triangle(seed, sigma):
    rng = np.random.default_rng(seed)
    f = rng.exponential(size=256)
    g = rng.exponential(size=256)
    # monotone: |f| <= |f| + |g|
    assert luxemburg_avg(f, sigma) <= luxemburg_avg(f + g, sigma) * (1 + 1e-9)
    # subadditive
    lhs = luxemburg_avg(f + g, sigma)
    rhs = luxemburg_avg(f, sigma) + luxemburg_avg(g, sigma)
    assert lhs <= rhs * (1 + 1e-9)


def test_vector_minkowski_l1_form():
    rng = np.random.default_rng(11)
    fs = rng.exponential(size=(6, 512))
    block = np.sqrt((fs**2).sum(axis=0))
    for sigma in (0.5, 1.0):
        lhs = luxemburg_avg(block, sigma)
        rhs = sum(luxemburg_avg(f, sigma) for f in fs)
        assert lhs <= rhs * (1 + 1e-9)


def test_sigma_monotonicity():
    rng = np.random.default_rng(3)
    v = rng.exponential(size=512)
    a = luxemburg_avg(v, 0.5)
    b = luxemburg_avg(v, 1.0)
    c = luxemburg_avg(v, 1.5)
    assert a <= b * (1 + 1e-9) <= c * (1 + 2e-9)


def test_submultiplicativity_grid():
    # B(st) <= c_sigma B(s) B(t) with c_sigma = 2^sigma, on a 50x50 grid
    grid = np.linspace(0.02, 40.0, 50)
    for sigma in (0.5, 1.0, 1.5):
        B = YoungFunction(sigma)
        s, t = np.meshgrid(grid, grid)
        lhs = B(s * t)
        rhs = B.submult_constant() * B(s) * B(t)
        assert np.all(lhs <= rhs * (1 + 1e-12))


def test_young_derivative_matches_fd():
    B = YoungFunction(1.5)
    t = np.linspace(0.1, 20, 57)
    h = 1e-6
    fd = (B(t + h) - B(t - h)) / (2 * h)
    assert np.allclose(B.slope(B.mean_terms(t, t.size)[1]), fd, rtol=1e-6, atol=1e-8)


# -- equivalent explicit expression -------------------------------------------


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=25, deadline=None)
def test_llogl_equivalence_band(seed, sigma):
    rng = np.random.default_rng(seed)
    v = rng.exponential(size=512) ** 2  # heavyish tail
    lux = luxemburg_avg(v, sigma)
    expl = llogl_avg_equiv(v, sigma)
    # two-sided equivalence with sigma-dependent constants; the band below
    # was measured over 10^4 seeds (max observed ratio 2.9, min 0.52) and
    # widened by 2x
    assert expl <= 6.0 * (1 + sigma) * lux
    assert lux <= 6.0 * (1 + sigma) * expl


# -- exp-norm scan -----------------------------------------------------------


def test_exp_norm_matches_dense_scan():
    rng = np.random.default_rng(5)
    v = rng.exponential(size=1024)
    for sigma in (0.5, 1.0):
        adaptive = exp_norm(v, sigma)
        dense = max(
            p**-sigma * float(np.mean(v**p)) ** (1.0 / p) for p in range(2, 257)
        )
        assert abs(adaptive - dense) <= 1e-9 * dense


def test_exp_norm_dual_pairing_holder():
    # mean |f g| <= C <f>_{B_sigma} expnorm(g, sigma); C measured <= 4 on
    # this ensemble, asserted with slack
    rng = np.random.default_rng(13)
    for sigma in (0.5, 1.0):
        worst = 0.0
        for _ in range(50):
            f = rng.exponential(size=256) ** 1.5
            g = rng.exponential(size=256)
            lhs = float(np.mean(f * g))
            rhs = luxemburg_avg(f, sigma) * exp_norm(g, sigma)
            worst = max(worst, lhs / rhs)
        assert worst <= 8.0


def test_overflowing_bracket_is_a_value_error():
    # log(e + max/mean)^sigma leaves the float range at this sigma
    v = np.random.default_rng(31).random(64) + 0.5
    with pytest.raises(ValueError, match="overflows"):
        luxemburg_avg(v, 50000)


def test_rows_meet_the_constraint_at_large_sigma():
    # a fixed 120-step bisection from the same bracket stops at 1.98e10 on row 0
    rows = np.random.default_rng(31).random((2, 64)) + 0.5
    B = YoungFunction(300)
    lams = [luxemburg_avg(row, 300) for row in rows]
    assert lams[0] == pytest.approx(36.3245, rel=1e-5)
    for row, lam in zip(rows, lams):
        assert abs(float(np.mean(B(row / lam))) - 1.0) <= CONSTRAINT_TOL


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_non_finite_values_are_rejected(bad, sigma):
    with pytest.raises(ValueError, match="finite"):
        luxemburg_avg([1.0, bad], sigma)


# -- the Newton solve against the bisection it replaced ----------------------


@pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0, 1.5, 2.0, 4.0])
@pytest.mark.parametrize("kind", ["normal", "spike", "pareto", "constant", "tiny"])
def test_newton_matches_bisection_reference(sigma, kind):
    rng = np.random.default_rng(int(sigma * 100))
    B = YoungFunction(sigma)
    for n in (1, 2, 3, 64, 1024, 1 << 16):
        v = newton_inputs(kind, n, rng)
        got = luxemburg_avg(v, sigma)
        want = bisection_luxemburg(v, sigma)
        assert abs(got - want) <= 1e-9 * want, (n, got, want)
        assert abs(float(np.mean(B(np.abs(v) / got))) - 1.0) <= CONSTRAINT_TOL


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_warm_start_inside_the_bracket_is_used(sigma, monkeypatch):
    v = np.random.default_rng(3).pareto(1.5, 4096)
    lam = luxemburg_avg(v, sigma)
    # started at its own root: one evaluation, and no doubling probe
    (got, _), calls = count_young_calls(monkeypatch, luxemburg_solve, v, sigma, start=lam)
    assert got == lam
    assert calls == 1
    near = luxemburg_solve(v, sigma, start=lam * (1 + 1e-3))[0]
    assert abs(near - lam) <= 1e-9 * lam


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_start_above_the_root_skips_the_doubling_probe(sigma, monkeypatch):
    # mean B(v / start) < 1 there, so start is the upper end of the bracket
    v = np.random.default_rng(5).pareto(1.5, 4096)
    start = luxemburg_avg(v, sigma) * (1 + 1e-3)
    (got, _), calls = count_young_calls(monkeypatch, luxemburg_solve, v, sigma, start=start)
    assert_meets_the_pin(v, sigma, start, got)
    assert calls == 3


@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_solver_warm_starts_match_the_probing_solve(sigma, monkeypatch):
    # every warm-started solve of one decomposition, replayed through the pin
    calls = []

    def recording(values, s, **kwargs):
        got = luxemburg_solve(values, s, **kwargs)
        if kwargs.get("start") is not None:
            calls.append((np.array(values, dtype=float), s, kwargs["start"], got[0]))
        return got

    n = 1 << 9
    x = -8.0 + (16.0 / n) * np.arange(n)
    vals = np.exp(-(x ** 2)) * np.cos(2 * np.pi * 3 * x) + 0.6 * (np.abs(x) < 0.25)
    monkeypatch.setattr(mg, "luxemburg_solve", recording)
    monkeypatch.setattr(mg, "MAX_ITER", 400)
    mg.decompose_quotient_norm(mg.DyadicFunction(vals), sigma)
    assert len(calls) > 400
    for values, s, start, got in calls:
        assert_meets_the_pin(values, s, start, got)


# -- the solve over the support, on inputs with and without zeros -------------


def assert_pin_at_four_starts(monkeypatch, v, sigma):
    """``luxemburg_solve`` meets the pin (:func:`assert_meets_the_pin`) cold
    and started at, below, above and well above its root, each in no more
    Young evaluations than :func:`m_minus_one_solve`; returns the cold root
    (``luxemburg_avg``)."""
    cold = luxemburg_avg(v, sigma)
    for start in (None, cold, cold * (1 - 1e-3), cold * (1 + 1e-3), cold * 1.5):
        (got, _), calls = count_young_calls(monkeypatch, luxemburg_solve, v, sigma, start=start)
        reference_calls = count_young_calls(monkeypatch, m_minus_one_solve, v, sigma, start)[1]
        assert calls <= reference_calls, (v.size, sigma, start)
        assert_meets_the_pin(v, sigma, start, got)
    return cold


@pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("kind", ["normal", "pareto", "constant", "tiny"])
def test_support_solve_without_zeros_is_the_full_array_solve(sigma, kind, monkeypatch):
    # nothing is filtered, so the sums run over every sample, as the pin's do;
    # over all 20 cases the 600 solves make 1,796 evaluations, the step on
    # mean B - 1 2,147
    rng = np.random.default_rng(int(sigma * 100) + 7)
    for n in (1, 2, 3, 64, 1024, 1 << 14):
        v = newton_inputs(kind, n, rng)
        assert np.all(v != 0)
        assert_pin_at_four_starts(monkeypatch, v, sigma)


@pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("zeros", ["half", "99%", "all-but-one"])
def test_support_solve_with_zeros_matches_the_full_array_solve(sigma, zeros, monkeypatch):
    # the sums skip the zeros, as the pin's do; the root also meets the
    # constraint summed over every sample, zeros included; over all 15 cases
    # the 900 solves make 2,683 evaluations, the step on mean B - 1 3,282
    B = YoungFunction(sigma)
    rng = np.random.default_rng(int(sigma * 100) + 11)
    for n in (2, 64, 1024, 1 << 14):
        for kind in ("normal", "pareto", "tiny"):
            v = newton_inputs(kind, n, rng)
            if zeros == "all-but-one":
                keep = rng.integers(n, size=1)
            else:
                share = 0.5 if zeros == "half" else 0.01
                keep = rng.choice(n, size=max(1, int(share * n)), replace=False)
            sparse = np.zeros(n)
            sparse[keep] = v[keep]
            cold = assert_pin_at_four_starts(monkeypatch, sparse, sigma)
            assert abs(float(np.mean(B(np.abs(sparse) / cold))) - 1.0) <= CONSTRAINT_TOL, (n, kind)


def test_fused_evaluation_is_bitwise_young_and_its_derivative():
    rng = np.random.default_rng(17)
    t = np.concatenate([rng.pareto(1.1, 4096), [0.0, 1e-300, 1e300]])
    for sigma in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0, 300.0):
        B = YoungFunction(sigma)
        with np.errstate(over="ignore"):
            val, terms = B.mean_terms(t, t.size + 5)
            assert val == float(np.sum(B(t))) / (t.size + 5)
            logs = np.log(E + t)
            slope = np.ones_like(t) if sigma == 0 else \
                logs**sigma + sigma * t * logs ** (sigma - 1) / (E + t)
            # the pointwise B' the decomposition solver's gradient reads
            assert np.array_equal(B.slope(terms), slope)


def test_start_outside_the_bracket_takes_the_fallback():
    v = np.random.default_rng(4).exponential(size=2048)
    lo = float(v.mean())
    hi = lo * max(2.0, math.log(E + float(v.max()) / lo))  # g(hi) <= 1 here
    cold = luxemburg_avg(v, 1.0)
    assert lo < cold < hi
    for start in (-1.0, 0.0, 1e-300, lo, hi, 2.0 * hi, 1e300, math.inf, math.nan):
        assert luxemburg_solve(v, 1.0, start=start)[0] == cold, start


# -- the solve from the bracket bound against the probing solve it replaced ---


def first_bracket(v: np.ndarray, sigma: float) -> tuple:
    """The solve's first ``(lo, hi)``: ``hi = mean max(2, log(e + max/mean)^sigma)``."""
    a = np.abs(v)
    mean = float(a.sum()) / a.size
    return mean, mean * max(2.0, math.log(E + float(a.max()) / mean) ** sigma)


def mean_young(v: np.ndarray, sigma: float, lam: float) -> float:
    """The solve's computed ``mean B(|f|/lam)``."""
    a = np.abs(v)
    return YoungFunction(sigma).mean_terms(a[a != 0] / lam, a.size)[0]


def normal_range_corpus():
    """``(values, sigma)`` with a normal-float mean: one spike in 2^j samples
    (max/mean = 2^j up to 2^22) at sigma within 1e-6 of ``log(e + 2^j)^sigma
    = 2``, where the bracket bound is tightest; and the pareto, constant,
    tiny, normal and near-subnormal kinds, also with zeros, at sigma from 1e-3
    to 8."""
    rng = np.random.default_rng(2222)
    for j in (1, 2, 3, 5, 8, 12, 16, 20, 22):
        spike = np.zeros(1 << j)
        spike[rng.integers(1 << j)] = 3.5
        edge = math.log(2.0) / math.log(math.log(E + 2.0**j))
        for sigma in (edge - 1e-6, edge, edge + 1e-6):
            yield spike, sigma
    for sigma in (1e-3, 0.01, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        for kind in ("pareto", "constant", "tiny", "normal", "near-subnormal"):
            for n in (1, 2, 3, 64, 4096):
                if kind == "near-subnormal":  # a mean near 2^-1017, some samples subnormal
                    v = rng.random(n) * 2.0**-1016
                    v[0] = 2.0**-1012
                else:
                    v = newton_inputs(kind, n, rng)
                yield v, sigma
                if n > 1:
                    zeros = v * (rng.random(n) < 0.1)
                    zeros[rng.integers(n)] = v[0]
                    yield zeros, sigma


def subnormal_corpus(draws: int = 16, seed: int = 1074):
    """Integer multiples of 2^-1074 in 1 to 1000 samples, whose computed mean
    can round far enough down that the first upper end is below the root:
    every sorted array of one to three multiples 0..4, and random draws.
    ``1e-15 hi`` underflows here, so the collapse test rests on its floor of
    one subnormal step."""
    tiny = 2.0**-1074
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3):
        for ints in itertools.combinations_with_replacement(range(5), n):
            yield np.array(ints) * tiny
    # the mean 41/30 rounds to 1: without doubling hi, 2^-1073 at sigma 1, not 2^-1072
    found = np.zeros(30)
    found[[5, 10, 21]] = 12, 28, 1
    yield found * tiny
    for _ in range(draws):
        n = int(np.exp(rng.uniform(0.0, math.log(1000.0)))) + 1
        ints = rng.integers(0, int(rng.choice([4, 64, 1 << 20])) + 1, n)
        yield ints * (rng.random(n) < rng.uniform(0.01, 1.0)) * tiny


def starts_around(v, sigma, root):
    """Warm starts at, below and above the root, and outside the first bracket."""
    lo, hi = first_bracket(v, sigma)
    return (root, root * 0.7, root * (1 + 1e-3), 0.5 * lo, 2.0 * hi)


def test_solve_meets_the_probing_solve_in_no_more_evaluations(monkeypatch):
    # every case in no more Young evaluations than the step on mean B - 1
    # from the same bracket: 8,372 against 12,764 over the 2,592 solves (the
    # probing pin makes 14,492)
    seen = calls = reference_calls = 0
    for v, sigma in normal_range_corpus():
        lo, hi = first_bracket(v, sigma)
        assert lo >= np.finfo(float).tiny
        for start in (None,) + starts_around(v, sigma, luxemburg_avg(v, sigma)):
            (got, _), n = count_young_calls(monkeypatch, luxemburg_solve,
                                            v, sigma, start=start)
            reference = count_young_calls(monkeypatch, m_minus_one_solve, v, sigma, start)[1]
            assert_meets_the_pin(v, sigma, start, got)
            assert n <= reference, (v.size, sigma, start)
            calls, reference_calls, seen = calls + n, reference_calls + reference, seen + 1
    assert (seen, calls, reference_calls) == (2592, 8372, 12764)


@pytest.mark.parametrize("sigma", [0.25, 1.0, 2.0, 8.0])
def test_solve_is_the_probing_solve_on_subnormal_multiples(sigma, monkeypatch):
    # the pin's collapse test underflows here; the solve stops one float step
    # wide, and its roots are still the pin's bitwise
    short = calls = 0
    for v in subnormal_corpus():
        root, n = count_young_calls(monkeypatch, luxemburg_avg, v, sigma)
        assert root == bracket_probe_luxemburg(v, sigma), (v, sigma)
        calls += n
        if root == 0.0:  # the mean rounds to zero
            continue
        short += mean_young(v, sigma, first_bracket(v, sigma)[1]) > 1.0
        # below the root: the start the probing solve evaluated before its probe
        start = root * 0.7
        assert luxemburg_solve(v, sigma, start=start)[0] == \
            bracket_probe_luxemburg(v, sigma, start=start), (v, sigma, start)
    # where the probing solve doubled its upper end, e.g. [0, 2, 2] 2^-1074 at sigma 2
    assert short >= (2 if sigma in (1.0, 2.0) else 0)
    # the cold solves' evaluations (the step on mean B - 1 took 170, 167, 198
    # and 491); a collapse test that underflows here takes 11,136 to 12,728
    # per sigma
    assert calls == {0.25: 181, 1.0: 159, 2.0: 208, 8.0: 414}[sigma]


def test_subnormal_solve_stops_one_float_step_wide(monkeypatch):
    # [12, 28, 1] 2^-1074 among 27 zeros: 203 evaluations while 1e-15 hi underflowed
    found = np.zeros(30)
    found[[5, 10, 21]] = 12, 28, 1
    assert bracket_probe_luxemburg(found * 2.0**-1074, 1.0) == 2.0**-1072
    assert count_young_calls(monkeypatch, luxemburg_avg, found * 2.0**-1074, 1.0) == \
        (2.0**-1072, 4)


def test_bracket_bound_at_the_first_upper_end():
    worst = 0.0
    for v, sigma in normal_range_corpus():
        worst = max(worst, mean_young(v, sigma, first_bracket(v, sigma)[1]))
    assert 0.98 < worst <= 0.99


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, -0.5])
def test_bad_sigma_is_rejected(sigma):
    with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
        YoungFunction(sigma)
    for values in ([1.0, 2.0], [0.0, 0.0]):
        with pytest.raises(ValueError, match="sigma"):
            luxemburg_avg(values, sigma)
    with pytest.raises(ValueError, match="sigma"):
        young_mass(Signal(np.ones(16), 2.0, -1.0), sigma, 1.0)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_young_mass_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be finite and positive"):
        young_mass(Signal(np.ones(16), 2.0, -1.0), 1, alpha)


# -- the one-evaluation screen in front of the solve --------------------------

SCREEN_SAMPLES = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=1, max_size=64)


@settings(max_examples=400, deadline=None)
@given(samples=SCREEN_SAMPLES, scale_log2=st.integers(-30, 30),
       sigma=st.floats(0.0, 3.0, exclude_min=True), rel=st.floats(-1e-6, 1e-6),
       start_rel=st.one_of(st.none(), st.floats(-1e-3, 1e-3), st.just("bound")))
def test_screen_never_rejects_a_value_the_solve_would_accept(samples, scale_log2, sigma,
                                                             rel, start_rel):
    # bounds within 1e-6 of the root straddle the margin on either side
    v = np.ldexp(np.array(samples), scale_log2)
    lam = luxemburg_avg(v, sigma)
    bound = lam * (1.0 + rel)
    start = None if start_rel is None else bound if start_rel == "bound" \
        else lam * (1.0 + start_rel)
    exceeds = luxemburg_exceeds(v, sigma, bound)
    if exceeds:
        assert luxemburg_solve(v, sigma, start=start)[0] > bound
    if lam > 0.0 and rel <= -1e-7:
        # B(t)/t increases, so the mass at the bound is at least 1 + 1e-7
        assert exceeds


@pytest.mark.parametrize("sigma", [0.25, 1.0, 3.0])
def test_screen_at_bounds_without_a_positive_root(sigma):
    v = np.random.default_rng(8).exponential(size=64)
    v[::3] = 0.0
    for bound in (0.0, -0.0, -1e-300, -1.0, -math.inf):
        assert luxemburg_exceeds(v, sigma, bound)
        assert luxemburg_avg(v, sigma) > bound
    zeros = np.zeros(16)
    assert not luxemburg_exceeds(zeros, sigma, 0.0)  # the solve returns 0.0 there
    assert luxemburg_exceeds(zeros, sigma, -1.0)
    assert luxemburg_avg(zeros, sigma) == 0.0


@pytest.mark.parametrize("sigma", [0.25, 1.0, 3.0])
@pytest.mark.parametrize("bound", [5e-324, 1e-310, 1e-300])
def test_screen_at_bounds_where_the_ratio_overflows(sigma, bound):
    v = np.random.default_rng(9).exponential(size=64)
    v[::4] = 0.0
    with np.errstate(over="ignore"):
        assert luxemburg_exceeds(v, sigma, bound)
    assert luxemburg_avg(v, sigma) > bound
    for start in (None, 1e-300, luxemburg_avg(v, sigma)):
        assert luxemburg_solve(v, sigma, start=start)[0] > bound


def test_screen_is_one_young_evaluation_with_the_stated_margin(monkeypatch):
    v = np.random.default_rng(10).pareto(1.5, 1024)
    lam = luxemburg_avg(v, 1.0)
    _, calls = count_young_calls(monkeypatch, luxemburg_exceeds, v, 1.0, lam)
    assert calls == 1
    assert CONSTRAINT_TOL * 10 <= SCREEN_MARGIN <= 1e-6
    # at the root itself the mass is 1 up to the solve's tolerance: no claim
    assert not luxemburg_exceeds(v, 1.0, lam)
    assert luxemburg_exceeds(v, 1.0, lam * (1 - 1e-6))


# -- the log-space step against the step on mean B - 1, in a czd ensemble -----

# report fields of cz_decompose read from Luxemburg averages, with the
# relative move two roots within the contract allow: one root, or a square
LUXEMBURG_FIELDS = {"level_average": ROOT_RTOL, "atom_average": ROOT_RTOL,
                    "atom_constant": ROOT_RTOL, "lacunary_constant": ROOT_RTOL,
                    "max_atom_constant": ROOT_RTOL, "atom_weighted_sq": 2 * ROOT_RTOL,
                    "lacunary_vs_atoms": 2 * ROOT_RTOL}


def assert_reports_agree(got, want, key=None):
    """Every leaf of two reports is equal, but the ``LUXEMBURG_FIELDS``,
    which agree to their relative tolerance."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for k in want:
            assert_reports_agree(got[k], want[k], k)
    elif isinstance(want, list):
        assert len(got) == len(want), key
        for g, w in zip(got, want):
            assert_reports_agree(g, w, key)
    elif key in LUXEMBURG_FIELDS:
        assert abs(got - want) <= LUXEMBURG_FIELDS[key] * abs(want), (key, got, want)
    else:
        assert got == want, (key, got, want)


def test_czd_ensemble_makes_fewer_young_evaluations(monkeypatch):
    # gate 06's spiky members at 2^12, sigma 1 and 2, each at alpha 1.5 times
    # its Luxemburg average; both runs take the same alphas.  264 evaluations
    # against 339
    rng = np.random.default_rng(3107)
    members = []
    for i in range(12):
        sig = test_acceptance._terms_signal(test_acceptance._spiky_terms(rng), 12)
        sigma = 1 + i % 2
        members.append((sig, sigma, 1.5 * luxemburg_avg(np.abs(sig.samples), sigma / 2)))

    def reports():
        return [cz_decompose(sig, sigma, alpha).to_json_dict()
                for sig, sigma, alpha in members]

    got, calls = count_young_calls(monkeypatch, reports)
    monkeypatch.setattr(orlicz, "_solve", m_minus_one_solve)
    want, reference_calls = count_young_calls(monkeypatch, reports)
    assert calls <= 0.85 * reference_calls, (calls, reference_calls)
    assert_reports_agree(got, want)
