"""Orlicz machinery: scalar oracles, exact degenerations, norm axioms."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna.orlicz import (
    YoungFunction,
    dyadic_orlicz_maximal,
    exp_norm,
    llogl_avg_equiv,
    luxemburg_avg,
    luxemburg_avg_rows,
)

E = math.e


# -- oracles -------------------------------------------------------------


def scalar_young_root(c: float, sigma: float) -> float:
    """Solve B_sigma(c / lam) = 1 for lam by plain interval halving.

    For a constant function |f| = c the Luxemburg average is exactly this
    root, giving an independent check of the vector bisection.
    """
    B = lambda t: t * math.log(E + t) ** sigma
    lo, hi = 1e-12, max(1.0, 2 * c)
    while B(c / hi) > 1:
        hi *= 2
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if B(c / mid) > 1:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brute_maximal(values: np.ndarray, sigma: float) -> np.ndarray:
    """Ancestor scan, one scalar Luxemburg solve per dyadic block."""
    n = values.size
    out = np.zeros(n)
    for i in range(n):
        best = 0.0
        size = n
        while size >= 1:
            block = (i // size) * size
            best = max(best, luxemburg_avg(values[block : block + size], sigma))
            size //= 2
        out[i] = best
    return out


# -- exact degenerations ---------------------------------------------------


def test_sigma_zero_is_exact_mean():
    rng = np.random.default_rng(7)
    v = rng.exponential(size=257)
    assert luxemburg_avg(v, 0.0) == np.abs(v).mean()


def test_constant_function_matches_scalar_root():
    for c in (0.25, 1.0, 3.5, 100.0):
        for sigma in (0.5, 1.0, 2.0):
            got = luxemburg_avg(np.full(64, c), sigma)
            want = scalar_young_root(c, sigma)
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
    assert np.allclose(B.deriv(t), fd, rtol=1e-6, atol=1e-8)


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


# -- dyadic maximal operator --------------------------------------------------


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_maximal_matches_brute_force(sigma):
    rng = np.random.default_rng(17)
    v = rng.exponential(size=64)
    v[5] = 40.0
    fast = dyadic_orlicz_maximal(v, sigma)
    slow = brute_maximal(v, sigma)
    assert np.allclose(fast, slow, rtol=1e-7, atol=1e-10)


def test_maximal_dominates_function_and_mean():
    rng = np.random.default_rng(19)
    v = rng.exponential(size=256)
    for sigma in (0.0, 0.5):
        m = dyadic_orlicz_maximal(v, sigma)
        leaf = luxemburg_avg_rows(np.abs(v)[:, None], sigma)
        assert np.all(m >= leaf - 1e-12)
        assert np.all(m >= luxemburg_avg(v, sigma) - 1e-12)


@pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
def test_maximal_distributional_bound(sigma):
    # |{M_B f > alpha}| <= int B(|f|/alpha), normalized measure on [0,1]
    rng = np.random.default_rng(23)
    B = YoungFunction(sigma)
    for _ in range(20):
        v = rng.exponential(size=512) * rng.integers(0, 2, size=512)
        if v.max() == 0:
            continue
        m = dyadic_orlicz_maximal(v, sigma)
        for alpha in (0.5, 1.0, 2.0, 4.0):
            lhs = float(np.mean(m > alpha))
            rhs = float(np.mean(B(np.abs(v) / alpha)))
            assert lhs <= rhs * (1 + 1e-9)


def test_rows_solver_agrees_with_scalar():
    rng = np.random.default_rng(29)
    rows = rng.exponential(size=(16, 32))
    got = luxemburg_avg_rows(rows, 1.0)
    want = np.array([luxemburg_avg(r, 1.0) for r in rows])
    assert np.allclose(got, want, rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_non_finite_values_are_rejected(bad, sigma):
    with pytest.raises(ValueError, match="finite"):
        luxemburg_avg([1.0, bad], sigma)
    rows = np.ones((3, 4))
    rows[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        luxemburg_avg_rows(rows, sigma)
