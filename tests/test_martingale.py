"""Tests for the dyadic martingale calculus and the decomposition solver.

Oracles: conditional expectations recomputed by literal per-cell loops, the
sub-Gaussian tail bound for sign martingales, and finite differences for the
solver's implicit Luxemburg gradient.

Reference ledger:
- ``brute_expectation``: per-cell means by explicit Python loops; ``_ek`` at
  levels 0-6 of 2^6 functions and the square function at 2^4, to 1e-13.
- ``reference_project``: the projection as a block mean per row, the one
  past version kept; ``project_to_constraint`` at 2^0 and 2^12, scales 1e-3
  and 1e3, to 1e-15 of the peak (a ``_dk`` loop checks 2^0 to 2^12 alike).
- ``reference_reduceat_project``: the projection before it summed the
  half-blocks of at most 4 samples with strided adds, one
  ``np.add.reduceat`` over every half-block of every row;
  ``project_to_constraint`` at 2^0 to 2^12 with 1, J - 1 and J + 1 rows, on
  random exponents up to +-300 with +-0.0 entries and at peaks 2^+-400,
  bitwise.
- ``reference_solve``: the solver loop before its state buffers, with B'
  written out in its two-sum form, kept until the solver's stop rule
  changes; the 16 gate 08 inputs and the rough input capped at 1000
  iterations (solved once per module, ``screened_solves``), objectives to
  1e-5, iterations within 5, residuals to 1e-10.  The same solves are
  compared bitwise, with their Luxemburg solve counts, against a run whose
  screen never answers.
- ``inline_gradient``: the gradient before ``QuotientOracle`` read B' from
  the accepted solve's evaluation (``B'(agg / value)`` taken afresh); the
  oracle's gradient at every accepted iterate of the first gate 08 input,
  sigma 0 and 1, bitwise.

The oracle's solves and screen, which read ``G`` as its own magnitudes and
evaluate in the oracle's work area, are compared bitwise with the public
``luxemburg_solve`` and ``luxemburg_exceeds`` on the gate 08 aggregates.
"""

import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna import martingale as mg
from lacuna import orlicz
from lacuna.orlicz import YoungFunction, luxemburg_avg, luxemburg_exceeds, luxemburg_solve
from lacuna.spectral import Signal
import test_acceptance


def brute_expectation(values, k):
    """Per-cell mean by explicit loops (no reshape tricks)."""
    n = len(values)
    cells = 2**k
    block = n // cells
    out = np.empty(n)
    for c in range(cells):
        total = 0.0
        for i in range(block):
            total += values[c * block + i]
        out[c * block : (c + 1) * block] = total / block
    return out


def haar_at(j, level, cell=0):
    """The +-1 Haar pattern on one level-(level-1) cell, zero elsewhere."""
    n = 1 << j
    vals = np.zeros(n)
    block = n >> (level - 1)
    lo = cell * block
    vals[lo : lo + block // 2] = 1.0
    vals[lo + block // 2 : lo + block] = -1.0
    return mg.DyadicFunction(vals)


def random_function(j, seed=0):
    rng = np.random.default_rng(seed)
    return mg.DyadicFunction(rng.standard_normal(1 << j))


class TestExpectation:
    def test_level_zero_is_mean(self):
        f = random_function(5)
        e0 = mg._ek(f.samples, 0)
        assert np.allclose(e0, np.mean(f.samples), atol=1e-14)

    def test_top_level_is_identity(self):
        f = random_function(5)
        assert np.array_equal(mg._ek(f.samples, 5), f.samples)

    @pytest.mark.parametrize("k", range(7))
    def test_matches_brute_loops(self, k):
        f = random_function(6, seed=k)
        fast = mg._ek(f.samples, k)
        assert np.max(np.abs(fast - brute_expectation(f.samples, k))) < 1e-13

    def test_idempotent(self):
        f = random_function(6)
        once = mg._ek(f.samples, 3)
        assert np.array_equal(mg._ek(once, 3), once)

    @given(
        j=st.integers(min_value=0, max_value=6),
        k=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_tower_property(self, j, k, seed):
        f = random_function(6, seed=seed)
        nested = mg._ek(mg._ek(f.samples, k), j)
        direct = mg._ek(f.samples, min(j, k))
        assert np.max(np.abs(nested - direct)) < 1e-13

    def test_out_of_range(self):
        f = random_function(4)
        with pytest.raises(ValueError):
            mg._ek(f.samples, 5)
        with pytest.raises(ValueError):
            mg._ek(f.samples, -1)

    def test_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            mg.DyadicFunction(np.zeros(12))


class TestDyadicFunction:
    def test_is_a_float_signal_of_period_one(self):
        vals = np.arange(8)
        f = mg.DyadicFunction(vals)
        assert isinstance(f, Signal)
        assert f.samples.dtype == np.float64 and not f.samples.flags.writeable
        assert (f.period, f.offset, f.log2_n) == (1.0, 0.0, 3)
        assert np.array_equal(f.samples, vals)

    def test_complex_samples_keep_their_real_part(self):
        with pytest.warns(np.exceptions.ComplexWarning):
            f = mg.DyadicFunction(np.array([1 + 2j, -3j, 0.5, 4]))
        assert f.samples.tolist() == [1.0, 0.0, 0.5, 4.0]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_samples_are_rejected(self, bad):
        # cww_check read [inf, 0, 1, 2] as lhs = rhs = ratio = 0.0, and the
        # solver named a nan peak as out of range
        with pytest.raises(ValueError, match="samples must be finite"):
            mg.cww_check(mg.DyadicFunction([bad, 0.0, 1.0, 2.0]), 1)
        with pytest.raises(ValueError, match="samples must be finite"):
            mg.decompose_quotient_norm(mg.DyadicFunction([0.0, 1.0, bad, 2.0]), 1.0)


class TestDifference:
    def test_level_zero_difference_is_mean(self):
        f = random_function(4)
        assert np.array_equal(mg._dk(f.samples, 0), mg._ek(f.samples, 0))

    def test_haar_is_eigenfunction(self):
        h = haar_at(5, level=3, cell=2)
        assert np.array_equal(mg._dk(h.samples, 3), h.samples)
        for k in [0, 1, 2, 4, 5]:
            assert np.max(np.abs(mg._dk(h.samples, k))) < 1e-14

    def test_telescoping(self):
        f = random_function(6, seed=9)
        total = sum(mg._dk(f.samples, k) for k in range(7))
        assert np.max(np.abs(total - f.samples)) < 1e-13

    def test_difference_idempotent(self):
        f = random_function(6, seed=4)
        d = mg._dk(f.samples, 4)
        assert np.max(np.abs(mg._dk(d, 4) - d)) < 1e-14

    def test_levels_orthogonal(self):
        f = random_function(6, seed=5)
        g = random_function(6, seed=6)
        for j in range(7):
            for k in range(7):
                if j == k:
                    continue
                inner = np.mean(mg._dk(f.samples, j) * mg._dk(g.samples, k))
                assert abs(inner) < 1e-14

    def test_martingale_property(self):
        f = random_function(7, seed=7)
        for k in range(1, 8):
            d = mg._dk(f.samples, k)
            prev = mg._ek(d, k - 1)
            assert np.max(np.abs(prev)) < 1e-13

class TestSquareFunction:
    def test_single_haar_gives_one(self):
        f = mg.DyadicFunction(np.repeat([1.0, -1.0], 8))
        s = mg.martingale_square_function(f)
        assert np.allclose(s.samples, 1.0, atol=1e-14)

    def test_energy_identity(self):
        f = random_function(7, seed=13)
        s = mg.martingale_square_function(f)
        lhs = np.mean(s.samples**2)
        centered = f.samples - mg._ek(f.samples, 0)
        assert math.isclose(lhs, float(np.mean(centered**2)), rel_tol=1e-12)

    def test_matches_direct_level_sum(self):
        f = random_function(4, seed=14)
        acc = np.zeros(f.n)
        for k in range(1, 5):
            ek = brute_expectation(f.samples, k)
            ekm = brute_expectation(f.samples, k - 1)
            acc += (ek - ekm) ** 2
        assert np.max(np.abs(mg.martingale_square_function(f).samples - np.sqrt(acc))) < 1e-13


class TestSignMartingales:
    def test_unit_square_function(self):
        rng = np.random.default_rng(21)
        vals = mg.random_sign_martingale(8, rng)
        f = mg.DyadicFunction(vals)
        s = mg.martingale_square_function(f)
        assert np.max(np.abs(s.samples - 1.0)) < 1e-12
        assert abs(np.mean(vals)) < 1e-12

    def test_level_increments_have_exact_magnitude(self):
        rng = np.random.default_rng(22)
        weights = np.array([0.5, 0.25, 0.8])
        f = mg.DyadicFunction(mg.random_sign_martingale(3, rng, weights))
        for k in range(1, 4):
            d = mg._dk(f.samples, k)
            assert np.max(np.abs(np.abs(d) - weights[k - 1])) < 1e-12

    def test_batch_shape(self):
        rng = np.random.default_rng(23)
        batch = mg.random_sign_martingale(6, rng, count=10)
        assert batch.shape == (10, 64)

    def test_azuma_tails_hold_for_every_draw(self):
        rng = np.random.default_rng(24)
        batch = mg.random_sign_martingale(10, rng, count=50)
        for lam in (0.5, 1.0, 2.0, 3.0):
            bound = mg.azuma_tail_bound(lam)
            for row in batch:
                assert mg.tail_measure(row, lam) <= bound + 1e-12

    def test_tail_near_equality_at_unit_level(self):
        # one +-1 level: |f| = 1 a.e., so the tail at 0.99 is everything
        f = np.repeat([1.0, -1.0], 8)
        assert mg.tail_measure(f, 0.99) == 1.0
        assert mg.tail_measure(f, 0.99) / mg.azuma_tail_bound(0.99) > 0.5
        assert mg.tail_measure(f, 1.01) == 0.0


class TestCwwCheck:
    def test_constant_function(self):
        f = mg.DyadicFunction(np.full(16, 3.5))
        out = mg.cww_check(f, 0)
        assert out["lhs"] == 0.0
        assert out["ratio"] == 0.0

    def test_sigma_zero_uses_sup_of_square_function(self):
        rng = np.random.default_rng(31)
        f = mg.DyadicFunction(mg.random_sign_martingale(8, rng))
        out = mg.cww_check(f, 0)
        assert out["rhs"] == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < out["ratio"] < 10.0

    def test_ratios_finite_across_sigma(self):
        f = random_function(8, seed=32)
        for sigma in (0, 0.5, 1.0, 2.0):
            out = mg.cww_check(f, sigma)
            assert np.isfinite(out["ratio"])
            assert out["lhs"] > 0
        with pytest.raises(ValueError):
            mg.cww_check(f, -1)


class TestConstraintProjection:
    def test_projection_feasible_and_idempotent(self):
        rng = np.random.default_rng(41)
        psi = rng.standard_normal((6, 32))
        proj = mg.project_to_constraint(psi)
        for k in range(6):
            assert np.max(np.abs(mg._dk(proj[k], k))) < 1e-13
        again = mg.project_to_constraint(proj)
        assert np.max(np.abs(again - proj)) < 1e-13

    def test_projection_linear(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((5, 16))
        b = rng.standard_normal((5, 16))
        lhs = mg.project_to_constraint(a + 2.0 * b)
        rhs = mg.project_to_constraint(a) + 2.0 * mg.project_to_constraint(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    @pytest.mark.parametrize("j", range(13))
    def test_one_pass_projection_matches_difference_loop(self, j):
        # the reference subtracts D_k of row k level by level
        rng = np.random.default_rng(100 + j)
        psi = rng.standard_normal((j + 1, 1 << j)) * 10.0 ** rng.uniform(-3, 3)
        want = psi.copy()
        for k in range(j + 1):
            want[k] -= mg._dk(want[k], k)
        got = mg.project_to_constraint(psi)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(psi))

    @pytest.mark.parametrize("j", [0, 12])
    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_one_pass_projection_at_fixed_magnitudes(self, j, scale):
        rng = np.random.default_rng(200 + j)
        psi = rng.standard_normal((j + 1, 1 << j)) * scale
        want = psi.copy()
        for k in range(j + 1):
            want[k] -= mg._dk(want[k], k)
        got = mg.project_to_constraint(psi)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(psi))
        assert np.max(np.abs(got - reference_project(psi))) <= 1e-15 * np.max(np.abs(psi))

    @pytest.mark.parametrize("j", range(13))
    def test_projection_is_the_all_rows_reduceat_bitwise(self, j):
        # the short half-blocks are summed in reduceat's own order
        rng = np.random.default_rng(300 + j)
        for rows in sorted({1, max(j - 1, 1), j + 1}):
            shape = (rows, 1 << j)
            psi = rng.standard_normal(shape) * np.ldexp(1.0, rng.integers(-300, 301, shape))
            psi[rng.random(shape) < 0.2] = 0.0
            psi[rng.random(shape) < 0.2] = -0.0
            normal = rng.standard_normal(shape)
            for x in (psi, normal * (2.0**400 / np.max(np.abs(normal))),
                      normal * (2.0**-400 / np.max(np.abs(normal)))):
                got, want = mg.project_to_constraint(x), reference_reduceat_project(x)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (j, rows)

    @pytest.mark.parametrize("shape", [(5, 4), (3, 6), (0, 4), (1, 0), (4,), (2, 2, 2)])
    def test_shapes_it_cannot_project_are_rejected_before_any_arithmetic(self, shape):
        # (5, 4) used to warn of a division by zero, then fail in a reshape
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"cannot project an array of shape"):
                mg.project_to_constraint(np.ones(shape))


def gate08_inputs():
    """The 16 gate 08 solves as (sigma, samples), from the gate's own
    generator: four functions per sigma drawn from seed 2026, each at 2^10
    and 2^12."""
    rng = np.random.default_rng(2026)
    for sigma in (0.0, 1.0):
        for _ in range(4):
            terms = test_acceptance._smooth_terms(rng)
            for log2_n in (10, 12):
                yield sigma, test_acceptance._unit_values(terms, log2_n)


def gate08_values(log2_n: int = 10) -> np.ndarray:
    """The first gate 08 input at 2^10, or its function sampled at 2^log2_n."""
    terms = test_acceptance._smooth_terms(np.random.default_rng(2026))
    return test_acceptance._unit_values(terms, log2_n)


def rough_values(log2_n: int = 8) -> np.ndarray:
    """A Gaussian-modulated cosine plus a jump (the command-line fixture's
    shape), which the solver runs to its iteration cap."""
    n = 1 << log2_n
    x = -8.0 + (16.0 / n) * np.arange(n)
    return np.exp(-(x ** 2)) * np.cos(2 * np.pi * 3 * x) + 0.6 * (np.abs(x) < 0.25)


def reference_project(psi):
    """The projection before its one-pass form: a block mean per row."""
    out = psi.copy()
    out[0] -= out[0].mean()
    n = psi.shape[-1]
    for k in range(1, psi.shape[0]):
        halves = out[k].reshape(1 << (k - 1), 2, n >> k)
        means = halves.mean(axis=-1)
        half_gap = 0.5 * (means[:, 0] - means[:, 1])
        halves[:, 0] -= half_gap[:, None]
        halves[:, 1] += half_gap[:, None]
    return out


def reference_reduceat_project(psi):
    """The projection before its strided short half-blocks: one
    ``np.add.reduceat`` over every half-block of every row, in heap order."""
    rows, n = psi.shape
    block = np.arange(1, 1 << rows)
    level = np.frexp(block)[1] - 1
    length = n >> level
    starts = level * n + (block - (1 << level)) * length
    shift = np.add.reduceat(psi.ravel(), starts) / length.astype(float)
    half_gap = 0.5 * (shift[1::2] - shift[2::2])
    shift[1::2] = half_gap
    np.negative(half_gap, out=shift[2::2])
    return psi - np.repeat(shift, length).reshape(psi.shape)


def two_sum_slope(u, s):
    """``B_s'(u) = log(e + u)^s + s u log(e + u)^(s - 1) / (e + u)``, 1 at s = 0."""
    logs = np.log(math.e + u)
    return np.ones_like(u) if s == 0 else logs**s + s * u * logs ** (s - 1) / (math.e + u)


def inline_gradient(oracle, fk, agg, lam):
    """The oracle's gradient as it was before it read B' from the solve."""
    u = agg / lam
    bp = two_sum_slope(u, oracle.young.sigma)
    return fk * (bp / float((bp * u).sum()) / agg)


def reference_solve(f, sigma):
    """The solver loop before its state buffers: psi is the state, every
    candidate and gradient a fresh array, the projection a block mean per
    row, on the solver's schedule constants as they stand at the call.
    Returns (objective, iterations, constraint residual)."""
    j = f.log2_n
    diffs = np.stack([mg._dk(f.samples, k) for k in range(j + 1)])
    eps = mg.EPS_SCALE * math.sqrt(float(np.mean(f.samples**2)))

    def smoothed(psi, start=None):
        g = np.sqrt(np.sum((diffs + psi) ** 2, axis=0) + eps**2)
        return g, luxemburg_solve(g, sigma / 2, start=start)[0]

    def gradient(psi, g, lam):
        u = g / lam
        bp = two_sum_slope(u, sigma / 2)
        weights = bp / float(np.sum(bp * u))
        return reference_project((diffs + psi) * (weights / g))

    psi = np.zeros_like(diffs)
    agg, current = smoothed(psi)
    trace = [current]
    step = mg.INIT_STEP
    iterations = 0
    for iterations in range(1, mg.MAX_ITER + 1):
        grad = gradient(psi, agg, current)
        gnorm2 = float(np.sum(grad**2))
        if gnorm2 == 0.0:
            break
        accepted = False
        while step > 1e-18:
            cand = psi - step * grad
            cand_agg, value = smoothed(cand, start=current)
            if value <= current - mg.ARMIJO * step * gnorm2:
                accepted = True
                break
            step *= mg.SHRINK
        if not accepted:
            break
        psi, agg, current = cand, cand_agg, value
        trace.append(current)
        step *= mg.GROW
        if len(trace) > mg.PATIENCE:
            past = trace[-mg.PATIENCE - 1]
            if past - current < mg.REL_TOL * max(past, 1e-300):
                break
    psi = reference_project(psi)
    objective = luxemburg_avg(np.sqrt(np.sum((diffs + psi) ** 2, axis=0)), sigma / 2)
    residual = max(float(np.max(np.abs(mg._dk(psi[k], k)))) for k in range(j + 1))
    return objective, iterations, residual


def counted_solve(f, sigma):
    """``decompose_quotient_norm(f, sigma)`` and its number of Luxemburg solves
    in the iteration (the certificate's are not counted)."""
    calls = []

    def counting(values, s, **kwargs):
        calls.append(1)
        return luxemburg_solve(values, s, **kwargs)

    real = mg.luxemburg_solve
    mg.luxemburg_solve = counting
    try:
        out = mg.decompose_quotient_norm(f, sigma)
    finally:
        mg.luxemburg_solve = real
    return out, len(calls)


def report_bytes(out):
    """Every output of one solve as exact bytes."""
    cert = repr(sorted(out.certificate.items()))
    return np.array(out.trace).tobytes(), out.f_k.tobytes(), out.iterations, cert


# the rough input runs to a cap of 1000 iterations, not 5000, to keep its
# solves under a second
CAPS = {"gate08": None, "rough": 1000}


@pytest.fixture(scope="module")
def screened_solves():
    """The solve of every gate 08 input and of the rough input, once per
    module: ``{case: [(sigma, samples, result, Luxemburg solves)]}``."""
    inputs = {"gate08": list(gate08_inputs()), "rough": [(1.0, rough_values())]}
    solves = {}
    for case, cap in CAPS.items():
        with pytest.MonkeyPatch.context() as mp:
            if cap:
                mp.setattr(mg, "MAX_ITER", cap)
            solves[case] = [(sigma, vals, *counted_solve(mg.DyadicFunction(vals), sigma))
                            for sigma, vals in inputs[case]]
    return solves


class TestDecompositionSolver:
    @pytest.mark.parametrize("case", ["gate08", "rough"])
    def test_matches_the_reference_loop(self, case, screened_solves, monkeypatch):
        if CAPS[case]:
            monkeypatch.setattr(mg, "MAX_ITER", CAPS[case])
        for sigma, vals, out, _ in screened_solves[case]:
            want, want_iters, want_residual = reference_solve(mg.DyadicFunction(vals), sigma)
            assert abs(out.objective - want) <= 1e-5 * want
            assert abs(out.iterations - want_iters) <= 5
            assert out.certificate["constraint_residual"] <= 1e-10
            assert want_residual <= 1e-10
        if case == "rough":
            assert out.iterations == want_iters == 1000

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
    def test_out_of_range_magnitudes_are_rejected(self, scale):
        # the squares under- or overflow out there: 1e-300 used to report a
        # zero objective after no iterations, 1e160 an unrelated finiteness error
        f = mg.DyadicFunction(gate08_values(6) * scale)
        with pytest.raises(ValueError, match=r"max\|f\| = .* outside \[2\^-400, 2\^400\]"):
            mg.decompose_quotient_norm(f, 1.0)

    @pytest.mark.parametrize("peak", [2.0**-400, 2.0**400])
    def test_range_ends_are_accepted(self, peak):
        vals = gate08_values(6)
        vals *= peak / np.max(np.abs(vals))
        out = mg.decompose_quotient_norm(mg.DyadicFunction(vals), 1.0)
        assert math.isfinite(out.objective) and 0.0 < out.objective <= out.baseline

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_no_luxemburg_solve_is_repeated(self, monkeypatch, sigma):
        # the accepted line-search solve is handed on to the gradient, so
        # no two consecutive solves see the same aggregate
        seen = []

        def recording(values, s, **kwargs):
            seen.append(np.array(values, dtype=float))
            return luxemburg_solve(values, s, **kwargs)

        monkeypatch.setattr(mg, "luxemburg_solve", recording)
        out = mg.decompose_quotient_norm(mg.DyadicFunction(gate08_values()), sigma)
        assert out.iterations > 10
        assert len(seen) > out.iterations
        for a, b in zip(seen, seen[1:]):
            assert a.shape != b.shape or not np.array_equal(a, b)

    def test_single_haar_keeps_zero_perturbation(self):
        f = haar_at(4, level=2)
        out = mg.decompose_quotient_norm(f, sigma=1.0)
        assert out.converged
        assert np.max(np.abs(out.psi)) < 1e-12
        assert out.objective == pytest.approx(out.baseline, rel=1e-12)
        assert out.objective == pytest.approx(
            luxemburg_avg(np.abs(f.samples), 0.5), rel=1e-9
        )

    def test_constant_function_stays_on_level_zero(self):
        f = mg.DyadicFunction(np.full(16, 2.0))
        out = mg.decompose_quotient_norm(f, sigma=1.0)
        assert np.max(np.abs(out.f_k[1:])) < 1e-12
        assert out.objective == pytest.approx(out.baseline, rel=1e-12)

    def test_zero_function(self):
        f = mg.DyadicFunction(np.zeros(16))
        out = mg.decompose_quotient_norm(f, sigma=0.0)
        assert out.objective == 0.0
        assert out.converged

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_zero_input_certificate_has_every_key(self, sigma):
        # zero input goes through the same certificate as any other input
        zero = mg.decompose_quotient_norm(mg.DyadicFunction(np.zeros(16)), sigma)
        other = mg.decompose_quotient_norm(random_function(4, seed=60), sigma)
        assert zero.certificate.keys() == other.certificate.keys()
        assert zero.certificate["rhs_norm"] == 0.0
        assert (zero.iterations, zero.converged, zero.trace) == (0, True, [0.0])
        assert not zero.f_k.any() and not zero.psi.any()

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_contract_on_random_functions(self, sigma):
        f = random_function(8, seed=50 + int(sigma))
        out = mg.decompose_quotient_norm(f, sigma=sigma)
        assert out.certificate["constraint_residual"] < 1e-10
        assert out.objective <= out.baseline + 1e-9
        # levels of f are preserved: D_k f_k = D_k f
        for k in range(f.log2_n + 1):
            lhs = mg._dk(out.f_k[k], k)
            rhs = mg._dk(f.samples, k)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_trace_monotone(self):
        f = random_function(7, seed=51)
        out = mg.decompose_quotient_norm(f, sigma=0.5)
        trace = np.asarray(out.trace)
        assert np.all(np.diff(trace) <= 1e-15)

    def test_nonconvergence_reported(self, monkeypatch):
        monkeypatch.setattr(mg, "MAX_ITER", 2)
        f = random_function(8, seed=52)
        out = mg.decompose_quotient_norm(f, sigma=1.0)
        assert not out.converged
        assert out.iterations == 2

    def test_certificate_is_json_ready(self):
        f = random_function(6, seed=53)
        out = mg.decompose_quotient_norm(f, sigma=0.0)
        text = json.dumps(out.certificate)
        assert "constraint_residual" in json.loads(text)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(54)
        f = random_function(3, seed=55)
        oracle = mg.QuotientOracle(f, 1.0)

        def aggregate(psi):
            return oracle.aggregate(oracle.diffs + psi, np.empty(f.n))

        def smoothed(psi):
            return oracle.value(aggregate(psi))[0]

        psi = mg.project_to_constraint(rng.standard_normal(oracle.diffs.shape) * 0.3)
        agg = aggregate(psi)
        grad = mg.project_to_constraint(
            oracle.gradient(oracle.diffs + psi, agg, *oracle.value(agg)))
        for _ in range(4):
            direction = mg.project_to_constraint(rng.standard_normal(oracle.diffs.shape))
            h = 1e-5
            fd = (smoothed(psi + h * direction) - smoothed(psi - h * direction)) / (
                2 * h
            )
            dot = float(np.sum(grad * direction))
            assert fd == pytest.approx(dot, rel=2e-3, abs=1e-8)

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_gradient_is_the_inline_formula_at_every_accepted_iterate(self, sigma,
                                                                      monkeypatch):
        # B' comes from the accepted solve's evaluation: no Young evaluation
        # runs outside the solves and the screen
        active, outside, checked = [], [], []

        def inside(fn):
            def wrapped(*args, **kwargs):
                active.append(fn)
                try:
                    return fn(*args, **kwargs)
                finally:
                    active.pop()
            return wrapped

        for name in ("luxemburg_solve", "luxemburg_exceeds", "luxemburg_avg"):
            monkeypatch.setattr(mg, name, inside(getattr(mg, name)))
        real_terms = YoungFunction.mean_terms
        monkeypatch.setattr(YoungFunction, "mean_terms", lambda self, *args, **kwargs: (
            outside.append(not active) or real_terms(self, *args, **kwargs)))
        real_gradient = mg.QuotientOracle.gradient

        def checking(oracle, fk, agg, lam, terms):
            got = real_gradient(oracle, fk, agg, lam, terms)
            assert np.array_equal(got, inline_gradient(oracle, fk, agg, lam))
            checked.append(1)
            return got

        monkeypatch.setattr(mg.QuotientOracle, "gradient", checking)
        out = mg.decompose_quotient_norm(mg.DyadicFunction(gate08_values()), sigma)
        assert len(checked) == out.iterations > 10
        assert not any(outside) and (sigma == 0 or len(outside) > out.iterations)

    def test_objective_convex_along_segments(self):
        rng = np.random.default_rng(56)
        f = random_function(5, seed=57)
        j = f.log2_n
        diffs = np.stack([mg._dk(f.samples, k) for k in range(j + 1)])

        def objective(psi):
            return luxemburg_avg(np.sqrt(np.sum((diffs + psi) ** 2, axis=0)), 0.5)

        for _ in range(5):
            a = mg.project_to_constraint(rng.standard_normal(diffs.shape))
            b = mg.project_to_constraint(rng.standard_normal(diffs.shape))
            fa, fb = objective(a), objective(b)
            for t in (0.25, 0.5, 0.75):
                mid = objective(t * a + (1 - t) * b)
                assert mid <= t * fa + (1 - t) * fb + 1e-10

    def test_refinement_ratio_smoke(self):
        # same Haar data seen at J and J+2 produce comparable objectives
        rng = np.random.default_rng(58)
        fine = mg.DyadicFunction(mg.random_sign_martingale(8, rng))
        coarse = mg.DyadicFunction(mg._ek(fine.samples, 6)[::4])
        ratios = []
        for f in (coarse, fine):
            out = mg.decompose_quotient_norm(f, sigma=0.0)
            rhs = luxemburg_avg(np.abs(f.samples), 0.5)
            ratios.append(out.objective / rhs)
        assert 0.5 <= ratios[1] / ratios[0] <= 2.0


class TestScreenedLineSearch:
    @pytest.mark.parametrize("case", ["gate08", "rough"])
    def test_screen_leaves_every_output_bitwise_unchanged(self, case, screened_solves,
                                                          monkeypatch):
        # with the screen answering False every trial is solved, as before it
        if CAPS[case]:
            monkeypatch.setattr(mg, "MAX_ITER", CAPS[case])
        monkeypatch.setattr(mg, "luxemburg_exceeds", lambda values, s, bound, **kwargs: False)
        totals = np.zeros(2)
        for sigma, vals, screened, got_calls in screened_solves[case]:
            solved, want_calls = counted_solve(mg.DyadicFunction(vals), sigma)
            assert report_bytes(screened) == report_bytes(solved)
            if sigma > 0:
                assert got_calls < want_calls
                totals += got_calls, want_calls
            else:
                assert got_calls == want_calls
        # the first trial, at the grown step, is almost always rejected
        assert totals[0] < 0.75 * totals[1]
        if case == "rough":
            assert screened.iterations == 1000

    def test_screen_runs_once_per_iteration_at_positive_sigma(self, monkeypatch):
        seen = []
        real = mg.luxemburg_exceeds
        monkeypatch.setattr(mg, "luxemburg_exceeds",
                            lambda *args, **kwargs: seen.append(1) or real(*args, **kwargs))
        out = mg.decompose_quotient_norm(mg.DyadicFunction(gate08_values()), 1.0)
        assert len(seen) == out.iterations
        seen.clear()
        mg.decompose_quotient_norm(mg.DyadicFunction(gate08_values()), 0.0)
        assert seen == []


class TestOracleWork:
    def test_oracle_solves_and_screens_are_the_public_calls_bitwise(self):
        # G read as its own magnitudes in the oracle's work area, against the
        # calls that take moduli and allocate, on the gate 08 aggregates
        verdicts = set()
        for sigma, vals in gate08_inputs():
            oracle = mg.QuotientOracle(mg.DyadicFunction(vals), sigma)
            agg = oracle.aggregate(oracle.diffs, np.empty(vals.size))
            for start in (None, 1.01 * luxemburg_avg(agg, sigma / 2)):
                lam, terms = oracle.value(agg, start)
                got = lam.hex(), [a.tobytes() for a in terms or ()]
                want = luxemburg_solve(agg, sigma / 2, start=start)
                assert got == (want[0].hex(), [a.tobytes() for a in want[1] or ()])
                assert (terms is None) == (want[1] is None) == (sigma == 0)
            for bound in (-1.0, 0.0, 0.5 * lam, lam * (1 - 1e-6), lam * (1 - 1e-9), lam,
                          2.0 * lam):
                verdict = oracle.exceeds(agg, bound)
                assert verdict == luxemburg_exceeds(agg, sigma / 2, bound), (sigma, bound)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_rough_iteration_copies_nothing_and_sums_short_blocks_in_place(self,
                                                                           monkeypatch):
        # per iteration at 2^11 (12 rows): no orlicz._magnitudes copy and no
        # YoungFunction built (about 2 of each at the parent), and 511
        # reduceat segments a projection (4,095 at the parent)
        monkeypatch.setattr(mg, "MAX_ITER", 200)
        counts, segments = Counter(), []
        real_magnitudes, real_post_init = orlicz._magnitudes, YoungFunction.__post_init__
        real_blocks = mg._half_blocks
        monkeypatch.setattr(orlicz, "_magnitudes", lambda values: (
            counts.update(["magnitudes"]) or real_magnitudes(values)))
        monkeypatch.setattr(YoungFunction, "__post_init__", lambda self: (
            counts.update(["young"]) or real_post_init(self)))
        monkeypatch.setattr(mg, "_half_blocks", lambda rows, n: (
            segments.append(real_blocks(rows, n)[0].size) or real_blocks(rows, n)))
        out = mg.decompose_quotient_norm(mg.DyadicFunction(rough_values(11)), 1.0)
        assert out.iterations == 200 and not out.converged
        # the certificate's three luxemburg_avg calls
        assert counts["magnitudes"] == 3
        # the oracle's and the certificate's, and at most one that the
        # solves and screens keep for every call
        assert 4 <= counts["young"] <= 5
        # one projection per iteration and one of the output
        assert segments == [511] * 201


class TestComplexSamples:
    CALLS = {
        "decompose-sigma-0": lambda f: mg.decompose_quotient_norm(f, 0.0),
        "decompose-sigma-1": lambda f: mg.decompose_quotient_norm(f, 1.0),
        "cww-sigma-0": lambda f: mg.cww_check(f, 0.0),
        "cww-sigma-1": lambda f: mg.cww_check(f, 1.0),
        "square-function": mg.martingale_square_function,
        "oracle": lambda f: mg.QuotientOracle(f, 1.0),
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_complex_samples_are_named(self, call):
        # the solver used to warn four times and call finite input not
        # finite, and cww_check failed in a numpy cast
        f = Signal(np.array([1 + 1j, 0, 1, 2]), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="got complex samples"):
                call(f)


@pytest.mark.parametrize("sigma", [0.0, 0.25, 0.5, 1.0, 1.5, 4.0, 300.0])
def test_young_derivative_is_its_two_sum_form_bitwise(sigma):
    rng = np.random.default_rng(23)
    t = np.concatenate([rng.pareto(1.1, 4096), [0.0, 1e-300, 1e300]])
    young = YoungFunction(sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = young.mean_terms(t, t.size)[1]
        kept = [a.tobytes() for a in terms]
        got = young.slope(terms)
        into = np.empty_like(t)
        assert young.slope(terms, out=into) is into
        want = two_sum_slope(t, sigma)
    assert np.array_equal(got, want, equal_nan=True)
    assert into.tobytes() == got.tobytes()
    assert [a.tobytes() for a in terms] == kept
