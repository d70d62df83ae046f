"""Dyadic martingale machinery on ([0,1], dx).

Functions are real ``Signal`` objects of period 1 on a grid of ``2^J``
samples (:func:`DyadicFunction` builds one from any samples), checked finite
and frozen, and are treated as piecewise constant on level-J dyadic cells, so
conditional expectations are exact block means and the whole calculus
(telescoping, tower property, orthogonality) is exact up to float rounding.

Pieces:

* conditional expectations ``E_k``, differences ``D_k`` (``D_0 = E_0``), and
  the martingale square function ``(sum_{k>=1} |D_k f|^2)^{1/2}``;
* the exponential-integrability check comparing ``||f - E_0 f||`` in the
  ``exp(L^{2/(s+1)})`` norm against the square function in ``exp(L^{2/s})``
  (sup norm at s = 0), plus the sub-Gaussian tail oracle ``2 exp(-t^2/2)``
  for unit-square-function sign martingales;
* a solver for the square-function decomposition problem: find ``f_k = D_k f
  + psi_k`` with ``D_k psi_k = 0`` minimizing the Orlicz norm of
  ``(sum_k |f_k|^2)^{1/2}``.  The objective is convex but nonsmooth, so the
  solver minimizes a smoothed surrogate by projected gradient descent, in
  three parts: an oracle built once per ``(f, sigma)``
  (:class:`QuotientOracle`: the aggregate, its Luxemburg value and the
  unprojected gradient by implicit differentiation, in buffers allocated
  once, the Young evaluations included), the exactness :func:`certificate`
  of a perturbation, and the iteration, whose line search rejects a first
  trial that ``luxemburg_exceeds`` rules out (one Young-mass evaluation)
  unsolved.  The projection onto the feasible subspace sums the half-blocks
  of at most 4 samples with strided adds, in ``np.add.reduceat``'s own
  order, and the longer ones with one ``np.add.reduceat``; one ``np.repeat``
  spreads the shifts.  Nonzero input must have ``max|f|`` in ``[2^-400,
  2^400]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .orlicz import YoungFunction, exp_norm, luxemburg_avg, luxemburg_exceeds, luxemburg_solve
from .spectral import Signal


def DyadicFunction(samples) -> Signal:
    """Samples on a 2^J grid over [0, 1), cast to float: a :class:`Signal` of period 1."""
    return Signal(np.asarray(samples, dtype=float), 1.0)


def _ek(values: np.ndarray, k: int) -> np.ndarray:
    """Level-k block means, broadcast back to the full grid (exact)."""
    n = values.shape[-1]
    j = n.bit_length() - 1
    if not 0 <= k <= j:
        raise ValueError(f"level {k} outside 0..{j}")
    cells = 1 << k
    block = n // cells
    shaped = values.reshape(values.shape[:-1] + (cells, block))
    means = shaped.mean(axis=-1, keepdims=True)
    return np.broadcast_to(means, shaped.shape).reshape(values.shape)


def _dk(values: np.ndarray, k: int) -> np.ndarray:
    if k == 0:
        return _ek(values, 0)
    return _ek(values, k) - _ek(values, k - 1)


def _real_samples(f: Signal) -> np.ndarray:
    """``f``'s samples, which the martingale calculus needs real."""
    if f.samples.dtype.kind == "c":
        raise ValueError("martingale functions are real; got complex samples "
                         "(pass their real part or their modulus)")
    return f.samples


def martingale_square_function(f: Signal) -> Signal:
    """(sum_{k>=1} |D_k f|^2)^{1/2} pointwise; level 0 is excluded."""
    samples = _real_samples(f)
    acc = np.zeros(f.n)
    for k in range(1, f.log2_n + 1):
        acc += _dk(samples, k) ** 2
    return f.with_samples(np.sqrt(acc))


# -- sign martingales and tail oracle -------------------------------------


def random_sign_martingale(
    j: int,
    rng: np.random.Generator,
    weights: Optional[Sequence[float]] = None,
    count: Optional[int] = None,
) -> np.ndarray:
    """Martingales whose level-k difference is +-weights[k-1] on each level-k
    cell (independent fair signs per level-(k-1) cell).

    Default weights make the square function identically 1.  Returns shape
    (n,) or (count, n).
    """
    if weights is None:
        weights = np.full(j, j**-0.5)
    weights = np.asarray(weights, dtype=float)
    if weights.size != j:
        raise ValueError("need one weight per level 1..J")
    rows = 1 if count is None else count
    n = 1 << j
    out = np.zeros((rows, n))
    for k in range(1, j + 1):
        half = 1 << (k - 1)
        signs = rng.choice([-1.0, 1.0], size=(rows, half))
        # each level-(k-1) cell splits into (+w, -w) or (-w, +w)
        pattern = np.stack([signs, -signs], axis=-1).reshape(rows, 2 * half)
        out += weights[k - 1] * np.repeat(pattern, n // (2 * half), axis=-1)
    return out[0] if count is None else out


def azuma_tail_bound(lam: float) -> float:
    """Sub-Gaussian bound 2 exp(-lam^2/2) for unit-square-function martingales."""
    return 2.0 * math.exp(-(lam**2) / 2.0)


def tail_measure(values: np.ndarray, lam: float) -> float:
    """|{ |f| > lam }| on [0,1] for grid samples."""
    vals = np.asarray(values)
    return float(np.count_nonzero(np.abs(vals) > lam)) / vals.shape[-1]


def cww_check(f: Signal, sigma: float) -> dict:
    """Exponential-integrability comparison for one function.

    lhs: ||f - E_0 f|| in exp(L^{2/(sigma+1)}), computed as the p-sup norm
    with exponent (sigma+1)/2; rhs: the matching norm of the square function
    with exponent sigma/2 (sup norm when sigma = 0).
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    samples = _real_samples(f)
    centered = samples - _ek(samples, 0)
    sq = martingale_square_function(f).samples
    lhs = exp_norm(centered, (sigma + 1) / 2)
    rhs = float(np.max(sq)) if sigma == 0 else exp_norm(sq, sigma / 2)
    ratio = math.inf if rhs == 0 and lhs > 0 else (0.0 if lhs == 0 else lhs / rhs)
    return {"lhs": lhs, "rhs": rhs, "ratio": ratio, "sigma": sigma}


# -- the decomposition solver ---------------------------------------------


# the nonzero max|f| the solver accepts: its squares, the smoothing eps^2 and
# the Luxemburg solves stay inside the normal float range
PEAK_LOG2 = 400


# the projected-gradient schedule: an iteration cap, a stop once PATIENCE
# accepted steps gained less than REL_TOL, the smoothing EPS_SCALE * ||f||_2,
# and an Armijo search from INIT_STEP that shrinks a rejected step and grows
# an accepted one
MAX_ITER = 5000
PATIENCE = 20
REL_TOL = 1e-6
EPS_SCALE = 1e-6
ARMIJO = 1e-4
SHRINK = 0.5
GROW = 2.0
INIT_STEP = 1.0


@dataclass
class DecompositionResult:
    f_k: np.ndarray  # shape (J+1, n): D_k f + psi_k
    psi: np.ndarray
    objective: float  # unsmoothed Luxemburg norm of the l2 aggregate
    baseline: float  # objective at psi = 0
    iterations: int
    converged: bool
    trace: list
    certificate: dict


@lru_cache(maxsize=8)
def _half_blocks(rows: int, n: int) -> tuple:
    """The blocks whose means ``project_to_constraint`` subtracts from a
    ``(rows, n)`` array, in heap order: block ``s >= 1`` lies on row ``k =
    floor(log2 s)``, the whole row at k = 0, else its half-block ``s - 2^k``.
    Returns the flat starts of the blocks longer than 4 samples, which
    ``np.add.reduceat`` sums (rows ``k <= log2 n - 3``, the first in heap
    order), and every block's length as an int and as a float."""
    block = np.arange(1, 1 << rows)
    level = np.frexp(block)[1] - 1
    length = n >> level
    starts = level * n + (block - (1 << level)) * length
    return starts[length > 4], length, length.astype(float)


def project_to_constraint(psi: np.ndarray) -> np.ndarray:
    """Zero out the level-k difference of row k (the feasible subspace).

    ``psi`` has ``2^J`` samples in each of its ``rows <= J + 1`` rows.  Row 0
    loses its mean.  For k >= 1, each level-(k-1) cell of row k splits into
    halves with means ``m_a, m_b``; ``D_k`` is ``+-(m_a - m_b)/2`` on them.
    One ``np.add.reduceat`` sums the half-blocks longer than 4 samples, and
    strided adds the shorter ones in reduceat's own order (``a0``, ``a0 +
    a1``, ``a0 + ((a1 + a2) + a3)``: reduceat adds ``a0`` to numpy's sum of
    the rest), so the result is bitwise that of one reduceat over every
    block.  One ``np.repeat`` spreads the shifts back over the entries to
    subtract.
    """
    psi = np.asarray(psi, dtype=float)
    rows, n = psi.shape if psi.ndim == 2 else (0, 0)
    if n & (n - 1) or not 1 <= rows <= n.bit_length():
        raise ValueError(f"cannot project an array of shape {psi.shape}: it needs 2^J "
                         "samples per row and 1 to J + 1 rows")
    starts, length, flength = _half_blocks(rows, n)
    shift = np.empty(length.size)
    top = starts.size.bit_length()  # the rows reduceat sums: 2^top - 1 blocks
    np.add.reduceat(psi[:top].ravel(), starts, out=shift[:starts.size])
    for k in range(top, rows):
        row, sums = psi[k], shift[(1 << k) - 1:(2 << k) - 1]
        if n >> k == 1:
            sums[...] = row
        elif n >> k == 2:
            np.add(row[0::2], row[1::2], out=sums)
        else:
            np.add(row[1::4], row[2::4], out=sums)
            sums += row[3::4]
            np.add(row[0::4], sums, out=sums)
    shift /= flength
    gap, other = shift[1::2], shift[2::2]
    np.subtract(gap, other, out=gap)
    gap *= 0.5
    np.negative(gap, out=other)
    out = np.repeat(shift, length).reshape(psi.shape)
    return np.subtract(psi, out, out=out)


class QuotientOracle:
    """The smoothed objective for one ``(f, sigma)``: ``D_k f``, ``eps``, and
    at a state ``f_k`` the aggregate ``G = (sum_k f_k^2 + eps^2)^{1/2} >=
    eps``, its Luxemburg value, and the value's gradient before projection
    ``f_k B'(u) / (G sum_y B'(u_y) u_y)``, ``u = G/lambda`` (by implicit
    differentiation), with B' read from the solve's evaluation of ``u``.

    ``G`` is positive, so the solves and the screen read it as its own
    magnitudes and evaluate into one ``(5, n)`` area, ``work``; the gradient
    consumes the accepted solve's evaluation there before the next trial
    writes it."""

    def __init__(self, f: Signal, sigma: float) -> None:
        samples = _real_samples(f)
        self.f, self.sigma, self.young = f, sigma, YoungFunction(sigma / 2)
        self.diffs = np.stack([_dk(samples, k) for k in range(f.log2_n + 1)])
        self.eps = EPS_SCALE * math.sqrt(float(np.mean(samples**2)))
        self.raw, self.squares = np.empty_like(self.diffs), np.empty_like(self.diffs)
        self.work = np.empty((5, f.n))

    def aggregate(self, fk: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``G`` at ``fk``, written into ``out``."""
        np.square(fk, out=self.squares).sum(axis=0, out=out)
        out += self.eps**2
        return np.sqrt(out, out=out)

    def value(self, agg: np.ndarray, start: Optional[float] = None) -> tuple:
        """``(lambda, evaluation)`` of ``G`` by :func:`~lacuna.orlicz.luxemburg_solve`."""
        return luxemburg_solve(agg, self.sigma / 2, start=start, work=self.work)

    def exceeds(self, agg: np.ndarray, bound: float) -> bool:
        """Whether ``value(agg)`` exceeds ``bound`` at any start, by
        :func:`~lacuna.orlicz.luxemburg_exceeds` (one Young evaluation)."""
        return luxemburg_exceeds(agg, self.sigma / 2, bound, work=self.work)

    def gradient(self, fk: np.ndarray, agg: np.ndarray, lam: float, terms) -> np.ndarray:
        """The unprojected gradient at ``fk`` from ``G`` and its ``value``, into
        a buffer; B' is 1 at sigma 0, else evaluated if ``terms`` is None.
        The weights are computed in the rows of ``work``."""
        work = self.work
        if self.sigma == 0:
            weights = 1.0 / float(np.divide(agg, lam, out=work[0]).sum())
            return np.multiply(fk, np.divide(weights, agg, out=work[0]), out=self.raw)
        terms = terms or self.young.mean_terms(np.divide(agg, lam, out=work[0]), agg.size,
                                               out=work)[1]
        # B' into the row of B(u), then sum_y B'(u_y) u_y in the row of e + u
        bp = self.young.slope(terms, out=work[4])
        bp /= float(np.multiply(bp, terms[0], out=work[1]).sum())
        return np.multiply(fk, np.divide(bp, agg, out=bp), out=self.raw)


def certificate(oracle: QuotientOracle, psi: np.ndarray, iterations: int,
                converged: bool) -> dict:
    """The residual, objective, baseline and ``rhs_norm`` of the perturbation ``psi``."""
    s, diffs = oracle.sigma, oracle.diffs
    return {
        "constraint_residual": max(float(np.max(np.abs(_dk(row, k)))) for k, row in enumerate(psi)),
        "objective": luxemburg_avg(np.sqrt(np.sum((diffs + psi)**2, axis=0)), s / 2),
        "baseline": luxemburg_avg(np.sqrt(np.sum(diffs**2, axis=0)), s / 2),
        "sigma": s,
        "iterations": iterations,
        "converged": converged,
        "rhs_norm": luxemburg_avg(oracle.f.samples, (s + 1) / 2),
    }


def decompose_quotient_norm(f: Signal, sigma: float) -> DecompositionResult:
    """Minimize || (sum_k |D_k f + psi_k|^2)^{1/2} ||_{L log^{sigma/2} L}
    over perturbations with D_k psi_k = 0, by projected gradient descent on
    :class:`QuotientOracle`: the Armijo search halves the step from twice
    the last accepted one until the value of ``G`` is at most ``bar``, and
    a first trial that ``luxemburg_exceeds`` rules out is rejected unsolved.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    peak = float(np.max(np.abs(f.samples)))
    if peak != 0.0 and not 2.0**-PEAK_LOG2 <= peak <= 2.0**PEAK_LOG2:
        raise ValueError(
            f"max|f| = {peak:.3g} lies outside [2^-{PEAK_LOG2}, 2^{PEAK_LOG2}], where the "
            "solver's squares neither underflow nor overflow; rescale the input"
        )
    oracle = QuotientOracle(f, sigma)
    # the state f_k = D_k f + psi_k, a candidate and their aggregates, in buffers
    fk, cand = oracle.diffs.copy(), np.empty_like(oracle.diffs)
    agg, cand_agg = oracle.aggregate(fk, np.empty(f.n)), np.empty(f.n)
    current, terms = oracle.value(agg)
    trace = [current]
    step = INIT_STEP
    # zero input is its own optimum, and its gradient would divide by zero
    converged = oracle.eps == 0.0
    iterations = 0

    for iterations in range(1, 0 if converged else MAX_ITER + 1):
        grad = project_to_constraint(oracle.gradient(fk, agg, current, terms))
        gnorm2 = float(np.square(grad, out=cand).sum())  # cand is free until the search
        if gnorm2 == 0.0:
            converged = True
            break
        screen = sigma > 0  # first trial only; at sigma 0 the solve is a mean
        while step > 1e-18:
            np.subtract(fk, np.multiply(grad, step, out=cand), out=cand)
            oracle.aggregate(cand, cand_agg)
            bar = current - ARMIJO * step * gnorm2
            if not (screen and oracle.exceeds(cand_agg, bar)):
                value, cand_terms = oracle.value(cand_agg, current)
                if value <= bar:
                    break
            screen = False
            step *= SHRINK
        else:
            converged = True  # no descent direction at fp resolution
            break
        fk, cand = cand, fk
        agg, cand_agg = cand_agg, agg
        current, terms = value, cand_terms
        trace.append(current)
        step *= GROW
        if len(trace) > PATIENCE:
            past = trace[-PATIENCE - 1]
            if past - current < REL_TOL * max(past, 1e-300):
                converged = True
                break

    psi = project_to_constraint(fk - oracle.diffs)  # exact feasibility of the output
    cert = certificate(oracle, psi, iterations, converged)
    return DecompositionResult(oracle.diffs + psi, psi, cert["objective"], cert["baseline"],
                               iterations, converged, trace, cert)
