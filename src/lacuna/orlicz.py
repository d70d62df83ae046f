"""Orlicz averages of L log^sigma L type and exponential-class norms.

Everything here works on plain sample arrays under normalized counting
measure: the Luxemburg average of ``f`` over an interval is computed from the
samples falling in that interval, so discretization choices live with the
callers.

Conventions (sigma >= 0 throughout):

- Young function ``B_sigma(t) = t (log(e+t))^sigma``; ``sigma = 0`` is L^1.
- ``luxemburg_avg`` solves ``mean B(|f|/lam) = 1`` by Newton's step on
  ``log mean B`` in ``s = log lam``, kept inside a bracket that every
  evaluation shrinks (:func:`luxemburg_solve`), and accepts a ``lam`` whose
  computed constraint is within ``CONSTRAINT_TOL`` (1e-10) of 1; ``sigma =
  0`` returns the mean exactly.  An evaluation takes one log and one pow per
  nonzero sample (:meth:`YoungFunction.mean_terms`), and the step's slope and
  ``B'`` (:meth:`YoungFunction.slope`) are read from its arrays.
- ``exp_norm(f, sigma)`` is the p-sup form ``sup_{p>=2} p^{-sigma}
  (mean |f|^p)^{1/p}`` over integer p, the exp(L^{1/sigma}) norm up to
  absolute constants.  ``sigma = 0`` is rejected; that endpoint is the
  essential sup and callers should take ``max(|f|)`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

_E = math.e
_NORMAL_MIN = float(np.finfo(float).tiny)  # the bracket bound holds for means at least this
CONSTRAINT_TOL = 1e-10
SCREEN_MARGIN = 1e-8  # luxemburg_exceeds: far above CONSTRAINT_TOL and rounding
EXP_NORM_MAX_P = 512


@dataclass(frozen=True)
class YoungFunction:
    """``B_sigma(t) = t (log(e+t))^sigma``; its slope is read from an evaluation."""

    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and >= 0")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.sigma == 0:
            return t.copy()
        return t * np.log(_E + t) ** self.sigma

    def mean_terms(self, t: np.ndarray, size: int) -> tuple:
        """``sum B(t) / size``, bitwise ``__call__``'s, and the arrays
        :meth:`slope` reads, with ``log(e + t)`` taken once."""
        et = _E + t
        logs = np.log(et)
        power = logs**self.sigma
        return float((t * power).sum()) / size, (t, et, logs, power)

    def slope(self, terms: tuple) -> np.ndarray:
        """``B'(t)`` from the arrays :meth:`mean_terms` returned for ``t``."""
        t, et, logs, power = terms
        return power + self.sigma * t * logs ** (self.sigma - 1) / et

    def submult_constant(self) -> float:
        """c with B(st) <= c B(s) B(t): log(e+st) <= 2 log(e+s) log(e+t)."""
        return 2.0**self.sigma


def luxemburg_avg(values, sigma: float) -> float:
    """Luxemburg average ``inf { lam : mean B_sigma(|f|/lam) <= 1 }`` (:func:`luxemburg_solve`)."""
    return _solve(values, sigma, None)[0]


def luxemburg_solve(values, sigma: float, *, start: Optional[float] = None) -> tuple:
    """``(lam, terms)``: the Luxemburg average and the Young evaluation it
    was accepted on (:meth:`YoungFunction.mean_terms` of the nonzero
    ``|f|/lam``), or ``None`` where the solve ended without one at ``lam``:
    sigma 0, a zero mean, a collapsed bracket or the step cap.

    ``M(s) = mean B(|f| e^{-s})`` decreases in ``s = log lam``, and Newton's
    step on ``log M`` is ``lam <- lam exp(M log M / mean B'(u) u)`` (``u =
    |f|/lam``), with ``B'(u) u = B(u) (1 + sigma u / ((e+u) log(e+u)))`` read
    from the evaluation.  ``log M`` is linear in ``s`` at sigma 0 and nearly
    so above it, where ``M - 1`` is far from linear.  The bracket keeps the
    step safe: it starts as ``lo = mean |f|`` (where ``M >= 1``) and ``hi =
    mean max(2, log(e + x)^sigma)`` with ``x = max |f| / mean |f|``; every
    evaluation shrinks it, and a step that leaves it, or one from an
    evaluation that is 0 or not finite, goes to the bracket midpoint
    instead.  The first evaluation is at ``start`` when that lies strictly
    inside the first bracket (a warm start), else at the midpoint.  Returns
    once ``|mean B(u) - 1| <= CONSTRAINT_TOL``, or the midpoint once the
    bracket is within ``1e-15 hi`` or one float step, in at most 200 steps.
    ``B(t)/t`` increases, so ``d log M / ds <= -1`` and any two values that
    meet this test lie within about ``2 CONSTRAINT_TOL`` of each other, relative.

    The bracket bound puts ``M(log hi) < 1`` unevaluated: ``mean B(|f|/hi)
    <= (mean/hi) log(e + max/hi)^sigma <= log(e + x/2)^sigma / max(2, log(e +
    x)^sigma)``, which peaks over sigma where ``log(e + x)^sigma = 2``; as
    ``x`` is at most the sample count, it is at most 0.9883 up to 2^22 samples
    and 0.9964 up to 2^53.  Rounding moves it far less than that while the
    mean is a normal float.  A subnormal mean can round down by up to a third
    and the bound fail (``[12, 28, 1]`` times 2^-1074 among 27 zeros, sigma
    1), so there ``hi`` first doubles until ``M(log hi) <= 1``.

    The mean, the maximum and the bracket come from every sample; the
    evaluations sum over the nonzero samples only and divide by the full
    sample count, which is exact because ``B(0) = 0`` and ``B'(0) 0 = 0``.
    With no zero sample the sums are those over all of ``values``.
    """
    return _solve(values, sigma, start)


def _solve(values, sigma: float, start: Optional[float]) -> tuple:
    # both entries' body: a tracer of public functions times each solve once
    B = YoungFunction(sigma)
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    if v.size == 0:
        raise ValueError("empty sample set")
    mean = float(v.sum()) / v.size  # the reduction and division of v.mean()
    if not math.isfinite(mean):
        raise ValueError("values and their mean must be finite")
    if mean == 0.0 or sigma == 0:
        return mean, None

    lo = mean  # B(t) >= t so the constraint is >= 1 here
    try:
        hi = mean * max(2.0, math.log(_E + float(v.max()) / mean) ** sigma)
    except OverflowError:
        hi = math.inf
    if not math.isfinite(hi):
        raise ValueError(f"the starting bracket overflows at sigma = {sigma}")

    size = v.size
    v = v if v.all() else v[v != 0]
    while mean < _NORMAL_MIN and B.mean_terms(v / hi, size)[0] > 1.0:
        hi *= 2.0  # a subnormal mean can round too far down for the bracket bound
    lam = start if start is not None and lo < start < hi else 0.5 * (lo + hi)
    val, terms = B.mean_terms(v / lam, size)
    for _ in range(200):
        if abs(val - 1.0) <= CONSTRAINT_TOL:
            return lam, terms
        if val > 1.0:
            lo = lam
        else:
            hi = lam
        if hi - lo <= max(1e-15 * hi, 2.0**-1074):  # one float step where 1e-15 hi underflows
            break
        nxt = hi  # the midpoint where the constraint is 0 or not finite
        if 0.0 < val < math.inf:  # Newton on log M, slope mean B'(t) t with no second pow
            t, et, logs, power = terms
            slope = float((t * power * (1.0 + sigma * t / (et * logs))).sum()) / size
            step = math.log(val) * val / slope
            nxt = lam * math.exp(step) if step < math.log(hi / lam) else hi
        lam = nxt if lo < nxt < hi else 0.5 * (lo + hi)
        val, terms = B.mean_terms(v / lam, size)
    return 0.5 * (lo + hi), None


def luxemburg_exceeds(values, sigma: float, bound: float) -> bool:
    """True only if ``luxemburg_solve(values, sigma, start=...)[0]`` exceeds
    ``bound`` for every ``start``, from one evaluation of B (finite values).

    ``mean B(|f|/lam)`` decreases in ``lam`` with log-slope at most ``1 +
    sigma``, and one evaluation rounds far below ``SCREEN_MARGIN``.  So when
    ``mean B(|f|/bound) - 1`` exceeds it, no ``lam <= bound`` has a computed
    constraint within ``CONSTRAINT_TOL``, nor is it the midpoint of a bracket
    collapsed to ``hi - lo <= 1e-15 hi``: the solve's only returns but its
    200-step caps and a bracket one subnormal step wide (whose midpoint can
    be its lower end).  Such a bracket's upper end lies far above ``bound``:
    it is an iterate with computed constraint below 1, or the first upper
    end, which for a normal mean the solve never evaluates but the bracket
    bound of :func:`luxemburg_solve` puts at ``mean B <= 0.9964``, and for a
    subnormal one was doubled until its computed constraint was at most 1.
    """
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    if bound <= 0.0 or v.size == 0:
        return bound < 0.0 or bool(v.any())
    return YoungFunction(sigma).mean_terms(v / bound, v.size)[0] - 1.0 > SCREEN_MARGIN


def llogl_avg_equiv(values, sigma: float) -> float:
    """Explicit equivalent ``mean |f| (log(e + |f|/mean|f|))^sigma``."""
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    mean = float(v.mean())
    if mean == 0.0:
        return 0.0
    return float(np.mean(v * np.log(_E + v / mean) ** sigma))


def _log_p_mean(logv: np.ndarray, n: int, p: int) -> float:
    # log( mean |f|^p ) over n samples, zeros dropped from logv (one at least left)
    m = float(np.max(logv))
    s = float(np.sum(np.exp(p * (logv - m))))
    return p * m + math.log(s) - math.log(n)


def exp_norm(values, sigma: float) -> float:
    """``sup_{p >= 2} p^{-sigma} (mean |f|^p)^{1/p}`` over integer p.

    Adaptive scan up to ``EXP_NORM_MAX_P``: stops once two successive p
    values decrease the running value and p >= 32 (the map is unimodal-ish
    and decays for bounded f).
    """
    if sigma == 0:
        raise ValueError("sigma = 0 is the L^inf endpoint; use max(|f|)")
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    if v.size == 0:
        raise ValueError("empty sample set")
    nz = v[v > 0]
    if nz.size == 0:
        return 0.0
    logv = np.log(nz)
    n = v.size
    best = 0.0
    decreases = 0
    prev = -math.inf
    for p in range(2, EXP_NORM_MAX_P + 1):
        cur = math.exp(_log_p_mean(logv, n, p) / p) * p**-sigma
        best = max(best, cur)
        decreases = decreases + 1 if cur < prev else 0
        prev = cur
        if decreases >= 2 and p >= 32:
            break
    return best
