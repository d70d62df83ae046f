"""Orlicz averages of L log^sigma L type and exponential-class norms.

Everything here works on plain sample arrays under normalized counting
measure: the Luxemburg average of ``f`` over an interval is computed from the
samples falling in that interval, so discretization choices live with the
callers.

Conventions (sigma >= 0 throughout):

- Young function ``B_sigma(t) = t (log(e+t))^sigma``; ``sigma = 0`` is L^1.
- ``luxemburg_avg`` solves ``mean B(|f|/lam) = 1`` by bracketed bisection
  with tolerance 1e-10 on the constraint value (initial guess mean |f|,
  bracket grown by doubling).  ``sigma = 0`` returns the mean exactly.
- ``exp_norm(f, sigma)`` is the p-sup form ``sup_{p>=2} p^{-sigma}
  (mean |f|^p)^{1/p}`` over integer p, the exp(L^{1/sigma}) norm up to
  absolute constants.  ``sigma = 0`` is rejected; that endpoint is the
  essential sup and callers should take ``max(|f|)`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_E = math.e
CONSTRAINT_TOL = 1e-10


@dataclass(frozen=True)
class YoungFunction:
    """``B_sigma(t) = t (log(e+t))^sigma`` with its derivative."""

    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.sigma == 0:
            return t.copy()
        return t * np.log(_E + t) ** self.sigma

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        if self.sigma == 0:
            return np.ones_like(t)
        logs = np.log(_E + t)
        return logs**self.sigma + self.sigma * t * logs ** (self.sigma - 1) / (_E + t)

    def submult_constant(self) -> float:
        """c with B(st) <= c B(s) B(t): log(e+st) <= 2 log(e+s) log(e+t)."""
        return 2.0**self.sigma


def _amax(values: np.ndarray) -> float:
    return float(np.max(values)) if values.size else 0.0


def luxemburg_avg(values, sigma: float) -> float:
    """Luxemburg average ``inf { lam : mean B_sigma(|f|/lam) <= 1 }``."""
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    if v.size == 0:
        raise ValueError("empty sample set")
    mean = float(v.mean())
    if not math.isfinite(mean):
        raise ValueError("values and their mean must be finite")
    if mean == 0.0:
        return 0.0
    if sigma == 0:
        return mean
    B = YoungFunction(sigma)

    def g(lam: float) -> float:
        return float(np.mean(B(v / lam)))

    lo = mean  # B(t) >= t so the constraint is >= 1 here
    hi = mean * max(2.0, math.log(_E + _amax(v) / mean) ** sigma)
    grow = 0
    while g(hi) > 1.0 and grow < 200:
        hi *= 2.0
        grow += 1
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


def luxemburg_avg_rows(matrix, sigma: float, iters: int = 120) -> np.ndarray:
    """Row-wise Luxemburg averages of a 2d array (vectorized bisection)."""
    v = np.abs(np.asarray(matrix, dtype=float))
    if v.ndim != 2:
        raise ValueError("2d array expected")
    mean = v.mean(axis=1)
    if not np.isfinite(mean).all():
        raise ValueError("values and their mean must be finite")
    if sigma == 0:
        return mean
    B = YoungFunction(sigma)
    vmax = v.max(axis=1)
    live = mean > 0
    lo = mean.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        hi = mean * np.maximum(2.0, np.log(_E + vmax / np.where(live, mean, 1.0)) ** sigma)
    hi = np.where(live, hi, 1.0)
    lo = np.where(live, lo, 1.0)

    def g(lam: np.ndarray) -> np.ndarray:
        return B(v / lam[:, None]).mean(axis=1)

    for _ in range(60):
        bad = live & (g(hi) > 1.0)
        if not bad.any():
            break
        hi = np.where(bad, hi * 2.0, hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        val = g(mid)
        done = np.abs(val - 1.0) <= CONSTRAINT_TOL
        if bool(np.all(done | ~live)):
            lo = np.where(done, mid, lo)
            hi = np.where(done, mid, hi)
            break
        above = val > 1.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    out = 0.5 * (lo + hi)
    return np.where(live, out, 0.0)


def llogl_avg_equiv(values, sigma: float) -> float:
    """Explicit equivalent ``mean |f| (log(e + |f|/mean|f|))^sigma``."""
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    mean = float(v.mean())
    if mean == 0.0:
        return 0.0
    return float(np.mean(v * np.log(_E + v / mean) ** sigma))


def _log_p_mean(logv: np.ndarray, n: int, p: int) -> float:
    # log( mean |f|^p ) over n samples, zeros dropped from logv
    if logv.size == 0:
        return -math.inf
    m = float(np.max(logv))
    s = float(np.sum(np.exp(p * (logv - m))))
    return p * m + math.log(s) - math.log(n)


def exp_norm(values, sigma: float, p_cap: int = 512) -> float:
    """``sup_{p >= 2} p^{-sigma} (mean |f|^p)^{1/p}`` over integer p.

    Adaptive scan: stops once two successive p values decrease the running
    value and p >= 32 (the map is unimodal-ish and decays for bounded f).
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
    for p in range(2, p_cap + 1):
        cur = math.exp(_log_p_mean(logv, n, p) / p) * p**-sigma
        best = max(best, cur)
        if cur < prev:
            decreases += 1
        else:
            decreases = 0
        prev = cur
        if decreases >= 2 and p >= 32:
            break
    return best


def dyadic_orlicz_maximal(values, sigma: float) -> np.ndarray:
    """Pointwise sup of Luxemburg averages over dyadic ancestor blocks.

    ``values`` must have power-of-two length; the block tree is the full
    dyadic tree on the index range, leaves included.
    """
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    n = v.size
    if n == 0 or n & (n - 1):
        raise ValueError("length must be a positive power of two")
    out = np.full(n, -np.inf)
    levels = n.bit_length()  # blocks of size n, n/2, ..., 1
    size = n
    for _ in range(levels):
        rows = v.reshape(n // size, size)
        avg = luxemburg_avg_rows(rows, sigma)
        out = np.maximum(out, np.repeat(avg, size))
        size //= 2
    return out
