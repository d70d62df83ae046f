"""Multiplier symbols: classes, diagnostics, and FFT application.

Three representations cooperate here:

* :class:`StepMultiplier` — a list of half-open frequency windows with complex
  coefficients, each window assigned to (and contained in) a block of the
  lacunary family.  Carries the normalized-step invariants: per-block
  coefficient l2 mass at most ``1/overlap_bound`` and pointwise overlap at
  most ``overlap_bound``.
* :class:`SampledMultiplier` — an arbitrary symbol given either by a callable
  (evaluated exactly wherever needed) or by values on a signal's frequency
  lattice (linearly interpolated off-lattice).  Class tags are claims checked
  by the diagnostics, never enforced.
* the sharpness family — the parametrized array of second-order components
  whose vector-valued action on a dilated bump grows linearly in the
  parameter; see :func:`build_sharpness_family`.

Diagnostics work on rescaled components: ``m_L(u) = eta(u) * m(c_L + u|L|)``
sampled on a fixed 512-point reference grid over [-5/8, 5/8].  The two
classical scale-invariant norms are ``sup_L (||m_L||_inf + V_1(m_L))``
(bounded-variation form) and the derivative form ``sup_L sup_{a<=M}
||d^a m_L||_inf`` with finite differences.  Step structure is detected on the
plateau restriction (the block itself, affinely [1,2)), where the eta window
is identically one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .dyadic import DyadicScalar
from .lacunary import (
    LacInterval,
    interval_from_line,
    interval_to_line,
    lambda_tau,
)
from .spectral import (
    AliasFlags,
    BandBank,
    Signal,
    central_diff,
    eta,
    freq_indices,
    freqs,
    plateau_bump,
    spectrum,
    synthesize,
)

REFERENCE_POINTS = 512


# -- variation norms ----------------------------------------------------------


def variation_norm(values: Sequence[complex], r: float) -> float:
    """r-variation of a sampled function: sup over increasing subsequences of
    the l^r norm of successive differences.

    r = 1 is attained on the full sample chain; r = inf is the diameter of the
    value set; intermediate r by dynamic programming over sample indices.
    """
    if r < 1:
        raise ValueError("variation exponent must satisfy r >= 1")
    f = np.asarray(values, dtype=complex)
    if f.size < 2:
        raise ValueError("need at least two samples")
    if r == 1:
        return float(np.sum(np.abs(np.diff(f))))
    if math.isinf(r):
        best = 0.0
        for k in range(1, f.size):
            best = max(best, float(np.max(np.abs(f[k] - f[:k]))))
        return best
    dp = np.zeros(f.size)
    for k in range(1, f.size):
        dp[k] = np.max(dp[:k] + np.abs(f[k] - f[:k]) ** r)
    return float(np.max(dp) ** (1.0 / r))


# -- sampled symbols ----------------------------------------------------------


@dataclass(frozen=True)
class SampledMultiplier:
    """A symbol backed by a callable, lattice values, or both."""

    func: Optional[Callable[[np.ndarray], np.ndarray]] = None
    lattice_values: Optional[np.ndarray] = None
    period: Optional[float] = None
    claimed_class: str = "Raw"

    def __post_init__(self) -> None:
        if self.func is None and self.lattice_values is None:
            raise ValueError("need a callable or lattice values")
        if self.lattice_values is not None:
            vals = np.asarray(self.lattice_values, dtype=complex)
            if not np.all(np.isfinite(vals)):
                raise ValueError("symbol values must be finite")
            if self.period is None:
                raise ValueError("lattice values need the lattice period")
            vals = vals.copy()
            vals.setflags(write=False)
            object.__setattr__(self, "lattice_values", vals)

    @property
    def band_limit(self) -> Optional[float]:
        """Largest |xi| the representation can speak for (None = unlimited)."""
        if self.func is not None:
            return None
        return self.lattice_values.size / (2 * self.period)

    def evaluate(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        if self.func is not None:
            return np.asarray(self.func(xi), dtype=complex)
        n = self.lattice_values.size
        order = np.fft.fftshift(freq_indices(n)) / self.period
        vals = np.fft.fftshift(self.lattice_values)
        re = np.interp(xi, order, vals.real)
        im = np.interp(xi, order, vals.imag)
        return re + 1j * im

    def bank(self, sig: Signal) -> BandBank:
        """A one-row bank carrying the symbol on the signal's whole lattice:
        the stored values themselves when they sit on that lattice."""
        events = []
        if (
            self.lattice_values is not None
            and self.lattice_values.size == sig.n
            and self.period == sig.period
        ):
            symbol = np.asarray(self.lattice_values)
        else:
            if self.band_limit is not None and sig.nyquist > self.band_limit:
                events.append("sampled symbol: signal band exceeds stored symbol lattice")
            symbol = self.evaluate(freq_indices(sig.n) / sig.period)
        idx = np.flatnonzero(symbol)
        return BandBank(sig.n, sig.period, [(idx, symbol[idx])], events)


# -- components and class norms ----------------------------------------------


@dataclass(frozen=True)
class ComponentSample:
    """A rescaled block component on the reference window [-5/8, 5/8]."""

    interval: LacInterval
    grid: np.ndarray  # rescaled coordinate u
    raw: np.ndarray  # m(c_L + u |L|)
    values: np.ndarray  # eta(u) * raw

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])


def component_extract(
    m: SampledMultiplier, interval: LacInterval, n_grid: int = REFERENCE_POINTS
) -> ComponentSample:
    """Sample ``eta(u) m(c_L + u|L|)`` on the fixed reference grid."""
    center = float(interval.center)
    length = float(interval.length)
    limit = m.band_limit
    if limit is not None and abs(center) + 0.625 * length > limit:
        raise ValueError("component window escapes the symbol lattice")
    grid = np.linspace(-0.625, 0.625, n_grid)
    raw = m.evaluate(center + grid * length)
    return ComponentSample(interval, grid, raw, eta(grid) * raw)


def component_plateau(
    m: SampledMultiplier, interval: LacInterval, n_grid: int = REFERENCE_POINTS
) -> np.ndarray:
    """Raw samples on the block itself (u in [-1/2, 1/2), where eta is 1)."""
    center = float(interval.center)
    length = float(interval.length)
    u = np.linspace(-0.5, 0.5, n_grid, endpoint=False)
    return m.evaluate(center + u * length)


def _truncated_family(
    tau: int, min_scale: DyadicScalar, max_abs: DyadicScalar
) -> list[LacInterval]:
    family = lambda_tau(tau, min_scale, max_abs)
    if not family:
        raise ValueError("truncation leaves an empty family")
    return family


def marcinkiewicz_norm(
    m: SampledMultiplier,
    tau: int,
    min_scale: DyadicScalar,
    max_abs: DyadicScalar,
    n_grid: int = REFERENCE_POINTS,
) -> float:
    """sup over the truncated family of ||m_L||_inf + V_1(m_L)."""
    worst = 0.0
    for L in _truncated_family(tau, min_scale, max_abs):
        comp = component_extract(m, L, n_grid)
        worst = max(
            worst,
            float(np.max(np.abs(comp.values))) + variation_norm(comp.values, 1),
        )
    return worst


def hormander_norm(
    m: SampledMultiplier,
    tau: int,
    min_scale: DyadicScalar,
    max_abs: DyadicScalar,
    max_derivative: int = 4,
    n_grid: int = REFERENCE_POINTS,
) -> float:
    """sup over the family and derivative orders a <= M of ||d^a m_L||_inf,
    with centered finite differences on the reference grid (the rescaled
    coordinate already carries the |L|^a scaling)."""
    worst = 0.0
    for L in _truncated_family(tau, min_scale, max_abs):
        comp = component_extract(m, L, n_grid)
        worst = max(worst, float(np.max(np.abs(comp.values))))
        for a in range(1, max_derivative + 1):
            d = central_diff(comp.values, comp.spacing, a)
            worst = max(worst, float(np.max(np.abs(d))))
    return worst


# -- step structure -----------------------------------------------------------


def r2_atom_check(component_values: Sequence[complex], tol: float = 1e-8) -> dict:
    """Detect step structure in a sampled component and measure its l2 budget.

    Splits the samples at jumps larger than ``tol``, checks each run is
    constant to within ``tol``, and sums |level|^2 over the nonzero runs.
    A run of a single interior sample bordered by jumps on both sides is
    unresolved variation (a ramp at grid resolution), not a step, and fails
    the structure check.  Returns ``is_atom`` (piecewise constant and
    sum <= 1), the coefficient square sum, the flatness residual, and the
    overall ``defect`` (residual plus any budget excess; 0 for a clean atom).
    """
    vals = np.asarray(component_values, dtype=complex)
    jumps = np.abs(np.diff(vals)) > tol
    boundaries = [0] + list(np.nonzero(jumps)[0] + 1) + [vals.size]
    residual = 0.0
    sq_sum = 0.0
    levels: list[complex] = []
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        run = vals[lo:hi]
        level = complex(np.mean(run))
        if hi - lo == 1 and lo > 0 and hi < vals.size:
            # slope evidence: charge the unresolved per-sample increment
            residual = max(
                residual, float(min(abs(vals[lo] - vals[lo - 1]), abs(vals[hi] - vals[lo])))
            )
        residual = max(residual, float(np.max(np.abs(run - level))))
        if abs(level) > tol:
            levels.append(level)
            sq_sum += abs(level) ** 2
    flat = residual <= tol
    defect = (residual if not flat else 0.0) + max(0.0, sq_sum - 1.0)
    return {
        "is_atom": flat and sq_sum <= 1.0 + 1e-12,
        "defect": float(defect),
        "coeff_sq_sum": float(sq_sum),
        "piece_count": len(levels),
        "piecewise_constant": flat,
    }


def greedy_step_decomposition(values: Sequence[complex]) -> dict:
    """Telescoping representation F = F[0]*1 + sum_j dF_j * 1_{[j, end)}.

    Exact on the samples; the total coefficient mass is |F[0]| + V_1(F), and
    the square sum of jump coefficients is at most V_1(F)^2.
    """
    f = np.asarray(values, dtype=complex)
    jumps = np.diff(f)
    recon = f[0] + np.concatenate([[0.0], np.cumsum(jumps)])
    defect = float(np.max(np.abs(recon - f)))
    mass = float(abs(f[0]) + np.sum(np.abs(jumps)))
    return {
        "base": complex(f[0]),
        "jumps": jumps,
        "defect": defect,
        "total_mass": mass,
        "jump_sq_sum": float(np.sum(np.abs(jumps) ** 2)),
        "atom_count": int(1 + np.count_nonzero(jumps)),
    }


# -- step multipliers ----------------------------------------------------------


@dataclass(frozen=True)
class StepPiece:
    lo: DyadicScalar
    hi: DyadicScalar
    coeff: complex
    assigned: LacInterval

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("piece window must be nonempty")


@dataclass(frozen=True)
class StepMultiplier:
    """Sum of coefficient-weighted half-open frequency windows, each assigned
    to a containing block; ``overlap_bound`` is the class parameter N."""

    pieces: tuple[StepPiece, ...]
    overlap_bound: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if self.overlap_bound < 1:
            raise ValueError("overlap bound must be a positive integer")
        report = self.validate()
        if not report["ok"]:
            raise ValueError("; ".join(report["violations"]))

    def validate(self, family: Optional[Sequence[LacInterval]] = None) -> dict:
        violations: list[str] = []
        keys = {L.key() for L in family} if family is not None else None
        mass: dict[tuple, float] = {}
        for i, p in enumerate(self.pieces):
            L = p.assigned
            if not (L.left <= p.lo and p.hi <= L.right):
                violations.append(f"piece {i} escapes its assigned block")
            if keys is not None and L.key() not in keys:
                violations.append(f"piece {i} assigned outside the family")
            mass[L.key()] = mass.get(L.key(), 0.0) + abs(p.coeff) ** 2
        budget = 1.0 / self.overlap_bound + 1e-12
        for key, total in sorted(mass.items()):
            if total > budget:
                violations.append(
                    f"block {key} coefficient mass {total:.3e} exceeds 1/N"
                )
        overlap = self._max_overlap()
        if overlap > self.overlap_bound:
            violations.append(f"overlap {overlap} exceeds bound {self.overlap_bound}")
        return {
            "ok": not violations,
            "violations": violations,
            "max_overlap": overlap,
            "block_mass": {str(k): v for k, v in sorted(mass.items())},
        }

    def _max_overlap(self) -> int:
        events: list[tuple[Fraction, int]] = []
        for p in self.pieces:
            events.append((p.lo.as_fraction(), 1))
            events.append((p.hi.as_fraction(), -1))
        depth = best = 0
        for _, step in sorted(events):
            depth += step
            best = max(best, depth)
        return best

    def bank(self, sig: Signal) -> BandBank:
        """One row per piece: its window, weighted by its coefficient."""
        windows = [(p.lo, p.hi, p.coeff) for p in self.pieces]
        return BandBank.build(sig, windows, "step_multiplier")

    def to_json_dict(self) -> dict:
        return {
            "pieces": [
                {
                    "lo": [p.lo.mantissa, p.lo.exponent],
                    "hi": [p.hi.mantissa, p.hi.exponent],
                    "re": p.coeff.real,
                    "im": p.coeff.imag,
                    "assigned_L": interval_to_line(p.assigned),
                }
                for p in self.pieces
            ],
            "overlap_bound": self.overlap_bound,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "StepMultiplier":
        pieces = []
        for item in data["pieces"]:
            pieces.append(
                StepPiece(
                    lo=DyadicScalar(*item["lo"]),
                    hi=DyadicScalar(*item["hi"]),
                    coeff=complex(item["re"], item["im"]),
                    assigned=interval_from_line(item["assigned_L"]),
                )
            )
        return StepMultiplier(tuple(pieces), int(data["overlap_bound"]))

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)

    @staticmethod
    def load(path) -> "StepMultiplier":
        with open(path, "r", encoding="ascii") as fh:
            return StepMultiplier.from_json_dict(json.load(fh))


def prototype_multiplier(
    tau: int,
    min_scale: DyadicScalar,
    max_abs: DyadicScalar,
    signs: Optional[Sequence[int]] = None,
    rng: Optional[np.random.Generator] = None,
) -> StepMultiplier:
    """Random-sign block symbol: each family block is one piece with
    coefficient +-1, assigned to itself (a valid step form with N = 1)."""
    family = lambda_tau(tau, min_scale, max_abs)
    if signs is None:
        rng = rng or np.random.default_rng(0)
        signs = rng.choice([-1, 1], size=len(family))
    if len(signs) != len(family):
        raise ValueError("need one sign per block")
    pieces = tuple(
        StepPiece(L.left, L.right, complex(s), L) for L, s in zip(family, signs)
    )
    return StepMultiplier(pieces, overlap_bound=1)


# -- application ----------------------------------------------------------


def apply_multiplier(
    sig: Signal,
    m: "StepMultiplier | SampledMultiplier",
    flags: Optional[AliasFlags] = None,
) -> Signal:
    """Pointwise multiply the spectrum by the symbol and invert."""
    return sig.with_samples(m.bank(sig).combine(sig, flags=flags))


# -- the sharpness family ------------------------------------------------------


def psi_bump(x):
    """Pinned smooth profile: 1 at 0, plateau [-1/4, 1/4], support [-1/2, 1/2]."""
    return plateau_bump(x, 0.25, 0.5)


def base_symbol(xi):
    """Jump-plus-smooth-tail profile: psi(xi - 1) cut off below 1."""
    xi = np.asarray(xi, dtype=float)
    return psi_bump(xi - 1.0) * (xi >= 1.0)


def component_symbol_func(k: int, l: int) -> Callable[[np.ndarray], np.ndarray]:
    scale = 2.0 ** (l - 1)
    shift = 2.0**k
    return lambda xi: base_symbol((np.asarray(xi, dtype=float) - shift) / scale)


def base_bump_spectrum(xi):
    """The dilation seed: identically 1 on [-2, 2], supported in [-4, 4]."""
    return plateau_bump(xi, 2.0, 4.0)


def max_feasible_parameter(log2_n: int, period: float) -> int:
    """Largest N whose dilated bump spectrum (support 2^{N+2}) fits the band."""
    band = (1 << log2_n) / (2 * period)
    n = 0
    while 2.0 ** (n + 3) <= band:
        n += 1
    return n


@dataclass
class SharpnessFamily:
    """The O(N^2) array of second-order components and its test signals."""

    n_param: int
    log2_n: int
    period: float
    pairs: tuple[tuple[int, int], ...]
    f_n: Signal
    g_n: Signal
    _banks: dict = field(default_factory=dict, repr=False)

    def bank(self, sig: Signal) -> BandBank:
        """The component rows at the signal's ``(n, period)``, built once."""
        key = (sig.n, sig.period)
        if key not in self._banks:
            windows = []
            for k, l in self.pairs:
                # the (k, l) symbol lives in 2^k + 2^{l-1} * [1, 3/2]
                lo = DyadicScalar.pow2(k) + DyadicScalar.pow2(l - 1)
                hi = lo + DyadicScalar.pow2(l - 1)
                windows.append((lo, hi, component_symbol_func(k, l)))
            self._banks[key] = BandBank.build(sig, windows, "sharpness")
        return self._banks[key]

    def apply_component(self, sig: Signal, k: int, l: int) -> Signal:
        """One component through the true-phase transforms, on the whole
        lattice: the reference the bank operations are tested against."""
        symbol = component_symbol_func(k, l)(freqs(sig))
        return synthesize(spectrum(sig) * symbol, sig.period, sig.offset)

    def square_aggregate(self, sig: Signal, threads: int = 1) -> Signal:
        """Pointwise l2 norm over the family, deterministic accumulation."""
        return sig.with_samples(self.bank(sig).square(sig, threads))

    def random_sign_apply(self, sig: Signal, signs: Sequence[float]) -> Signal:
        """Single application of sum_i eps_i T_i (one inverse transform)."""
        return sig.with_samples(self.bank(sig).combine(sig, signs))

    def square_aggregate_at(self, sig: Signal, xs: np.ndarray) -> np.ndarray:
        """Off-grid pointwise l2 aggregate by direct band quadrature."""
        return self.bank(sig).square_at(sig, xs)


def build_sharpness_family(
    n_param: int, log2_n: int, period: float = 16.0
) -> SharpnessFamily:
    """Construct the component array and the dilated/truncated test signals.

    The seed bump has spectrum identically 1 on [-2, 2] and support [-4, 4];
    its 2^N-dilation f_N is synthesized exactly in frequency, and g_N is the
    restriction of f_N to [-1/2, 1/2].
    """
    if n_param < 2:
        raise ValueError("the family needs parameter at least 2")
    feasible = max_feasible_parameter(log2_n, period)
    if n_param > feasible:
        raise ValueError(
            f"parameter {n_param} overflows the band; max feasible is {feasible}"
        )
    n = 1 << log2_n
    offset = -period / 2
    xi = freq_indices(n) / period
    f_coeffs = base_bump_spectrum(xi / 2.0**n_param).astype(complex)
    f_n = synthesize(f_coeffs, period, offset)
    x = f_n.x
    g_n = f_n.with_samples(f_n.samples * (np.abs(x) <= 0.5))
    pairs = tuple((k, l) for k in range(2, n_param + 1) for l in range(1, k))
    return SharpnessFamily(
        n_param=n_param,
        log2_n=log2_n,
        period=period,
        pairs=pairs,
        f_n=f_n,
        g_n=g_n,
    )
