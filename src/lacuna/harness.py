"""Experiment drivers behind the command line.

Four verification experiments measure the constants in the endpoint
inequalities on ensembles of synthetic signals:

* ``verify_endpoint``   -- weak-type distribution bound for the block
  multipliers and the sharp square function, Young exponent ``tau/2``;
* ``verify_hormander``  -- the same bound for overlapping-bump symbols and
  the smooth square aggregate, Young exponent ``(tau-1)/2``;
* ``verify_zygmund_bonami`` -- coefficient embedding on the unit window;
* ``verify_gen_zygmund_bonami`` -- localized block-average, tail, and
  vanishing-coefficient estimates on a unit window.

``sharpness_growth`` runs the dilated-family growth study, and
``cww_experiment`` / ``decompose_experiment`` exercise the martingale side.

Every experiment draws all random parameters up front from one seeded
generator and aggregates in a fixed order, so reports are byte-stable for a
given configuration, also when the verify experiments on one configuration
share its ensemble within ``MAX_SHARED_BYTES`` (see ``_ensemble``).  A "ratio"
always means measured-lhs / claimed-rhs; the experiments check finiteness and
stability under grid refinement, never a particular constant.  The four verify
experiments share one refinement rule (``_refined_rows``): a row pairs with
the row of the same branch and gamma on the x4 finer grid and aborts when that
mate aborted.  A report is ok when no row aborted, every ratio is finite and
no drift exceeds 2; its notes name each failing row.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import statistics
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .czd import cz_split, lacunary_bins, lattice_coefficients, remove_lacunary
from .lacunary import interval_arrays, lattice_points
from .martingale import (DyadicFunction, azuma_tail_bound, cww_check, decompose_quotient_norm,
                         random_sign_martingale, tail_measure)
from .multipliers import build_sharpness_family, max_feasible_parameter, step_multiplier
from .orlicz import YoungFunction, luxemburg_avg
from .spectral import (MAX_LOG2_N, AliasFlags, BandBank, Signal, band_log2, eta_bank,
                       plateau_bump, weak_l1_norm)

__all__ = [
    "ExperimentConfig",
    "MAX_SIGMA",
    "parse_config",
    "parse_config_text",
    "make_config",
    "SampleSpec",
    "make_sample_specs",
    "OperatorSpec",
    "build_operator",
    "ENDPOINT_OPERATORS",
    "HORMANDER_OPERATORS",
    "weak_type_ratio",
    "RatioReport",
    "verify_endpoint",
    "verify_hormander",
    "verify_zygmund_bonami",
    "verify_gen_zygmund_bonami",
    "sharpness_growth",
    "cww_experiment",
    "decompose_experiment",
    "report_payload",
    "report_to_json",
    "save_report_json",
    "save_report_csv",
]


# -- configuration ----------------------------------------------------------


MAX_SIGMA = 8  # largest Orlicz exponent parameter an experiment or CLI takes
# periods and the smallest lacunary scale stay within 2^64 of 1
MAX_SCALE_LOG2 = 64
# threshold levels of a weak-type ratio, and ensemble members of an experiment
MAX_N_LEVELS = 10_000
MAX_ENSEMBLE = 10_000
# an ensemble's builds are shared between experiments when ensemble x
# (2^log2_n + 2^(log2_n + 2)) complex128 samples fit in this many bytes
MAX_SHARED_BYTES = 32 << 20
# samples ``cww`` draws at once (ensemble x 2^log2_n, 128 MB of float64)
MAX_CWW_SAMPLES = 1 << 24


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for all experiments; unused fields are ignored.

    ``threads`` is accepted and ignored (every experiment runs serially);
    it stays so that old configs parse and report ``config`` blocks keep it.
    """

    log2_n: int = 12
    period: float = 16.0
    tau: int = 2
    sigma: int = 0
    n_levels: int = 24
    seed: int = 7
    ensemble: int = 12
    min_scale_log2: int = -6
    gamma: float = 2.0
    n_min: int = 4
    n_max: int = 12
    khintchine: int = 256
    refine: bool = True
    threads: int = 0

    def __post_init__(self) -> None:
        if not 4 <= self.log2_n <= MAX_LOG2_N:
            raise ValueError(f"log2_n must lie in [4, {MAX_LOG2_N}]")
        if not (2.0 <= self.period <= 2.0**MAX_SCALE_LOG2  # nan and inf fail here
                and math.frexp(self.period)[0] == 0.5):
            raise ValueError(f"period must be a power of two in [2, 2^{MAX_SCALE_LOG2}]")
        if not 1 <= self.tau <= 6:
            raise ValueError("tau must lie in [1, 6]")
        if not 0 <= self.sigma <= MAX_SIGMA:
            raise ValueError(f"sigma must lie in [0, {MAX_SIGMA}]")
        if not 2 <= self.n_levels <= MAX_N_LEVELS:
            raise ValueError(f"n_levels must lie in [2, {MAX_N_LEVELS}]")
        if not 1 <= self.ensemble <= MAX_ENSEMBLE:
            raise ValueError(f"ensemble must lie in [1, {MAX_ENSEMBLE}]")
        if not -MAX_SCALE_LOG2 <= self.min_scale_log2 <= 0:
            raise ValueError(f"min_scale_log2 must lie in [-{MAX_SCALE_LOG2}, 0]")
        if not (math.isfinite(self.gamma) and self.gamma >= 1.0):
            raise ValueError("gamma must be finite and at least 1")
        if not 2 <= self.n_min <= self.n_max:
            raise ValueError("need 2 <= n_min <= n_max")
        if not 0 <= self.khintchine <= MAX_ENSEMBLE:  # one full combine per draw
            raise ValueError(f"khintchine must lie in [0, {MAX_ENSEMBLE}]")
        for key in ("seed", "threads"):  # numpy refuses a negative seed unnamed
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be nonnegative")

    @property
    def log2_period(self) -> int:
        return math.frexp(self.period)[1] - 1

    def to_dict(self) -> dict:
        return asdict(self)


_CONFIG_FIELDS = {f.name: f.type for f in fields(ExperimentConfig)}


def _coerce(key: str, raw: str):
    text = raw.strip().strip('"').strip("'")
    kind = _CONFIG_FIELDS[key]
    if kind == "bool":
        low = text.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ValueError(f"key {key!r}: cannot read {text!r} as a flag")
    try:
        return {"int": int, "float": float}[kind](text)
    except ValueError:
        raise ValueError(f"key {key!r}: cannot read {text!r} as {kind}") from None


def parse_config_text(text: str) -> dict:
    """Flat ``key = value`` lines with ``#`` comments; unknown keys error."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, raw = body.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            out[key] = _coerce(key, raw)
        except ValueError as err:
            raise ValueError(f"config line {lineno}: {err}") from None
    return out


def parse_config(path) -> dict:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return parse_config_text(raw.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise ValueError(f"--config {path}: not UTF-8 at byte {err.start}") from None


def make_config(*mappings: dict) -> ExperimentConfig:
    """Layer override mappings (later wins) over the defaults."""
    merged: dict = {}
    for mapping in mappings:
        for key, value in mapping.items():
            if value is None:
                continue
            if key not in _CONFIG_FIELDS:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = value
    return ExperimentConfig(**merged)


# -- signal ensembles ---------------------------------------------------------


@dataclass(frozen=True)
class SampleSpec:
    """A named builder; calling it at two grids gives the same function
    sampled at both resolutions, which is what refinement drift compares."""

    label: str
    build: Callable[[int], Signal]


def _grid(log2_n: int, period: float) -> tuple[np.ndarray, float]:
    n = 1 << log2_n
    offset = -period / 2
    return offset + (period / n) * np.arange(n), offset


def _add_bumps(vals: np.ndarray, x: np.ndarray, bumps) -> np.ndarray:
    """Add ``a * plateau_bump((x - c) / w)`` onto ``vals`` for each ``(c, w, a)``.

    ``x`` ascends, and each bump is evaluated only on the samples from one
    before the first ``x >= c - w`` to one after the last ``x <= c + w``.
    Past those, ``x`` lies a grid step beyond the rounded ``c - w`` or
    ``c + w``, so the rounded ``|x - c|`` is at least ``w``, the rounded
    ``|x - c| / w`` at least 1, and the bump ``+0.0``.  ``a`` times it is a
    zero, and adding a zero leaves ``vals`` as it was, since ``vals`` never
    holds ``-0.0``: the sums are bitwise those of the whole grid.
    """
    for c, w, a in bumps:
        lo = max(int(np.searchsorted(x, c - w)) - 1, 0)
        hi = int(np.searchsorted(x, c + w, "right")) + 1
        vals[lo:hi] += a * plateau_bump((x[lo:hi] - c) / w, 0.5, 1.0)
    return vals


def _bump_terms(period: float, rng: np.random.Generator, support: Optional[str]) -> list:
    """The ``(c, w, a)`` of one plateau mixture, drawn from ``rng``."""
    n_terms = int(rng.integers(1, 4))
    if support == "unit":
        centers = rng.uniform(0.3, 0.7, n_terms)
        widths = 2.0 ** rng.uniform(-5.0, -2.0, n_terms)
    elif support == "centered":
        centers = rng.uniform(-0.2, 0.2, n_terms)
        widths = 2.0 ** rng.uniform(-5.0, -2.0, n_terms)
    else:
        centers = rng.uniform(-0.35 * period, 0.35 * period, n_terms)
        widths = 2.0 ** rng.uniform(-3.0, 0.0, n_terms)
    amps = rng.uniform(0.3, 2.0, n_terms) * rng.choice([-1.0, 1.0], n_terms)
    return list(zip(centers, widths, amps))


def _bump_signal(log2_n: int, period: float, bumps: list) -> Signal:
    # the signal adopts the fresh float64 sums, which it checks and freezes
    x, offset = _grid(log2_n, period)
    return Signal._adopt(_add_bumps(np.zeros_like(x), x, bumps), period, offset)


def _bump_mixture_spec(label: str, period: float, rng: np.random.Generator,
                       support: Optional[str]) -> SampleSpec:
    bumps = _bump_terms(period, rng, support)
    return SampleSpec(label, lambda log2_n: _bump_signal(log2_n, period, bumps))


def _spike_mixture_builder(period: float, rng: np.random.Generator) -> Callable:
    """A plateau mixture plus spikes, summed onto one array, the spikes last."""
    bumps = _bump_terms(period, rng, None)
    n_spikes = int(rng.integers(2, 4))
    centers = rng.uniform(-0.4 * period, 0.4 * period, n_spikes)
    widths = 2.0 ** rng.uniform(-4.0, -2.0, n_spikes)
    amps = rng.uniform(3.0, 8.0, n_spikes) * rng.choice([-1.0, 1.0], n_spikes)
    bumps += zip(centers, widths, amps)
    return lambda log2_n: _bump_signal(log2_n, period, bumps)


def _lac_poly_pool(cfg: ExperimentConfig) -> np.ndarray:
    """The positive order-tau frequencies the sign polynomials draw from."""
    # q 2^min_scale_log2 <= 2^(log2_n - 4) / period, q on the unit lattice
    bits = band_log2(cfg.log2_n, cfg.period) - 3 - cfg.min_scale_log2
    qs = lattice_points(cfg.tau, 1 << bits if bits >= 0 else 0)
    positive = np.ldexp(qs[qs > 0].astype(float), cfg.min_scale_log2)
    if positive.size == 0:
        raise ValueError(f"no lacunary frequency lies between 2^{cfg.min_scale_log2} and "
                         f"the band cap 2^{cfg.log2_n - 4}/period at period {cfg.period:g}; "
                         "lower the period or min_scale_log2")
    return positive


def _lac_poly_spec(label: str, cfg: ExperimentConfig, rng: np.random.Generator,
                   support: Optional[str], positive: np.ndarray) -> SampleSpec:
    """``amp * sum e_lam exp(2 pi i lam x)`` summed on the support only: bitwise
    the full-grid sum times the support mask, but ``+0.0`` (not ``-0.0``) off it.

    The terms are evaluated on the kept samples with ``x >= 0`` only.  The
    period is a power of two, so every point of the centred grid is exact,
    and each kept ``x < 0`` is the exact negative of a kept ``-x``.  There
    the phase is the negated phase, and each term, their sum and the ``amp``
    scaling are the conjugates of those at ``-x``, rounding included.  So a
    kept ``x < 0`` takes the conjugate of its mirror's sum, plus ``0.0`` so
    that a zero imaginary part is ``+0.0``, as the direct sum leaves it.
    The unit window ``[0, 1)`` has no ``x < 0``.
    """
    size = min(int(rng.integers(8, 65)), positive.size)
    lams = rng.choice(positive, size=size, replace=False)
    eps = rng.choice([-1.0, 1.0], size=size)
    amp = size ** -0.5

    def build(log2_n: int) -> Signal:
        x, offset = _grid(log2_n, cfg.period)
        if support == "unit":
            mask = (x >= 0.0) & (x < 1.0)
        else:
            mask = np.abs(x) < (0.5 if support == "centered" else 1.0)
        kept = np.flatnonzero(mask)
        z = int(np.count_nonzero(x[kept] < 0.0))
        half = x[kept[z:]]
        on = np.zeros(half.size, dtype=complex)
        for lam, e in zip(lams, eps):
            on += e * np.exp(2j * np.pi * lam * half)
        vals = np.zeros(x.size, dtype=complex)
        vals[kept[z:]] = amp * on
        vals[kept[:z]] = amp * (np.conj(on[z:0:-1]) + 0.0)
        return Signal(vals, cfg.period, offset)

    return SampleSpec(label, build)


def _cz_bad_spec(label: str, cfg: ExperimentConfig, rng: np.random.Generator) -> SampleSpec:
    base = _spike_mixture_builder(cfg.period, rng)
    memo: dict = {"alpha": None}

    def build(log2_n: int) -> Signal:
        sig = base(log2_n)
        if memo["alpha"] is None:
            # freeze the threshold at the first grid so refinement compares
            # the same decomposition of the same function
            root = luxemburg_avg(sig.samples, cfg.sigma / 2)
            memo["alpha"] = -1.0
            for mult in (2.0, 1.5, 1.2, 1.1):
                try:
                    split = cz_split(sig, cfg.sigma, mult * root)
                except ValueError:
                    continue
                if split.pieces:
                    memo["alpha"] = mult * root
                    return split.cancellative_part()
        if memo["alpha"] < 0.0:
            return sig
        try:
            split = cz_split(sig, cfg.sigma, memo["alpha"])
        except ValueError:
            return sig
        return split.cancellative_part() if split.pieces else sig

    return SampleSpec(label, build)


def make_sample_specs(cfg: ExperimentConfig, rng: np.random.Generator,
                      support: Optional[str] = None) -> list[SampleSpec]:
    """Ensemble of named builders, cycling through the signal families.

    ``support=None`` mixes plateau mixtures, lacunary sign polynomials, and
    cancellative parts of a stopping-time decomposition on the full window;
    ``"unit"`` / ``"centered"`` squeeze the first two families into ``[0, 1)``
    or ``[-1/2, 1/2)`` for the windowed experiments.
    """
    specs: list[SampleSpec] = []
    # member 1 is the first sign polynomial in both cycles
    positive = _lac_poly_pool(cfg) if cfg.ensemble >= 2 else None
    for i in range(cfg.ensemble):
        kind = i % 3 if support is None else i % 2
        if kind == 0:
            specs.append(_bump_mixture_spec(f"bump-{i}", cfg.period, rng, support))
        elif kind == 1:
            specs.append(_lac_poly_spec(f"lacpoly-{i}", cfg, rng, support, positive))
        else:
            specs.append(_cz_bad_spec(f"czbad-{i}", cfg, rng))
    return specs


_SHARED: dict = {}  # the last (cfg, support) that _ensemble shared, and its specs


def _ensemble(cfg: ExperimentConfig, support: Optional[str] = None) -> list[SampleSpec]:
    """``make_sample_specs`` at ``cfg.seed``, shared by the experiments that
    run on the same ``(cfg, support)`` while it fits ``MAX_SHARED_BYTES``.

    In a shared ensemble each plateau mixture and sign polynomial builds its
    read-only signal once per grid, and each czbad member keeps the threshold
    it froze on its first build but splits its spike mixture through
    ``cz_split`` on every build.  An ensemble over the budget stores nothing:
    each call builds it afresh.  Only the last shared ensemble is kept.
    """
    key = (cfg, support)
    if key not in _SHARED:
        _SHARED.clear()
        specs = make_sample_specs(cfg, np.random.default_rng(cfg.seed), support)
        if cfg.ensemble * (5 << cfg.log2_n) * 16 > MAX_SHARED_BYTES:
            return specs
        # the experiments ask each member for two grids, log2_n and its x4 refinement
        _SHARED[key] = [spec if spec.label.startswith("czbad-")
                        else SampleSpec(spec.label, functools.cache(spec.build)) for spec in specs]
    return _SHARED[key]


# -- operators ----------------------------------------------------------------


@dataclass(frozen=True)
class OperatorSpec:
    label: str
    exponent: float
    apply: Callable[[Signal, Optional[AliasFlags]], np.ndarray]


ENDPOINT_OPERATORS = ("prototype", "step", "lp", "identity")
HORMANDER_OPERATORS = ("hormander", "smooth-sqfn")


def _caps(cfg: ExperimentConfig) -> tuple[int, int, int, int]:
    """The log2 sharp cap (half the base band), smooth cap (a quarter, so the
    padded bump windows stay on the lattice), smallest scale and smooth floor,
    frozen at the base grid so refinement runs see the identical operator."""
    band = band_log2(cfg.log2_n, cfg.period)
    return band - 1, band - 2, cfg.min_scale_log2, max(cfg.min_scale_log2, -3)


def build_operator(kind: str, cfg: ExperimentConfig,
                   rng: Optional[np.random.Generator] = None) -> OperatorSpec:
    rng = rng or np.random.default_rng(cfg.seed + 1)
    sharp_cap, smooth_cap, min_log2, smooth_floor = _caps(cfg)

    if kind == "identity":
        return OperatorSpec("identity", 0.0, lambda sig, flags=None: sig.samples)

    if kind in ("prototype", "step"):  # the step class at N = 1 and N = 2
        n_param, label = (1, "prototype") if kind == "prototype" else (2, "step-N2")
        family = interval_arrays(cfg.tau, min_log2, sharp_cap)[-1]
        bank = step_multiplier(family, min_log2, n_param, rng)
        return OperatorSpec(f"{label}-tau{cfg.tau}", cfg.tau / 2,
                            lambda sig, flags=None: bank.combine(sig, None, flags))

    if kind == "lp":
        family = interval_arrays(cfg.tau, min_log2, sharp_cap)[-1]
        bank = BandBank(family.left, family.right, min_log2, np.ones(family.left.size), "lp")
        return OperatorSpec(f"sharp-sqfn-tau{cfg.tau}", cfg.tau / 2, bank.square)

    if kind == "smooth-sqfn":
        family = interval_arrays(cfg.tau, smooth_floor, smooth_cap)[-1]
        bank = eta_bank(family.left, family.right, smooth_floor, "smooth-sqfn")
        return OperatorSpec(f"smooth-sqfn-tau{cfg.tau}", (cfg.tau - 1) / 2, bank.square)

    if kind == "hormander":
        family = interval_arrays(cfg.tau, smooth_floor, smooth_cap)[-1]
        eps = rng.choice([-1.0, 1.0], size=family.left.size)
        bank = eta_bank(family.left, family.right, smooth_floor, "hormander")
        return OperatorSpec(f"bump-symbol-tau{cfg.tau}", (cfg.tau - 1) / 2,
                            lambda sig, flags=None: bank.combine(sig, eps, flags))

    raise ValueError(f"unknown operator kind {kind!r}")


# -- the weak-type ratio -------------------------------------------------------


def weak_type_ratio(out_mags, in_vals, dx: float, exponent: float,
                    n_levels: int = 24) -> dict:
    """sup over thresholds of  |{|Tf| > a}| / integral B_p(|f|/a), from the
    output samples ``Tf`` or their moduli (``out_mags``; only ``|Tf|`` is read).

    The distribution function is piecewise constant between attained output
    magnitudes and the Orlicz mass is continuous and decreasing in ``a``, so
    the supremum over all thresholds is attained in the left limit at an
    attained value; evaluating with ``>=`` at a geometric-by-value subsample
    of the attained magnitudes therefore measures the true supremum up to the
    subsampling.  Covering the top decades matters: the interesting regime
    for the weakened exponents sits at large thresholds.
    """
    return _sup_ratios(*_ratio_levels(out_mags, n_levels), in_vals, dx, (exponent,))[0]


def _ratio_levels(out_mags, n_levels: int):
    """The thresholds of ``weak_type_ratio`` and the output counts at them,
    from one sort of the magnitudes (empty when they are all zero)."""
    mags = np.abs(np.asarray(out_mags)).ravel()
    mags.sort()
    peak = float(mags.max(initial=0.0))
    if peak <= 0.0:
        return np.empty(0), np.empty(0)
    kept = mags[np.searchsorted(mags, 1e-13 * peak, "right"):]
    lo, hi = float(kept[0]), float(kept[-1])
    if hi <= lo * (1.0 + 1e-12):
        alphas = np.array([hi])
    else:
        # the smallest attained magnitude at or above each grid point, once each
        grid = np.geomspace(lo, hi, n_levels)
        hits = kept[np.minimum(np.searchsorted(kept, grid), kept.size - 1)]
        alphas = hits[np.diff(hits, prepend=0.0) > 0.0]
    return alphas, mags.size - np.searchsorted(mags, alphas * (1.0 - 1e-12), "left")


def _sup_ratios(alphas, counts, in_vals, dx: float, exponents: tuple) -> list:
    """``weak_type_ratio`` at each exponent in one loop over the levels, which
    share ``t = |f|/a`` and ``log(e + t)``: each mass is ``YoungFunction``'s.

    The levels are visited from the largest down, and a level whose ratio
    cannot reach the best one so far is skipped.  ``B(ct) >= c B(t)`` for
    ``c >= 1`` (``sigma >= 0``), so below an evaluated level ``a'`` the mass
    is ``M(a) >= (a'/a) M(a')`` and the ratio at most ``dx count a / (a'
    M(a'))``.  A level is skipped when that bound times ``1 + 1e-9`` is at
    most the best ratio at every exponent; the margin is far above the
    masses' rounding, which ``a'`` with a mass of at least ``2^-900`` keeps
    relative.  An evaluated level's ratio is computed as in the ascending
    loop and a tie goes to the smaller level, so ``max_ratio``, ``alpha``
    and ``levels`` are bitwise that loop's.
    """
    youngs = [YoungFunction(p) for p in exponents]
    # B(0) = 0: zero inputs add nothing to the Orlicz mass
    absin = np.abs(np.asarray(in_vals).ravel())
    absin = absin[absin != 0.0]
    best = [(0.0, float(alphas[-1]) if alphas.size else 0.0) for _ in youngs]
    top = None  # the last evaluated level and its masses, when they can bound
    for a, count in zip(alphas[::-1], counts[::-1]):
        if top is not None and all(dx * count / rhs * (a / top[0]) * (1 + 1e-9) <= r
                                   for rhs, (r, _) in zip(top[1], best)):
            continue
        masses = _orlicz_masses(absin / a, dx, youngs)
        for i, rhs in enumerate(masses):
            ratio = dx * count / rhs if rhs > 0.0 else 0.0
            # from the top down, >= hands a tie to the smaller level
            if ratio > 0.0 and ratio >= best[i][0]:
                best[i] = (ratio, float(a))
        top = (a, masses) if min(masses) >= 2.0**-900 else None
    return [{"max_ratio": float(r), "alpha": a, "levels": int(alphas.size)} for r, a in best]


def _orlicz_masses(t: np.ndarray, dx: float, youngs) -> list:
    """``dx * sum B(t)`` for each Young function ``B``, bitwise ``YoungFunction``'s,
    with ``log(e + t)`` taken once."""
    logs = np.log(math.e + t)
    return [dx * float(np.sum(young.at_logs(t, logs))) for young in youngs]


# -- reports ------------------------------------------------------------------


@dataclass
class RatioReport:
    experiment: str
    anchor: str
    config: dict
    operator: str
    exponent: float
    samples: list
    max_ratio: float
    median_ratio: float
    refinement: dict
    ok: bool
    notes: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return asdict(self)


def _bound_row(label: str, lhs: float, rhs: float, **where) -> dict:
    """One measured ``lhs <= C * rhs``; a zero right side aborts the row."""
    row = {"label": label, **where, "aborted": rhs <= 0.0, "lhs": lhs, "rhs": rhs,
           "ratio": lhs / rhs if rhs > 0 else math.inf}
    if rhs <= 0.0:
        row["note"] = "degenerate sample (zero average)"
    return row


def _drift(coarse: float, fine: float) -> float:
    if coarse <= 0.0 and fine <= 0.0:
        return 1.0
    if coarse <= 0.0 or fine <= 0.0:
        return math.inf
    return max(coarse / fine, fine / coarse)


def _refined_rows(cfg: ExperimentConfig, specs: Sequence[SampleSpec],
                  rows_at: Callable[[Signal, str], list]) -> list:
    """Every spec's rows at ``log2_n`` through ``rows_at(sig, label)``.

    With ``refine`` on, each row that did not abort pairs with the row of the
    same ``(branch, gamma)`` on the x4 finer grid and gains ``fine_ratio`` and
    ``drift``, or is aborted with its mate's note when that mate aborted.  The
    fine grid is not measured when every coarse row aborted.
    """
    rows: list = []
    for spec in specs:
        coarse = rows_at(spec.build(cfg.log2_n), spec.label)
        if cfg.refine and not all(row["aborted"] for row in coarse):
            fine = rows_at(spec.build(cfg.log2_n + 2), spec.label)
            mates = {(row.get("branch"), row.get("gamma")): row for row in fine}
            for row in coarse:
                if row["aborted"]:
                    continue
                # a missing mate means the fine rows stopped at their last, aborted row
                mate = mates.get((row.get("branch"), row.get("gamma")), fine[-1])
                if mate["aborted"]:
                    row.update(aborted=True, note=mate["note"])
                else:
                    row["fine_ratio"] = mate["ratio"]
                    row["drift"] = _drift(row["ratio"], mate["ratio"])
        rows.extend(coarse)
    return rows


def _finish_report(experiment: str, anchor: str, cfg: ExperimentConfig,
                   operator: str, exponent: float, rows: list) -> RatioReport:
    ratios = [row["ratio"] for row in rows if not row["aborted"]]
    drifts = [row["drift"] for row in rows if "drift" in row]
    failures = []
    for row in rows:
        if row["aborted"]:
            reason = f"aborted ({row['note']})"
        elif not math.isfinite(row["ratio"]):
            reason = f"non-finite ratio {row['ratio']}"
        elif row.get("drift", 0.0) > 2.0:
            reason = f"drift {row['drift']:.4f} above 2"
        else:
            continue
        where = f" {row['branch']} gamma {row['gamma']:g}" if "branch" in row else ""
        failures.append(f"{row['label']}{where}: {reason}")
    refinement = {}
    if cfg.refine:
        refinement = {
            "fine_log2_n": cfg.log2_n + 2,
            "pairs": len(drifts),
            "max_drift": max(drifts) if drifts else math.inf,
        }
    return RatioReport(
        experiment=experiment,
        anchor=anchor,
        config=cfg.to_dict(),
        operator=operator,
        exponent=exponent,
        samples=rows,
        max_ratio=max(ratios) if ratios else 0.0,
        median_ratio=statistics.median(ratios) if ratios else 0.0,
        refinement=refinement,
        ok=bool(ratios) and not failures,
        notes=failures,
    )


# -- distribution-bound experiments ---------------------------------------


def _distribution_bound(experiment: str, operators: tuple, claim: str, cfg: ExperimentConfig,
                        operator: str, exponent: Optional[float]) -> RatioReport:
    """The weak-type ratio of one operator over the signal ensemble."""
    if operator not in operators:
        raise ValueError(f"{experiment} operator must be one of {operators}")
    if exponent is not None and not 0.0 <= exponent <= MAX_SIGMA:  # nan fails too
        raise ValueError(f"exponent must lie in [0, {MAX_SIGMA}]")
    specs = _ensemble(cfg)
    op = build_operator(operator, cfg, np.random.default_rng(cfg.seed + 1))
    p = op.exponent if exponent is None else float(exponent)
    anchor = f"|x : |Tf(x)| > a| <= C * integral (|f|/a) log^{p:g}(e + |f|/a) dx {claim}"

    def rows_at(sig: Signal, label: str) -> list:
        # no experiment bank aliases (tests/test_harness.py::test_no_experiment_bank_aliases)
        meas = weak_type_ratio(op.apply(sig), sig.samples, sig.dx, p, cfg.n_levels)
        return [{"label": label, "aborted": False,
                 "ratio": meas["max_ratio"], "alpha": meas["alpha"]}]

    rows = _refined_rows(cfg, specs, rows_at)
    return _finish_report(experiment, anchor, cfg, op.label, p, rows)


def verify_endpoint(cfg: ExperimentConfig, operator: str = "prototype",
                    exponent: Optional[float] = None) -> RatioReport:
    """Distribution bound |{|Tf| > a}| <= C int B_p(|f|/a), p = tau/2."""
    return _distribution_bound("endpoint", ENDPOINT_OPERATORS, "for every threshold a > 0",
                               cfg, operator, exponent)


def verify_hormander(cfg: ExperimentConfig, operator: str = "hormander",
                     exponent: Optional[float] = None) -> RatioReport:
    """Same distribution bound with the improved exponent (tau-1)/2 for the
    overlapping-bump symbols and the smooth square aggregate."""
    return _distribution_bound("hormander", HORMANDER_OPERATORS,
                               "for smooth order-decomposed symbols", cfg, operator, exponent)


# -- coefficient embedding on the unit window -------------------------------


def verify_zygmund_bonami(cfg: ExperimentConfig) -> RatioReport:
    """l2 mass of the order-tau coefficient set against the L log^{tau/2} L
    average, for signals supported on the unit window."""
    specs = _ensemble(cfg, "unit")
    nu_log2 = band_log2(cfg.log2_n, cfg.period)
    if nu_log2 < 1:
        raise ValueError(f"log2_n {cfg.log2_n} at period {cfg.period:g}: no nonzero "
                         f"unit-lattice frequency lies below the Nyquist 2^{nu_log2}")
    qs = lattice_points(cfg.tau, (1 << nu_log2) - 1)
    lams = qs[qs != 0]
    anchor = ("(sum over order-tau lacunary frequencies |fhat(lam)|^2)^{1/2} "
              "<= C * Luxemburg average of |f| with t log^{tau/2}(e+t) on [0,1]")

    def rows_at(sig: Signal, label: str) -> list:
        # |fhat(j)| at the bins jT < n/2: the offset phase cancels in the modulus
        coeffs = np.abs(lattice_coefficients(sig, lams << cfg.log2_period))
        mask = (sig.x >= 0.0) & (sig.x < 1.0)
        return [_bound_row(label, float(np.sqrt(np.sum(coeffs ** 2))),
                           luxemburg_avg(sig.samples[mask], cfg.tau / 2))]

    return _finish_report("zygmund-bonami", anchor, cfg, "coefficient-embedding",
                          cfg.tau / 2, _refined_rows(cfg, specs, rows_at))


# -- localized block estimates on a unit window ------------------------------


def _gen_zb_rows(cfg: ExperimentConfig, sig: Signal, label: str,
                 tail_gammas: Sequence[float], banks: tuple) -> list:
    """One sample's branch measurements on the window J = [-1/2, 1/2) through
    the banks of :func:`_gen_zb_banks`."""
    wide, small, every = banks
    x = sig.x
    # half-open windows, aligned with the sample grid
    jmask = (x >= -0.5) & (x < 0.5)
    gmask = (x >= -cfg.gamma / 2) & (x < cfg.gamma / 2)

    # blocks at unit scale and above: smooth pieces, localized averages
    pieces = wide.magnitudes(sig)
    local_avgs = np.array([luxemburg_avg(row, cfg.sigma / 2) for row in pieces[:, gmask]])
    rows = [_bound_row(label, float(np.sqrt(np.sum(local_avgs ** 2))),
                       luxemburg_avg(sig.samples[jmask], (cfg.sigma + cfg.tau) / 2),
                       branch="local", gamma=cfg.gamma)]

    # energy of the same pieces off the dilated window
    rhs_tail = luxemburg_avg(sig.samples[jmask], (cfg.tau - 1) / 2) ** 2
    sq = pieces ** 2
    for gam in tail_gammas:
        tmask = (x < -gam / 2) | (x >= gam / 2)
        rows.append(_bound_row(label, float(sig.dx * np.sum(sq[:, tmask])), rhs_tail,
                               branch="tail", gamma=gam))

    # small scales on the coefficient-cancelled window restriction
    piece = Signal(sig.samples[jmask], 1.0, -0.5)
    bins = lacunary_bins(piece.n, cfg.tau - 1)
    canc, _lac = remove_lacunary(piece, bins)
    scale = float(np.max(np.abs(canc.samples)))
    if scale > 0.0:
        residual = float(np.max(np.abs(lattice_coefficients(canc, bins))))
        if residual > 1e-8 * scale:
            rows.append({"label": label, "branch": "cancellative", "gamma": cfg.gamma,
                         "aborted": True, "note": "coefficient removal residual"})
            return rows
    full = np.zeros(sig.n, dtype=canc.samples.dtype)
    full[jmask] = canc.samples
    canc_ext = Signal(full, sig.period, sig.offset)
    rows.append(_bound_row(label, float(np.sum(small.energies(canc_ext))),
                           luxemburg_avg(canc.samples, (cfg.tau - 1) / 2) ** 2,
                           branch="cancellative", gamma=cfg.gamma))

    # all scales at once on the cancelled signal: sharp pieces, localized
    comb_avgs = np.array([luxemburg_avg(row, cfg.sigma / 2)
                          for row in every.magnitudes(canc_ext, gmask)])
    rows.append(_bound_row(label, float(np.sqrt(np.sum(comb_avgs ** 2))),
                           luxemburg_avg(canc.samples, (cfg.sigma + cfg.tau) / 2),
                           branch="combined", gamma=cfg.gamma))
    return rows


def _gen_zb_banks(cfg: ExperimentConfig) -> tuple:
    """The ``(wide, small, every)`` banks of :func:`verify_gen_zygmund_bonami`."""
    _, smooth_cap, m, _ = _caps(cfg)
    wide = interval_arrays(cfg.tau, 0, smooth_cap)[-1]
    every = interval_arrays(cfg.tau, m, smooth_cap)[-1]
    small = every.right - every.left < 1 << -m
    return (eta_bank(wide.left, wide.right, 0, "project_smooth"),
            BandBank(every.left[small], every.right[small], m,
                     np.ones(np.count_nonzero(small)), "cancellative"),
            BandBank(every.left, every.right, m, np.ones(every.left.size), "combined"))


def verify_gen_zygmund_bonami(cfg: ExperimentConfig) -> RatioReport:
    """Window-localized block estimates for signals supported in J = [-1/2, 1/2):

    * local    -- l2 aggregate of Luxemburg averages of the smooth unit-and-up
                  pieces over gamma*J against the order-(sigma+tau)/2 average;
    * tail     -- energy of those pieces outside gamma*J (gamma = 2, 4, 8)
                  against the squared order-(tau-1)/2 average;
    * cancellative -- total energy of the sub-unit sharp pieces after removing
                  the low-order lacunary coefficients on the window;
    * combined -- all scales on the cancelled signal, localized averages.
    """
    specs = _ensemble(cfg, "centered")
    tail_gammas = [g for g in (2.0, 4.0, 8.0) if g <= cfg.period / 2]
    anchor = ("block-average aggregate, off-window tails, and sub-unit energies "
              "on the unit window, against Luxemburg averages of the input")
    # smooth blocks at unit scale and above, sharp sub-unit blocks, all sharp blocks
    banks = _gen_zb_banks(cfg)
    rows = _refined_rows(cfg, specs, lambda sig, label: _gen_zb_rows(
        cfg, sig, label, tail_gammas, banks))
    report = _finish_report("gen-zygmund-bonami", anchor, cfg, "window-blocks",
                            (cfg.sigma + cfg.tau) / 2, rows)
    # tail rows should decay as the excluded window grows
    by_label: dict = {}
    for row in rows:
        if row["branch"] == "tail" and not row["aborted"]:
            by_label.setdefault(row["label"], []).append(row["ratio"])
    # each label's tail rows come in increasing gamma
    for label, vals in sorted(by_label.items()):
        if any(b > a * (1 + 1e-9) for a, b in zip(vals, vals[1:])):
            report.notes.append(f"tail ratios not monotone in gamma for {label}")
    return report


# -- the sharpness family ------------------------------------------------------


def _log_log_slope(rows: list, key: str) -> float:
    """The least-squares slope of ``log row[key]`` against ``log row["n"]``."""
    x = np.log([float(row["n"]) for row in rows])
    x -= np.sum(x) / x.size
    return float(np.sum(x * np.log([row[key] for row in rows])) / np.sum(x * x))


def sharpness_growth(cfg: ExperimentConfig) -> dict:
    """Growth study along the dilated second-order family.

    For each parameter N: the deterministic l2 aggregate of the component
    outputs on the truncated signal g_N, its weak norm on [-1/2, 1/2], the
    L log L size of g_N, Khintchine random-sign draws, the pointwise lower
    envelope S(x)*|x|/N on the untruncated signal, and the distribution-bound
    ratios at the correct exponent (1) and the weakened exponent (1/2).
    The weakened ratio must grow with N -- that is the whole point.
    """
    rng = np.random.default_rng(cfg.seed)
    feasible = max_feasible_parameter(cfg.log2_n, cfg.period)
    notes: list = []
    if cfg.n_max > feasible:
        notes.append(f"parameters above {feasible} skipped (band overflow)")
    rows = []
    for n_param in range(cfg.n_min, min(cfg.n_max, feasible) + 1):
        fam = build_sharpness_family(n_param, cfg.log2_n, cfg.period)
        g = fam.g_n
        # the block |x| <= 1/2, one slice of the grid
        kept = g.samples[fam.block]
        agg = fam.bank.square(g)
        weak_det = weak_l1_norm(agg[fam.block], g.dx)
        row = {
            "n": n_param,
            "components": len(fam.pairs),
            "weak_det": weak_det,
            "llogl": luxemburg_avg(kept, 1.0),
        }
        row["llogl_over_n"] = row["llogl"] / n_param
        if cfg.khintchine > 0:
            draws = rng.choice([-1.0, 1.0], size=(cfg.khintchine, len(fam.pairs)))
            # g_N's coefficients are read once per order
            weaks = [weak_l1_norm(np.abs(out[fam.block]), g.dx)
                     for out in fam.bank.combinations(g, draws)]
            row["weak_rand_max"] = max(weaks)
            row["weak_rand_median"] = statistics.median(weaks)
        xs = np.geomspace(2.0 ** (-5 * n_param / 8), 0.25, 16)
        envelope = fam.bank.square_at(fam.f_n, xs, fam.f_half)
        row["cmin"] = float(np.min(envelope * xs / n_param))
        # one sort and one pass over the levels for both exponents
        correct, weakened = _sup_ratios(*_ratio_levels(agg, cfg.n_levels), kept, g.dx,
                                        (1.0, 0.5))
        row["ratio_correct"] = correct["max_ratio"]
        row["ratio_weak"] = weakened["max_ratio"]
        row["alpha_weak"] = weakened["alpha"]
        rows.append(row)

    report: dict = {
        "experiment": "sharpness",
        "anchor": ("the l2 aggregate of the component family on the truncated "
                   "dilated bump has weak norm growing linearly in N while the "
                   "L log L size of the input grows linearly too; a weakened "
                   "Young exponent cannot absorb that growth"),
        "config": cfg.to_dict(),
        "rows": rows,
        "notes": notes,
    }
    if len(rows) >= 2:
        report["slope_det"] = _log_log_slope(rows, "weak_det")
        if cfg.khintchine > 0:
            report["slope_rand"] = _log_log_slope(rows, "weak_rand_max")
        report["growth_correct"] = rows[-1]["ratio_correct"] / rows[0]["ratio_correct"]
        report["growth_weak"] = rows[-1]["ratio_weak"] / rows[0]["ratio_weak"]
        cmins = [row["cmin"] for row in rows]
        report["c_star"] = min(cmins)
        report["cmin_spread"] = max(cmins) / min(cmins) if min(cmins) > 0 else math.inf
        report["ok_slope"] = report["slope_det"] >= 0.8
        report["ok_pointwise"] = report["c_star"] > 0.0
        report["ok_weakened_growth"] = report["growth_weak"] >= 3.0
        report["ok"] = bool(report["ok_slope"] and report["ok_pointwise"]
                            and report["ok_weakened_growth"])
    else:
        notes.append("fewer than two feasible parameters; no growth measurement")
        report["ok"] = False
    return report


# -- martingale experiments ----------------------------------------------------


def _cww_row(draw, samples: np.ndarray, sigma: int) -> dict:
    """Measured tails against the Azuma bound, and the exponential-norm check."""
    tails = {f"{lam:g}": {"measured": tail_measure(samples, lam), "bound": azuma_tail_bound(lam)}
             for lam in (0.5, 1.0, 2.0, 3.0)}
    return {"draw": draw, "tails": tails, "cww": cww_check(DyadicFunction(samples), sigma)}


def cww_experiment(cfg: ExperimentConfig) -> dict:
    """Tail bounds and exponential-norm comparisons for sign martingales."""
    if cfg.ensemble << cfg.log2_n > MAX_CWW_SAMPLES:
        raise ValueError(f"cww draws ensemble x 2^log2_n samples at once: ensemble "
                         f"{cfg.ensemble} at log2_n {cfg.log2_n} is over {MAX_CWW_SAMPLES:,}")
    rng = np.random.default_rng(cfg.seed)
    j = cfg.log2_n
    draws = random_sign_martingale(j, rng, count=cfg.ensemble)
    rows = [_cww_row(i, draws[i], cfg.sigma) for i in range(cfg.ensemble)]
    # one non-uniform example: geometric weights, same tail bound after
    # normalizing by the square function sup
    weights = 2.0 ** (-0.5 * np.arange(1, j + 1))
    weights /= math.sqrt(float(np.sum(weights ** 2)))
    rows.append(_cww_row("weighted", random_sign_martingale(j, rng, weights=weights), cfg.sigma))
    max_excess = max([0.0] + [tail["measured"] - tail["bound"]
                              for row in rows for tail in row["tails"].values()])
    ratios = [row["cww"]["ratio"] for row in rows]
    ok = max_excess <= 1e-12 and all(math.isfinite(r) for r in ratios)
    return {
        "experiment": "cww",
        "anchor": ("sign martingales with unit square function satisfy the "
                   "sub-gaussian tail 2 exp(-a^2/2) pathwise, and the centered "
                   "function's exponential norm is controlled by the square "
                   "function's"),
        "config": cfg.to_dict(),
        "rows": rows,
        "max_tail_excess": max_excess,
        "max_cww_ratio": max(ratios),
        "ok": bool(ok),
    }


def decompose_experiment(cfg: ExperimentConfig,
                         samples: Optional[np.ndarray] = None) -> dict:
    """Run the quotient-norm decomposition solver and report its certificate."""
    rng = np.random.default_rng(cfg.seed)
    if samples is None:
        n = 1 << min(cfg.log2_n, 10)
        # each bump draws its center, width and amplitude in turn
        bumps = [(rng.uniform(0.2, 0.8), 2.0 ** rng.uniform(-4.0, -1.0),
                  rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
                 for _ in range(int(rng.integers(2, 5)))]
        vals = _add_bumps(np.zeros(n), (np.arange(n) + 0.5) / n, bumps)
    else:
        vals = np.asarray(samples, dtype=float)
    result = decompose_quotient_norm(DyadicFunction(vals), cfg.sigma)
    improvement = 0.0
    if result.baseline > 0.0:
        improvement = 1.0 - result.objective / result.baseline
    # the certificate is what matters: a feasible perturbation no worse than
    # psi = 0; "converged" additionally means the tolerance stop fired before
    # the iteration cap
    ok = (result.certificate["constraint_residual"] <= 1e-8
          and result.objective <= result.baseline + 1e-9)
    return {
        "experiment": "decompose",
        "anchor": ("minimize the L log^{sigma/2} L norm of the l2 aggregate of "
                   "perturbed martingale differences over perturbations with "
                   "vanishing own-level difference"),
        "config": cfg.to_dict(),
        "certificate": result.certificate,
        "objective": result.objective,
        "baseline": result.baseline,
        "improvement": improvement,
        "iterations": result.iterations,
        "converged": result.converged,
        "ok": bool(ok),
    }


# -- report output --------------------------------------------------------


def report_payload(report) -> dict:
    """The dict of a report: its ``to_json_dict()``, or the report itself."""
    return report.to_json_dict() if hasattr(report, "to_json_dict") else report


def report_to_json(report) -> str:
    """Sorted keys, two-space indent, and ``null`` for a float that is not finite."""
    strict = json.loads(json.dumps(report_payload(report)), parse_constant=lambda _: None)
    return json.dumps(strict, indent=2, sort_keys=True) + "\n"


def save_report_json(report, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(report_to_json(report))


def save_report_csv(report, path) -> None:
    """Write the report's ``samples`` or ``rows`` as CSV, one column per
    scalar row field; the other report fields are left out."""
    payload = report_payload(report)
    rows = payload.get("samples") or payload.get("rows") or []
    keys: list[str] = []
    for row in rows:
        for key in row:
            if key not in keys and not isinstance(row[key], (dict, list)):
                keys.append(key)
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in keys})
