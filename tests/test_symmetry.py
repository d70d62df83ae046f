"""Exact dyadic symmetries: scaling the samples by 2^k moves every output of
a linear or l2 operator by exactly 2^k, and every energy by exactly 2^(2k),
as long as nothing over- or underflows.  The stopping-time decomposition at
level 2^k alpha keeps its atoms and moves each constant by 2^0, 2^k or 2^(2k).
The Luxemburg average and the weak-L1 norm move by 2^k, and the weak-type
ratio keeps its value and moves its threshold by 2^k.

Dilation: multiplying the period by 2^k and every frequency bound by 2^-k
keeps every lattice index, so each band operation returns the same bits
(the energies, which carry ``dx``, move by exactly 2^k), and the
decomposition returns the same parts with its lengths and masses moved by
exactly 2^k.  The weak-type ratio of a square function and its input, whose
``dx`` moves by 2^k in both the measure and the Orlicz mass, keeps its
value, its threshold and its level count.

Floating-point arithmetic commutes with a power-of-two scale, so these tests
need no reference implementation.  They catch an intermediate value that
leaves the float range while the exact result stays inside it.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lacuna import czd
from lacuna.cli import main
from lacuna.dyadic import DyadicScalar as D
from lacuna import spectral as sp
from lacuna.harness import weak_type_ratio
from lacuna.lacunary import interval_arrays
from lacuna.multipliers import build_sharpness_family, step_multiplier
from lacuna.orlicz import luxemburg_avg, luxemburg_solve
from lacuna.spectral import weak_l1_norm
import test_acceptance
import test_spectral

SCALES = [-30, 5, 40]


def random_signal(n, offset, real=False):
    rng = np.random.default_rng(71)
    samples = rng.standard_normal(n) + (0.0 if real else 1j * rng.standard_normal(n))
    return sp.Signal(samples, test_spectral.TestBandBank.PERIOD, offset)


def sharpness_case():
    fam = build_sharpness_family(5, 12)
    return fam.bank, fam.f_n


def step_case(kind):
    # the verify operators' step multipliers at tau 3, on 2^10 samples of period 8
    n_param = 1 if kind == "prototype" else 2
    bank = step_multiplier(interval_arrays(3, -6, 4)[-1], -6, n_param, np.random.default_rng(73))
    return bank, random_signal(1 << 10, -4.0)


CASES = {
    "sharp": lambda: (test_spectral.family_bank("sharp"), random_signal(1 << 10, 0.0)),
    "eta": lambda: (test_spectral.family_bank("eta"), random_signal(1 << 10, -4.0)),
    # real samples: their coefficients come from one rfft, conjugated on the
    # negative half-axis, which these windows reach
    "sharp-real": lambda: (test_spectral.family_bank("sharp"),
                           random_signal(1 << 10, 0.0, real=True)),
    "eta-real": lambda: (test_spectral.family_bank("eta"),
                         random_signal(1 << 10, -4.0, real=True)),
    "sharpness": sharpness_case,
    "prototype": lambda: step_case("prototype"),
    "step": lambda: step_case("step"),
}


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_band_bank_is_exactly_amplitude_covariant(case, k):
    bank, sig = CASES[case]()
    scaled = sig.with_samples(sig.samples * 2.0**k)
    rng = np.random.default_rng(72)
    weights = rng.standard_normal(bank.lo.size)
    cols = np.abs(sig.x) < 1.0
    xs = np.concatenate([sig.x[[3, 200, 700]], rng.uniform(-sig.period / 2, sig.period / 2, 8)])
    linear = {
        "combine": lambda s: bank.combine(s),
        "combine with weights": lambda s: bank.combine(s, weights),
        "magnitudes": lambda s: bank.magnitudes(s),
        "magnitudes on columns": lambda s: bank.magnitudes(s, cols),
        "square": lambda s: bank.square(s),
        "square_at": lambda s: bank.square_at(s, xs),
    }
    for name, op in linear.items():
        base = op(sig)
        assert np.any(base != 0.0), name
        assert np.array_equal(op(scaled), base * 2.0**k), name
    energies = bank.energies(sig)
    assert np.any(energies > 0.0)
    assert np.array_equal(bank.energies(scaled), energies * 2.0 ** (2 * k))


# the power of 2^k by which each czd constant and atom diagnostic moves
CZD_CONSTANTS = {
    "orlicz_mass": 0, "total_stopping_length": 0, "measure_bound_ratio": 0,
    "good_sup_constant": 0, "good_l1_ratio": 0, "lacunary_l2_sq": 2,
    "atom_weighted_sq": 2, "lacunary_vs_atoms": 0, "lacunary_vs_mass": 0,
    "max_atom_constant": 0, "max_residual_coefficient": 0, "sandwich_ok": 0,
    "reconstruction_error": 0, "n_atoms": 0,
}
CZD_ATOM = {
    "lo": 0, "hi": 0, "x_lo": 0, "x_hi": 0, "length": 0, "level_average": 1,
    "atom_average": 1, "atom_constant": 0, "lacunary_l2": 1, "lacunary_constant": 0,
    "n_frequencies": 0, "residual_coefficient": 0,
}


def assert_moves(got: dict, base: dict, powers: dict, k: int) -> None:
    assert set(got) == set(base) == set(powers)
    for key, power in powers.items():
        if base[key] is None:
            assert got[key] is None, key
        else:
            assert got[key] == base[key] * 2.0 ** (power * k), key


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("sigma", [0, 1, 2])
def test_cz_decompose_is_exactly_amplitude_covariant(sigma, k):
    # a gate 06 style member at 2^12, at 1.5 times its Luxemburg average
    rng = np.random.default_rng(74)
    sig = test_acceptance._terms_signal(test_acceptance._spiky_terms(rng), 12)
    alpha = 1.5 * luxemburg_avg(np.abs(sig.samples), sigma / 2)
    base = czd.cz_decompose(sig, sigma, alpha)
    got = czd.cz_decompose(sig.with_samples(sig.samples * 2.0**k), sigma, alpha * 2.0**k)
    assert len(base.atoms) > 1
    assert got.stopping == base.stopping
    assert got.alpha == base.alpha * 2.0**k
    assert_moves(got.constants, base.constants, CZD_CONSTANTS, k)
    for a, b in zip(got.atoms, base.atoms, strict=True):
        assert_moves(a.diagnostics, b.diagnostics, CZD_ATOM, k)
        for part in ("cancellative", "lacunary"):
            assert np.array_equal(getattr(a, part).samples, getattr(b, part).samples * 2.0**k)
    for part in ("good", "lacunary_part"):
        assert np.array_equal(getattr(got, part).samples, getattr(base, part).samples * 2.0**k)


def sparse_magnitudes(seed):
    # heavy-tailed samples with a quarter of them zero
    rng = np.random.default_rng(seed)
    return rng.pareto(1.5, 4096) * (rng.random(4096) < 0.75)


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("sigma", [0, 0.5, 1, 2, 4])
def test_luxemburg_avg_is_exactly_amplitude_covariant(sigma, k):
    v = sparse_magnitudes(75)
    root = luxemburg_avg(v, sigma)
    for start in (None, root, 0.9 * root, 1.1 * root, 1e-3 * root, 1e3 * root):
        base = luxemburg_solve(v, sigma, start=start)[0]
        scaled_start = None if start is None else start * 2.0**k
        assert luxemburg_solve(v * 2.0**k, sigma, start=scaled_start)[0] == base * 2.0**k, start


@pytest.mark.parametrize("k", SCALES)
def test_weak_norms_are_exactly_amplitude_covariant(k):
    out, vals = sparse_magnitudes(76), sparse_magnitudes(77)
    dx = 1.0 / 64
    assert weak_l1_norm(out * 2.0**k, dx) == weak_l1_norm(out, dx) * 2.0**k
    for exponent in (0.0, 0.5, 1.0, 2.0):
        base = weak_type_ratio(out, vals, dx, exponent)
        got = weak_type_ratio(out * 2.0**k, vals * 2.0**k, dx, exponent)
        assert base["max_ratio"] > 0.0
        assert got == {**base, "alpha": base["alpha"] * 2.0**k}, exponent


# samples away from the float range's ends, so that 2^k moves them exactly
SQFN_VALUES = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("k", SCALES)
@settings(max_examples=6, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), log2_n=st.integers(4, 9), tau=st.integers(1, 3),
       mode=st.sampled_from(["sharp", "smooth"]))
def test_sqfn_file_is_exactly_amplitude_covariant(tmp_path, capsys, k, data, log2_n, real,
                                                  tau, mode):
    n = 1 << log2_n
    values = st.lists(SQFN_VALUES, min_size=n, max_size=n).filter(any)
    samples = np.array(data.draw(values), dtype=complex)
    if not real:
        samples += 1j * np.array(data.draw(values))

    def sqfn(scale):
        path, out = tmp_path / f"in{scale}.bin", tmp_path / f"out{scale}.bin"
        sp.write_signal(path, sp.Signal(samples * scale, 16.0, -8.0))
        code = main(["sqfn", "--input", str(path), "--tau", str(tau), "--mode", mode,
                     "--output", str(out)])
        return code, json.loads(capsys.readouterr().out), sp.read_signal(out).samples

    code, summary, base = sqfn(1.0)
    got_code, got, scaled = sqfn(2.0**k)
    assert got_code == code
    assert np.array_equal(scaled, base * 2.0**k)
    for key in ("sup", "l2", "weak_l1"):
        assert got[key] == summary[key] * 2.0**k, key
    assert got["alias_events"] == summary["alias_events"]


def file_signal(seed: int, log2_n: int, density: float, real: bool, period: float) -> sp.Signal:
    """Heavy-tailed samples on ``2^log2_n`` points, a share ``density`` of them
    (one at least) nonzero, all far from the float range's ends."""
    rng = np.random.default_rng(seed)
    n = 1 << log2_n
    keep = rng.random(n) < density
    keep[rng.integers(n)] = True
    samples = rng.standard_normal(n) * np.exp(rng.standard_normal(n)) * keep
    if not real:
        samples = samples + 1j * rng.standard_normal(n) * keep
    return sp.Signal(samples, period, -period / 2)


def file_signals(periods):
    return st.builds(file_signal, seed=st.integers(0, 2**32 - 1), log2_n=st.integers(8, 10),
                     density=st.sampled_from([0.05, 0.3, 1.0]), real=st.booleans(),
                     period=st.sampled_from(periods))


def run_on_file(tmp_path, capsys, sig: sp.Signal, scale: float, argv: list) -> tuple:
    """``lacuna CMD --input FILE *argv`` on ``sig`` scaled by ``scale``:
    the exit code, the JSON summary (None when none was printed) and the
    error text."""
    path = tmp_path / f"in{scale}.bin"
    sp.write_signal(path, sig.with_samples(sig.samples * scale))
    code = main([argv[0], "--input", str(path), *argv[1:]])
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if captured.out else None, captured.err


FILE_SETTINGS = settings(max_examples=5, deadline=None, derandomize=True,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("k", SCALES)
@FILE_SETTINGS
@given(sig=file_signals([16.0, 10.0, 2.0**-20]), mode=st.sampled_from(["sharp", "smooth"]),
       band=st.sampled_from([(1.0, 2.0), (-3.25, 0.5), (0.0, 64.0), (-1e300, 1e300)]))
def test_project_file_is_exactly_amplitude_covariant(tmp_path, capsys, k, sig, mode, band):
    out = [str(tmp_path / f"out{scale}.bin") for scale in (1.0, 2.0**k)]
    argv = ["project", f"--lo={band[0]!r}", f"--hi={band[1]!r}", "--mode", mode]
    code, base, err = run_on_file(tmp_path, capsys, sig, 1.0, argv + ["--output", out[0]])
    got_code, got, got_err = run_on_file(tmp_path, capsys, sig, 2.0**k,
                                         argv + ["--output", out[1]])
    assert (got_code, got_err) == (code, err)
    assert np.array_equal(sp.read_signal(out[1]).samples,
                          sp.read_signal(out[0]).samples * 2.0**k)
    for key in ("l2_in", "l2_out"):
        assert got[key] == base[key] * 2.0**k, key
    assert {**got, "l2_in": 0, "l2_out": 0, "output": 0} == {
        **base, "l2_in": 0, "l2_out": 0, "output": 0}


@pytest.mark.parametrize("k", SCALES)
@FILE_SETTINGS
@given(sig=file_signals([16.0, 10.0, 2.0**-20]), sigma=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
       alpha=st.sampled_from([None, 0.25, 3.0]))
def test_orlicz_file_is_exactly_amplitude_covariant(tmp_path, capsys, k, sig, sigma, alpha):
    argv = ["orlicz", f"--sigma={sigma!r}"]
    code, base, err = run_on_file(tmp_path, capsys, sig, 1.0,
                                  argv + ([] if alpha is None else [f"--alpha={alpha!r}"]))
    got_code, got, got_err = run_on_file(
        tmp_path, capsys, sig, 2.0**k, argv + ([] if alpha is None else [f"--alpha={alpha * 2.0**k!r}"]))
    assert (code, err) == (got_code, got_err) == (0, "")
    # the Young mass at the scaled level keeps its value
    powers = {"n": 0, "sigma": 0, "luxemburg_avg": 1, "llogl_equiv": 1, "young_mass": 0,
              "alpha": 1}
    if sigma > 0:
        # the dual exponential norm runs through logarithms (ROADMAP: 9.1e-15)
        assert got.pop("exp_norm_dual") == pytest.approx(
            base.pop("exp_norm_dual") * 2.0**k, rel=1e-14, abs=0.0)
    assert_moves(got, base, {key: powers[key] for key in base}, k)


@pytest.mark.parametrize("k", SCALES)
@FILE_SETTINGS
@given(sig=file_signals([16.0, 2.0**-20]), sigma=st.integers(0, 2),
       mult=st.sampled_from([1.2, 2.0, 8.0]))
def test_czd_file_is_exactly_amplitude_covariant(tmp_path, capsys, k, sig, sigma, mult):
    # a level above the whole window's average, so that the stopping time runs
    alpha = mult * luxemburg_avg(np.abs(sig.samples), sigma / 2)
    parts = [tmp_path / f"dec{scale}" for scale in (1.0, 2.0**k)]
    runs = [run_on_file(tmp_path, capsys, sig, scale,
                        ["czd", f"--sigma={sigma}", f"--alpha={alpha * scale!r}",
                         "--output", str(prefix)])
            for scale, prefix in zip((1.0, 2.0**k), parts)]
    (code, base, err), (got_code, got, got_err) = runs
    assert (code, err) == (got_code, got_err) == (0, "")
    assert got["stopping"] == base["stopping"]
    assert_moves({key: got[key] for key in ("sigma", "alpha", "n", "period", "offset")},
                 {key: base[key] for key in ("sigma", "alpha", "n", "period", "offset")},
                 {"sigma": 0, "alpha": 1, "n": 0, "period": 0, "offset": 0}, k)
    assert_moves(got["constants"], base["constants"], CZD_CONSTANTS, k)
    for a, b in zip(got["atoms"], base["atoms"], strict=True):
        assert_moves(a, b, CZD_ATOM, k)
    for part in ("good", "lacunary"):
        scaled, plain = (sp.read_signal(f"{prefix}_{part}.bin").samples for prefix in parts[::-1])
        assert np.array_equal(scaled, plain * 2.0**k), part


DILATIONS = [-3, 1, 5]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def dilation_samples(real: bool) -> np.ndarray:
    rng = np.random.default_rng(78)
    samples = rng.standard_normal(1 << 10)
    return samples if real else samples + 1j * rng.standard_normal(samples.size)


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("kind", ["sharp", "eta"])
def test_band_bank_is_exactly_dilation_invariant(kind, real):
    family = interval_arrays(2, -5, 3)[-1]
    samples = dilation_samples(real)
    rng = np.random.default_rng(79)
    weights = rng.standard_normal(family.left.size)
    t = rng.uniform(-0.5, 0.5, 8)

    def outputs(k):
        period = test_spectral.TestBandBank.PERIOD * 2.0**k
        if kind == "sharp":
            bank = sp.BandBank(family.left, family.right, -5 - k, np.ones(family.left.size))
        else:
            bank = sp.eta_bank(family.left, family.right, -5 - k, "band")
        sig = sp.Signal(samples, period, -period / 2)
        flags = sp.AliasFlags()
        return {
            "combine": bank.combine(sig, flags=flags),
            "combine with weights": bank.combine(sig, weights),
            "magnitudes": bank.magnitudes(sig),
            "square": bank.square(sig),
            "square_at": bank.square_at(sig, t * period),
            "energies": bank.energies(sig) * 2.0**-k,
            "events": np.array(flags.events, dtype=str),
        }

    base = outputs(0)
    assert np.any(base["square"] > 0.0)
    for k in DILATIONS:
        got = outputs(k)
        for name in base:
            assert same_bits(got[name], base[name]), (name, k)


# the power of 2^k by which each czd constant and atom diagnostic moves when
# the period is dilated by 2^k
CZD_DILATED_CONSTANTS = {**dict.fromkeys(CZD_CONSTANTS, 0), "orlicz_mass": 1,
                         "total_stopping_length": 1, "lacunary_l2_sq": 1,
                         "atom_weighted_sq": 1}
CZD_DILATED_ATOM = {**dict.fromkeys(CZD_ATOM, 0), "x_lo": 1, "x_hi": 1, "length": 1}


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("sigma", [0, 1, 2])
def test_cz_decompose_is_exactly_dilation_invariant(sigma, real):
    # a gate 06 style member at 2^12, complex with a shifted copy as its
    # imaginary part, at 1.5 times its Luxemburg average
    rng = np.random.default_rng(74)
    samples = test_acceptance._terms_signal(test_acceptance._spiky_terms(rng), 12).samples
    if not real:
        samples = samples + 1j * np.roll(samples, 700)
    alpha = 1.5 * luxemburg_avg(np.abs(samples), sigma / 2)

    def decompose(k):
        period = 16.0 * 2.0**k
        return czd.cz_decompose(sp.Signal(samples, period, -period / 2), sigma, alpha)

    base = decompose(0)
    assert len(base.atoms) > 1
    for k in DILATIONS:
        got = decompose(k)
        assert [(j.lo, j.hi) for j in got.stopping] == [(j.lo, j.hi) for j in base.stopping]
        assert_moves(got.constants, base.constants, CZD_DILATED_CONSTANTS, k)
        for a, b in zip(got.atoms, base.atoms, strict=True):
            assert_moves(a.diagnostics, b.diagnostics, CZD_DILATED_ATOM, k)
            for part in ("cancellative", "lacunary"):
                assert same_bits(getattr(a, part).samples, getattr(b, part).samples), part
        for part in ("good", "lacunary_part"):
            assert same_bits(getattr(got, part).samples, getattr(base, part).samples), part
        assert got.good.period == base.good.period * 2.0**k


@pytest.mark.parametrize("real", [False, True])
def test_weak_type_ratio_is_exactly_dilation_invariant(real):
    samples = dilation_samples(real)

    def ratios(k):
        period = test_spectral.TestBandBank.PERIOD * 2.0**k
        sig = sp.Signal(samples, period, -period / 2)
        out = sp.lp_square_function(sig, 2, D.pow2(-3 - k), "sharp")
        return out, [weak_type_ratio(out.samples, sig.samples, sig.dx, exponent)
                     for exponent in (0.5, 1.0)]

    base_out, base = ratios(0)
    assert base[0]["max_ratio"] > 0.0 and base[0]["levels"] > 1
    for k in (-3, 5):
        out, got = ratios(k)
        assert out.dx == base_out.dx * 2.0**k
        assert same_bits(out.samples, base_out.samples)
        assert repr(got) == repr(base), k
