"""Real signals held as float64 against the same samples held as complex128.

A real input is stored as float64; the old path held every signal as
complex128.  Each real input below is also adopted as complex128 (the cast
is exact).  ``combine``, ``magnitudes`` and ``energies`` read the float64
holding's coefficients from one ``rfft`` and the complex128 holding's from
the complex ``fft`` (``spectral.coefficients`` switches on the dtype), so
they agree within 1e-14 of the peak.  Everything else gives the same bytes
on both: the symbol, which takes no transform; ``square``, ``square_at``
and the square functions, which read real data in either holding from one
``rfft`` (``spectral.real_data``); the weak-type ratio, the stopping-time
decomposition (report and parts) and the signal file.  The decomposition's
good part follows the input's dtype, so it is compared after the exact cast
back to float64.

Real data, held either way, is decomposed by real transforms, and every
part it hands out is float64: each atom is split by one ``rfft``/``irfft``
pair, and its certificate, ``czd.lattice_coefficients`` on a float64
piece, reads every bin from one ``rfft``.  That certificate is checked
against ``test_czd.windowed_coefficient`` and against
``test_czd.reference_lattice_coefficients`` on the complex cast
(see the reference ledger of ``test_czd``), within 1e-14 of the peak
coefficient.
"""

import json

import numpy as np
import pytest

from lacuna import czd
from lacuna import spectral as sp
from lacuna.dyadic import DyadicScalar as D
from lacuna.harness import weak_type_ratio
from lacuna.multipliers import build_sharpness_family
from lacuna.orlicz import luxemburg_avg
import test_acceptance
import test_czd
import test_spectral


def real_inputs():
    """``(label, float64 signal)``: dense, sparse, the sharpness family's f_N
    and g_N, and a zero signal."""
    rng = np.random.default_rng(90)
    n = 1 << 10
    fam = build_sharpness_family(5, 12)
    return [
        ("normal", sp.Signal(rng.standard_normal(n), 8.0, -4.0)),
        ("sparse", sp.Signal(rng.pareto(1.5, n) * (rng.random(n) < 0.3), 8.0, 0.0)),
        ("f_n", fam.f_n),
        ("g_n", fam.g_n),
        ("zero", sp.Signal(np.zeros(n), 8.0, -4.0)),
    ]


def as_complex(sig: sp.Signal) -> sp.Signal:
    return sp.Signal._adopt(sig.samples.astype(np.complex128), sig.period, sig.offset)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def close(got, want) -> bool:
    """Within 1e-14 of the peak of ``want``, in the same shape."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(
        np.max(np.abs(got - want), initial=0.0) <= 1e-14 * np.max(np.abs(want), initial=0.0))


INPUTS = real_inputs()
IDS = [label for label, _ in INPUTS]


def banks():
    return {"sharp": test_spectral.family_bank("sharp"),
            "eta": test_spectral.family_bank("eta"),
            "sharpness": build_sharpness_family(5, 12).bank}


@pytest.mark.parametrize("label, sig", INPUTS, ids=IDS)
def test_real_input_is_held_as_float64(label, sig):
    assert sig.samples.dtype == np.float64
    assert as_complex(sig).samples.dtype == np.complex128
    # a complex array with every imaginary part +0.0 is real; a -0.0 is not
    assert sp.Signal(sig.samples + 0j, sig.period).samples.dtype == np.float64
    negative_zero = sig.samples.astype(np.complex128)
    negative_zero.imag = -0.0
    assert same_bits(sp.Signal(negative_zero, sig.period).samples, negative_zero)


@pytest.mark.parametrize("label, sig", INPUTS, ids=IDS)
def test_band_bank_operations_match_the_complex_path(label, sig):
    held = as_complex(sig)
    rng = np.random.default_rng(91)
    cols = np.abs(sig.x) < 1.0
    xs = np.concatenate([sig.x[[3, 200, 700]], rng.uniform(-sig.period / 2, sig.period / 2, 8)])
    for name, bank in banks().items():
        weights = rng.standard_normal(bank.lo.size)
        ops = {
            "symbol": lambda s: bank.symbol(s, weights),
            "combine": lambda s: bank.combine(s),
            "combine with weights": lambda s: bank.combine(s, weights),
            "square": lambda s: bank.square(s),
            "energies": lambda s: bank.energies(s),
            "square_at": lambda s: bank.square_at(s, xs),
            "magnitudes": lambda s: bank.magnitudes(s),
            "magnitudes on columns": lambda s: bank.magnitudes(s, cols),
        }
        for op, call in ops.items():
            got, want = call(sig), call(held)
            if op.startswith(("combine", "magnitudes", "energies")):
                assert close(got, want), (name, op)
            else:
                assert same_bits(got, want), (name, op)


@pytest.mark.parametrize("label, sig", INPUTS, ids=IDS)
def test_square_functions_and_weak_ratio_match_the_complex_path(label, sig):
    held = as_complex(sig)
    for mode in ("sharp", "smooth"):
        for order in (1, 2):
            want = sp.lp_square_function(held, order, D.pow2(-3), mode)
            got = sp.lp_square_function(sig, order, D.pow2(-3), mode)
            assert same_bits(got.samples, want.samples), (mode, order)
            for exponent in (0.5, 1.0):
                ratios = [weak_type_ratio(got.samples, s.samples, s.dx, exponent, 12)
                          for s in (sig, held)]
                assert repr(ratios[0]) == repr(ratios[1]), (mode, order, exponent)


@pytest.mark.parametrize("label, sig", INPUTS, ids=IDS)
def test_signal_file_matches_the_complex_path(label, sig, tmp_path):
    centered = sp.Signal(sig.samples, sig.period, -sig.period / 2)
    paths = [tmp_path / "real.bin", tmp_path / "complex.bin"]
    for path, s in zip(paths, (centered, as_complex(centered))):
        sp.write_signal(path, s)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    back = sp.read_signal(paths[1])
    assert same_bits(back.samples, centered.samples)


def gate06_member():
    rng = np.random.default_rng(92)
    return test_acceptance._terms_signal(test_acceptance._spiky_terms(rng), 12)


@pytest.mark.parametrize("sigma", [0, 1, 2])
def test_cz_decompose_matches_the_complex_path(sigma):
    sig = gate06_member()
    alpha = 1.5 * luxemburg_avg(np.abs(sig.samples), sigma / 2)
    got = czd.cz_decompose(sig, sigma, alpha)
    want = czd.cz_decompose(as_complex(sig), sigma, alpha)
    assert got.atoms
    assert json.dumps(got.to_json_dict()).encode() == json.dumps(want.to_json_dict()).encode()
    # both take the real path: the good part follows the input's dtype, and
    # every other part is float64
    assert same_bits(got.good.samples, want.good.samples.real)
    parts = [(got.lacunary_part, want.lacunary_part),
             (czd.cz_split(sig, sigma, alpha).cancellative_part(),
              czd.cz_split(as_complex(sig), sigma, alpha).cancellative_part())]
    parts += [(getattr(a, p), getattr(b, p)) for a, b in zip(got.atoms, want.atoms, strict=True)
              for p in ("cancellative", "lacunary")]
    for a, b in parts:
        assert a.samples.dtype == np.float64
        assert same_bits(a.samples, b.samples)


def raising(*args, **kwargs):
    raise AssertionError("a complex FFT on the real path")


def test_real_input_makes_no_complex_fft(monkeypatch):
    sig = gate06_member()
    alphas = [1.5 * luxemburg_avg(np.abs(sig.samples), sigma / 2) for sigma in (0, 1, 2)]
    monkeypatch.setattr(czd.np.fft, "fft", raising)
    monkeypatch.setattr(czd.np.fft, "ifft", raising)
    for held in (sig, as_complex(sig)):
        for sigma, alpha in enumerate(alphas):
            dec = czd.cz_decompose(held, sigma, alpha)
            assert dec.atoms
            parts = test_czd.signals_of(dec)
            parts = parts[1:] if held is not sig else parts
            assert {part.samples.dtype for part in parts} == {np.dtype(np.float64)}
    modulated = sig.with_samples(sig.samples * np.exp(2j * np.pi * 3 * sig.x))
    with pytest.raises(AssertionError, match="a complex FFT on the real path"):
        czd.cz_decompose(modulated, 1, alphas[1])


def test_lattice_coefficients_of_real_pieces():
    """The certificate of a float64 piece against the complex cast's
    quadrature within 1e-14 of the peak coefficient, and against the direct
    sum within ``max(1e-14, pi n eps)`` of it: the direct sum's phases reach
    ``n/4`` turns and carry a rounding error of about ``pi n eps`` radians
    (it was 4.6e-12 of the peak at 2^16).  A bin-0-only set, and 2^0 to
    2^16 samples."""
    rng = np.random.default_rng(93)
    for log2_n in range(17):
        n = 1 << log2_n
        period = 2.0 ** (log2_n - 8)
        piece = sp.Signal(rng.standard_normal(n), period, -period / 2)
        held = as_complex(piece)
        sets = [np.array([0])] + [czd.lacunary_bins(n, sigma) for sigma in (1, 2, 3)]
        for bins in sets:
            want = test_czd.reference_lattice_coefficients(held, bins)
            got = czd.lattice_coefficients(piece, bins)
            assert got.dtype == np.complex128 and got.shape == bins.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (n, bins.size)
            # the direct sum differs from both by the window start's phase
            shift = np.exp(-2j * np.pi * piece.offset * bins / period)
            pick = np.unique(rng.choice(bins.size, size=min(bins.size, 6)))
            direct = [test_czd.windowed_coefficient(piece, bins[i] / period) for i in pick]
            err = np.max(np.abs(shift[pick] * got[pick] - direct))
            assert err <= max(1e-14, np.pi * n * 2.0**-52) * np.max(np.abs(want)), n
