"""Real signals held as float64 against the same samples held as complex128.

A real input is stored as float64; the old path held every signal as
complex128.  Each real input below is also adopted as complex128 (the cast
is exact), and every operation must return the same bytes on both: the band
bank's operations, the square functions, the weak-type ratio, the
stopping-time decomposition (report and parts) and the signal file.  The
decomposition's good part follows the input's dtype, so it is compared
after the exact cast back to complex.

``czd.lattice_coefficients`` is the one operation that does not follow: a
single bin is a matrix-vector product whose bits depend on whether the
piece is real or complex (1.4e-17 apart at 2^10).  The package only hands
it cancellative parts, which are complex; a test pins that.
"""

import json

import numpy as np
import pytest

from lacuna import czd, harness
from lacuna import spectral as sp
from lacuna.dyadic import DyadicScalar as D
from lacuna.harness import make_config, verify_gen_zygmund_bonami, weak_type_ratio
from lacuna.multipliers import build_sharpness_family
from lacuna.orlicz import luxemburg_avg
import test_acceptance
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
            assert same_bits(call(sig), call(held)), (name, op)


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
    # the good part follows the input: float64 here, exactly the complex one
    assert got.good.samples.dtype == np.float64
    assert same_bits(got.good.samples.astype(np.complex128), want.good.samples)
    parts = [(got.lacunary_part, want.lacunary_part),
             (got.cancellative_part(), want.cancellative_part())]
    parts += [(getattr(a, p), getattr(b, p)) for a, b in zip(got.atoms, want.atoms, strict=True)
              for p in ("cancellative", "lacunary")]
    for a, b in parts:
        assert a.samples.dtype == np.complex128
        assert same_bits(a.samples, b.samples)


def test_lattice_coefficients_only_ever_see_complex_pieces(monkeypatch):
    seen = []
    real = czd.lattice_coefficients

    def recording(piece, bins):
        seen.append(piece.samples.dtype)
        return real(piece, bins)

    monkeypatch.setattr(czd, "lattice_coefficients", recording)
    monkeypatch.setattr(harness, "lattice_coefficients", recording)
    sig = gate06_member()
    for sigma in (0, 1, 2):
        czd.cz_decompose(sig, sigma, 1.5 * luxemburg_avg(np.abs(sig.samples), sigma / 2))
    assert verify_gen_zygmund_bonami(make_config({"log2_n": 9, "ensemble": 2,
                                                  "refine": False})).ok
    assert len(seen) > 3 and set(seen) == {np.dtype(np.complex128)}
