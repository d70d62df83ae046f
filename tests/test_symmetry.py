"""Exact dyadic symmetries: scaling the samples by 2^k moves every output of
a linear or l2 operator by exactly 2^k, and every energy by exactly 2^(2k),
as long as nothing over- or underflows.

Floating-point arithmetic commutes with a power-of-two scale, so these tests
need no reference implementation.  They catch an intermediate value that
leaves the float range while the exact result stays inside it.
"""

import numpy as np
import pytest

from lacuna import spectral as sp
from lacuna.dyadic import DyadicScalar as D
from lacuna.harness import _halved_step
from lacuna.lacunary import interval_arrays
from lacuna.multipliers import build_sharpness_family, prototype_multiplier
import test_spectral

SCALES = [-30, 5, 40]


def random_signal(n, offset):
    rng = np.random.default_rng(71)
    return sp.Signal(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                     test_spectral.TestBandBank.PERIOD, offset)


def sharpness_case():
    fam = build_sharpness_family(5, 12)
    return fam.bank, fam.f_n


def step_case(kind):
    # the verify operators' step multipliers at tau 3, on 2^10 samples of period 8
    args = (3, D.pow2(-6), D.pow2(4))
    rng = np.random.default_rng(73)
    if kind == "prototype":
        bank = prototype_multiplier(*args, rng=rng)
    else:
        bank = _halved_step(interval_arrays(*args)[-1], -6, rng)
    return bank, random_signal(1 << 10, -4.0)


CASES = {
    "sharp": lambda: (test_spectral.family_bank("sharp"), random_signal(1 << 10, 0.0)),
    "eta": lambda: (test_spectral.family_bank("eta"), random_signal(1 << 10, -4.0)),
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
