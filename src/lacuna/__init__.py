"""Lacunary interval systems, square functions, Orlicz norms, and the
verification harness for the endpoint inequalities they enter."""

__version__ = "0.1.0"

from .czd import CzDecomposition, cz_decompose, remove_lacunary
from .dyadic import DyadicScalar
from .harness import (
    ExperimentConfig,
    cww_experiment,
    decompose_experiment,
    make_config,
    sharpness_growth,
    verify_endpoint,
    verify_gen_zygmund_bonami,
    verify_hormander,
    verify_zygmund_bonami,
    weak_type_ratio,
)
from .lacunary import LacInterval, LacPointSet, lac_tau, lambda_tau
from .martingale import DyadicFunction, cww_check, decompose_quotient_norm
from .multipliers import SharpnessFamily, build_sharpness_family
from .orlicz import YoungFunction, exp_norm, luxemburg_avg
from .spectral import (
    AliasFlags,
    Signal,
    lp_square_function,
    project_sharp,
    project_smooth,
    read_signal,
    spectrum,
    synthesize,
    weak_l1_norm,
    write_signal,
)

__all__ = [
    "AliasFlags",
    "CzDecomposition",
    "DyadicFunction",
    "DyadicScalar",
    "ExperimentConfig",
    "LacInterval",
    "LacPointSet",
    "SharpnessFamily",
    "Signal",
    "YoungFunction",
    "build_sharpness_family",
    "cww_check",
    "cww_experiment",
    "cz_decompose",
    "decompose_experiment",
    "decompose_quotient_norm",
    "exp_norm",
    "lac_tau",
    "lambda_tau",
    "lp_square_function",
    "luxemburg_avg",
    "make_config",
    "project_sharp",
    "project_smooth",
    "read_signal",
    "remove_lacunary",
    "sharpness_growth",
    "spectrum",
    "synthesize",
    "verify_endpoint",
    "verify_gen_zygmund_bonami",
    "verify_hormander",
    "verify_zygmund_bonami",
    "weak_l1_norm",
    "weak_type_ratio",
    "write_signal",
    "__version__",
]
