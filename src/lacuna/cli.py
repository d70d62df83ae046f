"""Command line front end.

Subcommands fall in two groups: small file-to-file utilities over the binary
signal format (``lacunary``, ``project``, ``sqfn``, ``orlicz``, ``czd``,
``decompose``) and the seeded experiment drivers (``cww``, ``verify``,
``sharpness``).  Experiment parameters resolve as defaults, then a
``--config`` file of flat ``key = value`` lines, then explicit flags.

Exit status: 0 on success, 1 when an experiment's ``ok`` gate fails, an
input is rejected or a ``czd`` certificate constant or ``orlicz`` result is
not finite, 2 for usage errors (argparse, a sigma or ``verify`` exponent outside
[0, MAX_SIGMA], a tau outside [0, MAX_TAU], a ``verify`` flag the experiment
does not take, an enumeration over a ``lacunary`` budget, a ``lacunary`` point
that no float holds exactly, a non-finite ``--max-abs``, ``--lo`` or ``--hi``)
and for unreadable or malformed input files or a complex ``decompose`` input.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .czd import cz_decompose, young_mass
from .dyadic import DyadicScalar
from .harness import (
    ENDPOINT_OPERATORS,
    HORMANDER_OPERATORS,
    MAX_SIGMA,
    cww_experiment,
    decompose_experiment,
    make_config,
    parse_config,
    report_payload,
    report_to_json,
    save_report_csv,
    sharpness_growth,
    verify_endpoint,
    verify_gen_zygmund_bonami,
    verify_hormander,
    verify_zygmund_bonami,
)
from .lacunary import LacInterval, interval_to_line, lac_tau, lambda_tau
from .orlicz import exp_norm, llogl_avg_equiv, luxemburg_avg
from .spectral import (
    AliasFlags,
    lp_square_function,
    project_sharp,
    project_smooth,
    read_signal,
    rms,
    weak_l1_norm,
    write_signal,
)

__all__ = ["main"]

# a point of more than 20 non-adjacent digits lies past 2^40, where every
# lattice is over ``lacunary.MAX_LACUNARY_TERMS``, and a nonempty interval
# system of order 21 holds 2^21 side choices, over ``MAX_LACUNARY_INTERVALS``
MAX_TAU = 20


def _emit(text: str, out) -> None:
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- experiment configuration plumbing ------------------------------------

_CONFIG_FLAGS = (
    ("--log2-n", "log2_n", int, "samples per window as a power of two"),
    ("--period", "period", float, "window length (a power of two)"),
    ("--tau", "tau", int, "lacunary order"),
    ("--sigma", "sigma", int, "Orlicz exponent parameter"),
    ("--n-levels", "n_levels", int, "threshold levels per ratio"),
    ("--seed", "seed", int, "base RNG seed"),
    ("--ensemble", "ensemble", int, "number of sample signals"),
    ("--min-scale-log2", "min_scale_log2", int, "log2 of the smallest block"),
    ("--gamma", "gamma", float, "window dilation factor"),
    ("--n-min", "n_min", int, "smallest family parameter"),
    ("--n-max", "n_max", int, "largest family parameter"),
    ("--khintchine", "khintchine", int, "random-sign draws (0 disables)"),
    ("--threads", "threads", int, "accepted and ignored: experiments run serially"),
)


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat key = value overrides")
    for flag, dest, kind, help_text in _CONFIG_FLAGS:
        parser.add_argument(flag, dest=dest, type=kind, default=None, help=help_text)
    parser.add_argument("--refine", dest="refine", default=None,
                        action=argparse.BooleanOptionalAction,
                        help="re-measure on a 4x finer grid and report drift")
    parser.add_argument("--out", metavar="FILE", default=None, help="write the JSON report here")
    parser.add_argument("--csv", metavar="FILE", default=None, help="also write per-row CSV")


def _resolve_config(args: argparse.Namespace):
    file_layer = parse_config(args.config) if args.config else {}
    flag_layer = {dest: getattr(args, dest) for _, dest, _, _ in _CONFIG_FLAGS}
    flag_layer["refine"] = args.refine
    return make_config(file_layer, flag_layer)


def _finish_experiment(report, args: argparse.Namespace) -> int:
    payload = report_payload(report)
    _emit(report_to_json(payload), args.out)
    if args.csv:
        save_report_csv(payload, args.csv)
    return 0 if payload.get("ok") else 1


# -- file utilities ---------------------------------------------------------


def _require_in(name: str, value: float, lowest: int, highest: int) -> None:
    if not lowest <= value <= highest:
        raise ValueError(f"{name} must lie in [{lowest}, {highest}]")


def _require_finite(label: str, values: dict) -> int:
    """Exit status 1, naming the fields, when a float in ``values`` is not finite."""
    bad = sorted(key for key, val in values.items()
                 if isinstance(val, float) and not math.isfinite(val))
    if bad:
        sys.stderr.write(f"{label} not finite: {', '.join(bad)}\n")
        return 1
    return 0


def _exact(flag: str, value: float) -> DyadicScalar:
    # the exact parses take any finite float; name the flag of any other
    if not math.isfinite(value):
        raise ValueError(f"{flag} must be finite, got {value!r}")
    return DyadicScalar.from_float(value)


def _require_floats(points) -> None:
    # a point no float holds would print rounded: onto a neighbour, or 0.0
    if any(p.exponent < -1074 for p in points):
        raise ValueError("points finer than 2^-1074 are not floats: "
                         "raise --min-scale-log2 to -1074 or more")
    if any(abs(p.mantissa).bit_length() > 53 for p in points):
        raise ValueError("points of more than 53 significant bits are not floats: "
                         "lower --max-abs to at most 2^53 times the smallest scale")


def _cmd_lacunary(args: argparse.Namespace) -> int:
    _require_in("tau", args.tau, int(args.intervals), MAX_TAU)
    min_scale = DyadicScalar.pow2(args.min_scale_log2)
    max_abs = _exact("--max-abs", args.max_abs)
    payload: dict = {
        "tau": args.tau,
        "min_scale_log2": args.min_scale_log2,
        "max_abs": args.max_abs,
    }
    if args.intervals:
        fam = lambda_tau(args.tau, min_scale, max_abs)
        payload["count"] = len(fam)
        payload["intervals"] = [interval_to_line(piece) for piece in fam]
    else:
        pts = lac_tau(args.tau, min_scale, max_abs)
        _require_floats(pts.points)
        payload["count"] = len(pts.points)
        payload["points"] = [float(p) for p in pts.points]
    _emit(report_to_json(payload), args.out)
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    sig = read_signal(args.input)
    lo = _exact("--lo", args.lo)
    hi = _exact("--hi", args.hi)
    band = LacInterval(lo, hi, 1, lo, None)
    flags = AliasFlags()
    if args.mode == "sharp":
        out = project_sharp(sig, band, flags)
    else:
        out = project_smooth(sig, band, flags=flags)
    if args.output:
        write_signal(args.output, out)
    summary = {
        "n": sig.n,
        "period": sig.period,
        "mode": args.mode,
        "band": [args.lo, args.hi],
        # sqrt(dx sum |f|^2), with no square past the float range
        "l2_in": math.sqrt(sig.period) * rms(sig.samples),
        "l2_out": math.sqrt(out.period) * rms(out.samples),
        "alias_events": flags.events,
        "output": args.output,
    }
    _emit(report_to_json(summary), args.out)
    return _require_finite("project: summary", summary) or int(flags.aliased)


def _cmd_sqfn(args: argparse.Namespace) -> int:
    _require_in("tau", args.tau, 1, MAX_TAU)
    sig = read_signal(args.input)
    flags = AliasFlags()
    min_scale = DyadicScalar.pow2(args.min_scale_log2)
    max_abs = _exact("--max-abs", args.max_abs) if args.max_abs is not None else None
    out = lp_square_function(sig, args.tau, min_scale, args.mode, max_abs, flags=flags)
    if args.output:
        write_signal(args.output, out)
    vals = np.abs(out.samples)
    summary = {
        "n": sig.n,
        "tau": args.tau,
        "mode": args.mode,
        "sup": float(vals.max()),
        "l2": math.sqrt(out.period) * rms(out.samples),
        "weak_l1": weak_l1_norm(vals, out.dx),
        "alias_events": flags.events,
        "output": args.output,
    }
    _emit(report_to_json(summary), args.out)
    return _require_finite("sqfn: summary", summary) or int(flags.aliased)


def _cmd_orlicz(args: argparse.Namespace) -> int:
    _require_in("sigma", args.sigma, 0, MAX_SIGMA)
    sig = read_signal(args.input)
    vals = np.abs(sig.samples)
    payload = {
        "n": sig.n,
        "sigma": args.sigma,
        "luxemburg_avg": luxemburg_avg(vals, args.sigma),
        "llogl_equiv": llogl_avg_equiv(vals, args.sigma),
    }
    if args.sigma > 0:
        payload["exp_norm_dual"] = exp_norm(vals, args.sigma)
    if args.alpha is not None:
        payload["young_mass"] = young_mass(sig, args.sigma, args.alpha)
        payload["alpha"] = args.alpha
    _emit(report_to_json(payload), args.out)
    return _require_finite("orlicz: result", payload)


def _cmd_czd(args: argparse.Namespace) -> int:
    _require_in("sigma", args.sigma, 0, MAX_SIGMA)
    sig = read_signal(args.input)
    try:
        dec = cz_decompose(sig, args.sigma, args.alpha, min_margin=args.min_margin)
    except ValueError as err:
        sys.stderr.write(f"czd: {err}\n")
        return 1
    text = report_to_json(dec)
    if args.output:
        prefix = Path(args.output)
        _emit(text, prefix.with_suffix(".json"))
        write_signal(f"{prefix}_good.bin", dec.good)
        write_signal(f"{prefix}_lacunary.bin", dec.lacunary_part)
    _emit(text, args.out)
    return _require_finite("czd: certificate", dec.constants)


def _cmd_decompose(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    samples = None
    if args.input:
        samples = read_signal(args.input).samples
        if samples.dtype.kind == "c":
            raise ValueError(f"{args.input} has a nonzero imaginary part; decompose is real")
    return _finish_experiment(decompose_experiment(cfg, samples), args)


# -- experiments ------------------------------------------------------------


def _cmd_cww(args: argparse.Namespace) -> int:
    return _finish_experiment(cww_experiment(_resolve_config(args)), args)


_VERIFY = {"endpoint": verify_endpoint, "hormander": verify_hormander,
           "zygmund-bonami": verify_zygmund_bonami, "gen-zygmund-bonami": verify_gen_zygmund_bonami}


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    # unset flags take the experiment's defaults; an empty --operator is a name
    given = {k: getattr(args, k) for k in ("operator", "exponent") if getattr(args, k) is not None}
    if given and args.experiment not in ("endpoint", "hormander"):
        raise ValueError(f"{args.experiment} takes no --{next(iter(given))}")
    return _finish_experiment(_VERIFY[args.experiment](cfg, **given), args)


def _cmd_sharpness(args: argparse.Namespace) -> int:
    return _finish_experiment(sharpness_growth(_resolve_config(args)), args)


# -- parser -----------------------------------------------------------------


@functools.cache  # built once per process: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lacuna",
        description="higher-order lacunary systems, endpoint square functions, "
                    "and their verification experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lacunary", help="enumerate a lacunary point set or interval system")
    p.add_argument("--tau", type=int, default=2)
    p.add_argument("--min-scale-log2", type=int, default=-6)
    p.add_argument("--max-abs", type=float, default=64.0)
    p.add_argument("--intervals", action="store_true", help="emit the interval system")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_lacunary)

    p = sub.add_parser("project", help="band-project a stored signal")
    p.add_argument("--input", required=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--mode", choices=("sharp", "smooth"), default="sharp")
    p.add_argument("--output", default=None, help="write the projected signal here")
    p.add_argument("--out", default=None, help="write the JSON summary here")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("sqfn", help="square function of a stored signal")
    p.add_argument("--input", required=True)
    p.add_argument("--tau", type=int, default=2)
    p.add_argument("--mode", choices=("sharp", "smooth"), default="sharp")
    p.add_argument("--min-scale-log2", type=int, default=-6)
    p.add_argument("--max-abs", type=float, default=None)
    p.add_argument("--output", default=None, help="write the aggregate signal here")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sqfn)

    p = sub.add_parser("orlicz", help="Orlicz averages of a stored signal")
    p.add_argument("--input", required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=None, help="also report the Young mass at this threshold")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_orlicz)

    p = sub.add_parser("czd", help="stopping-time decomposition of a stored signal")
    p.add_argument("--input", required=True)
    p.add_argument("--sigma", type=int, default=1)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--min-margin", type=float, default=None)
    p.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    p.add_argument("--output", default=None, help="save parts under this path prefix")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_czd)

    p = sub.add_parser("cww", help="sign-martingale tail and norm experiment")
    _add_config_args(p)
    p.set_defaults(func=_cmd_cww)

    p = sub.add_parser("decompose", help="run the quotient-norm decomposition solver")
    p.add_argument("--input", default=None, help="optional stored real signal")
    _add_config_args(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", help="run a verification experiment")
    p.add_argument("experiment", choices=tuple(_VERIFY))
    p.add_argument("--operator", default=None,
                   help=f"endpoint: {', '.join(ENDPOINT_OPERATORS)}; "
                        f"hormander: {', '.join(HORMANDER_OPERATORS)}")
    p.add_argument("--exponent", type=float, default=None,
                   help="override the Young exponent in the bound")
    _add_config_args(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sharpness", help="growth study along the dilated family")
    _add_config_args(p)
    p.set_defaults(func=_cmd_sharpness)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        sys.stderr.write(f"lacuna: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
