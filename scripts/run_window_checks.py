#!/usr/bin/env python3
"""Coefficient-embedding and localized block checks over a small parameter
grid."""

import argparse
import pathlib
import sys
import time

from lacuna.harness import (
    make_config,
    save_report_json,
    verify_gen_zygmund_bonami,
    verify_zygmund_bonami,
)

ap = argparse.ArgumentParser(description=__doc__)
ap.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("results"))
ap.add_argument("--log2-n", type=int, default=11)
args = ap.parse_args()
outdir, log2_n = args.outdir, args.log2_n
outdir.mkdir(parents=True, exist_ok=True)

failures = 0
for tau in (1, 2):
    cfg = make_config({"log2_n": log2_n, "ensemble": 8, "tau": tau, "seed": 7})
    t0 = time.time()
    rep = verify_zygmund_bonami(cfg)
    save_report_json(rep, outdir / f"zb_tau{tau}.json")
    print(f"  zb            tau={tau}       {'ok' if rep.ok else 'FAIL'} "
          f"max={rep.max_ratio:.4g}  ({time.time()-t0:.1f}s)")
    failures += not rep.ok

for tau in (1, 2):
    for sigma in (0, 1):
        cfg = make_config({"log2_n": log2_n, "ensemble": 6, "tau": tau,
                           "sigma": sigma, "seed": 7})
        t0 = time.time()
        rep = verify_gen_zygmund_bonami(cfg)
        save_report_json(rep, outdir / f"genzb_tau{tau}_sigma{sigma}.json")
        print(f"  genzb         tau={tau} sig={sigma} {'ok' if rep.ok else 'FAIL'} "
              f"max={rep.max_ratio:.4g}  ({time.time()-t0:.1f}s)")
        failures += not rep.ok

sys.exit(1 if failures else 0)
