#!/usr/bin/env python3
"""Sign-martingale tails and the decomposition solver over a sigma grid."""

import argparse
import pathlib
import sys
import time

from lacuna.harness import cww_experiment, decompose_experiment, make_config, save_report_json

ap = argparse.ArgumentParser(description=__doc__)
ap.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("results"))
ap.add_argument("--log2-n", type=int, default=12)
ap.add_argument("--ensemble", type=int, default=20)
args = ap.parse_args()
outdir, log2_n = args.outdir, args.log2_n
outdir.mkdir(parents=True, exist_ok=True)

failures = 0
for sigma in (0, 1, 2):
    cfg = make_config({"log2_n": log2_n, "ensemble": args.ensemble, "sigma": sigma, "seed": 7})
    t0 = time.time()
    rep = cww_experiment(cfg)
    save_report_json(rep, outdir / f"cww_sigma{sigma}.json")
    print(f"  cww       sigma={sigma} {'ok' if rep['ok'] else 'FAIL'} "
          f"excess={rep['max_tail_excess']:.2e} "
          f"max_ratio={rep['max_cww_ratio']:.3f}  ({time.time()-t0:.1f}s)")
    failures += not rep["ok"]

for sigma in (0, 1):
    cfg = make_config({"log2_n": min(log2_n, 10), "sigma": sigma, "seed": 7})
    t0 = time.time()
    rep = decompose_experiment(cfg)
    save_report_json(rep, outdir / f"decompose_sigma{sigma}.json")
    print(f"  decompose sigma={sigma} {'ok' if rep['ok'] else 'FAIL'} "
          f"improve={rep['improvement']:.2e} iters={rep['iterations']} "
          f"converged={rep['converged']}  ({time.time()-t0:.1f}s)")
    failures += not rep["ok"]

sys.exit(1 if failures else 0)
