#!/usr/bin/env python3
"""Run the distribution-bound experiments for every operator kind and save
one JSON report per operator."""

import argparse
import pathlib
import sys
import time

from lacuna.harness import (
    ENDPOINT_OPERATORS,
    HORMANDER_OPERATORS,
    make_config,
    save_report_csv,
    save_report_json,
    verify_endpoint,
    verify_hormander,
)

ap = argparse.ArgumentParser(description=__doc__)
ap.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("results"))
ap.add_argument("--log2-n", type=int, default=12)
ap.add_argument("--ensemble", type=int, default=12)
ap.add_argument("--seed", type=int, default=7)
args = ap.parse_args()
outdir = args.outdir
outdir.mkdir(parents=True, exist_ok=True)

cfg = make_config({"log2_n": args.log2_n, "ensemble": args.ensemble,
                   "n_levels": 24, "seed": args.seed})
print(f"grid 2^{cfg.log2_n}, ensemble {cfg.ensemble}, refinement on")

failures = 0
for kind in ENDPOINT_OPERATORS:
    t0 = time.time()
    rep = verify_endpoint(cfg, kind)
    save_report_json(rep, outdir / f"endpoint_{kind}.json")
    save_report_csv(rep, outdir / f"endpoint_{kind}.csv")
    status = "ok" if rep.ok else "FAIL"
    print(f"  endpoint/{kind:<10} {status}  max={rep.max_ratio:.4g} "
          f"drift={rep.refinement.get('max_drift', 0):.3f}  ({time.time()-t0:.1f}s)")
    failures += not rep.ok

for kind in HORMANDER_OPERATORS:
    t0 = time.time()
    rep = verify_hormander(cfg, kind)
    save_report_json(rep, outdir / f"hormander_{kind}.json")
    status = "ok" if rep.ok else "FAIL"
    print(f"  hormander/{kind:<11} {status}  max={rep.max_ratio:.4g} "
          f"drift={rep.refinement.get('max_drift', 0):.3f}  ({time.time()-t0:.1f}s)")
    failures += not rep.ok

sys.exit(1 if failures else 0)
