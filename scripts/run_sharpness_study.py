#!/usr/bin/env python3
# Growth study along the dilated second-order family.  The band must hold
# the largest parameter (2^{N+2} <= 2^{log2_n}/(2*period)), so the default
# grid here is 2^18, which admits N up to 11.

import argparse
import pathlib
import sys
import time

from lacuna.harness import make_config, save_report_csv, save_report_json, sharpness_growth

ap = argparse.ArgumentParser(description=__doc__)
ap.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("results"))
ap.add_argument("--log2-n", type=int, default=18)
ap.add_argument("--khintchine", type=int, default=64)
args = ap.parse_args()
outdir = args.outdir
outdir.mkdir(parents=True, exist_ok=True)
cfg = make_config({"log2_n": args.log2_n, "n_min": 2, "n_max": 13,
                   "khintchine": args.khintchine, "n_levels": 40, "seed": 7})

t0 = time.time()
rep = sharpness_growth(cfg)
save_report_json(rep, outdir / "sharpness.json")
save_report_csv(rep, outdir / "sharpness.csv")

for row in rep["rows"]:
    extra = f" rand_max={row['weak_rand_max']:.4g}" if "weak_rand_max" in row else ""
    print(f"  N={row['n']:>2}  weak={row['weak_det']:.4g}{extra} "
          f"llogl/N={row['llogl_over_n']:.3f} cmin={row['cmin']:.4f} "
          f"ratio_weak={row['ratio_weak']:.4g}")
print(f"slope={rep.get('slope_det', float('nan')):.3f} "
      f"growth_weak={rep.get('growth_weak', float('nan')):.2f} "
      f"c*={rep.get('c_star', float('nan')):.4f} "
      f"ok={rep['ok']}  ({time.time()-t0:.1f}s)")
sys.exit(0 if rep["ok"] else 1)
