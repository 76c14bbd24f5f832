#!/usr/bin/env python3
"""Run the three Monte Carlo scenarios plus interval coverage and print a table.

Thin wrapper over the `addspline simulate` CLI so every run leaves the same
CSV/JSON artifacts a manual invocation would.  Scenarios:

  sim1      grid RMSE of each fitted component against its truth
  sim2      sup-norm gap between the additive fit and marginal univariate fits
  sim3      standardized joint statistic at (0.5, 0.5): mean/covariance/KS
  coverage  empirical coverage of pointwise 95% intervals

Defaults reproduce the study settings (n in {100, 1000} for sim1/sim2,
n=1000 with 1000 replications for sim3/coverage).  Use --reps to shorten.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from addspline.cli import main as cli_main


def run(outdir: Path, scenario: str, n: int, reps: int | None, seed: int, svg: bool) -> dict:
    argv = [
        "simulate", scenario,
        "--n", str(n),
        "--seed", str(seed),
        "--out", str(outdir),
    ]
    if reps is not None:  # sim1 and sim2 fit one dataset and take no --reps
        argv += ["--reps", str(reps)]
    if svg and scenario in ("sim3",):
        argv += ["--svg", str(outdir / f"{scenario}_n{n}_seed{seed}.svg")]
    code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"scenario {scenario} (n={n}) exited with code {code}")
    payload = json.loads((outdir / f"{scenario}_n{n}_seed{seed}.json").read_text())
    return payload


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="sim_results", help="output directory")
    ap.add_argument("--reps", type=int, default=1000,
                    help="Monte Carlo replications of sim3 and coverage")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--svg", action="store_true", help="write the sim3 density contour figure")
    args = ap.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    rows = []
    for n in (100, 1000):
        p = run(outdir, "sim1", n, None, args.seed, args.svg)
        rows.append(("sim1", n, f"rmse1={p['rmse'][0]:.5f} rmse2={p['rmse'][1]:.5f}"))
    for n in (100, 1000):
        p = run(outdir, "sim2", n, None, args.seed, args.svg)
        rows.append(("sim2", n, f"sup1={p['sup_diff'][0]:.5f} sup2={p['sup_diff'][1]:.5f}"))
    p = run(outdir, "sim3", 1000, args.reps, args.seed, args.svg)
    rows.append((
        "sim3", 1000,
        f"mean=({p['mean'][0]:+.4f}, {p['mean'][1]:+.4f}) "
        f"cov_diag=({p['covariance'][0][0]:.4f}, {p['covariance'][1][1]:.4f}) "
        f"ks=({p['ks_stat'][0]:.4f}, {p['ks_stat'][1]:.4f})",
    ))
    p = run(outdir, "coverage", 1000, args.reps, args.seed, args.svg)
    rows.append(("coverage", 1000, f"cover1={p['coverage'][0]:.3f} cover2={p['coverage'][1]:.3f}"))

    width = max(len(r[0]) for r in rows)
    for name, n, desc in rows:
        print(f"{name:<{width}}  n={n:<5d} {desc}")
    print(f"artifacts in {outdir}/  ({time.perf_counter() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
