#!/usr/bin/env python3
"""Record one point of the benchmark trajectory in BENCH_<label>.json.

Usage (from the repository root):

    python3 scripts/bench.py --label after-change
    python3 scripts/bench.py --label try --seed 3 --seconds 5 --sizes 1000

It runs `perfbench/run.py` once per workload with `--trace 0` and once with
`--trace 1`, each in its own process, and keeps the end-to-end metrics of the
first, and of the second the per-layer metrics that BENCHMARK.json names and
the `calls` and `self_s` of every traced layer.  It then fits
seeded CSVs of each size in `--sizes` (default n = 1e3 and 1e6), one child
process to write each CSV and one to run `addspline fit` on it.  The fit child
reports the fit's wall time, the part of it spent reading the CSV and adding
up the normal-equation statistics (`read_s`), the processes that did so
(`read_workers`), and its peak resident memory, the `VmHWM` line of its own
/proc/self/status; a forked reader's memory is its own and is not counted.
`ru_maxrss` would not do: Linux carries the peak of the process that ran
exec into the new process's `ru_maxrss`, so a fit started from a large
parent would read that parent's peak.

This script imports no numpy; every measurement runs in a child process.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fit-ozone", "fit-1e5", "mc-n1000")

# y = sin(2 pi x1) + cos(pi x2)/2 + U(-1/2, 1/2), covariates on (0, 1]: the
# law of perfbench's fit-1e5 input
WRITE_CSV = """
import sys
import numpy as np
n, seed, path = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
rng = np.random.default_rng(seed)
x1 = 1.0 - rng.random(n)
x2 = 1.0 - rng.random(n)
y = np.sin(2.0 * np.pi * x1) + 0.5 * np.cos(np.pi * x2) + rng.uniform(-0.5, 0.5, n)
np.savetxt(path, np.column_stack([y, x1, x2]), fmt="%.17g", delimiter=",",
           header="y,x1,x2", comments="")
"""

# one `addspline fit`, timed in the process that runs it; read_s is its
# read-and-statistics phase: `load_csv_summarized` (the CSV read, the
# preprocessing and, for a file read in parts, the normal-equation statistics)
# plus any `NormalStatistics.of` pass outside it (a file read in one part)
RUN_FIT = """
import json, sys, time
import addspline.cli as cli
from addspline.backfit import NormalStatistics
phase, inside = [], []
def timed(fn):
    def wrapper(*args, **kwargs):
        if inside:  # a pass nested in the phase already timed
            return fn(*args, **kwargs)
        inside.append(True)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            phase.append(time.perf_counter() - start)
            inside.pop()
    return wrapper
cli.load_csv_summarized = timed(cli.load_csv_summarized)
NormalStatistics.of = classmethod(timed(NormalStatistics.of.__func__))
start = time.perf_counter()
code = cli.main(["fit", "--data", sys.argv[1], "--y", "y", "--x1", "x1", "--x2", "x2",
                 "--out", sys.argv[2]])
wall = time.perf_counter() - start
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
report = json.load(open(sys.argv[2] + "/fit_report.json"))
print(json.dumps({"exit_code": code, "wall_s": wall, "read_s": sum(phase),
                  "read_workers": report["diagnostics"]["read_workers"],
                  "peak_mb": hwm / 1024.0}))
"""


def child_env() -> dict:
    """The package from src/ and BLAS on nproc threads, as perfbench runs it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run(argv: list[str]) -> str:
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[:4])} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return proc.stdout


def perfbench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, list]:
    """(the result's JSON line, every `name value` line, the '# env' fields)."""
    out = run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)])
    lines = out.splitlines()
    values, env = {}, []
    for line in lines[:-1]:
        if line.startswith("# env "):
            # key=value fields; a value may hold spaces ("blas=openblas 0.3.27")
            env = re.findall(r"(\w+)=(.*?)(?= \w+=|$)", line[len("# env "):])
            continue
        parts = line.split()
        if len(parts) >= 2 and not line.startswith("#"):
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return json.loads(lines[-1]), values, env


def layer_stats(values: dict) -> dict:
    """Per layer: its traced `calls` and `self_s`."""
    layers: dict[str, dict] = {}
    for name, value in values.items():
        layer, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s") and not layer.startswith("trace"):
            layers.setdefault(layer, {})[stat] = value
    return dict(sorted(layers.items()))


def fit_sizes(sizes: list[int], seed: int) -> dict:
    results = {}
    with tempfile.TemporaryDirectory(prefix="addspline-bench-") as tmp:
        for n in sizes:
            data = Path(tmp) / f"n{n}.csv"
            run([sys.executable, "-c", WRITE_CSV, str(n), str(seed), str(data)])
            start = time.perf_counter()
            out = run([sys.executable, "-c", RUN_FIT, str(data), str(Path(tmp) / f"out{n}")])
            result = json.loads(out.splitlines()[-1])
            result["process_wall_s"] = time.perf_counter() - start
            results[str(n)] = result
            data.unlink()
    return results


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10, help="seconds per perfbench run")
    ap.add_argument("--sizes", type=int, nargs="*", default=[1000, 1_000_000],
                    help="sizes of the seeded fits")
    args = ap.parse_args(argv)

    report = {
        "label": args.label,
        "commit": git("rev-parse", "HEAD"),
        "tree_clean": git("status", "--porcelain", "--", "src", "perfbench") == "",
        "seed": args.seed,
        "seconds_per_run": args.seconds,
        "host": {},
        "workloads": {},
    }
    for workload in WORKLOADS:
        plain, _, env = perfbench(workload, args.seed, args.seconds, 0)
        traced_result, traced, _ = perfbench(workload, args.seed, args.seconds, 1)
        report["host"] = dict(env)
        report["workloads"][workload] = {
            "correct": plain["correct"] and traced_result["correct"],
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            # the per-layer names of BENCHMARK.json, zeros included
            "per_layer": {k: v["value"] for k, v in traced_result["metrics"].items()},
            "layers": layer_stats(traced),
        }
        print(f"{workload}: " + " ".join(
            f"{k}={v:.4g}" for k, v in report["workloads"][workload]["end_to_end"].items()))
    report["host"]["nproc"] = len(os.sched_getaffinity(0))
    report["fits"] = fit_sizes(args.sizes, args.seed)
    for n, fit in report["fits"].items():
        print(f"fit n={n}: wall {fit['wall_s']:.3f} s (read and statistics "
              f"{fit['read_s']:.3f} s in {fit['read_workers']} processes), "
              f"peak {fit['peak_mb']:.1f} MB")
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
