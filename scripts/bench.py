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
up the normal-equation statistics (`read_s`), the part spent writing the
report, the tables and any figure (`write_s`, from the report's save to the
end of the run), the processes that read the CSV
(`read_workers`), its resident memory when that read returns
(`rss_after_read_mb`, the `VmRSS` line of its own /proc/self/status), its
peak resident memory (`peak_mb`, the `VmHWM` line; a forked reader's memory
is its own and is not counted) and the minor page faults of the fit
(`minor_faults`, `ru_minflt` of the child itself and of its reaped reader
worker, `RUSAGE_CHILDREN`, around `main`: start-up and imports not included).
`ru_maxrss` would not do: Linux carries the peak of the process that ran
exec into the new process's `ru_maxrss`, so a fit started from a large
parent would read that parent's peak.  Last it runs the Monte Carlo studies
`simulate sim3 --n 1000 --reps 1000` and `simulate coverage --n 100000
--reps 40` (seed `--seed`), one child process each, and records the study's
wall time, the processes that ran its blocks (`workers`, read from the
study's JSON), the child's `VmHWM` (`peak_mb`) and the minor page faults of the
child and its forked study worker (`minor_faults`, `RUSAGE_CHILDREN` of this
process around the child; the interpreter's start-up and imports included).

This script imports no numpy; every measurement runs in a child process.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
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
# read-and-statistics phase, `load_csv_summarized`: the CSV read, the
# preprocessing and the normal-equation statistics of every fit (and the
# residuals of a near noise-free fit, read again), write_s the time from the
# report's save to the end of the run, rss_after_read_mb this process's
# resident memory when the first read returns, and minor_faults those of the
# fit and of its reaped reader worker
RUN_FIT = """
import json, resource, sys, time
import addspline.cli as cli
def faults():
    return sum(resource.getrusage(who).ru_minflt
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
def status_mb(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key)) / 1024.0
phase, after_read = [], []
read = cli.load_csv_summarized
def timed(*args, **kwargs):
    start = time.perf_counter()
    try:
        return read(*args, **kwargs)
    finally:
        phase.append(time.perf_counter() - start)
        after_read.append(status_mb("VmRSS:"))
cli.load_csv_summarized = timed
save, saved = cli.RunReport.save, []
def timed_save(*args):
    saved.append(time.perf_counter())
    return save(*args)
cli.RunReport.save = timed_save
faults_before, start = faults(), time.perf_counter()
code = cli.main(["fit", "--data", sys.argv[1], "--y", "y", "--x1", "x1", "--x2", "x2",
                 "--out", sys.argv[2]])
end = time.perf_counter()
wall, minor_faults = end - start, faults() - faults_before
report = json.load(open(sys.argv[2] + "/fit_report.json"))
print(json.dumps({"exit_code": code, "wall_s": wall, "read_s": sum(phase),
                  "write_s": end - saved[0],
                  "read_workers": report["diagnostics"]["read_workers"],
                  "rss_after_read_mb": after_read[0], "peak_mb": status_mb("VmHWM:"),
                  "minor_faults": minor_faults}))
"""


# the Monte Carlo studies, (scenario, n, replications), at two sizes of the
# rates study: blocks of 20 replications at n = 1e3, of one at n = 1e5
STUDIES = (("sim3", 1000, 1000), ("coverage", 100_000, 40))

# one `addspline simulate`, timed in the process that runs it
RUN_SIMULATE = """
import glob, json, sys, tempfile, time
import addspline.cli as cli
with tempfile.TemporaryDirectory() as out:
    start = time.perf_counter()
    code = cli.main(["simulate", *sys.argv[1:], "--out", out])
    wall = time.perf_counter() - start
    workers = [json.load(open(f))["workers"] for f in glob.glob(out + "/*.json")]
with open("/proc/self/status") as fh:
    peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024.0
print(json.dumps({"exit_code": code, "wall_s": wall, "workers": workers[0] if workers else None,
                  "peak_mb": peak}))
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


def simulate_studies(seed: int) -> dict:
    results = {}
    for scenario, n, reps in STUDIES:
        faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        out = run([sys.executable, "-c", RUN_SIMULATE, scenario, "--n", str(n),
                   "--reps", str(reps), "--seed", str(seed)])
        result = json.loads(out.splitlines()[-1])
        result["minor_faults"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
        results[f"{scenario} n={n} reps={reps}"] = result
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
              f"{fit['read_s']:.3f} s in {fit['read_workers']} processes, writing "
              f"{fit['write_s']:.3f} s), "
              f"{fit['rss_after_read_mb']:.1f} MB after the read, peak {fit['peak_mb']:.1f} MB, "
              f"{fit['minor_faults']} minor faults")
    report["studies"] = simulate_studies(args.seed)
    for name, study in report["studies"].items():
        print(f"simulate {name}: wall {study['wall_s']:.3f} s on {study['workers']} processes, "
              f"peak {study['peak_mb']:.1f} MB, "
              f"{study['minor_faults']} minor faults")
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
