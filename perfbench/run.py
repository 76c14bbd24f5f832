"""Benchmark of the addspline CLI: `fit` on the ozone data and on n=1e5, and the sim3/coverage studies.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit-ozone --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

The metric names and units come from BENCHMARK.json next to this directory.
`--trace 0` reports the end-to-end metrics:

* setup_s: seconds a fresh interpreter takes to import `addspline.cli`,
  the median of three interpreters (two import-only, plus the worker);
* op_s: wall seconds of the run's fastest operation (best of N, as timeit
  reports it): one in-process `addspline fit` from CSV to written outputs, or
  one `simulate sim3 --svg` plus `simulate coverage` pair of MC_REPS
  replications each;
* peak_rss_mb: `ru_maxrss` of the worker after its first operation.

The lines before the result restate these under the names an analyst or a
simulation user reads (fit_s, fit_s_p90, mc_reps_per_s, failure_ratio), each
with its unit and sample count, plus the run environment.

`--trace 1` reports the per-layer metrics `<module>.<callable>.<stat>` from
spans recorded by perfbench/tracing.py: calls, self_s and total_s are medians
over traced operations, `.peak_mb` comes from one operation under tracemalloc,
and trace.* compares traced with untraced operations of the same run.  The
spans of the last traced run of a workload are kept in
.perfbench/spans-<workload>.jsonl as [op, layer, parent, start, end] lines.

Every operation's outputs are checked against perfbench/references.json
(see workloads.py); the run exits 1 if any check fails.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

TIME_LIMIT_S = 170.0
SETUP_CHILDREN = 2
IMPORT_ONLY = (
    "import time; t = time.perf_counter(); import addspline.cli; "
    "print(time.perf_counter() - t)"
)


def child_env() -> dict:
    """Environment of the child processes: the package from src/, BLAS on nproc threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class BenchError(Exception):
    """The benchmark could not run or measure; no result is printed."""


def run_child(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before a child process could start")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child process timed out: {argv[1:3]}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child process failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return proc


def measure(name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    """Run one workload in a worker process and return the worker's result."""
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=base))
    try:
        spec = workloads.make_inputs(name, seed, work)
        spec.update(out=str(work / "out"), seconds=seconds, trace=trace,
                    spans=str(base / f"spans-{name}.jsonl"))
        (work / "spec.json").write_text(json.dumps(spec))
        setup = []
        if not trace:
            for _ in range(SETUP_CHILDREN):
                proc = run_child([sys.executable, "-c", IMPORT_ONLY], deadline)
                setup.append(float(proc.stdout.strip().splitlines()[-1]))
        run_child([sys.executable, str(HERE / "worker.py"), str(work / "spec.json"),
                   str(work / "result.json")], deadline)
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_samples"] = setup + [result["setup_s"]]
    return result


def op_seconds(times: list[float]) -> float:
    """The fastest operation's wall time.

    On a shared 2-vCPU cloud VM the CPU speed was seen to swing by up to 1.7x
    over seconds to minutes, which makes the times of short operations bimodal:
    their median jumps between the modes with the share of time the host was
    slow, while interference only ever adds time to an operation.
    """
    return min(times)


def end_to_end(result: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(result["setup_samples"]),
        "op_s": op_seconds(result["op_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict) -> dict[str, float]:
    """Every per-layer value the traced run yields, keyed by metric name."""
    out: dict[str, float] = {}
    per_op = result["per_op"]
    layers = {layer for op in per_op for layer in op["layers"]}
    for layer in layers:
        for stat in ("calls", "self_s", "total_s"):
            out[f"{layer}.{stat}"] = statistics.median(
                op["layers"].get(layer, {}).get(stat, 0) for op in per_op)
    for counter in {c for op in per_op for c in op["counts"]}:
        out[counter] = statistics.median(op["counts"].get(counter, 0) for op in per_op)
    for layer, peak in result["peak_bytes"].items():
        out[f"{layer}.peak_mb"] = peak / 2**20
    plain, traced = op_seconds(result["op_s"]), op_seconds(result["traced_op_s"])
    out.update({"trace.op_s_untraced": plain, "trace.op_s_traced": traced,
                "trace.overhead_s": traced - plain})
    return out


def header_lines(name: str, seed: int, result: dict) -> list[str]:
    """The workload, its input, the run environment and the failure ratio."""
    w = workloads.WORKLOADS[name]
    env = " ".join(f"{k}={v}" for k, v in result["env"].items())
    unit = "replications" if w.kind == "mc" else "fits"
    return [
        f"# {name}  seed={seed} input={workloads.data_key(name, seed)} "
        f"n={w.n} K={w.num_intervals} q={w.num_coef}",
        f"# env {env}",
        f"failure_ratio  {result['failed'] / result['attempted']:.6g}  "
        f"({result['failed']}/{result['attempted']} {unit})",
    ]


def plain_lines(name: str, result: dict, metrics: dict[str, float]) -> list[str]:
    """End-to-end metrics with their sample counts, under the names users read."""
    times = sorted(result["op_s"])
    lines = [
        f"setup_s        {metrics['setup_s']:.4f} s   "
        f"(median of {len(result['setup_samples'])} interpreters)",
        f"op_s           {metrics['op_s']:.4f} s   (fastest of {len(times)} operations)",
    ]
    if workloads.WORKLOADS[name].kind == "fit":
        lines.append(f"fit_s          {statistics.median(times):.4f} s   "
                     f"(median of {len(times)} fits)")
        p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
        beyond = sum(t > p90 for t in times)
        if beyond >= 10:
            lines.append(f"fit_s_p90      {p90:.4f} s   ({len(times)} fits, {beyond} beyond)")
        else:
            lines.append(f"fit_s_p90      not reported: {beyond} of {len(times)} fits beyond it")
    else:
        reps = workloads.replications(name)
        lines.append(f"mc_reps_per_s  {reps / statistics.median(times):.4f} 1/s (median of {len(times)} "
                     f"pairs of {reps // 2}-replication studies)")
    lines.append(f"peak_rss_mb    {metrics['peak_rss_mb']:.2f} MB  (1 worker process)")
    return lines


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict,
                 deadline: float) -> dict:
    result = measure(name, seed, seconds, trace, deadline)
    values = per_layer(result) if trace else end_to_end(result)
    lines = header_lines(name, seed, result)
    if trace:
        lines += [f"{k:<44} {v:.6g}" for k, v in sorted(values.items())]
    else:
        lines += plain_lines(name, result, values)
    lines += [f"check failed: {p}" for p in result["problems"]]
    print("\n".join(lines))
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    return {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (ROOT / "src" / "addspline" / "cli.py").is_file():
        print(f"error: no addspline package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         spec, deadline)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
