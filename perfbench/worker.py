"""Child process of the benchmark: import the package, run operations, check them.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC names the workload, its input files, the output directory, the seconds
to measure and whether to trace.  The worker times `import addspline.cli`,
runs operations back to back until the time is used (at least one), checks
each operation's outputs outside the timed region, and writes RESULT.json.
Its `ru_maxrss` is read after the first operation, so it is the peak of a
process that has run exactly one.

With tracing on, the first half of the time runs untraced and the second half
traced, which gives the tracing overhead from one process, and one last
operation runs under `tracemalloc` for the per-callable memory peaks.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def run_op(cli, argvs: list[list[str]]) -> list[int]:
    """Run the operation's command lines in this process; stdout/stderr are discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return [cli.main(argv) for argv in argvs]


class Runner:
    """Runs and checks operations, keeping what the result reports."""

    def __init__(self, cli, workloads, spec: dict):
        self.cli = cli
        self.workloads = workloads
        self.spec = spec
        self.out = Path(spec["out"])
        self.argvs = workloads.op_argvs(spec, self.out)
        self.reference = workloads.load_reference(spec)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self) -> float:
        """Run one checked operation and return its wall time."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        units = self.workloads.replications(self.spec["workload"])
        self.attempted += units
        start = time.perf_counter()
        try:
            codes = run_op(self.cli, self.argvs)
        except Exception:  # an operation that crashes is counted, not fatal
            elapsed = time.perf_counter() - start
            self.failed += units
            self.problems.append(traceback.format_exc(limit=4))
            return elapsed
        elapsed = time.perf_counter() - start
        failed, problems = self.workloads.check_op(self.spec, self.out, codes, self.reference)
        self.failed += failed
        self.problems += problems
        return elapsed


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def traced_phase(runner: Runner, deadline: float, spans_path: str) -> dict:
    """Traced operations until `deadline` (at least one), then one under tracemalloc."""
    import tracemalloc

    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    times, per_op, op_spans = [], [], []
    try:
        while not times or time.perf_counter() < deadline:
            times.append(runner.op())
            spans, counts = tracer.take()
            op_spans.append(spans)
            per_op.append({"layers": tracing.layer_stats(spans), "counts": counts})
    finally:
        tracer.uninstall()
    with open(spans_path, "w") as fh:
        for i, spans in enumerate(op_spans):
            for span in spans:
                fh.write(json.dumps([i, *span]) + "\n")

    memory = tracing.MemoryTracer()
    memory.install()
    tracemalloc.start()
    try:
        runner.op()
    finally:
        tracemalloc.stop()
        memory.uninstall()
    return {"traced_op_s": times, "per_op": per_op, "peak_bytes": memory.peaks}


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    # timed before anything else imports numpy, as in a fresh `addspline` call
    start = time.perf_counter()
    import addspline.cli as cli

    result = {"setup_s": time.perf_counter() - start}
    import workloads

    runner = Runner(cli, workloads, spec)
    seconds = float(spec["seconds"])
    begin = time.perf_counter()
    op_s = [runner.op()]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain_until = begin + (seconds / 2 if spec["trace"] else seconds)
    while time.perf_counter() < plain_until:
        op_s.append(runner.op())
    result["op_s"] = op_s
    if spec["trace"]:
        result.update(traced_phase(runner, begin + seconds, spec["spans"]))
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems[:20],
        env=environment(),
    )
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
