"""Write perfbench/references.json: the checked outputs of every pinned input.

Usage (from the repository root): python3 perfbench/pin_references.py

Runs one operation per reference key of each workload with the package in
src/ and records the numbers `workloads.check_op` compares against.  Re-pin
only for a deliberate change of the program's results, and say so.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import addspline.cli as cli  # noqa: E402
import workloads  # noqa: E402
from worker import run_op  # noqa: E402


def round_nested(value, digits: int = 12):
    """Round floats in nested lists to `digits` significant digits for pinning."""
    if isinstance(value, list):
        return [round_nested(v, digits) for v in value]
    if isinstance(value, float) and value != 0.0 and math.isfinite(value):
        return float(f"{value:.{digits}g}")
    return value


def main() -> int:
    refs: dict[str, dict] = {}
    base = HERE.parent / ".perfbench"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        work = Path(tmp)
        for name in workloads.WORKLOADS:
            refs[name] = {}
            seeds = [None] if name == "fit-ozone" else range(workloads.POOL)
            for seed in seeds:
                spec = workloads.make_inputs(name, seed or 0, work)
                if seed is None:  # the bundled row order
                    workloads.write_ozone(Path(spec["data"]), None)
                out = work / "out"
                codes = run_op(cli, workloads.op_argvs(spec, out))
                if any(codes):
                    raise SystemExit(f"{name} {spec['key']}: exit codes {codes}")
                refs[name][spec["key"]] = round_nested(
                    workloads.read_outputs(spec, out))
                print(name, spec["key"], "pinned", flush=True)
    workloads.REFERENCES.write_text(json.dumps(refs, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
