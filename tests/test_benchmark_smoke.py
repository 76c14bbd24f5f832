"""The benchmark's own correctness check: one short run of every workload.

`perfbench/run.py` checks each operation's outputs against
`perfbench/references.json`; its last stdout line is one JSON object per
workload with `correct`, `attempted` and `failed`.  A change to the program
that moves a checked output fails here, not only in a full benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_workload_runs_correct_with_no_failed_operation():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    results = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(results) == ["fit-1e5", "fit-ozone", "mc-n1000"]
    for name, result in results.items():
        assert result["correct"] is True, name
        assert result["failed"] == 0 and result["attempted"] > 0, name
