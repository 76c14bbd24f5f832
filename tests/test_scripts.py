"""The scripts in scripts/ run end to end through the CLI and leave
the artifacts they name."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

SIMULATIONS = [
    f"{scenario}_n{n}_seed42.{ext}"
    for scenario, sizes, exts in [
        ("sim1", (100, 1000), ("csv", "json")),
        ("sim2", (100, 1000), ("csv", "json")),
        ("sim3", (1000,), ("csv", "json")),
        ("coverage", (1000,), ("json",)),
    ]
    for n in sizes
    for ext in exts
]


@pytest.mark.parametrize(
    "script, flags, artifacts",
    [
        ("ozone_ci.py", [], ["fit_component1.csv", "fit_component2.csv",
                             "fit_report.json", "ozone_fit.svg"]),
        ("run_sims.py", ["--reps", "20"], SIMULATIONS),
    ],
    ids=["ozone_ci", "run_sims"],
)
def test_script_exits_0_and_writes_its_artifacts(tmp_path, script, flags, artifacts):
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *flags, "--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert f"artifacts in {out}/" in done.stdout
    assert sorted(p.name for p in out.iterdir()) == sorted(artifacts)
    for name in artifacts:
        path = out / name
        assert path.stat().st_size > 0
        if path.suffix == ".json":
            json.loads(path.read_text())
