"""Smoke test of the benchmark itself.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py

Each workload runs once plain and once traced at the shortest run length
(`--seconds 1`, so one operation per phase; the inputs keep their pinned
sizes because the output checks compare against pinned references).  The
test asserts that every metric in BENCHMARK.json is emitted with its unit,
that the output checks ran and passed, and that the checks reject wrong
outputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def runs():
    """(workload, trace) -> (stdout lines, parsed result), each run made once."""
    out = {}
    for name in NAMES:
        for trace in ("0", "1"):
            proc = bench("--workload", name, "--seed", "1", "--seconds", "1", "--trace", trace)
            assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
            lines = proc.stdout.strip().splitlines()
            out[name, trace] = lines, json.loads(lines[-1])
    return out


def test_workloads_match_definition():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_emitted_and_checked(runs, name, trace):
    lines, result = runs[name, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    text = "\n".join(lines)
    assert "failure_ratio  0" in text
    assert "# env nproc=" in text
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        wanted = ["setup_s", "op_s", "peak_rss_mb"]
        wanted += ["fit_s", "fit_s_p90"] if name.startswith("fit") else ["mc_reps_per_s"]
        for label in wanted:
            assert any(line.startswith(label + " ") for line in lines), label


def test_every_layer_metric_moves_somewhere(runs):
    """A per-layer name that no workload yields is a misspelling, not a zero."""
    for m in SPEC["per_layer"]:
        values = [runs[name, "1"][1]["metrics"][m["name"]]["value"] for name in NAMES]
        assert any(v != 0 for v in values), m["name"]


def test_layer_shares_match_profiles(runs):
    metrics = {name: runs[name, "1"][1]["metrics"] for name in NAMES}
    self_s = {name: {k: v["value"] for k, v in m.items() if k.endswith(".self_s")}
              for name, m in metrics.items()}
    assert max(self_s["fit-1e5"], key=self_s["fit-1e5"].get) == "inference.component_weights.self_s"
    assert max(self_s["mc-n1000"], key=self_s["mc-n1000"].get) == "bandmat.BandedCholesky.solve.self_s"
    assert metrics["fit-ozone"]["basis.design_matrix.calls"]["value"] == 406


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_fit_check_rejects_changed_outputs(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import addspline.cli as cli
    from worker import run_op

    spec = workloads.make_inputs("fit-ozone", 3, tmp_path)
    out = tmp_path / "out"
    codes = run_op(cli, workloads.op_argvs(spec, out))
    reference = workloads.load_reference(spec)
    assert workloads.check_op(spec, out, codes, reference) == (0, [])
    assert workloads.check_op(spec, out, [2], reference)[0] == 1

    report = json.loads((out / "fit_report.json").read_text())
    report["grids"]["component1"]["estimate"][7] += 1e-6
    (out / "fit_report.json").write_text(json.dumps(report))
    failed, problems = workloads.check_op(spec, out, codes, reference)
    assert failed == 1 and any("component1.estimate" in p for p in problems)
    report["grids"]["component1"]["upper"][7] = report["grids"]["component1"]["lower"][7] - 1
    (out / "fit_report.json").write_text(json.dumps(report))
    _, problems = workloads.check_op(spec, out, codes, reference)
    assert any("outside its interval" in p for p in problems)


def test_mc_check_counts_failed_replications(tmp_path):
    spec = {"workload": "mc-n1000", "seed": 1, "key": "1"}
    reference = json.loads(workloads.REFERENCES.read_text())["mc-n1000"]["1"]

    def write(scenario, **changes):
        doc = {**reference[scenario], "replications": workloads.MC_REPS, "rejected": 0, **changes}
        (tmp_path / f"{scenario}_n1000_seed1.json").write_text(json.dumps(doc))

    (tmp_path / "sim3.svg").write_text("<svg/>")
    write("sim3")
    write("coverage")
    assert workloads.check_op(spec, tmp_path, [0, 0], reference) == (0, [])
    write("sim3", rejected=1)
    assert workloads.check_op(spec, tmp_path, [0, 0], reference)[0] == workloads.MC_REPS
    write("sim3")
    write("coverage", ks_stat=[k + 1e-6 for k in reference["coverage"]["ks_stat"]])
    failed, problems = workloads.check_op(spec, tmp_path, [0, 0], reference)
    assert failed == workloads.MC_REPS and any("coverage.ks_stat" in p for p in problems)
    assert workloads.check_op(spec, tmp_path, [0, 1], reference)[0] == workloads.MC_REPS
