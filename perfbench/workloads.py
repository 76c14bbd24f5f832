"""Benchmark workloads: seeded inputs, the CLI calls of one operation, output checks.

Every input is made here from the run's seed; the program only ever sees the
files and arguments these functions produce.  Nothing here imports
`addspline`, so a change to the package (its simulator included) cannot
change what the benchmark feeds it.

* fit-ozone: the bundled 111-row ozone.csv with its rows permuted by the seed.
  The fit is order-invariant up to rounding, so one pinned reference serves
  every seed and doubles as a check that the tolerance admits reorderings.
* fit-1e5: an n=100000 CSV drawn from `seed % POOL`, one reference per draw.
* mc-n1000: `simulate sim3 --svg` then `simulate coverage`, both with
  `--seed (seed % POOL)`, one reference per simulator seed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OZONE_CSV = ROOT / "src" / "addspline" / "data" / "ozone.csv"
REFERENCES = Path(__file__).resolve().parent / "references.json"

# Seeds are folded onto this many pinned inputs for the generated workloads.
POOL = 4
# Checked outputs may move by this share of the array's largest magnitude
# (at least 1.0).  Reordered sums move them by ~1e-14, and a rounding change
# that shifts backfit's stopping stage by ~1e-10 (its convergence tolerance);
# a change to the estimator, its weights or the simulator moves them far more.
RTOL = 1e-8
MC_REPS = 200


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "fit" or "mc"
    n: int
    num_intervals: int
    num_coef: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit-ozone", "fit", 111, 13, 16),
        Workload("fit-1e5", "fit", 100_000, 200, 203),
        Workload("mc-n1000", "mc", 1000, 32, 35),
    )
}

FIT_COLUMNS = ("estimate", "lower", "upper")
MC_FIELDS = ("mean", "covariance", "ks_stat", "coverage")


def data_key(name: str, seed: int) -> str:
    """Key of the pinned reference that the inputs for `seed` must reproduce."""
    return "bundled" if name == "fit-ozone" else str(seed % POOL)


def write_ozone(path: Path, seed: int | None) -> None:
    """Copy ozone.csv with its data rows permuted by `seed` (None keeps the order).

    Rows are copied as text, so every value reaches the program unchanged.
    """
    with OZONE_CSV.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    if seed is not None:
        rows = [rows[i] for i in np.random.default_rng(seed).permutation(len(rows))]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_synthetic(path: Path, n: int, seed: int) -> None:
    """y = sin(2 pi x1) + cos(pi x2)/2 + U(-1/2, 1/2), covariates 1 - U on (0, 1]."""
    rng = np.random.default_rng(seed)
    x1 = 1.0 - rng.random(n)
    x2 = 1.0 - rng.random(n)
    y = np.sin(2.0 * np.pi * x1) + 0.5 * np.cos(np.pi * x2) + rng.uniform(-0.5, 0.5, n)
    np.savetxt(
        path, np.column_stack([y, x1, x2]), fmt="%.17g", delimiter=",",
        header="y,x1,x2", comments="",
    )


def make_inputs(name: str, seed: int, work: Path) -> dict:
    """Write the workload's input files under `work`; return the run spec."""
    spec = {"workload": name, "seed": seed, "key": data_key(name, seed)}
    if name == "fit-ozone":
        spec["data"] = str(work / "ozone.csv")
        write_ozone(Path(spec["data"]), seed)
    elif name == "fit-1e5":
        spec["data"] = str(work / "data.csv")
        write_synthetic(Path(spec["data"]), WORKLOADS[name].n, int(spec["key"]))
    return spec


def op_argvs(spec: dict, out: Path) -> list[list[str]]:
    """The `addspline` command lines that make up one operation."""
    name = spec["workload"]
    if name == "fit-ozone":
        return [["fit", "--data", spec["data"], "--y", "ozone", "--x1", "temperature",
                 "--x2", "wind", "--out", str(out), "--svg", str(out / "fit.svg")]]
    if name == "fit-1e5":
        return [["fit", "--data", spec["data"], "--y", "y", "--x1", "x1", "--x2", "x2",
                 "--out", str(out)]]
    common = ["--n", str(WORKLOADS[name].n), "--reps", str(MC_REPS),
              "--seed", spec["key"], "--out", str(out)]
    return [["simulate", "sim3", *common, "--svg", str(out / "sim3.svg")],
            ["simulate", "coverage", *common]]


def replications(name: str) -> int:
    """Units of work one operation attempts: fits, or Monte Carlo replications."""
    return 2 * MC_REPS if WORKLOADS[name].kind == "mc" else 1


def _mc_json(spec: dict, out: Path, scenario: str) -> dict:
    n = WORKLOADS[spec["workload"]].n
    return json.loads((out / f"{scenario}_n{n}_seed{spec['key']}.json").read_text())


def read_outputs(spec: dict, out: Path) -> dict:
    """The checked numbers of one operation's output files, as nested lists."""
    if WORKLOADS[spec["workload"]].kind == "fit":
        grids = json.loads((out / "fit_report.json").read_text())["grids"]
        return {
            comp: {col: grids[comp][col] for col in FIT_COLUMNS}
            for comp in ("component1", "component2")
        }
    docs = {scenario: _mc_json(spec, out, scenario) for scenario in ("sim3", "coverage")}
    return {scenario: {f: doc[f] for f in MC_FIELDS} for scenario, doc in docs.items()}


def _compare(label: str, got, ref) -> list[str]:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return [f"{label}: shape {got.shape}, reference {ref.shape}"]
    if not np.all(np.isfinite(got)):
        return [f"{label}: non-finite values"]
    scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
    gap = float(np.abs(got - ref).max(initial=0.0))
    if gap > RTOL * scale:
        return [f"{label}: differs from reference by {gap:.3e} (limit {RTOL * scale:.3e})"]
    return []


def check_op(spec: dict, out: Path, codes: list[int], reference: dict) -> tuple[int, list[str]]:
    """Check one operation's outputs; return (failed units, problems).

    A fit fails on a non-zero exit code or any failed check.  In a Monte Carlo
    operation each rejected replication fails, and a study whose output fails
    a check fails all of its replications.  Captured stderr is never read.
    """
    w = WORKLOADS[spec["workload"]]
    if w.kind == "fit":
        problems = [f"exit code {codes[0]}"] if codes[0] != 0 else []
        problems += _check_fit(out, w, reference)
        return (1 if problems else 0), problems
    failed, problems = 0, []
    for scenario, code in zip(("sim3", "coverage"), codes):
        study = [f"{scenario}: exit code {code}"] if code != 0 else []
        try:
            doc = _mc_json(spec, out, scenario)
        except (OSError, ValueError) as exc:
            doc, study = None, study + [f"{scenario}: unreadable output ({exc})"]
        if doc is not None:
            if doc["replications"] != MC_REPS:
                study.append(f"{scenario}: {doc['replications']} replications")
            if doc.get("rejected", 0):
                study.append(f"{scenario}: {doc['rejected']} replications rejected")
            for f in MC_FIELDS:
                study += _compare(f"{scenario}.{f}", doc[f], reference[scenario][f])
        if scenario == "sim3" and not (out / "sim3.svg").is_file():
            study.append("sim3: no SVG written")
        problems += study
        failed += MC_REPS if study else 0
    return failed, problems


def _check_fit(out: Path, w: Workload, reference: dict) -> list[str]:
    problems = []
    try:
        report = json.loads((out / "fit_report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"fit_report.json unreadable ({exc})"]
    if report.get("converged") is not True:
        problems.append("fit did not converge")
    if report.get("n") != w.n or report["config"].get("num_intervals") != w.num_intervals:
        problems.append(f"fit ran with n={report.get('n')}, "
                        f"K={report['config'].get('num_intervals')}")
    for comp in ("component1", "component2"):
        grid = report["grids"][comp]
        est, lo, hi = (np.asarray(grid[c], dtype=float) for c in FIT_COLUMNS)
        if not all(np.all(np.isfinite(a)) for a in (est, lo, hi)):
            problems.append(f"{comp}: non-finite values")
        elif not (np.all(lo <= est) and np.all(est <= hi)):
            problems.append(f"{comp}: estimate outside its interval")
        for col in FIT_COLUMNS:
            problems += _compare(f"{comp}.{col}", grid[col], reference[comp][col])
        if not (out / f"fit_{comp}.csv").is_file():
            problems.append(f"{comp}: no CSV written")
    if w.name == "fit-ozone" and not (out / "fit.svg").is_file():
        problems.append("no SVG written")
    return problems


def load_reference(spec: dict) -> dict:
    return json.loads(REFERENCES.read_text())[spec["workload"]][spec["key"]]

