"""A bounded property-based sweep of the command line: whatever the input and
the flags, `main` returns 0, 1 or 2, an exit 1 leaves no --out, and an exit 0
or 2 writes strict JSON, and a fit's sigma2 is at most the mean square of the
centred response.  Derandomized, so every run draws the same examples;
--kn and --grid stay small enough that no example allocates more than a few MB.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from addspline.cli import main
from addspline.dataio import read_table, write_table

SWEEP = settings(
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# covariate laws: spread out, one value, few values, all zero, all negative
KINDS = ("spread", "constant", "duplicated", "zero", "negative")
LAMBDAS = ("auto", "0", "1e-300", "5", "1e300", "1e308", "inf", "nan")


def _column(kind: str, n: int, rng: np.random.Generator) -> list[str]:
    values = {
        "spread": lambda: rng.uniform(-3.0, 3.0, n),
        "constant": lambda: np.full(n, 0.7),
        "duplicated": lambda: rng.choice([0.1, 0.5, 2.0], n),
        "zero": lambda: np.zeros(n),
        "negative": lambda: -rng.uniform(0.5, 9.0, n),
    }[kind]()
    return [repr(float(v)) for v in values]


@st.composite
def _csv_text(draw) -> tuple[str, str]:
    """A CSV of 1-50 rows with columns y, a, b, and the x2 column's name: a
    second column, or the first one again."""
    n = draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    columns = [_column(draw(st.sampled_from(KINDS)), n, rng) for _ in range(3)]
    for _ in range(draw(st.integers(0, 2))):  # blank and non-numeric cells
        cell = draw(st.sampled_from(["", "abc", "1e999"]))
        columns[draw(st.integers(0, 2))][draw(st.integers(0, n - 1))] = cell
    rows = ["y,a,b"] + [",".join(cells) for cells in zip(*columns)]
    return "\n".join(rows) + "\n", draw(st.sampled_from(["a", "b"]))


def _strict(text: str):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _check(argv: list[str], out: Path, report: str) -> None:
    code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert not out.exists()
        return
    payload = _strict((out / report).read_text())
    if argv[0] == "fit":
        # backfitting is block coordinate descent on a convex criterion
        # started at b = 0: RSS <= criterion <= y'y at every stage, converged
        # or not, so sigma2 = RSS / n is at most the centred y's mean square
        header, table = read_table(argv[argv.index("--data") + 1])
        y = table[:, header.index(argv[argv.index("--y") + 1])]
        center = payload["config"]["preprocessing"]["y_center"]
        assert payload["sigma2"] <= (1 + 1e-9) * np.mean((y - center) ** 2)


@SWEEP
@given(
    data=_csv_text(),
    degree=st.integers(0, 5),
    diff_order=st.integers(0, 6),
    kn=st.one_of(st.just("auto"), st.integers(1, 40).map(str)),
    lambdas=st.tuples(st.sampled_from(LAMBDAS), st.sampled_from(LAMBDAS)),
    tol=st.sampled_from(["0", "1e-10", "1e-3", "1"]),
    max_stages=st.integers(1, 50),
    grid=st.integers(1, 50),
    level=st.sampled_from(["0.5", "0.95", "0", "1"]),
)
def test_fit_never_raises(data, degree, diff_order, kn, lambdas, tol, max_stages, grid, level):
    text, x2 = data
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "data.csv", Path(tmp) / "out"
        path.write_text(text)
        argv = [
            "fit", "--data", str(path), "--y", "y", "--x1", "a", "--x2", x2,
            "--degree", str(degree), "--diff-order", str(diff_order), "--kn", kn,
            "--lambda1", lambdas[0], "--lambda2", lambdas[1], "--tol", tol,
            "--max-stages", str(max_stages), "--grid", str(grid), "--level", level,
            "--out", str(out),
        ]
        _check(argv, out, "fit_report.json")


@SWEEP
@given(
    scenario=st.sampled_from(["sim1", "sim2", "sim3", "coverage"]),
    n=st.integers(20, 60),
    reps=st.integers(2, 5),
    degree=st.integers(0, 5),
    diff_order=st.integers(0, 6),
    grid=st.integers(1, 50),
    seed=st.integers(0, 3),
)
def test_simulate_never_raises(scenario, n, reps, degree, diff_order, grid, seed):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [
            "simulate", scenario, "--n", str(n), "--degree", str(degree),
            "--diff-order", str(diff_order), "--grid", str(grid), "--seed", str(seed),
            "--out", str(out),
        ]
        if scenario in ("sim3", "coverage"):
            argv += ["--reps", str(reps)]
        _check(argv, out, f"{scenario}_n{n}_seed{seed}.json")


@settings(SWEEP, max_examples=200)  # enough to meet systems singular only to rounding
@given(
    n=st.integers(10, 60),
    seed=st.integers(0, 2**16),
    values=st.sampled_from([None, (0.3, 0.8), (1.0, 2.0), (0.1, 0.5, 2.0)]),
    diff_order=st.integers(1, 4),
    kn=st.one_of(st.just("auto"), st.integers(1, 14).map(str)),
    lambdas=st.tuples(*[st.sampled_from(["auto", "0", "1e-3", "1"])] * 2),
    max_stages=st.integers(1, 100),
)
def test_fit_of_few_covariate_values_never_raises(
    n, seed, values, diff_order, kn, lambdas, max_stages
):
    # data that always reads and often fits (none of the 30 examples of
    # test_fit_never_raises does), so that the bound on sigma2 in _check meets
    # fits that converge, fits stopped at --max-stages, and covariates with too
    # few values for the order
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 3.0, n)
    b = rng.uniform(0.1, 3.0, n) if values is None else np.resize(values, n)
    y = np.sin(a) + b + rng.uniform(-0.5, 0.5, n)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "data.csv", Path(tmp) / "out"
        write_table(path, ["y", "a", "b"], [y, a, b])
        argv = [
            "fit", "--data", str(path), "--y", "y", "--x1", "a", "--x2", "b",
            "--diff-order", str(diff_order), "--kn", kn, "--lambda1", lambdas[0],
            "--lambda2", lambdas[1], "--max-stages", str(max_stages), "--grid", "5",
            "--out", str(out),
        ]
        _check(argv, out, "fit_report.json")
