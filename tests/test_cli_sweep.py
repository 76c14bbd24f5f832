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

# covariate laws: spread out on (0, 3] and few values, which a fit takes, then
# one value, all zero and all negative, which it rejects (a response may be any)
KINDS = ("spread", "duplicated", "constant", "zero", "negative")
LAMBDAS = ("auto", "5", "1e-300", "0")
REJECTED_LAMBDAS = ("nan", "inf", "1e308", "1e300")
# what an example may break: an input of each kind that the command rejects
BREAKS = ("covariate", "lambda", "cell", "rows", "diff_order", "level")


def _column(kind: str, n: int, rng: np.random.Generator) -> list[str]:
    values = {
        "spread": lambda: 3.0 - rng.uniform(0.0, 3.0, n),
        "constant": lambda: np.full(n, 0.7),
        "duplicated": lambda: rng.choice([0.1, 0.5, 2.0], n),
        "zero": lambda: np.zeros(n),
        "negative": lambda: -rng.uniform(0.5, 9.0, n),
    }[kind]()
    return [repr(float(v)) for v in values]


@st.composite
def _fit_input(draw) -> tuple[str, str, tuple[str, str], int, str]:
    """A CSV with columns y, a, b, the x2 column's name (a second column, or
    the first one again), --lambda1/2, --diff-order and --level.  Two
    examples in three break nothing, so that the checks of an exit 0 or 2
    meet fits; the third breaks one input of a kind in BREAKS."""
    broken = draw(st.one_of(st.none(), st.none(), st.sampled_from(BREAKS)))
    n = draw(st.integers(1, 9) if broken == "rows" else st.integers(10, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kinds = [draw(st.sampled_from(KINDS)), *(draw(st.sampled_from(KINDS[:2])) for _ in "ab")]
    if broken == "covariate":
        kinds[1] = draw(st.sampled_from(KINDS[2:]))
    columns = [_column(kind, n, rng) for kind in kinds]
    for _ in range(draw(st.integers(1, 2)) if broken == "cell" else 0):
        cell = draw(st.sampled_from(["", "abc", "1e999"]))
        columns[draw(st.integers(0, 2))][draw(st.integers(0, n - 1))] = cell
    rows = ["y,a,b"] + [",".join(cells) for cells in zip(*columns)]
    lambdas = [draw(st.sampled_from(LAMBDAS)) for _ in "12"]
    if broken == "lambda":
        lambdas[draw(st.integers(0, 1))] = draw(st.sampled_from(REJECTED_LAMBDAS))
    diff_order = draw(st.integers(0, 6) if broken == "diff_order" else st.integers(1, 3))
    level = draw(st.sampled_from(("0", "1") if broken == "level" else ("0.5", "0.95")))
    return ("\n".join(rows) + "\n", draw(st.sampled_from(["a", "b"])), tuple(lambdas),
            diff_order, level)


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
    data=_fit_input(),
    degree=st.integers(0, 5),
    kn=st.one_of(st.just("auto"), st.integers(1, 40).map(str)),
    tol=st.sampled_from(["0", "1e-10", "1e-3", "1"]),
    max_stages=st.integers(1, 50),
    grid=st.integers(1, 50),
)
def test_fit_never_raises(data, degree, kn, tol, max_stages, grid):
    text, x2, lambdas, diff_order, level = data
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
    # data that always reads and often fits, 200 examples of it, so that the
    # bound on sigma2 in _check meets many fits that converge, fits stopped at
    # --max-stages, and covariates with too few values for the order
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
