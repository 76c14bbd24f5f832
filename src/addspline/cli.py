"""Command-line entry points: `fit` a dataset, `simulate` a scenario.

Exit codes are a stable contract: 0 success, 1 input error, 2 the fit ran but
did not converge (the report is still written).  A `--config` file of
key=value lines supplies defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time
from pathlib import Path

import numpy as np

from .backfit import AdditiveDesign, NormalStatistics, backfit, build_design, kn_rule
from .backfit import _residual_sum_of_squares
from .bandmat import NotPositiveDefiniteError
from .basis import design_matrix, eval_grid, make_knots
from .dataio import (
    DataError,
    RunReport,
    json_text,
    load_csv_summarized,
    write_table,
)
from .inference import StageSmoother, confidence_interval, sigma2_hat
from .penalty import difference_matrix
from .sim import (
    ScenarioConfig,
    kde2d,
    run_sim1,
    run_sim2,
    run_sim3,
    coverage_experiment,
)
from .svg import svg_document

__all__ = ["main", "build_parser", "cmd_fit", "cmd_simulate"]

# flags that are on/off switches, for config-file expansion
_SWITCHES = {"no-preprocess"}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the documented input-error code is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _config_tokens(path: str) -> list[str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    tokens: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lstrip("-").replace("_", "-")
        value = value.strip()
        if key in _SWITCHES:
            if value.lower() in ("1", "true", "yes", "on"):
                tokens.append(f"--{key}")
            elif value.lower() not in ("0", "false", "no", "off"):
                raise DataError(f"{path}:{lineno}: {key} must be a boolean")
        else:
            tokens.extend((f"--{key}", value))
    return tokens


def _expand_config(argv: list[str]) -> list[str]:
    """Replace --config FILE with the file's tokens, placed so flags win."""
    argv = list(argv)
    while "--config" in argv:
        i = argv.index("--config")
        if i + 1 >= len(argv):
            raise DataError("--config requires a file path")
        tokens = _config_tokens(argv[i + 1])
        rest = argv[:i] + argv[i + 2 :]
        # subcommand stays first; config tokens go right after it so any
        # explicit flag, parsed later, overrides them
        cut = 1 if rest else 0
        argv = rest[:cut] + tokens + rest[cut:]
    return argv


def _at_least(flag: str, value: float, low: float) -> float:
    """`value`, or the input error of a `flag` that is not finite or below `low`."""
    if not np.isfinite(value):
        raise DataError(f"{flag} must be finite, got {value}")
    if value < low:
        raise DataError(f"{flag} must be >= {low}, got {value}")
    return value


def _check_basis_flags(args, n: int | None = None) -> None:
    """Build the knots and the difference matrix, so that a bad --degree or
    --diff-order raises their error before any work, as does an order at or above
    K + degree where K is known (`simulate`'s --n, `fit`'s --kn), else after the read."""
    kn = None if args.command == "simulate" else _auto(args.kn, "--kn")
    n = args.n if args.command == "simulate" else n
    K = kn or (n and kn_rule(n))
    q = make_knots(args.degree, K or 1).num_basis
    if K and args.diff_order >= q:
        given = f"--kn {kn}" if kn else f"K = {K} at n = {n}"
        raise DataError(f"--diff-order {args.diff_order} must be below the basis size "
                        f"K + degree = {q} ({given}, --degree {args.degree})")
    if K or args.diff_order < 1:
        difference_matrix(args.diff_order, q)


def _auto(text: str, flag: str, kind: type = int) -> float | None:
    """None for 'auto', else `text` as an int >= 1 or a float >= 0."""
    if text == "auto":
        return None
    try:
        value = kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise DataError(f"{flag} expects {noun} or 'auto', got {text!r}") from None
    return _at_least(flag, value, 1 if kind is int else 0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="addspline", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--degree", type=int, default=3)
    shared.add_argument("--diff-order", type=int, default=2)
    shared.add_argument("--level", type=float, default=0.95)
    shared.add_argument("--grid", type=int, default=201, help="evaluation grid size per component")
    shared.add_argument("--out", default=".", help="output directory")
    shared.add_argument("--svg", default=None, help="also write an SVG figure")
    shared.add_argument("--config", default=None, help="key=value defaults file (flags win)")

    fit = sub.add_parser("fit", parents=[shared], help="fit the additive model to a CSV file")
    fit.add_argument("--data", required=True, help="input CSV path")
    fit.add_argument("--y", required=True, help="response column name")
    fit.add_argument("--x1", required=True, help="first covariate column name")
    fit.add_argument("--x2", required=True, help="second covariate column name")
    fit.add_argument("--kn", default="auto", help="knot intervals K (default round(2 n^(2/5)))")
    fit.add_argument("--lambda1", default="auto", help="penalty for component 1 (default 2 n^(2/5)/sqrt(K))")
    fit.add_argument("--lambda2", default="auto", help="penalty for component 2")
    fit.add_argument("--tol", type=float, default=1e-10)
    fit.add_argument("--max-stages", type=int, default=100)
    fit.add_argument("--no-preprocess", action="store_true", help="skip centering/scaling")
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", parents=[shared], help="run a Monte Carlo scenario")
    sim.add_argument("scenario", choices=["sim1", "sim2", "sim3", "coverage"])
    sim.add_argument("--n", type=int, default=1000)
    sim.add_argument(
        "--reps", type=int, default=None,
        help="replications of sim3 and coverage (default 1000); sim1 and sim2 fit one dataset",
    )
    sim.add_argument("--seed", type=int, default=42)
    sim.set_defaults(func=cmd_simulate)
    return parser


def _write_json(path: Path, payload: dict) -> None:
    text = json_text(payload) + "\n"  # strict, and first: NaN makes no directory
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _figure_document(args, figure: dict | None) -> str | None:
    """The SVG text of `figure` (`svg_document` keywords) for --svg, or None
    without one, built before any output is written.  An --svg path that is a
    directory, or whose directory neither exists nor is made with --out, is
    an input error, so that this exit 1, like every other, leaves no --out."""
    if not args.svg or figure is None:
        return None
    path, out = Path(args.svg), Path(args.out).resolve()
    if path.is_dir():
        raise DataError(f"--svg {args.svg} is a directory")
    if not path.resolve().parent.is_dir() and path.resolve().parent not in (out, *out.parents):
        raise DataError(f"--svg {args.svg}: directory {path.parent} does not exist")
    return svg_document(**figure)


def _singular_component(exc: NotPositiveDefiniteError, design: AdditiveDesign) -> DataError:
    """The input error of the per-component system that does not factor, in
    words for the component and the cause that `NormalEquations` names."""
    j, m = exc.component, design.penalty.order
    why = {
        "zero penalty": "at zero penalty the basis columns that hold data do not determine "
        "their coefficients (too few distinct covariate values per knot interval). "
        f"Increase --lambda{j} or reduce --kn.",
        "weight": f"the penalty weight lambda{j} = {getattr(design, f'lambda{j}'):g} swamps "
        f"the data: to rounding, Lam_{j} = G_{j} + lambda{j} Q is lambda{j} Q, whose order-{m} "
        f"difference penalty leaves polynomials of degree {m - 1} undetermined. "
        f"Reduce --lambda{j}.",
        "order": f"the order-{m} difference penalty leaves polynomials of degree {m - 1} "
        "unpenalized, and the covariate has too few distinct values to determine them. "
        "Reduce --diff-order.",
    }[exc.cause]
    return DataError(f"a per-component normal-equation system is singular ({exc}); {why}")


def _normal_statistics(degree: int, kn: int | None, y, x1, x2, n: int):
    """The normal-equation statistics of some rows of a dataset of n rows, as
    the reader gives them, in the basis `build_design` gives that dataset,
    and the residual sum of squares of those rows, a function of (b1, b2)."""
    cfg = make_knots(degree, kn_rule(n) if kn is None else kn)
    X1, X2 = design_matrix(cfg, x1), design_matrix(cfg, x2)
    return NormalStatistics.of(y, X1, X2), functools.partial(_residual_sum_of_squares, y, X1, X2)


def cmd_fit(args) -> int:
    start = time.perf_counter()
    kn = _auto(args.kn, "--kn")
    lam1 = _auto(args.lambda1, "--lambda1", float)
    lam2 = _auto(args.lambda2, "--lambda2", float)
    _at_least("--tol", args.tol, 0)
    _at_least("--max-stages", args.max_stages, 1)
    _at_least("--grid", args.grid, 1)
    _check_basis_flags(args)
    z = confidence_interval(0.0, 1.0, args.level).upper  # also rejects a bad --level

    # the one read: rows parsed, preprocessed and summarized, a large file in
    # parts, on two CPUs where allowed; each part's rows stay in the process
    # that read them until sigma2_hat is known
    with load_csv_summarized(
        args.data, args.y, args.x1, args.x2,
        functools.partial(_normal_statistics, args.degree, kn),
        preprocess=not args.no_preprocess,
    ) as data:
        for role, name, (low, high) in zip(("x1", "x2"), (args.x1, args.x2), data.ranges):
            # a spline in one value is not identified at any penalty
            if low == high:
                raise DataError(
                    f"{args.data}: covariate column {name!r} ({role}) has a single "
                    "distinct value; a spline in it needs at least two"
                )
        _check_basis_flags(args, data.n)  # an auto K comes with n
        # no rows: the design reads the data only through the statistics
        design = build_design(
            None, None, None, degree=args.degree, diff_order=args.diff_order,
            num_intervals=kn, lambda1=lam1, lambda2=lam2, statistics=data.summary,
        )
        try:
            eq = design.normal_equations
        except NotPositiveDefiniteError as exc:
            raise _singular_component(exc, design) from None
        for j, cols in enumerate(eq.pinned, start=1):
            if cols.size:
                print(
                    f"warning: component {j} basis columns {cols.tolist()} hold no "
                    "data at zero penalty; their coefficients are pinned to 0.",
                    file=sys.stderr,
                )
        result = backfit(design, tol=args.tol, max_stages=args.max_stages)
        sigma2 = sigma2_hat(design, result, data.add_up)
        data.release()  # the worker exits while the band is computed
        grid = eval_grid(args.grid)
        rows = design_matrix(design.X1.config, grid)
        # a converged fit's band takes the weights of the gauged solve; a fit
        # stopped at --max-stages, or one whose split no gauge fixes, its stages'
        try:
            schur = eq._schur if result.converged else None
        except NotPositiveDefiniteError:
            schur = None
        smoother = StageSmoother(design, result.stages if schur is None else None)
        _, products = smoother.evaluate_rows(rows.values, rows.values)
    n = data.n
    grid_rows = rows.chunk(0, grid.size)  # evaluated once for both estimates
    grids, curves, tables = {}, [], []
    record = data.preprocessing
    scales = (1.0, 1.0) if record is None else (record.x1_scale, record.x2_scale)
    for j, b, support in ((1, result.b1, data.ranges[0]), (2, result.b2, data.ranges[1])):
        # the fitted component centred on its mean over the data, (X_j'1)'b / n
        column_sums = eq.column_sums[j - 1]
        estimate = grid_rows.matvec(b) - float(column_sums @ b) / n
        # a'Ga >= 0: a weight that is a constant shift, zero in the data
        # (x2 = x1), can round to -eps
        half = z * np.sqrt(sigma2 * products[:, j - 1, j - 1].clip(min=0.0))
        lower, upper = estimate - half, estimate + half
        x_original = grid * scales[j - 1]
        # grid points outside the data's range are extrapolated: there the
        # band can collapse to zero width or blow up
        in_support = (grid >= support[0]) & (grid <= support[1])
        outside = int(grid.size - in_support.sum())
        if outside:
            print(
                f"warning: component {j}: {outside} of {grid.size} grid points lie "
                f"outside the data's support [{support[0]:.6g}, {support[1]:.6g}] "
                "(scaled covariate); their estimates and intervals are extrapolated.",
                file=sys.stderr,
            )
        grids[f"component{j}"] = {
            "x": x_original.tolist(),
            "x_scaled": grid.tolist(),
            "estimate": estimate.tolist(),
            "lower": lower.tolist(),
            "upper": upper.tolist(),
            "in_support": in_support.tolist(),
            "support": list(support),
        }
        tables.append((f"fit_component{j}.csv", [x_original, grid, estimate, lower, upper]))
        curves.extend(
            [(x_original, estimate), (x_original, lower), (x_original, upper)]
        )

    report = RunReport(
        command="fit",
        config={
            "data": str(args.data),
            "y": args.y,
            "x1": args.x1,
            "x2": args.x2,
            "degree": args.degree,
            "diff_order": args.diff_order,
            "num_intervals": design.X1.config.num_intervals,
            "lambda1": design.lambda1,
            "lambda2": design.lambda2,
            "tol": args.tol,
            "max_stages": args.max_stages,
            "level": args.level,
            "grid": args.grid,
            "preprocessing": None if record is None else dataclasses.asdict(record),
        },
        n=n,
        converged=result.converged,
        stages=result.stages,
        residual_norm=result.residual_norm,
        sigma2=sigma2,
        joint_system_singular=eq.joint_system_singular,
        coefficients={"b1": result.b1.tolist(), "b2": result.b2.tolist()},
        pinned_columns={
            f"component{j}": cols.tolist() for j, cols in enumerate(eq.pinned, start=1)
        },
        diagnostics={
            "constant_shift_residual": eq.constant_shift[0],
            "constant_shift_floor": eq.constant_shift[1],
            "f2_sum": float(eq.column_sums[1] @ result.b2),
            "factor_pivot_ratio": [eq.L1.pivot_ratio, eq.L2.pivot_ratio],
            "band_weights": "stages" if schur is None else "solution",
            "schur_pivot_ratio": None if schur is None else schur.pivot_ratio,
            "read_workers": data.workers,
        },
        grids=grids,
        runtime_seconds=time.perf_counter() - start,
    )
    document = _figure_document(args, {
        "curves": curves,
        "labels": ["f1", "f1 lo", "f1 hi", "f2", "f2 lo", "f2 hi"],
        "title": f"penalized additive fit (n={n}, K={design.X1.config.num_intervals})",
    })
    # the report first, which makes --out: an exit 1 leaves no directory
    out_dir = Path(args.out)
    report.save(out_dir / "fit_report.json")
    for name, columns in tables:
        write_table(out_dir / name, ["x", "x_scaled", "estimate", "lower", "upper"], columns)
    if document is not None:
        Path(args.svg).write_text(document)
    print(
        f"fit: n={n} K={design.X1.config.num_intervals} "
        f"lambda=({design.lambda1:.6g}, {design.lambda2:.6g}) "
        f"stages={result.stages} converged={result.converged} "
        f"sigma2={sigma2:.6g} residual={result.residual_norm:.3e}"
    )
    return 0 if result.converged else 2


def _summary_fields(summary, level: float) -> dict:
    """The JSON fields that sim3 and coverage share."""
    return {
        "level": level,
        "replications": summary.replications,
        "mean": summary.mean.tolist(),
        "covariance": summary.covariance.tolist(),
        "ks_stat": summary.ks_stat.tolist(),
        "coverage": summary.coverage.tolist(),
        "runtime_seconds": summary.runtime_seconds,
        "workers": summary.workers,
        "block_seconds": list(summary.block_seconds),
        "block_workers": list(summary.block_workers),
    }


def cmd_simulate(args) -> int:
    _at_least("--n", args.n, 20)
    _at_least("--seed", args.seed, 0)
    _at_least("--grid", args.grid, 1)
    _check_basis_flags(args)
    if args.scenario in ("sim1", "sim2"):
        # one dataset, one fit: a count other than 1 would be ignored
        if args.reps not in (None, 1):
            raise DataError(
                f"--reps does not apply to {args.scenario}, which fits one dataset; "
                f"got {args.reps}"
            )
        reps = 1
    else:
        reps = 1000 if args.reps is None else args.reps
        # sim3 and coverage summarize a sample covariance, which needs two rows
        if reps < 2:
            raise DataError(f"--reps must be >= 2 for {args.scenario}, got {reps}")
    cfg = ScenarioConfig(
        n=args.n,
        seed=args.seed,
        degree=args.degree,
        diff_order=args.diff_order,
        replications=reps,
        grid_points=args.grid,
    )
    tag = f"{args.scenario}_n{args.n}_seed{args.seed}"
    start = time.perf_counter()

    # each scenario names its table (header, columns), JSON payload, figure
    # (svg_document keywords) and summary line; one tail writes them all
    table = figure = None
    if args.scenario == "sim1":
        res = run_sim1(cfg)
        table = (
            ["x", "true1", "fit1", "true2", "fit2"],
            [res.grid, res.true1, res.fit1, res.true2, res.fit2],
        )
        payload = {"stages": res.stages, "rmse": res.rmse.tolist()}
        figure = {
            "curves": [(res.grid, c) for c in (res.fit1, res.true1, res.fit2, res.true2)],
            "labels": ["fit1", "true1", "fit2", "true2"],
            "title": f"fit vs truth (n={res.n})",
        }
        line = f"sim1: n={res.n} rmse1={res.rmse[0]:.4f} rmse2={res.rmse[1]:.4f}"
    elif args.scenario == "sim2":
        res = run_sim2(cfg)
        table = (
            ["x", "fit1", "penalized1", "fit2", "penalized2"],
            [res.grid, res.fit1, res.pen1, res.fit2, res.pen2],
        )
        payload = {"stages": res.stages, "sup_diff": res.sup_diff.tolist()}
        figure = {
            "curves": [(res.grid, c) for c in (res.fit1, res.pen1, res.fit2, res.pen2)],
            "labels": ["fit1", "uni1", "fit2", "uni2"],
            "title": f"backfit vs univariate penalized (n={res.n})",
        }
        line = f"sim2: n={res.n} sup_diff1={res.sup_diff[0]:.4f} sup_diff2={res.sup_diff[1]:.4f}"
    elif args.scenario == "sim3":
        sample, summary = run_sim3(cfg, level=args.level)
        table = (["z1", "z2"], [sample.values[:, 0], sample.values[:, 1]])
        payload = {
            "rejected": summary.rejected,
            "replication_ids": sample.replication_ids.tolist(),
            **_summary_fields(summary, args.level),
        }
        if args.svg:  # the density estimate serves only the figure
            kde = kde2d(sample.values)
            figure = {
                "contour": (kde.x, kde.y, kde.density),
                "levels": [0.02, 0.04, 0.06, 0.08, 0.1],
                "title": f"standardized sample density (M={summary.replications})",
            }
        line = (
            f"sim3: n={args.n} reps={summary.replications} "
            f"rejected={summary.rejected} mean=({summary.mean[0]:+.3f}, "
            f"{summary.mean[1]:+.3f}) ks=({summary.ks_stat[0]:.3f}, "
            f"{summary.ks_stat[1]:.3f})"
        )
    else:  # coverage
        summary = coverage_experiment(cfg, level=args.level)
        payload = _summary_fields(summary, args.level)
        line = (
            f"coverage: n={args.n} level={args.level} "
            f"coverage1={summary.coverage[0]:.3f} coverage2={summary.coverage[1]:.3f}"
        )

    # the payloads of sim3 and coverage replace this runtime with their study's
    fields = {"scenario": args.scenario, "n": args.n, "seed": args.seed}
    fields["runtime_seconds"] = time.perf_counter() - start
    document = _figure_document(args, figure)
    # the JSON first, which makes --out: an exit 1 leaves no directory
    out_dir = Path(args.out)
    _write_json(out_dir / f"{tag}.json", {**fields, **payload})
    if table is not None:
        write_table(out_dir / f"{tag}.csv", *table)
    if args.svg and figure is None:
        print(f"note: no figure defined for the {args.scenario} scenario", file=sys.stderr)
    elif document is not None:
        Path(args.svg).write_text(document)
    print(line)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        tokens = _expand_config(list(sys.argv[1:] if argv is None else argv))
        args = parser.parse_args(tokens)
        return args.func(args)
    except NotPositiveDefiniteError as exc:
        print(
            f"error: a per-component normal-equation system is singular ({exc})",
            file=sys.stderr,
        )
        return 1
    except (DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
