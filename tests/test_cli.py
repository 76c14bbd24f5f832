"""Command-line interface: fit and simulate subcommands, exit codes, files."""

import csv
import dataclasses
import errno
import io
import json
import os
import platform
import subprocess
import re
import sys
import time
import warnings
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from conftest import OZONE_CSV

import addspline
from addspline.backfit import NormalEquations, NormalStatistics
from addspline.basis import design_matrix, make_knots
from addspline.bandmat import NotPositiveDefiniteError
from addspline import cli, dataio, forking, sim
from addspline.cli import _write_json, main
from addspline.dataio import RunReport, read_table, write_table


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def recorded_reads(monkeypatch) -> list:
    """What each `load_csv_summarized` call that `cmd_fit` makes from now on
    gives: the row count, preprocessing, ranges, statistics and processes."""
    reads, read = [], cli.load_csv_summarized

    def recording(*args, **kwargs):
        reads.append(read(*args, **kwargs))
        return reads[-1]

    monkeypatch.setattr(cli, "load_csv_summarized", recording)
    return reads


@pytest.fixture
def ozone_args(tmp_path):
    return [
        "fit",
        "--data",
        str(OZONE_CSV),
        "--y",
        "ozone",
        "--x1",
        "temperature",
        "--x2",
        "wind",
        "--out",
        str(tmp_path),
    ]


class TestFit:
    def test_ozone_end_to_end(self, tmp_path, capsys, ozone_args):
        code, out, err = run_main(capsys, *ozone_args)
        assert code == 0
        assert "converged=True" in out
        # the full-basis system is singular by construction; the gauge
        # l'b2 = 0 fixes the split, so the run reports without a warning
        assert "singular" not in err
        report = RunReport.load(tmp_path / "fit_report.json")
        assert report.n == 111
        assert report.converged
        assert report.joint_system_singular
        assert report.sigma2 > 0
        assert report.config["num_intervals"] == 13
        for j in (1, 2):
            header, table = read_table(tmp_path / f"fit_component{j}.csv")
            assert header == ["x", "x_scaled", "estimate", "lower", "upper"]
            assert table.shape == (201, 5)
            est, lo, hi = table[:, 2], table[:, 3], table[:, 4]
            assert np.all(lo <= est) and np.all(est <= hi)
            assert np.all(np.isfinite(table))
        # covariates are reported on their original scale
        h1, t1 = read_table(tmp_path / "fit_component1.csv")
        assert t1[:, 0].max() > 30.0  # degrees Celsius, not (0, 1]

    def test_outputs_match_the_reference_writers_byte_for_byte(self, tmp_path, capsys, ozone_args):
        # the writers against plain csv.writer rows of format_float cells and
        # a json dump of dataclasses.asdict, on the files of the ozone fit
        assert run_main(capsys, *ozone_args)[0] == 0
        for j in (1, 2):
            path = tmp_path / f"fit_component{j}.csv"
            header, table = read_table(path)
            buf = io.StringIO(newline="")
            writer = csv.writer(buf)
            writer.writerow(header)
            for row in table:
                writer.writerow([dataio.format_float(v) for v in row])
            assert path.read_bytes() == buf.getvalue().encode()
        text = (tmp_path / "fit_report.json").read_text()
        report = RunReport.from_json(text)
        assert text == json.dumps(dataclasses.asdict(report), sort_keys=True, indent=1)

    def test_csv_cells_are_the_report_texts(self, tmp_path, capsys, ozone_args):
        # each grid value has one text, the JSON number and the CSV cell
        assert run_main(capsys, *ozone_args)[0] == 0
        report = json.loads((tmp_path / "fit_report.json").read_text(), parse_float=str)
        for j in (1, 2):
            lines = (tmp_path / f"fit_component{j}.csv").read_text().splitlines()
            header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
            grid = report["grids"][f"component{j}"]
            for name, cells in zip(header, zip(*rows)):
                assert list(cells) == grid[name]
                assert cells == tuple(dataio.format_float(float(c)) for c in cells)

    def test_rerun_is_deterministic(self, tmp_path, capsys, ozone_args):
        run_main(capsys, *ozone_args)
        first = json.loads((tmp_path / "fit_report.json").read_text())
        run_main(capsys, *ozone_args)
        second = json.loads((tmp_path / "fit_report.json").read_text())
        for report in (first, second):
            report.pop("runtime_seconds")
            report["diagnostics"].pop("timings")
        assert first == second

    def test_svg_output_has_six_paths(self, tmp_path, capsys, ozone_args):
        svg = tmp_path / "fit.svg"
        code, _, _ = run_main(capsys, *ozone_args, "--svg", str(svg))
        assert code == 0
        assert svg.read_text().count("<path") == 6

    def test_zero_penalty_on_ozone_reports_with_warning(self, tmp_path, capsys, ozone_args):
        # at zero penalty the scaled ozone covariates leave basis columns
        # without data (temperature 0-4, wind 0); their coefficients are
        # pinned to zero and the fit is reported with warnings.  The
        # unpenalized backfit contracts at 0.90 per stage here (the squared
        # top canonical correlation of the two spline spaces), so it needs
        # about 245 stages to converge, more than the default 100.
        code, out, err = run_main(
            capsys, *ozone_args, "--lambda1", "0", "--lambda2", "0", "--max-stages", "400"
        )
        assert (
            "warning: component 1 basis columns [0, 1, 2, 3, 4] hold no data at zero "
            "penalty; their coefficients are pinned to 0.\n"
        ) in err
        assert "warning: component 2 basis columns [0] hold no data" in err
        assert "singular" not in err
        assert code == 0
        report = RunReport.load(tmp_path / "fit_report.json")
        assert report.joint_system_singular
        assert report.config["lambda1"] == 0.0

    def test_grid_points_outside_the_support_are_flagged(self, tmp_path, capsys, ozone_args):
        # the scaled ozone covariates start at 5/13 (temperature) and 1/9
        # (wind), so 77 and 22 of the grid points k/201 lie below them; at
        # zero penalty the band collapses to zero width or blows up there
        code, _, err = run_main(
            capsys, *ozone_args, "--lambda1", "0", "--lambda2", "0", "--max-stages", "400"
        )
        assert code == 0
        report = RunReport.load(tmp_path / "fit_report.json")
        for j, low, outside, zero_width in ((1, 5 / 13, 77, 30), (2, 1 / 9, 22, 0)):
            grid = report.grids[f"component{j}"]
            assert grid["support"] == [pytest.approx(low, rel=1e-15), 1.0]
            flags = np.array(grid["in_support"])
            assert flags.dtype == bool and flags.shape == (201,)
            assert int((~flags).sum()) == outside
            x = np.array(grid["x_scaled"])
            assert np.array_equal(flags, (x >= grid["support"][0]) & (x <= 1.0))
            width = np.array(grid["upper"]) - np.array(grid["lower"])
            assert int((width == 0.0).sum()) == zero_width
            assert not np.any(flags & (width == 0.0))
            assert f"component {j}: {outside} of 201 grid points" in err
        # the CSV columns are unchanged
        header, _ = read_table(tmp_path / "fit_component1.csv")
        assert header == ["x", "x_scaled", "estimate", "lower", "upper"]

    def test_zero_penalty_warning_names_pinned_columns(self, tmp_path, capsys, ozone_args):
        code, out, err = run_main(
            capsys, *ozone_args, "--lambda1", "0", "--lambda2", "0", "--max-stages", "5"
        )
        assert "component 1 basis columns [0, 1, 2, 3, 4]" in err
        assert "component 2 basis columns [0]" in err
        # too few stages: exit 2, and the report is still written
        assert code == 2
        report = RunReport.load(tmp_path / "fit_report.json")
        assert report.coefficients["b1"][:5] == [0.0] * 5
        assert report.coefficients["b2"][0] == 0.0

    def test_report_lists_pinned_columns(self, tmp_path, capsys, ozone_args):
        run_main(capsys, *ozone_args, "--lambda1", "0", "--lambda2", "0", "--max-stages", "5")
        report = RunReport.load(tmp_path / "fit_report.json")
        assert report.pinned_columns == {"component1": [0, 1, 2, 3, 4], "component2": [0]}
        code, _, _ = run_main(capsys, *ozone_args)
        assert code == 0
        report = RunReport.load(tmp_path / "fit_report.json")
        assert report.pinned_columns == {"component1": [], "component2": []}
        # a report written before the field existed still loads
        old = json.loads((tmp_path / "fit_report.json").read_text())
        del old["pinned_columns"]
        assert RunReport.from_json(json.dumps(old)).pinned_columns == {}

    def test_zero_penalty_full_range_covariates_warn_but_report(self, tmp_path, capsys):
        # with covariates spanning (0, 1] only the joint system is singular,
        # which the gauge resolves without a warning; the per-component
        # solves are fine and the fit is reported
        rng = np.random.default_rng(17)
        n = 200
        x1 = 1.0 - rng.random(n)
        x2 = 1.0 - rng.random(n)
        y = np.sin(2 * np.pi * x1) + 0.5 * np.cos(np.pi * x2) + rng.uniform(-0.5, 0.5, n)
        data = tmp_path / "full.csv"
        from addspline.dataio import write_table

        write_table(data, ["y", "a", "b"], [y, x1, x2])
        code, out, err = run_main(
            capsys,
            "fit",
            "--data",
            str(data),
            "--y",
            "y",
            "--x1",
            "a",
            "--x2",
            "b",
            "--lambda1",
            "0",
            "--lambda2",
            "0",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert "singular" not in err
        report = RunReport.load(tmp_path / "fit_report.json")
        assert report.joint_system_singular
        assert report.config["lambda1"] == 0.0
        assert report.converged

    def test_one_factorization_per_fit(self, tmp_path, capsys, ozone_args, monkeypatch):
        built = []
        init = NormalEquations.__init__

        def counting(self, design):
            built.append(design)
            init(self, design)

        monkeypatch.setattr(NormalEquations, "__init__", counting)
        code, _, _ = run_main(capsys, *ozone_args)
        assert code == 0
        assert len(built) == 1

    def test_grid_basis_evaluated_once_per_fit(self, tmp_path, capsys, ozone_args, monkeypatch):
        # the reader's statistics build the two designs, the fit's design has
        # no rows, and one grid: the estimates and the band share the rows
        calls = []
        for name, module in list(sys.modules.items()):
            if name.startswith("addspline.") and hasattr(module, "design_matrix"):
                original = module.design_matrix

                def counting(cfg, points, original=original):
                    calls.append(np.size(points))
                    return original(cfg, points)

                monkeypatch.setattr(module, "design_matrix", counting)
        code, _, _ = run_main(capsys, *ozone_args)
        assert code == 0
        assert calls == [111, 111, 201]

    @pytest.mark.parametrize("flag,value", [("--level", "1.5"), ("--grid", "0")])
    def test_bad_level_or_grid_exit_1_before_fitting(
        self, tmp_path, capsys, ozone_args, flag, value
    ):
        # the ozone fit always warns of grid points outside the data's
        # support; its absence shows no fit ran
        code, _, err = run_main(capsys, *ozone_args, flag, value)
        assert code == 1
        assert "error:" in err
        assert "support" not in err
        assert not (tmp_path / "fit_report.json").exists()

    def test_nonconvergence_exit_code_keeps_report(self, tmp_path, capsys, ozone_args):
        code, out, _ = run_main(capsys, *ozone_args, "--max-stages", "1", "--tol", "1e-14")
        assert code == 2
        assert "converged=False" in out
        report = RunReport.load(tmp_path / "fit_report.json")
        assert not report.converged
        assert report.stages == 1
        # the fixed-stage estimator's band: the weights of its one stage
        assert report.diagnostics["band_weights"] == "stages"
        assert report.diagnostics["schur_pivot_ratio"] is None

    def test_missing_file_exit_1(self, tmp_path, capsys):
        code, _, err = run_main(
            capsys,
            "fit",
            "--data",
            str(tmp_path / "absent.csv"),
            "--y",
            "a",
            "--x1",
            "b",
            "--x2",
            "c",
            "--out",
            str(tmp_path),
        )
        assert code == 1
        assert "error:" in err

    def test_bad_column_exit_1(self, tmp_path, capsys, ozone_args):
        args = list(ozone_args)
        args[args.index("ozone")] = "Ozone"
        code, _, err = run_main(capsys, *args)
        assert code == 1
        assert "available" in err

    def test_bad_kn_value_exit_1(self, tmp_path, capsys, ozone_args):
        code, _, err = run_main(capsys, *ozone_args, "--kn", "many")
        assert code == 1
        assert "--kn" in err

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data"])  # missing value and required flags
        assert exc.value.code == 1

    def test_no_preprocess_requires_unit_domain(self, tmp_path, capsys, ozone_args):
        code, _, err = run_main(capsys, *ozone_args, "--no-preprocess")
        assert code == 1
        assert "error:" in err

    def test_config_file_with_flag_override(self, tmp_path, capsys, ozone_args):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# tuning\nkn = 10\nlambda1 = 2.0\nlambda2 = 2.0\n")
        code, _, _ = run_main(capsys, *ozone_args, "--config", str(cfg), "--lambda1", "3.0")
        assert code == 0
        report = RunReport.load(tmp_path / "fit_report.json")
        assert report.config["num_intervals"] == 10
        assert report.config["lambda1"] == 3.0  # explicit flag wins
        assert report.config["lambda2"] == 2.0

    @pytest.mark.parametrize("named", ["itself", "another file"])
    def test_config_file_naming_a_config_file_exits_1_at_once(self, tmp_path, ozone_args, named):
        # run in a child, so that a cycle fails the test instead of hanging it
        cfg, other = tmp_path / "self.cfg", tmp_path / "other.cfg"
        other.write_text("kn = 10\n")
        cfg.write_text(f"kn = 12\nconfig = {cfg if named == 'itself' else other}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "addspline", *ozone_args, "--config", str(cfg)],
            capture_output=True, text=True, env=CHILD_ENV, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: {cfg}:2: a config file cannot name a config file\n"
        assert not (tmp_path / "fit_report.json").exists()


def _write_fit_csv(path, x2):
    """y on a spread covariate a and the given covariate b, 200 rows."""
    rng = np.random.default_rng(19)
    a = 1.0 - rng.random(x2.size)
    y = np.sin(2 * np.pi * a) + rng.uniform(-0.5, 0.5, x2.size)
    from addspline.dataio import write_table

    write_table(path, ["y", "a", "b"], [y, a, x2])
    return ["fit", "--data", str(path), "--y", "y", "--x1", "a", "--x2", "b",
            "--out", str(path.parent)]


def _order_blame(m: int) -> str:
    """The cause named for a system that no weight mends at penalty order m."""
    return (f"the order-{m} difference penalty leaves polynomials of degree {m - 1} "
            "unpenalized, and the covariate has too few distinct values to determine "
            "them. Reduce --diff-order.")


class TestDegenerateInput:
    def test_constant_covariate_names_its_column(self, tmp_path, capsys):
        args = _write_fit_csv(tmp_path / "const.csv", np.full(200, 3.0))
        code, _, err = run_main(capsys, *args)
        assert code == 1
        assert "covariate column 'b' (x2) has a single distinct value" in err
        assert "zero penalty" not in err
        assert not (tmp_path / "fit_report.json").exists()

    def test_too_few_values_at_positive_penalty_leave_zero_penalty_unsaid(
        self, tmp_path, capsys
    ):
        # two covariate values cannot fix the quadratics that an order-3
        # penalty leaves free, whatever lambda
        x2 = np.where(np.arange(200) % 2 == 0, 1.0, 2.0)
        args = _write_fit_csv(tmp_path / "two.csv", x2)
        code, _, err = run_main(capsys, *args, "--diff-order", "3")
        assert code == 1
        assert "singular" in err
        assert "order-3 difference penalty" in err
        assert "zero penalty" not in err
        code, _, err = run_main(capsys, *args, "--lambda1", "0", "--lambda2", "0")
        assert code == 1
        assert "at zero penalty" in err

    @pytest.mark.parametrize("flags, blame, values", [
        (["--diff-order", "3"], _order_blame(3), (1.0, 2.0)),
        (["--lambda1", "0", "--lambda2", "0"],
         "at zero penalty the basis columns that hold data do not determine their "
         "coefficients", (1.0, 2.0)),
        (["--lambda1", "1e200"],
         "the penalty weight lambda1 = 1e+200 swamps the data: to rounding, Lam_1 = G_1 + "
         "lambda1 Q is lambda1 Q, whose order-2 difference penalty leaves polynomials of "
         "degree 1 undetermined. Reduce --lambda1.", (1.0, 2.0)),
        (["--lambda2", "1e200", "--diff-order", "1"],
         "the penalty weight lambda2 = 1e+200 swamps the data: to rounding, Lam_2 = G_2 + "
         "lambda2 Q is lambda2 Q, whose order-1 difference penalty leaves polynomials of "
         "degree 0 undetermined. Reduce --lambda2.", (1.0, 2.0)),
        # systems singular in exact arithmetic, some of which numpy's Cholesky
        # let through: two values never fix quadratics, whatever K and lambda
        *[(["--diff-order", "3", "--kn", kn], _order_blame(3), (1.0, 2.0))
          for kn in ("4", "6", "8", "10", "12")],
        *[(["--diff-order", "3", "--lambda1", "1", "--lambda2", "1", "--kn", kn],
           _order_blame(3), (1.0, 2.0)) for kn in ("4", "6", "8", "10", "12", "auto")],
        *[(["--diff-order", "4", "--lambda1", "1", "--lambda2", "1", "--kn", kn],
           _order_blame(4), (1.0, 2.0)) for kn in ("6", "8", "10")],
        (["--kn", "8", "--diff-order", "4", "--lambda1", "1", "--lambda2", "1"],
         _order_blame(4), (0.3, 0.8)),
        # component 1 factors at zero penalty; component 2 fails at its weight
        (["--diff-order", "3", "--lambda1", "0"], _order_blame(3), (1.0, 2.0)),
    ], ids=["order", "zero-penalty", "weight-1", "weight-2",
            "order-kn4", "order-kn6", "order-kn8", "order-kn10", "order-kn12",
            "order-unit-weights-kn4", "order-unit-weights-kn6", "order-unit-weights-kn8",
            "order-unit-weights-kn10", "order-unit-weights-kn12", "order-unit-weights",
            "order-4-unit-weights-kn6", "order-4-unit-weights-kn8",
            "order-4-unit-weights-kn10", "order-4-other-values-kn8", "order-zero-lambda1"])
    def test_a_singular_system_names_its_cause(self, tmp_path, capsys, flags, blame, values):
        # b takes two values: enough for lines, too few for quadratics; the
        # default order fits at the default weights
        x2 = np.where(np.arange(200) % 2 == 0, *values)
        args = _write_fit_csv(tmp_path / "two.csv", x2)
        out = tmp_path / "out"
        assert run_main(capsys, *args, "--out", str(out / "default"))[0] in (0, 2)
        code, stdout, err = run_main(capsys, *args, *flags, "--out", str(out / "failed"))
        assert (code, stdout) == (1, "")
        assert err.startswith("error: a per-component normal-equation system is singular (")
        assert blame in err
        assert sum(cause in err for cause in ("Reduce --diff-order", "at zero penalty",
                                              "swamps the data")) == 1
        assert not (out / "failed").exists()

    def test_ozone_at_a_swamping_weight_names_the_weight(self, tmp_path, capsys, ozone_args):
        out = tmp_path / "out"
        code, _, err = run_main(capsys, *ozone_args, "--lambda1", "1e200", "--out", str(out))
        assert code == 1
        assert "the penalty weight lambda1 = 1e+200 swamps the data" in err
        assert "Reduce --lambda1." in err and "--diff-order" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "sim3", "sim1"])
    def test_svg_into_a_missing_directory_exit_1_leaving_no_out(
        self, tmp_path, capsys, ozone_args, command
    ):
        args = ozone_args if command == "fit" else ["simulate", command, "--n", "50",
                                                    "--reps", "4" if command == "sim3" else "1"]
        out, svg = tmp_path / "out", tmp_path / "missing" / "figure.svg"
        code, stdout, err = run_main(capsys, *args, "--out", str(out), "--svg", str(svg))
        assert (code, stdout) == (1, "")
        assert err.endswith(f"error: --svg {svg}: directory {svg.parent} does not exist\n")
        assert not out.exists() and not svg.parent.exists()
        code, _, err = run_main(capsys, *args, "--out", str(out), "--svg", str(tmp_path))
        assert code == 1 and err.endswith(f"error: --svg {tmp_path} is a directory\n")
        assert not out.exists()
        # a figure in the directory that --out makes is written after it
        svg = out / "sub" / "figure.svg"
        code, _, _ = run_main(capsys, *args, "--out", str(out / "sub"), "--svg", str(svg))
        assert code in (0, 2) and svg.read_text().startswith("<svg")

    def test_response_whose_squares_overflow_exit_1_naming_it(self, tmp_path, capsys):
        # 40 rows of y near 1e200: y^2 overflows a float
        rng = np.random.default_rng(5)
        path = tmp_path / "huge.csv"
        write_table(path, ["ozone", "a", "b"],
                    [rng.normal(size=40) * 1e200, 1.0 - rng.random(40), 1.0 - rng.random(40)])
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way
            code, stdout, err = run_main(capsys, "fit", "--data", str(path), "--y", "ozone",
                                         "--x1", "a", "--x2", "b", "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: {path}: response column 'ozone' holds values up to ")
        assert "too large for the sums of squares a fit of 40 rows forms" in err
        assert not out.exists()

    def test_more_intervals_than_rows(self, tmp_path, capsys):
        # n = 30 rows and K = 40 knot intervals: the default penalty fixes
        # the coefficients of the intervals without data, zero penalty does not
        x2 = 1.0 - np.random.default_rng(23).random(30)
        args = [*_write_fit_csv(tmp_path / "k_over_n.csv", x2), "--kn", "40"]
        code, _, _ = run_main(capsys, *args, "--out", str(tmp_path / "default"))
        report = RunReport.load(tmp_path / "default" / "fit_report.json")
        assert (report.n, report.config["num_intervals"]) == (30, 40)
        assert code == (0 if report.converged else 2)
        out = tmp_path / "zero"
        code, stdout, err = run_main(
            capsys, *args, "--lambda1", "0", "--lambda2", "0", "--out", str(out)
        )
        assert code == 1
        assert stdout == ""
        assert "singular" in err and "at zero penalty" in err
        assert not out.exists()

    @pytest.mark.parametrize("order", [16, 1100])  # 1100: its binomials overflow a float
    def test_diff_order_above_the_auto_basis_exit_1_after_the_read_leaving_no_out(
        self, tmp_path, capsys, monkeypatch, ozone_args, order
    ):
        # K = kn_rule(111) = 13 is known only after the read: q = 16 <= order
        reads = recorded_reads(monkeypatch)
        out = tmp_path / "out"
        code, stdout, err = run_main(
            capsys, *ozone_args, "--diff-order", str(order), "--out", str(out)
        )
        message = (f"error: --diff-order {order} must be below the basis size "
                   "K + degree = 16 (K = 13 at n = 111, --degree 3)\n")
        assert (code, stdout, err) == (1, "", message)
        assert [read.n for read in reads] == [111]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "sim1", "sim3"])
    def test_empty_grid_exit_1_naming_the_flag_before_any_work(
        self, tmp_path, capsys, monkeypatch, ozone_args, command
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("no fit may run with an empty grid")

        monkeypatch.setattr("addspline.cli.build_design", forbidden)
        monkeypatch.setattr("addspline.cli.run_sim1", forbidden)
        monkeypatch.setattr("addspline.cli.run_sim3", forbidden)
        out = tmp_path / "out"
        argv = ozone_args if command == "fit" else ["simulate", command, "--n", "50"]
        code, stdout, err = run_main(capsys, *argv, "--grid", "0", "--out", str(out))
        assert (code, stdout, err) == (1, "", "error: --grid must be >= 1, got 0\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags, message",
        [("fit", ["--degree", "-1"], "degree must be >= 0, got -1"),
         ("sim1", ["--degree", "-1"], "degree must be >= 0, got -1"),
         ("fit", ["--diff-order", "0"], "difference order must be >= 1, got 0"),
         ("sim1", ["--diff-order", "0"], "difference order must be >= 1, got 0"),
         # an order of at least q = K + p, where K is known before the read:
         # an explicit --kn, and kn_rule(n) = 7 at n = 20
         ("fit", ["--kn", "2", "--diff-order", "5"],
          "--diff-order 5 must be below the basis size K + degree = 5 (--kn 2, --degree 3)"),
         ("fit", ["--kn", "1", "--diff-order", "4"],
          "--diff-order 4 must be below the basis size K + degree = 4 (--kn 1, --degree 3)"),
         ("sim1", ["--n", "20", "--diff-order", "12"],
          "--diff-order 12 must be below the basis size K + degree = 10 "
          "(K = 7 at n = 20, --degree 3)"),
         ("sim1", ["--seed", "-1"], "--seed must be >= 0, got -1"),
         # q = 2003 carries the order, but C(2200, 1100) is beyond a float
         ("fit", ["--kn", "2000", "--diff-order", "1100"],
          "difference order 1100 is too large: its penalty overflows a float")],
        ids=["degree-fit", "degree-sim1", "diff_order-fit", "diff_order-sim1",
             "diff_order_above_basis-fit", "diff_order_at_basis-kn1-fit",
             "diff_order_above_basis-sim1", "negative_seed-sim1",
             "diff_order_beyond_float-fit"],
    )
    def test_bad_basis_flag_exit_1_before_any_work(
        self, tmp_path, capsys, monkeypatch, ozone_args, command, flags, message
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("no data may be read or drawn with a bad flag")

        monkeypatch.setattr("addspline.cli.load_csv_summarized", forbidden)  # the one reader
        monkeypatch.setattr("addspline.cli.run_sim1", forbidden)
        out = tmp_path / "out"
        argv = ozone_args if command == "fit" else ["simulate", command, "--n", "50"]
        code, stdout, err = run_main(capsys, *argv, *flags, "--out", str(out))
        assert (code, stdout, err) == (1, "", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "sim1", "sim2"])
    def test_grid_below_2_with_svg_exit_1_before_any_work(
        self, tmp_path, capsys, monkeypatch, ozone_args, command
    ):
        # a curve figure needs two grid points; sim3's figure is a contour
        def forbidden(*args, **kwargs):
            raise AssertionError("no data may be read or drawn with a bad flag")

        for name in ("load_csv_summarized", "run_sim1", "run_sim2"):
            monkeypatch.setattr(cli, name, forbidden)
        out = tmp_path / "out"
        argv = ozone_args if command == "fit" else ["simulate", command, "--n", "20"]
        code, stdout, err = run_main(
            capsys, *argv, "--grid", "1", "--svg", str(out / "f.svg"), "--out", str(out))
        assert (code, stdout, err) == (1, "", "error: --svg needs --grid >= 2 to draw its "
                                       "curves, got --grid 1\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--lambda1", "nan"), ("--lambda1", "inf"), ("--tol", "inf"), ("--tol", "nan")],
    )
    def test_non_finite_flag_exit_1_naming_it_before_any_work(
        self, tmp_path, capsys, monkeypatch, ozone_args, flag, value
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("no data may be read with a non-finite flag")

        monkeypatch.setattr("addspline.cli.load_csv_summarized", forbidden)  # the one reader
        out = tmp_path / "out"
        code, stdout, err = run_main(capsys, *ozone_args, flag, value, "--out", str(out))
        assert (code, stdout, err) == (1, "", f"error: {flag} must be finite, got {value}\n")
        assert not out.exists()


    @pytest.mark.parametrize("j", [1, 2])
    def test_penalty_weight_beyond_the_float_range_exit_1_leaving_no_out(
        self, tmp_path, capsys, ozone_args, j
    ):
        # lambda_j Q overflows: Lam_j = G_j + lambda_j Q is not finite
        out = tmp_path / "out"
        code, stdout, err = run_main(capsys, *ozone_args, f"--lambda{j}", "1e308", "--out", str(out))
        message = (
            f"error: penalty weight lambda{j} = 1e+308 is too large: "
            f"Lam_{j} = G_{j} + lambda{j} Q exceeds the float range\n"
        )
        assert (code, stdout, err) == (1, "", message)
        assert not out.exists()

    def test_report_value_json_cannot_hold_exit_1_leaving_no_out(
        self, tmp_path, capsys, monkeypatch, ozone_args
    ):
        # the report's text is built before --out is made, so no CSV is left
        monkeypatch.setattr(cli, "sigma2_hat", lambda *args: float("nan"))
        out = tmp_path / "out"
        code, stdout, err = run_main(capsys, *ozone_args, "--out", str(out))
        assert (code, stdout) == (1, "")
        assert "Out of range float values are not JSON compliant" in err
        assert not out.exists()


class TestFitReadInParts:
    """A CSV of at least `dataio._SPLIT_BYTES` bytes is read and summarized in
    two parts of rows; one process or two give the same fit."""

    @pytest.fixture
    def data(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 4000
        x1, x2 = 1.0 - rng.random(n), 1.0 - rng.random(n)
        y = np.sin(2 * np.pi * x1) + 0.5 * np.cos(np.pi * x2) + rng.uniform(-0.5, 0.5, n)
        path = tmp_path / "data.csv"
        write_table(path, ["y", "x1", "x2"], [y, x1, x2])
        return path

    def fit(self, capsys, monkeypatch, data, out, workers, split=True):
        monkeypatch.setattr(dataio, "_SPLIT_BYTES", 1 if split else 1 << 62)
        monkeypatch.setattr(forking, "workers", lambda: workers)
        reads = recorded_reads(monkeypatch)
        argv = ["fit", "--data", str(data), "--y", "y", "--x1", "x1", "--x2", "x2"]
        assert run_main(capsys, *argv, "--out", str(out))[0] == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # one part or two, the reader adds up the statistics
        (read,) = reads
        assert isinstance(read.summary, NormalStatistics)
        report = json.loads((out / "fit_report.json").read_text())
        used = report["diagnostics"].pop("read_workers")
        assert used == read.workers == (workers if split else 1)
        report.pop("runtime_seconds")
        report["diagnostics"].pop("timings")
        return report

    def test_one_and_two_processes_write_the_same_fit(self, tmp_path, capsys, monkeypatch, data):
        one = self.fit(capsys, monkeypatch, data, tmp_path / "one", 1)
        two = self.fit(capsys, monkeypatch, data, tmp_path / "two", 2)
        assert one == two
        for j in (1, 2):
            name = f"fit_component{j}.csv"
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_parts_fit_as_one_pass_does(self, tmp_path, capsys, monkeypatch, data):
        # the statistics of the parts add up in another order than one pass
        parts = self.fit(capsys, monkeypatch, data, tmp_path / "parts", 2)
        whole = self.fit(capsys, monkeypatch, data, tmp_path / "whole", 2, split=False)
        got, want = parts["config"].pop("preprocessing"), whole["config"].pop("preprocessing")
        assert parts["config"] == whole["config"]
        # y's mean is the parts' sums over n: within rounding of one pass's
        assert abs(got.pop("y_center") - want["y_center"]) <= 4 * np.spacing(abs(want.pop("y_center")))
        assert got == want
        for comp in ("component1", "component2"):
            for col in ("estimate", "lower", "upper"):
                got = np.array(parts["grids"][comp][col])
                want = np.array(whole["grids"][comp][col])
                assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


class TestFitKeepsTheRowsWhereTheyWereRead:
    """The fit reads only statistics, and no row and no process outlives the
    read; a near noise-free fit reads its rows again for sigma2_hat, part by
    part where they were read, and adds up the parts' residuals."""

    @pytest.fixture
    def noise_free(self, tmp_path):
        # no noise term: RSS is a tiny share of y'y, below what the statistics resolve
        rng = np.random.default_rng(11)
        n = 4000
        x1, x2 = 1.0 - rng.random(n), 1.0 - rng.random(n)
        y = np.sin(2 * np.pi * x1) + 0.5 * np.cos(np.pi * x2)
        path = tmp_path / "noise_free.csv"
        write_table(path, ["y", "x1", "x2"], [y, x1, x2])
        return path

    @staticmethod
    def argv(path, out):
        return ["fit", "--data", str(path), "--y", "y", "--x1", "x1", "--x2", "x2",
                "--out", str(out)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_near_noise_free_fit_adds_up_the_parts_residuals(
        self, tmp_path, capsys, monkeypatch, noise_free, workers
    ):
        monkeypatch.setattr(dataio, "_SPLIT_BYTES", 1)
        monkeypatch.setattr(forking, "workers", lambda: workers)
        reads = recorded_reads(monkeypatch)
        assert run_main(capsys, *self.argv(noise_free, tmp_path))[0] == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        report = RunReport.load(tmp_path / "fit_report.json")
        assert report.diagnostics["read_workers"] == workers
        ds = dataio.load_csv(noise_free, "y", "x1", "x2")
        d = addspline.build_design(ds.y, ds.x1, ds.x2)
        b1, b2 = (np.array(report.coefficients[k]) for k in ("b1", "b2"))
        assert d.normal_equations.rss_estimate(b1, b2)[1] >= 1e-12  # the rows are needed
        want = d.residual_sum_of_squares(b1, b2) / ds.n
        assert abs(report.sigma2 - want) <= 1e-13 * want
        # the statistics, then the parts' residual sums of squares, both in parts
        first, again = reads
        assert isinstance(first.summary, NormalStatistics) and type(again.summary) is float
        assert first.workers == again.workers == workers
        assert (again.n, again.preprocessing, again.ranges) == (
            first.n, first.preprocessing, first.ranges)
        assert report.sigma2 == again.summary / ds.n

    def test_no_child_is_left_when_the_fit_starts(self, tmp_path, capsys, monkeypatch, noise_free):
        monkeypatch.setattr(dataio, "_SPLIT_BYTES", 1)
        monkeypatch.setattr(forking, "workers", lambda: 2)
        reads, children, fit = recorded_reads(monkeypatch), [], cli.backfit

        def checking(*args, **kwargs):
            try:
                children.append(os.waitpid(-1, os.WNOHANG))
            except ChildProcessError:
                children.append(None)
            return fit(*args, **kwargs)

        monkeypatch.setattr(cli, "backfit", checking)
        assert run_main(capsys, *self.argv(noise_free, tmp_path))[0] == 0
        assert children == [None] and reads[0].workers == 2

    def test_zeros_nudged_warn_once_though_read_twice(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(11)
        x1, x2 = 1.0 - rng.random(4000), 1.0 - rng.random(4000)
        x1[7] = 0.0
        y = np.sin(2 * np.pi * x1) + 0.5 * np.cos(np.pi * x2)
        path = tmp_path / "zero.csv"
        write_table(path, ["y", "x1", "x2"], [y, x1, x2])
        reads = recorded_reads(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_main(capsys, *self.argv(path, tmp_path))[0] == 0
        assert len(reads) == 2 and reads[1].preprocessing.zeros_nudged == 1
        assert [str(w.message) for w in caught] == [
            "1 zero covariate values nudged to the smallest positive double"]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("change", ["one row fewer", "another response"])
    def test_file_changed_between_the_reads_exits_1_leaving_no_out(
        self, tmp_path, capsys, monkeypatch, noise_free, workers, change
    ):
        monkeypatch.setattr(dataio, "_SPLIT_BYTES", 1)
        monkeypatch.setattr(forking, "workers", lambda: workers)
        fit = cli.backfit

        def rewriting(*args, **kwargs):  # the file changes once the fit is made
            header, table = read_table(noise_free)
            if change == "one row fewer":
                table = table[:-1]
            else:
                table[5, 0] += 0.5
            write_table(noise_free, header, list(table.T))
            return fit(*args, **kwargs)

        monkeypatch.setattr(cli, "backfit", rewriting)
        out = tmp_path / "out"
        code, stdout, err = run_main(capsys, *self.argv(noise_free, out))
        assert (code, stdout) == (1, "")
        assert err == f"error: {noise_free}: the file changed while it was being fitted\n"
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fit_exiting_1_after_the_read_leaves_no_child(self, tmp_path, capsys, monkeypatch):
        # two covariate values cannot fix an order-3 penalty's quadratics: the
        # per-component system is singular once the parts are summarized
        monkeypatch.setattr(dataio, "_SPLIT_BYTES", 1)
        monkeypatch.setattr(forking, "workers", lambda: 2)
        reads = recorded_reads(monkeypatch)
        x2 = np.where(np.arange(200) % 2 == 0, 1.0, 2.0)
        args = _write_fit_csv(tmp_path / "two.csv", x2)
        start = time.perf_counter()
        code, _, err = run_main(capsys, *args, "--diff-order", "3")
        assert time.perf_counter() - start < 5.0
        assert code == 1 and "singular" in err
        assert [read.workers for read in reads] == [2]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestFitOneReader:
    """Every fit reads, preprocesses and summarizes its rows in one call."""

    def test_ozone_fit_reads_the_statistics_of_its_rows(
        self, tmp_path, capsys, monkeypatch, ozone_args
    ):
        reads = recorded_reads(monkeypatch)
        assert run_main(capsys, *ozone_args, "--out", str(tmp_path / "default"))[0] == 0
        pre = tmp_path / "ozone_preprocessed.csv"
        ds = dataio.load_csv(OZONE_CSV, "ozone", "temperature", "wind")
        write_table(pre, ["ozone", "temperature", "wind"], [ds.y, ds.x1, ds.x2])
        argv = ["fit", "--data", str(pre), "--y", "ozone", "--x1", "temperature",
                "--x2", "wind", "--no-preprocess", "--out", str(tmp_path / "raw")]
        assert run_main(capsys, *argv)[0] == 0
        assert len(reads) == 2 and reads[0].preprocessing == ds.preprocessing
        assert reads[1].preprocessing is None
        cfg = make_knots(3, 13)
        for name in ("default", "raw"):
            report = RunReport.load(tmp_path / name / "fit_report.json")
            assert report.diagnostics["read_workers"] == 1
            assert report.config["num_intervals"] == 13
        want = NormalStatistics.of(ds.y, design_matrix(cfg, ds.x1), design_matrix(cfg, ds.x2))
        for read in reads:
            assert read.workers == 1 and read.n == 111
            assert read.ranges == [(x.min(), x.max()) for x in (ds.x1, ds.x2)]
            for f in dataclasses.fields(want):
                got = np.asarray(getattr(read.summary, f.name))
                assert got.tobytes() == np.asarray(getattr(want, f.name)).tobytes(), f.name
        # the preprocessed rows, read raw, give the same fit
        for j in (1, 2):
            a, b = (read_table(tmp_path / name / f"fit_component{j}.csv")[1]
                    for name in ("default", "raw"))
            assert a[:, 1:].tobytes() == b[:, 1:].tobytes()


class TestFitDiagnostics:
    def test_report_carries_the_identification_diagnostics(self, tmp_path, capsys, ozone_args):
        assert run_main(capsys, *ozone_args)[0] == 0
        report = RunReport.load(tmp_path / "fit_report.json")
        diag = report.diagnostics
        assert set(diag) == {
            "constant_shift_residual", "constant_shift_floor", "f2_sum", "read_workers",
            "factor_pivot_ratio", "band_weights", "schur_pivot_ratio", "timings",
        }
        # the seconds of the read, the fit, the band and the grids' formatting
        timings = diag["timings"]
        assert list(timings) == ["band_s", "fit_s", "format_s", "read_s"]
        assert all(t >= 0.0 for t in timings.values())
        assert sum(timings.values()) <= report.runtime_seconds
        # a converged fit's band comes from the gauged solve, whose Schur
        # factor clears the floor that `NormalEquations.solve` asks of it
        assert diag["band_weights"] == "solution"
        assert diag["schur_pivot_ratio"] > 1.0
        assert diag["read_workers"] == 1  # a 4.7 KB file is read in one process
        # each Lam_j's smallest pivot over its rounding floor: above 1 by
        # construction, and far above it on ozone
        assert len(diag["factor_pivot_ratio"]) == 2
        assert min(diag["factor_pivot_ratio"]) > 1e3
        assert 0.0 <= diag["constant_shift_residual"] <= diag["constant_shift_floor"]
        assert report.joint_system_singular
        # f2_sum is (X_2'1)'b_2, zero for the zero-start backfit up to rounding
        b2 = np.array(report.coefficients["b2"])
        assert abs(diag["f2_sum"]) <= 1e-9 * np.abs(b2).sum() * report.n
        # a report written before the field, or before read_workers, still loads
        old = json.loads((tmp_path / "fit_report.json").read_text())
        del old["diagnostics"]["read_workers"]
        assert set(RunReport.from_json(json.dumps(old)).diagnostics) == set(diag) - {"read_workers"}
        del old["diagnostics"]
        assert RunReport.from_json(json.dumps(old)).diagnostics == {}

    def test_fit_runs_no_dense_hessian_and_one_row_pass(
        self, tmp_path, capsys, ozone_args, monkeypatch
    ):
        from addspline import basis

        def forbidden(self):
            raise AssertionError("the fit must not build the dense stacked matrix")

        # hessian_check starts from the stacked matrix
        monkeypatch.setattr(NormalEquations, "stacked_matrix", forbidden)
        rows = []
        original = basis._basis_rows

        def counting(cfg, x):
            rows.append(np.size(x))
            return original(cfg, x)

        monkeypatch.setattr(basis, "_basis_rows", counting)
        code, _, _ = run_main(capsys, *ozone_args)
        assert code == 0
        # each covariate's rows once, for the normal equations; the grid once
        # for the band and once for both estimates
        assert rows == [111, 111, 201, 201]


class TestFitBand:
    """A converged fit's band takes the weights of the backfitting solution;
    the stages that reached it give the same band."""

    @staticmethod
    def _bounds(path):
        report = RunReport.load(path / "fit_report.json")
        grids = [report.grids[f"component{j}"] for j in (1, 2)]
        return report, [(np.array(g["lower"]), np.array(g["upper"]), np.array(g["in_support"]))
                        for g in grids]

    @pytest.mark.parametrize("flags, zero_widths", [
        ([], 0), (["--lambda1", "0", "--lambda2", "0", "--max-stages", "400"], 30),
    ], ids=["default", "zero-penalty"])
    def test_solution_band_matches_the_stage_band_of_the_same_run(
        self, tmp_path, capsys, monkeypatch, ozone_args, flags, zero_widths
    ):
        args = [*ozone_args, *flags]
        assert run_main(capsys, *args, "--out", str(tmp_path / "solution"))[0] == 0

        def no_gauge(self):
            raise NotPositiveDefiniteError("no gauge fixes the split")

        # the fallback of a fit whose split no gauge fixes: the stage weights
        monkeypatch.setattr(NormalEquations, "_schur", property(no_gauge))
        assert run_main(capsys, *args, "--out", str(tmp_path / "stages"))[0] == 0
        solution, got = self._bounds(tmp_path / "solution")
        stages, want = self._bounds(tmp_path / "stages")
        assert solution.diagnostics["band_weights"] == "solution"
        assert stages.diagnostics["band_weights"] == "stages"
        assert solution.coefficients == stages.coefficients
        widths = 0
        for (lower, upper, inside), (lower_s, upper_s, _) in zip(got, want):
            np.testing.assert_allclose(lower[inside], lower_s[inside], rtol=1e-9, atol=0)
            np.testing.assert_allclose(upper[inside], upper_s[inside], rtol=1e-9, atol=0)
            # the pinned columns' grid points: exactly zero width in both
            assert np.array_equal(upper == lower, upper_s == lower_s)
            widths += int(np.sum(upper == lower))
        assert widths == zero_widths

    def test_split_no_gauge_fixes_keeps_the_stage_band(self, tmp_path, capsys, ozone_args):
        # x2 = x1: the fit converges at --tol 1, but the solve cannot split
        # the one covariate's effect between the components
        args = [*ozone_args, "--x2", "temperature", "--tol", "1"]
        code, stdout, _ = run_main(capsys, *args)
        assert (code, "converged=True" in stdout) == (0, True)
        report, bounds = self._bounds(tmp_path)
        assert report.diagnostics["band_weights"] == "stages"
        assert report.diagnostics["schur_pivot_ratio"] is None
        assert all(np.isfinite(b).all() for lower, upper, _ in bounds for b in (lower, upper))


_SUMMARY_KEYS = [
    "block_seconds", "block_workers", "covariance", "coverage", "ks_stat", "level",
    "mean", "n", "replications", "runtime_seconds", "scenario", "seed", "workers",
]
_FIT = ["fit", "--data", str(OZONE_CSV), "--y", "ozone", "--x1", "temperature", "--x2", "wind"]


@pytest.mark.parametrize(
    "argv,keys,stdout,stderr",
    [
        pytest.param(
            ["simulate", "sim1", "--n", "50"],
            ["n", "rmse", "runtime_seconds", "scenario", "seed", "stages"],
            r"sim1: n=50 rmse1=\d+\.\d{4} rmse2=\d+\.\d{4}\n", "", id="sim1",
        ),
        pytest.param(
            ["simulate", "sim2", "--n", "50"],
            ["n", "runtime_seconds", "scenario", "seed", "stages", "sup_diff"],
            r"sim2: n=50 sup_diff1=\d+\.\d{4} sup_diff2=\d+\.\d{4}\n", "", id="sim2",
        ),
        pytest.param(
            ["simulate", "sim3", "--n", "50", "--reps", "8"],
            sorted(_SUMMARY_KEYS + ["rejected", "replication_ids"]),
            r"sim3: n=50 reps=8 rejected=\d+ mean=\([-+]\d+\.\d{3}, [-+]\d+\.\d{3}\) "
            r"ks=\(\d\.\d{3}, \d\.\d{3}\)\n",
            "", id="sim3",
        ),
        pytest.param(
            ["simulate", "coverage", "--n", "50", "--reps", "8"], _SUMMARY_KEYS,
            r"coverage: n=50 level=0\.95 coverage1=\d\.\d{3} coverage2=\d\.\d{3}\n",
            "", id="coverage",
        ),
        pytest.param(
            [*_FIT, "--kn", "abc"], None, "",
            "error: --kn expects an integer or 'auto', got 'abc'\n", id="DataError",
        ),
        pytest.param(
            ["simulate", "coverage", "--n", "200", "--reps", "200"], None, "",
            "error: a per-component normal-equation system is singular "
            "(3-th leading minor not positive definite)\n",
            id="NotPositiveDefiniteError-in-worker",
        ),
        pytest.param(
            ["simulate", "sim1", "--n", "50", "--out", "{tmp}/taken"], None, "",
            f"error: [Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: '{{tmp}}/taken'\n",
            id="OSError",
        ),
        pytest.param(
            [*_FIT, "--degree", "-1"], None, "",
            "error: degree must be >= 0, got -1\n", id="ValueError",
        ),
    ],
)
def test_json_keys_stdout_and_error_lines_are_pinned(
    tmp_path, capsys, monkeypatch, request, argv, keys, stdout, stderr
):
    """What a refactor of the commands must keep: the JSON keys and the
    summary line of each scenario, and the stderr line of each error class
    that reaches `main`."""
    if request.node.callspec.id.endswith("in-worker"):
        block = sim._replicate_block

        def failing(cfg, replications):
            if 190 in replications:  # in the worker's share of 2
                raise NotPositiveDefiniteError("3-th leading minor not positive definite")
            return block(cfg, replications)

        monkeypatch.setattr(sim, "_replicate_block", failing)
        monkeypatch.setattr(sim, "_worker_count", lambda rows, blocks: 2)
    (tmp_path / "taken").touch()
    out = tmp_path / "out"
    argv = [a.format(tmp=tmp_path) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(out)]
    code, out_text, err = run_main(capsys, *argv)
    assert err == stderr.format(tmp=tmp_path)
    if keys is None:
        assert (code, out_text) == (1, "")
        assert list(out.glob("*")) == []
        return
    assert code == 0
    assert re.fullmatch(stdout, out_text)
    (path,) = out.glob("*.json")
    assert sorted(json.loads(path.read_text())) == keys


class TestSimulate:
    def test_sim1_outputs(self, tmp_path, capsys):
        code, out, _ = run_main(
            capsys, "simulate", "sim1", "--n", "100", "--out", str(tmp_path)
        )
        assert code == 0
        header, table = read_table(tmp_path / "sim1_n100_seed42.csv")
        assert header == ["x", "true1", "fit1", "true2", "fit2"]
        assert table.shape == (201, 5)
        payload = json.loads((tmp_path / "sim1_n100_seed42.json").read_text())
        assert payload["rmse"][0] == pytest.approx(0.104137969, abs=1e-6)
        assert "rmse" in out

    def test_sim2_outputs(self, tmp_path, capsys):
        code, _, _ = run_main(
            capsys, "simulate", "sim2", "--n", "100", "--out", str(tmp_path)
        )
        assert code == 0
        header, table = read_table(tmp_path / "sim2_n100_seed42.csv")
        assert header == ["x", "fit1", "penalized1", "fit2", "penalized2"]
        assert table.shape == (201, 5)
        payload = json.loads((tmp_path / "sim2_n100_seed42.json").read_text())
        assert payload["sup_diff"][1] == pytest.approx(0.323213015, abs=1e-6)

    def test_sim3_outputs_with_figure(self, tmp_path, capsys):
        svg = tmp_path / "density.svg"
        code, _, _ = run_main(
            capsys,
            "simulate",
            "sim3",
            "--n",
            "80",
            "--reps",
            "40",
            "--out",
            str(tmp_path),
            "--svg",
            str(svg),
        )
        assert code == 0
        header, table = read_table(tmp_path / "sim3_n80_seed42.csv")
        assert header == ["z1", "z2"]
        payload = json.loads((tmp_path / "sim3_n80_seed42.json").read_text())
        assert table.shape == (40 - payload["rejected"], 2)
        assert len(payload["mean"]) == 2
        assert len(payload["covariance"]) == 2
        assert 0.0 <= payload["ks_stat"][0] <= 1.0
        assert svg.exists()
        assert svg.read_text().count("<path") >= 1

    def test_sim3_coverage_at_the_given_level(self, tmp_path, capsys):
        code, _, _ = run_main(
            capsys, "simulate", "sim3", "--n", "50", "--reps", "40", "--level", "0.5",
            "--out", str(tmp_path),
        )
        assert code == 0
        _, table = read_table(tmp_path / "sim3_n50_seed42.csv")
        payload = json.loads((tmp_path / "sim3_n50_seed42.json").read_text())
        assert payload["level"] == 0.5
        z = NormalDist().inv_cdf(0.75)
        assert payload["coverage"] == [float(np.mean(np.abs(col) <= z)) for col in table.T]

    def test_coverage_outputs(self, tmp_path, capsys):
        code, _, err = run_main(
            capsys,
            "simulate",
            "coverage",
            "--n",
            "80",
            "--reps",
            "25",
            "--out",
            str(tmp_path),
            "--svg",
            str(tmp_path / "unused.svg"),
        )
        assert code == 0
        payload = json.loads((tmp_path / "coverage_n80_seed42.json").read_text())
        assert 0.0 <= payload["coverage"][0] <= 1.0
        assert payload["level"] == 0.95
        assert "no figure" in err
        assert not (tmp_path / "unused.svg").exists()

    @pytest.mark.parametrize("scenario", ["sim3", "coverage"])
    def test_forked_study_reports_workers_and_block_times(self, tmp_path, capsys, scenario):
        # 40000 rows in 3 blocks of 68, 68 and 64: above the fork floor
        code, _, _ = run_main(
            capsys, "simulate", scenario, "--n", "200", "--reps", "200", "--out", str(tmp_path)
        )
        assert code == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        text = (tmp_path / f"{scenario}_n200_seed42.json").read_text()
        payload = json.loads(text, parse_constant=pytest.fail)  # strict JSON
        assert payload["workers"] == sim._worker_count(200 * 200, 3)
        assert len(payload["block_seconds"]) == len(payload["block_workers"]) == 3
        assert all(t > 0 for t in payload["block_seconds"])
        assert set(payload["block_workers"]) <= set(range(payload["workers"]))

    @pytest.mark.parametrize("scenario", ["sim3", "coverage"])
    def test_worker_error_exits_1_as_the_serial_run_does(
        self, tmp_path, capsys, monkeypatch, scenario
    ):
        block = sim._replicate_block

        def failing(cfg, replications):
            if 190 in replications:  # in the last block
                raise NotPositiveDefiniteError("3-th leading minor not positive definite")
            return block(cfg, replications)

        monkeypatch.setattr(sim, "_replicate_block", failing)
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(sim, "_worker_count", lambda rows, blocks, w=workers: w)
            runs.append(run_main(
                capsys, "simulate", scenario, "--n", "200", "--reps", "200",
                "--out", str(tmp_path),
            ))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert runs[1] == runs[0]
        code, _, err = runs[1]
        assert code == 1
        assert err == (
            "error: a per-component normal-equation system is singular "
            "(3-th leading minor not positive definite)\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("scenario", ["sim3", "coverage"])
    def test_single_replication_exit_1_before_any_output(self, tmp_path, capsys, scenario):
        code, _, err = run_main(
            capsys, "simulate", scenario, "--n", "50", "--reps", "1", "--out", str(tmp_path),
            "--svg", str(tmp_path / "f.svg"),
        )
        assert code == 1
        assert f"--reps must be >= 2 for {scenario}, got 1" in err
        assert list(tmp_path.iterdir()) == []

    def test_single_replication_allowed_for_sim1(self, tmp_path, capsys):
        code, _, _ = run_main(
            capsys, "simulate", "sim1", "--n", "50", "--reps", "1", "--out", str(tmp_path)
        )
        assert code == 0

    @pytest.mark.parametrize("scenario", ["sim1", "sim2"])
    @pytest.mark.parametrize("reps", ["0", "2", "500"])
    def test_reps_for_one_dataset_exit_1_before_any_output(
        self, tmp_path, capsys, scenario, reps
    ):
        # sim1 and sim2 fit one dataset; a replication count other than one
        # used to be accepted and ignored
        code, _, err = run_main(
            capsys, "simulate", scenario, "--n", "50", "--reps", reps, "--out", str(tmp_path)
        )
        assert code == 1
        assert f"--reps does not apply to {scenario}, which fits one dataset; got {reps}" in err
        assert list(tmp_path.iterdir()) == []

    def test_reps_default_is_1000_for_coverage(self, tmp_path, capsys):
        code, _, _ = run_main(capsys, "simulate", "coverage", "--n", "20", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "coverage_n20_seed42.json").read_text())
        assert payload["replications"] == 1000

    def test_sim3_too_few_kept_rows_exit_1_before_any_output(self, tmp_path, capsys, monkeypatch):
        # a floor above every eigenvalue rejects every replication
        monkeypatch.setattr(sim, "_EIG_FLOOR", 1e300)
        code, _, err = run_main(
            capsys, "simulate", "sim3", "--n", "50", "--reps", "4", "--out", str(tmp_path),
            "--svg", str(tmp_path / "f.svg"),
        )
        assert code == 1
        assert "at least two replications, got 0 of 4 (4 rejected" in err
        assert list(tmp_path.iterdir()) == []

    def test_json_writer_rejects_nan(self, tmp_path):
        with pytest.raises(ValueError):
            _write_json(tmp_path / "out" / "x.json", {"covariance": [[float("nan")]]})
        assert not (tmp_path / "out").exists()  # the text is built first

    def test_unknown_scenario_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "sim9"])
        assert exc.value.code == 1

    def test_small_n_rejected(self, tmp_path, capsys):
        code, _, err = run_main(
            capsys, "simulate", "sim1", "--n", "10", "--out", str(tmp_path)
        )
        assert code == 1
        assert "--n" in err


# child interpreters import the package from the same tree as this process,
# whether it comes from PYTHONPATH, pytest's pythonpath setting or an install
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [str(Path(addspline.__file__).parents[1])]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ),
}


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "addspline",
                "fit",
                "--data",
                str(OZONE_CSV),
                "--y",
                "ozone",
                "--x1",
                "temperature",
                "--x2",
                "wind",
                "--out",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert (tmp_path / "fit_report.json").exists()

    def test_import_does_not_load_scipy_stats(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, addspline.cli; print('scipy.stats' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_does_not_load_scipy_special(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, addspline.cli; print('scipy.special' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    # the bare import is covered by the two tests above
    @pytest.mark.parametrize("run", ["fit", "sim3", "coverage"])
    def test_command_does_not_load_scipy_stats_or_special(self, tmp_path, run):
        argv = {
            "fit": ["fit", "--data", str(OZONE_CSV), "--y", "ozone", "--x1", "temperature",
                    "--x2", "wind", "--svg", str(tmp_path / "fit.svg")],
            "sim3": ["simulate", "sim3", "--n", "80", "--reps", "40",
                     "--svg", str(tmp_path / "sim3.svg")],
            "coverage": ["simulate", "coverage", "--n", "80", "--reps", "25"],
        }[run] + ["--out", str(tmp_path)]
        script = (
            "import sys, addspline.cli\n"
            "code = addspline.cli.main(sys.argv[1:])\n"
            "print(code, [m for m in ('scipy.stats', 'scipy.special') if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize("run", ["import", "fit", "sim3", "coverage"])
    def test_no_scipy_module_is_loaded(self, tmp_path, run):
        argv = {
            "import": [],
            "fit": ["fit", "--data", str(OZONE_CSV), "--y", "ozone", "--x1", "temperature",
                    "--x2", "wind", "--svg", str(tmp_path / "fit.svg")],
            "sim3": ["simulate", "sim3", "--n", "80", "--reps", "40",
                     "--svg", str(tmp_path / "sim3.svg")],
            "coverage": ["simulate", "coverage", "--n", "80", "--reps", "25"],
        }[run]
        script = (
            "import sys, addspline.cli\n"
            "code = addspline.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *(argv + ["--out", str(tmp_path)] if argv else [])],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

    def test_import_loads_only_these_modules_beyond_numpy(self):
        # every `addspline` run pays this path's imports in its start-up; the
        # standard library's come from argparse (gettext), csv, dataclasses
        # (copy), json, forking's select and signal, and statistics (decimal,
        # fractions)
        script = (
            "import sys\n"
            "import numpy\n"
            "before = {m.partition('.')[0] for m in sys.modules}\n"
            "import addspline.cli\n"
            "print(*sorted({m.partition('.')[0] for m in sys.modules} - before))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [
            "__future__", "_csv", "_decimal", "_json", "_statistics", "addspline", "argparse",
            "copy", "csv", "dataclasses", "decimal", "fractions", "gettext", "json", "select",
            "signal", "statistics",
        ]

    def test_no_arguments_shows_usage(self):
        proc = subprocess.run(
            [sys.executable, "-m", "addspline"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 1
        assert "usage" in (proc.stderr + proc.stdout).lower()


class TestKeepFreedHeap:
    """`simulate` keeps the heap its replication blocks free, so that each
    block reuses the pages the one before it faulted in."""

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
        reason="the thresholds are glibc malloc's",
    )
    def test_blocks_after_warm_up_fault_no_pages_in(self):
        script = (
            "import resource\n"
            "from addspline import cli, sim\n"
            "cli._keep_freed_heap()\n"
            "cfg = sim.ScenarioConfig(n=1000, seed=3, replications=160)\n"
            "R = sim._block_size(cfg)\n"
            "blocks = [range(b * R, b * R + R) for b in range(8)]\n"
            "for block in blocks[:3]:\n"
            "    sim._replicate_block(cfg, block)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for block in blocks[3:]:\n"
            "    sim._replicate_block(cfg, block)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV
        )
        assert proc.returncode == 0, proc.stderr
        # glibc's own thresholds give about 1000 a block, 5300 in all
        assert int(proc.stdout) < 50

    @pytest.mark.parametrize("loads", [False, True], ids=["no-library", "no-mallopt"])
    def test_no_op_without_mallopt(self, monkeypatch, loads):
        import ctypes

        def library(name):
            if not loads:
                raise OSError(f"{name}: cannot open shared object file")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", library)
        assert cli._keep_freed_heap() is None

    @pytest.mark.parametrize("command,calls", [("fit", 0), ("sim1", 1), ("coverage", 1)])
    def test_only_simulate_keeps_its_freed_heap(self, monkeypatch, capsys, tmp_path, command,
                                                calls):
        made = []
        monkeypatch.setattr(cli, "_keep_freed_heap", lambda: made.append(command))
        argv = {
            "fit": ["fit", "--data", str(OZONE_CSV), "--y", "ozone", "--x1", "temperature",
                    "--x2", "wind"],
            "sim1": ["simulate", "sim1", "--n", "80"],
            "coverage": ["simulate", "coverage", "--n", "80", "--reps", "25"],
        }[command]
        assert run_main(capsys, *argv, "--out", str(tmp_path))[0] == 0
        assert len(made) == calls
