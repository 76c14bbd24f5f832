"""CSV round trips, preprocessing invariants, run reports."""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import OZONE_CSV
from hypothesis import given, settings
from hypothesis import strategies as st

from addspline import dataio, forking
from addspline.backfit import NormalStatistics
from addspline.basis import design_matrix, make_knots
from addspline.dataio import (
    DataError,
    RunReport,
    _read_table_cells,
    format_float,
    json_text,
    load_csv,
    load_csv_summarized,
    preprocess_columns,
    read_table,
    write_table,
)


class TestFloatFormat:
    def test_round_trips_hard_values(self):
        for v in (0.1, 1 / 3, np.pi, 1e-308, 5e-324, 1e300, -0.0, 123456789.123456789):
            assert float(format_float(v)) == v

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trips_any_finite_double(self, v):
        assert float(format_float(v)) == v


class TestTables:
    def test_write_read_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        cols = [rng.normal(size=40) * 10.0**rng.integers(-200, 200, size=40), rng.random(40)]
        p = tmp_path / "t.csv"
        write_table(p, ["a", "b"], cols)
        header, table = read_table(p)
        assert header == ["a", "b"]
        assert np.array_equal(table[:, 0], cols[0])
        assert np.array_equal(table[:, 1], cols[1])

    def test_write_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "x.csv", ["a"], [np.zeros(3), np.zeros(3)])
        with pytest.raises(ValueError):
            write_table(tmp_path / "x.csv", ["a", "b"], [np.zeros(3), np.zeros(4)])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            read_table(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(DataError, match="empty"):
            read_table(p)

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="line 3"):
            read_table(p)

    def test_non_numeric_names_line_and_column(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match=r"line 3.*'b'"):
            read_table(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "inf.csv"
        p.write_text("a,b\n1,2\nnan,4\n")
        with pytest.raises(DataError, match="non-finite"):
            read_table(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text("a,b\n1,2\n\n3,4\n")
        _, table = read_table(p)
        assert table.shape == (2, 2)


def _outcome(reader, path):
    """(header, table) or the DataError message that `reader` gives for `path`."""
    try:
        header, table = reader(path)
    except DataError as exc:
        return "error", str(exc)
    return header, table


def _assert_same_outcome(path):
    got, want = _outcome(read_table, path), _outcome(_read_table_cells, path)
    assert got[0] == want[0]
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert got[1].dtype == want[1].dtype == np.float64
        assert got[1].shape == want[1].shape
        assert (got[1].view(np.int64) == want[1].view(np.int64)).all()  # bit for bit
    return got


class TestVectorizedParse:
    """The one-pass parse agrees with the cell-by-cell csv reader, and defers
    to it (and to its error messages) on any input it does not read alike."""

    def test_ozone_bit_for_bit(self):
        header, table = _assert_same_outcome(OZONE_CSV)
        assert table.shape == (111, len(header))

    def test_seventeen_digit_file_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(3)
        cols = [rng.normal(size=300) * 10.0 ** rng.integers(-300, 300, size=300)
                for _ in range(3)]
        cols.append(np.array([5e-324, -0.0, 1.7976931348623157e308] * 100))
        p = tmp_path / "digits.csv"
        write_table(p, ["a", "b", "c", "d"], cols)
        _, table = _assert_same_outcome(p)
        for j, c in enumerate(cols):
            assert (table[:, j].view(np.int64) == c.view(np.int64)).all()

    @pytest.mark.parametrize(
        "text",
        [
            "a,b\r\n1,2\r\n3,4\r\n",  # CRLF
            "a,b\r1,2\r3,4\r",  # bare CR
            "a,b\n1,2\n   \n3,4\n",  # whitespace-only line
            "a,b\n1,2\n \t \n\n3,4\n\n",  # blank lines
            "a\n1\n  \n2\n",  # whitespace-only line, one column
            "a,b\n#1,2\n",  # a cell starting with '#'
            "a,b\n1,2\n3,#4\n",
            'a,b\n"1",2\n',  # quoted numeric cells
            'a,b\n"1.5","2e3"\n',
            "a,b\n1_0,2\n",  # accepted by Python's float only
            "a,b\nnan,2\n",
            "a,b\n1,inf\n",
            "a,b\n1,-Infinity\n",
            "a,b\n1e999,2\n",  # overflows to inf
            "a,b\n1,2\n3\n",  # ragged rows
            "a,b\n1,2,3\n",
            "a,b\n1,2\n3,4,5\n",
            "a,b,c\n1,2\n3,4\n",  # every row narrower than the header
            "a,b\n",  # header only
            "a,b",
            "a\n",
            "a,b\n1,,2\n",
            "a,b\n1,\n",
            "a,b\n 1 , 2 \n",
            "a,b\n１,2\n",  # full-width digit
            "a,b\n0x1p3,2\n",
            "a,b\n1,2\n3,oops\n",
            "a,b\n1\n",
            "a\n1\n2\n",
        ],
    )
    def test_edge_inputs_give_the_cell_reader_outcome(self, tmp_path, text):
        p = tmp_path / "edge.csv"
        p.write_bytes(text.encode())
        _assert_same_outcome(p)

    def test_clean_file_is_read_in_one_pass(self, monkeypatch):
        def fail(path):
            raise AssertionError("fell back to the cell-by-cell reader")

        monkeypatch.setattr(dataio, "_read_table_cells", fail)
        header, table = read_table(OZONE_CSV)
        assert table.shape == (111, len(header))

    def test_header_only_is_an_empty_table(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b,c\n")
        header, table = read_table(p)
        assert header == ["a", "b", "c"]
        assert table.shape == (0, 3)

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(alphabet="0123456789.,e-+ \n\r#\"_naif", max_size=40),
        st.sampled_from(["a", "a,b", "a,b,c"]),
    )
    def test_random_texts(self, body, header):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "t.csv"
            p.write_bytes((header + "\n" + body).encode())
            _assert_same_outcome(p)


class TestPreprocessing:
    def test_invariants(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=60) + 7.0
        x1 = rng.uniform(10, 40, 60)
        x2 = rng.uniform(0.5, 2.0, 60)
        yc, s1, s2, rec = preprocess_columns(y, x1, x2)
        assert abs(yc.mean()) <= 1e-12 * (np.abs(yc).max() + 1)
        assert s1.max() == 1.0
        assert s2.max() == 1.0
        assert s1.min() > 0.0
        assert rec.y_center == pytest.approx(y.mean())
        assert rec.x1_scale == x1.max()
        assert rec.zeros_nudged == 0

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=30)
        x1 = rng.uniform(1, 5, 30)
        x2 = rng.uniform(1, 5, 30)
        a = preprocess_columns(y, x1, x2)
        b = preprocess_columns(a[0], a[1], a[2])
        for i in range(3):
            assert np.array_equal(a[i], b[i])
        assert b[3].y_center == 0.0
        assert b[3].x1_scale == 1.0

    def test_zero_values_nudged_with_warning(self):
        y = np.arange(12, dtype=float)
        x1 = np.linspace(0.0, 3.0, 12)
        x2 = np.linspace(1.0, 2.0, 12)
        with pytest.warns(UserWarning, match="nudged"):
            _, s1, _, rec = preprocess_columns(y, x1, x2)
        assert rec.zeros_nudged == 1
        assert s1.min() > 0.0

    def test_negative_covariate_rejected(self):
        y = np.zeros(12)
        ok = np.linspace(1, 2, 12)
        with pytest.raises(DataError, match="negative"):
            preprocess_columns(y, -ok, ok)

    def test_inputs_are_left_unchanged(self):
        rng = np.random.default_rng(3)
        cols = [rng.normal(size=40) + 5.0, rng.uniform(0, 4, 40), rng.uniform(1, 3, 40)]
        cols[1][7] = 0.0
        saved = [c.copy() for c in cols]
        with pytest.warns(UserWarning, match="nudged"):
            preprocess_columns(*cols)
        for c, s in zip(cols, saved):
            assert np.array_equal(c, s)

    def test_all_zero_covariate_rejected(self):
        y = np.zeros(12)
        with pytest.raises(DataError, match="maximum must be positive"):
            preprocess_columns(y, np.zeros(12), np.linspace(1, 2, 12))


class TestLoadCsv:
    def test_ozone_fixture(self):
        ds = load_csv(OZONE_CSV, "ozone", "temperature", "wind")
        assert ds.n == 111
        assert ds.column_names == ("ozone", "temperature", "wind", "solar", "month", "day")
        assert abs(ds.y.mean()) < 1e-12 * np.abs(ds.y).max()
        assert ds.x1.max() == 1.0
        assert ds.x2.max() == 1.0
        assert ds.preprocessing.zeros_nudged == 0

    def test_raw_mode(self):
        ds = load_csv(OZONE_CSV, "ozone", "temperature", "wind", preprocess=False)
        assert ds.preprocessing is None
        assert ds.y.max() == 168.0
        assert ds.x2.max() == pytest.approx(20.7, rel=1e-12)

    def test_missing_column_lists_available(self):
        with pytest.raises(DataError, match="available: ozone"):
            load_csv(OZONE_CSV, "Ozone", "temperature", "wind")

    def test_columns_are_preprocessed_in_the_one_table(self, tmp_path):
        rng = np.random.default_rng(9)
        n = 20_000
        p = tmp_path / "big.csv"
        write_table(p, ["y", "a", "b"], [rng.normal(size=n), rng.random(n) + 1, rng.random(n)])
        load_csv(p, "y", "a", "b")  # warm caches and lazy imports
        tracemalloc.start()
        try:
            ds = load_csv(p, "y", "a", "b")
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = 3 * 8 * n
        # the columns are views of the parsed table: no second copy of the data
        assert ds.y.base is not None and ds.y.base is ds.x1.base is ds.x2.base
        assert held < 1.1 * table and peak < 1.5 * table
        want = preprocess_columns(*read_table(p)[1].T)
        for got, expect in zip((ds.y, ds.x1, ds.x2), want):
            assert np.array_equal(got, expect)
        assert ds.preprocessing == want[3]

    def test_one_column_in_two_roles_is_preprocessed_once_per_role(self):
        ds = load_csv(OZONE_CSV, "temperature", "temperature", "wind")
        raw = load_csv(OZONE_CSV, "ozone", "temperature", "wind", preprocess=False)
        assert np.array_equal(ds.x1, raw.x1 / raw.x1.max())
        assert np.array_equal(ds.y, raw.x1 - raw.x1.mean())

    def test_min_rows(self, tmp_path):
        p = tmp_path / "small.csv"
        p.write_text("y,a,b\n" + "\n".join(f"{i},1,{i + 1}" for i in range(5)) + "\n")
        with pytest.raises(DataError, match="fewer than"):
            load_csv(p, "y", "a", "b")
        ds = load_csv(p, "y", "a", "b", min_rows=3)
        assert ds.n == 5


ROWS = 400  # rows of the files read in parts below, the threshold lowered


def _csv_text(rows, ends=None, final="\n"):
    """CSV text of `rows` (lists of cells) under the header y,x1,x2; row i ends
    with ends[i] ("\n" by default), the last with `final`."""
    lines = ["y,x1,x2\n"]
    for i, row in enumerate(rows):
        end = final if i == len(rows) - 1 else (ends[i] if ends else "\n")
        lines.append(",".join(row) + end)
    return "".join(lines)


def _rows(seed=5, n=ROWS):
    rng = np.random.default_rng(seed)
    cols = [rng.normal(size=n) + 3.0, rng.uniform(1.0, 5.0, n), rng.uniform(0.0, 2.0, n)]
    return [["%.17g" % c[i] for c in cols] for i in range(n)]


def _sums(y, x1, x2, n):
    """A summary that adds up over parts: column sums and the row count given."""
    return np.array([y.sum(), x1.sum(), x2.sum(), float(n)])


def _split(monkeypatch, workers):
    """Read every file in parts, with `workers` processes."""
    monkeypatch.setattr(dataio, "_SPLIT_BYTES", 1)
    monkeypatch.setattr(forking, "workers", lambda: workers)


def _result(read, path):
    """What `read(path)` returns, or the message of the DataError it raises."""
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


def _assert_no_child_remains():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestReadInParts:
    """`load_csv_summarized` against `load_csv`, with a file read in two parts."""

    @staticmethod
    def edge_text(case, part):
        rows, ends, final = _rows(), None, "\n"
        i = 10 if part == 0 else ROWS - 10  # a row of the first or of the second part
        if case == "blank line":
            rows[i][-1] += "\n"
        elif case == "crlf":
            ends = ["\r\n" if (k < ROWS // 2) == (part == 0) else "\n" for k in range(ROWS)]
        elif case == "no final newline":
            final = ""
        elif case == "non-numeric":
            rows[i][1] = "abc"
        elif case == "non-finite":
            rows[i][2] = "inf"
        elif case == "negative covariate":
            rows[i][1] = "-1.5"
        return _csv_text(rows, ends, final)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("part", [0, 1])
    @pytest.mark.parametrize("case", ["blank line", "crlf", "no final newline", "non-numeric",
                                      "non-finite", "negative covariate"])
    def test_edge_inputs_give_load_csvs_outcome(self, tmp_path, monkeypatch, case, part, workers):
        p = tmp_path / "edge.csv"
        p.write_bytes(self.edge_text(case, part).encode())
        want = _result(lambda path: load_csv(path, "y", "x1", "x2"), p)
        _split(monkeypatch, workers)
        got = _result(lambda path: load_csv_summarized(path, "y", "x1", "x2", _sums), p)
        _assert_no_child_remains()
        if isinstance(want, str):  # the error names the line and column as before
            assert got == want
            if case != "negative covariate":
                assert f"at line {(10 if part == 0 else ROWS - 10) + 2}, column" in got
            return
        ds, summary, used = got
        # a blank line among the first part's lines takes load_csv's path: the
        # first part's rows would run on into the second's
        assert (summary is None) == (case == "blank line" and part == 0)
        assert used == (1 if summary is None else workers)
        assert ds.n == want.n == ROWS and ds.column_names == want.column_names
        assert np.array_equal(ds.x1, want.x1) and np.array_equal(ds.x2, want.x2)
        # y is centred on the mean of the parts' sums: within rounding of it
        rec, ref = ds.preprocessing, want.preprocessing
        assert (rec.x1_scale, rec.x2_scale, rec.zeros_nudged) == (
            ref.x1_scale, ref.x2_scale, ref.zeros_nudged)
        assert abs(rec.y_center - ref.y_center) <= 4 * np.spacing(abs(ref.y_center))
        assert np.abs(ds.y - want.y).max() <= 4 * np.spacing(abs(ref.y_center))
        if summary is not None:
            assert np.allclose(summary, _sums(ds.y, ds.x1, ds.x2, 2 * ROWS), rtol=1e-13)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_row_repeated_across_the_parts_is_read_in_parts(self, tmp_path, monkeypatch, workers):
        # the second part's first row also in the first part, as a blank line
        # among the first part's lines would make it; here there is none
        p = tmp_path / "repeated.csv"
        p.write_text(_csv_text(_rows()))
        _split(monkeypatch, workers)
        m = dataio._split_plan(p)[1]
        rows = _rows()
        rows[10] = list(rows[m])
        p.write_text(_csv_text(rows))
        assert dataio._split_plan(p)[1] == m
        scans = []
        scan = dataio._has_blank_line
        monkeypatch.setattr(dataio, "_has_blank_line", lambda path: scans.append(1) or scan(path))
        ds, summary, used = load_csv_summarized(p, "y", "x1", "x2", _sums)
        assert summary is not None and used == workers and scans == [1]
        want = load_csv(p, "y", "x1", "x2")
        assert ds.n == want.n and np.array_equal(ds.x1, want.x1) and np.array_equal(ds.x2, want.x2)
        _assert_no_child_remains()

    @pytest.mark.parametrize("case", ["constant covariate", "too few rows", "one column twice",
                                      "missing column", "zero covariate"])
    def test_other_inputs_take_load_csvs_path(self, tmp_path, monkeypatch, case):
        rows, cols = _rows(), ("y", "x1", "x2")
        if case == "constant covariate":
            for row in rows:
                row[2] = "0.25"
        elif case == "too few rows":
            rows = rows[:9]
        elif case == "one column twice":
            cols = ("y", "x1", "x1")
        elif case == "missing column":
            cols = ("y", "x1", "x3")
        elif case == "zero covariate":
            rows[3][1] = "0"  # nudged, with the warning, as load_csv does
        p = tmp_path / "other.csv"
        p.write_text(_csv_text(rows))

        def read(path, reader):
            return _result(lambda q: reader(q, *cols), path)

        _split(monkeypatch, 2)
        with warnings_checked(case == "zero covariate"):
            want = read(p, load_csv)
            got = read(p, lambda *args: load_csv_summarized(*args, _sums))
        _assert_no_child_remains()
        if isinstance(want, str):
            assert got == want
        elif case == "zero covariate":  # read in parts: the nudge counts add up
            assert got[2] == 2 and got[0].preprocessing.zeros_nudged == 1
            assert np.array_equal(got[0].x1, want.x1)
        else:
            assert got[1:] == (None, 1)
            for name in ("y", "x1", "x2"):
                assert np.array_equal(getattr(got[0], name), getattr(want, name))

    def test_clean_file_is_read_in_parts_without_the_serial_readers(self, monkeypatch, tmp_path):
        def fail(*args, **kwargs):
            raise AssertionError("fell back to a serial reader")

        p = tmp_path / "clean.csv"
        p.write_text(_csv_text(_rows()))
        _split(monkeypatch, 2)
        # nor is the file searched for blank lines: no row repeats across the parts
        for name in ("_read_table_cells", "read_table", "load_csv", "_has_blank_line"):
            monkeypatch.setattr(dataio, name, fail)
        ds, summary, used = load_csv_summarized(p, "y", "x1", "x2", _sums)
        assert used == 2 and summary[3] == 2 * ROWS and ds.n == ROWS
        _assert_no_child_remains()

    @pytest.mark.parametrize("above", [True, False])
    def test_threshold(self, tmp_path, monkeypatch, above):
        # a file of exactly _SPLIT_BYTES bytes is read in parts, one byte less is not
        monkeypatch.setattr(forking, "workers", lambda: 2)
        size = dataio._SPLIT_BYTES - (0 if above else 1)
        header, first, row = "y,x1,x2\n", "1.5,0.5,0.25\n", "0.123456789,0.25,0.75\n"
        rows = (size - len(header) - len(first)) // len(row)
        pad = size - len(header) - len(first) - rows * len(row)
        p = tmp_path / "edge_of_threshold.csv"
        p.write_text(header + "0" * pad + first + row * rows)  # leading zeros fill it up
        assert p.stat().st_size == size
        ds, summary, used = load_csv_summarized(p, "y", "x1", "x2", _sums)
        assert ds.n == rows + 1 and used == (2 if above else 1)
        assert summary[3] == 2 * (rows + 1) if above else summary is None
        _assert_no_child_remains()

    def test_one_and_two_workers_are_bitwise_alike(self, tmp_path, monkeypatch):
        p = tmp_path / "data.csv"
        p.write_text(_csv_text(_rows(n=5000)))

        def read(workers):
            _split(monkeypatch, workers)
            ds, stats, used = load_csv_summarized(p, "y", "x1", "x2", _statistics)
            assert used == workers
            return ds, stats

        (a, sa), (b, sb) = read(1), read(2)
        assert a.preprocessing == b.preprocessing
        for name in ("y", "x1", "x2"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for name in ("bands1", "bands2", "C_blocks", "u1", "u2", "yy"):
            assert np.asarray(getattr(sa, name)).tobytes() == np.asarray(getattr(sb, name)).tobytes()

    def test_statistics_of_two_parts_match_one_pass(self, tmp_path, monkeypatch):
        # the parts add up each sum in another order: the sums agree to 1e-13 of
        # each statistic's largest magnitude, far inside what the fit resolves
        p = tmp_path / "data.csv"
        p.write_text(_csv_text(_rows(n=20_000)))
        _split(monkeypatch, 2)
        ds, stats, _ = load_csv_summarized(p, "y", "x1", "x2", _statistics)
        whole = _statistics(ds.y, ds.x1, ds.x2, ds.n)
        for name in ("bands1", "bands2", "C_blocks", "u1", "u2", "yy"):
            got, want = np.asarray(getattr(stats, name)), np.asarray(getattr(whole, name))
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name

    @pytest.mark.parametrize("step", ["_combine", "_summarize_part"])
    def test_parent_raising_mid_exchange_leaves_no_child(self, tmp_path, monkeypatch, step):
        p = tmp_path / "data.csv"
        p.write_text(_csv_text(_rows()))
        _split(monkeypatch, 2)

        def fail(*args, **kwargs):
            if os.getpid() == parent:
                raise RuntimeError("the parent failed")
            return original(*args, **kwargs)

        parent, original = os.getpid(), getattr(dataio, step)
        monkeypatch.setattr(dataio, step, fail)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="the parent failed"):
            load_csv_summarized(p, "y", "x1", "x2", _sums)
        assert time.perf_counter() - start < 5.0
        _assert_no_child_remains()

    def test_worker_error_reaches_the_caller(self, tmp_path, monkeypatch):
        p = tmp_path / "data.csv"
        p.write_text(_csv_text(_rows()))
        _split(monkeypatch, 2)
        parent = os.getpid()

        def summarize(y, x1, x2, n):
            if os.getpid() != parent:
                raise ValueError("the worker failed")
            return _sums(y, x1, x2, n)

        with pytest.raises(ValueError, match="the worker failed"):
            load_csv_summarized(p, "y", "x1", "x2", summarize)
        _assert_no_child_remains()


def _statistics(y, x1, x2, n):
    cfg = make_knots(3, 20)
    return NormalStatistics.of(y, design_matrix(cfg, x1), design_matrix(cfg, x2))


def warnings_checked(expected: bool):
    """pytest.warns of the nudge warning where it is expected, else nothing."""
    return pytest.warns(UserWarning, match="nudged") if expected else contextlib.nullcontext()


class TestRunReport:
    def report(self):
        return RunReport(
            command="fit",
            config={"degree": 3, "kn": 13, "lambda1": 3.649},
            n=111,
            converged=True,
            stages=26,
            residual_norm=4.2e-13,
            sigma2=315.09,
            joint_system_singular=True,
            coefficients={"b1": [1.0, -0.25, 1e-300], "b2": [0.5]},
            grids={"x": [0.1, 0.2]},
            runtime_seconds=0.0123,
        )

    def test_json_round_trip(self):
        r = self.report()
        back = RunReport.from_json(r.to_json())
        assert back == r

    def test_json_is_stable_and_readable(self):
        r = self.report()
        payload = json.loads(r.to_json())
        assert payload["n"] == 111
        assert payload["command"] == "fit"
        # keys are sorted for diff-friendly output
        assert list(payload) == sorted(payload)

    def test_save_load(self, tmp_path):
        p = tmp_path / "report.json"
        r = self.report()
        r.save(p)
        assert RunReport.load(p) == r


# NaN, the infinities, signed zero, the extreme doubles and whole numbers
HARD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0, 2.0**53,
               1e16, 1e22, 0.1, 1 / 3, 2.2250738585072014e-308]


class TestWholeArrayWriters:
    """The one-call writers give the bytes of the per-value references."""

    def test_table_matches_format_float_per_cell(self, tmp_path):
        rng = np.random.default_rng(5)
        cols = [np.array(HARD_FLOATS), rng.permutation(HARD_FLOATS),
                rng.normal(size=len(HARD_FLOATS)) * 10.0 ** rng.integers(-300, 300, 17)]
        p = tmp_path / "t.csv"
        write_table(p, ["a", "b", "c d"], cols)
        buf = io.StringIO(newline="")
        csv.writer(buf).writerow(["a", "b", "c d"])
        for row in zip(*cols):
            buf.write(",".join(format_float(v) for v in row) + "\r\n")
        assert p.read_bytes() == buf.getvalue().encode()

    def test_empty_table_is_its_header(self, tmp_path):
        p = tmp_path / "e.csv"
        write_table(p, ["a", "b"], [np.zeros(0), np.zeros(0)])
        assert p.read_bytes() == b"a,b\r\n"

    def test_report_json_matches_json_dumps(self):
        report = RunReport(
            command="fit",
            config={"data": "Ozon \u00b5g/m\u00b3 \u6e29\u5ea6.csv", "empty": {}, "none": None,
                    "nested": {"b": [], "a": [[1, 2.5], []]}},
            n=3,
            converged=False,
            stages=0,
            residual_norm=1.7976931348623157e308,
            sigma2=5e-324,
            joint_system_singular=True,
            coefficients={"b1": [v for v in HARD_FLOATS if math.isfinite(v)], "b2": []},
            grids={"component1": {"in_support": [True, False], "x": [0.5, -0.0]}},
            pinned_columns={"component1": [0, 1], "component2": []},
            diagnostics={},
        )
        data = {name: getattr(report, name) for name in report.__dataclass_fields__}
        assert report.to_json() == json.dumps(data, sort_keys=True, indent=1)
        # strict, as the simulation JSON: NaN and the infinities are not JSON
        for bad in (math.nan, math.inf):
            report.sigma2 = bad
            with pytest.raises(ValueError):
                report.to_json()

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=5), inner, max_size=4),
            max_leaves=20,
        )
    )
    def test_json_text_matches_json_dumps_on_any_document(self, doc):
        try:
            want = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False)
        except ValueError:  # a NaN or an infinity somewhere in the document
            with pytest.raises(ValueError):
                json_text(doc)
        else:
            assert json_text(doc) == want

    def test_json_text_keys_non_string_keys_as_json_does(self):
        doc = {"outer": {2: [1.0], 1: "a"}, "t": (1, (2, 3))}
        assert json_text(doc) == json.dumps(doc, sort_keys=True, indent=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_strict_json_text_rejects_non_finite(self, bad):
        for doc in (bad, [1.0, bad], {"a": [[0.0], [bad]]}, {"a": {"b": bad}}):
            with pytest.raises(ValueError):
                json_text(doc)
