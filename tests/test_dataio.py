"""CSV round trips, preprocessing invariants, run reports."""

import csv
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import OZONE_CSV
from hypothesis import given, settings
from hypothesis import strategies as st

from addspline import dataio
from addspline.dataio import (
    DataError,
    RunReport,
    _read_table_cells,
    format_float,
    json_text,
    load_csv,
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
