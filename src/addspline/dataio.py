"""CSV/JSON input and output with lossless float round-trips.

Floats are written with 17 significant digits ('%.17g'), which reproduces the
double exactly on re-parse; JSON relies on Python's shortest-repr floats, which
round-trip as well.  Both writers hand whole arrays to C-level formatting: a
table is one '%' format, and each list of numbers in a JSON document is one
call of json's encoder.  Every CSV is read on one path (`_read`): one
vectorized parse per part of rows, the cell reader only from the part where
that parse fails, then one preprocessing and, for a fit, one summary per
part.  A large file is two parts, read on two CPUs where allowed; each
part's rows stay in the process that parsed them (`load_csv_summarized`).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import operator
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import forking

__all__ = [
    "DataError",
    "Preprocessing",
    "Dataset",
    "format_float",
    "json_text",
    "load_csv",
    "load_csv_summarized",
    "preprocess_columns",
    "read_table",
    "write_table",
    "RunReport",
]


class DataError(Exception):
    """Malformed or unusable input data."""


def format_float(value: float) -> str:
    """Decimal form with 17 significant digits; parses back bit-exactly."""
    return format(float(value), ".17g")


@dataclass(frozen=True)
class Preprocessing:
    """Record of the fitting transform: y centered, covariates scaled by max."""

    y_center: float
    x1_scale: float
    x2_scale: float
    zeros_nudged: int = 0


@dataclass(frozen=True)
class Dataset:
    """Numeric columns selected from a CSV (`load_csv`), plus the preprocessing record."""

    column_names: tuple[str, ...]
    y_name: str
    x1_name: str
    x2_name: str
    y: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    preprocessing: Preprocessing | None = None

    @property
    def n(self) -> int:
        return self.y.shape[0]


def read_table(path) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV with a header row; errors name the line and column.

    The body is parsed in one vectorized pass (`_read_part`).  Any input that
    pass rejects or reads differently from the header (a ragged row, a quoted
    or non-numeric cell, a non-finite value) is read again cell by cell, which
    either returns the table or raises the error naming the offending line and
    column.
    """
    path = Path(path)
    return _read_whole(path, _plan(path, split=False)[0])


def _read_table_cells(path: Path, plan=None) -> tuple[list[str], np.ndarray]:
    """`read_table` one cell at a time with Python's csv and float; given the
    plan (header, m) of two parts, only body lines m + 1.. (part 1), which
    keep their line numbers in the whole file."""
    with path.open(newline="") as fh:  # universal newlines, lines untranslated
        if plan is None:
            reader = csv.reader(fh)
            try:
                header = [name.strip() for name in next(reader)]
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            first = 2
        else:  # part 0 parsed: no quote is open at its end
            header, m = plan
            for _ in itertools.islice(fh, 1 + m):
                pass
            reader, first = csv.reader(fh), m + 2
        rows: list[list[float]] = []
        for line_no, row in enumerate(reader, start=first):
            if not row or (len(row) == 1 and row[0].strip() == ""):
                continue  # ignore blank lines
            if len(row) != len(header):
                raise DataError(
                    f"{path}: line {line_no} has {len(row)} fields, "
                    f"expected {len(header)}"
                )
            parsed = []
            for name, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric value {cell!r} at line {line_no}, "
                        f"column {name!r}"
                    ) from None
                if not np.isfinite(value):
                    raise DataError(
                        f"{path}: non-finite value {cell!r} at line {line_no}, "
                        f"column {name!r}"
                    )
                parsed.append(value)
            rows.append(parsed)
    return header, np.asarray(rows, dtype=float).reshape(len(rows), len(header))


def write_table(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write columns as CSV using 17-significant-digit floats."""
    if len(header) != len(columns):
        raise ValueError("header/columns length mismatch")
    arrays = [np.asarray(c, dtype=float).ravel() for c in columns]
    n = arrays[0].shape[0]
    if any(a.shape[0] != n for a in arrays):
        raise ValueError("all columns must have equal length")
    # a formatted float never needs quoting, so each row is its cells joined
    # by commas, ended as csv.writer ends a row; '%.17g' % v is format_float(v)
    row = ",".join(["%.17g"] * len(arrays)) + "\r\n"
    cells = tuple(np.column_stack(arrays).ravel().tolist())
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write(row * n % cells)


def json_text(obj, _level: int = 0) -> str:
    """`json.dumps(obj, sort_keys=True, indent=1, allow_nan=False)`, strict (NaN
    and infinity raise), each list of scalars one call of json's C encoder.

    json's indenting encoder is pure Python and formats one value per call.
    Here dicts with string keys and lists are walked in Python, in sorted key
    order, and each list that holds no list or dict is encoded whole, its
    items separated by the comma and the line break the indented form puts
    between them.  json still writes every value, so the text is the same.
    """
    pad = "\n" + " " * (_level + 1)
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        items = [
            json.dumps(k) + ": " + json_text(v, _level + 1)
            for k, v in sorted(obj.items())
        ]
    elif isinstance(obj, (list, tuple)) and obj:
        if any(isinstance(v, (list, tuple, dict)) for v in obj):
            items = [json_text(v, _level + 1) for v in obj]
        else:
            flat = json.dumps(obj, separators=("," + pad, ": "), allow_nan=False)
            return "[" + pad + flat[1:-1] + pad[:-1] + "]"
    else:
        # a scalar, an empty container, or a dict that json must key itself
        text = json.dumps(obj, sort_keys=True, indent=1, allow_nan=False)
        return text.replace("\n", "\n" + " " * _level)
    opening, closing = ("{", "}") if isinstance(obj, dict) else ("[", "]")
    return opening + pad + ("," + pad).join(items) + pad[:-1] + closing


def preprocess_columns(
    y: np.ndarray, x1: np.ndarray, x2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Preprocessing]:
    """Center y and scale each covariate into (0, 1] by its maximum.

    Exact zeros after scaling are nudged to the smallest positive double (with
    a warning) so they enter the basis domain.  Negative covariate values are
    rejected.  The transform is idempotent: re-running it on its own output
    returns bit-identical arrays.  It works on copies; the inputs are left
    as they are.  It is the reader's preprocessing of one part
    (`_reductions`, `_combine`, `_summarize_part`).
    """
    columns = [np.array(a, dtype=float) for a in (y, x1, x2)]
    form = _combine([_reductions(np.column_stack(columns), range(3))])
    nudged, _ = _summarize_part(columns, form, None)
    record = replace(form[1], zeros_nudged=nudged)
    _warn_nudged(record)
    return (*columns, record)


def _scale_in_place(x: np.ndarray, top: float) -> int:
    """Divide x by `top` and nudge exact zeros to the smallest positive double;
    the count nudged."""
    x /= top
    zeros = x == 0.0
    if not np.any(zeros):
        return 0
    x[zeros] = np.nextafter(0.0, 1.0)
    return int(zeros.sum())


def _warn_nudged(record: Preprocessing | None) -> None:
    """Warn of the zeros `record` nudged, at the line that called the public
    function that calls this."""
    if record is not None and record.zeros_nudged:
        warnings.warn(
            f"{record.zeros_nudged} zero covariate values nudged to the smallest "
            "positive double",
            stacklevel=3,
        )


_MIN_ROWS = 10  # the fewest rows `load_csv` reads by default


def load_csv(
    path,
    y_col: str,
    x1_col: str,
    x2_col: str,
    preprocess: bool = True,
    min_rows: int = _MIN_ROWS,
) -> Dataset:
    """Load the three model columns from a CSV file.

    Raises DataError for a missing file, missing column, non-numeric cell
    (named by line and column), or fewer than `min_rows` rows.  The file is
    read as one part (`load_csv_summarized`): the columns are views of its
    one table, preprocessed in place.
    """
    dataset = _read(path, (y_col, x1_col, x2_col), None, preprocess, min_rows)
    _warn_nudged(dataset.preprocessing)
    return dataset


def load_csv_summarized(
    path, y_col: str, x1_col: str, x2_col: str, summarize, preprocess: bool = True
) -> _Summarized:
    """`load_csv` of `path` that gives, not the rows, but what a fit asks of
    them (`_Summarized`).

    The body is parsed by `np.loadtxt` as one part, or, for a file of at
    least `_SPLIT_BYTES`, as two parts of rows: each is parsed, preprocessed
    and summarized by its own process (`forking.Worker`), or by this one, one
    after the other, where `forking.workers` allows one process.  `_combine`
    takes the row count and the preprocessing of all rows from the parts'
    `_reductions` and raises `load_csv`'s errors.  `summarize(y, x1, x2, n)`
    then takes each part's columns, preprocessed unless `preprocess` is
    false, and the row count n of the whole file, and returns (summary,
    measure).  The summaries must add up (`+`) to the summary of both parts,
    the first part's first, so that nothing depends on the number of
    processes.  `measure` stays in the process that read the part, with the
    rows it keeps (`_Summarized.add_up`); close the result to let it go.

    Once a part fails to parse (see `read_table`), the cell reader reads the
    file from that part's first line: it names the line and column of the
    error, or gives the rest of the table, read with the rows before it as
    one part.  A blank line among the first part's lines makes the parts
    overlap; then one vectorized pass reads the file as one part.
    """
    data = _read(path, (y_col, x1_col, x2_col), summarize, preprocess)
    _warn_nudged(data.preprocessing)
    return data


class _Summarized:
    """A CSV as `load_csv_summarized` reads it, without its rows: the row
    count `n`, the `preprocessing` (None where not asked for), the `ranges`
    (min, max) of x1 and of x2 as preprocessed, the `summary` of all rows and
    the processes (`workers`) that read them.  `add_up(*args)` sums each
    part's measure of `args` over the parts, the first part's first, a forked
    worker's taken there.  `release` lets the worker exit on its own, while
    this process goes on; `close`, or the end of a `with` block, reaps it.
    """

    def __init__(self, form, nudged: int, summary, measures, worker: forking.Worker | None = None):
        self.n, record, self.ranges = form
        self.preprocessing = None if record is None else replace(record, zeros_nudged=nudged)
        self.summary = summary
        self.workers = 1 if worker is None else 2
        self._measures, self._worker = measures, worker

    def add_up(self, *args):
        if self._worker is not None:
            self._worker.send(args)
        parts = [measure(*args) for measure in self._measures]
        if self._worker is not None:
            parts.append(self._worker.recv())
        return functools.reduce(operator.add, parts)

    def release(self) -> None:
        if self._worker is not None:
            self._worker.send(None)

    def close(self) -> None:
        if self._worker is not None:
            self._worker.close()

    def __enter__(self) -> _Summarized:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _read(path, cols, summarize, preprocess: bool, min_rows: int = _MIN_ROWS):
    """The Dataset of `load_csv`, one part, where `summarize` is None, else
    the `_Summarized` of `load_csv_summarized`."""
    file = Path(path)  # `path` as given names it in the errors of `_combine`
    header, m = _plan(file, split=summarize is not None)
    combine = functools.partial(_combine, path=path, min_rows=min_rows, preprocess=preprocess)
    if m is not None and all(c in header for c in cols):
        return _read_in_parts(file, (header, m), cols, combine, summarize)
    return _read_one(path, *_read_whole(file, header), cols, combine, summarize)


def _read_one(path, header: list[str], table: np.ndarray, cols, combine, summarize):
    """`_read` of one part, `table`."""
    for col in cols:
        if col not in header:
            raise DataError(f"{path}: no column {col!r}; available: {', '.join(header)}")
    # the columns stay views of the table, which no one else holds, and are
    # preprocessed where they are: the data exist once
    idx = [header.index(c) for c in cols]
    columns = [table[:, j] for j in idx]
    if len(set(idx)) < 3:  # one column in two roles: one copy each
        columns = [c.copy() for c in columns]
    form = combine([_reductions(table, idx)])
    nudged, summary = _summarize_part(columns, form, summarize)
    if summarize is not None:
        return _Summarized(form, nudged, summary[0], [summary[1]])
    record = None if form[1] is None else replace(form[1], zeros_nudged=nudged)
    return Dataset(tuple(header), *cols, *columns, record)


# Files of at least this many bytes are read in two parts of rows
# (`load_csv_summarized`).  Measured on a 2-vCPU Linux host, in a process that
# had run one fit, on CSVs of three 17-digit columns: the median over 30
# alternating runs of `load_csv` plus one pass of the statistics, against the
# two parts in two processes, was 27.0 against 31.6 ms at 0.6 MB (10000
# rows), 54.0 against 47.5 ms at 1.2 MB, 79.5 against 67.9 ms at 1.8 MB and
# 100.5 against 64.6 ms at 2.4 MB.  Two processes break even near 1 MB; from
# 2 MiB they save a sixth or more.  Both parts in one process cost what one
# pass costs (78.4 against 79.5 ms at 1.8 MB).
_SPLIT_BYTES = 2 << 20


def _plan(path: Path, split: bool) -> tuple[list[str] | None, int | None]:
    """The header and the number m of body lines of the first of two parts,
    about half of them, or None for one part.

    The header is the first line as csv reads it, or None for an empty file
    or a header whose quotes span lines, which only the cell reader reads.
    The file is read in two parts where `split` and it has at least
    `_SPLIT_BYTES` bytes, with at least two body lines in its first 64 KiB.
    """
    if not path.exists():
        raise DataError(f"no such file: {path}")
    size = path.stat().st_size
    with path.open() as fh:  # universal newlines, as `np.loadtxt` opens a path
        reader = csv.reader(fh)
        header = next(reader, None)
        sample = fh.read(1 << 16) if split and size >= _SPLIT_BYTES else ""
    if reader.line_num != 1:
        return None, None
    lines = sample.count("\n")
    m = max(1, size * lines // (2 * len(sample))) if lines >= 2 else None
    return [name.strip() for name in header], m


def _read_whole(path: Path, header: list[str] | None) -> tuple[list[str], np.ndarray]:
    """The header and table of the whole file: one vectorized pass, or the
    cell reader's where that pass fails or there is no header."""
    table = None if header is None else _read_part(path, (header, None), 0)
    return (header, table) if table is not None else _read_table_cells(path)


def _read_part(path: Path, plan: tuple[list[str], int | None], part: int) -> np.ndarray | None:
    """Body lines 1..m (part 0) or m + 1.. (part 1) of the plan (header, m),
    every body line for m None, as a table, or None where the vectorized
    parse fails, reads no row or one that is not finite or not as wide as the
    header, or (part 0 of two) reads fewer than m rows.

    Part 0 is the first m rows that are not blank: a blank line among body
    lines 1..m takes it past line m, into part 1 (see `_overlap`)."""
    header, m = plan
    skip, rows = (1, m) if part == 0 else (1 + m, None)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "input contained no data"
            table = np.loadtxt(
                path, delimiter=",", skiprows=skip, max_rows=rows, comments=None, ndmin=2
            )
    except ValueError:
        return None
    short = rows is not None and table.shape[0] != rows  # part 0 ran out of lines
    if short or table.shape[1] != len(header) or not table.size or not np.isfinite(table).all():
        return None
    return table


def _overlap(table: np.ndarray, first_row: list, path: Path) -> bool:
    """Whether part 0's `table` reaches into part 1, whose first row is
    `first_row`.  It does when a blank line lies among body lines 1..m; its
    last k rows are then part 1's first k, so part 1's first row is one of
    its rows.  Only then is the file searched for a blank line."""
    repeated = (table == np.asarray(first_row)).all(axis=1).any()
    return bool(repeated) and _has_blank_line(path)


def _has_blank_line(path: Path) -> bool:
    """Whether a line of the file is empty, with any of the line ends '\\n',
    '\\r\\n' and '\\r' of `np.loadtxt`'s universal newlines: whether two
    line-end bytes meet anywhere but in '\\r\\n' (or one starts the file)."""
    prev = b"\n"
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            window = prev + chunk
            a = np.frombuffer(window, np.uint8)
            if b"\r" not in window:  # the usual line ends, found faster
                if (np.diff(np.flatnonzero(a == 10)) == 1).any():
                    return True
            else:
                ends = np.flatnonzero((a == 10) | (a == 13))
                second = ends[1:][np.diff(ends) == 1]
                if ((a[second - 1] != 13) | (a[second] != 10)).any():
                    return True
            prev = chunk[-1:]
    return False


class _Reductions(NamedTuple):
    """What the parts of a file exchange of their rows (`_reductions`)."""

    rows: int
    y_sum: float
    y_top: float  # largest |y|
    ranges: list[tuple[float, float]]  # (min, max) of x1 and of x2
    first_row: list[list[float]]  # the part's first row, if any, for `_overlap`


def _reductions(table: np.ndarray | None, idx) -> _Reductions | None:
    """The `_Reductions` of a part's table, with the model columns y, x1, x2
    at `idx`; None for no table."""
    if table is None:
        return None
    y, x1, x2 = (table[:, j] for j in idx)
    return _Reductions(
        rows=table.shape[0],
        y_sum=float(np.sum(y)),
        y_top=max(float(np.max(y, initial=0.0)), -float(np.min(y, initial=0.0))),
        ranges=[(float(np.min(x, initial=np.inf)), float(np.max(x, initial=-np.inf)))
                for x in (x1, x2)],
        first_row=table[:1].tolist(),
    )


def _combine(parts: list, path=None, min_rows: int = 0, preprocess: bool = True):
    """From the parts' `_reductions`: the row count n of all parts, their
    preprocessing, None where not `preprocess`, and the (min, max) of x1 and
    of x2 as preprocessed, an exact zero nudged as `_scale_in_place` does.

    Raises `load_csv`'s DataError for fewer than `min_rows` rows, a negative
    covariate or one whose maximum is not positive.  y is centred on its mean,
    each covariate scaled by its maximum, as over all rows at once."""
    n = sum(r.rows for r in parts)
    if n < min_rows:
        raise DataError(f"{path}: {n} rows is fewer than the required {min_rows}")
    ranges = [(min(r.ranges[j][0] for r in parts), max(r.ranges[j][1] for r in parts))
              for j in range(2)]
    if not preprocess:
        return n, None, ranges
    for name, (low, top) in zip(("x1", "x2"), ranges):
        if low < 0:
            raise DataError(f"{name}: negative covariate values are unsupported")
        if top <= 0:
            raise DataError(f"{name}: covariate maximum must be positive")
    mean = sum(r.y_sum for r in parts) / n
    # no centre where the mean is within rounding of zero
    center = mean if abs(mean) > 1e-12 * (max(r.y_top for r in parts) + 1.0) else 0.0
    record = Preprocessing(y_center=center, x1_scale=ranges[0][1], x2_scale=ranges[1][1])
    tiny = float(np.nextafter(0.0, 1.0))
    return n, record, [(low / top or tiny, top / top) for low, top in ranges]


def _summarize_part(columns: list[np.ndarray], form, summarize) -> tuple[int, object]:
    """Preprocess one part's columns (y, x1, x2) in place by `form` = (n,
    Preprocessing or None, ranges) and summarize them: (zeros nudged,
    summary), the summary None without `summarize`."""
    (n, record, _), (y, x1, x2) = form, columns
    nudged = 0
    if record is not None:
        if record.y_center:
            y -= record.y_center
        nudged = _scale_in_place(x1, record.x1_scale) + _scale_in_place(x2, record.x2_scale)
    return nudged, None if summarize is None else summarize(y, x1, x2, n)


def _read_in_parts(path: Path, plan, cols, combine, summarize) -> _Summarized:
    """`_read` of the two parts of `plan`.

    This process reads part 0 and, where `forking.workers` allows two
    processes, a forked worker reads part 1 (`_serve_part`).  They exchange
    one message each way: the worker's `_reductions`, then the row count and
    preprocessing of all rows (`combine`).  Each then preprocesses and
    summarizes a contiguous copy of its own rows and keeps it; the worker
    sends its summary and stays, to measure its rows.  It is killed and
    reaped before this raises.  Once part 0 fails to parse, the cell reader
    reads the file; once part 1 does, part 1 after part 0's rows; where the
    parts overlap, one vectorized pass reads the file.  That table is then
    read as one part.
    """
    header, idx = plan[0], [plan[0].index(c) for c in cols]
    with contextlib.ExitStack() as stack:
        worker = None
        if forking.workers() > 1:
            worker = stack.enter_context(
                forking.Worker(_serve_part, path, plan, idx, summarize)
            )
        tables, second = [_read_part(path, plan, 0)], None
        if tables[0] is not None:
            if worker is not None:
                second = worker.recv()
            else:
                tables.append(_read_part(path, plan, 1))
                second = _reductions(tables[1], idx)
        if second is not None and not _overlap(tables[0], second.first_row, path):
            form = combine([_reductions(tables[0], idx), second])
            if worker is not None:
                worker.send(form)
            part = [tables[0][:, j].copy() for j in idx]
            del tables[0]  # each table goes once its columns are copied
            nudged, (summary, measure) = _summarize_part(part, form, summarize)
            measures = [measure]
            if worker is not None:
                more, rest = worker.recv()
            else:
                part = [tables[0][:, j].copy() for j in idx]
                del tables[0]
                more, (rest, measure) = _summarize_part(part, form, summarize)
                measures.append(measure)
            stack.pop_all()  # the worker stays, to measure its part
            return _Summarized(form, nudged + more, summary + rest, measures, worker)
    first = tables[0]
    if first is None:
        header, table = _read_table_cells(path)
    elif second is not None:  # the parts overlap
        header, table = _read_whole(path, header)
    else:  # part 1 failed: the rows before it are kept
        rest = _read_table_cells(path, plan)[1]
        if len(rest) and _overlap(first, rest[:1], path):
            header, table = _read_table_cells(path)
        else:
            table = np.concatenate([first, rest])
    del tables, first  # the parts are not read again
    return _read_one(path, header, table, cols, combine, summarize)


def _serve_part(channel, path: Path, plan, idx: list[int], summarize) -> None:
    """In a forked worker of `_read_in_parts`: read part 1 and send its
    reductions; given the row count and preprocessing of all rows, send its
    zeros nudged and summary; then answer each message `args` with the
    part's measure of `args`, until None or the end of the pipe."""
    table = _read_part(path, plan, 1)
    channel.send(_reductions(table, idx))
    form = channel.recv()
    part = [table[:, j].copy() for j in idx]
    del table
    nudged, (summary, measure) = _summarize_part(part, form, summarize)
    channel.send((nudged, summary))
    while (args := channel.recv()) is not None:
        channel.send(measure(*args))


@dataclass
class RunReport:
    """Everything a fit run produced, serializable to JSON and back losslessly."""

    command: str
    config: dict
    n: int
    converged: bool
    stages: int
    residual_norm: float
    sigma2: float
    joint_system_singular: bool
    coefficients: dict  # {"b1": [...], "b2": [...]}
    # per component: {"x": [...], "x_scaled": [...], "estimate", "lower", "upper",
    # "in_support": [bool, ...], "support": [min, max] of the scaled covariate}
    grids: dict
    runtime_seconds: float = 0.0
    # {"component1": [...], "component2": [...]}: NormalEquations.pinned;
    # reports written before this field existed load with {}
    pinned_columns: dict = field(default_factory=dict)
    # the identification diagnostics: "constant_shift_residual" and
    # "constant_shift_floor" (NormalEquations.constant_shift) and "f2_sum",
    # sum_i f2_hat(x_i2) = (X_2'1)'b_2, and "read_workers", the processes
    # that read the CSV and added up its statistics in every fit, 1 for one
    # part and 2 for two parts in two processes (`load_csv_summarized`);
    # reports written before this field existed load with {}, and those
    # written before "read_workers" without that key
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        # the fields as they are: `asdict` would deep-copy every list of floats
        return json_text({f.name: getattr(self, f.name) for f in fields(self)})

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls(**json.loads(text))

    def save(self, path) -> None:
        text = self.to_json()  # first: a value JSON cannot hold makes no directory
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)

    @classmethod
    def load(cls, path) -> "RunReport":
        return cls.from_json(Path(path).read_text())
