"""CSV/JSON input and output with lossless float round-trips.

Floats are written with 17 significant digits ('%.17g'), which reproduces the
double exactly on re-parse; JSON relies on Python's shortest-repr floats, which
round-trip as well.  Both writers hand whole arrays to C-level formatting: a
table is one '%' format, and each list of numbers in a JSON document is one
call of json's encoder.  A large CSV is read in two parts of rows, on two
CPUs where allowed, each part preprocessed and summarized where it was read
(`load_csv_summarized`).
"""

from __future__ import annotations

import contextlib
import csv
import json
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
    """Numeric columns selected for a fit, plus the preprocessing record."""

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

    The body is parsed in one vectorized pass.  Any input that pass rejects or
    reads differently from the header (a ragged row, a quoted or non-numeric
    cell, a non-finite value) is read again cell by cell, which either returns
    the table or raises the error naming the offending line and column.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open(newline="") as fh:
        header = _read_header(csv.reader(fh), path)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # "input contained no data"
                table = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        except ValueError:
            table = None
    if table is not None and table.shape[1] == len(header) and np.isfinite(table).all():
        return header, table
    return _read_table_cells(path)


def _read_header(reader, path: Path) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    return [name.strip() for name in header]


def _read_table_cells(path: Path) -> tuple[list[str], np.ndarray]:
    """`read_table` one cell at a time with Python's csv and float."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        rows: list[list[float]] = []
        for line_no, row in enumerate(reader, start=2):
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
    as they are.
    """
    y, x1, x2 = (np.array(a, dtype=float) for a in (y, x1, x2))
    return y, x1, x2, _preprocess_in_place(y, x1, x2)


def _preprocess_in_place(y: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> Preprocessing:
    """`preprocess_columns` on float arrays that it overwrites."""
    center = _center(float(np.mean(y)), float(np.max(np.abs(y), initial=0.0)))
    if center:
        y -= center
    scales = []
    nudged = 0
    for name, x in (("x1", x1), ("x2", x2)):
        if np.any(x < 0):
            raise DataError(f"{name}: negative covariate values are unsupported")
        top = float(x.max())
        if top <= 0:
            raise DataError(f"{name}: covariate maximum must be positive")
        nudged += _scale_in_place(x, top)
        scales.append(top)
    _warn_nudged(nudged)
    return Preprocessing(
        y_center=center, x1_scale=scales[0], x2_scale=scales[1], zeros_nudged=nudged
    )


def _center(mean: float, top: float) -> float:
    """The centre subtracted from y of mean `mean` and largest magnitude `top`:
    the mean, or 0.0 where it is within rounding of zero."""
    return mean if abs(mean) > 1e-12 * (top + 1.0) else 0.0


def _scale_in_place(x: np.ndarray, top: float) -> int:
    """Divide x by `top` and nudge exact zeros to the smallest positive double;
    the count nudged."""
    x /= top
    zeros = x == 0.0
    if not np.any(zeros):
        return 0
    x[zeros] = np.nextafter(0.0, 1.0)
    return int(zeros.sum())


def _warn_nudged(nudged: int) -> None:
    if nudged:
        warnings.warn(
            f"{nudged} zero covariate values nudged to the smallest positive double",
            stacklevel=4,
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
    (named by line and column), or fewer than `min_rows` rows.
    """
    header, table = read_table(path)
    for col in (y_col, x1_col, x2_col):
        if col not in header:
            raise DataError(
                f"{path}: no column {col!r}; available: {', '.join(header)}"
            )
    if table.shape[0] < min_rows:
        raise DataError(
            f"{path}: {table.shape[0]} rows is fewer than the required {min_rows}"
        )
    # the columns stay views of the table, which no one else holds, and are
    # preprocessed where they are: the data exist once
    y = table[:, header.index(y_col)]
    x1 = table[:, header.index(x1_col)]
    x2 = table[:, header.index(x2_col)]
    if len({y_col, x1_col, x2_col}) < 3:  # one column in two roles: one copy each
        y, x1, x2 = y.copy(), x1.copy(), x2.copy()
    record = _preprocess_in_place(y, x1, x2) if preprocess else None
    return Dataset(
        column_names=tuple(header),
        y_name=y_col,
        x1_name=x1_col,
        x2_name=x2_col,
        y=y,
        x1=x1,
        x2=x2,
        preprocessing=record,
    )


def load_csv_summarized(
    path, y_col: str, x1_col: str, x2_col: str, summarize
) -> tuple[Dataset, object, int]:
    """`load_csv` with preprocessing, and `summarize` of its rows: the dataset,
    the summary, and the number of processes that read and summarized them.

    A file of at least `_SPLIT_BYTES` is read in two parts of rows, each
    parsed, preprocessed and summarized by its own process
    (`forking.Worker`), or both by this one, one after the other, where
    `forking.workers` allows one process.  `summarize(y, x1, x2, n)` takes
    one part's preprocessed columns and the row count n of the whole file,
    and its results must add up (`+`) to the summary of both parts; the
    summary is that sum, the first part's first.  So the summary does not
    depend on the number of processes, and neither does the dataset, whose
    preprocessing is `load_csv`'s: y centred on its mean over all rows, each
    covariate scaled by its maximum, zeros nudged.

    Any other input returns `load_csv(...)`, None and 1.  That includes a
    smaller file, a blank line, a cell the vectorized parse rejects (see
    `read_table`), a negative or constant covariate, fewer than `load_csv`'s
    10 rows and one column in two roles; `load_csv` then gives its result
    or its error.
    """
    path = Path(path)
    cols = (y_col, x1_col, x2_col)
    plan = _split_plan(path) if len(set(cols)) == 3 and path.exists() else None
    if plan is not None and all(c in plan[0] for c in cols):
        result = _read_in_parts(path, plan, [plan[0].index(c) for c in cols], summarize)
        if result is not None:
            y, x1, x2, record, summary, workers = result
            _warn_nudged(record.zeros_nudged)
            dataset = Dataset(tuple(plan[0]), y_col, x1_col, x2_col, y, x1, x2, record)
            return dataset, summary, workers
    return load_csv(path, y_col, x1_col, x2_col), None, 1


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


def _split_plan(path: Path) -> tuple[list[str], int] | None:
    """The header and the number m of body lines of the first part, about half
    of them, for a file of at least `_SPLIT_BYTES`; None for a smaller file, a
    header whose quotes span lines, or a body of fewer than two lines in its
    first 64 KiB."""
    size = path.stat().st_size
    if size < _SPLIT_BYTES:
        return None
    with path.open() as fh:  # universal newlines, as `np.loadtxt` opens a path
        line = fh.readline()
        sample = fh.read(1 << 16)
    lines = sample.count("\n")
    if line.count('"') % 2 or lines < 2:
        return None
    header = [name.strip() for name in next(csv.reader([line]))]
    return header, max(1, size * lines // (2 * len(sample)))


def _read_part(path: Path, plan: tuple[list[str], int], part: int) -> np.ndarray | None:
    """Body lines 1..m (part 0) or m + 1.. (part 1) of the plan as a table, or
    None where the vectorized parse fails, reads a row that is not finite or
    not as wide as the header, or (part 0) reads fewer than m rows.

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
    if table.shape[1] != len(header) or not table.size or not np.isfinite(table).all():
        return None
    if part == 0 and table.shape[0] != m:
        return None
    return table


def _overlap(table: np.ndarray, first_row: list[float], path: Path) -> bool:
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
    first_row: list[float]


def _reductions(table: np.ndarray | None, idx: list[int]) -> _Reductions | None:
    """The `_Reductions` of a part's table, with the model columns y, x1, x2
    at `idx`; None for no table."""
    if table is None:
        return None
    y, x1, x2 = (table[:, j] for j in idx)
    return _Reductions(
        rows=table.shape[0],
        y_sum=float(np.sum(y)),
        y_top=max(float(y.max()), -float(y.min())),
        ranges=[(float(x.min()), float(x.max())) for x in (x1, x2)],
        first_row=table[0].tolist(),
    )


def _combine(parts: list) -> tuple[int, Preprocessing] | None:
    """The row count and the preprocessing of all parts from their
    `_reductions`, as `_preprocess_in_place` takes them from all rows; None
    for an unread part, fewer rows than `load_csv` needs, or a covariate that
    `load_csv` or the fit rejects (negative, all zero, or one value)."""
    if any(r is None for r in parts):
        return None
    n = sum(r.rows for r in parts)
    if n < _MIN_ROWS:
        return None
    scales = []
    for j in range(2):
        lo = min(r.ranges[j][0] for r in parts)
        top = max(r.ranges[j][1] for r in parts)
        if lo < 0 or top <= 0 or lo / top == 1.0:
            return None
        scales.append(top)
    center = _center(sum(r.y_sum for r in parts) / n, max(r.y_top for r in parts))
    return n, Preprocessing(y_center=center, x1_scale=scales[0], x2_scale=scales[1])


def _summarize_part(columns: list[np.ndarray], form, summarize) -> tuple[int, object]:
    """Preprocess one part's columns (y, x1, x2) in place by `form` = (n,
    Preprocessing) and summarize them: (zeros nudged, summary)."""
    (n, record), (y, x1, x2) = form, columns
    if record.y_center:
        y -= record.y_center
    nudged = _scale_in_place(x1, record.x1_scale) + _scale_in_place(x2, record.x2_scale)
    return nudged, summarize(y, x1, x2, n)


def _read_in_parts(path: Path, plan, idx: list[int], summarize):
    """(y, x1, x2, preprocessing, summary, processes) of `load_csv_summarized`
    from the two parts of `plan`, or None where `load_csv` must read the file.

    This process reads part 0 and, where `forking.workers` allows two
    processes, a forked worker reads part 1 (`_serve_part`).  They exchange
    one message each way: the worker's `_reductions`, then the row count and
    preprocessing of all rows (`_combine`).  Each then preprocesses and
    summarizes its own rows; the worker sends its summary and then its rows,
    which are read straight into this process's columns.  The worker is
    killed and reaped before this returns or raises.
    """
    with contextlib.ExitStack() as stack:
        worker = None
        if forking.workers() > 1:
            worker = stack.enter_context(
                forking.Worker(_serve_part, path, plan, idx, summarize)
            )
        table = _read_part(path, plan, 0)
        first = _reductions(table, idx)
        if worker is not None:
            second = worker.recv()
        else:
            other = _read_part(path, plan, 1)
            second = _reductions(other, idx)
        form = _combine([first, second])
        if form is None or _overlap(table, second.first_row, path):
            return None
        if worker is not None:
            worker.send(form)
        n0 = first.rows
        columns = [np.empty(form[0]) for _ in idx]
        for c, j in zip(columns, idx):
            c[:n0] = table[:, j]
        del table
        nudged, summary = _summarize_part([c[:n0] for c in columns], form, summarize)
        if worker is not None:
            more, rest = worker.recv()
            for c in columns:
                worker.recv_into(c[n0:])
        else:
            part = [np.ascontiguousarray(other[:, j]) for j in idx]
            del other
            more, rest = _summarize_part(part, form, summarize)
            for c, p in zip(columns, part):
                c[n0:] = p
    record = replace(form[1], zeros_nudged=nudged + more)
    return (*columns, record, summary + rest, 1 if worker is None else 2)


def _serve_part(channel, path: Path, plan, idx: list[int], summarize) -> None:
    """In a forked worker of `_read_in_parts`: read part 1, send its
    reductions, then, given the row count and preprocessing of all rows,
    send its zeros nudged and summary, then its columns y, x1, x2."""
    table = _read_part(path, plan, 1)
    channel.send(_reductions(table, idx))
    form = channel.recv()
    part = [np.ascontiguousarray(table[:, j]) for j in idx]
    del table
    channel.send(_summarize_part(part, form, summarize))
    for c in part:
        channel.send_array(c)


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
    # that read the CSV and added up its statistics (`load_csv_summarized`);
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
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "RunReport":
        return cls.from_json(Path(path).read_text())
