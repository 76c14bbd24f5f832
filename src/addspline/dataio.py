"""CSV/JSON input and output with lossless float round-trips.

Floats are written with 17 significant digits ('%.17g'), which reproduces the
double exactly on re-parse; JSON relies on Python's shortest-repr floats, which
round-trip as well.  Both writers hand whole arrays to C-level formatting: a
table is one '%' format, and each list of numbers in a JSON document is one
call of json's encoder.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

__all__ = [
    "DataError",
    "Preprocessing",
    "Dataset",
    "format_float",
    "json_text",
    "load_csv",
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
    mean = float(np.mean(y))
    if abs(mean) > 1e-12 * (float(np.max(np.abs(y), initial=0.0)) + 1.0):
        y -= mean
        center = mean
    else:
        center = 0.0
    scales = []
    nudged = 0
    for name, x in (("x1", x1), ("x2", x2)):
        if np.any(x < 0):
            raise DataError(f"{name}: negative covariate values are unsupported")
        top = float(x.max())
        if top <= 0:
            raise DataError(f"{name}: covariate maximum must be positive")
        x /= top
        zeros = x == 0.0
        if np.any(zeros):
            nudged += int(zeros.sum())
            x[zeros] = np.nextafter(0.0, 1.0)
        scales.append(top)
    if nudged:
        warnings.warn(
            f"{nudged} zero covariate values nudged to the smallest positive double",
            stacklevel=3,
        )
    return Preprocessing(
        y_center=center, x1_scale=scales[0], x2_scale=scales[1], zeros_nudged=nudged
    )


def load_csv(
    path,
    y_col: str,
    x1_col: str,
    x2_col: str,
    preprocess: bool = True,
    min_rows: int = 10,
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
    # sum_i f2_hat(x_i2) = (X_2'1)'b_2; reports written before this field
    # existed load with {}
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
