"""CSV ingestion, missing-value handling, and label encoding.

The entry path is load_csv -> handle_missing -> encode, producing an immutable
numeric Dataset plus the EncodingMap needed to decode category codes back to
the original strings.

CSV dialect: comma separated, double-quote escaping, UTF-8, first row is the
header. An empty cell or the literal string "NA" counts as missing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

MISSING_TOKENS = ("", "NA")

CATEGORICAL = "categorical"
NUMERIC = "numeric"

MISSING_POLICIES = ("fill_mean", "drop_rows")


@dataclass(frozen=True)
class ColumnSchema:
    """Name, kind and position of one feature column."""

    name: str
    kind: str  # CATEGORICAL or NUMERIC
    index: int

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, NUMERIC):
            raise DataError(f"unknown column kind {self.kind!r} for {self.name!r}")


@dataclass
class RawTable:
    """Header plus rows of optional text cells (None = missing)."""

    header: list[str]
    rows: list[list[str | None]]
    target_column: str

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_columns(self) -> int:
        return len(self.header)

    @property
    def target_index(self) -> int:
        return self.header.index(self.target_column)

    def column(self, j: int) -> list[str | None]:
        return [row[j] for row in self.rows]


@dataclass(frozen=True)
class EncodingMap:
    """Category -> code tables for every categorical column and the target.

    Codes are positions in the sorted list of distinct category strings, so
    they are dense (0..cardinality-1) and platform independent.
    """

    columns: dict[str, tuple[str, ...]]
    classes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "columns": {name: list(cats) for name, cats in self.columns.items()},
            "classes": list(self.classes),
        }


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric feature matrix with integer class codes.

    X is row-major (n rows, d features), y holds class codes in
    0..len(classes)-1, and schema describes the d feature columns.
    """

    X: np.ndarray
    y: np.ndarray
    schema: tuple[ColumnSchema, ...]
    classes: tuple[str, ...]

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=np.int64)
        if X.ndim != 2:
            raise DataError("X must be a 2-d matrix")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise DataError("y length must match the number of rows in X")
        if X.shape[1] != len(self.schema):
            raise DataError("schema length must match the number of feature columns")
        if not np.all(np.isfinite(X)):
            raise DataError("X contains missing or non-finite entries")
        if y.size and (y.min() < 0 or y.max() >= len(self.classes)):
            raise DataError("y contains codes outside 0..n_classes-1")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "classes", tuple(self.classes))

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def feature_names(self) -> list[str]:
        return [c.name for c in self.schema]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=self.n_classes)


def load_csv(path: str, target_column: str) -> RawTable:
    """Parse a CSV file into a RawTable with the target column identified.

    Raises DataError for a missing file, an empty or repeated header name
    (the message names its columns, counted from 1), an absent target
    column, a row whose cell count differs from the header (the message
    names the line), or a file with no data rows.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path!r}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path!r} is empty (no header row)") from None
        _check_header_names(header)
        if target_column not in header:
            raise DataError(
                f"target column not found: {target_column!r} is not in the header"
            )
        rows: list[list[str | None]] = []
        for row in reader:
            if not row:
                continue  # skip blank lines
            if len(row) != len(header):
                raise DataError(
                    f"line {reader.line_num}: expected {len(header)} cells, "
                    f"got {len(row)}"
                )
            rows.append([None if cell in MISSING_TOKENS else cell for cell in row])
    if not rows:
        raise DataError(f"{path!r} has a header but no data rows")
    return RawTable(header=header, rows=rows, target_column=target_column)


def _check_header_names(header: list[str]) -> None:
    """Every column is keyed by its name downstream, so names must be
    non-empty and unique."""
    columns: dict[str, list[int]] = {}
    for position, name in enumerate(header, start=1):
        columns.setdefault(name, []).append(position)
    if "" in columns:
        raise DataError(
            f"header has an empty column name at column(s) "
            f"{', '.join(map(str, columns['']))}"
        )
    for name, positions in columns.items():
        if len(positions) > 1:
            raise DataError(
                f"header repeats the column name {name!r} at columns "
                f"{', '.join(map(str, positions))}"
            )


def _parse_number(cell: str) -> float | None:
    """Float value of a cell, or None when it is not a finite number."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _categories(values: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """A column's distinct values in sorted order and each value's int64
    code, its position in that order: the one category rule of the class
    codes, the category codes and the modal fill, linear in the rows."""
    cats = tuple(sorted(set(values)))
    code = {cat: i for i, cat in enumerate(cats)}
    return cats, np.array([code[v] for v in values], dtype=np.int64)


def _numeric_column(name: str, values: list[str | None],
                    overrides: dict) -> np.ndarray | None:
    """A feature column's cells as floats (a missing cell as nan) when it is
    NUMERIC, else None. The column's override decides its kind; without
    one it is NUMERIC when it has a present cell and every present cell
    parses as a finite number. A column forced numeric is a DataError that
    names its first present cell that is not a finite number."""
    kind = overrides.get(name)
    if kind not in (None, CATEGORICAL, NUMERIC):
        raise DataError(f"schema override for {name!r} must be "
                        f"{CATEGORICAL!r} or {NUMERIC!r}, got {kind!r}")
    if kind == CATEGORICAL or (kind is None and all(v is None for v in values)):
        return None
    parsed = np.empty(len(values), dtype=float)
    for i, cell in enumerate(values):
        num = np.nan if cell is None else _parse_number(cell)
        if num is None:
            if kind is None:
                return None
            raise DataError(f"column {name!r}, row {i}: cannot parse "
                            f"{cell!r} as a number")
        parsed[i] = num
    return parsed


def handle_missing(table: RawTable, policy: str = "fill_mean", *,
                   kind_overrides: dict[str, str] | None = None) -> RawTable:
    """Resolve missing cells by mean/mode imputation or row dropping.

    fill_mean replaces missing numeric cells with the mean of the present
    cells and missing categorical cells with the modal category (ties go to
    the lexicographically smallest). A column's kind is decided as encode
    decides it, kind_overrides included. drop_rows removes any row containing
    a missing cell, and is a DataError when that leaves no row. Present cells
    are never altered, and a label is never imputed: under fill_mean a
    missing target cell is a DataError.
    """
    if policy not in MISSING_POLICIES:
        raise DataError(f"unknown missing-value policy {policy!r}")

    if policy == "drop_rows":
        kept = [row for row in table.rows if all(c is not None for c in row)]
        if not kept:
            raise DataError("missing_policy drop_rows removed every row: each "
                            "has a missing cell")
        return RawTable(list(table.header), [list(r) for r in kept], table.target_column)

    target = table.target_index
    fills: dict[int, str] = {}
    for j, name in enumerate(table.header):
        values = table.column(j)
        if j == target and None in values:
            raise DataError(
                f"target column {name!r}, row {values.index(None)}: missing "
                "label; labels are never imputed (missing_policy drop_rows "
                "drops such rows)"
            )
        if all(v is not None for v in values):
            continue
        present = [v for v in values if v is not None]
        if not present:
            raise DataError(f"column {name!r} is entirely missing; cannot fill")
        parsed = _numeric_column(name, values, kind_overrides or {})
        if parsed is not None:
            fills[j] = repr(float(np.mean(parsed[~np.isnan(parsed)])))
        else:  # sorted categories: the first modal code is the smallest
            cats, codes = _categories(present)
            fills[j] = cats[int(np.argmax(np.bincount(codes)))]

    rows = [
        [cell if cell is not None else fills[j] for j, cell in enumerate(row)]
        for row in table.rows
    ]
    return RawTable(list(table.header), rows, table.target_column)


def encode(
    table: RawTable, *, kind_overrides: dict[str, str] | None = None
) -> tuple[Dataset, EncodingMap]:
    """Label-encode categorical columns and parse numeric ones; the target
    is table.target_column.

    A column is treated as categorical when any present cell fails to parse
    as a finite real number; kind_overrides forces a column either way.
    Category codes follow sorted-unique order, and the target is encoded the
    same way. All cells must be present (run handle_missing first).

    Raises DataError when a column forced numeric holds an unparsable cell
    (naming the column and row), when any cell is missing, when an override
    names the target column, or when the target is the only column or holds
    a single class (naming the column and the class).
    """
    if table.target_column not in table.header:
        raise DataError(f"target column not found: {table.target_column!r}")
    if len(table.header) == 1:
        raise DataError(f"the table has no feature column: the target "
                        f"{table.target_column!r} is its only column")
    overrides = kind_overrides or {}
    for name in overrides:
        if name not in table.header:
            raise DataError(f"schema override names unknown column {name!r}")
        if name == table.target_column:
            raise DataError(f"schema override names the target column {name!r}, "
                            "which is always label-encoded")

    for i, row in enumerate(table.rows):
        for j, cell in enumerate(row):
            if cell is None:
                raise DataError(
                    f"column {table.header[j]!r}, row {i}: missing cell; "
                    "apply a missing-value policy before encoding"
                )

    target_idx = table.target_index
    classes, y = _categories([str(v) for v in table.column(target_idx)])
    if len(classes) == 1:
        raise DataError(
            f"target column {table.target_column!r} holds one class, "
            f"{classes[0]!r}; classification needs at least 2"
        )

    schema: list[ColumnSchema] = []
    columns: list[np.ndarray] = []
    cat_maps: dict[str, tuple[str, ...]] = {}
    for j, name in enumerate(table.header):
        if j == target_idx:
            continue
        values = [str(v) for v in table.column(j)]
        parsed = _numeric_column(name, values, overrides)
        kind = CATEGORICAL if parsed is None else NUMERIC
        if parsed is None:
            cat_maps[name], codes = _categories(values)
            parsed = codes.astype(float)
        columns.append(parsed)
        schema.append(ColumnSchema(name=name, kind=kind, index=len(schema)))

    X = np.column_stack(columns)
    dataset = Dataset(X=X, y=y, schema=tuple(schema), classes=classes)
    return dataset, EncodingMap(columns=cat_maps, classes=classes)
