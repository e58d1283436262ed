"""Ingestion and validation of multivariate functional samples.

A dataset holds ``k`` independent groups of discretized p-dimensional
curves observed on one shared grid. The on-disk format is a long (tidy)
CSV with header ``group,obs,component,time_index,value``; indices are
1-based in files and 0-based in memory.
"""

from __future__ import annotations

import io
import itertools
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import IngestionError, ValidationError
from .grid import Grid, make_uniform_grid

__all__ = ["GroupSample", "FunctionalDataset", "load_csv", "write_csv", "validate"]

CSV_HEADER = ("group", "obs", "component", "time_index", "value")
_INTEGER = re.compile(r"[+-]?[0-9]+")
_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class GroupSample:
    """One group's observations: array of shape (n_obs, p, m)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if arr.ndim != 3:
            raise ValidationError("group values must have shape (n_obs, p, m)")
        if arr.shape[0] < 1:
            raise ValidationError("each group needs at least one observation")
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise ValidationError(
                f"non-finite value at (obs={bad[0] + 1}, component={bad[1] + 1}, "
                f"time_index={bad[2] + 1})"
            )

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class FunctionalDataset:
    """k independent multivariate functional samples on a shared grid."""

    grid: Grid
    groups: tuple[GroupSample, ...] = field(repr=False)
    # Group sizes, fixed at construction: the hot paths read them per group.
    n: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        validate(self)
        object.__setattr__(self, "n", tuple(g.n_obs for g in self.groups))

    @property
    def k(self) -> int:
        return len(self.groups)

    @property
    def p(self) -> int:
        return self.groups[0].values.shape[1]

    @property
    def m(self) -> int:
        return self.grid.m

    def group_values(self, i: int) -> np.ndarray:
        return self.groups[i].values


def validate(ds: FunctionalDataset) -> None:
    """Raise ``ValidationError`` unless every dataset invariant holds."""
    if len(ds.groups) < 1:
        raise ValidationError("dataset needs at least one group")
    p = ds.groups[0].values.shape[1]
    m = ds.grid.m
    for i, g in enumerate(ds.groups):
        if not isinstance(g, GroupSample):
            raise ValidationError(f"group {i + 1} is not a GroupSample")
        if g.values.shape[1] != p:
            raise ValidationError(
                f"component count mismatch: group {i + 1} has p={g.values.shape[1]}, "
                f"group 1 has p={p}"
            )
        if g.values.shape[2] != m:
            raise ValidationError(
                f"time grid mismatch: group {i + 1} has {g.values.shape[2]} points, "
                f"grid has {m}"
            )
        # GroupSample's own constructor guarantees finiteness and n_obs >= 1.


def _open_text(source):
    """Return ``(stream, owned)``: text with a newline is read as CSV content,
    any other string or path is opened as a UTF-8 file, and a stream is used
    as given."""
    if isinstance(source, str) and "\n" in source:
        return io.StringIO(source), False
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", encoding="utf-8"), True
    return source, False


class _ContentLines:
    """The stripped lines of a text stream that are neither blank nor comments.

    A line is skipped when it is empty after stripping whitespace or when
    its first non-blank character is ``#``. Iterating yields the other
    lines; ``line_no`` and ``line`` name the last one yielded, and
    ``skipped`` lists the physical numbers of the lines passed over.
    """

    def __init__(self, stream):
        self.stream = stream
        self.line_no = 0
        self.line = ""
        self.skipped: list[int] = []

    def __iter__(self):
        skipped = self.skipped
        for self.line_no, line in enumerate(map(str.strip, self.stream), start=1):
            if line and line[0] != "#":
                self.line = line
                yield line
            else:
                skipped.append(self.line_no)

    def physical_line(self, header_line: int, row: int) -> int:
        """The line number of data row ``row`` (0-based) after the header."""
        line_no = header_line + 1 + row
        for skipped in self.skipped:
            if skipped > line_no:
                break
            if skipped > header_line:
                line_no += 1
        return line_no


def _read_rows(source, header: tuple[str, ...], row_fault) -> tuple[np.ndarray, np.ndarray]:
    """Parse a long CSV into ``(cells, values)``, one row per data line.

    ``header`` names the columns: integer indices, then one float column.
    Blank lines, whitespace-only lines and lines whose first non-blank
    character is ``#`` are skipped; the first other line must be the
    header (case-insensitive). Indices must be base-10 integers >= 1 and
    values decimal floats, ``inf`` or ``nan``. ``cells`` is an int64 array
    with one column per index, ``values`` a float64 vector; both may be
    empty. For a line the parser rejects, ``row_fault(line, line_no,
    header)`` returns the message that names its fault, or None to report
    the line as malformed.
    """
    stream, owned = _open_text(source)
    try:
        lines = _ContentLines(stream)
        rows = iter(lines)
        first = next(rows, None)
        if first is None:
            raise IngestionError("empty file: missing header")
        if tuple(part.strip().lower() for part in first.split(",")) != header:
            raise IngestionError(f"line {lines.line_no}: expected header {','.join(header)!r}")
        header_line = lines.line_no
        second = next(rows, None)
        if second is None:
            return np.empty((0, len(header) - 1), np.int64), np.empty(0)
        dtype = [("cell", np.int64, (len(header) - 1,)), ("value", np.float64)]
        try:
            records = np.loadtxt(
                itertools.chain([second], rows), dtype=dtype, delimiter=",",
                comments=None, ndmin=1,
            )
        except UnicodeDecodeError:
            raise
        except ValueError:
            # The parser stops at the line it rejects: the last one yielded.
            fault = row_fault(lines.line, lines.line_no, header)
            raise IngestionError(fault or f"line {lines.line_no}: malformed row") from None
    except UnicodeDecodeError as exc:
        raise IngestionError(f"file is not valid UTF-8: {exc.reason}") from None
    finally:
        if owned:
            stream.close()
    cells, values = records["cell"], records["value"]
    if cells.min() < 1:
        row, col = np.argwhere(cells < 1)[0]
        raise IngestionError(
            f"line {lines.physical_line(header_line, row)}: {header[col]} must be >= 1, "
            f"got {cells[row, col]}"
        )
    return cells, values


def _cell_label(names, values) -> str:
    """``(name=value, ...)`` for the 1-based indices of one cell."""
    return "(" + ", ".join(f"{name}={int(value)}" for name, value in zip(names, values)) + ")"


def _row_fault(line: str, line_no: int, header: tuple[str, ...]) -> str | None:
    """Name the fault of a data line the parser rejected."""
    parts = [part.strip() for part in line.split(",")]
    if len(parts) != len(header):
        return f"line {line_no}: expected {len(header)} fields, got {len(parts)}"
    for name, raw in zip(header, parts[:-1]):
        if not _INTEGER.fullmatch(raw):
            return f"line {line_no}: {name} {raw!r} is not an integer"
        if int(raw) < 1:
            return f"line {line_no}: {name} must be >= 1, got {int(raw)}"
        if int(raw) > _INT64_MAX:
            return f"line {line_no}: {name} {int(raw)} is out of range"
    raw = parts[-1]
    try:
        float(raw)
    except ValueError:
        return f"line {line_no}: value {raw!r} is not a number"
    # float() also reads digit-grouping underscores and non-ASCII digits.
    if "_" in raw or not raw.isascii():
        return f"line {line_no}: value {raw!r} is not a number"
    return None


def _group_values(gi: int, cells: np.ndarray, values: np.ndarray, m: int) -> np.ndarray:
    """Scatter one group's (obs, component, time_index) cells into an (n_obs, p, m) array.

    Raises on the first duplicate or, failing that, the first missing cell
    in (obs, component, time_index) order.
    """
    obs, comp, time = cells.T
    n_obs, p = int(obs.max()), int(comp.max())
    size = n_obs * p * m
    # With len(values) rows, a fault lies among the first len(values) + 1
    # cells. Counting only rows that can index those cells keeps the linear
    # index far from int64 overflow when an index is absurdly large.
    limit = min(size, len(values) + 1)
    keep = (obs <= (limit - 1) // (p * m) + 1) & (comp <= (limit - 1) // m + 1) & (time <= limit)
    lin = ((obs[keep] - 1) * p + comp[keep] - 1) * m + time[keep] - 1
    counts = np.bincount(lin[lin < limit], minlength=limit)
    for fault, where in (("duplicate", counts > 1), ("missing", counts == 0)):
        if where.any():
            cell = int(np.argmax(where))
            at = (gi, cell // (p * m) + 1, cell // m % p + 1, cell % m + 1)
            raise IngestionError(f"{fault} cell {_cell_label(CSV_HEADER, at)}")
    # Every cell is present once, so every row was kept.
    group = np.empty(size)
    group[lin] = values
    return group.reshape(n_obs, p, m)


def load_csv(source, a: float = 0.0, b: float = 1.0) -> FunctionalDataset:
    """Read a dataset from a long-format CSV stream or path.

    The grid is uniform on [a, b], with as many points as the largest
    ``time_index`` in the file. Blank
    lines and lines whose first non-blank character is ``#`` are ignored.
    Every (group, obs, component, time_index) cell must be present
    exactly once.
    """
    cells, values = _read_rows(source, CSV_HEADER, _row_fault)
    if not len(values):
        raise IngestionError("no data rows")
    non_finite = np.flatnonzero(~np.isfinite(values))
    if non_finite.size:
        raise IngestionError(
            f"non-finite value at {_cell_label(CSV_HEADER, cells[non_finite[0]])}"
        )
    m = int(cells[:, 3].max())
    if m < 2:
        raise IngestionError(f"file uses time_index up to {m}; a grid needs at least 2 points")

    # write_csv emits rows grouped in order; only other files pay for a sort.
    if np.any(cells[1:, 0] < cells[:-1, 0]):
        order = np.argsort(cells[:, 0])
        cells, values = cells[order], values[order]
    bounds = np.flatnonzero(np.diff(cells[:, 0])) + 1
    gaps = np.flatnonzero(cells[np.r_[0, bounds], 0] != np.arange(1, len(bounds) + 2))
    if gaps.size:
        raise IngestionError(f"group {gaps[0] + 1} has no rows (groups must be numbered 1..k)")
    groups = [
        GroupSample(_group_values(gi, cells[lo:hi, 1:], values[lo:hi], m))
        for gi, (lo, hi) in enumerate(zip(np.r_[0, bounds], np.r_[bounds, len(values)]), start=1)
    ]

    p = groups[0].values.shape[1]
    for gi, g in enumerate(groups[1:], start=2):
        if g.values.shape[1] != p:
            raise IngestionError(
                f"component count mismatch: group {gi} has p={g.values.shape[1]}, "
                f"group 1 has p={p}"
            )
    return FunctionalDataset(make_uniform_grid(m, a, b), tuple(groups))


def write_csv(ds: FunctionalDataset, sink) -> None:
    """Write a dataset in the long CSV format (17 significant digits)."""
    if isinstance(sink, (str, bytes)):
        with open(sink, "w", encoding="utf-8") as fh:
            write_csv(ds, fh)
            return
    sink.write(",".join(CSV_HEADER) + "\n")
    for gi, group in enumerate(ds.groups, start=1):
        n_obs, p, m = group.values.shape
        for oi in range(n_obs):
            for ci in range(p):
                for ti in range(m):
                    value = group.values[oi, ci, ti]
                    sink.write(f"{gi},{oi + 1},{ci + 1},{ti + 1},{value:.17g}\n")
