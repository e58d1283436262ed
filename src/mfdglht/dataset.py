"""Multivariate functional samples, their grid and quadrature weights; the one CSV reader.

A dataset holds ``k`` independent groups of discretized p-dimensional
curves observed on one shared grid of strictly increasing time points.
Every time integral in the library is a weighted sum over that grid, with
its trapezoidal weights (``quad_weights``); double integrals use the
tensor product of the same weights. ``_sqrt_weights`` is the one place
that ties weights to curves. The on-disk format is a long (tidy)
CSV with header ``group,obs,component,time_index,value``; indices are
1-based in files and 0-based in memory. The contrast and C0 files share
its grammar and fault messages (``_read_rows``, ``_row_fault``). Every
loader reads a path (``str`` or ``os.PathLike``) or a text stream.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import IngestionError, ValidationError

__all__ = ["Grid", "QuadWeights", "make_uniform_grid", "quad_weights", "GroupSample",
           "FunctionalDataset", "load_csv", "write_csv", "load_contrast_csv", "load_c0_csv"]

CSV_HEADER = ("group", "obs", "component", "time_index", "value")
CONTRAST_HEADER = ("row", "col", "value")
C0_HEADER = ("row", "component", "time_index", "value")
_INTEGER = re.compile(r"[+-]?[0-9]+")
_INT64_MAX = np.iinfo(np.int64).max


def _frozen_array(values) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Grid:
    """Strictly increasing time points; the domain is [points[0], points[-1]]."""

    points: np.ndarray

    def __post_init__(self):
        pts = _frozen_array(self.points)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ValidationError("grid needs at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("grid points must be finite")
        if np.any(np.diff(pts) <= 0):
            raise ValidationError("grid points must be strictly increasing")

    @property
    def m(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class QuadWeights:
    """Nonnegative quadrature weights, one per grid point."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self.weights)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValidationError("quadrature weights must be a 1-D vector, finite and nonnegative")


def make_uniform_grid(m: int, a: float, b: float) -> Grid:
    """Build a grid of ``m`` equidistant points including both endpoints."""
    if int(m) != m or m < 2:
        raise ValidationError("grid size must be an integer >= 2")
    if not (a < b):
        raise ValidationError("domain bounds must satisfy a < b")
    return Grid(np.linspace(a, b, int(m)))


def quad_weights(grid: Grid) -> QuadWeights:
    """Trapezoidal weights for the grid.

    For interior points the weight is half the width of the two adjacent
    intervals, ``(x[j+1] - x[j-1]) / 2``; endpoints get half their single
    interval. For a uniform grid with spacing h this is (h/2, h, ..., h, h/2).
    The weights are positive and sum to the span x[-1] - x[0].
    """
    x = grid.points
    w = np.empty_like(x)
    w[0] = (x[1] - x[0]) / 2.0
    w[-1] = (x[-1] - x[-2]) / 2.0
    w[1:-1] = (x[2:] - x[:-2]) / 2.0
    return QuadWeights(w)


def _sqrt_weights(w: QuadWeights, m: int) -> np.ndarray:
    """Square roots of the weights ``w``, checked against curves on ``m`` points."""
    if w.weights.size != m:
        raise ValidationError(f"quadrature weights have {w.weights.size} points, the curves {m}")
    return np.sqrt(w.weights)  # real: QuadWeights are nonnegative


@dataclass(frozen=True)
class GroupSample:
    """One group's observations: array of shape (n_obs, p, m)."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values)
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


@dataclass(frozen=True)
class FunctionalDataset:
    """k independent multivariate functional samples on a shared grid."""

    grid: Grid
    groups: tuple[GroupSample, ...] = field(repr=False)
    # Group sizes, fixed at construction: the hot paths read them per group.
    n: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.grid, Grid):
            raise ValidationError("grid must be a Grid")
        groups = tuple(self.groups)
        object.__setattr__(self, "groups", groups)
        if not groups:
            raise ValidationError("dataset needs at least one group")
        for i, g in enumerate(groups):
            if not isinstance(g, GroupSample):
                raise ValidationError(f"group {i + 1} is not a GroupSample")
        p, m = groups[0].values.shape[1], self.grid.m
        for i, g in enumerate(groups):
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
        # GroupSample's own constructor guarantees finiteness and at least one curve.
        object.__setattr__(self, "n", tuple(g.values.shape[0] for g in groups))

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


def _open_text(source):
    """Return ``(stream, owned)``: a path (``str`` or ``os.PathLike``) is
    opened as a UTF-8 file, and a text stream is used as given."""
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", encoding="utf-8"), True
    return source, False


# Raw lines handed to the parser at once; only a chunk it rejects is
# filtered line by line.
CHUNK_LINES = 2**15

# Index types of the stored rows, narrowest first. There is no uint64:
# numpy promotes uint64 with int64 to float64.
_INDEX_TYPES = (np.uint8, np.uint16, np.uint32, np.int64)


def _record_type(index, header: tuple[str, ...]) -> np.dtype:
    """One row of a file with ``header``: its indices of type ``index``, then its value."""
    return np.dtype([("cell", index, (len(header) - 1,)), ("value", np.float64)])


def _index_type(cells: np.ndarray) -> np.dtype:
    """The narrowest of ``_INDEX_TYPES`` that holds every index in ``cells``."""
    lo, hi = cells.min(initial=0), cells.max(initial=0)
    return np.dtype(next(t for t in _INDEX_TYPES
                         if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max))


def _parse(lines, dtype) -> np.ndarray:
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _read_chunk(chunk: list[str], first: int, dtype, header):
    """Parse a chunk of raw lines, the first of them line ``first``, into its
    records and the message naming its first index below 1, if any.

    A chunk the parser rejects is parsed again without its skipped lines,
    and so is one that opens with a blank line: it may hold no row, which
    the parser warns about. The parser skips empty lines and reads fields
    around surrounding blanks, so either way row i is the chunk's i-th
    content line.
    """
    records = None
    if chunk[0].strip():
        with contextlib.suppress(ValueError):
            records = _parse(chunk, dtype)
    if records is None:
        lines = [line for line in chunk if (s := line.lstrip()) and s[0] != "#"]
        with contextlib.suppress(ValueError):
            records = _parse(lines, dtype) if lines else np.empty(0, dtype)
    if records is not None and records["cell"].min(initial=1) >= 1:
        return records, None
    content = [(no, line) for no, line in enumerate(map(str.strip, chunk), start=first)
               if line and line[0] != "#"]
    if records is None:
        # The parser reads an iterator a line at a time: it stops at the line it rejects.
        pairs = iter(content)
        with contextlib.suppress(ValueError):
            _parse((line for _, line in pairs), dtype)
        line_no, line = content[-1 - len(list(pairs))]
        raise IngestionError(_row_fault(line, line_no, header) or f"line {line_no}: malformed row")
    cells = records["cell"]
    row, col = np.argwhere(cells < 1)[0]
    return records, f"line {content[row][0]}: {header[col]} must be >= 1, got {cells[row, col]}"


def _read_rows(source, header: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Parse a long CSV into ``(cells, values)``, one row per data line.

    ``header`` names the columns: integer indices, then one float column.
    Blank lines, whitespace-only lines and lines whose first non-blank
    character is ``#`` are skipped; the first other line must be the
    header (case-insensitive). One UTF-8 byte-order mark at the start of the
    file is ignored. Indices must be base-10 integers >= 1 and values
    decimal floats, ``inf`` or ``nan``. ``cells`` is an array with one
    column per index, of the narrowest of ``_INDEX_TYPES`` that holds every
    index; ``values`` is a float64 vector. Both may be empty, and both are
    views of one record array. A line the parser rejects is named by
    ``_row_fault``.

    The lines after the header reach the parser raw, ``CHUNK_LINES`` at a
    time; only a chunk it rejects is filtered line by line (``_read_chunk``).
    Each chunk is parsed with int64 indices, so the grammar and the fault
    messages do not depend on the stored type. A dataset row whose indices
    are all below 65536 is stored in 16 bytes: four uint16 indices and the
    value, against 40 with int64 indices.
    """
    parsed = _record_type(np.int64, header)
    index = np.dtype(_INDEX_TYPES[0])
    records = np.empty(0, _record_type(index, header))
    stream, owned = _open_text(source)
    try:
        for line_no, raw in enumerate(stream, start=1):
            line = (raw.removeprefix("\ufeff") if line_no == 1 else raw).strip()
            if line and line[0] != "#":
                break
        else:
            raise IngestionError("empty file: missing header")
        if tuple(part.strip().lower() for part in line.split(",")) != header:
            raise IngestionError(f"line {line_no}: expected header {','.join(header)!r}")
        below = None
        while chunk := list(itertools.islice(stream, CHUNK_LINES)):
            part, fault = _read_chunk(chunk, line_no + 1, parsed, header)
            wider = np.promote_types(index, _index_type(part["cell"]))
            if wider != index:  # at most once per step of the ladder
                index = wider
                records = records.astype(_record_type(index, header))
            # Grown by realloc, so the rows are never held twice (as a list of
            # parts would); the chunk's int64 indices are narrowed as it is stored.
            records.resize(len(records) + len(part), refcheck=False)
            records[len(records) - len(part):] = part
            below = below or fault
            line_no += len(chunk)
    except UnicodeDecodeError as exc:
        raise IngestionError(f"file is not valid UTF-8: {exc.reason}") from None
    finally:
        if owned:
            stream.close()
    if below:  # reported only when no line is malformed, as in a whole-file parse
        raise IngestionError(below)
    return records["cell"], records["value"]


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


def _load_cells(source, header, what: str, limits, shape, where: str) -> np.ndarray:
    """Read a CSV of 1-based cells into a dense array; a cell left out stays zero.

    Every index is checked against its bound in ``limits`` (None: unbounded)
    before any array is sized. ``shape`` gives each axis's length, None the
    largest index in the file. ``what`` names the file, ``where`` the bounds.
    """
    cells, values = _read_rows(source, header)
    if not len(values):
        raise IngestionError(f"{what} file has no data rows")
    unique, counts = np.unique(cells, axis=0, return_counts=True)
    if np.any(counts > 1):
        raise IngestionError(f"duplicate cell {_cell_label(header, unique[counts > 1][0])}")
    bound = [_INT64_MAX if limit is None else limit for limit in limits]
    outside = np.flatnonzero(np.any(cells > bound, axis=1))
    if outside.size:
        label = _cell_label(header, cells[outside[0]])
        raise IngestionError(f"{what} cell {label} outside {where}")
    top = cells.max(axis=0)
    dense = np.zeros([int(hi) if size is None else size for size, hi in zip(shape, top)])
    dense[tuple((cells - 1).T)] = values
    return dense


def load_contrast_csv(source, k: int | None = None) -> np.ndarray:
    """Read a contrast matrix from CSV with header ``row,col,value`` (1-based).

    With ``k``, the dataset's group count, every row and column index must be
    at most k and the matrix has k columns; pass it for files from outside the
    program, whose indices would otherwise size the matrix unchecked.
    """
    return _load_cells(source, CONTRAST_HEADER, "contrast", (k, k), (None, k),
                       f"a contrast of k={k} groups (row and col at most k)")


def load_c0_csv(source, p: int, m: int, q: int) -> np.ndarray:
    """Read C0 curves, shape (q, p, m), from CSV with header
    ``row,component,time_index,value``; rows are bounded by ``q``, the
    contrast's row count, components by ``p`` and time indices by ``m``.
    """
    return _load_cells(source, C0_HEADER, "C0", (q, p, m), (q, p, m),
                       f"dataset shape (q={q}, p={p}, m={m})")


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
    # ((obs - 1) * p + comp - 1) * m + time - 1, in one int64 array built in
    # place from the narrow index columns.
    lin = obs[keep].astype(np.int64)
    lin -= 1
    lin *= p
    lin += comp[keep]
    lin -= 1
    lin *= m
    lin += time[keep]
    lin -= 1
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


def load_csv(source) -> FunctionalDataset:
    """Read a dataset from a long-format CSV path or text stream.

    The grid is uniform on [0, 1], with as many points as the largest
    ``time_index`` in the file; the statistics read the grid only through
    its quadrature weights, so the domain's span cancels. Blank lines and
    lines whose first non-blank character is ``#`` are ignored. Every
    (group, obs, component, time_index) cell must be present exactly once.
    """
    cells, values = _read_rows(source, CSV_HEADER)
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
    bounds = np.flatnonzero(cells[1:, 0] != cells[:-1, 0]) + 1
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
    return FunctionalDataset(make_uniform_grid(m, 0.0, 1.0), tuple(groups))


def write_csv(ds: FunctionalDataset, sink) -> None:
    """Write a dataset in the long CSV format (17 significant digits) to a path
    (``str`` or ``os.PathLike``) or text stream."""
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="utf-8") as fh:
            write_csv(ds, fh)
            return
    sink.write(",".join(CSV_HEADER) + "\n")
    for gi, group in enumerate(ds.groups, start=1):
        n_obs, p, m = group.values.shape
        # One observation's p * m rows, with its index and values left to fill.
        template = "".join(
            f"{gi},%d,{ci},{ti},%.17g\n" for ci in range(1, p + 1) for ti in range(1, m + 1)
        )
        for oi, values in enumerate(group.values.reshape(n_obs, p * m).tolist(), start=1):
            sink.write(template % tuple(v for value in values for v in (oi, value)))
