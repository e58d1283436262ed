"""Hypothesis machinery: contrast specs and the variation matrices.

A general linear hypothesis on the k group mean curves is encoded by a
full-rank q x k coefficient matrix C and a constant curve matrix C0(t)
(zero by default). From these we form the weighting matrix H, the
hypothesis variation matrix B (an integrated quadratic form in the
contrasted group means), and the error variation matrix E (the pooled
integrated covariance), whose expectations match under the null.

A group whose column of C is zero has zero weight in H, B and E, so
``build_glht`` prepares only the curves of the groups C touches: one Gram
of the curves the hypothesis weighs is all the degrees of freedom read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .dataset import FunctionalDataset, _cell_label, _read_rows
from .errors import ContrastRankError, IngestionError, ValidationError
from .grid import QuadWeights
from .moments import (
    MeanFunctions,
    OmegaHat,
    _centered_weighted,
    _integrated_cov,
    _pooled,
    _require_covariance,
    omega_hat,
)

__all__ = [
    "ContrastSpec",
    "GlhtMatrices",
    "hn_matrix",
    "b_matrix",
    "e_matrix",
    "build_glht",
    "oneway_contrast",
    "load_contrast_csv",
    "load_c0_csv",
]

RANK_REL_TOL = 1e-10


@dataclass(frozen=True)
class ContrastSpec:
    """Coefficient matrix C (q x k) and constant curves C0 (q x p x m or None)."""

    c: np.ndarray
    c0: np.ndarray | None = None

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.c, dtype=np.float64))
        c.flags.writeable = False
        object.__setattr__(self, "c", c)
        if not np.all(np.isfinite(c)):
            raise ValidationError("contrast matrix must be finite")
        q, k = c.shape
        if q > k:
            raise ContrastRankError(f"contrast has more rows ({q}) than groups ({k})")
        svals = np.linalg.svd(c, compute_uv=False)
        if svals[-1] <= RANK_REL_TOL * svals[0]:
            raise ContrastRankError(
                f"contrast matrix is numerically rank deficient (singular values "
                f"{svals[0]:.3e} .. {svals[-1]:.3e})"
            )
        if self.c0 is not None:
            c0 = np.ascontiguousarray(self.c0, dtype=np.float64)
            c0.flags.writeable = False
            object.__setattr__(self, "c0", c0)
            if c0.ndim != 3 or c0.shape[0] != q:
                raise ValidationError("C0 must have shape (q, p, m)")
            if not np.all(np.isfinite(c0)):
                raise ValidationError("C0 must be finite")

    @property
    def q(self) -> int:
        return self.c.shape[0]

    @property
    def k(self) -> int:
        return self.c.shape[1]

    def is_pure_contrast(self, tol: float = 1e-12) -> bool:
        """True when every row of C annihilates the ones vector."""
        return bool(np.all(np.abs(self.c.sum(axis=1)) <= tol * max(1.0, np.abs(self.c).max())))


@dataclass(frozen=True)
class GlhtMatrices:
    """All matrices the tests consume for one dataset and contrast, and the
    standardized curves that the degrees of freedom read.

    ``touched`` lists, in order, the groups with a nonzero column in C,
    which are exactly those with h_ii > 0. ``standardized`` holds only
    their curves, read-only, shape (sum of their n_i, p, m), in group order.
    """

    hn: np.ndarray
    bn: np.ndarray
    en: np.ndarray
    omega: OmegaHat
    standardized: np.ndarray = field(repr=False)
    touched: tuple[int, ...]


def oneway_contrast(k: int) -> ContrastSpec:
    """The contrast (I_{k-1}, -1_{k-1}) testing equality of all k group means."""
    if k < 2:
        raise ValidationError("one-way contrast needs k >= 2 groups")
    return ContrastSpec(np.hstack([np.eye(k - 1), -np.ones((k - 1, 1))]))


def _gram_cho_factor(c: np.ndarray, n) -> tuple:
    n = np.asarray(n, dtype=np.float64)
    if np.any(n < 1):
        raise ValidationError("group sizes must be >= 1")
    gram = (c / n) @ c.T
    return scipy.linalg.cho_factor((gram + gram.T) / 2.0, lower=True)


def _hn_from_factor(c: np.ndarray, cho: tuple) -> np.ndarray:
    hn = c.T @ scipy.linalg.cho_solve(cho, c)
    return (hn + hn.T) / 2.0


def hn_matrix(c: np.ndarray, n) -> np.ndarray:
    """Weighting matrix C^T (C D C^T)^{-1} C with D = diag(1/n_i); k x k PSD."""
    spec = c if isinstance(c, ContrastSpec) else ContrastSpec(c)
    return _hn_from_factor(spec.c, _gram_cho_factor(spec.c, n))


def _bn_from_factor(
    means: MeanFunctions, c: np.ndarray, c0: np.ndarray | None, w: QuadWeights, cho: tuple
) -> np.ndarray:
    """B from the means of the groups that ``c``'s columns weigh, one column each."""
    _, p, m = means.means.shape
    q = c.shape[0]
    resid = np.einsum("qk,kpm->qpm", c, means.means)
    if c0 is not None:
        if c0.shape != (q, p, m):
            raise ValidationError(f"C0 shape {c0.shape} does not match (q={q}, p={p}, m={m})")
        resid = resid - c0
    solved = scipy.linalg.cho_solve(cho, resid.reshape(q, -1)).reshape(resid.shape)
    bn = np.einsum("qpt,qot,t->po", resid, solved, w.weights)
    return (bn + bn.T) / 2.0


def b_matrix(
    means: MeanFunctions, spec: ContrastSpec, w: QuadWeights, n
) -> np.ndarray:
    """Hypothesis variation matrix: integrated quadratic form in C M(t) - C0(t)."""
    k = means.means.shape[0]
    if spec.k != k:
        raise ValidationError(f"contrast has {spec.k} columns but dataset has {k} groups")
    return _bn_from_factor(means, spec.c, spec.c0, w, _gram_cho_factor(spec.c, n))


def e_matrix(sigmas, hn: np.ndarray, n) -> np.ndarray:
    """Error variation matrix: sum_i h_ii sigma_i / n_i (equals the pooled matrix)."""
    h_diag = np.diag(np.asarray(hn, dtype=np.float64))
    return _pooled(sigmas, h_diag, np.asarray(n, dtype=np.float64))


def build_glht(ds: FunctionalDataset, spec: ContrastSpec, w: QuadWeights) -> GlhtMatrices:
    """Assemble H, B, E, the pooled matrix and the standardized curves.

    Only the groups with a nonzero column in C are read: every other group
    has zero weight in H, B and E. Their curves are centered by group and
    scaled by sqrt(w) once. B reads their means, each covariance its group's
    centered curves; the pooled inverse square root then standardizes those
    curves in place. Every group's size is still checked, read or not.
    """
    if spec.k != ds.k:
        raise ValidationError(f"contrast has {spec.k} columns but dataset has {ds.k} groups")
    n = np.asarray(ds.n)
    touched = np.flatnonzero(np.any(spec.c != 0, axis=0))
    cho = _gram_cho_factor(spec.c, n)  # the one factor of C D C^T that H and B share
    hn = _hn_from_factor(spec.c, cho)
    means, curves = _centered_weighted(ds, w, touched)
    bn = _bn_from_factor(MeanFunctions(means), spec.c[:, touched], spec.c0, w, cho)
    _require_covariance(ds.n, range(ds.k))
    groups = np.split(curves, np.cumsum(n[touched])[:-1])
    sigmas = [_integrated_cov(rows) for rows in groups]
    omega = omega_hat(sigmas, np.diag(hn)[touched], n[touched])
    for rows in groups:
        np.matmul(omega.inv_sqrt, rows, out=rows)
    curves.flags.writeable = False
    # E equals the pooled matrix term for term, so it is not summed a second time.
    return GlhtMatrices(hn=hn, bn=bn, en=omega.omega, omega=omega, standardized=curves,
                        touched=tuple(touched.tolist()))


CONTRAST_HEADER = ("row", "col", "value")
C0_HEADER = ("row", "component", "time_index", "value")


def _field_count_fault(line: str, line_no: int, header: tuple[str, ...]) -> str | None:
    """Name a wrong field count; the reader reports any other fault as a malformed row."""
    if len(line.split(",")) != len(header):
        return f"line {line_no}: expected {len(header)} fields"
    return None


def _reject_duplicates(cells: np.ndarray, header: tuple[str, ...]) -> None:
    unique, counts = np.unique(cells, axis=0, return_counts=True)
    if np.any(counts > 1):
        raise IngestionError(f"duplicate cell {_cell_label(header, unique[counts > 1][0])}")


def _reject_outside(cells: np.ndarray, header: tuple[str, ...], limits: dict, what: str,
                    where: str) -> None:
    """Raise ``IngestionError`` for the first cell with an index above its limit in
    ``limits`` (keyed by column name); run before the indices size a dense array."""
    bound = [limits.get(name, np.iinfo(np.int64).max) for name in header[:-1]]
    outside = np.flatnonzero(np.any(cells > bound, axis=1))
    if outside.size:
        label = _cell_label(header, cells[outside[0]])
        raise IngestionError(f"{what} cell {label} outside {where}")


def load_contrast_csv(source, k: int | None = None) -> np.ndarray:
    """Read a contrast matrix from CSV with header ``row,col,value`` (1-based).

    With ``k``, the dataset's group count, every row and column index must be
    at most k and the matrix has k columns; pass it for files from outside the
    program, whose indices would otherwise size the matrix unchecked.
    """
    cells, values = _read_rows(source, CONTRAST_HEADER, _field_count_fault)
    if not len(values):
        raise IngestionError("contrast file has no data rows")
    _reject_duplicates(cells, CONTRAST_HEADER)
    if k is not None:
        _reject_outside(cells, CONTRAST_HEADER, {"row": k, "col": k}, "contrast",
                        f"a contrast of k={k} groups (row and col at most k)")
    c = np.zeros((cells[:, 0].max(), k or cells[:, 1].max()))
    c[tuple((cells - 1).T)] = values
    return c


def load_c0_csv(source, p: int, m: int, q: int | None = None) -> np.ndarray:
    """Read C0 curves from CSV with header ``row,component,time_index,value``.

    Components are bounded by ``p`` and time indices by ``m``; with ``q``,
    the contrast's row count, the rows are bounded too and C0 has q rows.
    """
    cells, values = _read_rows(source, C0_HEADER, _field_count_fault)
    if not len(values):
        raise IngestionError("C0 file has no data rows")
    _reject_duplicates(cells, C0_HEADER)
    limits = {"component": p, "time_index": m}
    shape = f"p={p}, m={m}"
    if q is not None:
        limits["row"] = q
        shape = f"q={q}, {shape}"
    _reject_outside(cells, C0_HEADER, limits, "C0", f"dataset shape ({shape})")
    c0 = np.zeros((q or cells[:, 0].max(), p, m))
    c0[tuple((cells - 1).T)] = values
    return c0
