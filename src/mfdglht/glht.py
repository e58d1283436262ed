"""Hypothesis machinery: contrast specs and the variation matrices.

A general linear hypothesis on the k group mean curves is encoded by a
full-rank q x k coefficient matrix C and a constant curve matrix C0(t)
(zero by default). From these we form the weighting matrix H, the
hypothesis variation matrix B (an integrated quadratic form in the
contrasted group means), and the error variation matrix E (the pooled
integrated covariance), whose expectations match under the null.

Everything that depends only on (C, C0), the group sizes, the grid and p
is the test's design (``_design``), built once and shared by every dataset
of that shape: H and the factors B applies (``_contrast_roots``, from C's
row space), the touched groups and the weights the degrees of freedom
read. A group whose column of C is
zero has zero weight in H, B and E, so the one preparation pass over a
dataset (``_prepare``) reads only the curves of the groups C touches: one
Gram of the curves the hypothesis weighs is all the degrees of freedom
read. ``build_glht`` is the design and that pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .dataset import FunctionalDataset, _cell_label, _read_rows
from .errors import ContrastRankError, IngestionError, SingularOmegaError, ValidationError
from .grid import QuadWeights
from .moments import (
    MeanFunctions,
    OmegaHat,
    _centered_weighted,
    _integrated_covs,
    _omega,
    _pooled,
    _require_covariance,
    _spd_inv_sqrt,
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
# Relative to the pooled squared mean curves: what rounding the values can leave.
ROUNDING_REL_TOL = (64 * np.finfo(np.float64).eps) ** 2


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

    def is_pure_contrast(self) -> bool:
        """True when every row of C annihilates the ones vector."""
        return bool(np.all(np.abs(self.c.sum(axis=1)) <= 1e-12 * max(1.0, np.abs(self.c).max())))


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


def _contrast_roots(c: np.ndarray, n) -> tuple[np.ndarray, np.ndarray]:
    """F = R V^T and G = R S^{-1} U^T, with U S V^T the thin SVD of C's nonzero
    columns and R = (V^T D V)^{-1/2}, D = diag(1/n_i): H = F^T F, G C = F and
    G^T G = (C D C^T)^{-1}. V^T D V has condition at most max n_i / min n_i."""
    n = np.asarray(n, dtype=np.float64)
    if n.shape != (c.shape[1],):
        raise ValidationError(f"contrast has {c.shape[1]} columns but {n.size} group sizes")
    if np.any(n < 1):
        raise ValidationError("group sizes must be >= 1")
    touched = np.any(c != 0, axis=0)
    u, s, vt = np.linalg.svd(c[:, touched], full_matrices=False)
    root = _spd_inv_sqrt((vt / n[touched]) @ vt.T)
    f = np.zeros(c.shape)
    f[:, touched] = root @ vt
    return f, (root / s) @ u.T


def _c0_offset(g: np.ndarray, c0: np.ndarray | None, p: int, m: int) -> np.ndarray | None:
    """G C0 as a (q, p*m) array, or None without C0."""
    if c0 is None:
        return None
    q = g.shape[0]
    if c0.shape != (q, p, m):
        raise ValidationError(f"C0 shape {c0.shape} does not match (q={q}, p={p}, m={m})")
    return g @ c0.reshape(q, p * m)


def hn_matrix(c: np.ndarray, n) -> np.ndarray:
    """Weighting matrix C^T (C D C^T)^{-1} C with D = diag(1/n_i); k x k PSD."""
    spec = c if isinstance(c, ContrastSpec) else ContrastSpec(c)
    f = _contrast_roots(spec.c, n)[0]
    return f.T @ f


def _bn(means: np.ndarray, factor: np.ndarray, offset: np.ndarray | None,
        sqrt_w: np.ndarray) -> np.ndarray:
    """B from the (t, p, m) means of the groups that ``factor``'s t columns weigh:
    the sum over rows and time of the outer products of the residual curves
    F M(t) - G C0(t), each scaled by sqrt(w)."""
    _, p, m = means.shape
    resid = factor @ means.reshape(len(means), p * m)
    if offset is not None:
        resid -= offset
    resid = resid.reshape(-1, p, m)
    resid *= sqrt_w
    # (p, q m) rows, so one product a @ a.T (exactly symmetric) sums over rows and time.
    rows = resid.transpose(1, 0, 2).reshape(p, -1)
    return rows @ rows.T


def b_matrix(
    means: MeanFunctions, spec: ContrastSpec, w: QuadWeights, n
) -> np.ndarray:
    """Hypothesis variation matrix: integrated quadratic form in C M(t) - C0(t)."""
    k, p, m = means.means.shape
    if spec.k != k:
        raise ValidationError(f"contrast has {spec.k} columns but dataset has {k} groups")
    f, g = _contrast_roots(spec.c, n)
    return _bn(means.means, f, _c0_offset(g, spec.c0, p, m), np.sqrt(w.weights))


def e_matrix(sigmas, hn: np.ndarray, n) -> np.ndarray:
    """Error variation matrix: sum_i h_ii sigma_i / n_i (equals the pooled matrix)."""
    h_diag = np.diag(np.asarray(hn, dtype=np.float64))
    return _pooled(np.asarray(sigmas, dtype=np.float64), h_diag / np.asarray(n, dtype=np.float64))


def _off_diagonal_weights(hn: np.ndarray, n: np.ndarray) -> np.ndarray:
    """hn_ij^2 / (n_i n_j) off the diagonal and zero on it: the weights of the
    between-group terms of the hypothesis degrees-of-freedom denominator."""
    off = hn**2 / np.outer(n, n)
    np.fill_diagonal(off, 0.0)
    return off


def _cross_scale(n: np.ndarray) -> np.ndarray:
    """1 / ((n_i - 1)(n_j - 1)): the plug-in covariances' normalization of the
    between-group trace functionals."""
    return 1.0 / np.outer(n - 1, n - 1)


@dataclass(frozen=True)
class _Design:
    """Everything a test reads that depends only on (C, C0), the group sizes,
    the grid and p: built once, then shared by every dataset of that shape.

    Per-group arrays run over the touched groups, those with a nonzero
    column of C (exactly those with h_ii > 0), in order.
    """

    sizes: tuple[int, ...]  # every group's n_i, touched or not
    p: int
    m: int
    sqrt_w: np.ndarray  # square roots of the quadrature weights
    hn: np.ndarray  # H, k x k
    touched: np.ndarray
    n: np.ndarray  # the touched groups' sizes, as floats
    b_factor: np.ndarray  # the touched columns of F
    b_offset: np.ndarray | None  # G C0, (q, p*m)
    starts: np.ndarray  # each touched group's first prepared curve
    curves: tuple[slice, ...]  # each touched group's prepared curves
    omega_weights: np.ndarray  # h_ii / n_i
    rows: tuple[slice, ...]  # each touched group's rows of the Gram
    pairs: tuple[tuple[int, int], ...]  # touched pairs (a < b)
    cross_scale: np.ndarray
    off_weights: np.ndarray
    h2: np.ndarray  # h_ii^2


def _design(spec: ContrastSpec, sizes: tuple[int, ...], w: QuadWeights, p: int) -> _Design:
    """The design of a test of ``spec`` on groups of ``sizes`` curves with p
    components on ``w``'s grid; checks that C has one column per group, that
    C0 has the curves' shape and that every group has n >= 2."""
    if spec.k != len(sizes):
        raise ValidationError(f"contrast has {spec.k} columns but dataset has {len(sizes)} groups")
    m = w.weights.size
    f, g = _contrast_roots(spec.c, sizes)  # the one factorization that H and B share
    hn = f.T @ f
    offset = _c0_offset(g, spec.c0, p, m)
    _require_covariance(sizes, range(len(sizes)))
    touched = np.flatnonzero(np.any(spec.c != 0, axis=0))
    n = np.array([sizes[i] for i in touched], dtype=np.float64)
    h_t = hn[np.ix_(touched, touched)]
    h_diag = np.diag(h_t)
    bounds = np.cumsum([0, *n.astype(np.intp)])
    return _Design(
        sizes=tuple(sizes),
        p=p,
        m=m,
        sqrt_w=np.sqrt(w.weights),  # real: QuadWeights are nonnegative
        hn=hn,
        touched=touched,
        n=n,
        b_factor=f[:, touched],
        b_offset=offset,
        starts=bounds[:-1],
        curves=tuple(slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])),
        omega_weights=h_diag / n,
        rows=tuple(slice(p * lo, p * hi) for lo, hi in zip(bounds[:-1], bounds[1:])),
        pairs=tuple(combinations(range(len(touched)), 2)),
        cross_scale=_cross_scale(n),
        off_weights=_off_diagonal_weights(h_t, n),
        h2=h_diag**2,
    )


def _prepare(design: _Design, values) -> tuple[np.ndarray, OmegaHat, np.ndarray]:
    """The one preparation pass over the touched groups' curves ``values``:
    B, the pooled matrix, and the curves centered by group, scaled by
    sqrt(w) and standardized in place (read-only, shape (N, p, m)); the
    pooled matrix and the rounding level must be finite, and the former must
    stand above the latter."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        means, curves = _centered_weighted(values, design.sqrt_w)
        pooled = _pooled(_integrated_covs(curves, design.starts, design.n), design.omega_weights)
        level = design.omega_weights @ np.square(means * design.sqrt_w).sum(axis=2)
    if not (np.isfinite(pooled).all() and np.isfinite(level).all()):
        raise ValidationError("values too large: their squares overflow float64")
    if (pooled.diagonal() <= ROUNDING_REL_TOL * level).any():
        raise SingularOmegaError("pooled covariance matrix is numerically singular: "
                                 "no larger than rounding the curves' values leaves it")
    bn = _bn(means, design.b_factor, design.b_offset, design.sqrt_w)
    omega = _omega(pooled)
    # Group by group: matmul copies an operand that overlaps its output.
    for rows in design.curves:
        np.matmul(omega.inv_sqrt, curves[rows], out=curves[rows])
    curves.flags.writeable = False
    return bn, omega, curves


def build_glht(ds: FunctionalDataset, spec: ContrastSpec, w: QuadWeights) -> GlhtMatrices:
    """Assemble H, B, E, the pooled matrix and the standardized curves.

    Only the groups with a nonzero column in C are read: every other group
    has zero weight in H, B and E. Their curves are centered by group and
    scaled by sqrt(w) once. B reads their means, each covariance its group's
    centered curves; the pooled inverse square root then standardizes those
    curves in place. Every group's size is still checked, read or not.
    """
    design = _design(spec, ds.n, w, ds.p)
    bn, omega, curves = _prepare(design, [ds.group_values(i) for i in design.touched])
    # E equals the pooled matrix term for term, so it is not summed a second time.
    return GlhtMatrices(hn=design.hn, bn=bn, en=omega.omega, omega=omega, standardized=curves,
                        touched=tuple(design.touched.tolist()))


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
