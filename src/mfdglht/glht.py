"""Hypothesis machinery: contrast specs, sample moments and the variation matrices.

A general linear hypothesis on the k group mean curves is encoded by a
full-rank q x k coefficient matrix C and a constant curve matrix C0(t)
(zero by default). From these we form the weighting matrix H, the
hypothesis variation matrix B (an integrated quadratic form in the
contrasted group means), and the error variation matrix E (the pooled
integrated covariance), whose expectations match under the null.

Each group's curves are prepared once (``_centered_weighted``): centered by
the group mean and scaled by the square roots of the quadrature weights.
An integrated covariance is a p x p reduction of those curves, so the full
covariance kernel is never formed. The pooled matrix combines the per-group
integrated covariances with the diagonal of the hypothesis weighting
matrix. Its inverse square root, taken with the matrix scaled to unit
diagonal so that no unit of a component decides singularity, standardizes
the prepared curves. ``_spd_inv_sqrt`` is the one routine that factors a
positive-definite matrix.

Everything that depends only on (C, C0), the group sizes, the grid and p
is the test's design (``_design``), built once and shared by every dataset
of that shape: H and the factors B applies (``_contrast_roots``, from C's
row space), and the touched groups with H restricted to them. A group
whose column of C is zero has zero weight in H, B and E, so the one
preparation pass over a dataset (``_prepare``) reads only the curves of
the groups C touches: one Gram of the curves the hypothesis weighs is all
the degrees of freedom read. ``build_glht`` is the design and that pass.
The contrast and C0 files are read by ``dataset``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import FunctionalDataset, QuadWeights, _sqrt_weights
from .errors import (
    ContrastRankError,
    InsufficientReplicationError,
    NotPositiveDefiniteError,
    SingularOmegaError,
    ValidationError,
)

__all__ = [
    "ContrastSpec",
    "GlhtMatrices",
    "OmegaHat",
    "hn_matrix",
    "b_matrix",
    "e_matrix",
    "build_glht",
    "oneway_contrast",
    "group_means",
    "sigma_hat",
    "omega_hat",
]

RANK_REL_TOL = 1e-10
PD_REL_TOL = 1e-10
# Relative to the pooled squared mean curves: what rounding the values can leave.
ROUNDING_REL_TOL = (64 * np.finfo(np.float64).eps) ** 2
# The smallest diagonal entry an equilibration takes: below it 1/sqrt(d_i) * 1/sqrt(d_j) overflows.
_SMALLEST_NORMAL = np.finfo(np.float64).tiny
# The fewest curves a group needs, and why: for a covariance, and for the
# distinct-index U-statistics that the degrees of freedom read.
_COVARIANCE_N = (2, "a covariance requires")
_USTAT_N = (4, "the distinct-index U-statistics require")


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
class OmegaHat:
    """Pooled SPD matrix Omega and an inverse square root S with S Omega S^T = I
    (so S^T S = Omega^{-1}); S is not symmetric in general."""

    omega: np.ndarray
    inv_sqrt: np.ndarray


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


def _spd_inv_sqrt(sym: np.ndarray, rel_tol: float = PD_REL_TOL) -> np.ndarray:
    """Symmetric inverse square root of a symmetric matrix by one ``eigh``; raises
    ``NotPositiveDefiniteError`` at an eigenvalue at most ``rel_tol`` times the largest."""
    eigvals, eigvecs = np.linalg.eigh(sym)
    if eigvals[-1] <= 0 or eigvals[0] <= rel_tol * eigvals[-1]:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (eigenvalues {eigvals[0]:.3e} .. "
            f"{eigvals[-1]:.3e}, relative tolerance {rel_tol:g})"
        )
    return (eigvecs / np.sqrt(eigvals)) @ eigvecs.T


def _equilibrated_inv_sqrt(sym: np.ndarray, rel_tol: float) -> np.ndarray:
    """S with S sym S^T = I: the root of ``sym`` scaled to unit diagonal, its
    columns divided by the square roots of sym's diagonal, which must be
    positive and normal; the eigenvalue test sees the scaled matrix."""
    diag = sym.diagonal()
    if not (diag >= _SMALLEST_NORMAL).all():  # NaN included
        raise NotPositiveDefiniteError("matrix has a diagonal entry below the smallest normal")
    scale = 1.0 / np.sqrt(diag)
    return _spd_inv_sqrt(sym * (scale[:, None] * scale), rel_tol) * scale


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
    f = _contrast_roots(ContrastSpec(c).c, n)[0]
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


def b_matrix(means: np.ndarray, spec: ContrastSpec, w: QuadWeights, n) -> np.ndarray:
    """Hypothesis variation matrix: integrated quadratic form in C M(t) - C0(t),
    from the (k, p, m) group means of ``group_means``."""
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 3:
        raise ValidationError("means must have shape (k, p, m)")
    if not np.all(np.isfinite(means)):
        raise ValidationError("mean functions must be finite")
    k, p, m = means.shape
    if spec.k != k:
        raise ValidationError(f"contrast has {spec.k} columns but dataset has {k} groups")
    f, g = _contrast_roots(spec.c, n)
    return _bn(means, f, _c0_offset(g, spec.c0, p, m), _sqrt_weights(w, m))


def group_means(ds: FunctionalDataset) -> np.ndarray:
    """Average curves within each group, shape (k, p, m); row i is the i-th group mean."""
    return np.stack([g.values.mean(axis=0) for g in ds.groups])


def _centered_weighted(values, sqrt_w: np.ndarray):
    """Means of the groups ``values`` (a sequence of (n_i, p, m) arrays) and
    their curves, centered by group and scaled by ``sqrt_w``, the square roots
    of the quadrature weights, in one (N, p, m) array; centering keeps
    offsets out of products."""
    _, p, m = values[0].shape
    means = np.empty((len(values), p, m))
    curves = np.empty((sum(map(len, values)), p, m))
    hi = 0
    for group, mean in zip(values, means):
        lo, hi = hi, hi + len(group)
        # np.mean's own two steps, without its Python wrapper.
        np.add.reduce(group, axis=0, out=mean)
        mean /= hi - lo
        rows = curves[lo:hi]
        np.subtract(group, mean, out=rows)
        rows *= sqrt_w
    return means, curves


def _require_sizes(sizes: tuple[int, ...], groups, minimum: int, reason: str) -> None:
    """``InsufficientReplicationError`` naming the first of ``groups`` whose
    size is below ``minimum``; ``reason`` says what needs that many curves."""
    for i in groups:
        if sizes[i] < minimum:
            raise InsufficientReplicationError(
                f"group {i + 1} has n={sizes[i]} observations; {reason} n >= {minimum}"
            )


def _integrated_covs(curves: np.ndarray, starts: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Integrated covariances, shape (len(n), p, p), from ``_centered_weighted``
    curves: group g holds the n[g] >= 2 curves from ``starts[g]`` on."""
    outer = np.matmul(curves, curves.transpose(0, 2, 1))
    sigmas = np.add.reduceat(outer, starts, axis=0)
    sigmas /= (n - 1)[:, None, None]
    return (sigmas + sigmas.transpose(0, 2, 1)) / 2.0


def sigma_hat(ds: FunctionalDataset, i: int, w: QuadWeights) -> np.ndarray:
    """Integrated covariance of group ``i``: a symmetric PSD p x p matrix.

    Requires at least two observations in the group.
    """
    _require_sizes(ds.n, (i,), *_COVARIANCE_N)
    _, curves = _centered_weighted([ds.group_values(i)], _sqrt_weights(w, ds.m))
    return _integrated_covs(curves, [0], np.array([ds.n[i]], dtype=np.float64))[0]


def _pooled(sigmas: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The symmetrized sum_i weights_i sigma_i of a (k, p, p) stack; the
    pooled matrix has weights h_ii / n_i."""
    k, p, _ = sigmas.shape
    pooled = (weights @ sigmas.reshape(k, p * p)).reshape(p, p)
    return (pooled + pooled.T) / 2.0


def _omega(omega: np.ndarray) -> OmegaHat:
    """The pooled matrix with its equilibrated inverse square root;
    ``SingularOmegaError`` when it is numerically singular."""
    try:
        inv_sqrt = _equilibrated_inv_sqrt(omega, PD_REL_TOL)
    except NotPositiveDefiniteError as exc:
        raise SingularOmegaError(
            "pooled covariance matrix is numerically singular; collect more "
            "observations or reduce the number of components"
        ) from exc
    return OmegaHat(omega=omega, inv_sqrt=inv_sqrt)


def omega_hat(sigmas, h_diag, n) -> OmegaHat:
    """Pooled matrix ``sum_i h_ii sigma_i / n_i`` and its inverse square root.

    Groups the contrast does not touch have a zero diagonal weight and
    simply contribute nothing.
    """
    h_diag = np.asarray(h_diag, dtype=np.float64)
    n = np.asarray(n)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if not (len(sigmas) == h_diag.size == n.size):
        raise ValidationError("sigmas, h_diag, and n must have the same length")
    if np.any(h_diag < 0) or not np.any(h_diag > 0):
        raise ValidationError("diagonal hypothesis weights must be nonnegative, some positive")
    return _omega(_pooled(sigmas, h_diag / n))


def e_matrix(sigmas, hn: np.ndarray, n) -> np.ndarray:
    """Error variation matrix: sum_i h_ii sigma_i / n_i (equals the pooled matrix)."""
    h_diag = np.diag(np.asarray(hn, dtype=np.float64))
    return _pooled(np.asarray(sigmas, dtype=np.float64), h_diag / np.asarray(n, dtype=np.float64))


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
    h_touched: np.ndarray  # H restricted to the touched groups


def _design(spec: ContrastSpec, sizes: tuple[int, ...], w: QuadWeights, p: int, m: int,
            min_n: tuple[int, str]) -> _Design:
    """The design of a test of ``spec`` on groups of ``sizes`` curves with p
    components on m grid points, integrated with ``w``; checks that C has one
    column per group, that ``w`` and C0 fit the curves and that every group
    has at least the curves ``min_n`` asks for: ``_COVARIANCE_N`` for the
    variation matrices alone, ``_USTAT_N`` wherever the degrees of freedom
    are estimated."""
    if spec.k != len(sizes):
        raise ValidationError(f"contrast has {spec.k} columns but dataset has {len(sizes)} groups")
    sqrt_w = _sqrt_weights(w, m)
    f, g = _contrast_roots(spec.c, sizes)  # the one factorization that H and B share
    hn = f.T @ f
    offset = _c0_offset(g, spec.c0, p, m)
    _require_sizes(sizes, range(len(sizes)), *min_n)
    touched = np.flatnonzero(np.any(spec.c != 0, axis=0))
    n = np.array([sizes[i] for i in touched], dtype=np.float64)
    h_t = hn[np.ix_(touched, touched)]
    bounds = np.cumsum([0, *n.astype(np.intp)])
    return _Design(
        sizes=tuple(sizes),
        p=p,
        m=m,
        sqrt_w=sqrt_w,
        hn=hn,
        touched=touched,
        n=n,
        b_factor=f[:, touched],
        b_offset=offset,
        starts=bounds[:-1],
        curves=tuple(slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])),
        omega_weights=np.diag(h_t) / n,
        h_touched=h_t,
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
        raise ValidationError("values too large for the quadrature weights: "
                              "their weighted squares overflow float64")
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
    design = _design(spec, ds.n, w, ds.p, ds.m, _COVARIANCE_N)
    bn, omega, curves = _prepare(design, [ds.group_values(i) for i in design.touched])
    # E equals the pooled matrix term for term, so it is not summed a second time.
    return GlhtMatrices(hn=design.hn, bn=bn, en=omega.omega, omega=omega, standardized=curves,
                        touched=tuple(design.touched.tolist()))
