"""Sample moments: group means, integrated covariances, and the pooled matrix.

Each group's curves are prepared once (``_centered_weighted``): centered by
the group mean and scaled by the square roots of the quadrature weights.
An integrated covariance is a p x p reduction of those curves, so the full
covariance kernel is never formed. The pooled matrix combines the per-group
integrated covariances with the diagonal of the hypothesis weighting
matrix. Its inverse square root, taken with the matrix scaled to unit
diagonal so that no unit of a component decides singularity, standardizes
the prepared curves. ``_spd_inv_sqrt`` is the one routine that factors a
positive-definite matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import FunctionalDataset
from .errors import (
    InsufficientReplicationError,
    NotPositiveDefiniteError,
    SingularOmegaError,
    ValidationError,
)
from .grid import QuadWeights

__all__ = [
    "MeanFunctions",
    "OmegaHat",
    "group_means",
    "sigma_hat",
    "omega_hat",
    "inv_sqrt_spd",
]

PD_REL_TOL = 1e-10


@dataclass(frozen=True)
class MeanFunctions:
    """Per-group mean curves, shape (k, p, m); row i is the i-th group mean."""

    means: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.means, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "means", arr)
        if arr.ndim != 3:
            raise ValidationError("means must have shape (k, p, m)")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("mean functions must be finite")


@dataclass(frozen=True)
class OmegaHat:
    """Pooled SPD matrix Omega and an inverse square root S with S Omega S^T = I
    (so S^T S = Omega^{-1}); S is not symmetric in general."""

    omega: np.ndarray
    inv_sqrt: np.ndarray


def group_means(ds: FunctionalDataset) -> MeanFunctions:
    """Average curves within each group."""
    return MeanFunctions(np.stack([g.values.mean(axis=0) for g in ds.groups]))


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


def _require_covariance(sizes: tuple[int, ...], groups) -> None:
    for i in groups:
        if sizes[i] < 2:
            raise InsufficientReplicationError(
                f"group {i + 1} needs n >= 2 observations for a covariance, has {sizes[i]}"
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
    _require_covariance(ds.n, (i,))
    _, curves = _centered_weighted([ds.group_values(i)], np.sqrt(w.weights))
    return _integrated_covs(curves, [0], np.array([ds.n[i]], dtype=np.float64))[0]


def _spd_inv_sqrt(sym: np.ndarray, rel_tol: float = PD_REL_TOL) -> np.ndarray:
    """``inv_sqrt_spd`` of a matrix already known to be square and symmetric."""
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
    positive; the eigenvalue test sees the scaled matrix."""
    diag = sym.diagonal()
    if not (diag > 0).all():  # NaN included
        raise NotPositiveDefiniteError("matrix has a diagonal entry that is not positive")
    scale = 1.0 / np.sqrt(diag)
    return _spd_inv_sqrt(sym * (scale[:, None] * scale), rel_tol) * scale


def inv_sqrt_spd(a: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of an SPD matrix via eigendecomposition.

    Raises ``NotPositiveDefiniteError`` when any eigenvalue falls at or
    below ``PD_REL_TOL`` times the largest one.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("expected a square matrix")
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale > 0 and np.max(np.abs(a - a.T)) > 1e-10 * scale:
        raise ValidationError("matrix is not symmetric")
    return _spd_inv_sqrt((a + a.T) / 2.0)


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
