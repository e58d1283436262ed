"""Block kernels over one time-integrated Gram matrix.

Every double time integral the degrees-of-freedom machinery needs is a
weighted sum of products of two separable kernels, so it factors exactly
through the weighted single-time Gram matrix of the standardized curves:
with rows indexed by (observation, component),

    K[(a, h), (c, l)] = integral of z_a(t)[h] z_c(t)[l] dt,

each functional becomes a small contraction of p x p blocks of K. Once K
exists nothing touches the time grid again, so the whole cost in m is one
symmetric rank-m update (``gram_upper``) of the curves scaled by the
square roots of the quadrature weights: one Gram of the curves the
hypothesis weighs, since a group with a zero column in the contrast adds
nothing to any functional the test uses. The other kernels take a block
of K and never see curves. The true functionals of separable covariances
(``dof.separable_trace_integrals``) are contractions of the basis' Gram.

The within-group kernel needs each group's curves centered by the group's
mean. They then sum to zero over observations at every time point, so
every aggregate that contains a row sum of a block is exactly zero, and
those aggregates are not formed.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas

__all__ = [
    "gram_upper",
    "symmetric_block",
    "within_group_scalars",
    "pair_trace_integrals",
]


def gram_upper(a: np.ndarray) -> np.ndarray:
    """Upper triangle of ``a @ a.T`` for a C-ordered ``a`` of shape (r, m), by one BLAS ``dsyrk``.

    Entries below the diagonal are not computed and stay zero: read
    off-diagonal blocks from the upper side and pass diagonal blocks through
    ``symmetric_block``.
    """
    # a.T is Fortran-ordered, so BLAS reads it in place; trans=1 gives a @ a.T.
    # dsyrk writes only the upper triangle of c, so the zeros below it remain.
    c = np.zeros((a.shape[0], a.shape[0]), order="F")
    return blas.dsyrk(1.0, a.T, c=c, trans=1, lower=0, overwrite_c=1)


def symmetric_block(gram: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Full symmetric diagonal block ``gram[lo:hi, lo:hi]`` of a ``gram_upper`` result."""
    upper = gram[lo:hi, lo:hi]
    block = upper + upper.T
    np.fill_diagonal(block, upper.diagonal())
    return block


def within_group_scalars(block: np.ndarray, p: int) -> np.ndarray:
    """The four nonzero aggregate double integrals of one group from its
    symmetric Gram block; the group's curves must be centered by its mean.

    Writing delta_ab(t, s) = z_a(t) . z_b(s) and angle brackets for the
    weighted double integral over (t, s), the entries are the complete
    sums <D^2>, <E2>, <F2>, <F2X> of the pointwise kernels

      D   = sum_j delta_jj            E2  = sum_j delta_jj^2
      F2  = sum_{a,b} delta_ab^2      F2X = sum_{a,b} delta_ab delta_ba

    with ``block`` the (n p, n p) Gram of the group's n curves. <E2> is
    also the sum over j of the squared self-kernel integral, the first term
    of the kurtosis functional.

    Centered curves sum to zero at every t, so every row sum of the
    block's p x p sub-blocks, and their total, is zero. The five other
    aggregates of the inclusion-exclusion expansion, <D U>, <U^2>, <V>,
    <W> and <W12> with U = sum_{a,b} delta_ab, V = sum_{j,c} delta_jj
    delta_jc, W = sum_{j,c,d} delta_jc delta_jd and W12 = sum_{j,c,d}
    delta_jc delta_dj, each contain such a sum and vanish.
    """
    n = block.shape[0] // p
    q = block.reshape(n, p, n, p)
    q_diag = np.einsum("jpjq->jpq", q)
    diag_sum = q_diag.sum(axis=0)
    return np.array(
        [
            np.vdot(block, block),
            np.vdot(q_diag, q_diag),
            np.vdot(diag_sum, diag_sum),
            np.vdot(q, q.transpose(0, 3, 2, 1)),
        ]
    )


def pair_trace_integrals(block: np.ndarray, p: int) -> tuple[float, float]:
    """Unnormalized between-group trace integrals from a cross Gram block.

    With X[j, j'] the (j, j') p x p block of ``block`` (shape (n1 p, n2 p)),
    the two returned values are sum_{j,j'} ||X[j,j']||_F^2 and
    sum_{j,j'} tr(X[j,j'] X[j,j'])."""
    n1, n2 = block.shape[0] // p, block.shape[1] // p
    x = np.ascontiguousarray(block).reshape(n1, p, n2, p)
    return float(np.vdot(x, x)), float(np.vdot(x, x.transpose(0, 3, 2, 1)))
