"""Degrees-of-freedom estimation for the hypothesis and error matrices.

The two variation matrices are approximated by Wishart laws whose degrees
of freedom are chosen to match total variation. Estimating those degrees
of freedom needs four trace-type functionals per group, built from
U-statistics over distinct observation tuples so that unknown group means
drop out exactly.

Every double time integral these functionals need is a weighted sum of
products of two separable kernels, so it factors exactly through the
weighted single-time Gram matrix of the standardized curves: with rows
indexed by (observation, component),

    K[(a, h), (c, l)] = integral of z_a(t)[h] z_c(t)[l] dt,

each functional becomes a small contraction of p x p blocks of K. Once a
block of K exists nothing touches the time grid again: the whole cost in m
is one matrix product per block, and the other kernels take a block and
never see curves. A group whose column of the contrast is zero has h_ii = 0
and h_ij = 0, so its functionals enter neither denominator, and the
preparation pass (``glht._prepare``) reads only the other groups' curves:
each group centered by its own mean, scaled by sqrt(w) and transformed by
the pooled inverse square root. ``_dof``, the degrees-of-freedom step of
the per-dataset pass, forms the upper triangle of their Gram block by
block, at the rows of the test's design (``glht._design``): z_g z_g^T for
each touched group g (numpy's symmetric rank-m update, which returns the
full block) and z_a z_b^T for each touched pair a < b, each formed once and
read once, with weights from H on the touched groups. The design deals the
blocks into one list or, for a large Gram in a process with BLAS pinned to
one thread and two CPUs, two lists of about equal flops
(``glht._gram_blocks``). The caller runs the first list and one helper
thread, started for the call and joined before it returns, the second:
the products run in BLAS, which releases the interpreter lock, and each
block writes only its own entries of the preallocated results, so two
lists give the same bytes as one. The within-group
U-statistics use an inclusion-exclusion rewrite in terms of complete-sum
aggregates, never touching 3- or 4-tuples. The distinct-tuple
U-statistics are invariant to a common shift, so centering changes no
exact value. It removes the cancellation that a large offset
of the curves would otherwise cause. Centered curves also sum to zero over
a group's observations at every time point, so every aggregate that
contains a row sum of a block is exactly zero: five of the rewrite's nine
aggregates vanish, and only the other four are formed.
``ustat_within_fast`` (all four functionals of one group) and
``cross_terms`` (one pair) run the same reductions under any pooled
matrix. The oracles these reductions are tested against, distinct-tuple
enumeration and dense-kernel quadrature, live in the test suite.

Each formula after the Gram is written once, as array code over groups:
``_within_functionals`` turns every group's aggregates into its four
functionals, and ``_denominator_terms`` forms the per-group B and E
brackets and the between-group B sum of the degrees-of-freedom
denominators. ``_dof`` clamps the brackets at zero, and ``dof_estimates``
(design, preparation and ``_dof``) spreads its result over all k groups;
``true_dof`` evaluates the same terms from known separable covariance
structures, unclamped, as the ground truth for simulation tests; their
functionals are contractions of one Gram of the basis curves.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import FunctionalDataset, QuadWeights, _sqrt_weights
from .errors import DegenerateDofError, ValidationError
from .glht import (
    _COVARIANCE_N,
    _USTAT_N,
    ContrastSpec,
    GlhtMatrices,
    OmegaHat,
    _centered_weighted,
    _Design,
    _design,
    _prepare,
    _require_sizes,
    omega_hat,
)

__all__ = [
    "WithinGroupUStats",
    "DofEstimate",
    "SeparableCovariances",
    "TrueDof",
    "ustat_within_fast",
    "k4_hat",
    "cross_terms",
    "dof_estimates",
    "separable_trace_integrals",
    "true_dof",
]


@dataclass(frozen=True)
class WithinGroupUStats:
    """Within-group trace functionals of one standardized sample."""

    i_hat: float
    t_hat: float
    tr_sigma2_hat: float
    k4_hat: float


@dataclass(frozen=True)
class DofEstimate:
    """Estimated degrees of freedom plus every intermediate statistic.

    The per-group fields have one entry per group of the dataset, but only
    the groups the hypothesis weighs (a nonzero column of C) are computed.
    For any other group i, ``within[i]`` holds NaN, as do row and column i
    of ``i_cross`` and ``t_cross``, and its clamp flags are False.
    """

    d_b: float
    d_e: float
    within: tuple[WithinGroupUStats, ...]
    i_cross: np.ndarray
    t_cross: np.ndarray
    clamped_b: tuple[bool, ...]
    clamped_e: tuple[bool, ...]

    @property
    def any_clamped(self) -> bool:
        return any(self.clamped_b) or any(self.clamped_e)


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
    x = block.reshape(n1, p, n2, p)
    return float(np.vdot(x, x)), float(np.vdot(x, x.transpose(0, 3, 2, 1)))


def _standardized_rows(ds: FunctionalDataset, groups, omega: OmegaHat, w: QuadWeights):
    """The prepared curves of ``groups`` under ``omega``, one (n_i p, m) array per group."""
    _, curves = _centered_weighted([ds.group_values(i) for i in groups], _sqrt_weights(w, ds.m))
    z = (omega.inv_sqrt @ curves).reshape(-1, ds.m)
    return np.split(z, np.cumsum([ds.n[i] * ds.p for i in groups[:-1]]))


def _within_functionals(scalars: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Rows i_hat, t_hat, tr_sigma2_hat and k4_hat, one column per group,
    from the (k, 4) aggregate integrals of centered curves and the group sizes.

    The first three are the inclusion-exclusion over distinct index tuples
    with the five aggregates that centering makes zero left out (see
    ``within_group_scalars``). The kurtosis functional's first
    term, the summed squared self-kernel integral, is the aggregate <E2>.
    """
    i_d2, i_e2, i_f2, i_f2x = scalars.T
    d2 = n * (n - 1)
    d3 = d2 * (n - 2)
    d4 = d3 * (n - 3)
    # Each functional's 2- and 3-index sums read its own complete sum; the
    # 4-distinct-index expansion is shared, because relabeling distinct
    # tuples is a bijection.
    own = np.array([i_d2, i_f2x, i_f2])
    t4 = i_d2 + i_f2 + i_f2x - 6 * i_e2
    i_hat, t_hat, tr2_hat = (own - i_e2) / d2 + 2 * (own - 2 * i_e2) / d3 + t4 / d4
    k4 = i_e2 / (n - 1) - tr2_hat - i_hat - t_hat
    return np.array([i_hat, t_hat, tr2_hat, k4])


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


def _denominator_terms(off: np.ndarray, n: np.ndarray, k4: np.ndarray, it: np.ndarray):
    """The pieces of both degrees-of-freedom denominators.

    ``it`` is the k x k matrix of I + T functionals: within-group on the
    diagonal, between-group off it; ``off`` holds the between-group weights
    (``_off_diagonal_weights``). Returns the per-group B and E brackets
    as the rows of a (2, k) array, and the summed off-diagonal B terms.
    Each denominator is sum_i hn_ii^2 bracket_i, plus the off-diagonal sum
    for B; each bracket estimates a variance, which the estimator clamps at
    zero and the true-parameter formula does not.
    """
    it_diag = it.diagonal()
    kurt = k4 / n**3
    brackets = np.array([kurt + it_diag / n**2, kurt + it_diag / (n**2 * (n - 1))])
    return brackets, float(np.vdot(off, it))


class _Dof(NamedTuple):
    """One dataset's degrees of freedom and the touched groups' functionals:
    (4, t) within rows, t x t I and T cross matrices, (2, t) brackets."""

    d_b: float
    d_e: float
    functionals: np.ndarray
    i_cross: np.ndarray
    t_cross: np.ndarray
    brackets: np.ndarray


def _dof(design: _Design, curves: np.ndarray) -> _Dof:
    """The degrees of freedom from the Gram blocks of the standardized curves
    of the touched groups; ``DegenerateDofError`` when a clamped denominator
    is not positive."""
    p, n, h = design.p, design.n, design.h_touched
    z = [curves[rows].reshape(-1, design.m) for rows in design.curves]
    scalars = np.empty((len(z), 4))
    cross = np.zeros((2, len(z), len(z)))

    def run(blocks):
        # Each block writes only its own entries, so the lists may run at once.
        for a, b in blocks:
            if a == b:
                scalars[a] = within_group_scalars(z[a] @ z[a].T, p)
            else:
                cross[:, a, b] = pair_trace_integrals(z[a] @ z[b].T, p)

    first, *rest = design.blocks
    helper, failed = None, []
    if rest:  # one more list (``glht._gram_blocks``), on one helper thread
        def work():
            try:
                run(rest[0])
            except BaseException as exc:  # re-raised by the caller
                failed.append(exc)

        helper = threading.Thread(target=work, name="mfdglht-gram")
        helper.start()
    try:
        run(first)
    finally:
        if helper is not None:
            helper.join()
    if failed:
        raise failed[0]
    functionals = _within_functionals(scalars, n)
    # The I and T matrices: between-group terms off the diagonal, within on it.
    cross *= _cross_scale(n)
    cross += cross.transpose(0, 2, 1)
    diag = np.arange(len(z))
    cross[:, diag, diag] = functionals[:2]
    i_cross, t_cross = cross

    brackets, off_sum = _denominator_terms(_off_diagonal_weights(h, n), n, functionals[3],
                                           i_cross + t_cross)
    db_denom, de_denom = np.maximum(brackets, 0.0) @ np.diag(h) ** 2 + (off_sum, 0.0)
    if db_denom <= 0 or de_denom <= 0:
        raise DegenerateDofError(
            "degrees-of-freedom denominator is nonpositive after clamping; "
            "the data carry no usable variation"
        )
    scale = p * (p + 1)
    return _Dof(float(scale / db_denom), float(scale / de_denom), functionals, i_cross,
                t_cross, brackets)


def _dof_estimate(design: _Design, dof: _Dof) -> DofEstimate:
    """``dof`` spread over all k groups; an untouched group's entries are never computed."""
    k = len(design.sizes)
    touched = design.touched
    within = np.full((4, k), np.nan)
    within[:, touched] = dof.functionals
    cross = np.full((2, k, k), np.nan)
    cross[:, touched[:, None], touched] = dof.i_cross, dof.t_cross
    clamped = np.zeros((2, k), dtype=bool)
    clamped[:, touched] = dof.brackets < 0
    clamped_b, clamped_e = (tuple(flags) for flags in clamped.tolist())
    return DofEstimate(
        d_b=dof.d_b,
        d_e=dof.d_e,
        within=tuple(WithinGroupUStats(*group) for group in within.T.tolist()),
        i_cross=cross[0],
        t_cross=cross[1],
        clamped_b=clamped_b,
        clamped_e=clamped_e,
    )


def ustat_within_fast(
    ds: FunctionalDataset,
    i: int,
    omega: OmegaHat,
    w: QuadWeights,
) -> WithinGroupUStats:
    """All four within-group functionals of group ``i``, standardized by ``omega``.

    The same block reductions and ``_within_functionals`` that
    ``dof_estimates`` runs over every group it reads, on this group's Gram alone.
    """
    _require_sizes(ds.n, (i,), *_USTAT_N)
    (zi,) = _standardized_rows(ds, (i,), omega, w)
    scalars = within_group_scalars(zi @ zi.T, ds.p)
    functionals = _within_functionals(scalars[None], np.array([ds.n[i]], dtype=np.float64))
    return WithinGroupUStats(*functionals[:, 0].tolist())


def k4_hat(
    ds: FunctionalDataset,
    i: int,
    omega: OmegaHat,
    w: QuadWeights,
    within: WithinGroupUStats,
) -> float:
    """Kurtosis functional estimate for group ``i``: ``ustat_within_fast``'s ``k4_hat``.

    ``within`` is accepted for the call's established signature and not
    read; the three functionals subtracted are recomputed from the same
    Gram block as the first term.
    """
    return ustat_within_fast(ds, i, omega, w).k4_hat


def cross_terms(
    ds: FunctionalDataset,
    i1: int,
    i2: int,
    omega: OmegaHat,
    w: QuadWeights,
) -> tuple[float, float]:
    """Between-group trace functionals (plug-in sample covariances).

    Works through centered-data Gram kernels; the pointwise covariance
    estimates are never materialized.
    """
    if i1 == i2:
        raise ValidationError("cross terms need two distinct groups; use the within path")
    _require_sizes(ds.n, (i1, i2), *_COVARIANCE_N)
    z1, z2 = _standardized_rows(ds, (i1, i2), omega, w)
    i_val, t_val = pair_trace_integrals(z1 @ z2.T, ds.p)
    scale = _cross_scale(np.array([ds.n[i1], ds.n[i2]], dtype=np.float64))[0, 1]
    return i_val * scale, t_val * scale


def dof_estimates(
    ds: FunctionalDataset,
    spec: ContrastSpec,
    w: QuadWeights,
    glht: GlhtMatrices | None = None,
) -> DofEstimate:
    """Estimated degrees of freedom for the hypothesis and error matrices.

    Every group and pair the hypothesis weighs reads its blocks of one Gram
    of the curves that ``build_glht`` standardized; a ``glht`` passed in
    must come from the same contrast (up to reparameterization) and group
    sizes. Every group must still have n >= 4. Each group's bracketed
    denominator contribution estimates a variance and is clamped at zero
    from below; clamping is reported per group in the result's diagnostics.
    """
    design = _design(spec, ds.n, w, ds.p, ds.m, _USTAT_N)
    if glht is None:
        curves = _prepare(design, [ds.group_values(i) for i in design.touched])[2]
    elif glht.hn.shape != design.hn.shape or not np.allclose(
        glht.hn, design.hn, rtol=1e-9, atol=1e-12
    ):
        # The weights come from spec and the curves from glht: they must agree.
        raise ValidationError("glht was built for another contrast or other group sizes")
    else:
        curves = glht.standardized
    return _dof_estimate(design, _dof(design, curves))


# ---------------------------------------------------------------------------
# True-parameter degrees of freedom
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparableCovariances:
    """Covariance structures of the form sum_r lambda_{ir} phi_r(s) phi_r(t)^T.

    ``lambdas`` has shape (k, q); ``basis`` holds the vector curves phi_r
    on the grid, shape (q, p, m), shared by all groups.
    """

    lambdas: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        lam = np.atleast_2d(np.asarray(self.lambdas, dtype=np.float64))
        basis = np.asarray(self.basis, dtype=np.float64)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "basis", basis)
        if basis.ndim != 3:
            raise ValidationError("basis must have shape (q, p, m)")
        if lam.shape[1] != basis.shape[0]:
            raise ValidationError("lambdas and basis disagree on the number of terms")
        if not np.all(np.isfinite(lam)):
            raise ValidationError("variance components must be finite")
        if np.any(lam < 0):
            raise ValidationError("variance components must be nonnegative")
        if not np.all(np.isfinite(basis)):
            raise ValidationError("basis values must be finite")


@dataclass(frozen=True)
class TrueDof:
    """True-parameter degrees of freedom with all intermediate functionals."""

    d_b: float
    d_e: float
    omega: np.ndarray
    i_star: np.ndarray
    t_star: np.ndarray
    tr_sigma2_star: np.ndarray
    sigma: np.ndarray


def separable_trace_integrals(
    lambdas: np.ndarray,
    basis: np.ndarray,
    w: QuadWeights,
):
    """Trace functionals of separable covariances by quadrature.

    Returns (i_mat, t_mat, tr_sigma2, sigma) where the first two are k x k,
    the third length k, and ``sigma`` stacks the integrated covariance
    matrices, shape (k, p, p). The standardized functionals are those of
    the basis ``S @ basis``, for S the pooled matrix's inverse square root.

    All four are contractions of one Gram of the basis (the module's Gram
    identity): with A[r,p,s,q] the integral of phi_rp phi_sq,
    L_rs = sum_pq A[r,p,s,q]^2 and K_rs = sum_pq A[r,p,s,q] A[r,q,s,p]
    give i_mat = lambda L lambda^T and t_mat = lambda K lambda^T.
    """
    cov = SeparableCovariances(lambdas, basis)
    lam, phi = cov.lambdas, cov.basis
    r, p, m = phi.shape
    flat = (phi * _sqrt_weights(w, m)).reshape(r * p, m)
    a = (flat @ flat.T).reshape(r, p, r, p)
    sigma = np.einsum("ir,rprq->ipq", lam, a)
    i_mat = lam @ np.einsum("rpsq,rpsq->rs", a, a) @ lam.T
    t_mat = lam @ np.einsum("rpsq,rqsp->rs", a, a) @ lam.T
    tr_sigma2 = np.einsum("ipq,iqp->i", sigma, sigma)
    return i_mat, t_mat, tr_sigma2, sigma


def true_dof(
    gammas,
    n,
    hn: np.ndarray,
    w: QuadWeights,
    kurtosis=None,
) -> TrueDof:
    """Degrees of freedom from known separable covariance structures.

    ``gammas`` is a ``SeparableCovariances``; any other input raises
    ``ValidationError``. ``kurtosis`` supplies the per-group standardized
    kurtosis functionals (zero for Gaussian processes, the default).
    """
    if not isinstance(gammas, SeparableCovariances):
        raise ValidationError("true_dof needs the covariances as a SeparableCovariances")
    n = np.asarray(n, dtype=np.float64)
    hn = np.asarray(hn, dtype=np.float64)
    k = n.size
    *_, sigma = separable_trace_integrals(gammas.lambdas, gammas.basis, w)
    p = sigma.shape[1]
    h_diag = np.diag(hn)
    omega = omega_hat(sigma, h_diag, n)  # SingularOmegaError if degenerate
    i_star, t_star, tr_sigma2_star, _ = separable_trace_integrals(
        gammas.lambdas, omega.inv_sqrt @ gammas.basis, w
    )
    k4 = np.zeros(k) if kurtosis is None else np.asarray(kurtosis, dtype=np.float64)
    if k4.size != k:
        raise ValidationError("kurtosis must supply one value per group")

    brackets, off_sum = _denominator_terms(_off_diagonal_weights(hn, n), n, k4, i_star + t_star)
    db_denom, de_denom = brackets @ h_diag**2 + (off_sum, 0.0)
    if db_denom <= 0 or de_denom <= 0:
        raise DegenerateDofError("true-parameter DoF denominator is nonpositive")
    return TrueDof(
        d_b=float(p * (p + 1) / db_denom),
        d_e=float(p * (p + 1) / de_denom),
        omega=omega.omega,
        i_star=i_star,
        t_star=t_star,
        tr_sigma2_star=tr_sigma2_star,
        sigma=sigma,
    )
