"""Reference implementations the library's fast paths are tested against.

Each evaluates a quantity as its definition reads, with no algebraic
rewrite, at a cost that only small inputs can afford:

- ``ustat_within_naive`` enumerates every distinct index tuple of the
  within-group U-statistics and forms the kurtosis functional from the
  centered curves' self-kernels;
- ``dense_trace_integrals`` integrates dense covariance kernels of shape
  (p, p, m, m) by quadrature, the oracle for ``separable_trace_integrals``.

It also holds helpers that only the tests call: ``inv_sqrt_spd``, the
library's one symmetric root of a symmetrized matrix; ``basis_functions``,
the common-direction basis with closed-form trace functionals; and
``sample_curves``, the component-model sampler on any means, variance
components and basis.
"""

from itertools import permutations

import numpy as np

from mfdglht import FunctionalDataset, WithinGroupUStats, make_uniform_grid
from mfdglht.glht import _spd_inv_sqrt
from mfdglht.simulate import _component_sampler, component_weights, scalar_basis


def inv_sqrt_spd(a) -> np.ndarray:
    """Symmetric inverse square root of the symmetric part of ``a``, by the
    routine ``run_glht`` factors with; raises ``NotPositiveDefiniteError``."""
    return _spd_inv_sqrt((a + a.T) / 2.0)


def basis_functions(p: int, q: int, grid) -> np.ndarray:
    """Common-direction orthonormal vector basis curves, shape (q, p, m).

    The r-th curve is the scalar basis curve psi_r stacked onto the fixed
    direction (c_1, ..., c_p). Covariances built on it put all variation
    along one p-vector, so their trace functionals have closed forms; a
    sample drawn from them has a singular pooled covariance when p > 1.
    """
    return component_weights(p)[None, :, None] * scalar_basis(q, grid)[:, None, :]


def sample_curves(means, lambdas, basis, n, model: int, rng) -> FunctionalDataset:
    """One dataset from the component model on [0, 1]: group i's curves are
    ``means[i] + (eps * sqrt(lambdas[i])) @ basis`` with ``eps`` its (n_i, q)
    innovations, drawn group by group from ``rng``.

    ``means`` is (k, p, m), ``lambdas`` (k, q) and ``basis`` (q, p, m).
    """
    means = np.asarray(means, dtype=np.float64)
    lambdas = np.atleast_2d(np.asarray(lambdas, dtype=np.float64))
    basis = np.asarray(basis, dtype=np.float64)
    n = tuple(int(v) for v in n)
    grid = make_uniform_grid(means.shape[2], 0.0, 1.0)
    return _component_sampler(grid, means, lambdas, basis, n, model)(rng)


def ustat_within_naive(ds, i, omega, w) -> WithinGroupUStats:
    """Within-group functionals of group ``i`` (n >= 4) by distinct-tuple enumeration.

    Quadratic-integral tables are precomputed per index pair; the 2-, 3-,
    and 4-index sums then run over explicit tuples of distinct indices.
    The kurtosis functional is the summed squared self-kernel of the
    centered standardized curves over n - 1, minus the other three.
    """
    n_i = ds.n[i]
    z = np.einsum("pq,jqt->jpt", omega.inv_sqrt, ds.group_values(i))
    wv = w.weights
    delta = np.einsum("apt,bps->abts", z, z)
    # ja[a,b,c,d] integrates delta_ab(t,s) * delta_cd(t,s);
    # jb[a,b,c,d] integrates delta_ab(s,t) * delta_cd(t,s).
    ja = np.einsum("abts,cdts,t,s->abcd", delta, delta, wv, wv)
    jb = np.einsum("abst,cdts,s,t->abcd", delta, delta, wv, wv)
    pairs = np.array(list(permutations(range(n_i), 2)))
    triples = np.array(list(permutations(range(n_i), 3)))
    quads = np.array(list(permutations(range(n_i), 4)))
    d2 = n_i * (n_i - 1)
    d3 = d2 * (n_i - 2)
    d4 = d3 * (n_i - 3)
    a, b = pairs[:, 0], pairs[:, 1]
    a3, b3, c3 = triples[:, 0], triples[:, 1], triples[:, 2]
    a4, b4, c4, d4i = quads[:, 0], quads[:, 1], quads[:, 2], quads[:, 3]
    i_hat = (
        ja[a, a, b, b].sum() / d2
        - 2 * ja[a3, a3, b3, c3].sum() / d3
        + ja[a4, b4, c4, d4i].sum() / d4
    )
    t_hat = (
        ja[a, b, b, a].sum() / d2
        - 2 * ja[a3, b3, c3, a3].sum() / d3
        + ja[b4, c4, d4i, a4].sum() / d4
    )
    tr2_hat = (
        jb[a, b, b, a].sum() / d2
        - 2 * jb[a3, b3, c3, a3].sum() / d3
        + jb[b4, c4, d4i, a4].sum() / d4
    )
    centered = z - z.mean(axis=0)
    self_kernels = np.einsum("jpt,jps->jts", centered, centered)
    first = np.einsum("jts,jts,t,s->", self_kernels, self_kernels, wv, wv) / (n_i - 1)
    k4 = first - tr2_hat - i_hat - t_hat
    return WithinGroupUStats(float(i_hat), float(t_hat), float(tr2_hat), float(k4))


def dense_trace_integrals(gammas, w, inv_sqrt=None):
    """Trace functionals of dense kernels, one (p, p, m, m) array per group.

    Returns (i_mat, t_mat, tr_sigma2, sigma) in the layout of
    ``separable_trace_integrals``; with ``inv_sqrt`` given the kernels are
    standardized first.
    """
    kernels = [np.asarray(g, dtype=np.float64) for g in gammas]
    if inv_sqrt is not None:
        kernels = [np.einsum("ha,abst,lb->hlst", inv_sqrt, g, inv_sqrt) for g in kernels]
    wv = w.weights
    k = len(kernels)
    traces = [np.einsum("hhst->st", g) for g in kernels]
    sigma = np.stack([np.einsum("hltt,t->hl", g, wv) for g in kernels])
    i_mat = np.empty((k, k))
    t_mat = np.empty((k, k))
    for i1 in range(k):
        for i2 in range(i1, k):
            i_mat[i1, i2] = i_mat[i2, i1] = np.einsum(
                "st,st,s,t->", traces[i1], traces[i2], wv, wv
            )
            t_mat[i1, i2] = t_mat[i2, i1] = np.einsum(
                "hlst,lhst,s,t->", kernels[i1], kernels[i2], wv, wv
            )
    tr_sigma2 = np.einsum("ipq,iqp->i", sigma, sigma)
    return i_mat, t_mat, tr_sigma2, sigma
