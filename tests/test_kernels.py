import time

import numpy as np
import pytest

from mfdglht.dataset import FunctionalDataset, GroupSample, make_uniform_grid, quad_weights
from mfdglht.dof import pair_trace_integrals, ustat_within_fast, within_group_scalars
from mfdglht.glht import OmegaHat


def brute_gram(z, w):
    """Full weighted Gram of curves z (n, p, m), shape (n p, n p), by einsum."""
    n, p, m = z.shape
    return np.einsum("apt,cqt,t->apcq", z, z, w).reshape(n * p, n * p)


@pytest.mark.parametrize("shape", [(4, 1, 3), (8, 3, 12), (15, 6, 20)])
def test_within_group_scalars_brute_force(shape):
    rng = np.random.default_rng(sum(shape))
    raw = rng.normal(loc=3.0, size=shape)
    z = raw - raw.mean(axis=0)
    w = rng.uniform(0.05, 1.0, size=shape[2])
    q = np.einsum("apt,cqt,t->apcq", z, z, w)
    q_diag = np.einsum("jpjq->jpq", q)
    row = np.einsum("jpcq->jpq", q)
    total = np.einsum("jpcq->pq", q)
    diag_sum = np.einsum("jpjq->pq", q)
    d2 = np.einsum("apcq,apcq->", q, q)
    kept = [
        d2,
        np.einsum("jpq,jpq->", q_diag, q_diag),
        np.einsum("pq,pq->", diag_sum, diag_sum),
        np.einsum("jpcq,jqcp->", q, q),
    ]
    got = within_group_scalars(brute_gram(z, w), shape[1])
    assert np.allclose(got, kept, rtol=1e-12, atol=1e-12)
    # Centered curves make the other five aggregates (<DU>, <U^2>, <V>, <W>,
    # <W12>) vanish; the shortened expansion in dof rests on this.
    dropped = [
        np.einsum("jpq,jpq->", row, row),
        np.einsum("pq,pq->", total, total),
        np.einsum("jpq,jpq->", q_diag, row),
        np.einsum("pq,pq->", diag_sum, total),
        np.einsum("jpq,jqp->", row, row),
    ]
    assert np.all(np.abs(dropped) < 1e-12 * d2)


def test_k4_first_term_brute_force():
    # The first term of k4 is the <E2> aggregate: the summed squared
    # self-block integrals of the centered curves.
    rng = np.random.default_rng(3)
    raw = rng.normal(loc=3.0, size=(9, 4, 11))
    c = raw - raw.mean(axis=0)
    w = rng.uniform(0.05, 1.0, size=11)
    expected = sum(
        float(np.sum(np.einsum("pt,qt,t->pq", cj, cj, w) ** 2)) for cj in c
    )
    got = within_group_scalars(brute_gram(c, w), 4)[1]
    assert got == pytest.approx(expected, rel=1e-12)


def test_pair_trace_integrals_brute_force_from_upper_block():
    rng = np.random.default_rng(4)
    c1 = rng.normal(size=(6, 3, 9))
    c2 = rng.normal(size=(8, 3, 9))
    w = rng.uniform(0.05, 1.0, size=9)
    x = np.einsum("ipt,jqt,t->ipjq", c1, c2, w)
    i_ref = float(np.einsum("ipjq,ipjq->", x, x))
    t_ref = float(np.einsum("ipjq,iqjp->", x, x))
    # The cross block as the dof path forms it: one product of the two
    # groups' weighted curves, an upper block of their Gram.
    z1, z2 = ((c * np.sqrt(w)).reshape(-1, 9) for c in (c1, c2))
    i_val, t_val = pair_trace_integrals(z1 @ z2.T, 3)
    assert i_val == pytest.approx(i_ref, rel=1e-12)
    assert t_val == pytest.approx(t_ref, rel=1e-12)


def test_fast_path_timing_contract():
    # One group at simulation scale must evaluate well under a second.
    rng = np.random.default_rng(4)
    n, p, m = 30, 6, 80
    grid = make_uniform_grid(m, 0.0, 1.0)
    ds = FunctionalDataset(grid, (GroupSample(rng.normal(size=(n, p, m))),))
    w = quad_weights(grid)
    eye = np.eye(p)
    omega = OmegaHat(eye, eye)
    ustat_within_fast(ds, 0, omega, w)  # warm-up call
    start = time.perf_counter()
    ustat_within_fast(ds, 0, omega, w)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
