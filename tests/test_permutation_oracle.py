"""Permutation-based validation of the F-approximation tests.

Scaled-down versions of the exchangeability oracles: small homoscedastic
Gaussian configurations keep the permutation loops affordable while still
exercising the full pipeline inside every relabeled replication.
"""

import numpy as np

from mfdglht import oneway_contrast, permutation_pvalue, run_glht
from mfdglht.simulate import component_stream_basis, component_stream_lambdas
from oracles import sample_curves

SMALL = dict(k=4, p=2, q=3, m=10, n=(6, 6, 6, 6), nus=(1.5, 1.5, 1.5, 1.5), rho=0.5)


def small_null_dataset(rep):
    grid_m, p, q = SMALL["m"], SMALL["p"], SMALL["q"]
    from mfdglht import make_uniform_grid

    grid = make_uniform_grid(grid_m, 0.0, 1.0)
    basis = component_stream_basis(p, q, grid)
    lam = component_stream_lambdas(SMALL["nus"], SMALL["rho"], q, p)
    means = np.zeros((SMALL["k"], p, grid_m))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([2024, 61, rep])))
    return sample_curves(means, lam, basis, SMALL["n"], 1, rng)


def test_permutation_pvalues_uniform_under_null():
    # Under exchangeability the permutation p-value is (sub-)uniform; the
    # empirical CDF over replications must stay near the diagonal. 250
    # replications give a 1% KS critical value of about 0.102.
    spec = oneway_contrast(4)
    reps = 250
    pvals = np.empty(reps)
    for r in range(reps):
        ds = small_null_dataset(r)
        pvals[r] = permutation_pvalue(ds, spec, "mfp", b=99, seed=r)
    grid_points = np.arange(1, 100) / 100.0
    ecdf = np.array([(pvals <= g).mean() for g in grid_points])
    ks = float(np.max(np.abs(ecdf - grid_points)))
    assert ks < 0.102, f"KS distance {ks:.3f}"


def test_permutation_and_f_approximation_concord():
    # Homoscedastic Gaussian null: the two routes must reach the same
    # 5%-level decision in at least 90% of replications.
    spec = oneway_contrast(4)
    reps = 120
    agree = 0
    for r in range(reps):
        ds = small_null_dataset(10_000 + r)
        report = run_glht(ds, spec, alpha=0.05)
        p_perm = permutation_pvalue(ds, spec, "mfp", b=99, seed=r)
        agree += (report.p_values["mfp"] < 0.05) == (p_perm < 0.05)
    assert agree / reps >= 0.9, f"concordance {agree / reps:.2f}"
