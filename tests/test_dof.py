import sys
import threading
import warnings
from dataclasses import astuple
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfdglht.dof as dof_module
import mfdglht.glht as glht_module
from mfdglht import (
    FunctionalDataset,
    Grid,
    GroupSample,
    InsufficientReplicationError,
    MfdGlhtError,
    SeparableCovariances,
    SimConfig,
    ValidationError,
    build_glht,
    cross_terms,
    dof_estimates,
    gen_sample,
    k4_hat,
    make_uniform_grid,
    oneway_contrast,
    quad_weights,
    run_glht,
    separable_trace_integrals,
    sigma_hat,
    true_dof,
    ustat_within_fast,
)
from mfdglht.glht import ContrastSpec, OmegaHat, hn_matrix
from mfdglht.simulate import (
    component_stream_basis,
    component_weights,
    lambda_grid,
    scalar_basis,
)
from oracles import (
    basis_functions,
    dense_trace_integrals,
    inv_sqrt_spd,
    sample_curves,
    ustat_within_naive,
)


def dataset_from(groups, m):
    grid = make_uniform_grid(m, 0.0, 1.0)
    return FunctionalDataset(grid, tuple(GroupSample(g) for g in groups))


def identity_omega(p):
    eye = np.eye(p)
    return OmegaHat(omega=eye, inv_sqrt=eye)


def random_omega(rng, p):
    a = rng.normal(size=(p, p))
    omega = a @ a.T + p * np.eye(p)
    inv_sqrt = inv_sqrt_spd(omega)
    return OmegaHat(omega=omega, inv_sqrt=inv_sqrt)


def test_within_zero_curves_all_zero():
    ds = dataset_from([np.zeros((5, 2, 4))], m=4)
    w = quad_weights(ds.grid)
    for stats in (
        ustat_within_naive(ds, 0, identity_omega(2), w),
        ustat_within_fast(ds, 0, identity_omega(2), w),
    ):
        assert stats.i_hat == 0.0
        assert stats.t_hat == 0.0
        assert stats.tr_sigma2_hat == 0.0


def test_within_hand_computed_tiny_case():
    # n=4, p=1, M=2 uniform grid on [0, 1], identity standardization. With
    # w = (1/2, 1/2) the pair integrals reduce to averages of products of
    # the curve values; the frozen value below was computed once with an
    # independent spreadsheet-style enumeration of the defining sums.
    values = np.array([[[1.0, 2.0]], [[0.0, 1.0]], [[-1.0, 1.0]], [[2.0, 0.0]]])
    ds = dataset_from([values], m=2)
    w = quad_weights(ds.grid)
    stats = ustat_within_naive(ds, 0, identity_omega(1), w)
    z = values[:, 0, :]
    wv = w.weights
    q = (z * wv) @ z.T
    from itertools import permutations

    def ja(a, b, c, d):
        return q[a, c] * q[b, d]

    def jb(a, b, c, d):
        return q[a, d] * q[b, c]

    n = 4
    d2, d3, d4 = 12.0, 24.0, 24.0
    i_ref = (
        sum(ja(a, a, b, b) for a, b in permutations(range(n), 2)) / d2
        - 2 * sum(ja(a, a, b, c) for a, b, c in permutations(range(n), 3)) / d3
        + sum(ja(a, b, c, d) for a, b, c, d in permutations(range(n), 4)) / d4
    )
    t_ref = (
        sum(ja(a, b, b, a) for a, b in permutations(range(n), 2)) / d2
        - 2 * sum(ja(a, b, c, a) for a, b, c in permutations(range(n), 3)) / d3
        + sum(ja(b, c, d, a) for a, b, c, d in permutations(range(n), 4)) / d4
    )
    s_ref = (
        sum(jb(a, b, b, a) for a, b in permutations(range(n), 2)) / d2
        - 2 * sum(jb(a, b, c, a) for a, b, c in permutations(range(n), 3)) / d3
        + sum(jb(b, c, d, a) for a, b, c, d in permutations(range(n), 4)) / d4
    )
    assert stats.i_hat == pytest.approx(i_ref, rel=1e-12)
    assert stats.t_hat == pytest.approx(t_ref, rel=1e-12)
    assert stats.tr_sigma2_hat == pytest.approx(s_ref, rel=1e-12)
    # For p=1 the first two defining sums coincide term by term (the third
    # integrates a different kernel and stays distinct).
    assert stats.i_hat == pytest.approx(stats.t_hat, rel=1e-12)


def test_fast_equals_naive_random_instances():
    rng = np.random.default_rng(20240501)
    for _ in range(25):
        n = int(rng.integers(4, 9))
        p = int(rng.integers(1, 4))
        m = int(rng.integers(2, 13))
        ds = dataset_from([rng.normal(size=(n, p, m))], m=m)
        w = quad_weights(ds.grid)
        omega = random_omega(rng, p)
        a = ustat_within_naive(ds, 0, omega, w)
        b = ustat_within_fast(ds, 0, omega, w)
        for name in ("i_hat", "t_hat", "tr_sigma2_hat", "k4_hat"):
            x, y = getattr(a, name), getattr(b, name)
            assert abs(x - y) <= 1e-9 * max(1.0, abs(x))


def test_within_scale_invariance_through_omega():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(6, 2, 5))
    ds = dataset_from([values], m=5)
    ds_scaled = dataset_from([2.5 * values], m=5)
    w = quad_weights(ds.grid)
    spec = ContrastSpec(np.array([[1.0]]))
    omega = build_glht(ds, spec, w).omega
    omega_scaled = build_glht(ds_scaled, spec, w).omega
    a = ustat_within_fast(ds, 0, omega, w)
    b = ustat_within_fast(ds_scaled, 0, omega_scaled, w)
    for name in ("i_hat", "t_hat", "tr_sigma2_hat"):
        assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-10)


def test_within_location_invariance():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(7, 2, 6))
    shift = rng.normal(size=(2, 6))
    ds = dataset_from([values], m=6)
    ds_shifted = dataset_from([values + shift[None]], m=6)
    w = quad_weights(ds.grid)
    omega = random_omega(rng, 2)
    a = ustat_within_fast(ds, 0, omega, w)
    b = ustat_within_fast(ds_shifted, 0, omega, w)
    for name in ("i_hat", "t_hat", "tr_sigma2_hat"):
        x, y = getattr(a, name), getattr(b, name)
        assert abs(x - y) <= 1e-8 * max(1.0, abs(x))


def test_run_glht_invariant_to_large_location_shifts():
    # A common offset s moves no exact quantity of the test. Up to 1e6 the
    # computed ones must stay within 1e-8 of the unshifted run. At 1e9 the
    # shifted input itself is rounded at ulp(1e9) ~ 1.2e-7 of the N(0, 1)
    # noise, so no algorithm can reach 1e-8 there; the test must still run
    # and agree to that rounding.
    rng = np.random.default_rng(2027)
    p, m = 3, 40
    groups = [rng.normal(size=(n, p, m)) for n in (8, 10, 12)]
    spec = oneway_contrast(3)

    def summary(shift):
        report = run_glht(dataset_from([g + shift for g in groups], m=m), spec)
        return [report.dof.d_b, report.dof.d_e] + [
            report.p_values[name] for name in ("mfw", "mflh", "mfp")
        ]

    base = summary(0.0)
    for shift, rtol in ((1e3, 1e-8), (1e6, 1e-8), (1e9, 1e-5)):
        assert summary(shift) == pytest.approx(base, rel=rtol), shift


def test_within_fast_on_shifted_group_matches_naive_unshifted():
    rng = np.random.default_rng(2028)
    values = rng.normal(size=(7, 3, 10))
    ds = dataset_from([values], m=10)
    ds_shifted = dataset_from([values + 1e6], m=10)
    w = quad_weights(ds.grid)
    omega = random_omega(rng, 3)
    naive = ustat_within_naive(ds, 0, omega, w)
    fast = ustat_within_fast(ds_shifted, 0, omega, w)
    for name in ("i_hat", "t_hat", "tr_sigma2_hat", "k4_hat"):
        x, y = getattr(naive, name), getattr(fast, name)
        assert abs(x - y) <= 1e-9 * max(1.0, abs(x))


def test_within_requires_four_observations():
    ds = dataset_from([np.zeros((3, 1, 3))], m=3)
    w = quad_weights(ds.grid)
    with pytest.raises(InsufficientReplicationError, match="group 1"):
        ustat_within_fast(ds, 0, identity_omega(1), w)


def test_every_group_size_check_names_the_group_its_n_and_the_minimum():
    ds = dataset_from([np.zeros((1, 1, 3)), np.zeros((3, 1, 3))], m=3)
    w = quad_weights(ds.grid)
    spec = oneway_contrast(2)
    checks = [
        (lambda: sigma_hat(ds, 0, w), "group 1 has n=1 observations; .* n >= 2"),
        (lambda: cross_terms(ds, 0, 1, identity_omega(1), w), "group 1 has n=1 .* n >= 2"),
        (lambda: build_glht(ds, spec, w), "group 1 has n=1 .* n >= 2"),
        (lambda: ustat_within_fast(ds, 1, identity_omega(1), w), "group 2 has n=3 .* n >= 4"),
        (lambda: dof_estimates(ds, spec, w), "group 1 has n=1 .* n >= 4"),
        (lambda: run_glht(ds, spec), "group 1 has n=1 .* n >= 4"),
    ]
    for call, message in checks:
        with pytest.raises(InsufficientReplicationError, match=message):
            call()


def test_k4_zero_for_identical_observations():
    values = np.tile(np.arange(8.0).reshape(1, 2, 4), (5, 1, 1))
    ds = dataset_from([values], m=4)
    w = quad_weights(ds.grid)
    omega = identity_omega(2)
    within = ustat_within_fast(ds, 0, omega, w)
    # All terms cancel; the residual is catastrophic-cancellation noise
    # relative to the O(n^4 ||B||^2) magnitudes of the complete sums.
    assert k4_hat(ds, 0, omega, w, within) == pytest.approx(0.0, abs=1e-7)


def test_k4_direct_evaluation_tiny_case():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(5, 2, 3))
    ds = dataset_from([values], m=3)
    w = quad_weights(ds.grid)
    omega = random_omega(rng, 2)
    within = ustat_within_naive(ds, 0, omega, w)
    got = k4_hat(ds, 0, omega, w, within)
    centered = values - values.mean(axis=0)
    wv = w.weights
    first = 0.0
    for j in range(5):
        kernel = np.einsum("pt,pq,qs->ts", centered[j], omega.inv_sqrt @ omega.inv_sqrt, centered[j])
        first += float(np.einsum("ts,t,s->", kernel**2, wv, wv))
    first /= 4.0
    expected = first - within.tr_sigma2_hat - within.i_hat - within.t_hat
    assert got == pytest.approx(expected, rel=1e-10)
    assert within.k4_hat == pytest.approx(expected, rel=1e-10)


def test_k4_gaussian_matches_exact_finite_sample_mean():
    # The kurtosis functional of a Gaussian process is zero, but the
    # estimator's first term uses centered curves whose covariance carries
    # the factor (n-1)/n, so by the Isserlis identity its exact mean under
    # a fixed standardization is -(I* + T* + tr(Sigma*^2)) / n. The Monte
    # Carlo mean must match that value, not zero.
    from mfdglht.simulate import component_stream_lambdas

    p, m, n, q = 2, 8, 8, 3
    grid = make_uniform_grid(m, 0.0, 1.0)
    w = quad_weights(grid)
    basis = component_stream_basis(p, q, grid)
    lam = component_stream_lambdas([1.5], 0.6, q, p)
    i_mat, t_mat, tr2, sigma = separable_trace_integrals(lam, basis, w)
    omega_mat = sigma[0] / n
    inv_sqrt = inv_sqrt_spd(omega_mat)
    omega = OmegaHat(omega=omega_mat, inv_sqrt=inv_sqrt)
    i_s, t_s, tr2_s, _ = separable_trace_integrals(lam, inv_sqrt @ basis, w)
    target = -(i_s[0, 0] + t_s[0, 0] + tr2_s[0]) / n
    means = np.zeros((1, p, m))
    reps = 400
    vals = np.empty(reps)
    for r in range(reps):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([31, r])))
        ds = sample_curves(means, lam, basis, [n], 1, rng)
        vals[r] = ustat_within_fast(ds, 0, omega, w).k4_hat
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - target) <= 4.5 * se


def test_cross_terms_zero_when_one_group_constant():
    rng = np.random.default_rng(8)
    g1 = rng.normal(size=(5, 2, 4))
    g2 = np.tile(rng.normal(size=(1, 2, 4)), (6, 1, 1))
    ds = dataset_from([g1, g2], m=4)
    w = quad_weights(ds.grid)
    omega = random_omega(rng, 2)
    i_val, t_val = cross_terms(ds, 0, 1, omega, w)
    assert i_val == pytest.approx(0.0, abs=1e-12)
    assert t_val == pytest.approx(0.0, abs=1e-12)


def test_cross_terms_match_dense_materialization():
    rng = np.random.default_rng(9)
    ds = dataset_from([rng.normal(size=(5, 2, 6)), rng.normal(size=(7, 2, 6))], m=6)
    w = quad_weights(ds.grid)
    omega = random_omega(rng, 2)
    i_val, t_val = cross_terms(ds, 0, 1, omega, w)
    wv = w.weights
    gammas = []
    for i in range(2):
        values = ds.group_values(i)
        centered = values - values.mean(axis=0)
        gam = np.einsum("jps,jqt->pqst", centered, centered) / (values.shape[0] - 1)
        gammas.append(np.einsum("ap,pqst,qb->abst", omega.inv_sqrt, gam, omega.inv_sqrt))
    tr1 = np.einsum("ppst->st", gammas[0])
    tr2 = np.einsum("ppst->st", gammas[1])
    i_ref = float(np.einsum("st,st,s,t->", tr1, tr2, wv, wv))
    t_ref = float(np.einsum("pqst,qpst,s,t->", gammas[0], gammas[1], wv, wv))
    assert i_val == pytest.approx(i_ref, rel=1e-10)
    assert t_val == pytest.approx(t_ref, rel=1e-10)


def test_cross_terms_symmetric_in_arguments():
    rng = np.random.default_rng(10)
    ds = dataset_from([rng.normal(size=(4, 3, 5)), rng.normal(size=(6, 3, 5))], m=5)
    w = quad_weights(ds.grid)
    omega = random_omega(rng, 3)
    assert np.allclose(
        cross_terms(ds, 0, 1, omega, w), cross_terms(ds, 1, 0, omega, w), rtol=1e-12
    )


def test_cross_terms_reject_same_group():
    rng = np.random.default_rng(11)
    ds = dataset_from([rng.normal(size=(4, 1, 3))], m=3)
    w = quad_weights(ds.grid)
    with pytest.raises(ValidationError):
        cross_terms(ds, 0, 0, identity_omega(1), w)


def _assembled_from_wrappers(ds, spec, w, within_stats=ustat_within_fast):
    """d_b, d_e and the per-group and per-pair terms, from the public per-call functions.

    ``within_stats`` gives each group's four within functionals; pass
    ``ustat_within_naive`` for the distinct-tuple oracle.
    """
    glht = build_glht(ds, spec, w)
    omega, hn = glht.omega, glht.hn
    n = np.asarray(ds.n, dtype=np.float64)
    k = ds.k
    within = [within_stats(ds, i, omega, w) for i in range(k)]
    cross = np.zeros((2, k, k))
    for i in range(k):
        cross[:, i, i] = within[i].i_hat, within[i].t_hat
    for i1 in range(k):
        for i2 in range(i1 + 1, k):
            cross[:, i1, i2] = cross[:, i2, i1] = cross_terms(ds, i1, i2, omega, w)
    db_denom = de_denom = 0.0
    for i in range(k):
        it_sum = within[i].i_hat + within[i].t_hat
        k4 = within[i].k4_hat
        db_denom += hn[i, i] ** 2 * max(k4 / n[i] ** 3 + it_sum / n[i] ** 2, 0.0)
        de_denom += hn[i, i] ** 2 * max(k4 / n[i] ** 3 + it_sum / (n[i] ** 2 * (n[i] - 1)), 0.0)
        for j in range(k):
            if j != i:
                db_denom += hn[i, j] ** 2 * (cross[0, i, j] + cross[1, i, j]) / (n[i] * n[j])
    p = ds.p
    return p * (p + 1) / db_denom, p * (p + 1) / de_denom, within, cross


def test_dof_estimates_match_naive_pipeline():
    rng = np.random.default_rng(20240502)
    ds = dataset_from([rng.normal(size=(6, 2, 10)), 1.5 * rng.normal(size=(6, 2, 10))], m=10)
    w = quad_weights(ds.grid)
    spec = oneway_contrast(2)
    fast = dof_estimates(ds, spec, w)
    naive_b, naive_e, _, _ = _assembled_from_wrappers(ds, spec, w, ustat_within_naive)
    assert fast.d_b == pytest.approx(naive_b, rel=1e-9)
    assert fast.d_e == pytest.approx(naive_e, rel=1e-9)
    assert fast.d_b > 0 and fast.d_e > 0


def test_dof_clamps_negative_brackets():
    # Four +-1 two-point curves per group: the kurtosis estimate is negative
    # enough that a variance bracket falls below zero and is clamped.
    rng = np.random.default_rng(25)
    ds = dataset_from([rng.choice([-1.0, 1.0], size=(4, 1, 4)) for _ in range(2)], m=4)
    w = quad_weights(ds.grid)
    spec = oneway_contrast(2)
    dof = dof_estimates(ds, spec, w)
    assert dof.clamped_b == (False, True)
    assert dof.clamped_e == (False, True)
    assert dof.any_clamped
    d_b, d_e, _, _ = _assembled_from_wrappers(ds, spec, w)
    assert dof.d_b == pytest.approx(d_b, rel=1e-12)
    assert dof.d_e == pytest.approx(d_e, rel=1e-12)


@pytest.mark.parametrize("case", ["zero_column", "c0", "oneway"])
def test_dof_estimates_match_public_wrappers(case, monkeypatch):
    rng = np.random.default_rng({"zero_column": 41, "c0": 42, "oneway": 43}[case])
    p, m = 3, 9
    sizes = (5, 7, 4, 9) if case != "oneway" else (6, 4, 8)
    ds = dataset_from([rng.normal(size=(n, p, m)) * (1 + i) for i, n in enumerate(sizes)], m=m)
    w = quad_weights(ds.grid)
    if case == "zero_column":
        spec = ContrastSpec(np.array([[1.0, -3.0, 0.0, 2.0]]))
    elif case == "c0":
        spec = ContrastSpec(np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 1.0, 0.0, -1.0]]),
                            rng.normal(size=(2, p, m)))
    else:
        spec = oneway_contrast(3)
    glht = build_glht(ds, spec, w)

    blocks = {"within": [], "pair": []}
    kernels = {"within": dof_module.within_group_scalars, "pair": dof_module.pair_trace_integrals}

    def counting(kind):
        def kernel(block, p):
            blocks[kind].append(block.shape)
            return kernels[kind](block, p)
        return kernel

    monkeypatch.setattr(dof_module, "within_group_scalars", counting("within"))
    monkeypatch.setattr(dof_module, "pair_trace_integrals", counting("pair"))
    pooled = dof_estimates(ds, spec, w, glht=glht)
    # Group 3 has a zero column of C in the first two cases, so it is not read.
    touched = [0, 1, 3] if case != "oneway" else [0, 1, 2]
    assert glht.touched == tuple(touched)
    # One Gram of the touched groups' curves, block by block: each group's
    # diagonal block and each pair's block above the diagonal, read once.
    rows = [sizes[i] * p for i in touched]
    assert blocks["within"] == [(r, r) for r in rows]
    assert blocks["pair"] == [(rows[a], rows[b]) for a, b in combinations(range(len(rows)), 2)]
    monkeypatch.undo()

    d_b, d_e, within, cross = _assembled_from_wrappers(ds, spec, w)
    assert pooled.d_b == pytest.approx(d_b, rel=1e-12)
    assert pooled.d_e == pytest.approx(d_e, rel=1e-12)
    for i, (got, want) in enumerate(zip(pooled.within, within)):
        if i in touched:
            assert astuple(got) == pytest.approx(astuple(want), rel=1e-12)
        else:
            assert np.all(np.isnan(astuple(got)))
    block = np.ix_(touched, touched)
    assert np.allclose(pooled.i_cross[block], cross[0][block], rtol=1e-12, atol=0)
    assert np.allclose(pooled.t_cross[block], cross[1][block], rtol=1e-12, atol=0)
    untouched = np.ones(ds.k, dtype=bool)
    untouched[touched] = False
    for got in (pooled.i_cross, pooled.t_cross):
        assert np.all(np.isnan(got[untouched])) and np.all(np.isnan(got[:, untouched]))
    assert not any(np.array(pooled.clamped_b)[untouched])
    assert not any(np.array(pooled.clamped_e)[untouched])


def test_dof_estimates_rejects_glht_of_another_contrast():
    # The weights come from the contrast and the curves from glht.
    rng = np.random.default_rng(46)
    ds = dataset_from([rng.normal(size=(n, 2, 5)) for n in (5, 6, 7)], m=5)
    w = quad_weights(ds.grid)
    glht = build_glht(ds, ContrastSpec(np.array([[1.0, -1.0, 0.0]])), w)
    with pytest.raises(ValidationError, match="another contrast"):
        dof_estimates(ds, ContrastSpec(np.array([[1.0, -2.0, 0.0]])), w, glht=glht)
    # A reparameterized contrast weighs the groups the same way.
    same = dof_estimates(ds, ContrastSpec(np.array([[2.0, -2.0, 0.0]])), w, glht=glht)
    want = dof_estimates(ds, ContrastSpec(np.array([[1.0, -1.0, 0.0]])), w)
    assert same.d_b == pytest.approx(want.d_b, rel=1e-12)


def test_curves_are_prepared_once_per_run(monkeypatch):
    rng = np.random.default_rng(44)
    ds = dataset_from([rng.normal(size=(n, 2, 6)) for n in (5, 6, 7)], m=6)
    spec = oneway_contrast(3)
    calls = {"prepare": 0, "within": 0, "pair": 0}
    originals = {"prepare": sys.modules["mfdglht.glht"]._centered_weighted,
                 "within": dof_module.within_group_scalars,
                 "pair": dof_module.pair_trace_integrals}

    def counting(kind):
        def counted(*args, **kwargs):
            calls[kind] += 1
            return originals[kind](*args, **kwargs)
        return counted

    for name, module in list(sys.modules.items()):
        if name.startswith("mfdglht") and hasattr(module, "_centered_weighted"):
            monkeypatch.setattr(module, "_centered_weighted", counting("prepare"))
    monkeypatch.setattr(dof_module, "within_group_scalars", counting("within"))
    monkeypatch.setattr(dof_module, "pair_trace_integrals", counting("pair"))
    # Three touched groups: one block per group and one per pair.
    run_glht(ds, spec)
    assert calls == {"prepare": 1, "within": 3, "pair": 3}

    w = quad_weights(ds.grid)
    glht = build_glht(ds, spec, w)
    calls.update(prepare=0, within=0, pair=0)
    dof_estimates(ds, spec, w, glht=glht)
    assert calls == {"prepare": 0, "within": 3, "pair": 3}


@st.composite
def untouched_cases(draw):
    """A dataset, a contrast with at least one zero column, and the indices of
    the groups whose columns are nonzero (the touched groups)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, p, m = draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(3, 8))
    sizes = draw(st.lists(st.integers(4, 9), min_size=k, max_size=k))
    groups = [rng.normal(size=(n, p, m)) * rng.uniform(0.5, 2.0) for n in sizes]
    touched = sorted(draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=k - 1)))
    q = draw(st.integers(1, len(touched)))
    c = np.zeros((q, k))
    c[:, touched] = rng.normal(size=(q, len(touched)))
    c0 = rng.normal(size=(q, p, m)) if draw(st.booleans()) else None
    return groups, ContrastSpec(c, c0), touched


def _glht_summary(groups, spec):
    report = run_glht(dataset_from(groups, m=groups[0].shape[2]), spec)
    return report, [report.dof.d_b, report.dof.d_e] + [
        report.p_values[name] for name in ("mfw", "mflh", "mfp")
    ]


@settings(max_examples=50, deadline=None)
@given(case=untouched_cases())
def test_run_glht_ignores_untouched_groups_values(case):
    # A group with a zero column of C has no weight in the test, so any finite
    # curves in its place, at any magnitude, leave every output unchanged.
    groups, spec, touched = case
    rng = np.random.default_rng(len(groups))
    replaced = [
        g if i in touched else 1e6 * rng.normal(size=g.shape) + 1e4
        for i, g in enumerate(groups)
    ]
    try:
        _, base = _glht_summary(groups, spec)
    except MfdGlhtError as exc:
        with pytest.raises(type(exc)):
            _glht_summary(replaced, spec)
        return
    assert _glht_summary(replaced, spec)[1] == pytest.approx(base, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(case=untouched_cases())
def test_run_glht_same_without_untouched_groups(case):
    # Dropping the untouched groups and their zero columns of C (C0 keeps its
    # rows) is the same hypothesis on the remaining groups.
    groups, spec, touched = case
    dropped = [groups[i] for i in touched]
    dropped_spec = ContrastSpec(spec.c[:, touched], spec.c0)
    try:
        report, base = _glht_summary(groups, spec)
    except MfdGlhtError as exc:
        with pytest.raises(type(exc)):
            _glht_summary(dropped, dropped_spec)
        return
    dropped_report, got = _glht_summary(dropped, dropped_spec)
    assert got == pytest.approx(base, rel=1e-12)
    block = np.ix_(touched, touched)
    for name in ("i_cross", "t_cross"):
        assert np.allclose(
            getattr(dropped_report.dof, name), getattr(report.dof, name)[block],
            rtol=1e-12, atol=0,
        )
    for got_ws, i in zip(dropped_report.dof.within, touched):
        assert astuple(got_ws) == pytest.approx(astuple(report.dof.within[i]), rel=1e-12)


@pytest.mark.parametrize("untouched_n", [1, 3])
def test_untouched_group_still_needs_replication(untouched_n):
    # The size checks run over every group, whether the hypothesis reads it or not.
    rng = np.random.default_rng(45)
    sizes = (5, untouched_n, 6)
    ds = dataset_from([rng.normal(size=(n, 2, 5)) for n in sizes], m=5)
    spec = ContrastSpec(np.array([[1.0, 0.0, -1.0]]))
    with pytest.raises(InsufficientReplicationError, match="group 2"):
        run_glht(ds, spec)
    with pytest.raises(InsufficientReplicationError, match="group 2"):
        dof_estimates(ds, spec, quad_weights(ds.grid))


@st.composite
def affine_cases(draw):
    """A small null dataset and an affine map x -> s A x + b(t) at a large magnitude."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, p, m = draw(st.integers(2, 3)), draw(st.integers(1, 3)), draw(st.integers(3, 8))
    groups = [rng.normal(size=(draw(st.integers(4, 7)), p, m)) for _ in range(k)]
    scale = 10.0 ** draw(st.floats(-6, 6))
    shift_size = scale * 10.0 ** draw(st.floats(-3, 6))
    # Singular values in [0.5, 2]: a near-singular map would push the shift far
    # above the noise in one direction, and rounding the input alone would lose it.
    a = np.linalg.qr(rng.normal(size=(p, p)))[0] * rng.uniform(0.5, 2.0, size=p)
    shift = shift_size * rng.uniform(-1, 1, size=(p, m))
    return groups, scale * a, shift


@settings(max_examples=50, deadline=None)
@given(case=affine_cases())
def test_run_glht_affine_invariance_at_large_magnitudes(case):
    groups, a, shift = case
    m = groups[0].shape[2]
    spec = oneway_contrast(len(groups))
    mapped = [np.einsum("pq,jqt->jpt", a, g) + shift for g in groups]

    def summary(curves):
        report = run_glht(dataset_from(curves, m=m), spec)
        return [report.dof.d_b, report.dof.d_e] + [
            report.p_values[name] for name in ("mfw", "mflh", "mfp")
        ]

    try:
        base = summary(groups)
    except MfdGlhtError:
        with pytest.raises(MfdGlhtError):
            summary(mapped)
        return
    assert summary(mapped) == pytest.approx(base, rel=1e-8)


def _null_summary(curves, m):
    report = run_glht(dataset_from(curves, m=m), oneway_contrast(len(curves)))
    return [report.dof.d_b, report.dof.d_e] + [
        report.p_values[name] for name in ("mfw", "mflh", "mfp")
    ]


@st.composite
def component_scale_cases(draw):
    """A small null dataset and a map x -> D R x + b(t): R orthogonal, D a
    diagonal of scales 10^U(-12, 12) and the shift about 1e3 D."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, p, m = draw(st.integers(2, 3)), draw(st.integers(2, 3)), draw(st.integers(3, 8))
    groups = [rng.normal(size=(draw(st.integers(4, 7)), p, m)) for _ in range(k)]
    scales = 10.0 ** rng.uniform(-12.0, 12.0, size=p)
    # R acts before D: a map that mixed the components after scaling them would
    # round the small ones away in the sums, and no method could recover them.
    a = scales[:, None] * np.linalg.qr(rng.normal(size=(p, p)))[0]
    shift = 1e3 * scales[:, None] * rng.uniform(-1, 1, size=(p, m))
    return groups, a, shift


@settings(max_examples=50, deadline=None)
@given(case=component_scale_cases())
def test_run_glht_invariant_to_component_scales(case):
    # The whitening factors the pooled matrix scaled to unit diagonal, so its
    # singularity test does not see the units of the components.
    groups, a, shift = case
    m = groups[0].shape[2]
    mapped = [np.einsum("pq,jqt->jpt", a, g) + shift for g in groups]
    try:
        base = _null_summary(groups, m)
    except MfdGlhtError as exc:
        with pytest.raises(type(exc)):
            _null_summary(mapped, m)
        return
    assert _null_summary(mapped, m) == pytest.approx(base, rel=1e-8)


def test_run_glht_components_scaled_by_decades():
    rng = np.random.default_rng(7)
    groups = [rng.normal(size=(8, 3, 20)) for _ in range(3)]
    scaled = [g * np.array([1e-3, 1.0, 1e3])[:, None] for g in groups]
    assert _null_summary(scaled, 20) == pytest.approx(_null_summary(groups, 20), rel=1e-10)


@st.composite
def relabel_cases(draw):
    """A dataset with unequal group sizes, a contrast, and a relabeling of both."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, p, m = draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(3, 8))
    sizes = draw(st.lists(st.integers(4, 9), min_size=k, max_size=k, unique=True))
    groups = [rng.normal(size=(n, p, m)) * rng.uniform(0.5, 2.0) for n in sizes]
    q = draw(st.integers(1, k - 1))
    c0 = rng.normal(size=(q, p, m)) if draw(st.booleans()) else None
    spec = ContrastSpec(rng.normal(size=(q, k)), c0)
    perm = rng.permutation(k)
    relabeled = [groups[g][rng.permutation(sizes[g])] for g in perm]
    # Singular values in [0.5, 2], as in the affine cases.
    a = np.linalg.qr(rng.normal(size=(q, q)))[0] * rng.uniform(0.5, 2.0, size=q)
    a_c0 = None if c0 is None else np.einsum("ab,bpt->apt", a, c0)
    return groups, spec, relabeled, ContrastSpec(a @ spec.c[:, perm], a_c0)


@settings(max_examples=50, deadline=None)
@given(case=relabel_cases())
def test_run_glht_invariant_to_relabeling(case):
    # Permuting the groups (with C's columns) and the observations within each
    # group, and reparameterizing (C, C0) as (AC, AC0) with A invertible, leave
    # every quantity of the test unchanged.
    groups, spec, relabeled, relabeled_spec = case
    m = groups[0].shape[2]

    def summary(curves, contrast):
        report = run_glht(dataset_from(curves, m=m), contrast)
        return [report.dof.d_b, report.dof.d_e] + [
            report.p_values[name] for name in ("mfw", "mflh", "mfp")
        ]

    try:
        base = summary(groups, spec)
    except MfdGlhtError:
        with pytest.raises(MfdGlhtError):
            summary(relabeled, relabeled_spec)
        return
    assert summary(relabeled, relabeled_spec) == pytest.approx(base, rel=1e-8)


@st.composite
def reparameterization_cases(draw):
    """A dataset, a contrast (with or without C0) and an invertible q x q map A
    whose condition number is 10^d for d drawn from [0, 8]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, p, m = draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(3, 8))
    groups = [rng.normal(size=(n, p, m)) for n in rng.integers(4, 10, size=k)]
    q = draw(st.integers(1, k - 1))
    # Orthonormal rows, so that AC stays inside ContrastSpec's rank bound.
    c = np.linalg.qr(rng.normal(size=(k, q)))[0].T * rng.uniform(0.5, 2.0)
    c0 = rng.normal(size=(q, p, m)) if draw(st.booleans()) else None
    decades = draw(st.floats(0.0, 8.0))
    svals = 10.0 ** np.linspace(0.0, -decades, q) * 10.0 ** rng.uniform(-4.0, 4.0)
    rotations = [np.linalg.qr(rng.normal(size=(q, q)))[0] for _ in range(2)]
    a = (rotations[0] * svals) @ rotations[1]
    a_c0 = None if c0 is None else np.einsum("ab,bpt->apt", a, c0)
    return groups, ContrastSpec(c, c0), ContrastSpec(a @ c, a_c0)


@settings(max_examples=50, deadline=None)
@given(case=reparameterization_cases())
def test_run_glht_invariant_to_ill_conditioned_reparameterization(case):
    # (C, C0) -> (AC, AC0) changes no quantity of the test for any invertible
    # A; at cond(A) = 1e8 only rounding of order cond(A) * eps may show.
    groups, spec, mapped = case
    ds = dataset_from(groups, m=groups[0].shape[2])

    def summary(contrast):
        report = run_glht(ds, contrast)
        return [report.dof.d_b, report.dof.d_e] + [
            report.p_values[name] for name in ("mfw", "mflh", "mfp")
        ]

    try:
        base = summary(spec)
    except MfdGlhtError:
        with pytest.raises(MfdGlhtError):
            summary(mapped)
        return
    assert summary(mapped) == pytest.approx(base, rel=1e-5)


@st.composite
def edge_size_cases(draw):
    """Groups of 4 or 5 curves with p up to 12, so N = sum n_i comes close to p."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, p, m = draw(st.integers(2, 4)), draw(st.integers(1, 12)), draw(st.integers(2, 6))
    return [rng.normal(size=(draw(st.sampled_from((4, 5))), p, m)) for _ in range(k)]


@settings(max_examples=50, deadline=None)
@given(groups=edge_size_cases())
def test_run_glht_at_edge_sizes_reports_or_raises_typed_error(groups):
    ds = dataset_from(groups, m=groups[0].shape[2])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            report = run_glht(ds, oneway_contrast(len(groups)))
        except MfdGlhtError:
            return
    assert np.isfinite(report.dof.d_b) and report.dof.d_b > 0
    assert np.isfinite(report.dof.d_e) and report.dof.d_e > 0
    assert all(0.0 <= v <= 1.0 for v in report.p_values.values())


def test_dof_affine_invariance():
    rng = np.random.default_rng(12)
    p, m = 2, 7
    groups = [rng.normal(size=(6, p, m)), rng.normal(size=(7, p, m))]
    ds = dataset_from(groups, m=m)
    # Singular values in [0.5, 2]: a near-singular map would push the shift far
    # above the noise in one direction, and rounding the input alone would lose it.
    a = np.linalg.qr(rng.normal(size=(p, p)))[0] * rng.uniform(0.5, 2.0, size=p)
    shift = rng.normal(size=(p, m))
    transformed = [np.einsum("pq,jqt->jpt", a, g) + shift[None] for g in groups]
    ds2 = dataset_from(transformed, m=m)
    w = quad_weights(ds.grid)
    spec = oneway_contrast(2)
    d1 = dof_estimates(ds, spec, w)
    d2 = dof_estimates(ds2, spec, w)
    assert d1.d_b == pytest.approx(d2.d_b, rel=1e-8)
    assert d1.d_e == pytest.approx(d2.d_e, rel=1e-8)


def test_dof_contrast_transform_invariance():
    rng = np.random.default_rng(13)
    ds = dataset_from([rng.normal(size=(5, 2, 6)) for _ in range(3)], m=6)
    w = quad_weights(ds.grid)
    c = oneway_contrast(3).c
    pmat = rng.normal(size=(2, 2)) + 2 * np.eye(2)
    d1 = dof_estimates(ds, ContrastSpec(c), w)
    d2 = dof_estimates(ds, ContrastSpec(pmat @ c), w)
    assert d1.d_b == pytest.approx(d2.d_b, rel=1e-9)
    assert d1.d_e == pytest.approx(d2.d_e, rel=1e-9)


def test_separable_trace_integrals_geometric_sum():
    # Common-direction basis with p=6, q=7, nu=1.5, rho=0.5: the raw trace
    # functionals collapse to the geometric sum 2.25 * sum_r rho^(2r).
    grid = make_uniform_grid(80, 0.0, 1.0)
    w = quad_weights(grid)
    p, q, rho = 6, 7, 0.5
    basis = basis_functions(p, q, grid)
    lam = lambda_grid([1.5, 1.5], rho, q)
    i_mat, t_mat, tr2, sigma = separable_trace_integrals(lam, basis, w)
    expected = 2.25 * sum(rho ** (2 * r) for r in range(1, q + 1))
    assert expected == pytest.approx(0.74999, abs=5e-4)
    assert i_mat[0, 1] == pytest.approx(expected, rel=2e-3)
    assert t_mat[0, 1] == pytest.approx(expected, rel=2e-3)
    # integrated covariance is (sum_r lambda_r) c c^T
    c = np.arange(1, p + 1) / np.sqrt(float(np.sum(np.arange(1, p + 1) ** 2)))
    assert np.allclose(sigma[0], lam[0].sum() * np.outer(c, c), rtol=1e-6)


def test_true_dof_single_group_ratio():
    # With one group and unit weight the two denominators differ only by
    # the 1/(n-1) factor on the (I + T) term.
    grid = make_uniform_grid(12, 0.0, 1.0)
    w = quad_weights(grid)
    q, p, n = 3, 2, 9
    psi = scalar_basis(q + p - 1, grid)
    basis = np.zeros((q * p, p, grid.m))
    for r in range(q):
        for ell in range(p):
            basis[r * p + ell, ell] = psi[r + ell]
    lam = np.full((1, q * p), 0.7)
    td = true_dof(SeparableCovariances(lam, basis), [n], np.array([[1.0]]), w)
    it_sum = td.i_star[0, 0] + td.t_star[0, 0]
    db_expected = p * (p + 1) / (it_sum / n**2)
    de_expected = p * (p + 1) / (it_sum / (n**2 * (n - 1)))
    assert td.d_b == pytest.approx(db_expected, rel=1e-12)
    assert td.d_e == pytest.approx(de_expected, rel=1e-12)
    assert td.d_e == pytest.approx(td.d_b * (n - 1), rel=1e-12)


def _nonuniform_grid(m, seed):
    inner = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, m - 2))
    return Grid(np.r_[0.0, inner, 1.0])


def dense_kernels(lambdas, basis):
    """Each group's separable kernel as a dense (p, p, m, m) array."""
    return [np.einsum("r,rps,rqt->pqst", lam, basis, basis) for lam in lambdas]


@pytest.mark.parametrize(
    "grid, stream, q, p, k",
    [
        (make_uniform_grid(9, 0.0, 1.0), False, 4, 2, 2),
        (make_uniform_grid(12, 0.0, 1.0), True, 3, 6, 4),
        (_nonuniform_grid(11, 3), False, 3, 3, 3),
    ],
    ids=["random", "component-stream-p6", "nonuniform-grid"],
)
def test_true_dof_dense_matches_separable(grid, stream, q, p, k, monkeypatch):
    # A random basis of q terms, or the component-stream basis with a random
    # variance per (term, component).
    w = quad_weights(grid)
    rng = np.random.default_rng(14)
    if stream:
        basis = component_stream_basis(p, q, grid)
        lam = rng.uniform(0.5, 2.0, size=(k, q * p))
    else:
        basis = rng.normal(size=(q, p, grid.m))
        lam = rng.uniform(0.5, 2.0, size=(k, q))
    sep = SeparableCovariances(lam, basis)
    dense = dense_kernels(lam, basis)
    n = [6, 7, 8, 9][:k]
    hn = hn_matrix(oneway_contrast(k).c, n)
    td_sep = true_dof(sep, n, hn, w)
    for inv_sqrt in (None, inv_sqrt_spd(td_sep.omega)):
        standardized = basis if inv_sqrt is None else inv_sqrt @ basis
        separable = separable_trace_integrals(lam, standardized, w)
        for got, want in zip(separable, dense_trace_integrals(dense, w, inv_sqrt)):
            assert np.allclose(got, want, rtol=1e-9, atol=0)
    # The same degrees of freedom when true_dof reads the dense oracle's
    # integrals of the kernels of each basis it passes, standardized or not.
    monkeypatch.setattr(
        "mfdglht.dof.separable_trace_integrals",
        lambda lambdas, basis, w: dense_trace_integrals(dense_kernels(lambdas, basis), w),
    )
    td_dense = true_dof(sep, n, hn, w)
    assert td_sep.d_b == pytest.approx(td_dense.d_b, rel=1e-9)
    assert td_sep.d_e == pytest.approx(td_dense.d_e, rel=1e-9)


@pytest.mark.parametrize("m", [20, 1000])
def test_true_dof_closed_forms_on_component_stream_basis(m):
    # The trapezoid rule integrates the basis' low-frequency trig products
    # exactly on a uniform grid. With Lambda_i = sum_r lambda_ir and
    # kappa = sum_i (h_ii / n_i) Lambda_i, Omega = kappa diag(c^2), so the
    # standardized basis is e_l psi_r / sqrt(kappa) and every functional
    # has a closed form. Run at the long-grid benchmark setting.
    cfg = SimConfig(n=(40, 40, 60, 60), m=m, scenario="S2", contrast=((1.0, -3.0, 0.0, 2.0),))
    p, grid = cfg.p, cfg.grid()
    lam = lambda_grid(cfg.nus(), cfg.rho, cfg.q)
    hn = hn_matrix(cfg.contrast_spec().c, cfg.n)
    sep = SeparableCovariances(np.repeat(lam, p, axis=1), component_stream_basis(p, cfg.q, grid))
    td = true_dof(sep, cfg.n, hn, quad_weights(grid))
    kappa = np.sum(np.diag(hn) / np.array(cfg.n) * lam.sum(axis=1))
    lam_gram = lam @ lam.T / kappa**2
    np.testing.assert_allclose(td.omega, kappa * np.diag(component_weights(p) ** 2),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(td.i_star, p**2 * lam_gram, rtol=1e-12, atol=0)
    np.testing.assert_allclose(td.t_star, p * lam_gram, rtol=1e-12, atol=0)
    np.testing.assert_allclose(td.tr_sigma2_star, p * lam.sum(axis=1) ** 2 / kappa**2,
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "change, match",
    [
        ({"lambdas": [[1.0, -0.5, 1.0], [1.0, 1.0, 1.0]]}, "nonnegative"),
        ({"lambdas": np.ones((2, 4))}, "number of terms"),
        ({"w": quad_weights(make_uniform_grid(6, 0.0, 1.0))}, "quadrature weights"),
        ({"lambdas": [[np.nan, 1.0, 1.0], [1.0, 1.0, 1.0]]}, "variance components must be finite"),
        ({"basis": np.full((3, 2, 5), np.inf)}, "basis values must be finite"),
    ],
    ids=["negative-lambdas", "term-count", "weights-length", "nan-lambdas", "inf-basis"],
)
def test_separable_trace_integrals_rejects_bad_inputs(change, match):
    grid = make_uniform_grid(5, 0.0, 1.0)
    args = {"lambdas": np.ones((2, 3)), "basis": np.ones((3, 2, grid.m)), "w": quad_weights(grid)}
    with pytest.raises(ValidationError, match=match):
        separable_trace_integrals(**(args | change))


def test_true_dof_rejects_dense_kernels():
    grid = make_uniform_grid(5, 0.0, 1.0)
    dense = [np.einsum("ps,qt->pqst", b, b) for b in np.ones((2, 2, grid.m))]
    hn = hn_matrix(oneway_contrast(2).c, [6, 7])
    with pytest.raises(ValidationError, match="SeparableCovariances"):
        true_dof(dense, [6, 7], hn, quad_weights(grid))


def test_separable_covariances_rejects_a_two_dimensional_basis():
    with pytest.raises(ValidationError) as err:
        SeparableCovariances(np.ones((1, 3)), np.ones((3, 5)))
    assert type(err.value) is ValidationError
    assert str(err.value) == "basis must have shape (q, p, m)"


def test_true_dof_rejects_kurtosis_of_the_wrong_length():
    grid = make_uniform_grid(5, 0.0, 1.0)
    covs = SeparableCovariances(np.ones((2, 3)), np.ones((3, 1, grid.m)) * np.arange(1, 6))
    hn = hn_matrix(np.array([[1.0, -1.0]]), [6, 6])
    with pytest.raises(ValidationError) as err:
        true_dof(covs, [6, 6], hn, quad_weights(grid), kurtosis=[0.0])
    assert type(err.value) is ValidationError
    assert str(err.value) == "kurtosis must supply one value per group"


# --- the Gram blocks split between the caller and one helper thread ---


def _split_gram(monkeypatch, flops=0.0, pinned=True, cpus=2):
    """Make ``glht._design`` split every Gram of at least ``flops``."""
    monkeypatch.setattr("mfdglht.glht._SPLIT_FLOPS", flops)
    monkeypatch.setattr("mfdglht.glht._BLAS_PINNED", pinned)
    monkeypatch.setattr("mfdglht.glht._usable_cpus", lambda: cpus)


def _dof_bytes(est):
    within = np.array([astuple(group) for group in est.within])
    return (np.array([est.d_b, est.d_e]).tobytes(), within.tobytes(), est.i_cross.tobytes(),
            est.t_cross.tobytes(), est.clamped_b, est.clamped_e)


LONG_GRID_N = (40, 40, 60, 60)


def _design_of(c, n, p=6, m=80):
    return glht_module._design(ContrastSpec(np.atleast_2d(c)), n,
                               quad_weights(make_uniform_grid(m, 0.0, 1.0)), p, m,
                               glht_module._USTAT_N)


@pytest.mark.parametrize(
    "c, with_c0",
    [
        ([1.0, 0.0, 0.0, 0.0], False),
        ([1.0, -1.0, 0.0, 0.0], False),
        ([1.0, -3.0, 0.0, 2.0], False),
        (oneway_contrast(4).c, False),
        (oneway_contrast(4).c, True),
    ],
    ids=["one-group", "two-groups", "three-groups-one-untouched", "four-groups", "four-groups-c0"],
)
def test_two_block_lists_give_byte_identical_results(c, with_c0, monkeypatch):
    cfg = SimConfig(n=(5, 6, 7, 8), m=12, scenario="S2", model=3, rho=0.5)
    ds = gen_sample(cfg, [4, 1])
    c = np.atleast_2d(c)
    c0 = np.random.default_rng(2).normal(size=(len(c), ds.p, ds.m)) if with_c0 else None
    spec = ContrastSpec(c, c0)
    w = quad_weights(ds.grid)
    serial = run_glht(ds, spec).to_json(), _dof_bytes(dof_estimates(ds, spec, w))
    _split_gram(monkeypatch)
    touched = np.count_nonzero(np.any(c != 0, axis=0))
    assert len(_design_of(c, ds.n, ds.p, ds.m).blocks) == min(touched, 2)
    assert (run_glht(ds, spec).to_json(), _dof_bytes(dof_estimates(ds, spec, w))) == serial


def test_helper_thread_exception_reaches_the_caller(monkeypatch):
    ds = gen_sample(SimConfig(n=(5, 5, 5, 5), m=10), [3, 3])
    _split_gram(monkeypatch)
    real = dof_module.pair_trace_integrals
    raised = []

    def failing(block, p):
        if threading.current_thread() is not threading.main_thread():
            raised.append(True)
            raise ZeroDivisionError("helper")
        return real(block, p)

    monkeypatch.setattr(dof_module, "pair_trace_integrals", failing)
    threads = threading.active_count()
    with pytest.raises(ZeroDivisionError, match="helper"):
        run_glht(ds, oneway_contrast(4))
    assert raised == [True]
    assert threading.active_count() == threads


@pytest.mark.parametrize(
    "pinned, cpus, lists",
    [(True, 2, 2), (True, 4, 2), (False, 2, 1), (True, 1, 1)],
    ids=["pinned-2-cpus", "pinned-4-cpus", "unpinned", "one-cpu"],
)
def test_design_splits_only_a_large_gram_of_a_pinned_process_with_two_cpus(
    pinned, cpus, lists, monkeypatch
):
    _split_gram(monkeypatch, flops=glht_module._SPLIT_FLOPS, pinned=pinned, cpus=cpus)
    # Table 1's n3 shape costs 1.8e7 flops; the long grid's touched groups 7.1e8.
    assert len(_design_of(oneway_contrast(4).c, (15, 15, 25, 25)).blocks) == 1
    blocks = _design_of([1.0, -3.0, 0.0, 2.0], LONG_GRID_N, m=1000).blocks
    assert len(blocks) == lists
    assert sorted(block for part in blocks for block in part) == [
        (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)
    ]
    if lists == 2:  # longest first, each block to the list with fewer flops
        assert blocks == (((0, 2), (2, 2), (1, 1)), ((1, 2), (0, 1), (0, 0)))


@pytest.mark.parametrize(
    "environ, pinned",
    [
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, False),
        ({"OMP_NUM_THREADS": "2"}, False),
        ({"OPENBLAS_NUM_THREADS": ""}, False),
    ],
)
def test_blas_pinned_needs_every_thread_variable_unset_or_one(environ, pinned):
    assert glht_module._blas_pinned(environ) is pinned
