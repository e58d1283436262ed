"""Acceptance suite: one test per criterion, at the stated tolerances.

Every test prints a single PASS/FAIL line (visible with ``pytest -s`` or
in the captured output on failure). All Monte Carlo runs are seeded and
deterministic; rates are exact reruns of frozen streams.
"""

import time

import numpy as np
import pytest
import scipy.integrate
from scipy.special import betaln

from mfdglht import (
    FunctionalDataset,
    GroupSample,
    SeparableCovariances,
    SimConfig,
    are_metric,
    build_glht,
    f_cdf,
    make_uniform_grid,
    oneway_contrast,
    quad_weights,
    run_glht,
    separable_trace_integrals,
    sigma_hat,
    size_power_study,
    true_dof,
    ustat_within_fast,
)
from mfdglht.glht import ContrastSpec, OmegaHat, hn_matrix, inv_sqrt_spd
from mfdglht.simulate import (
    N_PRESETS,
    SCENARIO_NUS,
    component_stream_basis,
    component_stream_lambdas,
    sample_curves,
)
from oracles import ustat_within_naive

SEED = 20240901
STATS = ("mfw", "mflh", "mfp")


def report(criterion: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def run_setting(reps=1000, **kwargs):
    cfg = SimConfig(reps=reps, seed=SEED, **kwargs)
    return size_power_study(cfg)


def test_criterion_01_table1_sizes():
    start = time.perf_counter()
    targets = {0.1: (6.4, 6.4, 6.0), 0.9: (5.3, 5.7, 5.1)}
    details = []
    ok = True
    for rho, target in targets.items():
        res = run_setting(n="n3", rho=rho, scenario="S1", model=1, delta=0.0)
        rates = [res.rate_percent(name) for name in STATS]
        for rate, ref in zip(rates, target):
            ok &= abs(rate - ref) <= 2.1
        details.append(
            f"rho={rho}: got ({rates[0]:.1f}, {rates[1]:.1f}, {rates[2]:.1f}) "
            f"vs paper {target} (tol 2.1pp)"
        )
        ok &= res.errored == 0
    elapsed = time.perf_counter() - start
    ok &= elapsed <= 900.0
    report("criterion-1", ok, "; ".join(details) + f"; elapsed {elapsed:.0f}s <= 900s")


def test_criterion_02_heteroscedastic_size():
    res = run_setting(n="n3", rho=0.9, scenario="S2", model=1, delta=0.0)
    rate = res.rate_percent("mfp")
    ok = abs(rate - 5.3) <= 2.1 and res.errored == 0
    report("criterion-2", ok, f"S2 rho=0.9 n3 MFP size {rate:.1f} vs paper 5.3 (tol 2.1pp)")


def test_criterion_03_power():
    res3 = run_setting(n="n3", rho=0.1, scenario="S1", model=1, delta=0.3)
    res4 = run_setting(n="n3", rho=0.1, scenario="S1", model=1, delta=0.4)
    p3 = res3.rate_percent("mfp")
    p4 = res4.rate_percent("mfp")
    ok = abs(p3 - 80.2) <= 4.0 and abs(p4 - 98.2) <= 2.0
    report(
        "criterion-3",
        ok,
        f"MFP power delta=0.3: {p3:.1f} vs 80.2 (tol 4pp); delta=0.4: {p4:.1f} vs 98.2 (tol 2pp)",
    )


def test_criterion_04_are_value():
    sizes = [6.0, 5.2, 6.0, 5.1, 5.0, 4.3, 4.2, 3.3, 3.9]
    value = are_metric(sizes, 5.0)
    ok = abs(value - 14.67) <= 0.01
    report("criterion-4", ok, f"ARE of the paper's nine MFP sizes = {value:.4f} vs 14.67")


def test_criterion_05_contrast_simulations():
    sim2_targets = {1: 3.6, 2: 4.9, 3: 5.8}
    details = []
    ok = True
    for model, target in sim2_targets.items():
        res = run_setting(
            n="n3", rho=0.9, scenario="S2", model=model, delta=0.0, contrast="two_sample"
        )
        rate = res.rate_percent("mfp")
        ok &= abs(rate - target) <= 2.1 and res.errored == 0
        details.append(f"sim2 model {model}: MFP {rate:.1f} vs {target}")
    res3 = run_setting(
        n="n3", rho=0.9, scenario="S2", model=1, delta=0.0, contrast="linear_combo"
    )
    rate3 = res3.rate_percent("mfp")
    ok &= abs(rate3 - 5.0) <= 2.1 and res3.errored == 0
    details.append(f"sim3 model 1: MFP {rate3:.1f} vs 5.0")
    report("criterion-5", ok, "; ".join(details) + " (tol 2.1pp)")


def test_criterion_06_fast_naive_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    instances = 200
    for _ in range(instances):
        n = int(rng.integers(4, 9))
        p = int(rng.integers(1, 4))
        m = int(rng.integers(2, 13))
        grid = make_uniform_grid(m, 0.0, 1.0)
        ds = FunctionalDataset(grid, (GroupSample(rng.normal(size=(n, p, m))),))
        w = quad_weights(grid)
        a = rng.normal(size=(p, p))
        omega_mat = a @ a.T + p * np.eye(p)
        inv_sqrt = inv_sqrt_spd(omega_mat)
        omega = OmegaHat(omega_mat, inv_sqrt)
        naive = ustat_within_naive(ds, 0, omega, w)
        fast = ustat_within_fast(ds, 0, omega, w)
        for name in ("i_hat", "t_hat", "tr_sigma2_hat", "k4_hat"):
            x, y = getattr(naive, name), getattr(fast, name)
            worst = max(worst, abs(x - y) / max(abs(x), 1e-6))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    report(
        "criterion-6",
        ok,
        f"{instances} random instances, worst relative gap {worst:.2e} <= 1e-9, "
        f"elapsed {elapsed:.1f}s < 60s",
    )


def _unbiasedness(reps, p, q, m, n, nus, rho):
    """Criterion 7 on one setting: every target's worst |z| and the failing targets."""
    k = len(n)
    grid = make_uniform_grid(m, 0.0, 1.0)
    w = quad_weights(grid)
    basis = component_stream_basis(p, q, grid)
    lam = component_stream_lambdas(nus, rho, q, p)
    spec = oneway_contrast(k)
    hn = hn_matrix(spec.c, n)
    td = true_dof(SeparableCovariances(lam, basis), n, hn, w)
    inv_sqrt = inv_sqrt_spd(td.omega)
    omega_true = OmegaHat(td.omega, inv_sqrt)
    i_s, t_s, tr2_s, _ = separable_trace_integrals(lam, inv_sqrt @ basis, w)
    _, _, _, sigma_raw = separable_trace_integrals(lam, basis, w)
    h_diag = np.diag(hn)

    targets = {}
    samples = {}
    for i in range(k):
        targets[f"i_hat_{i}"] = i_s[i, i]
        targets[f"t_hat_{i}"] = t_s[i, i]
        targets[f"tr2_{i}"] = tr2_s[i]
        targets[f"k4_{i}"] = -(i_s[i, i] + t_s[i, i] + tr2_s[i]) / n[i]
        for a in range(p):
            for b in range(a, p):
                targets[f"sigma_{i}_{a}{b}"] = sigma_raw[i][a, b]
    omega_target = sum(h_diag[i] * sigma_raw[i] / n[i] for i in range(k))
    for a in range(p):
        for b in range(a, p):
            targets[f"omega_{a}{b}"] = omega_target[a, b]
    samples = {key: np.empty(reps) for key in targets}

    means = np.zeros((k, p, m))
    for r in range(reps):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([SEED, 7, r])))
        ds = sample_curves(means, lam, basis, n, 1, rng)
        sigmas = []
        for i in range(k):
            within = ustat_within_fast(ds, i, omega_true, w)
            samples[f"i_hat_{i}"][r] = within.i_hat
            samples[f"t_hat_{i}"][r] = within.t_hat
            samples[f"tr2_{i}"][r] = within.tr_sigma2_hat
            samples[f"k4_{i}"][r] = within.k4_hat
            sig = sigma_hat(ds, i, w)
            sigmas.append(sig)
            for a in range(p):
                for b in range(a, p):
                    samples[f"sigma_{i}_{a}{b}"][r] = sig[a, b]
        om = sum(h_diag[i] * sigmas[i] / n[i] for i in range(k))
        for a in range(p):
            for b in range(a, p):
                samples[f"omega_{a}{b}"][r] = om[a, b]

    worst = 0.0
    failing = []
    for key, target in targets.items():
        vals = samples[key]
        se = vals.std(ddof=1) / np.sqrt(reps)
        z = abs(vals.mean() - target) / max(se, 1e-300)
        worst = max(worst, z)
        if z > 4.0:
            failing.append(f"{key}: mean {vals.mean():.5g} vs {target:.5g} (z={z:.2f})")
    return len(targets), worst, failing


def test_criterion_07_unbiasedness_suite():
    start = time.perf_counter()
    reps = 5000
    count, worst, failing = _unbiasedness(reps, p=2, q=3, m=20, n=(12, 12), nus=[1.5, 2.0],
                                          rho=0.5)
    elapsed = time.perf_counter() - start
    ok = not failing and elapsed < 600.0
    report(
        "criterion-7",
        ok,
        f"{count} targets at R={reps}, worst |z| = {worst:.2f} <= 4"
        + (f"; failing: {failing}" if failing else "")
        + f"; elapsed {elapsed:.0f}s < 600s",
    )


def _report_unbiasedness(reps, **setting):
    """Criterion 7 at ``reps`` replications of one ``_unbiasedness`` setting."""
    count, worst, failing = _unbiasedness(reps, **setting)
    report(
        "criterion-7",
        not failing,
        f"{count} targets at R={reps}, worst |z| = {worst:.2f} <= 4"
        + (f"; failing: {failing}" if failing else ""),
    )


def _total_variation_match(reps, p, q, m, n, nus, rho):
    """Criterion 8 on one setting: V(B~), p(p+1)/d_B, V(E~) and p(p+1)/d_E."""
    k = len(n)
    grid = make_uniform_grid(m, 0.0, 1.0)
    w = quad_weights(grid)
    basis = component_stream_basis(p, q, grid)
    lam = component_stream_lambdas(nus, rho, q, p)
    spec = oneway_contrast(k)
    hn = hn_matrix(spec.c, n)
    td = true_dof(SeparableCovariances(lam, basis), n, hn, w)
    inv_sqrt = inv_sqrt_spd(td.omega)
    means = np.zeros((k, p, m))
    btil = np.empty((reps, p, p))
    etil = np.empty((reps, p, p))
    for r in range(reps):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([SEED, 8, r])))
        ds = sample_curves(means, lam, basis, n, 1, rng)
        glht = build_glht(ds, spec, w)
        btil[r] = inv_sqrt @ glht.bn @ inv_sqrt
        etil[r] = inv_sqrt @ glht.en @ inv_sqrt

    def total_variation(mats):
        dev = mats - mats.mean(axis=0)
        return float(np.einsum("rij,rij->", dev, dev) / (mats.shape[0] - 1))

    return total_variation(btil), p * (p + 1) / td.d_b, total_variation(etil), p * (p + 1) / td.d_e


def _report_total_variation(vb, tb, ve, te):
    ok = abs(vb - tb) <= 0.05 * tb and abs(ve - te) <= 0.05 * te
    report(
        "criterion-8",
        ok,
        f"V(B~)={vb:.4f} vs p(p+1)/d_B={tb:.4f} "
        f"({100 * abs(vb - tb) / tb:.1f}%); "
        f"V(E~)={ve:.5f} vs p(p+1)/d_E={te:.5f} "
        f"({100 * abs(ve - te) / te:.1f}%) (tol 5%)",
    )


def test_criterion_08_total_variation_matching():
    _report_total_variation(
        *_total_variation_match(5000, p=2, q=3, m=20, n=(20, 20), nus=[1.5, 1.5], rho=0.5)
    )


# Table 1's shape: k=4, p=6, q=7, m=80 and the n3 sizes, model 1. The long
# grid (m=1000) is left out: a replication there costs too much for Tier-1.
TABLE1_SHAPE = dict(p=6, q=7, m=80, n=N_PRESETS["n3"])
TABLE1_SCENARIOS = {"S1-rho0.1": ("S1", 0.1), "S2-rho0.5": ("S2", 0.5)}


@pytest.mark.parametrize("scenario, rho", TABLE1_SCENARIOS.values(), ids=TABLE1_SCENARIOS)
def test_criterion_07_unbiasedness_at_table1_shape(scenario, rho):
    _report_unbiasedness(1000, nus=SCENARIO_NUS[scenario], rho=rho, **TABLE1_SHAPE)


@pytest.mark.parametrize("scenario, rho", TABLE1_SCENARIOS.values(), ids=TABLE1_SCENARIOS)
def test_criterion_08_total_variation_matching_at_table1_shape(scenario, rho):
    _report_total_variation(
        *_total_variation_match(2000, nus=SCENARIO_NUS[scenario], rho=rho, **TABLE1_SHAPE)
    )


def _rel(a, b, floor=1e-12):
    return abs(a - b) / max(abs(a), floor)


def test_criterion_09_invariance_suite():
    rng = np.random.default_rng(SEED + 9)
    worst_affine = 0.0
    worst_contrast = 0.0
    worst_collapse = 0.0
    collapse_checked = 0
    for _ in range(100):
        k = int(rng.integers(2, 4))
        p = int(rng.integers(1, 4))
        m = int(rng.integers(6, 11))
        n = tuple(int(rng.integers(5, 9)) for _ in range(k))
        grid = make_uniform_grid(m, 0.0, 1.0)
        # Smooth random functional samples: per-component streams on the
        # sine/cosine basis with random variance components and means.
        basis = component_stream_basis(p, 3, grid)
        lam = rng.uniform(0.4, 2.5, size=(k, 3 * p))
        means = rng.normal(size=(k, p, m)) * 0.5 + rng.normal(size=(1, p, m))
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng.integers(2**31))))
        ds = sample_curves(means, lam, basis, n, 1, gen)
        groups = [ds.group_values(i) for i in range(k)]
        spec = oneway_contrast(k)
        base = run_glht(ds, spec, alpha=0.05)

        # Proposition 1: affine transformation of the observations. The
        # transform is any nonsingular matrix mathematically; keeping its
        # condition number modest (<= 4 here) keeps the comparison within
        # floating-point reach of the 1e-8 tolerance.
        q1, _ = np.linalg.qr(rng.normal(size=(p, p)))
        q2, _ = np.linalg.qr(rng.normal(size=(p, p)))
        a = q1 @ np.diag(rng.uniform(0.5, 2.0, size=p)) @ q2
        shift = rng.normal(size=(p, m))
        transformed = [np.einsum("pq,jqt->jpt", a, g) + shift[None] for g in groups]
        ds_a = FunctionalDataset(grid, tuple(GroupSample(g) for g in transformed))
        rep_a = run_glht(ds_a, spec, alpha=0.05)

        # Proposition 2: nonsingular transformation of the contrast.
        pmat = rng.normal(size=(k - 1, k - 1)) + 2.0 * np.eye(k - 1)
        rep_c = run_glht(ds, ContrastSpec(pmat @ spec.c), alpha=0.05)

        for other, bucket in ((rep_a, "affine"), (rep_c, "contrast")):
            gap = 0.0
            for name in STATS:
                gap = max(gap, _rel(base.statistics.by_name(name), other.statistics.by_name(name)))
                gap = max(gap, _rel(base.p_values[name], other.p_values[name], floor=1e-6))
            gap = max(gap, _rel(base.dof.d_b, other.dof.d_b))
            gap = max(gap, _rel(base.dof.d_e, other.dof.d_e))
            if bucket == "affine":
                worst_affine = max(worst_affine, gap)
            else:
                worst_contrast = max(worst_contrast, gap)

        if p == 1 and base.dof.d_b >= 2.0 and base.dof.d_e > 5.0:
            collapse_checked += 1
            triples = [
                (fa.f_stat, fa.df1, fa.df2) for fa in (base.approx[name] for name in STATS)
            ]
            for trip in triples[1:]:
                for x, y in zip(triples[0], trip):
                    worst_collapse = max(worst_collapse, _rel(x, y, floor=1e-9))

    ok = (
        worst_affine <= 1e-8
        and worst_contrast <= 1e-8
        and worst_collapse <= 1e-9
        and collapse_checked >= 10
    )
    report(
        "criterion-9",
        ok,
        f"100 instances: worst affine gap {worst_affine:.2e} <= 1e-8, worst contrast gap "
        f"{worst_contrast:.2e} <= 1e-8, p=1 collapse gap {worst_collapse:.2e} <= 1e-9 "
        f"on {collapse_checked} eligible instances",
    )


def test_criterion_10_f_cdf_lattice():
    def density(u, d1, d2):
        log_num = (d1 / 2) * np.log(d1 / d2) + (d1 / 2 - 1) * np.log(u)
        log_den = (d1 + d2) / 2 * np.log1p(d1 * u / d2) + betaln(d1 / 2, d2 / 2)
        return np.exp(log_num - log_den)

    def quad_oracle(x, d1, d2):
        # For d1 < 2 the density has an integrable singularity at zero;
        # substituting u = s^(2/d1) makes the integrand bounded.
        if d1 >= 2.0:
            value, _ = scipy.integrate.quad(
                density, 0.0, x, args=(d1, d2), limit=300, epsabs=1e-12, epsrel=1e-12
            )
            return value
        k = 2.0 / d1

        def transformed(s):
            return density(s**k, d1, d2) * k * s ** (k - 1.0)

        value, _ = scipy.integrate.quad(
            transformed, 0.0, x ** (1.0 / k), limit=300, epsabs=1e-12, epsrel=1e-12
        )
        return value

    rng = np.random.default_rng(SEED + 10)
    worst_quad = 0.0
    checked = 0
    # 150 random lattice points with fractional df against adaptive quadrature.
    for _ in range(150):
        d1 = float(rng.uniform(0.4, 15.0))
        d2 = float(rng.uniform(0.4, 60.0))
        x = float(rng.uniform(0.02, 10.0))
        worst_quad = max(worst_quad, abs(f_cdf(x, d1, d2) - quad_oracle(x, d1, d2)))
        checked += 1
    # 25 df1=2 closed-form points and 25 df1=df2=1 closed-form points.
    worst_closed = 0.0
    for _ in range(25):
        d2 = float(rng.uniform(0.5, 50.0))
        x = float(rng.uniform(0.01, 12.0))
        closed = 1.0 - (1.0 + 2.0 * x / d2) ** (-d2 / 2.0)
        worst_closed = max(worst_closed, abs(f_cdf(x, 2.0, d2) - closed))
        checked += 1
    for _ in range(25):
        x = float(rng.uniform(0.01, 12.0))
        closed = 2.0 / np.pi * np.arctan(np.sqrt(x))
        worst_closed = max(worst_closed, abs(f_cdf(x, 1.0, 1.0) - closed))
        checked += 1
    ok = worst_quad <= 1e-9 and worst_closed <= 1e-9 and checked >= 200
    report(
        "criterion-10",
        ok,
        f"{checked} lattice points: worst |cdf - quadrature| = {worst_quad:.2e}, "
        f"worst |cdf - closed form| = {worst_closed:.2e} (tol 1e-9)",
    )
