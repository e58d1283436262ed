import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.special
import scipy.stats

import mfdglht
from mfdglht import (
    ApproximationUndefinedError,
    ContrastSpec,
    InputError,
    SimConfig,
    SingularErrorMatrixError,
    ValidationError,
    f_approx_mflh,
    f_approx_mfp,
    f_approx_mfw,
    f_cdf,
    f_sf,
    fstats,
    gen_sample,
    load_config_file,
    quad_weights,
    run_glht,
    statistics,
)
from mfdglht.fstats import _betainc, _theta
from mfdglht.glht import _USTAT_N, _design
from oracles import inv_sqrt_spd


def test_statistics_identity_matrices():
    st = statistics(np.eye(2), np.eye(2))
    assert st.mfw == pytest.approx(0.25, rel=1e-12)
    assert st.mflh == pytest.approx(2.0, rel=1e-12)
    assert st.mfp == pytest.approx(1.0, rel=1e-12)


def test_statistics_null_m1():
    st = statistics(np.zeros((3, 3)), np.diag([1.0, 2.0, 3.0]))
    assert st.mfw == pytest.approx(1.0, rel=1e-12)
    assert st.mflh == pytest.approx(0.0, abs=1e-15)
    assert st.mfp == pytest.approx(0.0, abs=1e-15)


def test_statistics_scalar_identities():
    st = statistics(np.array([[2.0]]), np.array([[3.0]]))
    assert st.mfw == pytest.approx(0.6, rel=1e-12)
    assert st.mflh == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert st.mfp == pytest.approx(0.4, rel=1e-12)
    assert st.mflh == pytest.approx((1 - st.mfw) / st.mfw, rel=1e-12)
    assert st.mfp == pytest.approx(1 - st.mfw, rel=1e-12)


def test_statistics_rejects_indefinite_m2():
    with pytest.raises(SingularErrorMatrixError):
        statistics(np.eye(2), np.diag([1.0, -1.0]))


def test_statistics_rejects_singular_m2():
    with pytest.raises(SingularErrorMatrixError):
        statistics(np.eye(2), np.outer([1.0, 1.0], [1.0, 1.0]))


def test_statistics_rejects_subnormal_m2():
    # Finite, but the reciprocal square roots of its diagonal overflow when multiplied.
    with pytest.raises(SingularErrorMatrixError):
        statistics(1e-309 * np.eye(2), 1e-309 * np.eye(2))


def test_statistics_reports_an_overflowing_product():
    # Both matrices are finite; M2^{-1} M1 = 1e310 I is not.
    with pytest.raises(ValidationError, match=r"M2\^\{-1\} M1 overflows float64"):
        statistics(1e10 * np.eye(2), 1e-300 * np.eye(2))


def test_statistics_rejects_rank_deficient_m2_in_every_draw():
    # A rank-3 4x4 M2 often leaves LAPACK's Cholesky a tiny positive pivot
    # rather than a nonpositive one, so the factorization alone misses it.
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.normal(size=(4, 6))
        x = rng.normal(size=(4, 3))
        with pytest.raises(SingularErrorMatrixError):
            statistics(a @ a.T, x @ x.T)


def test_f_cdf_symmetry_point():
    assert f_cdf(1.0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-12)


def test_f_cdf_closed_form_df1_2():
    # For df1 = 2: F(x) = 1 - (1 + 2x/df2)^(-df2/2).
    assert f_cdf(1.0, 2.0, 10.0) == pytest.approx(1.0 - 1.2**-5, rel=1e-12)


def test_f_cdf_limits():
    assert f_cdf(0.0, 3.0, 7.0) == 0.0
    assert f_cdf(1e9, 3.0, 7.0) == pytest.approx(1.0, abs=1e-9)


def test_f_cdf_invalid_args():
    with pytest.raises(InputError):
        f_cdf(1.0, 0.0, 2.0)
    with pytest.raises(InputError):
        f_cdf(-0.5, 1.0, 2.0)


def test_f_sf_complements_cdf():
    for x, d1, d2 in [(0.7, 2.5, 11.0), (3.2, 6.0, 38.0), (1.1, 0.7, 0.9)]:
        assert f_sf(x, d1, d2) == pytest.approx(1.0 - f_cdf(x, d1, d2), abs=1e-13)


@pytest.mark.parametrize("hi, rtol", [(1e3, 1e-11), (1e5, 1e-9)], ids=["to-1e3", "to-1e5"])
def test_betainc_matches_scipy(hi, rtol):
    # Log-uniform a, b in [0.05, hi] and x or 1 - x in [1e-12, 0.5]. The
    # oracle takes x alone, so y is formed from x the way it forms it.
    rng = np.random.default_rng(int(hi))
    a, b = np.exp(rng.uniform(np.log(0.05), np.log(hi), size=(2, 3000)))
    tail = np.exp(rng.uniform(np.log(1e-12), np.log(0.5), size=3000))
    x = np.where(rng.random(3000) < 0.5, tail, 1.0 - tail)
    want = scipy.special.betainc(a, b, x)
    kept = want >= 1e-250  # the log prefactor's rounding is relative above underflow
    assert kept.sum() > 1500
    got = np.array([_betainc(*args) for args in zip(a[kept].tolist(), b[kept].tolist(),
                                                      x[kept].tolist(), (1.0 - x[kept]).tolist())])
    assert np.allclose(got, want[kept], rtol=rtol, atol=0)


def test_f_tails_match_scipy_with_one_large_df():
    # df1 <= 10 and df2 up to 1e12: one beta argument below 10 and one far
    # above it, where lgamma(a + b) - lgamma(b) would cancel at the scale of
    # lgamma itself. x spans the central 99.98% of F(df1, df2).
    rng = np.random.default_rng(25)
    df1 = rng.uniform(0.2, 10.0, 500)
    df2 = np.exp(rng.uniform(np.log(20.0), np.log(1e12), 500))
    df2[:3] = 1e7, 1e9, 1e12
    x = scipy.stats.chi2.ppf(rng.uniform(1e-4, 1 - 1e-4, 500), df1) / df1
    x[:3] = 1.0
    for tail, oracle in ((f_sf, scipy.stats.f.sf), (f_cdf, scipy.stats.f.cdf)):
        got = np.array([tail(*args) for args in zip(x.tolist(), df1.tolist(), df2.tolist())])
        assert np.allclose(got, oracle(x, df1, df2), rtol=1e-10, atol=0)


def test_betainc_edges():
    assert _betainc(2.5, 0.5, 0.0, 1.0) == 0.0
    assert _betainc(2.5, 0.5, 1.0, 0.0) == 1.0
    assert f_sf(np.inf, 2.5, 0.5) == 0.0
    assert f_cdf(np.inf, 2.5, 0.5) == 1.0
    assert f_sf(0.0, 2.5, 0.5) == 1.0


def test_betainc_iteration_cap_raises_typed_error(monkeypatch):
    monkeypatch.setattr(fstats, "BETAINC_MAX_ITER", 1)
    with pytest.raises(ApproximationUndefinedError) as err:
        _betainc(40.0, 60.0, 0.7, 0.3)
    assert str(err.value) == ("incomplete beta continued fraction did not converge in 1 "
                              "terms (a=40, b=60, x=0.7)")
    with pytest.raises(ApproximationUndefinedError):
        f_sf(2.0, 6.0, 40.0)


def test_f_cdf_against_quadrature_oracle():
    # Independent oracle: adaptive quadrature of the F density, fractional
    # degrees of freedom included.
    from scipy.special import betaln

    def density(u, d1, d2):
        log_num = (d1 / 2) * np.log(d1 / d2) + (d1 / 2 - 1) * np.log(u)
        log_den = (d1 + d2) / 2 * np.log1p(d1 * u / d2) + betaln(d1 / 2, d2 / 2)
        return np.exp(log_num - log_den)

    rng = np.random.default_rng(0)
    for _ in range(15):
        d1 = float(rng.uniform(0.5, 12.0))
        d2 = float(rng.uniform(0.5, 40.0))
        x = float(rng.uniform(0.05, 8.0))
        oracle, err = scipy.integrate.quad(density, 0.0, x, args=(d1, d2), limit=200)
        assert f_cdf(x, d1, d2) == pytest.approx(oracle, abs=1e-9)


def test_mfw_approx_t_equals_one_never_rejects():
    fa = f_approx_mfw(1.0, 2, 5.0, 30.0)
    assert fa.f_stat == pytest.approx(0.0, abs=1e-12)


def test_mfw_approx_p1_reduction():
    # p=1, d_B > 2: theta1 = 1, df = (d_B, d_E), F = (d_E/d_B)(1-t)/t.
    t, d_b, d_e = 0.37, 4.2, 17.0
    fa = f_approx_mfw(t, 1, d_b, d_e)
    assert fa.df1 == pytest.approx(d_b, rel=1e-12)
    assert fa.df2 == pytest.approx(d_e, rel=1e-12)
    assert fa.f_stat == pytest.approx((d_e / d_b) * (1 - t) / t, rel=1e-12)


def test_mfw_approx_hand_values():
    fa = f_approx_mfw(0.5, 2, 3.0, 20.0)
    assert fa.aux["theta1"] == pytest.approx(2.0, rel=1e-12)
    assert fa.aux["theta2"] == pytest.approx(20.0, rel=1e-12)
    assert fa.aux["theta3"] == pytest.approx(2.0, rel=1e-12)
    assert fa.df1 == pytest.approx(6.0)
    assert fa.df2 == pytest.approx(38.0)
    root = np.sqrt(0.5)
    assert fa.f_stat == pytest.approx((38.0 / 6.0) * (1 - root) / root, rel=1e-12)
    assert fa.f_stat == pytest.approx(2.623, abs=5e-4)


def test_mflh_approx_zero_statistic():
    fa = f_approx_mflh(0.0, 2, 3.0, 20.0)
    assert fa.f_stat == 0.0


def test_mflh_approx_p1_reduction():
    t, d_b, d_e = 0.8, 3.0, 12.0
    fa = f_approx_mflh(t, 1, d_b, d_e)
    assert fa.branch == "MFLH-pos-nu2"
    assert fa.df1 == pytest.approx(d_b, rel=1e-12)
    assert fa.df2 == pytest.approx(d_e, rel=1e-9)
    assert fa.f_stat == pytest.approx((d_e / d_b) * t, rel=1e-9)


def test_mflh_approx_hand_values():
    fa = f_approx_mflh(1.0, 2, 3.0, 20.0)
    assert fa.aux["nu2"] == pytest.approx(8.5)
    assert fa.aux["phi2"] == pytest.approx(380.0 / 270.0, rel=1e-12)
    assert fa.df1 == pytest.approx(6.0)
    assert fa.df2 == pytest.approx(4.0 + 8.0 / (380.0 / 270.0 - 1.0), rel=1e-12)
    assert fa.df2 == pytest.approx(23.64, abs=5e-3)
    assert fa.aux["phi1"] == pytest.approx(1.2726, abs=5e-4)
    # Exact value of the printed formulas: (4 + 270*8/110) / (6 * (2 + 270*8/110)/17).
    assert fa.f_stat == pytest.approx(3.0952380952380953, rel=1e-12)
    assert fa.f_stat == pytest.approx(3.096, abs=1e-3)


def test_mflh_negative_nu2_branch():
    # d_E small enough for nu2 <= 0 while df2 stays positive.
    fa = f_approx_mflh(0.5, 2, 3.0, 2.5)
    assert fa.branch == "MFLH-neg-nu2"
    nu1 = (abs(3.0 - 2) - 1) / 2
    nu2 = (2.5 - 2 - 1) / 2
    s = 2.0
    assert fa.df1 == pytest.approx(s * (2 * nu1 + s + 1))
    assert fa.df2 == pytest.approx(2 * (s * nu2 + 1))
    assert fa.f_stat == pytest.approx(fa.df2 * 0.5 / (s * s * (2 * nu1 + s + 1)), rel=1e-12)


def test_mflh_pole_fallback_flagged():
    # nu2 = 1 exactly: the positive branch has a pole, fall back.
    p, d_e = 2, 5.0
    fa = f_approx_mflh(0.5, p, 3.0, d_e)
    assert fa.branch == "MFLH-neg-nu2"
    assert fa.pole_fallback


def test_mflh_undefined_when_df2_nonpositive():
    # nu2 very negative makes 2(s nu2 + 1) <= 0.
    with pytest.raises(ApproximationUndefinedError):
        f_approx_mflh(0.5, 4, 5.0, 1.0)


def test_mfp_approx_zero_statistic():
    fa = f_approx_mfp(0.0, 2, 3.0, 20.0)
    assert fa.f_stat == 0.0


def test_mfp_approx_p1_reduction():
    t, d_b, d_e = 0.3, 4.0, 11.0
    fa = f_approx_mfp(t, 1, d_b, d_e)
    assert fa.df1 == pytest.approx(d_b, rel=1e-12)
    assert fa.df2 == pytest.approx(d_e, rel=1e-12)
    assert fa.f_stat == pytest.approx((d_e / d_b) * t / (1 - t), rel=1e-12)


def test_mfp_approx_hand_values():
    fa = f_approx_mfp(1.0, 2, 3.0, 20.0)
    assert fa.f_stat == pytest.approx(20.0 / 3.0, rel=1e-12)
    assert fa.df1 == pytest.approx(6.0)
    assert fa.df2 == pytest.approx(40.0)


def test_mfp_rejects_boundary_statistic():
    with pytest.raises(ApproximationUndefinedError):
        f_approx_mfp(2.0, 2, 3.0, 20.0)


def test_mfw_undefined_when_df2_nonpositive():
    # Tiny d_E drives theta1*theta2 - theta3 below zero.
    with pytest.raises(ApproximationUndefinedError):
        f_approx_mfw(0.5, 2, 3.0, 0.9)


def test_mfw_theta_fallback_flagged_for_tiny_db():
    # p^2 + d_B^2 - 5 > 0 but p^2 d_B^2 - 4 < 0: the printed theta1 would be
    # imaginary; the fallback uses theta1 = 1 and flags it.
    fa = f_approx_mfw(0.5, 4, 0.4, 50.0)
    assert fa.pole_fallback
    assert fa.aux["theta1"] == 1.0


def test_statistic_range_validation():
    from mfdglht import ValidationError

    with pytest.raises(ValidationError):
        f_approx_mfw(0.0, 2, 3.0, 20.0)
    with pytest.raises(ValidationError):
        f_approx_mfw(1.5, 2, 3.0, 20.0)
    with pytest.raises(ValidationError):
        f_approx_mflh(-0.1, 2, 3.0, 20.0)


def test_p1_triple_collapse():
    # For p=1 with d_B >= 2 and d_E > 5 all three approximations yield the
    # same (F, df1, df2) triple when fed the corresponding statistics.
    rng = np.random.default_rng(1)
    for _ in range(30):
        d_b = float(rng.uniform(2.0, 40.0))
        d_e = float(rng.uniform(5.01, 200.0))
        m1 = float(rng.uniform(0.01, 5.0))
        m2 = float(rng.uniform(0.1, 5.0))
        st = statistics(np.array([[m1]]), np.array([[m2]]))
        fw = f_approx_mfw(st.mfw, 1, d_b, d_e)
        fl = f_approx_mflh(st.mflh, 1, d_b, d_e)
        fp = f_approx_mfp(st.mfp, 1, d_b, d_e)
        for fa in (fl, fp):
            assert fa.f_stat == pytest.approx(fw.f_stat, rel=1e-9)
            assert fa.df1 == pytest.approx(fw.df1, rel=1e-9)
            assert fa.df2 == pytest.approx(fw.df2, rel=1e-9)
        p_vals = [f_sf(fa.f_stat, fa.df1, fa.df2) for fa in (fw, fl, fp)]
        assert max(p_vals) - min(p_vals) <= 1e-9


def test_p_value_monotone_in_evidence():
    p, d_b, d_e = 3, 8.0, 60.0
    wilks = np.linspace(0.05, 1.0, 25)
    pw = [f_sf(*(lambda fa: (fa.f_stat, fa.df1, fa.df2))(f_approx_mfw(t, p, d_b, d_e))) for t in wilks]
    assert np.all(np.diff(pw) >= -1e-12)  # p-value increases with the Wilks statistic
    lh = np.linspace(0.0, 5.0, 25)
    pl = [f_sf(*(lambda fa: (fa.f_stat, fa.df1, fa.df2))(f_approx_mflh(t, p, d_b, d_e))) for t in lh]
    assert np.all(np.diff(pl) <= 1e-12)
    pillai = np.linspace(0.0, 2.9, 25)
    pp = [f_sf(*(lambda fa: (fa.f_stat, fa.df1, fa.df2))(f_approx_mfp(t, p, d_b, d_e))) for t in pillai]
    assert np.all(np.diff(pp) <= 1e-12)


def test_f_approx_matches_scipy_reference():
    # Spot check the p-value mapping against scipy's F distribution.
    fa = f_approx_mfw(0.62, 2, 6.0, 44.0)
    assert f_sf(fa.f_stat, fa.df1, fa.df2) == pytest.approx(
        scipy.stats.f.sf(fa.f_stat, fa.df1, fa.df2), rel=1e-10
    )


def test_mflh_phi2_below_one_falls_back_with_phi2_in_aux():
    # nu2 = 0.5 > 0 but phi2 = (2 + 1)(3 + 1) / (2 * 2 * -0.5) = -6 <= 1.
    fa = f_approx_mflh(0.5, 2, 3.0, 4.0)
    assert fa.branch == "MFLH-neg-nu2"
    assert fa.pole_fallback
    assert fa.aux["phi2"] == -6.0
    assert "phi1" not in fa.aux
    assert (fa.df1, fa.df2) == (6.0, 4.0)


def test_mfw_zero_denominator_uses_theta1_one_unflagged():
    # p^2 + d_B^2 - 5 = 0: theta1 = 1 without a fallback flag.
    fa = f_approx_mfw(0.5, 1, 2.0, 20.0)
    assert fa.aux["theta1"] == 1.0
    assert not fa.pole_fallback
    assert fa.f_stat == pytest.approx(10.0, rel=1e-12)


def _random_pair(rng, p, decades):
    # The error matrix inherits its conditioning from the components' scales,
    # as M2 = d_E * Omega does from the curves: M = D A D with D spanning
    # ``decades`` and A a well-conditioned Wishart draw. (Under a rotated
    # ill-conditioning any two stable algorithms agree only to cond * eps.)
    scale = np.logspace(0.0, -decades, p)
    y = rng.standard_normal((p, p + 6))
    x = rng.standard_normal((p, int(rng.integers(1, p + 3))))
    m1 = (x @ x.T) * np.outer(scale, scale) * rng.uniform(0.01, 10.0)
    return m1, (y @ y.T) * np.outer(scale, scale)


def test_statistics_match_definitions_over_random_pairs():
    rng = np.random.default_rng(11)
    conds = []
    for p in range(1, 9):
        for decades in (0.0, 1.0, 2.5, 4.0):
            m1, m2 = _random_pair(rng, p, decades)
            conds.append(np.linalg.cond(m2))
            st = statistics(m1, m2)
            m1, m2 = st.m1, st.m2
            _, logdet2 = np.linalg.slogdet(m2)
            _, logdet12 = np.linalg.slogdet(m1 + m2)
            assert st.mfw == pytest.approx(np.exp(logdet2 - logdet12), rel=1e-10)
            assert st.mflh == pytest.approx(np.trace(np.linalg.solve(m2, m1)), rel=1e-10)
            assert st.mfp == pytest.approx(np.trace(np.linalg.solve(m1 + m2, m1)), rel=1e-10)
    assert max(conds) > 1e8


def test_theta_matches_scipy_generalized_eigh():
    # Through the root that statistics takes (M2 scaled to unit diagonal),
    # the helper gives the generalized eigenvalues that
    # scipy.linalg.eigh(M1, M2) gives, on 200 random SPD pairs.
    rng = np.random.default_rng(17)
    for _ in range(200):
        p = int(rng.integers(1, 9))
        m1, m2 = _random_pair(rng, p, rng.uniform(0.0, 2.0))
        m1 = m1 + np.eye(p) * rng.uniform(0.0, 1.0) * np.trace(m1) / p  # SPD, not only PSD
        want = scipy.linalg.eigh(m1, m2, eigvals_only=True)
        scale = 1.0 / np.sqrt(np.diag(m2))
        got = _theta(inv_sqrt_spd(m2 * np.outer(scale, scale)) * scale, m1)
        assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


BUNDLED_CONFIGS = sorted(
    (Path(mfdglht.__file__).parent / "configs").glob("*.json"), key=lambda path: path.name
)


@pytest.mark.parametrize("path", BUNDLED_CONFIGS, ids=lambda path: path.stem)
def test_pass_reads_theta_through_the_pooled_root(path, monkeypatch):
    # The per-dataset pass factors the pooled matrix once (one eigh) and takes
    # theta from its root (one eigvalsh), and that theta is the one
    # statistics(d_b B, d_e Omega-hat) computes from scratch.
    calls = Counter()

    def counting(name, run):
        def counted(*args, **kwargs):
            calls[name] += 1
            return run(*args, **kwargs)

        return counted

    for name in ("eigh", "eigvalsh", "cholesky", "inv", "svd"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    thetas = []
    theta_of = fstats._theta
    monkeypatch.setattr(fstats, "_theta", lambda *args: thetas.append(theta_of(*args)) or thetas[-1])
    for cfg in load_config_file(str(path))[:3]:
        design = _design(cfg.contrast_spec(), cfg.n, quad_weights(cfg.grid()), cfg.p, cfg.m, _USTAT_N)
        for seed in (1, 2, 3):
            groups = gen_sample(cfg, [seed, 0]).groups
            calls.clear()
            _, m1, m2, theta = fstats._dof_and_statistics(
                design, [groups[i].values for i in design.touched]
            )
            assert calls == {"eigh": 1, "eigvalsh": 1}
            statistics(m1, m2)
            assert np.allclose(theta, thetas[-1], rtol=0, atol=1e-12 * np.abs(theta).max())


def test_statistics_rejects_indefinite_m1():
    with pytest.raises(ValidationError, match="positive semidefinite"):
        statistics(np.diag([1.0, -0.5]), np.eye(2))


APPROXIMATIONS = {"mfw": f_approx_mfw, "mflh": f_approx_mflh, "mfp": f_approx_mfp}


@pytest.mark.parametrize("name", sorted(APPROXIMATIONS))
@pytest.mark.parametrize(
    "d_b, d_e",
    [(np.nan, 20.0), (3.0, np.nan), (np.inf, 20.0), (3.0, np.inf), (-np.inf, 20.0)],
    ids=["nan-db", "nan-de", "inf-db", "inf-de", "neginf-db"],
)
def test_f_approx_rejects_nonfinite_dof(name, d_b, d_e):
    with pytest.raises(ValidationError, match="finite"):
        APPROXIMATIONS[name](0.5, 2, d_b, d_e)


@pytest.mark.parametrize("name", sorted(APPROXIMATIONS))
def test_f_approx_rejects_nan_statistic(name):
    with pytest.raises(ValidationError):
        APPROXIMATIONS[name](np.nan, 2, 3.0, 20.0)


@pytest.mark.parametrize("fn", [f_cdf, f_sf], ids=["cdf", "sf"])
@pytest.mark.parametrize(
    "x, df1, df2",
    [(np.nan, 2.0, 3.0), (1.0, np.nan, 3.0), (1.0, 2.0, np.nan), (1.0, np.inf, 3.0),
     (1.0, 2.0, np.inf)],
    ids=["nan-x", "nan-df1", "nan-df2", "inf-df1", "inf-df2"],
)
def test_f_distribution_rejects_nonfinite_args(fn, x, df1, df2):
    with pytest.raises(InputError):
        fn(x, df1, df2)


def test_f_distribution_at_infinite_x():
    assert f_sf(np.inf, 2.0, 3.0) == 0.0
    assert f_cdf(np.inf, 2.0, 3.0) == 1.0


@pytest.mark.parametrize("which", ["m1", "m2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_statistics_rejects_nonfinite_entries(which, bad):
    pair = {"m1": np.eye(2), "m2": np.eye(2)}
    pair[which][0, 1] = pair[which][1, 0] = bad
    with pytest.raises(ValidationError, match="finite"):
        statistics(pair["m1"], pair["m2"])


def _reject_constant(token):
    raise ValueError(f"bare {token} in JSON")


def test_report_json_is_strict_for_an_untouched_group():
    # Group 3 has a zero column, so its functionals are NaN in the report
    # object and null in its JSON, never a bare NaN token.
    with pytest.raises(ValueError):
        json.loads("[NaN, Infinity]", parse_constant=_reject_constant)
    ds = gen_sample(SimConfig(n=(6, 5, 7, 8), m=12, reps=1, seed=3), [3, 0])
    report = run_glht(ds, ContrastSpec(np.array([[1.0, -3.0, 0.0, 2.0]])))
    assert np.isnan(report.dof.within[2].i_hat)
    dof = json.loads(report.to_json(), parse_constant=_reject_constant)["dof"]
    assert set(dof["within"][2].values()) == {None}
    assert all(isinstance(v, float) for i in (0, 1, 3) for v in dof["within"][i].values())
    for name in ("i_cross", "t_cross"):
        assert all(row[2] is None for row in dof[name])
        assert dof[name][2] == [None] * 4
        assert dof[name][0][3] == getattr(report.dof, name)[0, 3]


def test_statistics_rejects_non_square_input():
    with pytest.raises(ValidationError) as err:
        statistics(np.zeros((2, 3)), np.eye(2))
    assert type(err.value) is ValidationError
    assert str(err.value) == "M1 and M2 must be square matrices of equal size"


def test_f_sf_rejects_negative_x():
    with pytest.raises(InputError) as err:
        f_sf(-0.5, 1, 2)
    assert type(err.value) is InputError
    assert str(err.value) == "the F distribution is supported on x >= 0"
