import numpy as np
import pytest

from mfdglht import (
    DegeneracyError,
    DegenerateDofError,
    InputError,
    SimConfig,
    SingularOmegaError,
    ValidationError,
    are_metric,
    component_stream_basis,
    component_stream_lambdas,
    gen_sample,
    make_uniform_grid,
    permutation_pvalue,
    quad_weights,
    run_glht,
    size_power_study,
)
from mfdglht import build_glht, dof_estimates, statistics
from mfdglht import simulate
from mfdglht.dataset import FunctionalDataset, GroupSample
from mfdglht.fstats import STATISTIC_NAMES
from mfdglht.glht import ContrastSpec, oneway_contrast
from mfdglht.simulate import (
    component_weights,
    draw_innovations,
    lambda_grid,
    mean_functions,
    scalar_basis,
)
from oracles import basis_functions, sample_curves


def test_mean_functions_equal_across_groups_at_delta_zero():
    grid = make_uniform_grid(20, 0.0, 1.0)
    means = mean_functions(6, grid, 0.0)
    assert np.allclose(means[0], means[1])
    assert np.allclose(means[0], means[2])
    assert np.allclose(means[0], means[3])


def test_mean_functions_third_component_value():
    grid = make_uniform_grid(3, 0.0, 1.0)  # includes t = 0.5
    means = mean_functions(6, grid, 0.0)
    assert means[0, 2, 1] == pytest.approx(0.5 ** (1.0 / 3.0) * 0.5 - 5.0, rel=1e-12)
    assert means[0, 2, 1] == pytest.approx(-4.60315, abs=5e-6)


def test_mean_functions_delta_shift_constant_term():
    grid = make_uniform_grid(5, 0.0, 1.0)
    delta = 0.7
    means = mean_functions(6, grid, delta)
    # At t=0 only the constant coefficient differs: delta / sqrt(30).
    assert means[2, 5, 0] - means[0, 5, 0] == pytest.approx(delta / np.sqrt(30.0), rel=1e-12)
    # Components 1..5 never shift.
    assert np.allclose(means[2, :5], means[0, :5])


def test_mean_functions_require_p6():
    grid = make_uniform_grid(4, 0.0, 1.0)
    with pytest.raises(Exception):
        mean_functions(3, grid, 0.0)


def test_component_weights_p6():
    c = component_weights(6)
    assert np.allclose(c, np.arange(1, 7) / np.sqrt(91.0))
    assert np.sum(c**2) == pytest.approx(1.0, rel=1e-12)


def test_scalar_basis_orthogonality_on_fine_grid():
    grid = make_uniform_grid(80, 0.0, 1.0)
    w = quad_weights(grid).weights
    psi = scalar_basis(7, grid)
    assert abs(float(np.einsum("t,t,t->", psi[1], psi[2], w))) < 1e-3
    gram = np.einsum("rt,mt,t->rm", psi, psi, w)
    assert np.allclose(gram, np.eye(7), atol=2e-3)


def test_basis_functions_unit_norm():
    grid = make_uniform_grid(80, 0.0, 1.0)
    w = quad_weights(grid).weights
    phi = basis_functions(6, 7, grid)
    # psi_1 is constant so the first curve integrates to exactly 1.
    assert float(np.einsum("pt,pt,t->", phi[0], phi[0], w)) == pytest.approx(1.0, rel=1e-12)
    norms = np.einsum("rpt,rpt,t->r", phi, phi, w)
    assert np.allclose(norms, 1.0, atol=2e-3)


def test_component_stream_basis_integrated_covariance():
    grid = make_uniform_grid(40, 0.0, 1.0)
    w = quad_weights(grid).weights
    p, q = 3, 5
    basis = component_stream_basis(p, q, grid)
    lam = component_stream_lambdas([2.0], 0.5, q, p)
    # Integrated covariance of the construction: sum_r lambda_r * diag(c^2).
    sigma = np.einsum("r,rpt,rqt,t->pq", lam[0], basis, basis, w)
    c = component_weights(p)
    target = lambda_grid([2.0], 0.5, q).sum() * np.diag(c**2)
    assert np.allclose(sigma, target, atol=2e-3)


def test_lambda_values():
    lam = lambda_grid([1.5], 0.5, 3)
    assert lam[0, 0] == pytest.approx(0.75, rel=1e-12)
    assert lam[0, 1] == pytest.approx(0.375, rel=1e-12)


def test_innovation_moments_all_models():
    rng = np.random.default_rng(123)
    n = 200_000
    for model in (1, 2, 3):
        eps = draw_innovations(rng, (n,), model)
        se_mean = eps.std() / np.sqrt(n)
        assert abs(eps.mean()) <= 4 * se_mean
        # variance of the sample variance ~ (kurtosis-adjusted) / n
        var = eps.var()
        se_var = np.sqrt(max((eps**4).mean() - var**2, 0.0) / n)
        assert abs(var - 1.0) <= 4 * se_var


def test_gen_sample_deterministic():
    cfg = SimConfig(n="n1", rho=0.5, scenario="S1", model=2, reps=1, seed=9)
    a = gen_sample(cfg, [9, 0])
    b = gen_sample(cfg, [9, 0])
    for i in range(a.k):
        assert np.array_equal(a.group_values(i), b.group_values(i))
    c = gen_sample(cfg, [9, 1])
    assert not np.array_equal(a.group_values(0), c.group_values(0))


def test_sample_curves_shapes_and_means():
    grid = make_uniform_grid(12, 0.0, 1.0)
    basis = component_stream_basis(2, 3, grid)
    lam = component_stream_lambdas([1.0, 2.0], 0.5, 3, 2)
    means = np.stack([np.zeros((2, 12)), np.ones((2, 12))])
    rng = np.random.default_rng(0)
    ds = sample_curves(means, lam, basis, (40, 60), 1, rng)
    assert ds.n == (40, 60)
    assert ds.p == 2
    grand = ds.group_values(1).mean(axis=0)
    assert np.allclose(grand, 1.0, atol=0.5)


def test_sample_curves_dense_basis_matches_einsum_definition():
    # A dense basis exercises every term of the product, unlike the sparse
    # component basis.
    k, p, q, m, n = 3, 4, 5, 9, (6, 7, 8)
    grid = make_uniform_grid(m, 0.0, 1.0)
    rng = np.random.default_rng(12)
    means = rng.normal(size=(k, p, m))
    lam = rng.uniform(0.1, 2.0, size=(k, q))
    basis = rng.normal(size=(q, p, m))
    ds = sample_curves(means, lam, basis, n, 2, np.random.default_rng(5))
    ref_rng = np.random.default_rng(5)
    for i in range(k):
        eps = draw_innovations(ref_rng, (n[i], q), 2)
        expected = means[i] + np.einsum("jr,rpm->jpm", eps * np.sqrt(lam[i]), basis)
        assert np.allclose(ds.group_values(i), expected, rtol=1e-12, atol=1e-12)
    assert np.array_equal(ds.grid.points, grid.points)


def test_size_power_study_single_rep_rate_in_0_or_100():
    cfg = SimConfig(n=(5, 5, 5, 5), rho=0.5, model=1, reps=1, seed=3)
    res = size_power_study(cfg)
    for name in ("mfw", "mflh", "mfp"):
        assert res.rate_percent(name) in (0.0, 100.0)


STUDY_CFG = SimConfig(n=(5, 5, 5, 5), rho=0.5, model=1, reps=6, seed=4)


def test_size_power_study_matches_per_replication_seeds():
    # Replication r draws from SeedSequence([seed, r]); nothing else feeds it.
    res = size_power_study(STUDY_CFG)
    spec = STUDY_CFG.contrast_spec()
    rejections = dict.fromkeys(STATISTIC_NAMES, 0)
    errored = 0
    for rep in range(STUDY_CFG.reps):
        ds = gen_sample(STUDY_CFG, [STUDY_CFG.seed, rep])
        try:
            decisions = run_glht(ds, spec, alpha=STUDY_CFG.alpha).decisions
        except DegeneracyError:
            errored += 1
            continue
        for name in STATISTIC_NAMES:
            rejections[name] += decisions[name]
    assert res.rejections == rejections
    assert res.errored == errored
    assert res.completed == STUDY_CFG.reps - errored


def test_size_power_study_builds_setting_constants_once(monkeypatch):
    calls = {"component_stream_basis": 0, "mean_functions": 0}

    def counted(name):
        original = getattr(simulate, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(simulate, name, counted(name))
    size_power_study(STUDY_CFG)
    assert calls == {"component_stream_basis": 1, "mean_functions": 1}


def test_size_power_study_errored_replication_accounting(monkeypatch):
    seen = []
    per_dataset_pass = simulate._dof_and_statistics

    def failing_on(errors):
        def fake_pass(design, values):
            rep = len(seen)
            seen.append(rep)
            if rep in errors:
                raise errors[rep](f"forced on replication {rep}")
            return per_dataset_pass(design, values)

        return fake_pass

    # Degeneracies are counted as errored, by kind, and leave the rate denominator.
    monkeypatch.setattr(
        simulate, "_dof_and_statistics",
        failing_on({1: DegenerateDofError, 4: SingularOmegaError}),
    )
    res = size_power_study(STUDY_CFG)
    assert seen == list(range(6))
    assert res.errored == 2
    assert res.completed == 4
    assert res.errors_by_kind == {"DegenerateDofError": 1, "SingularOmegaError": 1}
    spec = STUDY_CFG.contrast_spec()
    rejections = dict.fromkeys(STATISTIC_NAMES, 0)
    for rep in (0, 2, 3, 5):
        report = run_glht(gen_sample(STUDY_CFG, [STUDY_CFG.seed, rep]), spec)
        for name in STATISTIC_NAMES:
            rejections[name] += report.decisions[name]
    assert res.rejections == rejections
    assert any(rejections.values())  # so the denominator shows in the rates
    for name in STATISTIC_NAMES:
        assert res.rate_percent(name) == 100.0 * rejections[name] / 4

    # Any other library error ends the study.
    seen.clear()
    monkeypatch.setattr(simulate, "_dof_and_statistics", failing_on({2: InputError}))
    with pytest.raises(InputError, match="forced on replication 2"):
        size_power_study(STUDY_CFG)
    assert seen == [0, 1, 2]


@pytest.mark.parametrize("contrast", ["oneway", "linear_combo"])
def test_study_replications_run_the_same_pass_as_run_glht(contrast, monkeypatch):
    # linear_combo leaves group 3 untouched. The study keeps only each
    # replication's p-values and flags, and they are run_glht's exactly.
    cfg = SimConfig(n=(5, 6, 5, 7), m=10, delta=1.5, contrast=contrast, reps=5, seed=12)
    seen = []
    f_tests = simulate._f_tests

    def recording(*args):
        out = f_tests(*args)
        seen.append(out[1])
        return out

    monkeypatch.setattr(simulate, "_f_tests", recording)
    res = size_power_study(cfg)
    spec = cfg.contrast_spec()
    reports = [run_glht(gen_sample(cfg, [cfg.seed, rep]), spec, alpha=cfg.alpha)
               for rep in range(cfg.reps)]
    assert seen == [report.p_values for report in reports]
    decisions = [{name: p < cfg.alpha for name, p in p_values.items()} for p_values in seen]
    assert decisions == [report.decisions for report in reports]
    for name in STATISTIC_NAMES:
        assert res.rejections[name] == sum(report.decisions[name] for report in reports)
    assert res.dof_clamped == sum(report.diagnostics["dof_clamped"] for report in reports)


def test_design_is_built_once_per_study_and_per_permutation_call(monkeypatch):
    calls = []
    design = simulate._design

    def counting(*args):
        calls.append(args)
        return design(*args)

    monkeypatch.setattr(simulate, "_design", counting)
    size_power_study(STUDY_CFG)
    assert len(calls) == 1
    calls.clear()
    ds = gen_sample(STUDY_CFG, [STUDY_CFG.seed, 0])
    permutation_pvalue(ds, oneway_contrast(4), "mfp", b=99, seed=2)
    assert len(calls) == 1


def test_size_power_study_counts_a_forced_degeneracy():
    # At rho = 1e-40 the innovations vanish below the rounding of the mean
    # curves, so the curves of each group coincide wherever the mean is
    # nonzero and the pooled matrix is singular in every replication.
    res = size_power_study(SimConfig(n=(5, 5, 5, 5), m=8, rho=1e-40, reps=3, seed=1))
    assert res.errors_by_kind == {"SingularOmegaError": 3}
    assert (res.errored, res.completed) == (3, 0)
    assert res.dof_clamped == 0
    assert res.pole_fallbacks == {"mflh": 0, "mfw": 0}


def test_size_power_study_rounding_residue_is_singular_not_a_verdict():
    # At the default setting (n3, p=6, m=80) the rho = 1e-40 innovations also
    # fall below the last bit of the mean curves, but the pooled matrix left
    # (their rounding residue, diagonal 1e-30 to 1e-33) passes the eigenvalue
    # ratio test. It is at the rounding level of the curves' values, so every
    # replication is singular instead of a rejection under the null.
    res = size_power_study(SimConfig(rho=1e-40, reps=20, seed=1))
    assert res.errors_by_kind == {"SingularOmegaError": 20}
    # Innovations small against the means, but above their rounding, still test.
    for rho in (1e-12, 1e-16):
        assert size_power_study(SimConfig(rho=rho, reps=20, seed=1)).completed == 20


def _plus_minus_one_draw(seed) -> FunctionalDataset:
    # Four +-1 curves on four points per group, as in
    # test_dof.py::test_dof_clamps_negative_brackets: some draws clamp a
    # variance bracket, others leave no usable variation at all.
    rng = np.random.default_rng(seed)
    groups = tuple(GroupSample(rng.choice([-1.0, 1.0], size=(4, 1, 4))) for _ in range(2))
    return FunctionalDataset(make_uniform_grid(4, 0.0, 1.0), groups)


def test_size_power_study_counts_clamps_fallbacks_and_errors(monkeypatch):
    cfg = SimConfig(n=(4, 4), p=1, m=4, reps=20, seed=7)
    monkeypatch.setattr(simulate, "_setting_sampler", lambda cfg: _plus_minus_one_draw)
    res = size_power_study(cfg)
    spec = cfg.contrast_spec()
    errors = {}
    flags = dict.fromkeys(("dof_clamped", "mflh_pole_fallback", "mfw_theta_fallback"), 0)
    for rep in range(cfg.reps):
        try:
            report = run_glht(_plus_minus_one_draw([cfg.seed, rep]), spec, alpha=cfg.alpha)
        except DegeneracyError as exc:
            errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
            continue
        for name in flags:
            flags[name] += report.diagnostics[name]
    assert errors.get("DegenerateDofError", 0) > 0 and flags["dof_clamped"] > 0
    assert res.errors_by_kind == errors
    assert res.errored == sum(errors.values())
    assert res.dof_clamped == flags["dof_clamped"]
    assert res.pole_fallbacks == {"mflh": flags["mflh_pole_fallback"],
                                  "mfw": flags["mfw_theta_fallback"]}


def test_are_metric_values():
    assert are_metric([5.0, 5.0, 5.0], 5.0) == 0.0
    assert are_metric([10.0], 5.0) == pytest.approx(100.0)
    sizes = [6.0, 5.2, 6.0, 5.1, 5.0, 4.3, 4.2, 3.3, 3.9]
    assert are_metric(sizes, 5.0) == pytest.approx(14.67, abs=0.005)


def test_are_metric_empty_rejected():
    with pytest.raises(InputError):
        are_metric([], 5.0)


def test_permutation_requires_pure_contrast():
    cfg = SimConfig(n=(5, 5, 5, 5), rho=0.5, model=1, reps=1, seed=5)
    ds = gen_sample(cfg, [5, 0])
    spec = ContrastSpec(np.array([[1.0, 1.0, 0.0, 0.0]]))
    with pytest.raises(InputError, match="pure contrast"):
        permutation_pvalue(ds, spec, "mfp", b=99, seed=0)


def test_permutation_pvalue_bounds_and_determinism():
    cfg = SimConfig(n=(5, 5, 5, 5), p=6, m=12, rho=0.5, model=1, reps=1, seed=6)
    ds = gen_sample(cfg, [6, 0])
    spec = oneway_contrast(4)
    p1 = permutation_pvalue(ds, spec, "mfp", b=99, seed=11)
    p2 = permutation_pvalue(ds, spec, "mfp", b=99, seed=11)
    assert p1 == p2
    assert 1.0 / 100.0 <= p1 <= 1.0


def test_permutation_pvalue_shifted_alternative_small():
    # A gross mean shift in one group should give the smallest possible
    # p-value: the observed statistic beats every permutation.
    cfg = SimConfig(n=(5, 5, 5, 5), p=6, m=12, rho=0.5, model=1, reps=1, seed=7)
    ds = gen_sample(cfg, [7, 0])
    shifted = [g.values.copy() for g in ds.groups]
    shifted[0] = shifted[0] + 25.0
    from mfdglht.dataset import FunctionalDataset, GroupSample

    ds2 = FunctionalDataset(ds.grid, tuple(GroupSample(g) for g in shifted))
    p = permutation_pvalue(ds2, oneway_contrast(4), "mflh", b=99, seed=1)
    assert p == pytest.approx(1.0 / 100.0)


def _dataset(groups) -> FunctionalDataset:
    return FunctionalDataset(make_uniform_grid(groups[0].shape[2], 0.0, 1.0),
                             tuple(GroupSample(g) for g in groups))


def test_permutation_pvalue_ignores_untouched_groups():
    # C weighs groups 1 and 4 only: shifting groups 2 and 3 by +-5 must not
    # move the p-value, since only the touched groups' curves are relabeled.
    rng = np.random.default_rng(30)
    groups = [rng.normal(size=(8, 2, 10)) for _ in range(4)]
    groups[0] = groups[0] + 0.35
    spec = ContrastSpec(np.array([[1.0, 0.0, 0.0, -1.0]]))
    base = permutation_pvalue(_dataset(groups), spec, "mfp", b=99, seed=1)
    shifted = [groups[0], groups[1] + 5.0, groups[2] - 5.0, groups[3]]
    assert permutation_pvalue(_dataset(shifted), spec, "mfp", b=99, seed=1) == base


def test_permutation_pvalue_oneway_relabels_every_group():
    # A one-way contrast touches every group, so each relabeling permutes all
    # pooled curves, drawn in order from the seeded stream.
    cfg = SimConfig(n=(5, 5, 5, 5), p=6, m=12, rho=0.5, model=1, reps=1, seed=6)
    ds = gen_sample(cfg, [6, 0])
    spec = oneway_contrast(4)
    w = quad_weights(ds.grid)

    def mfp(dataset):
        glht = build_glht(dataset, spec, w)
        dof = dof_estimates(dataset, spec, w, glht=glht)
        return statistics(dof.d_b * glht.bn, dof.d_e * glht.en).mfp

    observed = mfp(ds)
    pooled = np.concatenate([g.values for g in ds.groups])
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(11)))
    exceed = 0
    for _ in range(99):
        relabeled = np.split(pooled[rng.permutation(len(pooled))], np.cumsum(ds.n)[:-1])
        exceed += mfp(_dataset(relabeled)) >= observed
    assert permutation_pvalue(ds, spec, "mfp", b=99, seed=11) == (1.0 + exceed) / 100.0


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"scenario": "S2", "rho": 0.9, "reps": 4, "seed": 1,'
        ' "settings": [{"label": "a", "model": 1, "n": "n1"},'
        ' {"label": "b", "model": 3, "n": [4, 4, 4, 4]}]}'
    )
    from mfdglht import load_config_file

    configs = load_config_file(path)
    assert len(configs) == 2
    assert configs[0].scenario == "S2"
    assert configs[1].n == (4, 4, 4, 4)
    assert configs[1].model == 3


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"rho": 0.5, "bogus": 1}')
    from mfdglht import load_config_file

    with pytest.raises(InputError, match="bogus"):
        load_config_file(path)


def test_config_with_explicit_contrast_compares_and_hashes():
    a = SimConfig(contrast=[[1, -1, 0, 0]])
    b = SimConfig(contrast=np.array([[1.0, -1.0, 0.0, 0.0]]))
    assert a == b and hash(a) == hash(b)
    assert a != SimConfig(contrast=[[1, 0, 0, -1]])
    assert a.contrast == ((1.0, -1.0, 0.0, 0.0),)
    np.testing.assert_array_equal(a.contrast_spec().c, [[1.0, -1.0, 0.0, 0.0]])
    assert SimConfig(contrast=[1, 0, 0, -1]).contrast == ((1.0, 0.0, 0.0, -1.0),)
    with pytest.raises(ValidationError, match="q x k matrix"):
        SimConfig(contrast=[[[1, -1, 0, 0]]])


@pytest.mark.parametrize(
    "kwargs, message",
    [
        pytest.param({"n": "n9"}, "unknown sample-size preset 'n9'", id="n-preset"),
        pytest.param({"n": (5, 0, 5, 5)}, "group sizes must be positive", id="group-size"),
        pytest.param({"scenario": "S3"}, "scenario must be one of ['S1', 'S2']", id="scenario"),
        pytest.param({"model": 4}, "model must be 1, 2, or 3", id="model"),
        pytest.param({"rho": 1.0}, "rho must lie in (0, 1)", id="rho"),
        pytest.param({"q": 6}, "q must be odd (paired sine/cosine construction)", id="q"),
        pytest.param({"delta": -1}, "delta must be >= 0", id="delta"),
        pytest.param({"alpha": 0}, "alpha must lie in (0, 1)", id="alpha"),
        pytest.param({"reps": 0}, "reps must be >= 1", id="reps"),
        pytest.param({"reps": 2.5}, "reps must be an integer", id="fractional-reps"),
        pytest.param({"reps": True}, "reps must be an integer", id="bool-reps"),
        pytest.param({"seed": -5}, "seed must be a nonnegative integer", id="negative-seed"),
        pytest.param({"seed": "abc"}, "seed must be a nonnegative integer", id="string-seed"),
        pytest.param({"m": 1}, "need p >= 1 and m >= 2", id="m"),
        pytest.param({"contrast": "foo"}, "unknown contrast preset 'foo'", id="contrast"),
    ],
)
def test_sim_config_rejects_invalid_settings(kwargs, message):
    with pytest.raises(ValidationError) as err:
        SimConfig(**kwargs).contrast_spec()
    assert type(err.value) is ValidationError and str(err.value) == message


@pytest.mark.parametrize(
    "kwargs, message",
    [
        pytest.param({"statistic": "foo"}, "statistic must be one of ('mfw', 'mflh', 'mfp')",
                     id="statistic"),
        pytest.param({"b": 50}, "use at least 99 permutations", id="too-few-permutations"),
    ],
)
def test_permutation_pvalue_rejects_invalid_arguments(kwargs, message):
    ds = gen_sample(SimConfig(n=(5, 5, 5, 5), m=6, reps=1), [1, 0])
    with pytest.raises(InputError) as err:
        permutation_pvalue(ds, oneway_contrast(4), **kwargs)
    assert type(err.value) is InputError and str(err.value) == message


def test_are_metric_rejects_nonpositive_nominal_level():
    with pytest.raises(InputError) as err:
        are_metric([5.0], 0.0)
    assert type(err.value) is InputError and str(err.value) == "nominal level must be positive"
