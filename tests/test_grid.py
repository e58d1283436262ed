from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfdglht import (
    Grid,
    QuadWeights,
    SeparableCovariances,
    SimConfig,
    ValidationError,
    b_matrix,
    build_glht,
    component_stream_basis,
    component_stream_lambdas,
    cross_terms,
    dof_estimates,
    gen_sample,
    group_means,
    k4_hat,
    make_uniform_grid,
    quad_weights,
    separable_trace_integrals,
    sigma_hat,
    true_dof,
    ustat_within_fast,
)


def test_uniform_grid_three_points():
    g = make_uniform_grid(3, 0.0, 1.0)
    assert np.allclose(g.points, [0.0, 0.5, 1.0])


def test_uniform_grid_80_points_spacing():
    g = make_uniform_grid(80, 0.0, 1.0)
    assert g.m == 80
    assert np.allclose(np.diff(g.points), 1.0 / 79.0)


def test_uniform_grid_two_points():
    g = make_uniform_grid(2, 0.0, 2.0)
    assert np.allclose(g.points, [0.0, 2.0])


@pytest.mark.parametrize("m,a,b", [(1, 0, 1), (0, 0, 1), (3, 1, 1), (3, 2, 1)])
def test_uniform_grid_invalid_args(m, a, b):
    with pytest.raises(ValidationError):
        make_uniform_grid(m, a, b)


def test_grid_rejects_unsorted_points():
    with pytest.raises(ValidationError):
        Grid(np.array([0.0, 0.5, 0.5, 1.0]))


def test_trapezoid_weights_uniform_m3():
    w = quad_weights(make_uniform_grid(3, 0.0, 1.0))
    assert np.allclose(w.weights, [0.25, 0.5, 0.25])


def test_trapezoid_weights_uniform_m2():
    w = quad_weights(make_uniform_grid(2, 0.0, 1.0))
    assert np.allclose(w.weights, [0.5, 0.5])


def test_trapezoid_weights_nonuniform():
    g = Grid(np.array([0.0, 0.2, 1.0]))
    w = quad_weights(g)
    assert np.allclose(w.weights, [0.1, 0.5, 0.4])


@given(
    m=st.integers(min_value=2, max_value=60),
    a=st.floats(min_value=-10, max_value=10, allow_nan=False),
    width=st.floats(min_value=1e-3, max_value=50),
)
@settings(max_examples=60, deadline=None)
def test_constant_integrates_to_domain_length(m, a, width):
    w = quad_weights(make_uniform_grid(m, a, a + width))
    assert abs(w.weights.sum() - width) <= 1e-12 * max(1.0, width)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_double_integral_factorizes_on_separable_integrands(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 30))
    interior = np.sort(rng.choice(np.linspace(0.01, 0.99, 200), size=m - 2, replace=False))
    g = Grid(np.concatenate([[0.0], interior, [1.0]]))
    w = quad_weights(g).weights
    f = rng.normal(size=m)
    h = rng.normal(size=m)
    tensor = float(np.einsum("t,s,t,s->", f, h, w, w))
    iterated = float((f * w).sum() * (h * w).sum())
    assert tensor == pytest.approx(iterated, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize(
    "weights", [[[0.5, 0.5]], [0.5, np.nan], [0.5, np.inf], [1.5, -0.5]],
    ids=["2-d", "nan", "inf", "negative"],
)
def test_hand_built_weights_must_be_a_finite_nonnegative_vector(weights):
    with pytest.raises(ValidationError, match="quadrature weights must be"):
        QuadWeights(np.array(weights))


@pytest.fixture(scope="module")
def n3():
    """The n3 sample with its oneway contrast, pooled matrix and group 1's
    within-group functionals, and the setting's separable covariances."""
    cfg = SimConfig(n="n3", model=2)
    ds, spec = gen_sample(cfg, [1, 2]), cfg.contrast_spec()
    w = quad_weights(ds.grid)
    glht = build_glht(ds, spec, w)
    gammas = SeparableCovariances(
        component_stream_lambdas(cfg.nus(), cfg.rho, cfg.q, cfg.p),
        component_stream_basis(cfg.p, cfg.q, ds.grid),
    )
    within = ustat_within_fast(ds, 0, glht.omega, w)
    return SimpleNamespace(ds=ds, spec=spec, glht=glht, within=within, gammas=gammas)


# Every public function that takes quadrature weights, called on the n3 case.
ENTRY_POINTS = {
    "build_glht": lambda c, w: build_glht(c.ds, c.spec, w),
    "dof_estimates": lambda c, w: dof_estimates(c.ds, c.spec, w),
    "sigma_hat": lambda c, w: sigma_hat(c.ds, 0, w),
    "b_matrix": lambda c, w: b_matrix(group_means(c.ds), c.spec, w, c.ds.n),
    "ustat_within_fast": lambda c, w: ustat_within_fast(c.ds, 0, c.glht.omega, w),
    "k4_hat": lambda c, w: k4_hat(c.ds, 0, c.glht.omega, w, c.within),
    "cross_terms": lambda c, w: cross_terms(c.ds, 0, 1, c.glht.omega, w),
    "separable_trace_integrals":
        lambda c, w: separable_trace_integrals(c.gammas.lambdas, c.gammas.basis, w),
    "true_dof": lambda c, w: true_dof(c.gammas, c.ds.n, c.glht.hn, w),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_weights_of_another_grid_are_a_validation_error(n3, name):
    w = quad_weights(make_uniform_grid(50, 0.0, 1.0))
    with pytest.raises(ValidationError, match="quadrature weights have 50 points, the curves 80"):
        ENTRY_POINTS[name](n3, w)
