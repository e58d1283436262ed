import numpy as np
import pytest

from mfdglht import (
    FunctionalDataset,
    GroupSample,
    InsufficientReplicationError,
    NotPositiveDefiniteError,
    SingularOmegaError,
    ValidationError,
    group_means,
    make_uniform_grid,
    omega_hat,
    quad_weights,
    sigma_hat,
)
from mfdglht.simulate import lambda_grid
from oracles import basis_functions, inv_sqrt_spd, sample_curves


def dataset_from(groups, m=2, a=0.0, b=1.0):
    grid = make_uniform_grid(m, a, b)
    return FunctionalDataset(grid, tuple(GroupSample(g) for g in groups))


def test_group_means_average_of_two_constant_curves():
    a = np.full((1, 2, 3), 1.0)
    b = np.full((1, 2, 3), 3.0)
    ds = dataset_from([np.concatenate([a, b])], m=3)
    assert np.allclose(group_means(ds)[0], 2.0)


def test_group_means_single_observation_identity():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(1, 2, 4))
    ds = dataset_from([values], m=4)
    assert np.allclose(group_means(ds)[0], values[0])


def test_group_means_antisymmetric_pair_is_zero():
    rng = np.random.default_rng(2)
    y = rng.normal(size=(1, 3, 5))
    ds = dataset_from([np.concatenate([y, -y])], m=5)
    assert np.allclose(group_means(ds)[0], 0.0)


def test_sigma_hat_identical_observations_zero():
    values = np.tile(np.arange(6.0).reshape(1, 2, 3), (4, 1, 1))
    ds = dataset_from([values], m=3)
    w = quad_weights(ds.grid)
    assert np.allclose(sigma_hat(ds, 0, w), 0.0)


def test_sigma_hat_hand_value():
    # p=1, M=2 uniform grid on [0,1], two observations at +-1 at both times:
    # centered curves are +-1 everywhere, sigma = sum_j int 1 dt / (n-1) = 2.
    values = np.array([[[1.0, 1.0]], [[-1.0, -1.0]]])
    ds = dataset_from([values], m=2)
    w = quad_weights(ds.grid)
    assert sigma_hat(ds, 0, w)[0, 0] == pytest.approx(2.0, rel=1e-12)


def test_sigma_hat_quadratic_scaling():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(5, 2, 4))
    ds = dataset_from([values], m=4)
    ds_scaled = dataset_from([3.0 * values], m=4)
    w = quad_weights(ds.grid)
    assert np.allclose(sigma_hat(ds_scaled, 0, w), 9.0 * sigma_hat(ds, 0, w))


def test_sigma_hat_needs_two_observations():
    ds = dataset_from([np.zeros((1, 1, 2))])
    with pytest.raises(InsufficientReplicationError):
        sigma_hat(ds, 0, quad_weights(ds.grid))


def test_omega_hat_single_group_identity():
    out = omega_hat([np.eye(3)], [1.0], [2])
    assert np.allclose(out.omega, np.eye(3) / 2)
    assert np.allclose(out.inv_sqrt, np.sqrt(2.0) * np.eye(3))


def test_omega_hat_diagonal():
    out = omega_hat([np.diag([4.0, 9.0])], [1.0], [1])
    assert np.allclose(out.inv_sqrt, np.diag([0.5, 1.0 / 3.0]))


def test_omega_hat_reconstruction_random_spd():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(4, 4))
    spd = a @ a.T + 4 * np.eye(4)
    out = omega_hat([spd], [2.0], [3])
    assert np.allclose(out.inv_sqrt @ out.omega @ out.inv_sqrt.T, np.eye(4), atol=1e-10)


def test_omega_hat_singular_rejected():
    rank1 = np.outer([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(SingularOmegaError):
        omega_hat([rank1], [1.0], [2])


@pytest.mark.parametrize("entry", [0.0, -1.0, np.nan])
def test_omega_hat_rejects_diagonal_entry_not_positive(entry):
    with pytest.raises(SingularOmegaError):
        omega_hat([np.diag([1.0, entry])], [1.0], [2])


def test_omega_hat_congruence_bilinearity():
    rng = np.random.default_rng(5)
    sigmas = [np.cov(rng.normal(size=(3, 10))) for _ in range(2)]
    h = [1.5, 2.5]
    n = [4, 6]
    a = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    base = omega_hat(sigmas, h, n).omega
    transformed = omega_hat([a @ s @ a.T for s in sigmas], h, n).omega
    assert np.allclose(transformed, a @ base @ a.T, rtol=1e-10, atol=1e-12)


def test_inv_sqrt_identity():
    assert np.allclose(inv_sqrt_spd(np.eye(3)), np.eye(3))


def test_inv_sqrt_scalar():
    assert inv_sqrt_spd(np.array([[0.25]]))[0, 0] == pytest.approx(2.0)


def test_inv_sqrt_spectrum_mapping():
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    a = q @ np.diag([1.0, 2.0, 4.0]) @ q.T
    b = inv_sqrt_spd(a)
    eigs = np.sort(np.linalg.eigvalsh(b))
    assert np.allclose(eigs, [0.5, 1.0 / np.sqrt(2.0), 1.0])
    assert np.allclose(b @ a @ b, np.eye(3), atol=1e-10)


def test_inv_sqrt_commutes_with_input():
    rng = np.random.default_rng(7)
    g = rng.normal(size=(5, 5))
    a = g @ g.T + 2 * np.eye(5)
    b = inv_sqrt_spd(a)
    assert np.linalg.norm(b @ a - a @ b) <= 1e-9 * np.linalg.norm(a)


def test_inv_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        inv_sqrt_spd(np.diag([1.0, -1.0]))


def test_sigma_hat_statistical_unbiasedness_smoke():
    # Small-replication version of the acceptance-scale check: the Monte
    # Carlo mean of the integrated covariance matches its analytic value.
    grid = make_uniform_grid(16, 0.0, 1.0)
    w = quad_weights(grid)
    q, p, n = 3, 2, 8
    basis = basis_functions(p, q, grid)
    lam = lambda_grid([1.5], 0.5, q)
    c = np.arange(1, p + 1) / np.sqrt(np.sum(np.arange(1, p + 1) ** 2.0))
    target = lam.sum() * np.outer(c, c)
    reps = 400
    acc = np.zeros((p, p))
    sq = np.zeros((p, p))
    means = np.zeros((1, p, grid.m))
    for r in range(reps):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([17, r])))
        ds = sample_curves(means, lam, basis, [n], 1, rng)
        s = sigma_hat(ds, 0, w)
        acc += s
        sq += s * s
    mean = acc / reps
    se = np.sqrt(np.maximum(sq / reps - mean**2, 1e-30) / reps)
    assert np.all(np.abs(mean - target) <= 5 * se + 1e-12)


@pytest.mark.parametrize(
    "h_diag, message",
    [
        pytest.param([1.0, 1.0, 1.0], "sigmas, h_diag, and n must have the same length",
                     id="lengths"),
        pytest.param([0.0, 0.0], "diagonal hypothesis weights must be nonnegative, some positive",
                     id="no-positive-weight"),
    ],
)
def test_omega_hat_rejects_invalid_input(h_diag, message):
    with pytest.raises(ValidationError) as err:
        omega_hat([np.eye(2), np.eye(2)], h_diag, [5, 5])
    assert type(err.value) is ValidationError and str(err.value) == message
