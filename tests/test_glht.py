import io

import numpy as np
import pytest

from mfdglht import (
    ContrastSpec,
    ContrastRankError,
    FunctionalDataset,
    GroupSample,
    IngestionError,
    MfdGlhtError,
    SeparableCovariances,
    SimConfig,
    ValidationError,
    b_matrix,
    build_glht,
    component_stream_basis,
    component_stream_lambdas,
    e_matrix,
    gen_sample,
    group_means,
    hn_matrix,
    load_c0_csv,
    load_contrast_csv,
    make_uniform_grid,
    oneway_contrast,
    quad_weights,
    run_glht,
    sigma_hat,
    true_dof,
)
from oracles import sample_curves


def random_dataset(rng, n=(5, 6, 4), p=2, m=7):
    grid = make_uniform_grid(m, 0.0, 1.0)
    groups = tuple(GroupSample(rng.normal(size=(ni, p, m))) for ni in n)
    return FunctionalDataset(grid, groups)


def test_hn_two_sample():
    hn = hn_matrix(np.array([[1.0, -1.0]]), [2, 2])
    assert np.allclose(hn, [[1.0, -1.0], [-1.0, 1.0]])


def test_hn_oneway_closed_form():
    n = np.array([7, 9, 13, 25])
    total = n.sum()
    hn = hn_matrix(oneway_contrast(4).c, n)
    expected = np.diag(n * (total - n) / total) - np.outer(n, n) / total + np.diag(
        np.zeros(4)
    )
    for i in range(4):
        for j in range(4):
            if i == j:
                assert hn[i, i] == pytest.approx(n[i] * (total - n[i]) / total, rel=1e-12)
            else:
                assert hn[i, j] == pytest.approx(-n[i] * n[j] / total, rel=1e-12)


def test_hn_pairwise_contrast_values():
    hn = hn_matrix(np.array([[1.0, 0.0, 0.0, -1.0]]), [15, 15, 25, 25])
    assert hn[0, 0] == pytest.approx(75.0 / 8.0)
    assert hn[3, 3] == pytest.approx(75.0 / 8.0)
    assert hn[0, 3] == pytest.approx(-75.0 / 8.0)
    assert np.allclose(hn[1:3, :], 0.0)
    assert np.allclose(hn[:, 1:3], 0.0)


def test_contrast_rank_checked():
    with pytest.raises(ContrastRankError):
        ContrastSpec(np.array([[1.0, -1.0, 0.0], [2.0, -2.0, 0.0]]))


def test_b_matrix_two_constant_groups():
    # Two groups of constant curves, unit domain: B = (a-b)(a-b)^T.
    a = np.array([1.0, 2.0])
    b = np.array([-1.0, 0.5])
    grid = make_uniform_grid(4, 0.0, 1.0)
    g1 = np.tile(a[None, :, None], (2, 1, 4))
    g2 = np.tile(b[None, :, None], (2, 1, 4))
    ds = FunctionalDataset(grid, (GroupSample(g1), GroupSample(g2)))
    w = quad_weights(grid)
    spec = ContrastSpec(np.array([[1.0, -1.0]]))
    bn = b_matrix(group_means(ds), spec, w, ds.n)
    assert np.allclose(bn, np.outer(a - b, a - b), rtol=1e-12)


def test_b_matrix_exact_null_fit_zero():
    rng = np.random.default_rng(0)
    ds = random_dataset(rng, n=(4, 5), p=2, m=6)
    w = quad_weights(ds.grid)
    means = group_means(ds)
    c = np.array([[1.0, -1.0]])
    c0 = np.einsum("qk,kpm->qpm", c, means)
    spec = ContrastSpec(c, c0)
    assert np.allclose(b_matrix(means, spec, w, ds.n), 0.0, atol=1e-12)


def test_b_matrix_oneway_equals_grand_mean_form():
    rng = np.random.default_rng(1)
    ds = random_dataset(rng, n=(5, 7, 6), p=3, m=9)
    w = quad_weights(ds.grid)
    means = group_means(ds)
    n = np.asarray(ds.n, dtype=float)
    bn = b_matrix(means, oneway_contrast(3), w, ds.n)
    grand = np.einsum("i,ipm->pm", n, means) / n.sum()
    dev = means - grand[None]
    direct = np.einsum("i,ipt,iqt,t->pq", n, dev, dev, w.weights)
    assert np.allclose(bn, direct, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize(
    "means, message",
    [(np.zeros((2, 6)), "shape"), (np.full((2, 1, 6), np.nan), "finite")],
    ids=["two-dimensional", "nan"],
)
def test_b_matrix_rejects_means_of_wrong_shape_or_not_finite(means, message):
    w = quad_weights(make_uniform_grid(6, 0.0, 1.0))
    with pytest.raises(ValidationError, match=message):
        b_matrix(means, ContrastSpec(np.array([[1.0, -1.0]])), w, (4, 5))


def test_e_matrix_all_identical_observations_zero():
    grid = make_uniform_grid(3, 0.0, 1.0)
    g = np.tile(np.arange(3.0)[None, None, :], (4, 2, 1))
    ds = FunctionalDataset(grid, (GroupSample(g), GroupSample(g + 1)))
    w = quad_weights(grid)
    sigmas = [sigma_hat(ds, i, w) for i in range(2)]
    hn = hn_matrix(oneway_contrast(2).c, ds.n)
    assert np.allclose(e_matrix(sigmas, hn, ds.n), 0.0)


def test_e_matrix_single_group_scaling():
    rng = np.random.default_rng(2)
    ds = random_dataset(rng, n=(6,), p=2, m=5)
    w = quad_weights(ds.grid)
    sigma = sigma_hat(ds, 0, w)
    en = e_matrix([sigma], np.array([[1.0]]), ds.n)
    assert np.allclose(en, sigma / 6.0)


def test_build_glht_en_is_the_pooled_matrix():
    rng = np.random.default_rng(4)
    ds = random_dataset(rng, n=(5, 6, 7), p=3, m=8)
    w = quad_weights(ds.grid)
    glht = build_glht(ds, ContrastSpec(np.array([[1.0, -2.0, 1.0]])), w)
    assert np.array_equal(glht.en, glht.omega.omega)
    sigmas = [sigma_hat(ds, i, w) for i in range(ds.k)]
    assert np.array_equal(glht.en, e_matrix(sigmas, glht.hn, ds.n))


def test_build_glht_standardized_curves():
    rng = np.random.default_rng(5)
    ds = random_dataset(rng, n=(5, 6, 7), p=3, m=8)
    w = quad_weights(ds.grid)
    glht = build_glht(ds, oneway_contrast(3), w)
    z = glht.standardized
    assert z.shape == (sum(ds.n), ds.p, ds.m)
    assert not z.flags.writeable
    expected = np.concatenate([
        np.einsum("pq,jqt->jpt", glht.omega.inv_sqrt, g - g.mean(axis=0)) * np.sqrt(w.weights)
        for g in (ds.group_values(i) for i in range(ds.k))
    ])
    assert np.allclose(z, expected, rtol=1e-12, atol=1e-14)
    # The pooled matrix of the standardized curves is the identity.
    edges = np.cumsum([0, *ds.n])
    pooled = sum(
        glht.hn[i, i] / (n_i * (n_i - 1)) * np.einsum("jpt,jqt->pq", z[lo:hi], z[lo:hi])
        for i, (n_i, lo, hi) in enumerate(zip(ds.n, edges[:-1], edges[1:]))
    )
    assert np.allclose(pooled, np.eye(ds.p), atol=1e-12)


def test_e_matrix_oneway_equals_adjusted_within_form():
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, n=(5, 6, 7), p=2, m=8)
    w = quad_weights(ds.grid)
    sigmas = [sigma_hat(ds, i, w) for i in range(3)]
    hn = hn_matrix(oneway_contrast(3).c, ds.n)
    en = e_matrix(sigmas, hn, ds.n)
    n = np.asarray(ds.n, dtype=float)
    total = n.sum()
    direct = np.zeros((2, 2))
    for i in range(3):
        values = ds.group_values(i)
        centered = values - values.mean(axis=0)
        within = np.einsum("jpt,jqt,t->pq", centered, centered, w.weights)
        direct += (total - n[i]) / (total * (n[i] - 1)) * within
    assert np.allclose(en, direct, rtol=1e-9, atol=1e-12)


def test_proposition2_matrix_invariance():
    rng = np.random.default_rng(4)
    ds = random_dataset(rng, n=(5, 6, 4), p=2, m=7)
    w = quad_weights(ds.grid)
    c = oneway_contrast(3).c
    base = build_glht(ds, ContrastSpec(c), w)
    for _ in range(5):
        pmat = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        trans = build_glht(ds, ContrastSpec(pmat @ c), w)
        assert np.allclose(trans.hn, base.hn, rtol=1e-9, atol=1e-11)
        assert np.allclose(trans.bn, base.bn, rtol=1e-9, atol=1e-11)
        assert np.allclose(trans.en, base.en, rtol=1e-9, atol=1e-11)


def test_bn_en_expectations_match_under_null():
    # Under the null both variation matrices are unbiased for the pooled
    # matrix; checked against the analytic value at moderate replication.
    grid = make_uniform_grid(10, 0.0, 1.0)
    w = quad_weights(grid)
    p, q = 2, 3
    n = (6, 8)
    basis = component_stream_basis(p, q, grid)
    lam = component_stream_lambdas([1.5, 2.0], 0.5, q, p)
    spec = oneway_contrast(2)
    hn = hn_matrix(spec.c, n)
    td = true_dof(SeparableCovariances(lam, basis), n, hn, w)
    means = np.zeros((2, p, grid.m))
    reps = 600
    acc_b = np.zeros((p, p))
    acc_e = np.zeros((p, p))
    sq_b = np.zeros((p, p))
    sq_e = np.zeros((p, p))
    for r in range(reps):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([23, r])))
        ds = sample_curves(means, lam, basis, n, 1, rng)
        glht = build_glht(ds, spec, w)
        acc_b += glht.bn
        acc_e += glht.en
        sq_b += glht.bn**2
        sq_e += glht.en**2
    for acc, sq in ((acc_b, sq_b), (acc_e, sq_e)):
        mean = acc / reps
        se = np.sqrt(np.maximum(sq / reps - mean**2, 1e-30) / reps)
        assert np.all(np.abs(mean - td.omega) <= 5 * se + 1e-12)


def test_contrast_csv_loading():
    csv = "row,col,value\n1,1,1\n1,4,-1\n"
    c = load_contrast_csv(io.StringIO(csv))
    assert np.allclose(c, [[1.0, 0.0, 0.0, -1.0]])


def test_c0_csv_loading():
    csv = "row,component,time_index,value\n1,1,1,0.5\n1,2,3,-0.25\n"
    c0 = load_c0_csv(io.StringIO(csv), p=2, m=3, q=1)
    assert c0.shape == (1, 2, 3)
    assert c0[0, 0, 0] == 0.5
    assert c0[0, 1, 2] == -0.25


def test_contrast_and_c0_files_skip_blank_and_comment_lines():
    c = load_contrast_csv(
        io.StringIO("# c\nrow,col,value\n\n   \n  # indented\n1,1,1\n\t\n1,4,-1\n")
    )
    assert c.tolist() == [[1.0, 0.0, 0.0, -1.0]]
    c0 = load_c0_csv(
        io.StringIO("row,component,time_index,value\n  # note\n1,2,3,-0.25\n"), p=2, m=3, q=1
    )
    assert c0[0, 1, 2] == -0.25 and np.count_nonzero(c0) == 1


def test_contrast_and_c0_files_ignore_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "contrast.csv"
    path.write_text("\ufeffrow,col,value\n1,1,1\n1,4,-1\n", encoding="utf-8")
    assert load_contrast_csv(path).tolist() == [[1.0, 0.0, 0.0, -1.0]]
    c0 = load_c0_csv(io.StringIO("\ufeff# c\nrow,component,time_index,value\n1,2,3,-0.25\n"),
                     p=2, m=3, q=1)
    assert c0[0, 1, 2] == -0.25 and np.count_nonzero(c0) == 1


def test_c0_bounds_hold_for_indices_past_a_byte():
    # time_index 300 is read into uint16 cells; the bound m is a Python int.
    header = "row,component,time_index,value\n"
    c0 = load_c0_csv(io.StringIO(header + "1,1,300,0.5\n1,2,1,-1\n"), p=2, m=300, q=1)
    assert c0.shape == (1, 2, 300) and c0[0, 0, 299] == 0.5 and c0[0, 1, 0] == -1.0
    with pytest.raises(IngestionError) as info:
        load_c0_csv(io.StringIO(header + "1,1,300,0.5\n"), p=2, m=299, q=1)
    assert str(info.value) == (
        "C0 cell (row=1, component=1, time_index=300) outside dataset shape (q=1, p=2, m=299)"
    )


CONTRAST_CSV_ERRORS = [
    ("row,col,value\n1,1\n", "line 2: expected 3 fields, got 2"),
    ("row,col,value\n\n1,x,1\n", "line 3: col 'x' is not an integer"),
    ("row,col,value\n1,1,1 # note\n", "line 2: value '1 # note' is not a number"),
    ("row,col,value\n1,1,1\n1.0,2,-1\n", "line 3: row '1.0' is not an integer"),
    ("row,col,value\n1,1,1\n1,2,1_0\n", "line 3: value '1_0' is not a number"),
    ("row,col,value\n1,1,1\n1,1,2\n", "duplicate cell (row=1, col=1)"),
    ("row,col,value\n# c\n", "contrast file has no data rows"),
    ("# c\nrow,column,value\n1,1,1\n", "line 2: expected header 'row,col,value'"),
    ("row,col,value\n  # c\n1,0,1\n", "line 3: col must be >= 1, got 0"),
]


@pytest.mark.parametrize("text, message", CONTRAST_CSV_ERRORS)
def test_contrast_csv_errors(text, message):
    with pytest.raises(IngestionError) as info:
        load_contrast_csv(io.StringIO(text))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "1,1,1\n1,1000000000000,-1\n",
            "contrast cell (row=1, col=1000000000000) outside a contrast of k=4 groups "
            "(row and col at most k)",
        ),
        (
            "5,1,1\n",
            "contrast cell (row=5, col=1) outside a contrast of k=4 groups "
            "(row and col at most k)",
        ),
    ],
)
def test_contrast_csv_indices_bounded_by_k(text, message):
    # The bound is checked before the indices size the matrix.
    with pytest.raises(IngestionError) as info:
        load_contrast_csv(io.StringIO("row,col,value\n" + text), k=4)
    assert str(info.value) == message
    assert load_contrast_csv(io.StringIO("row,col,value\n1,1,1\n3,4,-1\n"), k=4).shape == (3, 4)


def test_c0_csv_rows_bounded_by_q():
    header = "row,component,time_index,value\n"
    with pytest.raises(IngestionError) as info:
        load_c0_csv(io.StringIO(header + "1,1,1,1\n1000000000000,1,1,1\n"), p=2, m=3, q=1)
    assert str(info.value) == (
        "C0 cell (row=1000000000000, component=1, time_index=1) outside dataset shape "
        "(q=1, p=2, m=3)"
    )
    assert load_c0_csv(io.StringIO(header + "2,2,3,1\n"), p=2, m=3, q=2).shape == (2, 2, 3)


def test_bounds_size_sparse_contrast_and_c0():
    # Omitted cells are zero, trailing ones included, once the caller gives the bound.
    c = load_contrast_csv(io.StringIO("row,col,value\n1,1,1\n1,2,-1\n"), k=4)
    assert c.tolist() == [[1.0, -1.0, 0.0, 0.0]]
    assert load_contrast_csv(io.StringIO("row,col,value\n1,1,1\n1,2,-1\n")).shape == (1, 2)
    c0 = load_c0_csv(io.StringIO("row,component,time_index,value\n1,2,3,0.5\n"), p=2, m=3, q=2)
    assert c0.shape == (2, 2, 3)
    assert c0[0, 1, 2] == 0.5 and np.count_nonzero(c0) == 1


C0_CSV_ERRORS = [
    ("1,1,1\n", "line 2: expected 4 fields, got 3"),
    ("1,1,1.5,1\n", "line 2: time_index '1.5' is not an integer"),
    ("1,1,1,1\n1,c,1,1\n", "line 3: component 'c' is not an integer"),
    ("1,1,1,1\n1,1,2,1e\n", "line 3: value '1e' is not a number"),
    ("1,1,1,1\n1,1,1,2\n", "duplicate cell (row=1, component=1, time_index=1)"),
    ("", "C0 file has no data rows"),
    (
        "1,3,1,1\n",
        "C0 cell (row=1, component=3, time_index=1) outside dataset shape (q=1, p=2, m=3)",
    ),
    ("\n0,1,1,1\n", "line 3: row must be >= 1, got 0"),
]


@pytest.mark.parametrize("text, message", C0_CSV_ERRORS)
def test_c0_csv_errors(text, message):
    with pytest.raises(IngestionError) as info:
        load_c0_csv(io.StringIO("row,component,time_index,value\n" + text), p=2, m=3, q=1)
    assert str(info.value) == message


@pytest.mark.parametrize("chunk_lines", [1, 2, 3])
def test_contrast_and_c0_csv_errors_in_small_chunks(chunk_lines, monkeypatch):
    monkeypatch.setattr("mfdglht.dataset.CHUNK_LINES", chunk_lines)
    for text, message in CONTRAST_CSV_ERRORS:
        test_contrast_csv_errors(text, message)
    for text, message in C0_CSV_ERRORS:
        test_c0_csv_errors(text, message)


@pytest.mark.parametrize("c, n", [([[1.0, -1.0]], [3, 4, 5]), ([[1.0, -1.0, 0.0]], [3, 4])])
def test_hn_matrix_needs_one_size_per_contrast_column(c, n):
    message = f"contrast has {len(c[0])} columns but {len(n)} group sizes"
    with pytest.raises(ValidationError, match=message):
        hn_matrix(np.array(c), n)


def scaled(ds, factor):
    return FunctionalDataset(ds.grid, tuple(GroupSample(g.values * factor) for g in ds.groups))


def test_values_whose_squares_overflow_are_a_validation_error():
    # Squares of values near 1e155 overflow float64; the pooled matrix is then
    # infinite, which is out-of-range input and not a degenerate dataset.
    cfg = SimConfig(n="n3", model=2)
    ds, spec = gen_sample(cfg, [1, 2]), cfg.contrast_spec()
    base = run_glht(ds, spec).p_values
    large = run_glht(scaled(ds, 1e150), spec).p_values
    for name, p_value in base.items():
        assert large[name] == pytest.approx(p_value, rel=0, abs=1e-12)
    with pytest.raises(ValidationError, match="squares overflow float64"):
        run_glht(scaled(ds, 1e155), spec)


@pytest.mark.parametrize("exponent", range(-100, -175, -1))
def test_tiny_values_keep_p_values_or_raise_a_typed_error(exponent):
    # Near 1e-154 the pooled matrix's diagonal turns subnormal, where scaling
    # it to unit diagonal would overflow: it is then reported as singular.
    cfg = SimConfig(n="n3", model=2)
    ds, spec = gen_sample(cfg, [1, 2]), cfg.contrast_spec()
    try:
        tiny = run_glht(scaled(ds, 10.0**exponent), spec).p_values
    except MfdGlhtError:
        assert exponent < -150
        return
    for name, p_value in run_glht(ds, spec).p_values.items():
        assert tiny[name] == pytest.approx(p_value, rel=0, abs=1e-10)


@pytest.mark.parametrize("a, b", [(-3.0, 7.0), (100.0, 100.5), (0.0, 1e6), (0.0, 1e300)])
def test_grid_domain_cancels(a, b):
    # The statistics read the grid only through its quadrature weights; on a
    # uniform grid the span scales B, every sigma_i and Omega alike.
    cfg = SimConfig(n="n3", model=2)
    ds, spec = gen_sample(cfg, [1, 2]), cfg.contrast_spec()
    unit = run_glht(FunctionalDataset(make_uniform_grid(ds.m, 0.0, 1.0), ds.groups), spec)
    moved = run_glht(FunctionalDataset(make_uniform_grid(ds.m, a, b), ds.groups), spec)
    assert moved.dof.d_b == pytest.approx(unit.dof.d_b, rel=1e-12, abs=0)
    assert moved.dof.d_e == pytest.approx(unit.dof.d_e, rel=1e-12, abs=0)
    for name, p_value in unit.p_values.items():
        assert moved.p_values[name] == pytest.approx(p_value, rel=1e-12, abs=0)


def test_huge_span_overflow_names_the_weights():
    # On [0, 1e308] each weight is near 1e306: the values are ordinary, their
    # weighted squares are not.
    cfg = SimConfig(n="n3", model=2)
    ds, spec = gen_sample(cfg, [1, 2]), cfg.contrast_spec()
    huge = FunctionalDataset(make_uniform_grid(ds.m, 0.0, 1e308), ds.groups)
    with pytest.raises(ValidationError, match="values too large for the quadrature weights"):
        run_glht(huge, spec)


@pytest.mark.parametrize(
    "args, error, message",
    [
        pytest.param(([[1.0, np.nan]],), ValidationError, "contrast matrix must be finite",
                     id="nonfinite-c"),
        pytest.param(([[1.0, -1.0], [1.0, 0.0], [0.0, 1.0]],), ContrastRankError,
                     "contrast has more rows (3) than groups (2)", id="more-rows-than-groups"),
        pytest.param(([[1.0, -1.0]], np.zeros((2, 3))), ValidationError,
                     "C0 must have shape (q, p, m)", id="c0-shape"),
        pytest.param(([[1.0, -1.0]], np.full((1, 2, 3), np.inf)), ValidationError,
                     "C0 must be finite", id="nonfinite-c0"),
    ],
)
def test_contrast_spec_rejects_invalid_input(args, error, message):
    with pytest.raises(error) as err:
        ContrastSpec(np.array(args[0]), *args[1:])
    assert type(err.value) is error and str(err.value) == message


def test_oneway_contrast_needs_two_groups():
    with pytest.raises(ValidationError) as err:
        oneway_contrast(1)
    assert type(err.value) is ValidationError
    assert str(err.value) == "one-way contrast needs k >= 2 groups"


def test_run_glht_rejects_contrast_with_wrong_column_count():
    ds = gen_sample(SimConfig(n=(5, 5, 5, 5), m=6, reps=1), [1, 0])
    with pytest.raises(ValidationError) as err:
        run_glht(ds, ContrastSpec(np.array([[1.0, -1.0, 0.0]])))
    assert type(err.value) is ValidationError
    assert str(err.value) == "contrast has 3 columns but dataset has 4 groups"
