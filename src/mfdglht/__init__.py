"""Finite-sample general linear hypothesis tests for multivariate functional data."""

from .dataset import (
    FunctionalDataset,
    Grid,
    GroupSample,
    QuadWeights,
    load_c0_csv,
    load_contrast_csv,
    load_csv,
    make_uniform_grid,
    quad_weights,
    write_csv,
)
from .dof import (
    DofEstimate,
    SeparableCovariances,
    TrueDof,
    WithinGroupUStats,
    cross_terms,
    dof_estimates,
    k4_hat,
    separable_trace_integrals,
    true_dof,
    ustat_within_fast,
)
from .errors import (
    ApproximationUndefinedError,
    ContrastRankError,
    DegeneracyError,
    DegenerateDofError,
    IngestionError,
    InputError,
    InsufficientReplicationError,
    MfdGlhtError,
    NotPositiveDefiniteError,
    SingularErrorMatrixError,
    SingularOmegaError,
    ValidationError,
)
from .fstats import (
    FApprox,
    TestReport,
    TestStatistics,
    f_approx_mflh,
    f_approx_mfp,
    f_approx_mfw,
    f_cdf,
    f_sf,
    run_glht,
    statistics,
)
from .glht import (
    ContrastSpec,
    GlhtMatrices,
    OmegaHat,
    b_matrix,
    build_glht,
    e_matrix,
    group_means,
    hn_matrix,
    inv_sqrt_spd,
    omega_hat,
    oneway_contrast,
    sigma_hat,
)
from .simulate import (
    SimConfig,
    StudyResult,
    are_metric,
    basis_functions,
    component_stream_basis,
    component_stream_lambdas,
    gen_sample,
    load_config_file,
    mean_functions,
    permutation_pvalue,
    sample_curves,
    size_power_study,
)

__version__ = "0.1.0"
