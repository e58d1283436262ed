"""Synthetic data generation and Monte Carlo size/power studies.

Samples are Karhunen-Loeve style sums: group mean plus a linear
combination of orthonormal vector basis curves with group-specific
variance components and i.i.d. unit-variance innovations. Three
innovation laws are supported (standard normal, scaled t with 8 degrees
of freedom, centered scaled chi-square with 4 degrees of freedom), all
driven by a single seeded normal stream so that every replication is
exactly reproducible.

A setting's constants (grid, mean curves, basis and variance components)
are built once per study, and so is the test's design (contrast, group
sizes, grid and p); a replication pays only for its own innovations, one
BLAS product per group, and the per-dataset pass that ``run_glht`` runs,
of which it keeps the decisions and diagnostic flags. ``gen_sample`` is
that same sampler built and called once, so a study and a one-off draw
cannot diverge. A study runs its replications in order, and replication
``r`` of a study with master seed ``s`` always uses the stream seeded by
``SeedSequence([s, r])``, so a study is reproducible from its master seed.
The permutation oracle builds its design once per call and relabels only
the curves of the groups the hypothesis weighs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .dataset import FunctionalDataset, Grid, GroupSample, make_uniform_grid, quad_weights
from .errors import DegeneracyError, InputError, ValidationError
from .fstats import STATISTIC_NAMES, _dof_and_statistics, _f_tests, _functionals
from .glht import _USTAT_N, ContrastSpec, _design, oneway_contrast

__all__ = [
    "SimConfig",
    "StudyResult",
    "component_stream_basis",
    "component_stream_lambdas",
    "mean_functions",
    "gen_sample",
    "size_power_study",
    "are_metric",
    "permutation_pvalue",
    "load_config_file",
]

N_PRESETS = {
    "n1": (10, 10, 10, 10),
    "n2": (10, 12, 12, 15),
    "n3": (15, 15, 25, 25),
}

SCENARIO_NUS = {
    "S1": (1.5, 1.5, 1.5, 1.5),
    "S2": (1.5, 2.0, 2.5, 3.0),
}

CONTRAST_PRESETS = {
    "oneway": lambda k: oneway_contrast(k).c,
    "two_sample": lambda k: _pair_contrast(k),
    "linear_combo": lambda k: _linear_combo_contrast(k),
}


def _pair_contrast(k: int) -> np.ndarray:
    if k != 4:
        raise ValidationError("the two-sample preset compares groups 1 and 4 of k=4")
    return np.array([[1.0, 0.0, 0.0, -1.0]])


def _linear_combo_contrast(k: int) -> np.ndarray:
    if k != 4:
        raise ValidationError("the linear-combination preset is defined for k=4")
    return np.array([[1.0, -3.0, 0.0, 2.0]])


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo setting.

    ``n`` may be a preset name ("n1", "n2", "n3") or an explicit tuple.
    ``contrast`` may be a preset name or an explicit coefficient matrix,
    which is stored as a tuple of row tuples so that configs compare and hash.
    """

    n: tuple[int, ...] = (15, 15, 25, 25)
    p: int = 6
    m: int = 80
    q: int = 7
    rho: float = 0.5
    scenario: str = "S1"
    model: int = 1
    delta: float = 0.0
    contrast: str | tuple[tuple[float, ...], ...] = "oneway"
    alpha: float = 0.05
    reps: int = 1000
    seed: int = 20240101
    label: str = ""

    def __post_init__(self):
        if isinstance(self.n, str):
            try:
                object.__setattr__(self, "n", N_PRESETS[self.n])
            except KeyError:
                raise ValidationError(f"unknown sample-size preset {self.n!r}") from None
        else:
            object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        if not isinstance(self.contrast, str):
            rows = np.atleast_2d(np.asarray(self.contrast, dtype=np.float64))
            if rows.ndim != 2:
                raise ValidationError("contrast must be a preset name or a q x k matrix")
            object.__setattr__(self, "contrast", tuple(map(tuple, rows.tolist())))
        if any(v < 1 for v in self.n):
            raise ValidationError("group sizes must be positive")
        if self.scenario not in SCENARIO_NUS:
            raise ValidationError(f"scenario must be one of {sorted(SCENARIO_NUS)}")
        if self.model not in (1, 2, 3):
            raise ValidationError("model must be 1, 2, or 3")
        if not (0.0 < self.rho < 1.0):
            raise ValidationError("rho must lie in (0, 1)")
        if self.q % 2 == 0 or self.q < 1:
            raise ValidationError("q must be odd (paired sine/cosine construction)")
        if self.delta < 0:
            raise ValidationError("delta must be >= 0")
        if not (0.0 < self.alpha < 1.0):
            raise ValidationError("alpha must lie in (0, 1)")
        if self.reps < 1:
            raise ValidationError("reps must be >= 1")
        if self.p < 1 or self.m < 2:
            raise ValidationError("need p >= 1 and m >= 2")

    @property
    def k(self) -> int:
        return len(self.n)

    def contrast_spec(self) -> ContrastSpec:
        if not isinstance(self.contrast, str):
            return ContrastSpec(self.contrast)
        try:
            return ContrastSpec(CONTRAST_PRESETS[self.contrast](self.k))
        except KeyError:
            raise ValidationError(f"unknown contrast preset {self.contrast!r}") from None

    def grid(self) -> Grid:
        return make_uniform_grid(self.m, 0.0, 1.0)

    def nus(self) -> tuple[float, ...]:
        return SCENARIO_NUS[self.scenario]


@dataclass(frozen=True)
class StudyResult:
    """Empirical rejection rates of one Monte Carlo setting.

    ``errors_by_kind`` counts the errored replications by exception class
    name. Over the completed replications, ``dof_clamped`` counts those
    whose degrees-of-freedom brackets were clamped, and ``pole_fallbacks``
    those whose MFLH and MFW approximations took their fallback branches
    (``TestReport.diagnostics`` of each replication, counted).
    """

    config: SimConfig
    rejections: dict
    completed: int
    errored: int
    elapsed_seconds: float
    errors_by_kind: dict
    dof_clamped: int
    pole_fallbacks: dict

    def rate_percent(self, name: str) -> float:
        if self.completed == 0:
            return float("nan")
        return 100.0 * self.rejections[name] / self.completed


def scalar_basis(count: int, grid: Grid) -> np.ndarray:
    """First ``count`` orthonormal scalar basis curves on [0, 1].

    Index 1 is the constant 1; indices 2r and 2r+1 are sqrt(2) sin(2 pi r t)
    and sqrt(2) cos(2 pi r t).
    """
    t = grid.points
    psi = np.empty((count, t.size))
    psi[0] = 1.0
    for idx in range(2, count + 1):
        r = idx // 2
        if idx % 2 == 0:
            psi[idx - 1] = np.sqrt(2.0) * np.sin(2.0 * np.pi * r * t)
        else:
            psi[idx - 1] = np.sqrt(2.0) * np.cos(2.0 * np.pi * r * t)
    return psi


def component_weights(p: int) -> np.ndarray:
    """Weights c_l = l / sqrt(1^2 + ... + p^2), so their squares sum to 1."""
    ell = np.arange(1, p + 1, dtype=np.float64)
    return ell / np.sqrt(np.sum(ell**2))


def component_stream_basis(p: int, q: int, grid: Grid) -> np.ndarray:
    """Basis giving every component its own innovation stream, shape (q*p, p, m).

    Term (r, l) is c_l psi_r(t) on component l and zero elsewhere, so a
    sample built on it draws q independent innovations per component:

        y_l(t) = eta_l(t) + c_l * sum_r sqrt(lambda_r) eps_{lr} psi_r(t).

    Components are independent with integrated covariance
    (sum_r lambda_r) diag(c_1^2, ..., c_p^2), which has full rank p; this
    is the construction behind all simulation presets. Terms are ordered
    r-major: (r=1, l=1..p), (r=2, l=1..p), ...
    """
    if q % 2 == 0 or q < 1:
        raise ValidationError("q must be odd (paired sine/cosine construction)")
    c = component_weights(p)
    psi = scalar_basis(q, grid)
    basis = np.zeros((q * p, p, grid.m))
    for r in range(q):
        for ell in range(p):
            basis[r * p + ell, ell, :] = c[ell] * psi[r]
    return basis


def component_stream_lambdas(nus, rho: float, q: int, p: int) -> np.ndarray:
    """Variance components matching ``component_stream_basis`` term order."""
    return np.repeat(lambda_grid(nus, rho, q), p, axis=1)


def mean_functions(p: int, grid: Grid, delta: float = 0.0) -> np.ndarray:
    """The four preset group mean curves, shape (4, p, m); requires p = 6.

    Groups 1 and 2 share one mean; groups 3 and 4 share another whose
    sixth (polynomial) component is shifted by delta through
    (1, 2, 3, 4) / sqrt(30) on the polynomial coefficients.
    """
    if p != 6:
        raise ValidationError("the preset mean curves are defined for p = 6 only")
    t = grid.points
    base = np.stack(
        [
            np.sin(2.0 * np.pi * t**2) ** 5,
            np.cos(2.0 * np.pi * t**2) ** 5,
            np.cbrt(t) * (1.0 - t) - 5.0,
            np.sqrt(5.0) * t ** (2.0 / 3.0) * np.exp(-7.0 * t),
            np.sqrt(13.0 * t) * np.exp(-13.0 * t / 2.0),
            1.0 + 2.3 * t + 3.4 * t**2 + 1.5 * t**3,
        ]
    )
    shift = delta / np.sqrt(30.0)
    shifted6 = (
        (1.0 + shift)
        + (2.3 + 2.0 * shift) * t
        + (3.4 + 3.0 * shift) * t**2
        + (1.5 + 4.0 * shift) * t**3
    )
    eta3 = base.copy()
    eta3[5] = shifted6
    return np.stack([base, base, eta3, eta3])


def lambda_grid(nus, rho: float, q: int) -> np.ndarray:
    """Variance components nu_i * rho^r for r = 1..q, shape (k, q)."""
    nus = np.asarray(nus, dtype=np.float64)
    r = np.arange(1, q + 1, dtype=np.float64)
    return nus[:, None] * rho ** r[None, :]


def draw_innovations(rng: np.random.Generator, shape, model: int) -> np.ndarray:
    """Zero-mean unit-variance innovations built from standard normals.

    Model 1 uses the normals directly. Model 2 forms t_8 / sqrt(4/3):
    one numerator normal and eight squared normals for the denominator
    chi-square. Model 3 forms (chi2_4 - 4) / (2 sqrt(2)) from four
    squared normals.
    """
    shape = tuple(shape)
    if model == 1:
        return rng.standard_normal(shape)
    if model == 2:
        z = rng.standard_normal(shape + (9,))
        chi2 = np.sum(z[..., 1:] ** 2, axis=-1)
        t8 = z[..., 0] / np.sqrt(chi2 / 8.0)
        return t8 / np.sqrt(4.0 / 3.0)
    if model == 3:
        z = rng.standard_normal(shape + (4,))
        chi2 = np.sum(z**2, axis=-1)
        return (chi2 - 4.0) / (2.0 * np.sqrt(2.0))
    raise ValidationError("model must be 1, 2, or 3")


def _component_sampler(grid: Grid, means, lambdas, basis, n, model: int):
    """``draw(rng)``, which draws one dataset from the component model.

    ``means`` is a float (k, p, m) array, ``lambdas`` (k, q), ``basis``
    (q, p, m) and ``n`` k group sizes; the caller makes them agree. Group
    i's curves are ``means[i] + (eps * sqrt(lambdas[i])) @ basis`` with
    ``eps`` its (n_i, q) innovations. The square roots of the lambdas and
    the flattened basis are computed here once; ``draw`` pays only for its
    innovations and one matrix product per group. Groups are generated in
    order, each consuming its innovations from the shared stream.
    """
    _, p, m = means.shape
    sqrt_lam = np.sqrt(lambdas)
    # (q, p*m) lets BLAS form every curve of a group in one product.
    flat_basis = basis.reshape(basis.shape[0], p * m)

    def draw(rng: np.random.Generator) -> FunctionalDataset:
        groups = []
        for mean, scale, size in zip(means, sqrt_lam, n):
            eps = draw_innovations(rng, (size, scale.size), model)
            values = ((eps * scale) @ flat_basis).reshape(size, p, m)
            values += mean
            groups.append(GroupSample(values))
        return FunctionalDataset(grid, tuple(groups))

    return draw


def _setting_sampler(cfg: SimConfig):
    """``draw(seed)`` for one simulation setting; the setting's grid, mean
    curves, basis and variance components are built once, here."""
    if cfg.k != 4:
        raise ValidationError(f"the preset mean curves and variance components define "
                              f"four groups; n has {cfg.k}")
    grid = cfg.grid()
    sampler = _component_sampler(
        grid,
        mean_functions(cfg.p, grid, cfg.delta)[: cfg.k],
        component_stream_lambdas(cfg.nus(), cfg.rho, cfg.q, cfg.p),
        component_stream_basis(cfg.p, cfg.q, grid),
        cfg.n,
        cfg.model,
    )
    return lambda seed: sampler(np.random.default_rng(seed))


def gen_sample(cfg: SimConfig, seed) -> FunctionalDataset:
    """Generate one dataset for a simulation setting, deterministically."""
    return _setting_sampler(cfg)(seed)


def size_power_study(cfg: SimConfig) -> StudyResult:
    """Empirical rejection rates over ``cfg.reps`` independent replications.

    Replication ``r`` always draws its dataset from
    ``SeedSequence([cfg.seed, r])``. The test's design is built once; each
    replication runs the same per-dataset pass as ``run_glht`` and keeps its
    decisions and diagnostic flags. Replications that fail with a numerical
    degeneracy are counted as errored, by kind, and excluded from the rate
    denominator, never silently dropped.
    """
    spec = cfg.contrast_spec()
    start = time.perf_counter()
    draw = _setting_sampler(cfg)
    design = _design(spec, cfg.n, quad_weights(cfg.grid()), cfg.p, cfg.m, _USTAT_N)
    touched = design.touched.tolist()
    rejections = {name: 0 for name in STATISTIC_NAMES}
    errors: dict[str, int] = {}
    dof_clamped = 0
    pole_fallbacks = {"mflh": 0, "mfw": 0}
    for rep in range(cfg.reps):
        groups = draw([cfg.seed, rep]).groups
        try:
            dof, _, _, theta = _dof_and_statistics(design, [groups[i].values for i in touched])
            _, p_values, flags = _f_tests(_functionals(theta), cfg.p, dof)
        except DegeneracyError as exc:
            kind = type(exc).__name__
            errors[kind] = errors.get(kind, 0) + 1
            continue
        for name in STATISTIC_NAMES:
            rejections[name] += p_values[name] < cfg.alpha
        dof_clamped += flags["dof_clamped"]
        pole_fallbacks["mflh"] += flags["mflh_pole_fallback"]
        pole_fallbacks["mfw"] += flags["mfw_theta_fallback"]
    errored = sum(errors.values())
    return StudyResult(
        config=cfg,
        rejections=rejections,
        completed=cfg.reps - errored,
        errored=errored,
        elapsed_seconds=time.perf_counter() - start,
        errors_by_kind=errors,
        dof_clamped=dof_clamped,
        pole_fallbacks=pole_fallbacks,
    )


def are_metric(alphas, alpha_nominal: float) -> float:
    """Average relative error of empirical sizes against the nominal level.

    Both arguments are in percent; the result is 100 times the mean
    relative deviation.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.size == 0:
        raise InputError("need at least one empirical size")
    if alpha_nominal <= 0:
        raise InputError("nominal level must be positive")
    return float(100.0 * np.mean(np.abs(alphas - alpha_nominal)) / alpha_nominal)


def _evidence(name: str, stats: tuple[float, float, float]) -> float:
    # All three are compared on a larger-is-stronger-evidence scale; the
    # Wilks statistic rejects for small values, so it enters negated.
    value = stats[STATISTIC_NAMES.index(name)]
    return -value if name == "mfw" else value


def permutation_pvalue(
    ds: FunctionalDataset,
    spec: ContrastSpec,
    statistic: str = "mfp",
    b: int = 199,
    seed: int = 0,
) -> float:
    """Label-permutation p-value for one of the three statistics.

    Valid as an exchangeability oracle only under the null with equal
    covariance functions across groups; requires a pure contrast. Only the
    curves of the groups the hypothesis weighs (a nonzero column of C) are
    pooled and relabeled among those groups, so data the hypothesis gives
    zero weight cannot move the p-value. Relabelings keep the group sizes,
    so the test's design is built once; the statistic (including its
    estimated degrees of freedom) is recomputed on every relabeling.
    """
    if statistic not in STATISTIC_NAMES:
        raise InputError(f"statistic must be one of {STATISTIC_NAMES}")
    if not spec.is_pure_contrast():
        raise InputError("permutation test requires a pure contrast (C 1_k = 0)")
    if b < 99:
        raise InputError("use at least 99 permutations")
    design = _design(spec, ds.n, quad_weights(ds.grid), ds.p, ds.m, _USTAT_N)
    values = [ds.group_values(i) for i in design.touched]

    def stat_value(groups) -> float:
        return _evidence(statistic, _functionals(_dof_and_statistics(design, groups)[3]))

    observed = stat_value(values)
    pooled = np.concatenate(values, axis=0)
    rng = np.random.default_rng(seed)
    exceed = 0
    for _ in range(b):
        order = rng.permutation(pooled.shape[0])
        if stat_value([pooled[order[rows]] for rows in design.curves]) >= observed:
            exceed += 1
    return (1.0 + exceed) / (b + 1.0)


def load_config_file(path) -> list[SimConfig]:
    """Read one or many simulation settings from a JSON file.

    The file holds either a single setting object or ``{"settings":
    [...]}`` where top-level keys act as defaults merged into every
    setting. A single setting is read as a one-entry list without defaults.
    Every setting's sampler and test design are built here, so a setting
    that cannot run fails before any study does.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except UnicodeDecodeError as exc:
            raise InputError(f"config file is not valid UTF-8: {exc.reason}") from None
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed config JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InputError("config must be a JSON object")
    if "settings" in raw:
        defaults = {key: value for key, value in raw.items() if key != "settings"}
        entries = raw["settings"]
    else:
        defaults, entries = {}, [raw]
    if not (isinstance(entries, list) and entries and all(isinstance(e, dict) for e in entries)):
        raise InputError("config settings must be a nonempty list of JSON objects")
    known = set(SimConfig.__dataclass_fields__)
    configs = []
    for idx, entry in enumerate(entries):
        merged = {**defaults, **entry}
        unknown = set(merged) - known
        if unknown:
            raise InputError(f"setting {idx + 1}: unknown config keys {sorted(unknown)}")
        try:
            cfg = SimConfig(**merged)
            _setting_sampler(cfg)
            _design(cfg.contrast_spec(), cfg.n, quad_weights(cfg.grid()), cfg.p, cfg.m, _USTAT_N)
        except (TypeError, ValueError, InputError, MemoryError) as exc:
            raise InputError(f"setting {idx + 1}: {exc}") from None
        configs.append(cfg)
    return configs
