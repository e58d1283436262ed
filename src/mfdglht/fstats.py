"""Test statistics, F-approximations, p-values, and the end-to-end test.

Scaling the hypothesis and error variation matrices by their estimated
degrees of freedom yields two approximately Wishart matrices M1 and M2.
The Wilks, Lawley-Hotelling, and Pillai functionals of (M1, M2) are
functions of the eigenvalues theta of M2^{-1} M1, the spectrum of S M1 S^T
for any S with S^T S = M2^{-1}. A test's M2 is d_e times the pooled matrix,
so S is the root the preparation pass already took over sqrt(d_e); only
``statistics``, given any pair, factors M2. Each is then mapped to an F
statistic with (possibly fractional) degrees of freedom.

A test is the design of its contrast and group sizes (``glht._design``),
built once, and a per-dataset pass: ``_dof_and_statistics`` (the
preparation, the one Gram, the degrees of freedom and theta), then
``_f_tests`` (the three F approximations, p-values and diagnostic flags).
The pass returns plain floats, arrays and flags; ``run_glht`` wraps them in
a ``TestReport``, and a Monte Carlo study reads its decisions and flags
directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc

from .dataset import FunctionalDataset
from .dof import DofEstimate, _Dof, _dof, _dof_estimate
from .errors import (
    ApproximationUndefinedError,
    InputError,
    NotPositiveDefiniteError,
    SingularErrorMatrixError,
    ValidationError,
)
from .glht import _USTAT_N, ContrastSpec, _Design, _design, _equilibrated_inv_sqrt, _prepare
from .grid import quad_weights

__all__ = [
    "TestStatistics",
    "FApprox",
    "TestReport",
    "statistics",
    "f_cdf",
    "f_sf",
    "f_approx_mfw",
    "f_approx_mflh",
    "f_approx_mfp",
    "run_glht",
]

STATISTIC_NAMES = ("mfw", "mflh", "mfp")

# Eigenvalue ratio at which ``statistics`` counts M2 scaled to unit diagonal as
# singular. A test's M2 is d_e times the pooled matrix, whose unit-diagonal
# scaling already passed PD_REL_TOL = 1e-10, so no test's M2 fails it.
M2_REL_TOL = 1e-13


@dataclass(frozen=True)
class TestStatistics:
    """The three matrix functionals of M1 (hypothesis) and M2 (error)."""

    mfw: float
    mflh: float
    mfp: float
    m1: np.ndarray = field(repr=False)
    m2: np.ndarray = field(repr=False)

    def by_name(self, name: str) -> float:
        return {"mfw": self.mfw, "mflh": self.mflh, "mfp": self.mfp}[name]


@dataclass(frozen=True)
class FApprox:
    """F statistic with degrees of freedom and the branch that produced it."""

    f_stat: float
    df1: float
    df2: float
    branch: str
    aux: dict = field(default_factory=dict)
    pole_fallback: bool = False


def _json_number(value: float) -> float | None:
    """JSON has no NaN: the functionals of groups the hypothesis does not
    weigh, which are never computed, become null."""
    return None if math.isnan(value) else value


@dataclass(frozen=True)
class TestReport:
    """Everything one test run produces, ready for JSON serialization."""

    statistics: TestStatistics
    approx: dict
    p_values: dict
    dof: DofEstimate
    alpha: float
    decisions: dict
    diagnostics: dict

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "statistics": {name: self.statistics.by_name(name) for name in STATISTIC_NAMES},
            "f_approx": {
                name: {
                    "f_stat": approx.f_stat,
                    "df1": approx.df1,
                    "df2": approx.df2,
                    "branch": approx.branch,
                    "pole_fallback": approx.pole_fallback,
                    "aux": dict(approx.aux),
                }
                for name, approx in self.approx.items()
            },
            "p_values": dict(self.p_values),
            "decisions": dict(self.decisions),
            "dof": {
                "d_b": self.dof.d_b,
                "d_e": self.dof.d_e,
                "within": [
                    {
                        "i_hat": _json_number(ws.i_hat),
                        "t_hat": _json_number(ws.t_hat),
                        "tr_sigma2_hat": _json_number(ws.tr_sigma2_hat),
                        "k4_hat": _json_number(ws.k4_hat),
                    }
                    for ws in self.dof.within
                ],
                "i_cross": [[_json_number(v) for v in row] for row in self.dof.i_cross.tolist()],
                "t_cross": [[_json_number(v) for v in row] for row in self.dof.t_cross.tolist()],
                "clamped_b": list(self.dof.clamped_b),
                "clamped_e": list(self.dof.clamped_e),
            },
            "diagnostics": dict(self.diagnostics),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _theta(root: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of M2^{-1} M1, given a ``root`` with
    root^T root = M2^{-1}: the spectrum of the symmetric root M1 root^T."""
    sym = root @ m1 @ root.T
    if not np.isfinite(sym).all():
        raise ValidationError("M1 and M2 must be finite")
    theta = np.linalg.eigvalsh(sym)
    # By Sylvester's law of inertia theta has the signs of M1's eigenvalues.
    if theta[0] < -1e-8 * max(1.0, np.abs(theta).max()):
        raise ValidationError("M1 must be positive semidefinite")
    return theta


def _functionals(theta: np.ndarray) -> tuple[float, float, float]:
    """Wilks, Lawley-Hotelling and Pillai from the eigenvalues of M2^{-1} M1."""
    return (
        float((1.0 / (1.0 + theta)).prod()),
        float(theta.sum()),
        float((theta / (1.0 + theta)).sum()),
    )


def statistics(m1: np.ndarray, m2: np.ndarray) -> TestStatistics:
    """Wilks, Lawley-Hotelling, and Pillai functionals of (M1, M2).

    All three are functions of the eigenvalues theta of M2^{-1} M1: Wilks
    is prod 1/(1 + theta), Lawley-Hotelling sum theta, Pillai sum
    theta/(1 + theta). M2 is factored by ``glht._equilibrated_inv_sqrt``,
    as the pooled matrix is: an error matrix with a nonpositive diagonal
    entry fails fast, as does one singular to working precision once scaled
    to unit diagonal; a negative theta means M1 is not positive semidefinite.
    """
    m1 = np.asarray(m1, dtype=np.float64)
    m2 = np.asarray(m2, dtype=np.float64)
    if m1.shape != m2.shape or m1.ndim != 2 or m1.shape[0] != m1.shape[1]:
        raise ValidationError("M1 and M2 must be square matrices of equal size")
    m1 = (m1 + m1.T) / 2.0
    m2 = (m2 + m2.T) / 2.0
    if not (np.isfinite(m1).all() and np.isfinite(m2).all()):
        raise ValidationError("M1 and M2 must be finite")
    try:
        root = _equilibrated_inv_sqrt(m2, M2_REL_TOL)
    except NotPositiveDefiniteError as exc:
        raise SingularErrorMatrixError("error matrix M2 is not positive definite") from exc
    return TestStatistics(*_functionals(_theta(root, m1)), m1=m1, m2=m2)


def _check_args(stat: float, df1: float, df2: float, error: type) -> None:
    """Reject a NaN statistic and degrees of freedom that are not finite and positive."""
    if math.isnan(stat):
        raise error("the statistic must not be NaN")
    if not (math.isfinite(df1) and math.isfinite(df2)):
        raise error("degrees of freedom must be finite")
    if df1 <= 0 or df2 <= 0:
        raise error("degrees of freedom must be positive")


def f_cdf(x: float, df1: float, df2: float) -> float:
    """CDF of the F distribution, fractional degrees of freedom included."""
    _check_args(x, df1, df2, InputError)
    if x < 0:
        raise InputError("the F distribution is supported on x >= 0")
    z = df1 * x / (df1 * x + df2) if x < math.inf else 1.0
    return float(betainc(df1 / 2.0, df2 / 2.0, z))


def f_sf(x: float, df1: float, df2: float) -> float:
    """Survival function 1 - f_cdf, computed without cancellation."""
    _check_args(x, df1, df2, InputError)
    if x < 0:
        raise InputError("the F distribution is supported on x >= 0")
    return float(betainc(df2 / 2.0, df1 / 2.0, df2 / (df1 * x + df2)))


def _nu_s(p: int, d_b: float, d_e: float) -> tuple[float, float, float]:
    nu1 = (abs(d_b - p) - 1.0) / 2.0
    nu2 = (d_e - p - 1.0) / 2.0
    s = min(float(p), d_b)
    return nu1, nu2, s


def f_approx_mfw(t: float, p: int, d_b: float, d_e: float) -> FApprox:
    """F-approximation of the Wilks statistic."""
    if not (0.0 < t <= 1.0):
        raise ValidationError(f"Wilks statistic must lie in (0, 1], got {t}")
    _check_args(t, d_b, d_e, ValidationError)
    den = p * p + d_b * d_b - 5.0
    num = p * p * d_b * d_b - 4.0
    # Outside den > 0 < num, theta1 falls back to 1; num <= 0 < den is outside
    # the formula's intended range, so that case is flagged.
    theta1 = float(np.sqrt(num / den)) if den > 0 and num > 0 else 1.0
    pole_fallback = den > 0 and num <= 0
    theta2 = d_e - (p - d_b + 1.0) / 2.0
    theta3 = p * d_b / 2.0 - 1.0
    df1 = p * d_b
    df2 = theta1 * theta2 - theta3
    if df2 <= 0:
        raise ApproximationUndefinedError(
            f"Wilks F-approximation undefined: theta1*theta2 - theta3 = {df2:.6g} <= 0 "
            f"(p={p}, d_b={d_b:.6g}, d_e={d_e:.6g})"
        )
    t_root = t ** (1.0 / theta1)
    f_stat = (df2 / df1) * (1.0 - t_root) / t_root
    return FApprox(
        f_stat=float(f_stat),
        df1=float(df1),
        df2=float(df2),
        branch="MFW",
        aux={"theta1": theta1, "theta2": theta2, "theta3": theta3},
        pole_fallback=pole_fallback,
    )


def f_approx_mflh(t: float, p: int, d_b: float, d_e: float) -> FApprox:
    """F-approximation of the Lawley-Hotelling statistic.

    The positive-nu2 formula needs phi2 > 1, and phi2 has a pole at nu2 = 1.
    Everywhere else the nonpositive-nu2 formula is used; for a positive nu2
    that is a fallback, and it is flagged.
    """
    if t < 0:
        raise ValidationError(f"Lawley-Hotelling statistic must be >= 0, got {t}")
    _check_args(t, d_b, d_e, ValidationError)
    nu1, nu2, s = _nu_s(p, d_b, d_e)
    aux = {"nu1": nu1, "nu2": nu2, "s": s}
    if nu2 > 0 and abs(nu2 - 1.0) > 1e-9:
        aux["phi2"] = (p + 2 * nu2) * (d_b + 2 * nu2) / (2 * (2 * nu2 + 1) * (nu2 - 1))
    if aux.get("phi2", 1.0) > 1.0 + 1e-9:
        ratio = (p * d_b + 2.0) / (aux["phi2"] - 1.0)
        phi1 = (2.0 + ratio) / (2.0 * nu2)
        aux["phi1"] = phi1
        df1 = p * d_b
        df2 = 4.0 + ratio
        f_stat = df2 * t / (df1 * phi1)
        return FApprox(
            f_stat=float(f_stat),
            df1=float(df1),
            df2=float(df2),
            branch="MFLH-pos-nu2",
            aux=aux,
        )
    df1 = s * (2 * nu1 + s + 1)
    df2 = 2 * (s * nu2 + 1)
    if df2 <= 0:
        raise ApproximationUndefinedError(
            f"Lawley-Hotelling F-approximation undefined: 2(s*nu2 + 1) = "
            f"{df2:.6g} <= 0 (p={p}, d_b={d_b:.6g}, d_e={d_e:.6g})"
        )
    f_stat = df2 * t / (s * s * (2 * nu1 + s + 1))
    return FApprox(
        f_stat=float(f_stat),
        df1=float(df1),
        df2=float(df2),
        branch="MFLH-neg-nu2",
        aux=aux,
        pole_fallback=nu2 > 0,
    )


def f_approx_mfp(t: float, p: int, d_b: float, d_e: float) -> FApprox:
    """F-approximation of the Pillai statistic."""
    _check_args(t, d_b, d_e, ValidationError)
    nu1, nu2, s = _nu_s(p, d_b, d_e)
    if not (0.0 <= t < s):
        raise ApproximationUndefinedError(
            f"Pillai F-approximation needs 0 <= t < s = {s:.6g}, got t = {t:.6g}"
        )
    df1 = s * (2 * nu1 + s + 1)
    df2 = s * (2 * nu2 + s + 1)
    if df2 <= 0:
        raise ApproximationUndefinedError(
            f"Pillai F-approximation undefined: s(2*nu2 + s + 1) = {df2:.6g} <= 0 "
            f"(p={p}, d_b={d_b:.6g}, d_e={d_e:.6g})"
        )
    f_stat = ((2 * nu2 + s + 1) / (2 * nu1 + s + 1)) * t / (s - t)
    return FApprox(
        f_stat=float(f_stat),
        df1=float(df1),
        df2=float(df2),
        branch="MFP",
        aux={"nu1": nu1, "nu2": nu2, "s": s},
    )


def _dof_and_statistics(design: _Design, values) -> tuple[_Dof, np.ndarray, np.ndarray, np.ndarray]:
    """The per-dataset pass up to the statistics, for the touched groups'
    curves ``values``: the degrees of freedom, the DoF-scaled hypothesis and
    error matrices M1 and M2, and the eigenvalues of M2^{-1} M1."""
    bn, omega, curves = _prepare(design, values)
    dof = _dof(design, curves)
    m1 = dof.d_b * bn
    theta = _theta(omega.inv_sqrt / math.sqrt(dof.d_e), m1)
    return dof, m1, dof.d_e * omega.omega, theta


def _f_tests(functionals: tuple[float, float, float], p: int,
             dof: _Dof) -> tuple[dict, dict, dict]:
    """The F approximations of (mfw, mflh, mfp), their p-values, and the
    diagnostic flags of the degrees of freedom and the approximations."""
    mfw, mflh, mfp = functionals
    approx = {
        "mfw": f_approx_mfw(mfw, p, dof.d_b, dof.d_e),
        "mflh": f_approx_mflh(mflh, p, dof.d_b, dof.d_e),
        "mfp": f_approx_mfp(mfp, p, dof.d_b, dof.d_e),
    }
    p_values = {name: f_sf(fa.f_stat, fa.df1, fa.df2) for name, fa in approx.items()}
    diagnostics = {
        "dof_clamped": bool((dof.brackets < 0).any()),
        "mflh_pole_fallback": approx["mflh"].pole_fallback,
        "mfw_theta_fallback": approx["mfw"].pole_fallback,
    }
    return approx, p_values, diagnostics


def run_glht(
    ds: FunctionalDataset,
    spec: ContrastSpec,
    alpha: float = 0.05,
) -> TestReport:
    """Run all three tests end to end on one dataset and contrast."""
    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    design = _design(spec, ds.n, quad_weights(ds.grid), ds.p, _USTAT_N)
    dof, m1, m2, theta = _dof_and_statistics(
        design, [ds.group_values(i) for i in design.touched]
    )
    functionals = _functionals(theta)
    approx, p_values, diagnostics = _f_tests(functionals, ds.p, dof)
    decisions = {name: bool(p_values[name] < alpha) for name in approx}
    return TestReport(
        statistics=TestStatistics(*functionals, m1=m1, m2=m2),
        approx=approx,
        p_values=p_values,
        dof=_dof_estimate(design, dof),
        alpha=float(alpha),
        decisions=decisions,
        diagnostics=diagnostics,
    )
