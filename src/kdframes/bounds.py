"""Eigenvalue-location intervals, closed-form norms and entropy bounds.

Matrix-level tools (trace/Frobenius eigenvalue intervals, the singular
value variant, Gershgorin disks) work on any Hermitian or complex matrix.
The closed forms are specific to the channel built on an equiangular tight
frame: they bound, in terms of the frame size (n, d) and state purity
alone, the index of coincidence of the outcome distribution, Frobenius and
spectral norms of the unraveling Gram matrix, and the Renyi and Tsallis
entropies of any unraveling of that channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .entropy import alpha_log, renyi_interpolation_bound
from .frames import EtfParameters
from .linalg import (
    SATURATION_TOL,
    STRUCTURAL_TOL,
    as_complex_matrix,
    require_hermitian,
    require_psd,
    singular_values,
)


@dataclass(frozen=True)
class Interval:
    """Closed real interval."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise ValueError(f"need lower <= upper, got [{self.lower}, {self.upper}]")

    @property
    def center(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def radius(self) -> float:
        return 0.5 * (self.upper - self.lower)

    def slack(self, value: float) -> float:
        """Distance from value to the nearer endpoint; negative outside."""
        return min(value - self.lower, self.upper - value)


@dataclass(frozen=True)
class BoundReport:
    """A bound next to the achieved quantity it controls.

    ``slack`` is bound - achieved for upper bounds and achieved - bound for
    lower bounds, so a valid bound always has slack >= -tolerance;
    ``saturated`` flags |slack| <= tol.
    """

    bound_value: float
    achieved_value: float
    slack: float
    saturated: bool

    @classmethod
    def upper(cls, bound: float, achieved: float, tol: float = SATURATION_TOL) -> "BoundReport":
        slack = bound - achieved
        return cls(bound, achieved, slack, abs(slack) <= tol)

    @classmethod
    def lower(cls, bound: float, achieved: float, tol: float = SATURATION_TOL) -> "BoundReport":
        slack = achieved - bound
        return cls(bound, achieved, slack, abs(slack) <= tol)


def _trace_interval(n: int, trace: float, radicand: float) -> Interval:
    """Interval trace/n +- sqrt(n-1)/n sqrt(radicand) around the mean of n
    values with sum ``trace``, for the radicand n ||m||_F^2 - tr(m)^2."""
    # Radicands in [-STRUCTURAL_TOL, 0) are rounding noise; anything more
    # negative signals an invalid input rather than numerics.
    if radicand < -STRUCTURAL_TOL:
        raise ValueError(f"negative radicand {radicand:.3e} indicates invalid input")
    radius = np.sqrt(n - 1.0) / n * np.sqrt(max(radicand, 0.0))
    return Interval(trace / n - radius, trace / n + radius)


def _check_purity(params: EtfParameters, purity: float) -> None:
    lo = 1.0 / params.d
    if not (lo - STRUCTURAL_TOL <= purity <= 1.0 + STRUCTURAL_TOL):
        raise ValueError(f"purity must lie in [1/d, 1] = [{lo}, 1], got {purity}")


def ic_upper_bound(params: EtfParameters, purity: float) -> float:
    """Largest index of coincidence of the ETF outcome distribution,
    [S c + (1 - c) purity] / S^2 with S = n/d.

    Saturated by every convex mixture of the frame states (hence by the
    maximally mixed state and the pure frame states); an equality for all
    states when n = d^2.
    """
    _check_purity(params, purity)
    s = params.redundancy
    c = params.coherence
    return (s * c + (1.0 - c) * purity) / (s * s)


def gram_frobenius_sq(params: EtfParameters, ic: float, purity: float) -> float:
    """Exact squared Frobenius norm (1 - c) ic + c purity of the principal
    unraveling Gram matrix of an ETF."""
    _check_purity(params, purity)
    if not -STRUCTURAL_TOL <= ic <= 1.0 + STRUCTURAL_TOL:
        raise ValueError(f"index of coincidence must lie in [0, 1], got {ic}")
    c = params.coherence
    return (1.0 - c) * ic + c * purity


def kd_frobenius_norm(params: EtfParameters, ic: float, purity: float) -> float:
    """Frobenius norm of the Kirkwood-Dirac matrix: (d/n) times the Gram norm."""
    return (params.d / params.n) * np.sqrt(gram_frobenius_sq(params, ic, purity))


def eigen_interval(m, tol: float = STRUCTURAL_TOL) -> Interval:
    """Interval around tr(m)/n certain to contain every eigenvalue of a
    Hermitian matrix.

    Radius sqrt(n-1)/n sqrt(n ||m||_F^2 - tr(m)^2). An extreme eigenvalue
    sits exactly on the boundary iff the remaining n - 1 eigenvalues are
    all equal; otherwise the spectrum is strictly inside.
    """
    m = require_hermitian(m, tol)
    n = m.shape[0]
    trace = float(np.trace(m).real)
    return _trace_interval(n, trace, n * float(np.vdot(m, m).real) - trace * trace)


def singular_interval(x) -> Interval:
    """Interval containing every singular value, built from the trace norm
    and Frobenius norm, with n = min(rows, cols)."""
    s = singular_values(x)
    n = s.size
    trace_norm = float(s.sum())
    return _trace_interval(n, trace_norm, n * float(np.sum(s * s)) - trace_norm * trace_norm)


def max_eig_upper_bound(m) -> float:
    """Upper bound (||m||_1 + sqrt(n-1) sqrt(n ||m||_F^2 - ||m||_1^2)) / n on
    the largest eigenvalue of a PSD matrix: eigen_interval(m).upper, as ||m||_1 = tr m.

    Exact iff the other n - 1 eigenvalues are all equal.
    """
    m = require_hermitian(m)
    require_psd(m)
    return eigen_interval(m).upper


def gershgorin_disks(m) -> list[tuple[complex, float]]:
    """Disk centers m_kk with deleted-absolute-row-sum radii.

    Every eigenvalue of the matrix lies in the union of the disks.
    """
    m = as_complex_matrix(m, "matrix")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"Gershgorin disks need a square matrix, got {m.shape}")
    magnitudes = np.abs(m)
    radii = magnitudes.sum(axis=1) - np.diagonal(magnitudes)
    return [(complex(m[k, k]), float(radii[k])) for k in range(m.shape[0])]


def gershgorin_union(m) -> Interval:
    """Real interval holding every eigenvalue of a PSD matrix: the real
    extent of its Gershgorin disks, with the lower end clamped at 0."""
    disks = gershgorin_disks(m)
    lower = min(center.real - radius for center, radius in disks)
    upper = max(center.real + radius for center, radius in disks)
    return Interval(max(0.0, lower), upper)


def etf_eigen_interval(params: EtfParameters, purity: float) -> Interval:
    """Eigenvalue interval for the Gram matrix of any unraveling of the
    principal ETF channel, in terms of frame size and purity only.

    Center 1/n; radius sqrt(n-1)/n times the square root of
    ((1-c)^2/S^2 + c) n purity + (1-c) c d - 1. For the maximally mixed
    state it coincides with the Gershgorin interval of radius (n-d)/(nd).
    """
    _check_purity(params, purity)
    n, d = params.n, params.d
    s = params.redundancy
    c = params.coherence
    arg = ((1.0 - c) ** 2 / (s * s) + c) * n * purity + (1.0 - c) * c * d - 1.0
    return _trace_interval(n, 1.0, arg)


def etf_spectral_bound(params: EtfParameters, purity: float) -> float:
    """Upper bound on the spectral norm of every unraveling Gram matrix of
    the principal ETF channel; strictly below 1 for pure states when n > d."""
    return etf_eigen_interval(params, purity).upper


def renyi_uncertainty_bound(params: EtfParameters, purity: float, alpha: float) -> float:
    """Lower bound on the order-alpha Renyi entropy, alpha in [2, inf], of
    the outcome distribution of any unraveling of the principal ETF channel.

    Interpolates between the collision-entropy bound (minus the log of the
    closed-form Frobenius estimate) and the min-entropy bound (minus the
    log of the spectral bound).
    """
    if not alpha >= 2.0:
        raise ValueError(f"Renyi bound defined for alpha >= 2, got {alpha}")
    _check_purity(params, purity)
    s = params.redundancy
    c = params.coherence
    frobenius_estimate = (1.0 - c) * c / s + ((1.0 - c) ** 2 / (s * s) + c) * purity
    r2 = max(-float(np.log(frobenius_estimate)), 0.0)
    rinf = max(-float(np.log(etf_spectral_bound(params, purity))), 0.0)
    return renyi_interpolation_bound(r2, rinf, alpha)


def tsallis_uncertainty_bound(params: EtfParameters, purity: float, alpha: float) -> float:
    """Lower bound on the order-alpha Tsallis entropy, alpha in (0, 2], of
    the outcome distribution of any unraveling of the principal ETF channel.

    The deformed logarithm of S^2 / [(1-c) c S + ((1-c)^2 + c S^2) purity].
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"Tsallis bound defined for alpha in (0, 2], got {alpha}")
    _check_purity(params, purity)
    s = params.redundancy
    c = params.coherence
    denom = (1.0 - c) * c * s + ((1.0 - c) ** 2 + c * s * s) * purity
    return alpha_log(s * s / denom, alpha)


def pure_state_margin(n: int, d: int) -> float:
    """Margin ((d-1)/d) n^2 - n - d^2 + 2d by which the pure-state
    eigenvalue interval stays inside [0, 1).

    Zero exactly at n = d and positive for every n > d once d >= 2, which
    is what keeps the spectral bound for pure frame states below 1.
    Evaluated in exact rational arithmetic so the root at n = d is exact.
    """
    if d < 2:
        raise ValueError(f"margin defined for d >= 2, got d={d}")
    if n < d:
        raise ValueError(f"need n >= d, got n={n} < d={d}")
    return float(Fraction((d - 1) * n * n, d) - n - d * d + 2 * d)
