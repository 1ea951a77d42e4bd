"""Eigenvalue-location intervals, closed-form norms and entropy bounds.

Matrix-level tools (trace/Frobenius eigenvalue intervals, the singular
value variant, Gershgorin disks) work on any Hermitian or complex matrix.
The closed forms are specific to the channel built on an equiangular tight
frame: they bound, in terms of the frame size (n, d) and state purity
alone, the index of coincidence of the outcome distribution, Frobenius and
spectral norms of the unraveling Gram matrix, and the Renyi and Tsallis
entropies of any unraveling of that channel at every order: one bound per
order serves both, as each Tsallis entropy increases with the Renyi one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import _check_alpha, alpha_log, renyi_interpolation_bound
from .frames import coherence_constant
from .linalg import (
    STRUCTURAL_TOL,
    as_complex_matrix,
    require_hermitian,
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
    def radius(self) -> float:
        return 0.5 * (self.upper - self.lower)

    def slack(self, value: float | np.ndarray) -> float | np.ndarray:
        """Distance from value to the nearer endpoint; negative outside.
        Elementwise for an array of values."""
        return np.minimum(value - self.lower, self.upper - value)


def _trace_interval(n: int, trace: float, radicand: float) -> Interval:
    """Interval trace/n +- sqrt(n-1)/n sqrt(radicand) around the mean of n
    values with sum ``trace``, for the radicand n ||m||_F^2 - tr(m)^2."""
    # Radicands in [-STRUCTURAL_TOL, 0) are rounding noise; anything more
    # negative signals an invalid input rather than numerics.
    if radicand < -STRUCTURAL_TOL:
        raise ValueError(f"negative radicand {radicand:.3e} indicates invalid input")
    radius = float(np.sqrt(n - 1.0) / n * np.sqrt(max(radicand, 0.0)))
    return Interval(trace / n - radius, trace / n + radius)


def _check_purity(n: int, d: int, purity: float) -> None:
    coherence_constant(n, d)  # names impossible sizes before 1/d can divide by zero
    lo = 1.0 / d
    if not (lo - STRUCTURAL_TOL <= purity <= 1.0 + STRUCTURAL_TOL):
        raise ValueError(f"purity must lie in [1/d, 1] = [{lo}, 1], got {purity}")


def ic_upper_bound(n: int, d: int, purity: float) -> float:
    """Largest index of coincidence of the ETF outcome distribution,
    [S c + (1 - c) purity] / S^2 with S = n/d.

    Saturated by every convex mixture of the frame states (hence by the
    maximally mixed state and the pure frame states); an equality for all
    states when n = d^2.
    """
    _check_purity(n, d, purity)
    s = n / d
    c = coherence_constant(n, d)
    return (s * c + (1.0 - c) * purity) / (s * s)


def gram_frobenius_sq(n: int, d: int, ic: float, purity: float) -> float:
    """Exact squared Frobenius norm (1 - c) ic + c purity of the principal
    unraveling Gram matrix of an ETF."""
    _check_purity(n, d, purity)
    if not -STRUCTURAL_TOL <= ic <= 1.0 + STRUCTURAL_TOL:
        raise ValueError(f"index of coincidence must lie in [0, 1], got {ic}")
    c = coherence_constant(n, d)
    return (1.0 - c) * ic + c * purity


def _frobenius_bound(n: int, d: int, purity: float) -> float:
    """Upper bound F = (1 - c) IC_max + c purity on the squared Frobenius norm
    of every unraveling Gram matrix of the principal ETF channel, with IC_max
    from :func:`ic_upper_bound`.

    Every closed form below derives from it: the eigenvalue interval, the
    collision-entropy term of the Renyi bound and the Tsallis bound.
    """
    return gram_frobenius_sq(n, d, ic_upper_bound(n, d, purity), purity)


def kd_frobenius_norm(n: int, d: int, ic: float, purity: float) -> float:
    """Frobenius norm of the Kirkwood-Dirac matrix: (d/n) times the Gram norm."""
    gram_norm = np.sqrt(gram_frobenius_sq(n, d, ic, purity))
    return (d / n) * gram_norm


def eigen_interval(m) -> Interval:
    """Interval around tr(m)/n certain to contain every eigenvalue of a
    Hermitian matrix.

    Radius sqrt(n-1)/n sqrt(n ||m||_F^2 - tr(m)^2). An extreme eigenvalue
    sits exactly on the boundary iff the remaining n - 1 eigenvalues are
    all equal; otherwise the spectrum is strictly inside.
    """
    m = require_hermitian(m)
    n = m.shape[0]
    trace = float(np.trace(m).real)
    return _trace_interval(n, trace, n * float(np.vdot(m, m).real) - trace * trace)


def singular_interval(x) -> Interval:
    """Interval containing every singular value, built from the trace norm
    and Frobenius norm, with n = min(rows, cols)."""
    s = np.linalg.svd(as_complex_matrix(x, "x"), compute_uv=False)
    n = s.size
    trace_norm = float(s.sum())
    return _trace_interval(n, trace_norm, n * float(np.sum(s * s)) - trace_norm * trace_norm)


def gershgorin_disks(m) -> tuple[np.ndarray, np.ndarray]:
    """Disk centers m_kk and deleted-absolute-row-sum radii, as a complex
    (n,) array and a float (n,) array.

    Every eigenvalue of the matrix lies in the union of the disks.
    """
    m = as_complex_matrix(m, "matrix")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"Gershgorin disks need a square matrix, got {m.shape}")
    magnitudes = np.abs(m)
    radii = magnitudes.sum(axis=1) - np.diagonal(magnitudes)
    return np.diagonal(m).copy(), radii


def gershgorin_union(centers, radii) -> Interval:
    """Real interval holding every eigenvalue of a PSD matrix: the real extent
    of its ``gershgorin_disks``, with the lower end clamped at 0."""
    lower = float((centers.real - radii).min())
    upper = float((centers.real + radii).max())
    return Interval(max(0.0, lower), upper)


def etf_eigen_interval(n: int, d: int, purity: float) -> Interval:
    """Eigenvalue interval for the Gram matrix of any unraveling of the
    principal ETF channel, in terms of frame size and purity only.

    Center 1/n; radius sqrt(n-1)/n sqrt(n F - 1), with F the Frobenius
    bound of :func:`_frobenius_bound`. For the maximally mixed state it
    coincides with the Gershgorin interval of radius (n-d)/(nd).
    """
    return _trace_interval(n, 1.0, n * _frobenius_bound(n, d, purity) - 1.0)


def etf_spectral_bound(n: int, d: int, purity: float) -> float:
    """Upper bound on the spectral norm of every unraveling Gram matrix of
    the principal ETF channel; strictly below 1 for pure states when n > d."""
    return etf_eigen_interval(n, d, purity).upper


def renyi_uncertainty_bound(n: int, d: int, purity: float, alpha: float) -> float:
    """Lower bound on the order-alpha Renyi entropy, alpha > 0, of the
    outcome distribution of any unraveling of the principal ETF channel.

    The collision-entropy bound -log F, F the Frobenius bound, up to
    alpha = 2, as H_alpha >= H_2 there; above 2 it interpolates between it
    and the min-entropy bound, minus the log of the spectral bound.
    """
    a = _check_alpha(alpha)
    r2 = max(-float(np.log(_frobenius_bound(n, d, purity))), 0.0)
    rinf = max(-float(np.log(etf_spectral_bound(n, d, purity))), 0.0)
    return renyi_interpolation_bound(r2, rinf, max(a, 2.0))


def tsallis_uncertainty_bound(n: int, d: int, purity: float, alpha: float) -> float:
    """Lower bound on the order-alpha Tsallis entropy, alpha > 0 finite, of
    the outcome distribution of any unraveling of the principal ETF channel.

    As sum p^alpha = exp((1 - alpha) H_alpha), the Tsallis entropy is the
    deformed logarithm of exp H_alpha, which increases with H_alpha; the bound
    is that of exp R_alpha, R_alpha the Renyi bound, and up to alpha = 2 that
    of 1/F, F the Frobenius bound.
    """
    return alpha_log(np.exp(renyi_uncertainty_bound(n, d, purity, alpha)), alpha)


def pure_state_margin(n: int, d: int) -> float:
    """((d-1)/d) n^2 - n - d^2 + 2d = (n-d)((d-1)n + d(d-2))/d, of the sign of
    the exact gap (1 - 1/n)^2 - r^2 = (d-1)(n-d)(n+d-2)/(d n (n-1)) between 1
    and the upper end 1/n + r of the pure-state eigenvalue interval.

    Zero exactly at n = d and positive for n > d >= 2, so the pure-state
    spectral bound is below 1 exactly when n > d; only the sign means anything.
    The numerator is an exact integer and one int division rounds it
    correctly, so the root at n = d is exact.
    """
    if d < 2:
        raise ValueError(f"margin defined for d >= 2, got d={d}")
    if n < d:
        raise ValueError(f"need n >= d, got n={n} < d={d}")
    return ((d - 1) * n * n - d * (n + d * d - 2 * d)) / d
