"""Renyi and Tsallis entropies of discrete distributions.

Conventions: natural logarithms throughout; 0 log 0 = 0 and 0^alpha = 0,
with zero probabilities dropped from sums; orders within ALPHA_ONE_WINDOW
of 1 take the Shannon branch to avoid catastrophic cancellation in the
(1 - alpha)^(-1) prefactor.
"""

from __future__ import annotations

import numpy as np

from .linalg import NUMERIC_TOL, STRUCTURAL_TOL, require_finite

# |alpha - 1| below this uses the Shannon limit of both entropy families.
ALPHA_ONE_WINDOW = 1e-6


def _check_alpha(alpha: float) -> float:
    a = float(alpha)
    if np.isnan(a) or a <= 0.0:
        raise ValueError(f"entropy order must be positive, got {alpha}")
    return a


def clean_probabilities(p) -> np.ndarray:
    """Validate a probability vector, clamping rounded-zero negatives.

    Entries below -STRUCTURAL_TOL, or a total off 1 by more than
    NUMERIC_TOL, raise instead of being silently renormalized.
    """
    p = np.asarray(p, dtype=float).ravel()
    if p.size == 0:
        raise ValueError("empty probability vector")
    smallest = float(require_finite(p, "probability vector").min())
    if smallest < -STRUCTURAL_TOL:
        raise ValueError(f"negative probability {smallest:.3e}")
    p = np.where(p < 0.0, 0.0, p)
    total = float(p.sum())
    if abs(total - 1.0) > NUMERIC_TOL:
        raise ValueError(f"probabilities must sum to 1, got {total!r}")
    return p


def alpha_log(xi: float, alpha: float) -> float:
    """Deformed logarithm (xi^(1-alpha) - 1) / (1 - alpha); ln at alpha = 1."""
    a = _check_alpha(alpha)
    if np.isinf(a):
        raise ValueError("the deformed logarithm is not defined at alpha = inf")
    x = float(xi)
    if not x > 0.0:
        raise ValueError(f"argument must be strictly positive, got {xi}")
    if abs(a - 1.0) < ALPHA_ONE_WINDOW:
        return float(np.log(x))
    return float((x ** (1.0 - a) - 1.0) / (1.0 - a))


def _shannon(p: np.ndarray) -> float:
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def renyi_entropy(p, alpha: float) -> float:
    """Renyi entropy (1 - alpha)^(-1) ln sum_j p_j^alpha, in nats.

    alpha=1 is Shannon, alpha=2 the collision entropy -ln sum p^2 and
    alpha=inf the min-entropy -ln max p.
    """
    a = _check_alpha(alpha)
    q = clean_probabilities(p)
    nz = q[q > 0.0]
    if np.isinf(a):
        return float(-np.log(nz.max()))
    if abs(a - 1.0) < ALPHA_ONE_WINDOW:
        return _shannon(q)
    # max-normalized power sum keeps huge orders from underflowing to 0
    top = nz.max()
    return float((a * np.log(top) + np.log(np.sum((nz / top) ** a))) / (1.0 - a))


def tsallis_entropy(p, alpha: float) -> float:
    """Tsallis entropy (1 - alpha)^(-1) (sum_j p_j^alpha - 1); Shannon at alpha = 1."""
    a = _check_alpha(alpha)
    if np.isinf(a):
        raise ValueError("the Tsallis family is not defined at alpha = inf")
    q = clean_probabilities(p)
    if abs(a - 1.0) < ALPHA_ONE_WINDOW:
        return _shannon(q)
    nz = q[q > 0.0]
    return float((np.sum(nz**a) - 1.0) / (1.0 - a))


def index_of_coincidence(p) -> float:
    """Collision probability sum_j p_j^2."""
    q = clean_probabilities(p)
    return float(np.sum(q * q))


def renyi_interpolation_bound(r2: float, rinf: float, alpha: float) -> float:
    """Lower bound on the order-alpha Renyi entropy, alpha in [2, inf], from
    the collision entropy r2 and the min-entropy rinf.

    ((alpha - 2) rinf + r2) / (alpha - 1); collapses to r2 at alpha = 2 and
    to rinf at alpha = inf.
    """
    if not alpha >= 2.0:
        raise ValueError(f"interpolation needs alpha >= 2, got {alpha}")
    if rinf < -NUMERIC_TOL or r2 < rinf - NUMERIC_TOL:
        raise ValueError(
            f"need collision entropy >= min-entropy >= 0, got r2={r2!r}, rinf={rinf!r}"
        )
    if np.isinf(alpha):
        return float(rinf)
    return float(((alpha - 2.0) * rinf + r2) / (alpha - 1.0))
