"""Renyi and Tsallis entropies of discrete distributions.

Conventions: natural logarithms throughout; 0 log 0 = 0 and 0^alpha = 0,
so zero probabilities add nothing to sums; orders within ALPHA_ONE_WINDOW
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
    """Validate a probability vector, or each row of a stack of them (last
    axis), clamping rounded-zero negatives.

    Entries below -STRUCTURAL_TOL, or a total off 1 by more than
    NUMERIC_TOL, raise instead of being silently renormalized; in a stack
    the message gives the value of the first offending row.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if p.shape[-1] == 0:
        raise ValueError("empty probability vector")
    smallest = require_finite(p, "probability vector").min(axis=-1)
    p = np.where(p < 0.0, 0.0, p)
    totals = p.sum(axis=-1)
    bad = (smallest < -STRUCTURAL_TOL) | (np.abs(totals - 1.0) > NUMERIC_TOL)
    if bad.any():
        row = np.unravel_index(np.argmax(bad), bad.shape)
        if smallest[row] < -STRUCTURAL_TOL:
            raise ValueError(f"negative probability {float(smallest[row]):.3e}")
        raise ValueError(f"probabilities must sum to 1, got {float(totals[row])!r}")
    return p


def _value(x):
    """A float for one distribution, the array of row values for a stack."""
    return float(x) if np.ndim(x) == 0 else x


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


def _shannon(q: np.ndarray):
    # 0 log 0 = 0: zero entries take log 1
    return -(q * np.log(np.where(q > 0.0, q, 1.0))).sum(axis=-1)


def renyi_entropy(p, alpha: float):
    """Renyi entropy (1 - alpha)^(-1) ln sum_j p_j^alpha, in nats.

    alpha=1 is Shannon, alpha=2 the collision entropy -ln sum p^2 and
    alpha=inf the min-entropy -ln max p. A stack of distributions along the
    last axis gives the array of their entropies, a single one a float.
    """
    a = _check_alpha(alpha)
    q = clean_probabilities(p)
    top = q.max(axis=-1, keepdims=True)
    if np.isinf(a):
        return _value(-np.log(top[..., 0]))
    if abs(a - 1.0) < ALPHA_ONE_WINDOW:
        return _value(_shannon(q))
    # max-normalized power sum keeps huge orders from underflowing to 0
    power_sum = np.sum((q / top) ** a, axis=-1)
    return _value((a * np.log(top[..., 0]) + np.log(power_sum)) / (1.0 - a))


def tsallis_entropy(p, alpha: float):
    """Tsallis entropy (1 - alpha)^(-1) (sum_j p_j^alpha - 1); Shannon at alpha = 1.

    Stacks reduce along the last axis, as in ``renyi_entropy``.
    """
    a = _check_alpha(alpha)
    if np.isinf(a):
        raise ValueError("the Tsallis family is not defined at alpha = inf")
    q = clean_probabilities(p)
    if abs(a - 1.0) < ALPHA_ONE_WINDOW:
        return _value(_shannon(q))
    return _value((np.sum(q**a, axis=-1) - 1.0) / (1.0 - a))


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
