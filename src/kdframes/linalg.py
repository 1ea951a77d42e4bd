"""Dense complex matrix kernel.

Input checks, the tolerance constants, Hermitian eigenvalues and
Haar-random unitaries used by the frame, channel and report layers.
All functions are pure; randomness enters only through an explicit seed
or ``numpy.random.Generator``, never through global state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Absolute tolerance for structural validation (Hermiticity, unit traces).
STRUCTURAL_TOL = 1e-12
# Tolerance for numerical identities (residuals, probability sums).
NUMERIC_TOL = 1e-10


@dataclass(frozen=True)
class Tolerances:
    """The two tolerances a report's check rows compare their slacks with,
    one per constant above; no other computation reads them."""

    structural: float = STRUCTURAL_TOL
    numeric: float = NUMERIC_TOL


def require_finite(a: np.ndarray, name: str) -> np.ndarray:
    """Return ``a`` after rejecting NaN or infinite entries, real or imaginary."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_complex_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d complex ndarray, rejecting non-finite entries."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {m.shape}")
    return require_finite(m, name)


def require_hermitian(m) -> np.ndarray:
    """Validate Hermiticity entrywise within STRUCTURAL_TOL and return the array."""
    m = as_complex_matrix(m, "matrix")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"Hermitian matrix must be square, got shape {m.shape}")
    deviation = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
    if deviation > STRUCTURAL_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max |m - m^dagger| = {deviation:.3e} > {STRUCTURAL_TOL:.1e}"
        )
    return m


def require_psd(m: np.ndarray, name: str = "matrix") -> None:
    """Reject a square complex matrix, or a stack of them diagonalized in one
    call, unless Hermitian with no eigenvalue below -STRUCTURAL_TOL."""
    deviation = float(np.abs(m - np.swapaxes(m, -1, -2).conj()).max())
    if deviation > STRUCTURAL_TOL:
        raise ValueError(f"{name} must be Hermitian, max |m - m^dagger| = {deviation:.3e}")
    smallest = float(np.linalg.eigvalsh(m).min())
    if smallest < -STRUCTURAL_TOL:
        raise ValueError(f"{name} must be PSD, min eigenvalue {smallest:.3e}")


def require_identity(m: np.ndarray, name: str) -> None:
    """Reject a square matrix, or any member of a (..., k, k) stack, more than
    NUMERIC_TOL from the identity in some entry."""
    deviation = float(np.abs(m - np.eye(m.shape[-1])).max())
    if deviation > NUMERIC_TOL:
        raise ValueError(f"{name} must be the identity, max |{name} - I| = {deviation:.3e}")


def hermitian_eigvals(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted non-increasing, without eigenvectors."""
    return np.linalg.eigvalsh(require_hermitian(m))[::-1]


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed n-by-n unitary, or a (k, n, n) stack of k of them.

    QR-decomposes a complex Gaussian matrix and fixes the phases so the
    triangular factor has positive real diagonal, which makes the
    orthonormal factor exactly Haar. ``rng`` is an integer seed (or
    anything ``numpy.random.default_rng`` accepts, such as ``[seed, i]``)
    or an existing ``Generator``; a given seed always produces the same
    matrix. A list of k Generators gives the stack whose slice i is
    ``haar_unitary(n, rng[i])`` bit for bit, drawn with one QR call.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    stacked = isinstance(rng, list) and all(isinstance(g, np.random.Generator) for g in rng)
    if stacked and not rng:
        raise ValueError("a stack of Haar unitaries needs at least one Generator")
    # default_rng hands an existing Generator back unchanged
    gens = rng if stacked else [np.random.default_rng(rng)]
    # each Generator draws its real then its imaginary parts, as two (n, n) calls would
    parts = np.empty((len(gens), 2, n, n))
    for gen, out in zip(gens, parts):
        gen.standard_normal(out=out)
    z = parts[:, 0] + 1j * parts[:, 1]
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    q *= phases[:, None, :]
    return q if stacked else q[0]
