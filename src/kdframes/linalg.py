"""Dense complex matrix kernel.

Inner products, Schatten norms, Hermitian eigendecomposition, singular
values and Haar-random unitaries used by the frame and channel layers.
All functions are pure; randomness enters only through an explicit seed
or ``numpy.random.Generator``, never through global state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

# Absolute tolerance for structural validation (Hermiticity, unit traces).
STRUCTURAL_TOL = 1e-12
# Tolerance for numerical identities (residuals, probability sums).
NUMERIC_TOL = 1e-10
# A bound counts as saturated when |bound - achieved| is below this.
SATURATION_TOL = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """The three tolerances a report checks against, one per constant above."""

    structural: float = STRUCTURAL_TOL
    numeric: float = NUMERIC_TOL
    saturation: float = SATURATION_TOL

    def as_dict(self) -> dict:
        return asdict(self)


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


def hs_inner(x, y) -> complex:
    """Hilbert-Schmidt inner product tr(x^dagger y)."""
    x = as_complex_matrix(x, "x")
    y = as_complex_matrix(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return complex(np.vdot(x, y))


def singular_values(x) -> np.ndarray:
    """Singular values of x, sorted non-increasing."""
    return np.linalg.svd(as_complex_matrix(x, "x"), compute_uv=False)


def schatten_norm(x, q: float) -> float:
    """Schatten q-norm: the q-norm of the singular-value vector.

    q=1 is the trace norm, q=2 the Frobenius norm, q=inf the spectral norm.
    """
    if not q >= 1:
        raise ValueError(f"Schatten order must satisfy q >= 1, got {q}")
    s = singular_values(x)
    if s.size == 0:
        return 0.0
    if np.isinf(q):
        return float(s[0])
    if q == 1:
        return float(s.sum())
    if q == 2:
        return float(np.sqrt(np.sum(s * s)))
    return float(np.sum(s**q) ** (1.0 / q))


def require_hermitian(m, tol: float = STRUCTURAL_TOL) -> np.ndarray:
    """Validate Hermiticity entrywise within ``tol`` and return the array."""
    m = as_complex_matrix(m, "matrix")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"Hermitian matrix must be square, got shape {m.shape}")
    deviation = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
    if deviation > tol:
        raise ValueError(
            f"matrix is not Hermitian: max |m - m^dagger| = {deviation:.3e} > {tol:.1e}"
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
    """Reject a square matrix more than NUMERIC_TOL from the identity in some entry."""
    deviation = float(np.abs(m - np.eye(m.shape[0])).max())
    if deviation > NUMERIC_TOL:
        raise ValueError(f"{name} must be the identity, max |{name} - I| = {deviation:.3e}")


@dataclass(frozen=True)
class Spectrum:
    """Hermitian eigendecomposition with eigenvalues sorted non-increasing.

    ``eigenvectors[:, k]`` is a unit eigenvector for ``eigenvalues[k]``; each
    column phase is fixed so that its largest-modulus component is real and
    positive, making outputs reproducible. Degenerate eigenvalues may come
    with any orthonormal basis of their eigenspace, so compare spectra and
    residuals, never individual columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m, tol: float = STRUCTURAL_TOL) -> Spectrum:
    """Diagonalize a Hermitian matrix; see :class:`Spectrum` for conventions."""
    m = require_hermitian(m, tol)
    vals, vecs = np.linalg.eigh(m)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    for k in range(vecs.shape[1]):
        pivot = vecs[np.abs(vecs[:, k]).argmax(), k]
        if abs(pivot) > 0.0:
            vecs[:, k] *= np.conj(pivot) / abs(pivot)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed n-by-n unitary.

    QR-decomposes a complex Gaussian matrix and fixes the phases so the
    triangular factor has positive real diagonal, which makes the
    orthonormal factor exactly Haar. ``rng`` is an integer seed (or
    anything ``numpy.random.default_rng`` accepts) or an existing
    ``Generator``; a given seed always produces the same matrix.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    z = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases
