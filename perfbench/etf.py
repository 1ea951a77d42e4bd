"""Equiangular tight frames built by the benchmark itself.

Paley frames: for a prime p = 3 (mod 4) the nonzero quadratic residues Q
mod p form a difference set, so the p rows of the DFT matrix restricted
to the columns in Q, scaled to unit norm, are an equiangular tight frame
of p vectors in C^((p-1)/2) (Xia, Zhou & Giannakis, "Achieving the Welch
bound with difference sets", IEEE Trans. IT 51, 2005). The qubit
tetrahedron is written out from its closed form. Neither construction
uses the package, so the oracle can rebuild the inputs on its own.
"""

from __future__ import annotations

import numpy as np
from kdframes import Frame, coherence_constant, is_equiangular, is_tight

# Largest allowed |measured squared overlap - coherence_constant(n, d)|.
COHERENCE_TOL = 1e-12


class EtfCertificationError(RuntimeError):
    """A generated frame is not the equiangular tight frame it should be."""


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % k for k in range(2, int(p**0.5) + 1))


def paley_vectors(p: int) -> np.ndarray:
    """The (p, (p - 1) / 2) Paley ETF as rows of a complex array."""
    if not (_is_prime(p) and p % 4 == 3):
        raise ValueError(f"Paley frames need a prime p = 3 (mod 4), got {p}")
    residues = np.array(sorted({k * k % p for k in range(1, p)}))
    phases = np.outer(np.arange(p), residues) % p
    return np.exp(2j * np.pi * phases / p) / np.sqrt(len(residues))


def sic_qubit_vectors() -> np.ndarray:
    """|0> and (|0> + sqrt(2) w^k |1>) / sqrt(3) for k = 0, 1, 2, w = e^(2 pi i / 3)."""
    w = np.exp(2j * np.pi / 3)
    s3 = 1.0 / np.sqrt(3.0)
    rest = [[s3, s3 * np.sqrt(2.0) * w**k] for k in range(3)]
    return np.array([[1.0, 0.0]] + rest, dtype=complex)


def certify(vectors: np.ndarray, label: str) -> None:
    """Check tightness and equiangularity with the package's own certificates.

    Raises EtfCertificationError naming the frame and the failed check.
    """
    frame = Frame(vectors)
    if not is_tight(frame):
        raise EtfCertificationError(f"{label} ({frame.n}, {frame.d}) is not tight")
    measured = is_equiangular(frame)
    if measured is None:
        raise EtfCertificationError(f"{label} ({frame.n}, {frame.d}) is not equiangular")
    expected = coherence_constant(frame.n, frame.d)
    if abs(measured - expected) > COHERENCE_TOL:
        raise EtfCertificationError(
            f"{label} ({frame.n}, {frame.d}) has squared overlap {measured!r}, "
            f"expected coherence_constant = {expected!r}"
        )
