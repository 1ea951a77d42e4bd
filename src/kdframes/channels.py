"""Kraus unravelings of a channel and their Gram / Kirkwood-Dirac matrices.

A channel rho -> sum_j A_j rho A_j^dagger has many Kraus representations
("unravelings") related by unitary mixing of the operators. The Gram
matrix tr(A_i^dagger A_j rho) of an unraveling carries the outcome
probabilities on its diagonal and keeps its nonzero spectrum under any
re-mixing; diagonalizing it produces the extremal unraveling, whose
outcome distribution minimizes the usual entropy families over the
unitary freedom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import DensityMatrix, Frame, Povm, is_tight
from .linalg import (
    NUMERIC_TOL,
    STRUCTURAL_TOL,
    as_complex_matrix,
    hermitian_eig,
    require_finite,
    require_identity,
)


@dataclass(frozen=True)
class Unraveling:
    """Kraus operators of a trace-preserving channel, stacked as (m, dout, din)."""

    kraus: np.ndarray

    def __post_init__(self) -> None:
        k = np.asarray(self.kraus, dtype=complex)
        if k.ndim != 3:
            raise ValueError(f"kraus must be a stack of matrices, got shape {k.shape}")
        require_finite(k, "Kraus stack")
        require_identity(np.einsum("mia,mib->ab", k.conj(), k), "sum A^dag A")
        object.__setattr__(self, "kraus", k)

    @property
    def m(self) -> int:
        return self.kraus.shape[0]

    @property
    def dout(self) -> int:
        return self.kraus.shape[1]

    @property
    def din(self) -> int:
        return self.kraus.shape[2]


def principal_kraus(f: Frame, tol: float = NUMERIC_TOL) -> Unraveling:
    """Square roots sqrt(d/n) |phi_j><phi_j| of the POVM effects of a tight frame.

    The resulting channel maps rho to sum_j p_j |phi_j><phi_j| with p_j the
    outcome probabilities, so it is entanglement breaking.
    """
    if not is_tight(f, tol):
        raise ValueError("principal Kraus operators need a tight frame")
    scale = np.sqrt(f.d / f.n)
    kraus = scale * np.einsum("ja,jb->jab", f.vectors, f.vectors.conj())
    return Unraveling(kraus)


def apply_channel(u: Unraveling, rho: DensityMatrix) -> DensityMatrix:
    """Operator-sum action sum_j A_j rho A_j^dagger."""
    if u.din != rho.d:
        raise ValueError(f"dimension mismatch: Kraus input C^{u.din}, state C^{rho.d}")
    out = np.einsum("mab,bc,mdc->ad", u.kraus, rho.matrix, u.kraus.conj())
    return DensityMatrix(out)


def unraveling_gram(u: Unraveling, rho: DensityMatrix) -> np.ndarray:
    """Hermitian PSD matrix of overlaps tr(A_i^dagger A_j rho).

    This is the Gram matrix of the operators A_j sqrt(rho) in the
    Hilbert-Schmidt inner product; its diagonal is the outcome distribution,
    its trace is 1, and its nonzero spectrum is shared by every unraveling
    of the same channel.
    """
    if u.din != rho.d:
        raise ValueError(f"dimension mismatch: Kraus input C^{u.din}, state C^{rho.d}")
    return np.einsum("iba,jbc,ca->ij", u.kraus.conj(), u.kraus, rho.matrix)


def kd_matrix(p: Povm, rho: DensityMatrix) -> np.ndarray:
    """Kirkwood-Dirac matrix of quasiprobabilities tr(E_i E_j rho).

    Hermitian, with all entries summing to 1; individual entries may be
    negative or complex. For the rank-one POVM of a tight frame it equals
    (d/n) times the Gram matrix of the principal unraveling.
    """
    if p.d != rho.d:
        raise ValueError(f"dimension mismatch: POVM on C^{p.d}, state on C^{rho.d}")
    return np.einsum("iab,jbc,ca->ij", p.elements, p.elements, rho.matrix)


def transform_unraveling(u: Unraveling, v) -> Unraveling:
    """Mix Kraus operators with a unitary: B_i = sum_j A_j v[j, i].

    ``v`` may be larger than the operator count, in which case the
    unraveling is first padded with zero operators at the tail; padded
    slots show up as zero rows and columns of the Gram matrix. The channel
    itself is unchanged.
    """
    v = as_complex_matrix(v, "v")
    if v.shape[0] != v.shape[1]:
        raise ValueError(f"mixing matrix must be square, got {v.shape}")
    size = v.shape[0]
    if size < u.m:
        raise ValueError(f"mixing matrix of size {size} cannot absorb {u.m} operators")
    require_identity(v.conj().T @ v, "v^dag v")
    kraus = u.kraus
    if size > u.m:
        pad = np.zeros((size - u.m, u.dout, u.din), dtype=complex)
        kraus = np.concatenate([kraus, pad], axis=0)
    return Unraveling(np.einsum("ji,jab->iab", v, kraus))


def extremal_unraveling(
    u: Unraveling, rho: DensityMatrix, clamp_tol: float = STRUCTURAL_TOL
) -> tuple[Unraveling, np.ndarray]:
    """Unraveling with diagonal Gram matrix, plus its outcome probabilities.

    The mixing unitary is the diagonalizer of the Gram matrix, so the
    probabilities are the Gram eigenvalues sorted non-increasing.
    Eigenvalues within ``clamp_tol`` of zero are clamped to exactly zero so
    that rounding noise cannot leak into entropy evaluations.
    """
    spec = hermitian_eig(unraveling_gram(u, rho))
    probs = spec.eigenvalues.copy()
    probs[np.abs(probs) <= clamp_tol] = 0.0
    return transform_unraveling(u, spec.eigenvectors), probs


def unraveling_probabilities(u: Unraveling, rho: DensityMatrix) -> np.ndarray:
    """Outcome distribution tr(A_j^dagger A_j rho), the Gram diagonal."""
    if u.din != rho.d:
        raise ValueError(f"dimension mismatch: Kraus input C^{u.din}, state C^{rho.d}")
    probs = np.einsum("jba,jbc,ca->j", u.kraus.conj(), u.kraus, rho.matrix).real
    total = float(probs.sum())
    if abs(total - 1.0) > NUMERIC_TOL:
        raise ValueError(f"outcome probabilities sum to {total!r}, not 1")
    return probs
