"""Kraus unravelings of a channel and their Gram / Kirkwood-Dirac matrices.

A channel rho -> sum_j A_j rho A_j^dagger has many Kraus representations
("unravelings") related by unitary mixing of the operators. The Gram
matrix tr(A_i^dagger A_j rho) of an unraveling carries the outcome
probabilities on its diagonal and keeps its nonzero spectrum under any
re-mixing; diagonalizing it produces the extremal unraveling, whose
outcome distribution minimizes the usual entropy families over the
unitary freedom.

The Gram, Kirkwood-Dirac and probability contractions are each one
batched product K @ rho followed by one product over the flattened
operators, so a Gram or Kirkwood-Dirac matrix of m operators on C^d
costs O(m d^3 + m^2 d^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import clean_probabilities
from .frames import DensityMatrix, Frame, Povm
from .linalg import as_complex_matrix, require_finite, require_identity


@dataclass(frozen=True)
class Unraveling:
    """Kraus operators of a trace-preserving channel, stacked as (m, dout, din)."""

    kraus: np.ndarray

    def __post_init__(self) -> None:
        k = np.asarray(self.kraus, dtype=complex)
        if k.ndim != 3:
            raise ValueError(f"kraus must be a stack of matrices, got shape {k.shape}")
        require_finite(k, "Kraus stack")
        flat = k.reshape(-1, k.shape[2])
        require_identity(flat.conj().T @ flat, "sum A^dag A")
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


def principal_kraus(f: Frame) -> Unraveling:
    """Square roots sqrt(d/n) |phi_j><phi_j| of the POVM effects of a tight frame.

    The resulting channel maps rho to sum_j p_j |phi_j><phi_j| with p_j the
    outcome probabilities, so it is entanglement breaking. The Unraveling
    completeness check rejects a frame that is not tight.
    """
    scale = np.sqrt(f.d / f.n)
    kraus = scale * np.einsum("ja,jb->jab", f.vectors, f.vectors.conj())
    return Unraveling(kraus)


def unraveling_gram(u: Unraveling, rho: DensityMatrix) -> np.ndarray:
    """Hermitian PSD matrix of overlaps tr(A_i^dagger A_j rho).

    This is the Gram matrix of the operators A_j sqrt(rho) in the
    Hilbert-Schmidt inner product; its diagonal is the outcome distribution,
    its trace is 1, and its nonzero spectrum is shared by every unraveling
    of the same channel.
    """
    if u.din != rho.d:
        raise ValueError(f"dimension mismatch: Kraus input C^{u.din}, state C^{rho.d}")
    # tr(A_i^dagger B) is the flat dot product of conj(A_i) and B = A_j rho
    return u.kraus.conj().reshape(u.m, -1) @ (u.kraus @ rho.matrix).reshape(u.m, -1).T


def kd_matrix(p: Povm, rho: DensityMatrix) -> np.ndarray:
    """Kirkwood-Dirac matrix of quasiprobabilities tr(E_i E_j rho).

    Hermitian, with all entries summing to 1; individual entries may be
    negative or complex. For the rank-one POVM of a tight frame it equals
    (d/n) times the Gram matrix of the principal unraveling.
    """
    if p.d != rho.d:
        raise ValueError(f"dimension mismatch: POVM on C^{p.d}, state on C^{rho.d}")
    # tr(E_i B) is the flat dot product of E_i and B^T, with B = E_j rho
    e = p.elements
    return e.reshape(p.n, -1) @ (e @ rho.matrix).transpose(0, 2, 1).reshape(p.n, -1).T


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
    # zero operators padded at the tail contribute nothing: only v[:m] enters
    mixed = v[: u.m].T @ u.kraus.reshape(u.m, -1)
    return Unraveling(mixed.reshape(size, u.dout, u.din))


def unraveling_probabilities(u: Unraveling, rho: DensityMatrix) -> np.ndarray:
    """Outcome distribution tr(A_j^dagger A_j rho), the Gram diagonal."""
    if u.din != rho.d:
        raise ValueError(f"dimension mismatch: Kraus input C^{u.din}, state C^{rho.d}")
    probs = np.einsum("jba,jba->j", u.kraus.conj(), u.kraus @ rho.matrix).real
    return clean_probabilities(probs)
