"""Kraus unravelings of a channel and their Gram matrices.

A channel rho -> sum_j A_j rho A_j^dagger has many Kraus representations
("unravelings") related by unitary mixing of the operators. The Gram
matrix tr(A_i^dagger A_j rho) of an unraveling carries the outcome
probabilities on its diagonal and keeps its nonzero spectrum under any
re-mixing; diagonalizing it produces the extremal unraveling, whose
outcome distribution minimizes the usual entropy families over the
unitary freedom.

The Gram matrix of a general unraveling (``unraveling_gram``) is one
batched product K @ rho followed by one product over the flattened
operators: O(m d^3 + m^2 d^2) for m operators on C^d.

The principal operators of a tight frame are rank one, so their Gram
matrix has the closed form of ``frame_gram``: O(n^2 d + n d^2) time and
O(n^2) memory for n vectors in C^d, with no (n, d, d) Kraus stack; it is
also every report's one tightness guard. The Kirkwood-Dirac matrix
tr(E_i E_j rho) of the frame's POVM is (d/n) times that Gram matrix. The
outcome distribution of the re-unraveling by an n-by-n unitary V is
diag(V^dag G V), one more O(n^3) product (``mixed_probabilities``, which
also takes a stack of unitaries).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import DensityMatrix, Frame, gram_matrix, is_tight
from .linalg import require_finite, require_identity


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


def frame_gram(f: Frame, rho: DensityMatrix) -> np.ndarray:
    """Gram matrix of the principal unraveling of a tight frame, in closed form.

    With A_j = sqrt(d/n) |phi_j><phi_j|, entry (i, j) is
    (d/n) <phi_i|phi_j> <phi_j|rho|phi_i>, so G = (d/n) (F* F^T) o (F* rho F^T)^T
    for the frame vectors F as rows. Equal to
    ``unraveling_gram(principal_kraus(f), rho)``. It rejects a frame that
    is not tight (``is_tight``, at NUMERIC_TOL), which induces no POVM.
    The result is exactly Hermitian: averaged with its conjugate transpose,
    G[j, i] equals conj(G[i, j]) exactly (a zero imaginary part may carry
    either sign) and the diagonal's imaginary part is +0.0.
    """
    if not is_tight(f):
        raise ValueError("frame is not tight, it induces no POVM")
    if f.d != rho.d:
        raise ValueError(f"dimension mismatch: Kraus input C^{f.d}, state C^{rho.d}")
    v = f.vectors
    g = f.d / f.n * gram_matrix(f) * (v.conj() @ rho.matrix @ v.T).T
    return 0.5 * (g + g.conj().T)


def _require_mixing(v, m: int) -> np.ndarray:
    """A unitary m-by-m mixing matrix, or a (..., m, m) stack of them checked
    in one pass, as a complex array."""
    v = require_finite(np.asarray(v, dtype=complex), "v")
    if v.ndim < 2 or v.shape[-1] != v.shape[-2]:
        raise ValueError(f"mixing matrix must be square, got {v.shape}")
    if v.shape[-1] != m:
        raise ValueError(
            f"mixing matrix must have size exactly {m}, one row per operator; got {v.shape[-1]}"
        )
    require_identity(np.swapaxes(v.conj(), -1, -2) @ v, "v^dag v")
    return v


def mixed_probabilities(gram: np.ndarray, v) -> np.ndarray:
    """Outcome distribution of the re-unraveling by ``v``, from the Gram matrix alone.

    Mixing the operators by v, B_i = sum_j A_j v[j, i], turns the Gram
    matrix G into v^dag G v, so the outcome distribution of the mixed
    unraveling is its diagonal, the column sums of conj(v) o (G v). ``v``
    must be unitary with one row per operator. A (k, m, m) stack of mixing
    matrices gets one unitarity check and gives (k, m) rows, row i equal to
    ``mixed_probabilities(gram, v[i])``. The real diagonal comes back
    unclamped; the entropies validate it.
    """
    v = _require_mixing(v, gram.shape[0])
    return (v.conj() * (gram @ v)).sum(axis=-2).real
