"""Reference computations on the (n, d, d) POVM and Kraus stacks.

The program reads every measurement statistic of a tight frame off the
closed-form Gram matrix (``kdframes.channels.frame_gram``). The functions
here compute the same quantities from their definitions instead: the POVM
effects E_j = (d/n) |phi_j><phi_j| and their statistics tr(E_j rho), the
Kirkwood-Dirac matrix tr(E_i E_j rho), and the unitary re-mixing of a Kraus
unraveling with its outcome distribution tr(A_j^dag A_j rho). The tests use
them as the oracle for the closed forms; no command calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kdframes.channels import Unraveling
from kdframes.entropy import clean_probabilities
from kdframes.frames import DensityMatrix, Frame
from kdframes.linalg import as_complex_matrix, require_finite, require_identity, require_psd


@dataclass(frozen=True)
class Povm:
    """Positive semidefinite effects summing to the identity."""

    elements: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.elements, dtype=complex)
        if e.ndim != 3 or e.shape[1] != e.shape[2]:
            raise ValueError(f"effects must be a stack of square matrices, got {e.shape}")
        require_psd(require_finite(e, "effects"), "effects")
        require_identity(e.sum(axis=0), "sum E")
        object.__setattr__(self, "elements", e)

    @property
    def n(self) -> int:
        return self.elements.shape[0]

    @property
    def d(self) -> int:
        return self.elements.shape[1]


def povm_from_frame(f: Frame) -> Povm:
    """Rank-one effects (d/n) |phi_j><phi_j| of a tight frame (Povm rejects any other)."""
    elements = (f.d / f.n) * np.einsum("ja,jb->jab", f.vectors, f.vectors.conj())
    return Povm(elements)


def outcome_probabilities(p: Povm, rho: DensityMatrix) -> np.ndarray:
    """Outcome distribution tr(E_j rho)."""
    if p.d != rho.d:
        raise ValueError(f"dimension mismatch: POVM on C^{p.d}, state on C^{rho.d}")
    return clean_probabilities(np.einsum("jab,ba->j", p.elements, rho.matrix).real)


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


def dout(u: Unraveling) -> int:
    """Output dimension of the Kraus operators of an unraveling."""
    return u.kraus.shape[1]


def _require_padded_mixing(v, m: int) -> np.ndarray:
    """A square unitary mixing matrix of size at least m, as a complex array."""
    v = require_finite(np.asarray(v, dtype=complex), "v")
    if v.ndim < 2 or v.shape[-1] != v.shape[-2]:
        raise ValueError(f"mixing matrix must be square, got {v.shape}")
    if v.shape[-1] < m:
        raise ValueError(f"mixing matrix of size {v.shape[-1]} cannot absorb {m} operators")
    require_identity(np.swapaxes(v.conj(), -1, -2) @ v, "v^dag v")
    return v


def transform_unraveling(u: Unraveling, v) -> Unraveling:
    """Mix Kraus operators with a unitary: B_i = sum_j A_j v[j, i].

    ``v`` may be larger than the operator count, in which case the
    unraveling is first padded with zero operators at the tail; padded
    slots show up as zero rows and columns of the Gram matrix. The channel
    itself is unchanged.
    """
    v = _require_padded_mixing(as_complex_matrix(v, "v"), u.m)
    # zero operators padded at the tail contribute nothing: only v[:m] enters
    mixed = v[: u.m].T @ u.kraus.reshape(u.m, -1)
    return Unraveling(mixed.reshape(v.shape[0], dout(u), u.din))


def unraveling_probabilities(u: Unraveling, rho: DensityMatrix) -> np.ndarray:
    """Outcome distribution tr(A_j^dagger A_j rho), the Gram diagonal."""
    if u.din != rho.d:
        raise ValueError(f"dimension mismatch: Kraus input C^{u.din}, state C^{rho.d}")
    probs = np.einsum("jba,jba->j", u.kraus.conj(), u.kraus @ rho.matrix).real
    return clean_probabilities(probs)
