"""Time-independent local-in-time generators and their 4x4 matrix form.

A generator combines a Hermitian Hamiltonian with weighted jump terms,

    gen(A) = -i [H, A] + sum_k rate_k (J_k A J_k^dag - {J_k^dag J_k, A} / 2),

and its matrix in the Hermitian operator basis is L_kl = tr(G_k gen(G_l)).
Only constant generators are supported; the matrix exponential of L is then
the exact propagator.
"""

from __future__ import annotations

import numpy as np

from .errors import FrozenRecord, NonHermitianInput, NonRealGeneratorMatrix
from .linalg import SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z, max_nonhermiticity


def _as_qubit_operator(value, what: str) -> np.ndarray:
    if callable(value):
        raise TypeError(
            f"{what} must be a constant 2x2 matrix; "
            "time-dependent generators are not supported"
        )
    arr = np.array(value, dtype=complex)
    if arr.shape != (2, 2):
        raise ValueError(f"{what} must be 2x2, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


class LindbladGenerator(FrozenRecord):
    """Hamiltonian part plus weighted jump terms of a constant generator.

    ``jumps`` is a sequence of ``(rate, jump_operator)`` pairs with
    nonnegative rates. The Hamiltonian must be Hermitian within 1e-12.
    """

    __slots__ = ("hamiltonian", "jumps")

    def __init__(
        self, hamiltonian: np.ndarray, jumps: tuple[tuple[float, np.ndarray], ...] = ()
    ) -> None:
        h = _as_qubit_operator(hamiltonian, "hamiltonian")
        dev = max_nonhermiticity(h)
        if dev > 1e-12:
            raise NonHermitianInput(
                f"hamiltonian deviates from Hermiticity by {dev:.3e}"
            )
        checked = []
        for rate, op in jumps:
            rate = float(rate)
            if not np.isfinite(rate) or rate < 0.0:
                raise ValueError(f"jump rates must be finite and >= 0, got {rate}")
            checked.append((rate, _as_qubit_operator(op, "jump operator")))
        super().__init__(h, tuple(checked))


# Structure constants of the Hermitian basis G = P / sqrt(2), built from the
# unnormalised Paulis P. Every entry is 0, 1 or 2 times 1 or i, so each
# product with an input entry is exact.
_PAULI = np.stack([SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z])
_PRODUCT = np.einsum("kij,ljm->klim", _PAULI, _PAULI)  # (P_k P_l)_im
# -i tr(G_k [H, G_l]) = sum_ab H_ab _COMMUTATOR[ab, kl]
_COMMUTATOR = -0.5j * (_PRODUCT.transpose(3, 2, 1, 0) - _PRODUCT.transpose(3, 2, 0, 1)).reshape(4, 16)
# 2 tr(G_k D_J(G_l)) = sum_pqmn J_pq conj(J_mn) _DISSIPATOR[pqmn, kl] with
# D_J(A) = J A J^dag - {J^dag J, A} / 2, doubled so that the halving can follow the sum
_DISSIPATOR = (np.einsum("kmp,lqn->pqmnkl", _PAULI, _PAULI) - 0.5 * np.einsum(
    "pm,klqn->pqmnkl", np.eye(2), _PRODUCT + _PRODUCT.transpose(1, 0, 2, 3))).reshape(16, 16)
del _PRODUCT


def build_L(gen: LindbladGenerator) -> np.ndarray:
    """Generator matrix L_kl = tr(G_k gen(G_l)) in the Hermitian basis.

    A contraction of the Hamiltonian and of each jump's rate J (x) conj(J)
    against structure constants built once. Every product is exact, and the
    dissipator is halved after its sum (before it for terms beyond 2^1000,
    where the doubled sum could overflow), so an entry that sums two terms
    rounds once, subnormals included. L is real for a valid generator; its
    roundoff scales with the terms, which can dwarf L where a jump is near a
    multiple of the identity, so an imaginary residue beyond 1e-10 times the
    largest term (at least 1) raises NonRealGeneratorMatrix. Row 0 is
    exactly zero: the dynamics preserve the trace.
    """
    h = gen.hamiltonian.reshape(4)
    jumps = np.zeros(16, dtype=complex)
    for rate, jump in gen.jumps:
        jumps += rate * np.multiply.outer(jump, jump.conj()).reshape(16)
    size = float(np.abs(jumps).max())
    if size > 2.0**1000:
        dissipator = np.einsum("i,ik->k", 0.5 * jumps, _DISSIPATOR)
    else:
        dissipator = 0.5 * np.einsum("i,ik->k", jumps, _DISSIPATOR)
    matrix = (np.einsum("i,ik->k", h, _COMMUTATOR) + dissipator).reshape(4, 4)
    residue = float(np.abs(matrix.imag).max())
    bound = 1e-10 * max(1.0, size, float(np.abs(h).max()))
    if residue > bound:
        raise NonRealGeneratorMatrix(f"imaginary residue {residue:.3e} exceeds {bound:.3e}")
    return matrix.real.copy()
