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
from .linalg import hermitian_basis, max_nonhermiticity


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
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jumps", tuple(checked))


def apply_generator(gen: LindbladGenerator, operator: np.ndarray) -> np.ndarray:
    """Action of the generator on a 2x2 operator."""
    a = np.asarray(operator, dtype=complex)
    h = gen.hamiltonian
    out = -1j * (h @ a - a @ h)
    for rate, jump in gen.jumps:
        jdj = jump.conj().T @ jump
        out = out + rate * (
            jump @ a @ jump.conj().T - 0.5 * (jdj @ a + a @ jdj)
        )
    return out


def build_L(gen: LindbladGenerator) -> np.ndarray:
    """Generator matrix L_kl = tr(G_k gen(G_l)) in the Hermitian basis.

    The result is real for any valid generator (trace of a product of
    Hermitian operators); imaginary residue beyond 1e-10 raises
    NonRealGeneratorMatrix. Row 0 vanishes identically, which encodes
    trace preservation of the dynamics.
    """
    g = hermitian_basis()
    images = np.stack([apply_generator(gen, g[l]) for l in range(4)])
    matrix = np.einsum("kab,lba->kl", g, images)
    residue = float(np.abs(matrix.imag).max())
    if residue > 1e-10:
        raise NonRealGeneratorMatrix(
            f"imaginary residue {residue:.3e} exceeds 1e-10"
        )
    return matrix.real.copy()
