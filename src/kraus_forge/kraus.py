"""Propagator, Choi matrix, and Kraus extraction for qubit channels.

The chain is: exponentiate a generator matrix into a propagator F, fold F
into the Choi matrix S over the Hermitian operator basis, diagonalize S,
and assemble one Kraus operator per positive eigenvalue. Channel equality
is always decided at the Choi level, never by comparing raw operators:
distinct Kraus sets related by unitary mixing describe the same channel.

``kraus_set_to_dict`` writes one set as a JSON-ready document with its
diagnostics; ``derive`` renders that document for every point of a stack
straight from the arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    FrozenRecord,
    IncompleteKrausSet,
    InvalidState,
    NegativeTime,
    NotCompletelyPositive,
    NotTracePreserving,
)
from .linalg import (
    SIGMA_I, frobenius_norms, hermitian_basis, hermitian_eig, matrix_exp, max_nonhermiticity,
)

#: default eigenvalue cutoff below which Kraus operators are dropped
WEIGHT_CUTOFF = 1e-12

#: eigenvalues below this are a genuine complete-positivity violation
CP_TOLERANCE = -1e-10

# trace tensor T[r, n, s, m] = tr(G_r G_n G_s G_m); the Choi matrix is a
# contraction of the propagator against it.
_G = hermitian_basis()
_TRACE_TENSOR = np.einsum("rab,nbc,scd,mda->rnsm", _G, _G, _G, _G)
_TRACE_TENSOR.flags.writeable = False


class KrausSet(FrozenRecord):
    """Ordered Kraus operators with the eigenvalue weights they came from.

    ``weights`` defaults to tr(E^dag E) per operator, which equals the Choi
    eigenvalue whenever the operator was built from a normalized eigenvector.
    At most four operators are allowed for a qubit channel.
    """

    __slots__ = ("operators", "weights")

    def __init__(
        self, operators: tuple[np.ndarray, ...], weights: tuple[float, ...] | None = None
    ) -> None:
        ops = []
        for op in operators:
            arr = np.array(op, dtype=complex)
            if arr.shape != (2, 2):
                raise ValueError(f"Kraus operators must be 2x2, got {arr.shape}")
            arr.flags.writeable = False
            ops.append(arr)
        if not ops:
            raise ValueError("a Kraus set needs at least one operator")
        if len(ops) > 4:
            raise ValueError(f"a qubit channel has at most 4 Kraus operators, got {len(ops)}")
        if weights is None:
            weights = tuple(float(np.trace(op.conj().T @ op).real) for op in ops)
        else:
            weights = tuple(float(w) for w in weights)
            if len(weights) != len(ops):
                raise ValueError("weights and operators must have equal length")
        object.__setattr__(self, "operators", tuple(ops))
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self):
        return iter(self.operators)

    def completeness_residual(self) -> float:
        """Largest entrywise deviation of sum(E^dag E) from the identity."""
        return float(completeness_residuals(operator_stack([self]))[0])


def operator_stack(ksets: list[KrausSet]) -> np.ndarray:
    """The operators of Kraus sets as one (k, m, 2, 2) stack, zero-padded to the longest set."""
    stack = np.zeros((len(ksets), max(map(len, ksets)), 2, 2), dtype=complex)
    for member, kset in zip(stack, ksets):
        member[: len(kset)] = kset.operators
    return stack


def identity_kraus_set() -> KrausSet:
    """The do-nothing channel."""
    return KrausSet((SIGMA_I,), (2.0,))


def propagate(generator_matrix: np.ndarray, t) -> np.ndarray:
    """Propagator F = exp(L t) for a constant generator matrix L.

    ``t`` is one time or an array of times; an array gives the stack of
    propagators, of shape ``t.shape + (4, 4)``.
    """
    times = np.asarray(t, dtype=float)
    if np.any(times < 0.0):
        raise NegativeTime(f"propagation time must be >= 0, got {times.min()}")
    return matrix_exp(np.asarray(generator_matrix, dtype=float), times)


class KrausStack(NamedTuple):
    """A stack of channels, each decomposed once: Choi matrix, spectrum, Kraus set.

    ``operators[k, i]`` is the Kraus operator of Choi eigenvalue
    ``values[k, i]`` (descending). Operators whose eigenvalue is at or below
    the weight cutoff are zero; ``kept[k]`` counts the others, which come
    first.
    """

    choi: np.ndarray
    values: np.ndarray
    operators: np.ndarray
    kept: np.ndarray

    def kraus_set(self, k: int) -> KrausSet:
        """The Kraus set of member ``k``."""
        n = int(self.kept[k])
        return KrausSet(tuple(self.operators[k, :n]), tuple(self.values[k, :n]))


def _decompose(choi: np.ndarray, cutoff: float) -> KrausStack:
    # one eigendecomposition per Choi matrix feeds the CP check and the
    # Kraus operators sqrt(d_i) sum_j u_ji G_j
    values, vectors = hermitian_eig(choi)
    smallest = values[:, -1]
    if np.any(smallest < CP_TOLERANCE):
        raise NotCompletelyPositive(
            f"Choi eigenvalue {smallest.min():.3e} below tolerance {CP_TOLERANCE:.1e}"
        )
    keep = values > cutoff
    roots = np.zeros_like(values)
    roots[keep] = np.sqrt(values[keep])
    operators = roots[:, :, None] * (vectors.transpose(0, 2, 1) @ _G.reshape(4, 4))
    return KrausStack(choi, values, operators.reshape(-1, 4, 2, 2), keep.sum(axis=1))


def kraus_stack(propagators: np.ndarray, cutoff: float = WEIGHT_CUTOFF) -> KrausStack:
    """Choi matrices and Kraus sets of a stack of propagators, shape (k, 4, 4).

    Checks trace preservation (first row (1,0,0,0) within 1e-10), folds each
    propagator into its Hermitian Choi matrix of trace 2, decomposes it once,
    checks complete positivity (eigenvalues >= CP_TOLERANCE), and keeps one
    Kraus operator per eigenvalue above ``cutoff``. A 2-D input is a stack of
    one.
    """
    f = np.asarray(propagators, dtype=complex)
    if f.shape[-2:] != (4, 4):
        raise ValueError(f"propagators must be 4x4, got {f.shape}")
    f = f.reshape(-1, 4, 4)
    row_dev = np.abs(f[:, 0] - np.array([1.0, 0, 0, 0])).max(axis=1)
    drifted = row_dev > 1e-10
    if np.any(drifted):
        raise NotTracePreserving(
            f"first propagator row deviates from (1,0,0,0) by {row_dev[drifted].max():.3e}"
        )
    choi = np.einsum("bsr,rnsm->bnm", f, _TRACE_TENSOR)
    choi = (choi + choi.conj().transpose(0, 2, 1)) / 2.0
    return _decompose(choi, cutoff)


def choi_from_propagator(propagator: np.ndarray) -> np.ndarray:
    """Choi matrix of the channel encoded by a propagator.

    Checks trace preservation (first row (1,0,0,0) within 1e-10) and
    complete positivity (eigenvalues >= CP_TOLERANCE); the returned matrix is
    Hermitian with trace 2.
    """
    f = np.asarray(propagator, dtype=complex)
    if f.shape != (4, 4):
        raise ValueError(f"propagator must be 4x4, got {f.shape}")
    return kraus_stack(f).choi[0]


def kraus_from_choi(choi: np.ndarray, cutoff: float = WEIGHT_CUTOFF) -> KrausSet:
    """Kraus operators from the eigendecomposition of a Choi matrix.

    One operator sqrt(d_i) sum_j u_ji G_j per eigenvalue d_i above ``cutoff``,
    ordered by descending eigenvalue. Eigenvalues in [-1e-10, cutoff] are
    treated as numerical zeros and dropped; anything below -1e-10 raises
    NotCompletelyPositive. A matrix that is not 4x4, not finite or not
    Hermitian within 1e-12 raises ValueError.
    """
    s = np.asarray(choi, dtype=complex)
    if s.shape != (4, 4):
        raise ValueError(f"Choi matrix must be 4x4, got {s.shape}")
    if not np.isfinite(s).all() or max_nonhermiticity(s) > 1e-12:
        raise ValueError("Choi matrix must be finite and Hermitian within 1e-12")
    return _decompose(s[None], cutoff).kraus_set(0)


def completeness_residuals(operators: np.ndarray) -> np.ndarray:
    """Largest entrywise deviation of sum(E^dag E) from the identity, per member.

    ``operators`` is a zero-padded stack (k, m, 2, 2); the result has shape (k,).
    """
    gram = operators.conj().transpose(0, 1, 3, 2) @ operators
    total = gram[:, 0]
    for i in range(1, gram.shape[1]):
        total = total + gram[:, i]
    return np.abs(total - SIGMA_I).max(axis=(1, 2))


def _operator_choi(operators: np.ndarray) -> np.ndarray:
    # Choi matrices (k, 4, 4) of a zero-padded operator stack (k, m, 2, 2)
    coeffs = np.einsum("jab,kiba->kji", _G, operators)
    return coeffs @ coeffs.conj().transpose(0, 2, 1)


def _operator_propagators(operators: np.ndarray) -> np.ndarray:
    # propagators (k, 4, 4) of a zero-padded operator stack (k, m, 2, 2): the
    # fold of kraus_stack undone, F_kl = sum_ij S_ij T[k, i, l, j]
    return np.einsum("bij,kilj->bkl", _operator_choi(operators), _TRACE_TENSOR)


def kraus_to_choi(kset: KrausSet) -> np.ndarray:
    """Choi matrix of the channel a Kraus set implements."""
    return _operator_choi(operator_stack([kset]))[0]


def apply_channel(kset: KrausSet, rho: np.ndarray) -> np.ndarray:
    """Channel action sum_k E_k rho E_k^dag on a density operator."""
    state = np.asarray(rho, dtype=complex)
    if state.shape != (2, 2):
        raise InvalidState(f"density operator must be 2x2, got {state.shape}")
    if max_nonhermiticity(state) > 1e-10:
        raise InvalidState("density operator must be Hermitian")
    trace = complex(np.trace(state))
    if abs(trace - 1.0) > 1e-10:
        raise InvalidState(f"density operator must have unit trace, got {trace}")
    if float(np.min(np.linalg.eigvalsh(state))) < -1e-12:
        raise InvalidState("density operator must be positive semidefinite")
    out = np.zeros((2, 2), dtype=complex)
    for op in kset.operators:
        out += op @ state @ op.conj().T
    return out


def choi_distances(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Frobenius distance between the Choi matrices of paired members of two stacks.

    Both are zero-padded (k, m, 2, 2) stacks, and every member must be
    complete within 1e-8; the result has shape (k,).
    """
    for name, operators in (("first", first), ("second", second)):
        residual = completeness_residuals(operators).max(initial=0.0)
        if residual > 1e-8:
            raise IncompleteKrausSet(
                f"{name} Kraus set has completeness residual {residual:.3e}"
            )
    return frobenius_norms(_operator_choi(first) - _operator_choi(second))


def choi_distance(first: KrausSet, second: KrausSet) -> float:
    """Frobenius distance between the Choi matrices of two Kraus sets.

    Zero exactly when both sets implement the same channel. Both sets must
    be complete within 1e-8.
    """
    return float(choi_distances(operator_stack([first]), operator_stack([second]))[0])


def kraus_diagnostics(operators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Completeness residual and rebuilt Choi spectrum of each member of a stack.

    ``operators`` is a zero-padded stack (k, m, 2, 2). The Choi matrix is
    rebuilt from the operators and decomposed again, as an independent check
    of the set, in one stacked call: shape (k, 4), descending.
    """
    return completeness_residuals(operators), hermitian_eig(_operator_choi(operators))[0]


def kraus_set_to_dict(kset: KrausSet) -> dict:
    """JSON-ready document: operators as [re, im] pairs plus diagnostics."""
    operators = operator_stack([kset])
    residuals, rebuilt = kraus_diagnostics(operators)
    return {
        "operators": np.stack([operators[0].real, operators[0].imag], axis=-1).tolist(),
        "weights": list(kset.weights),
        "diagnostics": {
            "completeness_residual": float(residuals[0]),
            "choi_eigenvalues": rebuilt[0].tolist(),
        },
    }
