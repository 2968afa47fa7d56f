"""Fixed-size complex linear algebra for single-qubit channel work.

Provides the 2x2 operator constants, the orthonormal Hermitian operator
basis, a cyclic Jacobi eigensolver for small Hermitian matrices, and a
scaling-and-squaring matrix exponential. All functions are pure and never
mutate their inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, NonHermitianInput, OverflowDetected


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


SIGMA_I = _frozen(np.eye(2, dtype=complex))
SIGMA_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))

# Lowering/raising operators in the sigma_z eigenbasis. SIGMA_MINUS sends the
# upper level (index 0) to the lower level (index 1).
SIGMA_MINUS = _frozen(np.array([[0, 0], [1, 0]], dtype=complex))
SIGMA_PLUS = _frozen(np.array([[0, 1], [0, 0]], dtype=complex))

# Basis order is load-bearing: it fixes the row/column layout of every 4x4
# generator and propagator in this package.
_BASIS = _frozen(np.stack([SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z]) / np.sqrt(2.0))


def hermitian_basis() -> np.ndarray:
    """Orthonormal Hermitian operator basis (I, sx, sy, sz)/sqrt(2).

    Returns a read-only array of shape (4, 2, 2) with trace(G_k G_l) = d_kl.
    """
    return _BASIS


def max_nonhermiticity(matrix: np.ndarray) -> float:
    """Largest entrywise deviation |M - M^dag|, over a whole stack if given one."""
    m = np.asarray(matrix)
    return float(np.abs(m - np.swapaxes(m.conj(), -1, -2)).max())


def _magnitude(z: np.ndarray) -> np.ndarray:
    # equal to the scalar abs() bit for bit, which np.abs on arrays is not
    return np.hypot(z.real, z.imag)


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().transpose(0, 2, 1)) / 2.0


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (k, n, n), equal to np.linalg.norm bit for bit."""
    count, rows, cols = stack.shape
    flat = stack.reshape(count, 1, rows * cols)
    squares = flat.real @ flat.real.transpose(0, 2, 1) + flat.imag @ flat.imag.transpose(0, 2, 1)
    return np.sqrt(squares[:, 0, 0])


#: largest entrywise |M - M^dag| that hermitian_eig accepts
HERMITIAN_TOLERANCE = 1e-12

#: cyclic Jacobi sweeps after which hermitian_eig gives up
SWEEP_LIMIT = 60


def hermitian_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of small Hermitian matrices by cyclic Jacobi rotations.

    ``matrix`` is one (n, n) matrix or a stack (..., n, n); the result has
    the same leading shape. Returns ``(eigenvalues, eigenvectors)`` with
    eigenvalues sorted in descending order and eigenvectors as the matching
    columns of a unitary matrix. Each eigenvector is rephased so that its
    largest-magnitude component is real and positive (ties broken by the
    lowest index); this pins the output across runs and platforms.

    The iteration runs on the whole stack at once, but every member gets the
    rotations, sweep count and roundoff it would get alone: a member leaves
    the iteration once its off-diagonal mass is below 1e-15 of its Frobenius
    norm, and a pivot below 1e-300 in magnitude is skipped.

    Raises NonHermitianInput if a member has a non-finite entry or deviates
    from Hermiticity by more than HERMITIAN_TOLERANCE, and ConvergenceFailure
    if the off-diagonal mass of a member does not vanish within SWEEP_LIMIT
    cyclic sweeps.
    """
    a = np.array(matrix, dtype=complex)
    shape = a.shape
    if a.ndim < 2 or shape[-1] != shape[-2]:
        raise NonHermitianInput(f"expected a square matrix or a stack of them, got shape {shape}")
    a = a.reshape(-1, *shape[-2:])
    if not np.isfinite(a).all():
        raise NonHermitianInput("matrix has non-finite entries")
    deviation = max_nonhermiticity(a) if a.size else 0.0
    if deviation > HERMITIAN_TOLERANCE:
        raise NonHermitianInput(
            f"max |M - M^dag| = {deviation:.3e} exceeds {HERMITIAN_TOLERANCE:.1e}"
        )
    a = _hermitian_part(a)
    count, n = a.shape[0], a.shape[1]
    identity = np.repeat(np.eye(n, dtype=complex)[None], count, axis=0)
    vectors = identity.copy()

    # the Frobenius norm sets the convergence threshold
    scale = frobenius_norms(a)
    off_tol = 1e-15 * scale
    # the (p, q) pairs of one cyclic sweep, in row-major order
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
    # the members still rotating, as indices into the stack and as working
    # copies; a member is written back and dropped once it has converged
    members = np.nonzero(scale > 0.0)[0]
    work, work_vectors, work_tol = a[members], vectors[members], off_tol[members]
    for _ in range(SWEEP_LIMIT):
        done = _magnitude(work[:, rows, cols]).max(axis=1, initial=0.0) <= work_tol
        if done.any():
            a[members[done]] = work[done]
            vectors[members[done]] = work_vectors[done]
            rest = ~done
            members, work, work_vectors, work_tol = (
                members[rest], work[rest], work_vectors[rest], work_tol[rest]
            )
        if members.size == 0:
            break
        for p, q in pairs:
            pivot = work[:, p, q]
            mag = _magnitude(pivot)
            # only members with a pivot above 1e-300 rotate; this is all of
            # them unless some have already cleared this entry
            live = None
            small = mag <= 1e-300
            if small.any():
                if small.all():
                    continue
                live = ~small
                pivot, mag = pivot[live], mag[live]
            sub = work if live is None else work[live]
            phase = pivot / mag
            beta = (sub[:, q, q].real - sub[:, p, p].real) / (2.0 * mag)
            t = np.where(beta >= 0.0, -1.0, 1.0) / (np.abs(beta) + np.hypot(1.0, beta))
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            rot = identity[: mag.size].copy()
            rot[:, p, p] = c
            rot[:, q, q] = c
            rot[:, p, q] = -s * phase
            rot[:, q, p] = s * np.conj(phase)
            sub = rot.conj().transpose(0, 2, 1) @ sub @ rot
            if live is None:
                work = sub
                work_vectors = work_vectors @ rot
            else:
                work[live] = sub
                work_vectors[live] = work_vectors[live] @ rot
        work = _hermitian_part(work)
    else:
        raise ConvergenceFailure(
            f"off-diagonal mass did not settle within {SWEEP_LIMIT} sweeps"
        )

    values = a.diagonal(axis1=1, axis2=2).real
    order = np.argsort(-values, axis=1, kind="stable")
    stack = np.arange(count)[:, None]
    values = values[stack, order]
    vectors = vectors[stack, :, order].transpose(0, 2, 1)
    pivots = vectors[stack, np.argmax(_magnitude(vectors), axis=1), np.arange(n)]
    vectors *= (np.conj(pivots) / _magnitude(pivots))[:, None, :]
    return values.reshape(shape[:-1]), vectors.reshape(shape)


# Degree-13 diagonal Pade approximant coefficients and its 1-norm threshold
# (Higham 2005). Below the threshold the kernel's backward error is under
# double-precision roundoff; the squaring phase doubles the norm budget per
# step, so inputs with ||M*s||_1 up to ~2^60 * 5.37 are representable.
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_PADE13_THETA = 5.371920351148152


def matrix_exp(matrix: np.ndarray, scale=1.0) -> np.ndarray:
    """exp(matrix * scale) by scaling and squaring with a degree-13 Pade kernel.

    ``matrix`` is one (n, n) matrix or a stack (..., n, n). ``scale`` is a
    number or an array; its shape broadcasts against the stack's leading
    shape, so ``matrix_exp(L, times)`` exponentiates one generator at many
    times. Each member is handled as it would be alone.

    The scaled matrix is divided by a power of two until its 1-norm is below
    5.3719, evaluated with the [13/13] diagonal Pade approximant, and squared
    back up. An input whose scaled 1-norm is at or below 5.3719 is not scaled
    at all, subnormal norms included, so any tiny time gives a finite result
    close to the identity. A zero input returns the exact identity.

    Raises OverflowDetected for non-finite input or when the scaling stage
    exceeds the representable range; for a finite square input it is the only
    error.
    """
    a = np.asarray(matrix)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        x = a * np.asarray(scale, dtype=float)[..., None, None]
    shape = x.shape
    x = x.reshape(-1, *shape[-2:])
    if not np.all(np.isfinite(x)):
        raise OverflowDetected("non-finite entries in the scaled matrix")
    eye = np.eye(shape[-1], dtype=x.dtype)
    with np.errstate(over="ignore"):
        norm1 = np.abs(x).sum(axis=1).max(axis=1, initial=0.0)
    # Only a norm above the threshold needs scaling; the ratio is then above 1,
    # so its log2 cannot underflow to -inf as it would for a subnormal norm.
    needed = np.zeros(norm1.shape)
    above = norm1 > _PADE13_THETA
    needed[above] = np.ceil(np.log2(norm1[above] / _PADE13_THETA))
    if np.any(needed > 60):
        worst = int(np.argmax(needed))
        raise OverflowDetected(
            f"1-norm {norm1[worst]:.3e} would need {needed[worst]:.0f} squarings"
        )
    squarings = needed.astype(int)
    x = x / np.ldexp(1.0, squarings)[:, None, None]

    b = _PADE13
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x2 @ x4
    u = x @ (
        x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
        + b[7] * x6
        + b[5] * x4
        + b[3] * x2
        + b[1] * eye
    )
    v = (
        x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
        + b[6] * x6
        + b[4] * x4
        + b[2] * x2
        + b[0] * eye
    )
    result = np.linalg.solve(v - u, v + u)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(squarings.max(initial=0)):
            square = squarings > step
            if square.all():
                result = result @ result
            else:
                result[square] = result[square] @ result[square]
    if not np.all(np.isfinite(result)):
        raise OverflowDetected("matrix exponential overflowed while squaring")
    result[norm1 == 0.0] = eye
    return result.reshape(shape)
