"""Fixed-size complex linear algebra for single-qubit channel work.

Provides the 2x2 operator constants, the orthonormal Hermitian operator
basis, a cyclic Jacobi eigensolver for small Hermitian matrices, and a
scaling-and-squaring matrix exponential. All functions are pure and never
mutate their inputs.
"""

from __future__ import annotations

import math
import operator
from functools import reduce

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

# a member whose Frobenius norm lies outside this range is first scaled by a
# power of two, so that the squares of its entries neither underflow nor overflow
_NORM_RANGE = (2.0**-500, 2.0**500)


def _rotated(c, ur, ui, xr, xi, yr, yi):
    # one Jacobi rotation of a pair (x, y) of entries, rows or columns:
    # (c x + conj(u) y, c y - u x) for u = ur + i ui, written out in real
    # arithmetic with a fixed parenthesisation, so that floats and arrays
    # give the same bits
    return (
        c * xr + (ur * yr + ui * yi),
        c * xi + (ur * yi - ui * yr),
        c * yr - (ur * xr - ui * xi),
        c * yi - (ur * xi + ui * xr),
    )


def _rotate_columns(xr, xi, p, q, live, c, ur, ui):
    # rotate columns p and q of the members `live` of a stack laid out (n, n, members)
    old = [x[:, k][:, live] for k in (p, q) for x in (xr, xi)]
    for (x, k), new in zip(((xr, p), (xi, p), (xr, q), (xi, q)), _rotated(c, ur, ui, *old)):
        x[:, k][:, live] = new


def _no_convergence() -> ConvergenceFailure:
    return ConvergenceFailure(f"off-diagonal mass did not settle within {SWEEP_LIMIT} sweeps")


def _exponents(hr: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # per member, the e with its largest entry in [2^(e-1), 2^e), and 0 for a
    # zero member; np.ldexp by -e is exact even where 2.0**-e would overflow
    return np.frexp(np.maximum(np.abs(hr), np.abs(hi)).max(axis=(-2, -1)))[1]


def _eig_stack(hr: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the Jacobi iteration on a stack (count, n, n) of Hermitian parts
    count, n = hr.shape[0], hr.shape[-1]
    # the working matrices (0, 1) and the eigenvectors (2, 3), in real and
    # imaginary parts, with the stack axis last so that each entry is one
    # contiguous run over the members
    state = np.zeros((4, n, n, count))
    state[0], state[1] = hr.transpose(1, 2, 0), hi.transpose(1, 2, 0)
    state[2, range(n), range(n)] = 1.0
    # the Frobenius norm, summed entry by entry in row-major order as the
    # one-member path sums it (np.sum and BLAS dots use other orders)
    with np.errstate(over="ignore"):
        squares = state[0] * state[0] + state[1] * state[1]
    scale = np.sqrt(reduce(operator.add, squares.reshape(n * n, count)))
    low, high = _NORM_RANGE
    outside = (scale < low) | (scale > high)
    if outside.any():
        shift = np.where(outside, _exponents(hr, hi), 0)
        if shift.any():
            values, vectors = _eig_stack(*np.ldexp((hr, hi), -shift[:, None, None]))
            return np.ldexp(values, shift[:, None]), vectors
    rows, cols = np.triu_indices(n, 1)
    pairs = list(zip(rows.tolist(), cols.tolist()))
    # the members still rotating, as indices into the stack and as a working
    # copy; a member is written back and dropped once it has converged
    members = np.nonzero(scale > 0.0)[0]
    work, tol = state[..., members], 1e-15 * scale[members]
    for sweep in range(SWEEP_LIMIT + 1):
        off = np.hypot(work[0, rows, cols], work[1, rows, cols]).max(axis=0, initial=0.0)
        done = off <= tol
        if done.any():
            state[..., members[done]] = work[..., done]
            members, work, tol = members[~done], work[..., ~done], tol[~done]
        if members.size == 0:
            break
        if sweep == SWEEP_LIMIT:
            raise _no_convergence()
        ar, ai, vr, vi = work
        for p, q in pairs:
            pr, pi = ar[p, q], ai[p, q]
            mag = np.hypot(pr, pi)
            # only members with a pivot above 1e-300 rotate; this is all of
            # them unless some have already cleared this entry
            live = slice(None)
            small = mag <= 1e-300
            if small.any():
                if small.all():
                    continue
                live = np.nonzero(~small)[0]
                pr, pi, mag = pr[live], pi[live], mag[live]
            beta = (ar[q, q][live] - ar[p, p][live]) / (2.0 * mag)
            t = np.where(beta >= 0.0, -1.0, 1.0) / (np.abs(beta) + np.hypot(1.0, beta))
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            ur, ui = s * (pr / mag), s * (pi / mag)
            _rotate_columns(ar, ai, p, q, live, c, ur, ui)
            # rows p and q are columns of the transpose, rotated by conj(u)
            _rotate_columns(ar.transpose(1, 0, 2), ai.transpose(1, 0, 2), p, q, live, c, ur, -ui)
            _rotate_columns(vr, vi, p, q, live, c, ur, ui)
        work[0] = (ar + ar.transpose(1, 0, 2)) / 2.0
        work[1] = (ai - ai.transpose(1, 0, 2)) / 2.0

    values = state[0, range(n), range(n)].T
    order = np.argsort(-values, axis=1, kind="stable")
    stack = np.arange(count)[:, None]
    values = values[stack, order]
    vr, vi = (v.transpose(2, 0, 1)[stack, :, order].transpose(0, 2, 1) for v in state[2:])
    # rephase each column by conj(f)/|f| for its first largest entry f
    top = stack, np.argmax(np.hypot(vr, vi), axis=1), np.arange(n)
    pr, pi = vr[top], vi[top]
    mag = np.hypot(pr, pi)
    fr, fi = (pr / mag)[:, None, :], (-pi / mag)[:, None, :]
    vectors = np.empty(vr.shape, dtype=complex)
    vectors.real, vectors.imag = vr * fr - vi * fi, vr * fi + vi * fr
    return values, vectors


def _eig_one(hr: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # _eig_stack's operations, in the same order, on one (n, n) member held as
    # lists of rows of floats; abs(complex(x, y)) is libm's hypot, as np.hypot
    n = hr.shape[0]
    ar, ai = hr.tolist(), hi.tolist()
    vr, vi = [[0.0] * n for _ in range(n)], [[0.0] * n for _ in range(n)]
    for k in range(n):
        vr[k][k] = 1.0
    # reduce, not sum(): sum() of floats is compensated from Python 3.12 on
    squares = [x * x + y * y for rr, ri in zip(ar, ai) for x, y in zip(rr, ri)]
    scale = math.sqrt(reduce(operator.add, squares))
    if not _NORM_RANGE[0] <= scale <= _NORM_RANGE[1]:
        shift = _exponents(hr, hi)
        if shift:
            values, vectors = _eig_one(*np.ldexp((hr, hi), -shift))
            return np.ldexp(values, shift), vectors
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    for sweep in range(SWEEP_LIMIT + 1 if scale > 0.0 else 0):
        off = max((abs(complex(ar[p][q], ai[p][q])) for p, q in pairs), default=0.0)
        if off <= 1e-15 * scale:
            break
        if sweep == SWEEP_LIMIT:
            raise _no_convergence()
        for p, q in pairs:
            pr, pi = ar[p][q], ai[p][q]
            mag = abs(complex(pr, pi))
            if mag <= 1e-300:
                continue
            beta = (ar[q][q] - ar[p][p]) / (2.0 * mag)
            t = (-1.0 if beta >= 0.0 else 1.0) / (abs(beta) + abs(complex(1.0, beta)))
            c = 1.0 / abs(complex(1.0, t))
            s = t * c
            ur, ui = s * (pr / mag), s * (pi / mag)
            for xr, xi in ((ar, ai), (vr, vi)):
                for r, i in zip(xr, xi):
                    r[p], i[p], r[q], i[q] = _rotated(c, ur, ui, r[p], i[p], r[q], i[q])
            # rows p and q, rotated by conj(u)
            rp, ip, rq, iq = ar[p], ai[p], ar[q], ai[q]
            for k in range(n):
                rp[k], ip[k], rq[k], iq[k] = _rotated(c, ur, -ui, rp[k], ip[k], rq[k], iq[k])
        ar, ai = (
            [[(x + y) / 2.0 for x, y in zip(row, column)] for row, column in zip(ar, zip(*ar))],
            [[(x - y) / 2.0 for x, y in zip(row, column)] for row, column in zip(ai, zip(*ai))],
        )

    values = [ar[j][j] for j in range(n)]
    order = sorted(range(n), key=lambda j: -values[j])
    # rephase each column by conj(f)/|f| for its first largest entry f
    factors = []
    for j in order:
        mags = [abs(complex(r[j], i[j])) for r, i in zip(vr, vi)]
        top = mags.index(max(mags))
        factors.append((j, vr[top][j] / mags[top], -vi[top][j] / mags[top]))
    # the vectors in row-major order, real and imaginary parts interleaved
    out = []
    for r, i in zip(vr, vi):
        for j, fr, fi in factors:
            out += (r[j] * fr - i[j] * fi, r[j] * fi + i[j] * fr)
    return np.array([values[j] for j in order]), np.array(out).view(complex).reshape(n, n)


def hermitian_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of small Hermitian matrices by cyclic Jacobi rotations.

    ``matrix`` is one (n, n) matrix or a stack (..., n, n); the result has
    the same leading shape. Returns ``(eigenvalues, eigenvectors)`` with
    eigenvalues sorted in descending order and eigenvectors as the matching
    columns of a unitary matrix. Each eigenvector is rephased so that its
    largest-magnitude component is real and positive (ties broken by the
    lowest index).

    The iteration runs on the whole stack at once, but every member gets the
    rotations, sweep count and roundoff it would get alone: a member leaves
    the iteration once its off-diagonal mass is below 1e-15 of its Frobenius
    norm, and a pivot below 1e-300 in magnitude is skipped. A member whose
    norm lies outside [2^-500, 2^500] is iterated scaled by the power of two
    that brings its largest entry into [1/2, 1), and its eigenvalues are
    scaled back, so tiny, subnormal and huge members keep their spectrum.
    A one-member call runs the same operations on Python floats, which is
    faster for a single small matrix and gives the same bits. Both use only
    real ``+ - * /``, ``sqrt``, ``hypot`` and exact power-of-two scaling, so
    the result does not depend on the BLAS kernel or on numpy's SIMD
    dispatch.

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
    hr = (a.real + a.real.transpose(0, 2, 1)) / 2.0
    hi = (a.imag - a.imag.transpose(0, 2, 1)) / 2.0
    values, vectors = _eig_one(hr[0], hi[0]) if len(a) == 1 else _eig_stack(hr, hi)
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
