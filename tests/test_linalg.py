import json
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kraus_forge import linalg
from kraus_forge.errors import ConvergenceFailure, NonHermitianInput, OverflowDetected
from kraus_forge.gad import GadScaled, gad_F_closed
from kraus_forge.kraus import choi_from_propagator
from kraus_forge.linalg import (
    SIGMA_I,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    hermitian_basis,
    hermitian_eig,
    matrix_exp,
)
from kernels import cpu_features, run_fresh, skip_unless_kernel_runs


def random_hermitian(rng, n=4):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def test_basis_orthonormality():
    g = hermitian_basis()
    for k in range(4):
        for l in range(4):
            overlap = np.trace(g[k] @ g[l]).real
            assert abs(overlap - (1.0 if k == l else 0.0)) < 1e-14


def test_basis_elements_hermitian_and_ordered():
    g = hermitian_basis()
    for el in g:
        assert np.abs(el - el.conj().T).max() < 1e-15
    assert np.allclose(g[0] * np.sqrt(2), SIGMA_I)
    assert np.allclose(g[1] * np.sqrt(2), SIGMA_X)
    assert np.allclose(g[2] * np.sqrt(2), SIGMA_Y)
    assert np.allclose(g[3] * np.sqrt(2), SIGMA_Z)


def test_eig_diagonal_input():
    values, vectors = hermitian_eig(np.diag([2.0, 0.0, 0.0, 0.0]).astype(complex))
    assert np.allclose(values, [2.0, 0.0, 0.0, 0.0])
    assert np.abs(vectors - np.eye(4)).max() == 0.0


def test_eig_dephasing_choi_diagonal():
    # diag(1 + e^(-2rt), 0, 0, 1 - e^(-2rt)) at r*t = 0.3
    decay = np.exp(-0.6)
    values, _ = hermitian_eig(np.diag([1 + decay, 0.0, 0.0, 1 - decay]).astype(complex))
    assert np.abs(values - np.array([1 + decay, 1 - decay, 0.0, 0.0])).max() < 1e-14


def test_eig_damping_choi_spectrum():
    # Choi matrix of the damping channel at theta=1, omega=-1, tau=1; the
    # expected spectrum comes from its closed-form expressions evaluated here.
    from kraus_forge.gad import GadScaled, gad_F_closed
    from kraus_forge.kraus import choi_from_propagator

    omega, tau = -1.0, 1.0
    choi = choi_from_propagator(gad_F_closed(GadScaled(1.0, omega, tau)))
    e2 = np.exp(-2 * tau)
    root = np.sqrt(16 * e2 + omega**2 * (1 - e2) ** 2)
    expected = np.sort(
        [
            0.25 * (1 - e2) * (2 - omega),
            0.25 * (1 - e2) * (2 + omega),
            0.25 * (2 * e2 + 2 - root),
            0.25 * (2 * e2 + 2 + root),
        ]
    )[::-1]
    values, _ = hermitian_eig(choi)
    assert np.abs(values - expected).max() < 1e-10


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = random_hermitian(rng)
        values, vectors = hermitian_eig(m)
        assert np.abs(vectors @ np.diag(values) @ vectors.conj().T - m).max() < 1e-10
        assert np.abs(m @ vectors - vectors * values).max() < 1e-10
        assert np.abs(vectors.conj().T @ vectors - np.eye(4)).max() < 1e-12
        assert np.abs(values - np.sort(np.linalg.eigvalsh(m))[::-1]).max() < 1e-12


def test_eig_descending_order_and_phase_convention():
    rng = np.random.default_rng(11)
    m = random_hermitian(rng)
    values, vectors = hermitian_eig(m)
    assert np.all(np.diff(values) <= 0)
    for i in range(4):
        mags = np.abs(vectors[:, i])
        pivot = vectors[int(np.flatnonzero(mags >= (1.0 - 2.0**-40) * mags.max())[0]), i]
        assert pivot.real > 0
        assert abs(pivot.imag) < 1e-13


def test_eig_rejects_nonhermitian():
    with pytest.raises(NonHermitianInput):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_matrix_exp_zero_is_exact_identity():
    result = matrix_exp(np.zeros((4, 4)))
    assert result.tolist() == np.eye(4).tolist()
    result = matrix_exp(np.ones((4, 4)), 0.0)
    assert result.tolist() == np.eye(4).tolist()


def test_matrix_exp_diagonal_generator():
    result = matrix_exp(np.diag([0.0, -2.0, -2.0, 0.0]), np.log(2) / 2)
    assert np.abs(result - np.diag([1.0, 0.5, 0.5, 1.0])).max() < 1e-14


def test_matrix_exp_matches_closed_form_propagator():
    # generator at x=1, y=3, z=1 propagated to t=0.5; expected entries from
    # the damped-rotation closed form at theta=1, omega=-1, tau=1
    x, y, z = 1.0, 3.0, 1.0
    gen = np.array(
        [
            [0, 0, 0, 0],
            [0, -(y + z) / 2, -2 * x, 0],
            [0, 2 * x, -(y + z) / 2, 0],
            [z - y, 0, 0, -(y + z)],
        ],
        dtype=float,
    )
    tau = 1.0
    decay = np.exp(-tau)
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, decay * np.cos(tau), -decay * np.sin(tau), 0],
            [0, decay * np.sin(tau), decay * np.cos(tau), 0],
            [-decay * np.sinh(tau), 0, 0, np.exp(-2 * tau)],
        ]
    )
    assert np.abs(matrix_exp(gen, 0.5) - expected).max() < 1e-10


def test_matrix_exp_against_scipy():
    rng = np.random.default_rng(3)
    for scale in (0.1, 1.0, 10.0, 50.0):
        m = rng.normal(size=(4, 4))
        m *= scale / np.abs(m).sum(axis=0).max()
        reference = scipy.linalg.expm(m)
        assert np.abs(matrix_exp(m) - reference).max() < 1e-10 * max(
            1.0, np.abs(reference).max()
        )


@settings(max_examples=50, deadline=None)
@given(
    s1=st.floats(min_value=0.0, max_value=5.0),
    s2=st.floats(min_value=0.0, max_value=5.0),
)
@example(s1=0.0, s2=5e-324)
def test_matrix_exp_semigroup(s1, s2):
    gen = np.array(
        [[0, 0, 0, 0], [0, -1, -1, 0], [0, 1, -1, 0], [-1, 0, 0, -2]], dtype=float
    )
    combined = matrix_exp(gen, s1 + s2)
    split = matrix_exp(gen, s1) @ matrix_exp(gen, s2)
    assert np.abs(combined - split).max() < 1e-10


@pytest.mark.parametrize(
    "matrix, scale",
    [
        (
            np.array(
                [[0, 0, 0, 0], [0, -1, -1, 0], [0, 1, -1, 0], [-1, 0, 0, -2]],
                dtype=float,
            ),
            5e-324,
        ),
        (np.full((4, 4), 5e-324), 1.0),
    ],
)
def test_matrix_exp_subnormal_norm(matrix, scale):
    # a subnormal 1-norm needs no squaring; it must not reach log2(0) = -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = matrix_exp(matrix, scale)
    assert np.all(np.isfinite(result))
    assert np.abs(result - np.eye(4)).max() < 1e-15


def test_matrix_exp_preserves_trace_row():
    # any generator with a vanishing first row exponentiates to a propagator
    # with first row (1, 0, 0, 0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        gen = rng.normal(size=(4, 4))
        gen[0] = 0.0
        prop = matrix_exp(gen, 0.7)
        assert np.abs(prop[0] - np.array([1.0, 0, 0, 0])).max() < 1e-12


def test_matrix_exp_overflow_detection():
    with pytest.raises(OverflowDetected):
        matrix_exp(np.full((4, 4), 1e308), 10.0)
    with pytest.raises(OverflowDetected):
        matrix_exp(np.diag([1e9, 1e9, 1e9, 1e9]), 1.0)


def _same_bits(first, second):
    # equal shapes, dtypes and bytes: equal values and equal signs of zero
    first, second = np.asarray(first), np.asarray(second)
    return (
        first.shape == second.shape
        and first.dtype == second.dtype
        and first.tobytes() == second.tobytes()
    )


_ENTRY = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def _hermitian_member(draw):
    kind = draw(
        st.sampled_from(
            ("general", "zero", "diagonal", "degenerate", "gad", "subnormal", "far", "residue")
        )
    )
    if kind == "zero":
        return np.zeros((4, 4), dtype=complex)
    if kind == "diagonal":
        return np.diag(draw(st.lists(_ENTRY, min_size=4, max_size=4))).astype(complex)
    if kind == "gad":
        # an X-shaped Choi matrix: two 2x2 blocks, rotated in one sweep
        scaled = GadScaled(
            draw(st.floats(min_value=0.0, max_value=900.0)),
            draw(st.floats(min_value=-2.0, max_value=0.0, exclude_max=True)),
            draw(st.floats(min_value=1e-9, max_value=400.0)),
        )
        return choi_from_propagator(gad_F_closed(scaled))
    re = np.array(draw(st.lists(_ENTRY, min_size=16, max_size=16))).reshape(4, 4)
    im = np.array(draw(st.lists(_ENTRY, min_size=16, max_size=16))).reshape(4, 4)
    m = re + 1j * im
    m = (m + m.conj().T) / 2
    if kind == "degenerate":
        # a unitary from the drawn matrix, and a doubly repeated spectrum
        unitary = np.linalg.qr(m + 20.0 * np.eye(4))[0]
        level = draw(_ENTRY)
        m = unitary @ np.diag([level, level, -level, -level]) @ unitary.conj().T
        m = (m + m.conj().T) / 2
    if kind == "subnormal":
        # subnormal entries beside ordinary ones (pivots under the 1e-300
        # cutoff), or a whole matrix of them (a norm whose square underflows)
        tiny = np.array(draw(st.lists(st.booleans(), min_size=16, max_size=16))).reshape(4, 4)
        m = np.where(tiny | tiny.T, m * 1e-310, m)
    if kind == "residue":
        # a Hermitian part whose squares underflow beside an anti-Hermitian
        # residue within tolerance: the part sets the scaling, not the residue
        m = np.ldexp(m.real, -700) + 1e-14j * (re + re.T)
    if kind == "far":
        # a norm whose square underflows or overflows, so the member is scaled
        shift = draw(st.sampled_from((-1070, -700, 700, 1000)))
        m = np.ldexp(m.real, shift) + 1j * np.ldexp(m.imag, shift)
    return m


def _times(w, y):
    # w y for complex w and y held as (real, imaginary) pairs
    return w[0] * y[0] - w[1] * y[1], w[0] * y[1] + w[1] * y[0]


def _plus(c, x, w, y):
    # c x + w y for a real c
    wy = _times(w, y)
    return c * x[0] + wy[0], c * x[1] + wy[1]


def _minus(c, x, w, y):
    # c x - w y for a real c
    wy = _times(w, y)
    return c * x[0] - wy[0], c * x[1] - wy[1]


def _reference_eig(matrix):
    # one matrix at a time, the cyclic Jacobi iteration with the rotation in
    # real arithmetic that the solver uses; its results must match this
    # reference bit for bit
    a = np.array(matrix, dtype=complex)
    ar, ai = (a.real + a.real.T) / 2.0, (a.imag - a.imag.T) / 2.0
    n = len(ar)
    vr, vi = np.eye(n), np.zeros((n, n))
    total = 0.0
    for x, y in zip(ar.ravel().tolist(), ai.ravel().tolist()):
        total = total + (x * x + y * y)
    scale = math.sqrt(total)
    # a norm outside [2^-500, 2^500]: the member scaled by the power of two
    # that brings its largest entry into [1/2, 1), and the spectrum scaled back
    shift = np.frexp(max(np.abs(ar).max(), np.abs(ai).max()))[1]
    if not 2.0**-500 <= scale <= 2.0**500 and shift:
        # parts set one by one: x + 1j * y would turn a real -0.0 into +0.0
        scaled = np.empty(ar.shape, dtype=complex)
        scaled.real, scaled.imag = np.ldexp(ar, -shift), np.ldexp(ai, -shift)
        values, vectors = _reference_eig(scaled)
        return np.ldexp(values, shift), vectors
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    for sweep in range(61 if scale > 0.0 else 0):
        off = max(float(np.hypot(ar[p, q], ai[p, q])) for p, q in pairs)
        if off <= 1e-15 * scale:
            break
        assert sweep < 60, "reference Jacobi did not converge"
        for p, q in pairs:
            mag = np.hypot(ar[p, q], ai[p, q])
            if mag <= 1e-300:
                continue
            phase = ar[p, q] / mag, ai[p, q] / mag
            beta = (ar[q, q] - ar[p, p]) / (2.0 * mag)
            t = (-1.0 if beta >= 0.0 else 1.0) / (abs(beta) + np.hypot(1.0, beta))
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            u, conj_u = (s * phase[0], s * phase[1]), (s * phase[0], -(s * phase[1]))
            # columns, then rows, of A; the columns of V as those of A
            for xr, xi in ((ar, ai), (vr, vi)):
                xp, xq = (xr[:, p].copy(), xi[:, p].copy()), (xr[:, q].copy(), xi[:, q].copy())
                (xr[:, p], xi[:, p]), (xr[:, q], xi[:, q]) = (
                    _plus(c, xp, conj_u, xq), _minus(c, xq, u, xp)
                )
            bp, bq = (ar[p].copy(), ai[p].copy()), (ar[q].copy(), ai[q].copy())
            (ar[p], ai[p]), (ar[q], ai[q]) = _plus(c, bp, u, bq), _minus(c, bq, conj_u, bp)
        ar, ai = (ar + ar.T) / 2.0, (ai - ai.T) / 2.0
    values = ar.diagonal().copy()
    order = np.argsort(-values, kind="stable")
    values, vr, vi = values[order], vr[:, order], vi[:, order]
    vectors = np.empty((n, n), dtype=complex)
    for k in range(n):
        # the phase reference: the lowest index within 2^-40 of the largest magnitude
        mags = np.hypot(vr[:, k], vi[:, k])
        top = int(np.flatnonzero(mags >= (1.0 - 2.0**-40) * mags.max())[0])
        mag = mags[top]
        phase = vr[top, k] / mag, -vi[top, k] / mag
        vectors.real[:, k], vectors.imag[:, k] = _times(phase, (vr[:, k], vi[:, k]))
    return values, vectors


@settings(max_examples=80, deadline=None)
@given(members=st.lists(_hermitian_member(), min_size=1, max_size=6))
def test_eig_stack_equals_loop(members):
    # each member alone takes the one-member path; the stack takes the stacked one
    stack = np.array(members)
    values, vectors = hermitian_eig(stack)
    assert values.shape == (len(members), 4) and vectors.shape == stack.shape
    for k, member in enumerate(members):
        for alone_values, alone_vectors in (hermitian_eig(member), _reference_eig(member)):
            assert _same_bits(values[k], alone_values)
            assert _same_bits(vectors[k], alone_vectors)


@pytest.mark.parametrize(
    "matrix",
    [
        np.full((4, 4), 1e-200),
        np.full((4, 4), 1e200),
        np.full((4, 4), 5e-324),
        np.arange(16.0).reshape(4, 4) * 1e-310,
        np.diag([1e-170, -3e-171, 2e-172, 0.0]) + np.eye(4, k=1) * 1e-171,
        np.diag([1e170, -3e169, 2e171, 1.0]) + np.eye(4, k=-1) * 1e170,
    ],
)
def test_eig_out_of_range_members_are_scaled(matrix):
    # a norm whose square underflows or overflows: the spectrum is that of the
    # matrix scaled by a power of two, on the one-member and the stacked path
    h = (matrix + matrix.T) / 2
    shift = np.frexp(np.abs(h).max())[1]
    expected = np.ldexp(np.linalg.eigvalsh(np.ldexp(h, -shift))[::-1], shift)
    size = np.abs(expected).max()
    stacked = hermitian_eig(np.stack([np.eye(4), h, 2.0 * np.eye(4)]))
    for values, vectors in (hermitian_eig(h), (stacked[0][1], stacked[1][1])):
        assert np.abs(values - expected).max() <= 1e-14 * size
        assert np.abs(vectors.conj().T @ vectors - np.eye(4)).max() < 1e-14
        assert np.abs((vectors * values) @ vectors.conj().T - h).max() <= 1e-14 * size
    assert stacked[0][0].tolist() == [1.0] * 4 and stacked[0][2].tolist() == [2.0] * 4


@pytest.mark.parametrize(
    "matrix, expected",
    [
        (np.diag([1e308, 1.0]), [1e308, 1.0]),
        (np.array([[1.0, 1e308], [1e308, 1.0]]), [1e308, -1e308]),
        (np.array([[1.7e308, 1e-300j], [-1e-300j, -1.7e308]]), [1.7e308, -1.7e308]),
    ],
)
def test_eig_entries_near_the_top_of_the_range(matrix, expected):
    # the Hermitian part (a + a^dag) / 2 would overflow; the member is scaled
    # by the power of two of its largest entry first, on both paths, quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = hermitian_eig(matrix)
        stacked = hermitian_eig(np.stack([np.eye(2), matrix]))
    for values, vectors in (alone, (stacked[0][1], stacked[1][1])):
        assert np.abs(values - expected).max() <= 1e-15 * np.abs(expected).max()
        assert np.abs(vectors.conj().T @ vectors - np.eye(2)).max() < 1e-15
    assert stacked[0][0].tolist() == [1.0, 1.0]


@pytest.mark.parametrize(
    "matrix",
    [
        np.full((4, 4), 1e308),
        np.full((2, 4, 4), 1e308),
        np.full((2, 2), 1e308),
    ],
    ids=["one_4x4", "stack_of_two", "one_2x2"],
)
def test_eig_spectrum_beyond_the_largest_double_raises(matrix):
    # eigenvalues 4e308 and 2e308: a typed error, not inf with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowDetected, match="beyond the largest double"):
            hermitian_eig(matrix)


def test_eig_zero_matrix_stays_exact():
    for values, vectors in (hermitian_eig(np.zeros((4, 4))), hermitian_eig(np.zeros((2, 4, 4)))):
        assert not values.any()
        assert np.array_equal(vectors, np.broadcast_to(np.eye(4), vectors.shape))


def test_convergence_failure(monkeypatch):
    general = random_hermitian(np.random.default_rng(13))
    x_shaped = choi_from_propagator(gad_F_closed(GadScaled(1.5, -0.6, 0.7)))
    expected = hermitian_eig(x_shaped)
    monkeypatch.setattr(linalg, "SWEEP_LIMIT", 1)
    # a general matrix needs several sweeps, alone and inside a stack
    with pytest.raises(ConvergenceFailure):
        hermitian_eig(general)
    with pytest.raises(ConvergenceFailure):
        hermitian_eig(_with_member(general))
    # an X-shaped Choi matrix is diagonal after one sweep
    alone = hermitian_eig(x_shaped)
    stacked = hermitian_eig(np.array([x_shaped, np.diag([1.0, 0.5, 0.25, 0.0])]))
    for got in (alone, (stacked[0][0], stacked[1][0])):
        assert _same_bits(got[0], expected[0]) and _same_bits(got[1], expected[1])


_GENERATOR = np.array(
    [[0, 0, 0, 0], [0, -1, -1, 0], [0, 1, -1, 0], [-1, 0, 0, -2]], dtype=float
)


@settings(max_examples=60, deadline=None)
@given(
    scales=st.lists(
        st.one_of(
            st.just(0.0),
            st.just(5e-324),
            st.floats(min_value=1e-3, max_value=200.0),
        ),
        min_size=1,
        max_size=6,
    ),
    entries=st.lists(_ENTRY, min_size=16, max_size=16),
)
def test_matrix_exp_stack_equals_loop(scales, entries):
    # members with norms from zero and subnormal up to several squarings
    generators = [_GENERATOR, np.array(entries).reshape(4, 4) / 10.0]
    stack = np.array([generators[k % 2] * s for k, s in enumerate(scales)])
    stacked = matrix_exp(stack)
    for k, member in enumerate(stack):
        assert _same_bits(stacked[k], matrix_exp(member))
    # one generator at many times: the scale broadcasts over the stack
    swept = matrix_exp(_GENERATOR, scales)
    for k, s in enumerate(scales):
        assert _same_bits(swept[k], matrix_exp(_GENERATOR, s))


def _with_member(bad):
    good = np.diag([1.0, 0.5, 0.25, 0.0]).astype(complex)
    return np.array([good, bad, good])


@pytest.mark.parametrize(
    "function, bad, error",
    [
        (hermitian_eig, np.triu(np.ones((4, 4))).astype(complex), NonHermitianInput),
        (matrix_exp, np.full((4, 4), np.nan), OverflowDetected),
        (matrix_exp, np.full((4, 4), np.inf), OverflowDetected),
        # finite, but the 1-norm itself overflows
        (matrix_exp, np.full((4, 4), 1e308), OverflowDetected),
        # would need more than 60 squarings
        (matrix_exp, np.diag([1e30, 0.0, 0.0, 0.0]), OverflowDetected),
        # overflows while squaring
        (matrix_exp, np.diag([800.0, 0.0, 0.0, 0.0]), OverflowDetected),
        # non-finite input to the eigensolver
        (hermitian_eig, np.full((4, 4), np.nan, dtype=complex), NonHermitianInput),
        (hermitian_eig, np.diag([np.inf, 0.0, 0.0, 0.0]).astype(complex), NonHermitianInput),
    ],
)
def test_stack_with_one_bad_member_raises_its_error(function, bad, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            function(bad)
        with pytest.raises(error):
            function(_with_member(bad))


# hermitian_eig on a fixed stack and on single members, printed as one digest
# with the dispatched CPU features numpy enabled; the input is built from
# integers by exact elementwise arithmetic, with no BLAS call
_DIGEST_SCRIPT = """
import hashlib, json
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from kraus_forge.linalg import hermitian_eig

count, n = 200, 4
codes = np.arange(2 * count * n * n, dtype=np.int64) * 2654435761 % 2**32
re, im = (codes / 2.0**32 - 0.5).reshape(2, count, n, n)
stack = np.empty((count, n, n), dtype=complex)
stack.real = re + re.transpose(0, 2, 1)
stack.imag = im - im.transpose(0, 2, 1)
digest = hashlib.sha256()
for values, vectors in [hermitian_eig(stack)] + [hermitian_eig(m) for m in stack[:20]]:
    digest.update(values.tobytes() + vectors.tobytes())
enabled = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
print(json.dumps({"digest": digest.hexdigest(), "enabled": enabled}))
"""


def _eig_digest(**variables):
    return json.loads(run_fresh(_DIGEST_SCRIPT, **variables))


@pytest.fixture(scope="module")
def default_eig_digest():
    return _eig_digest()["digest"]


@pytest.mark.parametrize("variant", ["Haswell", "Prescott", "no_dispatched_features"])
def test_eig_bits_do_not_depend_on_blas_or_simd(default_eig_digest, variant):
    if variant == "no_dispatched_features":
        dispatch, features = cpu_features()
        disabled = [f for f in dispatch if features.get(f)]
        if not disabled:
            pytest.skip("numpy dispatches no feature beyond its baseline on this CPU")
        run = _eig_digest(NPY_DISABLE_CPU_FEATURES=",".join(disabled))
        assert not set(disabled) & set(run["enabled"])
    else:
        skip_unless_kernel_runs(variant)
        run = _eig_digest(OPENBLAS_CORETYPE=variant)
    assert run["digest"] == default_eig_digest
