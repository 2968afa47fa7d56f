import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kraus_forge.errors import NonHermitianInput
from kraus_forge.lindblad import LindbladGenerator, build_L
from kraus_forge.linalg import (
    SIGMA_I,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    hermitian_basis,
)
from references import apply_generator, per_basis_L


def damping_generator(x, y, z):
    return LindbladGenerator(
        hamiltonian=x * SIGMA_Z,
        jumps=((y, SIGMA_MINUS), (z, SIGMA_PLUS)),
    )


def dephasing_generator(r):
    return LindbladGenerator(hamiltonian=np.zeros((2, 2)), jumps=((r, SIGMA_Z),))


def test_damping_generator_on_identity():
    # emission at y and absorption at z push the identity along sigma_z:
    # expanding both dissipators by hand gives (z - y) sigma_z
    gen = damping_generator(x=0.3, y=2.0, z=0.5)
    image = apply_generator(gen, SIGMA_I)
    assert np.abs(image - (0.5 - 2.0) * SIGMA_Z).max() < 1e-14


def test_dephasing_generator_fixes_sigma_z():
    gen = dephasing_generator(1.3)
    assert np.abs(apply_generator(gen, SIGMA_Z)).max() < 1e-14


def test_dephasing_generator_damps_sigma_x():
    r = 0.8
    gen = dephasing_generator(r)
    assert np.abs(apply_generator(gen, SIGMA_X) + 2 * r * SIGMA_X).max() < 1e-14


def test_build_L_damping_matrix():
    x, y, z = 1.0, 3.0, 1.0
    expected = np.array(
        [
            [0, 0, 0, 0],
            [0, -(y + z) / 2, -2 * x, 0],
            [0, 2 * x, -(y + z) / 2, 0],
            [z - y, 0, 0, -(y + z)],
        ]
    )
    matrix = build_L(damping_generator(x, y, z))
    assert matrix.dtype == np.float64
    assert np.abs(matrix - expected).max() < 1e-14


def test_build_L_dephasing_matrix():
    r = 1.7
    matrix = build_L(dephasing_generator(r))
    assert np.abs(matrix - np.diag([0.0, -2 * r, -2 * r, 0.0])).max() < 1e-14


def test_build_L_zero_generator():
    gen = LindbladGenerator(hamiltonian=np.zeros((2, 2)))
    assert np.abs(build_L(gen)).max() == 0.0


def random_generator(rng):
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = (h + h.conj().T) / 2
    jumps = tuple(
        (rng.uniform(0, 2), rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        for _ in range(rng.integers(0, 3))
    )
    return LindbladGenerator(hamiltonian=h, jumps=jumps)


def test_trace_annihilation_and_first_row():
    rng = np.random.default_rng(17)
    basis = hermitian_basis()
    for _ in range(50):
        gen = random_generator(rng)
        for el in basis:
            assert abs(np.trace(apply_generator(gen, el))) < 1e-12
        assert (build_L(gen)[0] == 0.0).all()


def test_generator_matrix_closure():
    # L_kl recovers trace(G_k gen(G_l)) entry by entry
    rng = np.random.default_rng(23)
    basis = hermitian_basis()
    gen = random_generator(rng)
    matrix = build_L(gen)
    for k in range(4):
        for l in range(4):
            entry = np.trace(basis[k] @ apply_generator(gen, basis[l]))
            assert abs(matrix[k, l] - entry) < 1e-12


def test_generator_hermiticity_preservation():
    rng = np.random.default_rng(29)
    gen = random_generator(rng)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = apply_generator(gen, a).conj().T
        rhs = apply_generator(gen, a.conj().T)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_build_L_linear_in_generator():
    first = damping_generator(0.5, 2.0, 1.0)
    second = dephasing_generator(0.7)
    combined = LindbladGenerator(
        hamiltonian=first.hamiltonian + second.hamiltonian,
        jumps=first.jumps + second.jumps,
    )
    assert np.abs(build_L(combined) - (build_L(first) + build_L(second))).max() < 1e-14


_UNIT = st.floats(-1.0, 1.0)
_COMPLEX_2X2 = st.builds(
    lambda parts: np.array(parts[:4]).reshape(2, 2) + 1j * np.array(parts[4:]).reshape(2, 2),
    st.lists(_UNIT, min_size=8, max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(
    _COMPLEX_2X2,
    st.lists(st.tuples(st.floats(0.0, 1e12), _COMPLEX_2X2), max_size=3),
    st.floats(0.0, 1e12),
)
@example(np.zeros((2, 2)), [(1e9, np.array([[0.6, 0.8j], [0.3 + 0.1j, 0.2]]))], 0.0)
@example(np.zeros((2, 2)), [(1e12, np.array([[0.6 + 0.8j, 1e-7], [2e-7j, 0.6 + 0.8j]]))], 0.0)
def test_build_L_accepts_large_rates(h, jumps, scale):
    # roundoff grows with the rates, so the imaginary residue's bound is
    # relative; both routes round on the scale of the terms they sum, which
    # a jump near a multiple of the identity makes far larger than L
    gen = LindbladGenerator(hamiltonian=scale * (h + h.conj().T) / 2, jumps=tuple(jumps))
    size = max([1.0, float(np.abs(gen.hamiltonian).max())]
               + [rate * float(np.abs(jump).max()) ** 2 for rate, jump in gen.jumps])
    assert np.abs(build_L(gen) - per_basis_L(gen)).max() <= 1e-14 * size


def test_rejects_nonhermitian_hamiltonian():
    with pytest.raises(NonHermitianInput):
        LindbladGenerator(hamiltonian=np.array([[0, 1], [0, 0]]))


def test_rejects_negative_rate():
    with pytest.raises(ValueError):
        LindbladGenerator(hamiltonian=np.zeros((2, 2)), jumps=((-0.1, SIGMA_Z),))


def test_rejects_time_dependent_generator():
    with pytest.raises(TypeError):
        LindbladGenerator(hamiltonian=lambda t: t * SIGMA_Z)
    with pytest.raises(TypeError):
        LindbladGenerator(
            hamiltonian=np.zeros((2, 2)), jumps=((1.0, lambda t: SIGMA_Z),)
        )
