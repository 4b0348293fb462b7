import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from enscribe.linalg import complete_orthonormal, swap_factors, swap_operator
from enscribe.machine import controlled_swap

from helpers import random_unitary

seeded = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@st.composite
def frames(draw):
    """Orthonormal (dim, r) frames: random ones, or canonical basis vectors."""
    dim = draw(st.integers(1, 8))
    r = draw(st.integers(0, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return np.eye(dim, dtype=complex)[:, rng.permutation(dim)[:r]]
    return random_unitary(rng, dim)[:, :r]


@seeded
@given(frames())
def test_completion_makes_a_unitary(cols):
    dim, r = cols.shape
    comp = complete_orthonormal(cols)
    assert comp.shape == (dim, dim - r)
    full = np.column_stack([cols, comp])
    assert np.linalg.norm(full.conj().T @ full - np.eye(dim)) < 1e-12


@seeded
@given(st.integers(1, 6).flatmap(
    lambda d: st.lists(
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        min_size=d * d,
        max_size=d * d,
    ).map(lambda v: (d, np.array(v, dtype=complex)))
))
def test_vector_swap_equals_the_operator(case):
    d, v = case
    assert np.array_equal(swap_factors(v, d), swap_operator(d) @ v)


def test_swap_operators_equal_their_literal_definitions():
    for d in range(1, 7):
        d2 = d * d
        swap = np.zeros((d2, d2), dtype=complex)
        cswap = np.zeros((2 * d2, 2 * d2), dtype=complex)
        for a in range(d):
            for b in range(d):
                swap[a * d + b, b * d + a] = 1.0
                cswap[a * d + b, a * d + b] = 1.0
                cswap[d2 + a * d + b, d2 + b * d + a] = 1.0
        assert swap_operator(d).dtype == controlled_swap(d).dtype == complex
        assert np.array_equal(swap_operator(d), swap)
        assert np.array_equal(controlled_swap(d), cswap)


def test_a_correspondence_decomposes_its_gram_matrix_once(monkeypatch):
    # both dialect frames come from one eigh of the common Gram matrix, with the bits of dialect_frame
    from enscribe import linalg

    rng = np.random.default_rng(4)
    u = random_unitary(rng, 5)
    inputs = [random_unitary(rng, 5)[:, i] for i in range(3)]
    outputs = [u @ v for v in inputs]
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(g):
        calls.append(g)
        return eigh(g)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    linalg.unitary_from_correspondence(inputs, outputs, 5)
    assert len(calls) == 1
    a = np.column_stack(inputs)
    assert np.array_equal(linalg._polar_frame(a, *eigh(a.conj().T @ a)), linalg.dialect_frame(a))


def test_a_correspondence_factors_its_families_once(monkeypatch):
    # one QR of the dim x 2N stack gives the frame and both families' coordinates,
    # so every SVD acts on a block of at most 2N rows, never on a dim-row array
    from enscribe import linalg

    rng = np.random.default_rng(5)
    dim, n = 36, 3
    u = random_unitary(rng, dim)
    inputs = [random_unitary(rng, dim)[:, i] for i in range(n)]
    outputs = [u @ v for v in inputs]
    qr_shapes, svd_shapes = [], []
    qr, svd = np.linalg.qr, np.linalg.svd

    def counting_qr(a, *args, **kwargs):
        qr_shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    def counting_svd(a, *args, **kwargs):
        svd_shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    w = linalg.unitary_from_correspondence(inputs, outputs, dim)
    assert qr_shapes == [(dim, 2 * n)]
    assert svd_shapes and max(rows for rows, _ in svd_shapes) <= 2 * n
    assert w.frame.shape == (dim, 2 * n)
    assert max(np.linalg.norm(w.apply(a) - b) for a, b in zip(inputs, outputs)) < 1e-12
