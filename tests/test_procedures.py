import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enscribe import (
    EnscriptionParams,
    build_procedure,
    certificate,
    entangled_input,
    gram,
    make_real_uniform,
    make_text,
    qubit_example,
    solve_real_uniform_central,
    solve_two_text,
    swap_operator,
    symmetrize_procedure,
    unitary_from_correspondence,
    verify_procedure,
)
from enscribe.errors import GramMismatch, InvalidCertificate, NotQOne

from helpers import random_classical_text, random_state, random_unitary


def _unitarity_defect(u):
    return np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))


def test_correspondence_identity_on_same_lists():
    rng = np.random.default_rng(0)
    vecs = [random_state(rng, 4) for _ in range(2)]
    w = unitary_from_correspondence(vecs, vecs, 4)
    for v in vecs:
        assert np.linalg.norm(w @ v - v) < 1e-12
    assert _unitarity_defect(w) < 1e-12


def test_correspondence_single_pair():
    rng = np.random.default_rng(1)
    u, v = random_state(rng, 2), random_state(rng, 2)
    w = unitary_from_correspondence([u], [v], 2)
    assert np.linalg.norm(w @ u - v) < 1e-12
    assert _unitarity_defect(w) < 1e-12


def test_correspondence_random_isometric_family():
    rng = np.random.default_rng(2)
    ins = [random_state(rng, 9) for _ in range(3)]
    rot = random_unitary(rng, 9)
    outs = [rot @ v for v in ins]
    w = unitary_from_correspondence(ins, outs, 9)
    err = max(np.linalg.norm(w @ a - b) for a, b in zip(ins, outs))
    assert err < 1e-9
    assert _unitarity_defect(w) < 1e-10


def test_correspondence_rejects_gram_mismatch():
    rng = np.random.default_rng(3)
    ins = [random_state(rng, 3) for _ in range(2)]
    outs = [ins[0], random_state(rng, 3)]
    if abs(np.vdot(ins[0], ins[1]) - np.vdot(outs[0], outs[1])) < 1e-6:
        outs[1] = np.roll(outs[1], 1)
    with pytest.raises(GramMismatch):
        unitary_from_correspondence(ins, outs, 3)


def test_correspondence_gate_is_sharp():
    # perturb an isometric pair slightly above/below the entrywise gate
    rng = np.random.default_rng(4)
    ins = [np.array([1.0, 0.0, 0.0], dtype=complex), np.array([0.6, 0.8, 0.0], dtype=complex)]
    outs = [v.copy() for v in ins]
    bump = 5e-10
    outs[1] = outs[1] + np.array([bump, 0, 0])
    outs[1] /= np.linalg.norm(outs[1])
    with pytest.raises(GramMismatch):
        unitary_from_correspondence(ins, outs, 3, gram_tol=1e-10)
    w = unitary_from_correspondence(ins, outs, 3, gram_tol=1e-8)
    assert _unitarity_defect(w) < 1e-12


@st.composite
def gram_matched_families(draw):
    """Inputs and outputs with equal Gram matrices: N <= 6 unit vectors of rank r in C^dim.

    dim is N..max(N, 2r), where the rotation may fill the space, or 4r..30; the
    outputs are the inputs under a unitary that moves only the first few
    coordinates, so the two spans may share directions.
    """
    n = draw(st.integers(1, 6))
    rank = draw(st.integers(1, n))
    dim = draw(st.integers(n, max(n, 2 * rank)) | st.integers(max(n, 4 * rank), 30))
    moved = draw(st.integers(1, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    a = span @ (rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n)))
    a /= np.linalg.norm(a, axis=0)
    rot = np.eye(dim, dtype=complex)
    rot[:moved, :moved] = random_unitary(rng, moved)
    return list(a.T), list((rot @ a).T)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(gram_matched_families())
def test_correspondence_is_the_identity_plus_a_rotation_on_both_spans(families):
    ins, outs = families
    dim = ins[0].shape[0]
    w = unitary_from_correspondence(ins, outs, dim)
    assert max(np.linalg.norm(w @ a - b) for a, b in zip(ins, outs)) < 1e-10
    assert _unitarity_defect(w) < 1e-12
    # W x = x for every x orthogonal to both families
    u, sv, _ = np.linalg.svd(np.column_stack(ins + outs))
    outside = u[:, int(np.sum(sv > 1e-10 * sv[0])) :]
    assert np.max(np.abs(w @ outside - outside), initial=0.0) < 1e-12
    assert np.array_equal(w, unitary_from_correspondence(ins, outs, dim))


def test_correspondence_rejects_nan_vectors():
    ins = [np.array([1.0, 0.0], dtype=complex)]
    outs = [np.array([np.nan, 0.0], dtype=complex)]
    with pytest.raises(GramMismatch):
        unitary_from_correspondence(ins, outs, 2)


def test_build_procedure_classical_two_text():
    rng = np.random.default_rng(5)
    text = random_classical_text(rng, 2, 2)
    params = EnscriptionParams.from_Q(0.5, text.state(0), n_states=2)
    cert = certificate(text, params)
    u = build_procedure(text, cert)
    assert verify_procedure(u, text, cert) < 1e-8


def test_build_procedure_qubit_example_action():
    text, cert, _ = qubit_example()
    u = build_procedure(text, cert)
    assert verify_procedure(u, text, cert) < 1e-8
    for i in range(2):
        omega = entangled_input(text, i, cert.params.q, cert.params.tablet)
        assert np.linalg.norm(u @ omega - np.kron(text.state(i), text.state(i))) < 1e-8


def test_build_procedure_uniform_central():
    cert = solve_real_uniform_central(3, 0.3)
    text = make_real_uniform(3, 0.3)
    u = build_procedure(text, cert)
    assert u.shape == (9, 9)
    assert verify_procedure(u, text, cert) < 1e-8


def test_build_procedure_rejects_bad_certificate():
    text = make_real_uniform(2, 0.5)
    params = EnscriptionParams.from_Q(0.0, text.state(0), n_states=2)
    bad = certificate(text, params)
    with pytest.raises(InvalidCertificate):
        build_procedure(text, bad)


def test_verify_procedure_flags_identity():
    text = make_real_uniform(2, 0.5)
    cert = solve_two_text(text)
    assert verify_procedure(np.eye(4, dtype=complex), text, cert) > 0.1


def test_qubit_example_explicit_matrix():
    text, cert, u = qubit_example()
    assert _unitarity_defect(u) < 1e-12
    assert verify_procedure(u, text, cert) < 1e-10
    p = swap_operator(2)
    assert np.linalg.norm(u @ p - p @ u) < 1e-12
    assert abs(gram(text)[0, 1] - (np.sqrt(3) - 2)) < 1e-12


def test_symmetrize_procedure_qubit_example():
    text, cert, _ = qubit_example()
    u = symmetrize_procedure(text, cert)
    p = swap_operator(2)
    assert np.linalg.norm(u @ p - p @ u) < 1e-10
    assert verify_procedure(u, text, cert) < 1e-8


def test_symmetrize_procedure_classical_pair():
    text = make_text(2, [[1, 0], [0, 1]])
    params = EnscriptionParams.from_q(1.0, text.state(0), n_states=2)
    cert = certificate(text, params)
    u = symmetrize_procedure(text, cert)
    p = swap_operator(2)
    assert np.linalg.norm(u @ p - p @ u) < 1e-10
    assert verify_procedure(u, text, cert) < 1e-8


def test_symmetrize_procedure_requires_q_one():
    text = make_real_uniform(2, 0.5)
    cert = solve_two_text(text)
    with pytest.raises(NotQOne):
        symmetrize_procedure(text, cert)


def test_procedures_are_deterministic():
    cert = solve_real_uniform_central(3, 0.3)
    text = make_real_uniform(3, 0.3)
    a = build_procedure(text, cert)
    b = build_procedure(text, cert)
    assert np.array_equal(a, b)


def test_every_procedure_is_unitary():
    for z in (0.2, 0.5, -0.2):
        text = make_real_uniform(2, z)
        cert = solve_two_text(text)
        u = build_procedure(text, cert)
        assert _unitarity_defect(u) < 1e-10
