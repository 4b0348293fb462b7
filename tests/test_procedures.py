import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enscribe import (
    EnscriptionParams,
    build_procedure,
    certificate,
    entangled_input,
    failure_state_symmetry_check,
    feasibility_search,
    gram,
    make_real_uniform,
    make_text,
    q_range_real_uniform,
    qubit_example,
    run_clone,
    solve_real_uniform_central,
    solve_two_text,
    swap_operator,
    texts,
    thin_extension_family,
    unitary_from_correspondence,
    verify_procedure,
)
from enscribe.errors import DimensionMismatch, GramMismatch, InvalidCertificate
from enscribe import procedures
from enscribe.linalg import SpanUnitary, complete_orthonormal
from enscribe.search import SearchOptions
from enscribe.verification import random_equivalence_image

from helpers import random_classical_text, random_state, random_text, random_unitary


def _dense(u):
    """The dense matrix of factors u, as their action on the identity."""
    return u.apply(np.eye(u.frame.shape[0]))


def _unitarity_defect(u):
    return np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))


def _dense_reference(u, text, cert):
    """max_i ||U omega_i - alpha_i psi_i (x) psi_i|| plus the dense ||U^dag U - I||."""
    action = max(
        np.linalg.norm(u @ entangled_input(text, i, cert.params.q, cert.params.tablet)
                       - cert.params.phases[i] * np.kron(text.state(i), text.state(i)))
        for i in range(text.n_states)
    )
    return action + _unitarity_defect(u)


def test_correspondence_identity_on_same_lists():
    rng = np.random.default_rng(0)
    vecs = [random_state(rng, 4) for _ in range(2)]
    w = _dense(unitary_from_correspondence(vecs, vecs, 4))
    for v in vecs:
        assert np.linalg.norm(w @ v - v) < 1e-12
    assert _unitarity_defect(w) < 1e-12


def test_correspondence_single_pair():
    rng = np.random.default_rng(1)
    u, v = random_state(rng, 2), random_state(rng, 2)
    w = _dense(unitary_from_correspondence([u], [v], 2))
    assert np.linalg.norm(w @ u - v) < 1e-12
    assert _unitarity_defect(w) < 1e-12


def test_correspondence_random_isometric_family():
    rng = np.random.default_rng(2)
    ins = [random_state(rng, 9) for _ in range(3)]
    rot = random_unitary(rng, 9)
    outs = [rot @ v for v in ins]
    w = _dense(unitary_from_correspondence(ins, outs, 9))
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
    w = _dense(unitary_from_correspondence(ins, outs, 3, gram_tol=1e-8))
    assert _unitarity_defect(w) < 1e-12


@st.composite
def gram_matched_families(draw):
    """Inputs and outputs with equal Gram matrices: N <= 6 unit vectors of rank r in C^dim.

    dim is N..max(N, 2r), where the rotation may fill the space, or 4r..30; the
    outputs are the inputs under a unitary that moves only the first few
    coordinates, so the two spans may share directions. With r >= 2 the first
    two inputs may be a near-parallel pair, |<a_0|a_1>| = 1 - eps with eps down
    to 2e-9, the band where a valid text's pair may sit.
    """
    n = draw(st.integers(1, 6))
    rank = draw(st.integers(1, n))
    dim = draw(st.integers(n, max(n, 2 * rank)) | st.integers(max(n, 4 * rank), 30))
    moved = draw(st.integers(1, dim))
    eps = draw(st.none() | st.floats(2e-9, 1e-7)) if rank >= 2 else None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    a = span @ (rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n)))
    a /= np.linalg.norm(a, axis=0)
    if eps is not None:
        # a_1 = phase (c a_0 + s u) with u a unit vector of the span orthogonal to a_0
        u = a[:, 1] - a[:, 0] * np.vdot(a[:, 0], a[:, 1])
        u /= np.linalg.norm(u)
        c = 1.0 - eps
        a[:, 1] = np.exp(1j * rng.uniform(0, 2 * np.pi)) * (c * a[:, 0] + np.sqrt(1.0 - c * c) * u)
    rot = np.eye(dim, dtype=complex)
    rot[:moved, :moved] = random_unitary(rng, moved)
    return list(a.T), list((rot @ a).T)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(gram_matched_families())
def test_correspondence_is_the_identity_plus_a_rotation_on_both_spans(families):
    ins, outs = families
    dim = ins[0].shape[0]
    factors = unitary_from_correspondence(ins, outs, dim)
    w = _dense(factors)
    assert max(np.linalg.norm(w @ a - b) for a, b in zip(ins, outs)) < 1e-10
    assert _unitarity_defect(w) < 1e-12
    # W x = x for every x orthogonal to both families
    u, sv, _ = np.linalg.svd(np.column_stack(ins + outs))
    outside = u[:, int(np.sum(sv > 1e-10 * sv[0])) :]
    assert np.max(np.abs(w @ outside - outside), initial=0.0) < 1e-12
    again = unitary_from_correspondence(ins, outs, dim)
    assert np.array_equal(factors.frame, again.frame) and np.array_equal(factors.block, again.block)
    # the factors act as their dense matrix, on one vector and on a column stack
    for x in (ins[0], np.column_stack(ins + outs), outside):
        assert np.linalg.norm(factors.apply(x) - w @ x) <= 1e-14 * np.linalg.norm(x)


@pytest.mark.parametrize("ins, outs", [([], []), ([], [np.eye(2)[0]]), ([np.eye(2)[0]], [])], ids=["both", "inputs", "outputs"])
def test_correspondence_of_an_empty_family_is_a_dimension_mismatch(ins, outs):
    # a text has at least one state, so an empty family is a caller's error, not the identity
    with pytest.raises(DimensionMismatch):
        unitary_from_correspondence(ins, outs, 2)


@pytest.mark.parametrize(
    "ins, outs",
    [
        ([np.ones(2), np.ones(3)], [np.ones(2), np.ones(3)]),
        ([np.eye(2)[0]], [np.ones(3) / np.sqrt(3)]),
        ([np.eye(2)], [np.eye(2)]),
        ([np.eye(2)[0], np.eye(2)], [np.eye(2)[0], np.eye(2)]),
        (np.eye(2)[0], np.eye(2)[0]),
        ([np.eye(2)[0]], [np.eye(2)[0], np.eye(2)[1]]),
    ],
    ids=["ragged", "wrong-length", "matrix-entry", "ragged-matrix-entry", "bare-vector", "sizes"],
)
def test_correspondence_of_malformed_families_is_a_dimension_mismatch(ins, outs):
    # a matrix entry is not read as its columns, and ragged families do not escape as a bare ValueError
    with pytest.raises(DimensionMismatch):
        unitary_from_correspondence(ins, outs, 2)


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
        assert np.linalg.norm(_dense(u) @ omega - np.kron(text.state(i), text.state(i))) < 1e-8


def test_build_procedure_uniform_central():
    cert = solve_real_uniform_central(3, 0.3)
    text = make_real_uniform(3, 0.3)
    u = build_procedure(text, cert)
    assert _dense(u).shape == (9, 9)
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
    identity = SpanUnitary(np.eye(4, dtype=complex)[:, :1], np.eye(1, dtype=complex))
    assert verify_procedure(identity, text, cert) > 0.1


def test_qubit_example_explicit_matrix():
    text, cert, procedure = qubit_example()
    s3 = np.sqrt(3.0) / 2.0
    explicit = np.array([[0.5, 0, 0, s3], [0, 1, 0, 0], [0, 0, 1, 0], [s3, 0, 0, -0.5]], dtype=complex)
    u = _dense(procedure)
    assert u.dtype == explicit.dtype and u.tobytes() == explicit.tobytes()
    assert _unitarity_defect(u) < 1e-12
    assert verify_procedure(procedure, text, cert) < 1e-10
    p = swap_operator(2)
    assert np.linalg.norm(u @ p - p @ u) < 1e-12
    assert abs(gram(text)[0, 1] - (np.sqrt(3) - 2)) < 1e-12


def _q_one_case(kind, seed):
    """A text and a certificate at Q = 1: a fixed example or a seeded search result."""
    if kind == "qubit-example":
        text, cert, _ = qubit_example()
        return text, cert
    if kind == "classical-pair":
        text = make_text(2, [[1, 0], [0, 1]])
        return text, certificate(text, EnscriptionParams.from_q(1.0, text.state(0), n_states=2))
    rng = np.random.default_rng(seed)
    if kind == "random-2-text":
        text = random_text(rng, 2, int(rng.integers(2, 5)))
    elif kind == "classical-3-text":
        text = random_classical_text(rng, 3, int(rng.integers(3, 5)))
    else:
        text = make_real_uniform(3, -0.2)
    result = feasibility_search(text, 1.0, SearchOptions(seed=seed))
    assert result.feasible
    return text, result.certificate


@pytest.mark.parametrize(
    "kind, seed",
    [("qubit-example", 0), ("classical-pair", 0), ("uniform-3-text", 0)]
    + [("random-2-text", seed) for seed in range(8)]
    + [("classical-3-text", seed) for seed in range(4)],
)
def test_procedure_commutes_with_swap_at_q_one(kind, seed):
    # at q = 1 the inputs and the clones are swap-symmetric, and so is their span
    text, cert = _q_one_case(kind, seed)
    assert abs(cert.params.Q - 1.0) < 1e-12
    u = build_procedure(text, cert)
    s, w = swap_operator(text.dimension), _dense(u)
    assert np.linalg.norm(w @ s - s @ w) < 1e-12
    assert verify_procedure(u, text, cert) < 1e-8


def test_procedures_are_deterministic():
    cert = solve_real_uniform_central(3, 0.3)
    text = make_real_uniform(3, 0.3)
    a = build_procedure(text, cert)
    b = build_procedure(text, cert)
    assert np.array_equal(a.frame, b.frame) and np.array_equal(a.block, b.block)


@st.composite
def closed_form_certificates(draw):
    """A text with a closed-form certificate: a random complex 2-text (d = 2..4), an
    equivalence image of a feasible real uniform N-text (N = 3..5), or a thin 2-text's
    certificate slid out of its dialect by the thin-extension lift."""
    kind = draw(st.sampled_from(["two-text", "uniform-image", "thin-lift"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "two-text":
        text = random_text(rng, 2, draw(st.integers(2, 4)))
        return text, solve_two_text(text)
    if kind == "uniform-image":
        n = draw(st.integers(3, 5))
        z = draw(st.floats(-1.0 / (n - 1), 0.9, exclude_min=True))
        assume(not q_range_real_uniform(n, z).empty)
        cert = solve_real_uniform_central(n, z)
        image, v, beta, perm = random_equivalence_image(rng, make_real_uniform(n, z))
        phases = [cert.params.phases[perm[i]] * np.conj(beta[i]) for i in range(n)]
        return image, certificate(image, EnscriptionParams.from_q(cert.params.q, v @ cert.params.tablet, phases=phases))
    d = draw(st.integers(3, 4))
    text = random_text(rng, 2, d)
    cert = solve_two_text(text)
    frame = np.linalg.svd(text.states)[0]
    direction = frame[:, 2:] @ (rng.standard_normal(d - 2) + 1j * rng.standard_normal(d - 2))
    t = draw(st.floats(max(abs(cert.params.Q), 1e-6), 1.0))
    return text, thin_extension_family(text, cert, t, direction)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(closed_form_certificates())
def test_every_procedure_is_unitary(case):
    text, cert = case
    assert cert.is_valid()
    u = build_procedure(text, cert)
    assert _unitarity_defect(_dense(u)) < 1e-10
    assert verify_procedure(u, text, cert) < 1e-8


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(closed_form_certificates(), st.integers(0, 2**32 - 1))
def test_built_procedure_is_covariant_under_equivalence(case, seed):
    # the image's inputs and clones are the text's, moved by V x V, relabeled and scaled
    # by the same beta_i, so the procedure moves to (V x V) U (V x V)^dag
    text, cert = case
    image, v, beta, perm = random_equivalence_image(np.random.default_rng(seed), text)
    phases = [cert.params.phases[perm[i]] * np.conj(beta[i]) for i in range(text.n_states)]
    moved = certificate(image, EnscriptionParams.from_q(cert.params.q, v @ cert.params.tablet, phases=phases))
    assert abs(moved.residual - cert.residual) < 1e-12
    vv = np.kron(v, v)
    u = build_procedure(text, cert)
    # (V x V) U (V x V)^dag = I + (V x V) F (M - I) ((V x V) F)^dag: only the frame F moves
    assert verify_procedure(SpanUnitary(vv @ u.frame, u.block), image, moved) < 1e-8
    expected = vv @ _dense(u) @ vv.conj().T
    # the unitary nearest the identity is unique unless some clone is orthogonal to every
    # input, as at Q = -1, where the inputs are antisymmetric and the clones symmetric, and
    # on an orthonormal text with the tablet on one of its states
    if cert.params.Q > -0.99 and texts.overlap_graph(text).any():
        assert np.max(np.abs(_dense(build_procedure(image, moved)) - expected)) < 1e-9


def _bench_size_cases():
    """The largest procedure-clone inputs: a central uniform 20-text and a rotated 2-text in C^20."""
    v, z = random_unitary(np.random.default_rng(7), 20), -0.15
    two = make_text(20, [v[:, 0], z * v[:, 0] + np.sqrt(1.0 - z * z) * v[:, 1]])
    return [(make_real_uniform(20, 0.3), solve_real_uniform_central(20, 0.3)), (two, solve_two_text(two))]


def _assert_tight(u, text, cert):
    """verify_procedure on the factors lies within rounding of the dense reference on their matrix."""
    ref = _dense_reference(_dense(u), text, cert)
    assert ref - 1e-13 <= verify_procedure(u, text, cert) <= ref + 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(closed_form_certificates(), st.integers(0, 2**32 - 1))
def test_verify_procedure_bounds_the_dense_defect(case, seed):
    # tight on build_procedure's unitaries, and never below the dense reference after a
    # perturbation of the block (M + 1e-6 E) or of the frame (a column scaled by 1 + 1e-6),
    # whose unitarity defect only the frame's orthonormality defect accounts for
    text, cert = case
    u = build_procedure(text, cert)
    _assert_tight(u, text, cert)
    rng = np.random.default_rng(seed)
    dim, k = u.frame.shape
    e = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    block_bump = e[:k, :k]
    scale = np.ones(k)
    scale[rng.integers(k)] += 1e-6
    for moved in (SpanUnitary(u.frame, u.block + 1e-6 * block_bump), SpanUnitary(u.frame * scale, u.block)):
        assert verify_procedure(moved, text, cert) >= _dense_reference(_dense(moved), text, cert) - 1e-13


@pytest.mark.parametrize("case", _bench_size_cases(), ids=["uniform-d20", "two-text-d20"])
def test_verify_procedure_is_tight_at_bench_size(case):
    text, cert = case
    _assert_tight(build_procedure(text, cert), text, cert)


def test_verify_procedure_accepts_factors_that_also_rotate_off_the_span():
    # the factors are the procedure: one that also rotates the complement of span(inputs, clones)
    # realizes the certificate, is unitary, and verifies
    text, cert = make_real_uniform(3, 0.3), solve_real_uniform_central(3, 0.3)
    u = build_procedure(text, cert)
    out = complete_orthonormal(u.frame)  # the frame spans the inputs and the clones
    rot = random_unitary(np.random.default_rng(8), out.shape[1])
    k = u.block.shape[0]
    block = np.block([[u.block, np.zeros((k, rot.shape[0]))], [np.zeros((rot.shape[0], k)), rot]])
    uw = SpanUnitary(np.column_stack([u.frame, out]), block)
    assert np.linalg.norm((_dense(uw) - _dense(u)) @ out) > 1.0
    assert _dense_reference(_dense(uw), text, cert) < 1e-13
    assert verify_procedure(uw, text, cert) < 1e-13


@pytest.mark.parametrize("route", ["gram", "qr"])
def test_build_procedure_logs_its_route_at_debug(caplog, monkeypatch, route):
    # one line on the enscribe logger names the route that built the frame, the ratio
    # lambda_min / lambda_max of the Gram matrix K that chose it, and the frame's column count
    monkeypatch.setattr(logging.getLogger("enscribe"), "propagate", True)
    if route == "gram":
        text, cert = make_real_uniform(3, 0.3), solve_real_uniform_central(3, 0.3)
    else:  # an orthonormal text with the tablet on a state: input 0 is parallel to clone 0
        text = make_text(3, np.eye(3))
        cert = certificate(text, EnscriptionParams.from_q(0.6, text.state(0), n_states=3))
    caplog.set_level(logging.NOTSET, logger="enscribe")
    build_procedure(text, cert)
    assert caplog.records == []
    caplog.set_level(logging.DEBUG, logger="enscribe")
    u = build_procedure(text, cert)
    (record,) = caplog.records
    assert record.name == "enscribe" and record.levelno == logging.DEBUG
    prefix, rest = record.getMessage().split(" route, lambda_min/lambda_max ")
    ratio, columns = rest.split(", ")
    assert prefix == f"unitary_from_correspondence: {route}"
    assert columns == f"{u.frame.shape[1]} frame columns"
    assert (float(ratio) > 1e-3) == (route == "gram")


def test_verify_procedure_logs_its_terms_at_debug(caplog, monkeypatch):
    # cli.main stops the enscribe logger from propagating to the root, where caplog listens
    monkeypatch.setattr(logging.getLogger("enscribe"), "propagate", True)
    text, cert = make_real_uniform(3, 0.3), solve_real_uniform_central(3, 0.3)
    u = build_procedure(text, cert)
    caplog.set_level(logging.NOTSET, logger="enscribe")
    verify_procedure(u, text, cert)
    assert caplog.records == []
    caplog.set_level(logging.DEBUG, logger="enscribe")
    verify_procedure(u, text, cert)
    (record,) = caplog.records
    assert record.name == "enscribe" and record.levelno == logging.DEBUG
    for term in ("action error", "span defect", "frame defect"):
        assert term in record.getMessage()


def _two_text_procedure():
    text = make_real_uniform(2, 0.5)
    return build_procedure(text, solve_two_text(text))


@pytest.mark.parametrize(
    "procedure",
    [np.eye(9), np.eye(4), np.ones((9, 4)), np.eye(3), _two_text_procedure(), SpanUnitary(np.eye(9)[:, :4], np.eye(3))],
    ids=["dense-right-size", "square-d2", "non-square", "d-by-d", "factored-d2", "factored-block"],
)
@pytest.mark.parametrize(
    "call",
    [verify_procedure, lambda u, text, cert: run_clone(text, cert, 0, procedure=u)],
    ids=["verify_procedure", "run_clone"],
)
def test_procedure_of_the_wrong_size_is_a_dimension_mismatch(procedure, call):
    # a procedure is a SpanUnitary on the doubled space C^3 (x) C^3 of the text; a dense
    # matrix, even of the right size, or factors of any other size are the caller's error
    text, cert = make_real_uniform(3, 0.3), solve_real_uniform_central(3, 0.3)
    with pytest.raises(DimensionMismatch, match="procedure"):
        call(procedure, text, cert)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1), st.sampled_from(["real", "complex", "unit"]))
def test_the_broadcast_families_keep_the_bits_of_each_state(n, d, seed, kind):
    # row i of each family is the vector the per-state formula gives, to the last bit, and
    # entangled_input is that formula as written out below
    rng = np.random.default_rng(seed)
    n = 1 if d == 1 else n  # C^1 holds no two non-colinear states
    text = random_text(rng, n, d)
    q = {"real": rng.uniform(-2.0, 2.0), "complex": complex(*rng.uniform(-2.0, 2.0, 2))}.get(kind)
    if kind == "unit":
        q = complex(*rng.standard_normal(2))
        q = -q / abs(q)
    params = EnscriptionParams.from_q(q, random_state(rng, d), phases=np.exp(2j * np.pi * rng.random(n)))
    inputs, clones = procedures._inputs_and_clones(text, params)
    assert inputs.shape == clones.shape == (n, d * d)
    # C-ordered, as stacked per-state vectors are: BLAS sums strided rows in another order
    assert inputs.flags.c_contiguous and clones.flags.c_contiguous
    q, tab = complex(params.q), params.tablet
    for i in range(n):
        psi = text.state(i)
        a = 1.0 + abs(q) ** 2 + 2.0 * q.real * abs(np.vdot(psi, tab)) ** 2
        literal = (np.outer(psi, tab).ravel() + q * np.outer(tab, psi).ravel()) / np.sqrt(a)
        assert inputs[i].tobytes() == entangled_input(text, i, q, tab).tobytes() == literal.tobytes()
        assert clones[i].tobytes() == (params.phases[i] * np.outer(psi, psi).ravel()).tobytes()


def _misfits():
    """A text with a valid certificate of a text of another shape: fewer states, more states, another dimension."""
    rng = np.random.default_rng(12)
    two, wide = random_text(rng, 2, 3), random_text(rng, 2, 4)
    return {
        "fewer-states": (make_real_uniform(3, 0.3), solve_two_text(two)),
        "more-states": (two, solve_real_uniform_central(3, 0.3)),
        "other-dimension": (wide, solve_two_text(two)),
    }


def _identity(text):
    return SpanUnitary(np.eye(text.dimension ** 2, dtype=complex)[:, :1], np.eye(1, dtype=complex))


@pytest.mark.parametrize("misfit", ["fewer-states", "more-states", "other-dimension"])
@pytest.mark.parametrize(
    "call",
    [
        build_procedure,
        lambda text, cert: verify_procedure(_identity(text), text, cert),
        lambda text, cert: run_clone(text, cert, 0, procedure=_identity(text)),
        lambda text, cert: failure_state_symmetry_check(text, cert, 0),
    ],
    ids=["build_procedure", "verify_procedure", "run_clone", "failure_state_symmetry_check"],
)
def test_a_certificate_of_another_shape_is_an_invalid_certificate(call, misfit):
    # one shape check runs first, so no entry point returns a result for the wrong states or raises a
    # broadcast error
    text, cert = _misfits()[misfit]
    assert cert.is_valid()
    with pytest.raises(InvalidCertificate, match="does not fit a text of"):
        call(text, cert)
