import numpy as np
import pytest

from enscribe import (
    EnscriptionParams,
    ancilla_states,
    build_procedure,
    certificate,
    controlled_swap,
    duan_guo_saturation,
    failure_state_symmetry_check,
    make_real_uniform,
    make_text,
    qubit_example,
    run_clone,
    solve_two_text,
    success_probability,
    swap_operator,
)
from enscribe import input_normalizer, machine
from enscribe.errors import ComplexQ, DimensionMismatch, InvalidCertificate, QZero, ZOutOfRange

from helpers import random_classical_text, random_state, random_text


def test_ancilla_pointer_states_orthogonal():
    for q in (0.3, -0.7, 1.0, 0.2 + 0.9j):
        anc = ancilla_states(q)
        assert abs(np.vdot(anc.eta, anc.chi)) < 1e-12
        for v in (anc.xi, anc.eta, anc.chi):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_ancilla_preparation_balanced_at_unit_modulus():
    q = np.exp(0.4j)
    anc = ancilla_states(q)
    expected = np.array([1.0, q]) / np.sqrt(2)
    assert np.linalg.norm(anc.xi - expected) < 1e-12


def test_ancilla_rejects_zero():
    with pytest.raises(QZero):
        ancilla_states(0.0)


def test_controlled_swap_dimension_one():
    assert np.allclose(controlled_swap(1), np.eye(2))


def test_controlled_swap_basis_action():
    s = controlled_swap(2)
    for a in range(2):
        for i in range(2):
            for j in range(2):
                e = np.zeros(8)
                e[a * 4 + i * 2 + j] = 1.0
                out = s @ e
                target = np.zeros(8)
                if a == 0:
                    target[i * 2 + j] = 1.0
                else:
                    target[4 + j * 2 + i] = 1.0
                assert np.allclose(out, target)


def test_controlled_swap_involution():
    s = controlled_swap(3)
    assert np.linalg.norm(s @ s - np.eye(18)) < 1e-12
    assert np.linalg.norm(s - s.conj().T) < 1e-12


def test_success_probability_colinear_tablet_is_certain():
    text = make_text(2, [[1, 0], [0, 1]])
    params = EnscriptionParams.from_q(1.0, text.state(0), n_states=2)
    assert abs(success_probability(text, params, 0) - 1.0) < 1e-12


def test_success_probability_orthogonal_tablet():
    text = make_text(3, [[1, 0, 0], [0, 1, 0]])
    tablet = np.array([0.0, 0.0, 1.0])
    for q in (1.0, 0.5, -0.4):
        params = EnscriptionParams.from_q(q, tablet, n_states=2)
        p = success_probability(text, params, 0)
        assert abs(p - 1.0 / (1.0 + abs(params.Q))) < 1e-12


def test_success_probability_formulas_agree_randomized():
    rng = np.random.default_rng(30)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(n, n + 3))
        text = random_text(rng, n, d)
        q = float(rng.choice([-1, 1]) * rng.uniform(0.05, 1.0))
        params = EnscriptionParams.from_q(q, random_state(rng, d), n_states=n)
        i = int(rng.integers(n))
        p = success_probability(text, params, i)
        ov = abs(np.vdot(text.state(i), params.tablet)) ** 2
        assert abs(p - (1.0 + params.Q * ov) / (1.0 + abs(params.Q))) < 1e-12


def test_success_probability_disagreeing_forms_raise(monkeypatch):
    # a typed error, not an assert, so the check survives python -O
    text = make_real_uniform(2, 0.5)
    params = EnscriptionParams.from_q(0.5, text.state(0), n_states=2)
    monkeypatch.setattr(machine, "input_normalizer", lambda *args: 0.1)
    with pytest.raises(InvalidCertificate):
        success_probability(text, params, 1)


def test_run_clone_qubit_example_probability_and_fidelity():
    text, cert, u = qubit_example()
    for i in range(2):
        outcome = run_clone(text, cert, i, procedure=u)
        a = 2.0 + 2.0 * abs(np.vdot(text.state(i), cert.params.tablet)) ** 2
        assert abs(outcome.p_success - a / 4.0) < 1e-12
        ov = abs(np.vdot(text.state(i), cert.params.tablet)) ** 2
        p_real = (1.0 + cert.params.Q * ov) / (1.0 + abs(cert.params.Q))
        assert abs(outcome.p_success - p_real) < 1e-12
        assert abs(outcome.fidelity - 1.0) < 1e-8


def test_run_clone_norm_and_decomposition():
    # the controlled-swap output stays normalized and splits onto the pointers
    text = make_real_uniform(2, -0.4)
    cert = solve_two_text(text)
    u = build_procedure(text, cert)
    for i in range(2):
        outcome = run_clone(text, cert, i, procedure=u)
        assert outcome.failure_state is not None
        total = (
            np.sqrt(outcome.p_success) * outcome.success_state
            + np.sqrt(1 - outcome.p_success) * outcome.failure_state
        )
        assert abs(np.linalg.norm(total) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "call",
    [
        lambda text, cert, i: run_clone(text, cert, i, procedure=build_procedure(text, cert)),
        lambda text, cert, i: success_probability(text, cert.params, i),
        lambda text, cert, i: failure_state_symmetry_check(text, cert, i),
        lambda text, cert, i: machine.real_q_success_probability(text, cert.params, i),
        lambda text, cert, i: input_normalizer(text, i, cert.params.q, cert.params.tablet),
    ],
    ids=["run_clone", "success_probability", "failure_state_symmetry_check", "real_q_success_probability",
         "input_normalizer"],
)
@pytest.mark.parametrize("i", [2, -1])
def test_state_index_out_of_range_raises_dimension_mismatch(call, i):
    # QuantumText.state owns the bounds check; -1 would silently pick the last state
    text = make_real_uniform(2, -0.4)
    cert = solve_two_text(text)
    with pytest.raises(DimensionMismatch, match="state index"):
        call(text, cert, i)


def test_run_clone_rejects_zero_deformation():
    text = make_text(2, [[1, 0], [0, 1]])
    params = EnscriptionParams.from_q(0.0, text.state(0), n_states=2)
    cert = certificate(text, params)
    u = build_procedure(text, cert)
    with pytest.raises(QZero):
        run_clone(text, cert, 0, procedure=u)


def test_failure_symmetry_positive_q_is_antisymmetric():
    text, cert, u = qubit_example()
    swap = swap_operator(2)
    for i in range(2):
        report = failure_state_symmetry_check(text, cert, i)
        assert report.expected_parity == -1
        assert report.parity_ok
        # dense oracle: the failure branch really flips under the swap
        outcome = run_clone(text, cert, i, procedure=u)
        fail = outcome.failure_state.reshape(2, 4)[:, :]
        # strip the ancilla factor before applying the register swap
        anc = ancilla_states(cert.params.q)
        omega_fail = anc.chi.conj() @ fail
        assert np.linalg.norm(swap @ omega_fail + omega_fail) < 1e-10


def test_failure_symmetry_negative_q_is_symmetric():
    rng = np.random.default_rng(8)
    text = random_classical_text(rng, 2, 2)
    params = EnscriptionParams.from_Q(-0.8, text.state(0), n_states=2)
    cert = certificate(text, params)
    assert cert.params.q.real < 0
    report = failure_state_symmetry_check(text, cert, 0)
    assert report.expected_parity == 1
    assert report.parity_ok


def test_failure_state_orthogonal_tablet_explicit_form():
    text = make_text(3, [[1, 0, 0], [0, 1, 0]])
    tablet = np.array([0.0, 0.0, 1.0])
    params = EnscriptionParams.from_q(1.0, tablet, n_states=2)
    cert = certificate(text, params)
    outcome = run_clone(text, cert, 0, procedure=build_procedure(text, cert))
    expected = (np.kron(text.state(0), tablet) - np.kron(tablet, text.state(0))) / np.sqrt(2)
    anc = ancilla_states(1.0)
    assert np.linalg.norm(outcome.failure_state - np.kron(anc.chi, expected)) < 1e-10


def test_failure_symmetry_rejects_complex_q():
    text = make_text(2, [[1, 0], [0, 1]])
    params = EnscriptionParams.from_q(0.5j, text.state(0), n_states=2)
    cert = certificate(text, params)
    with pytest.raises(ComplexQ):
        failure_state_symmetry_check(text, cert, 0)


def test_real_q_rule_is_one_line_at_1e_12():
    # |Im q| = 1e-12 exactly: complex for the probability form, so complex for the parity too
    text = make_text(2, [[1, 0], [0, 1]])
    cert = certificate(text, EnscriptionParams.from_q(0.5 + 1e-12j, text.state(0), n_states=2))
    assert cert.params.q.imag == 1e-12
    assert machine.real_q_success_probability(text, cert.params, 0) is None
    with pytest.raises(ComplexQ):
        failure_state_symmetry_check(text, cert, 0)


def test_duan_guo_saturation_half_overlap():
    rep = duan_guo_saturation(-0.5)
    assert rep.saturated
    for p in rep.probabilities:
        assert abs(p - 2.0 / 3.0) < 1e-10


def test_duan_guo_saturation_qubit_overlap():
    z = -(2.0 - np.sqrt(3.0))
    rep = duan_guo_saturation(z)
    assert rep.saturated
    assert abs(rep.bound - 1.0 / (3.0 - np.sqrt(3.0))) < 1e-12


def test_duan_guo_range_check():
    with pytest.raises(ZOutOfRange):
        duan_guo_saturation(0.2)


def test_measurement_observable_spectrum():
    # projector (x) identity: eigenvalues are exactly {0, 1}
    anc = ancilla_states(0.7)
    proj = np.outer(anc.eta, anc.eta.conj())
    obs = np.kron(proj, np.eye(4))
    eigs = np.linalg.eigvalsh(obs)
    assert np.all((np.abs(eigs) < 1e-12) | (np.abs(eigs - 1.0) < 1e-12))
