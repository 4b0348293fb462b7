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
    swap_operator,
)
from enscribe import certificates, entangled_input, input_normalizer, linalg, machine, procedures, solve_real_uniform_central
from enscribe.errors import ComplexQ, DimensionMismatch, InvalidCertificate, QOutOfRange, QZero, ZOutOfRange

from helpers import random_classical_text, random_state, random_text, random_unitary


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q", [float("nan"), float("inf"), complex(0.0, float("inf"))], ids=["nan", "inf", "inf-j"])
def test_ancilla_rejects_non_finite_q(q):
    # as EnscriptionParams does: no NaN pointer state and no numpy warning
    with pytest.raises(QOutOfRange):
        ancilla_states(q)
    with pytest.raises(QOutOfRange):
        EnscriptionParams.from_q(q, [1.0, 0.0], n_states=1)


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
    split = machine._split(text, params, 0)
    assert abs(split.prob - 1.0) < 1e-12
    assert split.omega_fail is None


NEAR_CERTAIN_SUCCESS = [
    (q, eps) for q in (0.5, 1.0, -0.7, 0.3 + 0.4j, 1e-4) for eps in (1e-5, 3e-6, 1e-6, 1e-7, 1e-8, 1e-9)
] + [(1e-6, 1e-4), (1e-8, 1e-4)]


@pytest.mark.parametrize("q, eps", NEAR_CERTAIN_SUCCESS)
def test_machine_runs_on_valid_certificates_near_certain_success(q, eps):
    # the tablet leans eps off state 0, so the failure input of state 0 has normalizer 2 - 2 Re(q/|q|) cos^2 eps:
    # for real q > 0 and eps <= 1e-5 it is at most 2e-10, below DEGENERATE_TOL, while 1 - p_0 is up to 1e-10;
    # at eps = 1e-4 it is 2e-8 and stays, while 1 - p_0 = |q| 2e-8 / (1 + |q|)^2 sinks to the rounding of p_0
    text = make_text(4, np.eye(4)[:3])
    cert = certificate(text, EnscriptionParams.from_q(q, [np.cos(eps), 0.0, 0.0, np.sin(eps)], n_states=3))
    assert cert.residual == 0.0
    u = build_procedure(text, cert)
    for i in range(3):
        outcome = run_clone(text, cert, i, procedure=u)
        assert abs(outcome.fidelity - 1.0) < 1e-12
        assert (outcome.failure_state is None) == (i == 0 and eps < 1e-4 and q in (0.5, 1.0, 1e-4))
        if complex(q).imag:
            with pytest.raises(ComplexQ):
                failure_state_symmetry_check(text, cert, i)
            continue
        report = failure_state_symmetry_check(text, cert, i)
        assert report.parity_ok
        assert (report.expected_parity is None) == (outcome.failure_state is None)


def test_success_probability_orthogonal_tablet():
    text = make_text(3, [[1, 0, 0], [0, 1, 0]])
    tablet = np.array([0.0, 0.0, 1.0])
    for q in (1.0, 0.5, -0.4):
        params = EnscriptionParams.from_q(q, tablet, n_states=2)
        p = machine._split(text, params, 0).prob
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
        p = machine._split(text, params, i).prob
        ov = abs(np.vdot(text.state(i), params.tablet)) ** 2
        assert abs(p - (1.0 + params.Q * ov) / (1.0 + abs(params.Q))) < 1e-12


def test_success_probability_disagreeing_forms_raise(monkeypatch):
    # a typed error, not an assert, so the check survives python -O; both machine entry points reach it
    text, cert, u = qubit_example()
    monkeypatch.setattr(machine, "_normalizer", lambda *args: 0.1)
    with pytest.raises(InvalidCertificate, match="real-q probability forms disagree for state 1"):
        run_clone(text, cert, 1, procedure=u)
    with pytest.raises(InvalidCertificate, match="real-q probability forms disagree for state 1"):
        failure_state_symmetry_check(text, cert, 1)


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
        lambda text, cert, i: failure_state_symmetry_check(text, cert, i),
        lambda text, cert, i: machine.real_q_success_probability(text, cert.params, i),
        lambda text, cert, i: input_normalizer(text, i, cert.params.q, cert.params.tablet),
    ],
    ids=["run_clone", "failure_state_symmetry_check", "real_q_success_probability", "input_normalizer"],
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


# The machine as it formed every product and normalizer once per use: entangled_input twice per
# state and the normalizer a third time inside success_probability. It is the oracle the shared
# formula must match bit for bit.
def _oracle_normalizer(text, i, q, tablet):
    q = complex(q)
    ov = np.vdot(text.state(i), tablet)
    return 1.0 + abs(q) ** 2 + 2.0 * q.real * abs(ov) ** 2


def _oracle_entangled_input(text, i, q, tablet):
    tab = np.asarray(tablet, dtype=complex).reshape(-1)
    a = _oracle_normalizer(text, i, q, tab)
    psi = text.state(i)
    return (np.outer(psi, tab).ravel() + complex(q) * np.outer(tab, psi).ravel()) / np.sqrt(a)


def _oracle_success_probability(text, params, i):
    q = complex(params.q)
    a = _oracle_normalizer(text, i, q, params.tablet)
    p = a / (1.0 + abs(q)) ** 2
    p_real = machine.real_q_success_probability(text, params, i)
    if p_real is not None and not abs(p - p_real) < 1e-10:
        raise InvalidCertificate("real-q probability forms disagree")
    return float(p)


def _oracle_run_clone(text, cert, i, procedure):
    p = cert.params
    q = complex(p.q)
    d = text.dimension
    anc = ancilla_states(q)
    product = np.outer(text.state(i), p.tablet).ravel()
    out = np.concatenate([anc.xi[0] * product, anc.xi[1] * linalg.swap_factors(product, d)])
    prob = _oracle_success_probability(text, p, i)
    omega_q = _oracle_entangled_input(text, i, q, p.tablet)
    success_state = np.outer(anc.eta, omega_q).ravel()
    failure_state = None
    recon = np.sqrt(prob) * success_state
    if 1.0 - prob > 1e-12:
        omega_fail = _oracle_entangled_input(text, i, -q / abs(q), p.tablet)
        failure_state = np.outer(anc.chi, omega_fail).ravel()
        recon = recon + np.sqrt(1.0 - prob) * failure_state
    assert np.linalg.norm(out - recon) <= 1e-10
    final_clone = procedures.apply_procedure(procedure, omega_q)
    target = np.outer(text.state(i), text.state(i)).ravel()
    fidelity = float(abs(np.vdot(target, final_clone)))
    return machine.CloneOutcome(i, prob, success_state, failure_state, final_clone, fidelity)


def _oracle_failure_state_symmetry_check(text, cert, i):
    if machine.real_q_success_probability(text, cert.params, i) is None:
        raise ComplexQ("failure-state parity is only defined for real q")
    q = complex(cert.params.q)
    prob = _oracle_success_probability(text, cert.params, i)
    if 1.0 - prob <= 1e-12:
        return machine.FailureSymmetryReport(expected_parity=None, parity_ok=True, deviation=0.0)
    omega_fail = _oracle_entangled_input(text, i, -q / abs(q), cert.params.tablet)
    parity = 1 if cert.params.Q < 0 else -1
    swapped = linalg.swap_factors(omega_fail, text.dimension)
    deviation = float(np.linalg.norm(swapped - parity * omega_fail))
    return machine.FailureSymmetryReport(expected_parity=parity, parity_ok=deviation < 1e-10, deviation=deviation)


def _same_bits(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    return type(a) is type(b) and a == b


def _two_text(d, z, seed):
    v = random_unitary(np.random.default_rng(seed), d)
    return make_text(d, [v[:, 0], z * v[:, 0] + np.sqrt(1.0 - z * z) * v[:, 1]])


def _machine_case(kind):
    if kind.startswith("uniform"):  # central, z > 0: Q < 0
        d, z = {"uniform-d3": (3, 0.3), "uniform-d8": (8, 0.2), "uniform-d20": (20, 0.1)}[kind]
        return make_real_uniform(d, z), solve_real_uniform_central(d, z)
    if kind.startswith("two"):  # closed form, z < 0: Q > 0
        d, z = {"two-d2": (2, -0.4), "two-d16": (16, -0.2)}[kind]
        text = _two_text(d, z, 5)
        return text, solve_two_text(text)
    if kind == "certain":  # tablet on state 0 of an orthonormal text, Q > 0: p_0 = 1 and no failure state
        text = make_text(3, np.eye(3))
        return text, certificate(text, EnscriptionParams.from_q(0.6, text.state(0), n_states=3))
    if kind == "complex-q":
        text = make_text(2, np.eye(2))
        return text, certificate(text, EnscriptionParams.from_q(0.5 + 0.5j, text.state(0), n_states=2))
    return qubit_example()[:2]


MACHINE_CASES = ["uniform-d3", "uniform-d8", "uniform-d20", "two-d2", "two-d16", "certain", "complex-q", "qubit"]


@pytest.mark.parametrize("kind", MACHINE_CASES)
def test_machine_keeps_the_bits_of_the_per_use_oracle(kind):
    text, cert = _machine_case(kind)
    assert cert.is_valid()
    u = build_procedure(text, cert)
    certain = 0
    for i in range(text.n_states):
        new, old = run_clone(text, cert, i, procedure=u), _oracle_run_clone(text, cert, i, u)
        for field in ("index", "p_success", "success_state", "failure_state", "final_clone", "fidelity"):
            assert _same_bits(getattr(new, field), getattr(old, field)), field
        certain += new.failure_state is None
        if kind == "complex-q":
            for check in (failure_state_symmetry_check, _oracle_failure_state_symmetry_check):
                with pytest.raises(ComplexQ):
                    check(text, cert, i)
            continue
        new, old = failure_state_symmetry_check(text, cert, i), _oracle_failure_state_symmetry_check(text, cert, i)
        assert (new.expected_parity, new.parity_ok) == (old.expected_parity, old.parity_ok)
        assert _same_bits(new.deviation, old.deviation)
    assert certain == (kind == "certain")


def test_run_clone_forms_at_most_two_normalizers_per_state(monkeypatch):
    text, cert = _machine_case("uniform-d8")
    u = build_procedure(text, cert)
    calls = []

    def counting(function):
        def wrapped(*args):
            calls.append(function.__name__)
            return function(*args)
        return wrapped

    # every way the machine reaches A: the public normalizer and the shared form
    monkeypatch.setattr(certificates, "input_normalizer", counting(certificates.input_normalizer))
    monkeypatch.setattr(machine, "_normalizer", counting(machine._normalizer))
    for i in range(text.n_states):
        assert run_clone(text, cert, i, procedure=u).failure_state is not None
    assert len(calls) <= 2 * text.n_states


def test_a_procedure_forms_its_adjoint_frame_once(monkeypatch):
    text, cert = _machine_case("uniform-d8")
    u = build_procedure(text, cert)
    calls = []
    dagger = linalg.dagger
    monkeypatch.setattr(linalg, "dagger", lambda m: calls.append(m.shape) or dagger(m))
    omega = entangled_input(text, 0, cert.params.q, cert.params.tablet)
    for _ in range(20):
        u.apply(omega)
    assert calls == [u.frame.shape]
