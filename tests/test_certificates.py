import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enscribe import (
    EnscriptionParams,
    canonical_q,
    certificate,
    enscription_residual,
    entangled_input,
    gram,
    input_normalizer,
    make_real_uniform,
    make_text,
    q_to_Q,
    residual_via_states,
    tablet_flavor,
)
from enscribe.certificates import entangled_inputs
from enscribe.engine import q_minus_one_dependence_check
from enscribe.errors import DegenerateNormalizer, DimensionMismatch, EnscribeError, QOutOfRange
from enscribe.verification import random_equivalence_image

from helpers import random_classical_text, random_state, random_text


def test_q_to_Q_known_values():
    assert q_to_Q(1j) == 0.0
    assert q_to_Q(1.0) == 1.0
    assert q_to_Q(-1.0) == -1.0
    assert abs(q_to_Q(0.5) - 0.8) < 1e-15


def test_canonical_q_round_trip():
    for big_q in np.linspace(-1.0, 1.0, 41):
        q = canonical_q(float(big_q))
        assert abs(q_to_Q(q) - big_q) < 1e-12
        assert abs(q) <= 1.0


def test_canonical_q_known_value():
    assert abs(canonical_q(0.8) - 0.5) < 1e-15


def test_canonical_q_out_of_range():
    with pytest.raises(QOutOfRange):
        canonical_q(1.5)


def test_entangled_input_zero_deformation_is_product():
    rng = np.random.default_rng(1)
    text = random_text(rng, 2, 3)
    tab = random_state(rng, 3)
    vec = entangled_input(text, 0, 0.0, tab)
    assert np.allclose(vec, np.kron(text.state(0), tab), atol=1e-12)


def test_entangled_input_symmetric_colinear_case():
    text = make_text(2, [[1, 0], [0, 1]])
    vec = entangled_input(text, 0, 1.0, text.state(0))
    # normalizer is 4, so the sum of two equal products halves
    assert np.allclose(vec, np.kron(text.state(0), text.state(0)), atol=1e-12)


def test_entangled_input_matches_dense_kron_oracle():
    rng = np.random.default_rng(9)
    text = random_text(rng, 2, 4)
    psi = text.state(1)
    tab = random_state(rng, 4)
    tab -= psi * np.vdot(psi, tab)
    tab /= np.linalg.norm(tab)
    q = 1j
    vec = entangled_input(text, 1, q, tab)
    direct = (np.kron(psi, tab) + q * np.kron(tab, psi)) / np.sqrt(input_normalizer(text, 1, q, tab))
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    assert np.array_equal(vec, direct)


def test_entangled_input_unit_norm_random():
    rng = np.random.default_rng(14)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        text = random_text(rng, 2, d)
        tab = random_state(rng, d)
        q = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        vec = entangled_input(text, 0, q, tab)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_entangled_input_degenerate_normalizer():
    text = make_text(2, [[1, 0], [0, 1]])
    with pytest.raises(DegenerateNormalizer):
        entangled_input(text, 0, -1.0, text.state(0))


def test_residual_classical_state_tablet_any_q():
    rng = np.random.default_rng(3)
    text = random_classical_text(rng, 3, 3)
    for big_q in (-0.9, -0.3, 0.0, 0.4, 1.0):
        params = EnscriptionParams.from_Q(big_q, text.state(0), n_states=3)
        assert enscription_residual(text, params) < 1e-12


def test_residual_qubit_text_deformation_one():
    z = np.sqrt(3.0) - 2.0
    ap, am = np.sqrt((1 + z) / 2), np.sqrt((1 - z) / 2)
    text = make_text(2, [[ap, am], [ap, -am]])
    params = EnscriptionParams.from_q(1.0, [1.0, 0.0], n_states=2)
    assert enscription_residual(text, params) < 1e-10


def test_residual_positive_for_nonclassical_at_zero():
    text = make_real_uniform(3, 0.4)
    rng = np.random.default_rng(6)
    for _ in range(50):
        params = EnscriptionParams.from_Q(0.0, random_state(rng, 3), n_states=3)
        assert enscription_residual(text, params) > 1e-3


def test_residual_zero_deformation_classical_any_tablet():
    rng = np.random.default_rng(12)
    text = random_classical_text(rng, 3, 4)
    for _ in range(20):
        q = 1j * rng.uniform(0.1, 2.0)
        params = EnscriptionParams.from_q(q, random_state(rng, 4), n_states=3)
        assert enscription_residual(text, params) < 1e-12


def test_residual_routes_agree_on_random_draws():
    rng = np.random.default_rng(20)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(n, n + 3))
        text = random_text(rng, n, d)
        q = complex(rng.uniform(-1.3, 1.3), rng.uniform(-1.3, 1.3))
        params = EnscriptionParams.from_q(
            q, random_state(rng, d), phases=np.exp(2j * np.pi * rng.random(n))
        )
        a = enscription_residual(text, params)
        b = residual_via_states(text, params)
        assert abs(a - b) < 1e-10


def test_residual_shrinks_on_subtexts():
    rng = np.random.default_rng(25)
    text = random_text(rng, 4, 4)
    tab = random_state(rng, 4)
    params = EnscriptionParams.from_Q(0.5, tab, n_states=4)
    full = enscription_residual(text, params)
    sub = text.subtext((0, 2, 3))
    sub_params = EnscriptionParams.from_Q(0.5, tab, phases=params.phases[[0, 2, 3]])
    assert enscription_residual(sub, sub_params) <= full + 1e-15


def test_params_validation():
    with pytest.raises(QOutOfRange):
        EnscriptionParams(q=0.5, Q=0.5, tablet=np.array([1.0, 0]), phases=np.ones(2))
    with pytest.raises(Exception):
        EnscriptionParams.from_q(0.5, [1.0, 1.0], phases=np.ones(2))  # non-unit tablet
    with pytest.raises(Exception):
        EnscriptionParams.from_q(0.5, [1.0, 0.0], phases=np.array([1.0, 0.5]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "q, tablet, phases, error",
    [
        (float("nan"), [1.0, 0.0], [1.0, 1.0], QOutOfRange),
        (complex(float("inf"), 0.0), [1.0, 0.0], [1.0, 1.0], QOutOfRange),
        (0.5, [float("nan"), 0.0], [1.0, 1.0], DimensionMismatch),
        (0.5, [1.0, 0.0], [1.0, float("nan")], DimensionMismatch),
    ],
    ids=["nan-q", "infinite-q", "nan-tablet", "nan-phase"],
)
def test_params_reject_non_finite_values(q, tablet, phases, error):
    # every comparison with NaN is False, so a check of the form abs(...) > tol let these through
    with pytest.raises(error):
        EnscriptionParams.from_q(q, tablet, phases=phases)


def test_tablet_flavors():
    text = make_real_uniform(3, 0.4)
    assert tablet_flavor(text, np.ones(3) / np.sqrt(3)) == "central"
    rng = np.random.default_rng(7)
    assert tablet_flavor(text, random_state(rng, 3)) == "generic"
    # equal moduli but phase-twisted overlaps
    g = gram(text)
    weights = np.linalg.solve(g, np.exp(1j * np.array([0.0, 2.1, 4.0])))
    tab = text.states @ weights
    tab /= np.linalg.norm(tab)
    assert tablet_flavor(text, tab) == "weakly_central"
    # one distinct overlap
    weights = np.linalg.solve(g, np.array([0.9, 0.3, 0.3]))
    tab = text.states @ weights
    tab /= np.linalg.norm(tab)
    assert tablet_flavor(text, tab) == "quasi_central"


def test_certificate_bundles_residual_and_flavor():
    text = make_real_uniform(2, 0.5)
    tablet = text.state(0) + text.state(1)
    tablet /= np.linalg.norm(tablet)
    params = EnscriptionParams.from_Q(-4.0 / 9.0, tablet, n_states=2)
    cert = certificate(text, params)
    assert cert.flavor == "central"
    assert cert.residual < 1e-10
    assert cert.is_valid()


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    st.integers(2, 4),
    st.integers(0, 2),
    st.integers(0, 2**32 - 1),
    st.floats(-0.999, 0.999),
    st.floats(0.0, 1.0),
    st.booleans(),
)
def test_residual_depends_on_q_only_through_big_q(n, extra, seed, big_q, u, flip):
    rng = np.random.default_rng(seed)
    d = n + extra
    text = random_text(rng, n, d)
    tablet = random_state(rng, d)
    phases = np.exp(2j * np.pi * rng.random(n))
    real = EnscriptionParams.from_Q(big_q, tablet, phases=phases)
    # a complex q = rho e^{i phi} with 2 rho cos(phi) / (1 + rho^2) = Q, for
    # rho between |canonical_q(Q)| and 1
    rho = abs(real.q) + u * (1.0 - abs(real.q))
    phi = np.arccos(np.clip(big_q * (1.0 + rho**2) / (2.0 * rho), -1.0, 1.0)) if rho > 0 else 0.0
    other = EnscriptionParams.from_q(rho * np.exp(1j * (-phi if flip else phi)), tablet, phases=phases)
    assert abs(other.Q - big_q) < 1e-12
    via_real, via_other = residual_via_states(text, real), residual_via_states(text, other)
    assert abs(via_real - via_other) < 1e-12
    assert abs(via_real - enscription_residual(text, real)) < 1e-12
    assert abs(via_other - enscription_residual(text, other)) < 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(2, 4), st.integers(0, 2), st.integers(0, 2**32 - 1), st.floats(-1.0, 1.0))
def test_residual_is_covariant_under_equivalence(n, extra, seed, big_q):
    # states beta_i V psi_perm(i), tablet V t and phases alpha_perm(i) conj(beta_i) scale
    # each pair mismatch by a unit factor, for any parameters, valid or not
    rng = np.random.default_rng(seed)
    d = n + extra
    text = random_text(rng, n, d)
    params = EnscriptionParams.from_Q(big_q, random_state(rng, d), phases=np.exp(2j * np.pi * rng.random(n)))
    image, v, beta, perm = random_equivalence_image(rng, text)
    phases = [params.phases[perm[i]] * np.conj(beta[i]) for i in range(n)]
    moved = EnscriptionParams.from_q(params.q, v @ params.tablet, phases=phases)
    assert abs(enscription_residual(image, moved) - enscription_residual(text, params)) < 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(1, 20), st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(-1e-10, 1e-10))
def test_rebuilding_a_text_or_parameters_keeps_their_bits(d, n, seed, stretch):
    # normalization is idempotent, so an object built from its own vectors is the same object;
    # stretch puts the raw vectors slightly off the unit sphere, as a computed vector often is
    rng = np.random.default_rng(seed)
    n = min(n, d)
    raw = [random_state(rng, d) * (1.0 + stretch) for _ in range(n)]
    try:
        text = make_text(d, raw)
    except EnscribeError:  # a colinear draw
        return
    assert make_text(d, list(text.states.T)).states.tobytes() == text.states.tobytes()
    phases = np.exp(2j * np.pi * rng.random(n)) * (1.0 + stretch)
    p = EnscriptionParams.from_q(complex(*rng.standard_normal(2)), random_state(rng, d) * (1.0 + stretch), phases)
    again = EnscriptionParams.from_q(p.q, p.tablet, p.phases)
    assert (again.q, again.Q) == (p.q, p.Q)
    assert (again.tablet.tobytes(), again.phases.tobytes()) == (p.tablet.tobytes(), p.phases.tobytes())


def _residual_via_states_per_state(text, params):
    """residual_via_states as it was, with the inputs built one state at a time."""
    n = text.n_states
    omegas = [entangled_input(text, i, params.q, params.tablet) for i in range(n)]
    g = gram(text)
    ov = text.states.conj().T @ params.tablet
    b = np.clip(1.0 + params.Q * np.abs(ov) ** 2, 0.0, None)
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            mism = np.vdot(omegas[i], omegas[j]) - np.conj(params.phases[i]) * params.phases[j] * g[i, j] ** 2
            worst = max(worst, abs(mism) * np.sqrt(b[i] * b[j]))
    return float(worst)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(2, 6), st.integers(0, 3), st.integers(0, 2**32 - 1), st.floats(-0.999, 0.999))
def test_residual_via_states_keeps_its_bits(n, extra, seed, big_q):
    rng = np.random.default_rng(seed)
    text = random_text(rng, n, n + extra)
    params = EnscriptionParams.from_Q(big_q, random_state(rng, n + extra), phases=np.exp(2j * np.pi * rng.random(n)))
    assert residual_via_states(text, params) == _residual_via_states_per_state(text, params)


@pytest.mark.parametrize("route", ["entangled_inputs", "residual_via_states", "q_minus_one_dependence_check"])
def test_the_first_degenerate_state_is_named(route):
    # at q = -1 the input of the state the tablet lies on vanishes; here that is state 1 of 3
    text = make_text(3, [[1, 0, 0], [0, 1, 0], [0.6, 0, 0.8]])
    tablet = text.state(1)
    call = {
        "entangled_inputs": lambda: entangled_inputs(text, -1.0, tablet),
        "residual_via_states": lambda: residual_via_states(text, EnscriptionParams.from_q(-1.0, tablet, n_states=3)),
        "q_minus_one_dependence_check": lambda: q_minus_one_dependence_check(text, tablet),
    }[route]
    with pytest.raises(DegenerateNormalizer) as single:
        entangled_input(text, 1, -1.0, tablet)
    assert str(single.value) == "entangled input 1 has vanishing norm (A=0.000e+00)"
    with pytest.raises(DegenerateNormalizer) as family:
        call()
    assert str(family.value) == str(single.value)
