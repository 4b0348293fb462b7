import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from enscribe import (
    EnscriptionParams,
    QInterval,
    QRangeResult,
    certificate,
    classify,
    closed_form_q_range,
    direct_sum_enscribe,
    enscription_residual,
    entangled_input,
    gram,
    illegibility_screen,
    make_real_uniform,
    make_text,
    q_minus_one_dependence_check,
    q_range_real_uniform,
    q_range_two_text,
    qubit_example,
    search,
    solve_closed_form,
    solve_real_uniform_central,
    solve_two_text,
    texts,
    thin_extension_family,
    two_text_gap_floor,
    uniform_sextic,
    z0_threshold,
)
from enscribe.errors import (
    DimensionMismatch,
    EnscribeError,
    DirectionNotOrthogonal,
    IllegibleText,
    InvalidInputCertificate,
    NotADirectSum,
    QOutOfRange,
    SizeMismatch,
    TOutOfRange,
    ZOutOfRange,
)
from enscribe.engine import _phase_gauge
from enscribe.linalg import dialect_frame, unit
from enscribe.verification import random_equivalence_image, random_nonclassical_text

from helpers import random_state, random_text, random_unitary

Z_QUBIT = np.sqrt(3.0) - 2.0


def test_solve_two_text_orthogonal_pair():
    cert = solve_two_text(make_real_uniform(2, 0.0))
    assert cert.params.Q == 1.0
    assert cert.residual < 1e-12


def test_solve_two_text_qubit_overlap_reaches_one():
    ap, am = np.sqrt((1 + Z_QUBIT) / 2), np.sqrt((1 - Z_QUBIT) / 2)
    text = make_text(2, [[ap, am], [ap, -am]])
    cert = solve_two_text(text)
    # kept negative, no equivalence reduction: -2z/(1+z)^2 = 1 exactly
    assert abs(cert.params.Q - 1.0) < 1e-12
    assert cert.residual < 1e-10
    assert np.allclose(cert.params.phases, 1.0)


def test_solve_two_text_half_overlap():
    cert = solve_two_text(make_real_uniform(2, 0.5))
    assert abs(cert.params.Q - (-4.0 / 9.0)) < 1e-12
    assert cert.residual < 1e-10
    assert cert.flavor == "central"


def test_solve_two_text_strongly_negative_overlap_reduces():
    cert = solve_two_text(make_real_uniform(2, -0.5))
    assert abs(cert.params.Q) < 1.0
    assert cert.residual < 1e-10
    # reduction flips the second output phase
    assert abs(cert.params.phases[1] + 1.0) < 1e-12


def test_solve_two_text_complex_overlap():
    rng = np.random.default_rng(42)
    for _ in range(5):
        text = random_text(rng, 2, 3)
        cert = solve_two_text(text)
        assert cert.residual < 1e-10
        assert abs(cert.params.Q) <= 1.0


def test_solve_two_text_overlap_sweep():
    for z in np.arange(-0.9, 0.951, 0.05):
        if abs(z) > 0.999:
            continue
        cert = solve_two_text(make_real_uniform(2, float(z)))
        assert cert.residual < 1e-9


def test_solve_two_text_rejects_other_sizes():
    with pytest.raises(SizeMismatch):
        solve_two_text(make_real_uniform(3, 0.3))


def test_q_range_two_text_orthogonal_covers_everything():
    result = q_range_two_text(0.0)
    neg, pos = result.intervals
    assert (neg.lower, neg.upper) == (-1.0, 0.0)
    assert (pos.lower, pos.upper) == (0.0, 1.0)
    assert not neg.lower_closed and pos.upper_closed


def test_q_range_two_text_qubit_boundary():
    # 2|z|/(1+|z|^2) at |z| = 2 - sqrt(3) evaluates to exactly 1/2
    result = q_range_two_text(2.0 - np.sqrt(3.0))
    pos = result.intervals[1]
    assert abs(pos.lower - 0.5) < 1e-12
    assert pos.lower_flavor == "weakly_central"


def test_q_range_interval_membership():
    result = q_range_two_text(0.5)
    assert result.contains(0.9)
    assert result.contains(0.8)          # closed positive boundary
    assert not result.contains(0.3)      # gap
    assert not result.contains(-1.0)     # open endpoint
    assert result.contains(-0.9)
    assert not result.contains(0.805, margin=1e-2)


def test_q_range_two_text_out_of_range():
    with pytest.raises(ZOutOfRange):
        q_range_two_text(1.0)
    with pytest.raises(ZOutOfRange):
        q_range_two_text(-0.1)


@pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
def test_two_text_gap_floor_vanishes_at_the_gap_ends(z):
    neg, pos = q_range_two_text(z).intervals
    assert two_text_gap_floor(z, neg.upper) == two_text_gap_floor(z, pos.lower) == 0.0
    assert two_text_gap_floor(z, neg.upper + 1e-9) > 0.0 and two_text_gap_floor(z, pos.lower - 1e-9) > 0.0
    # at Q = 0 the mismatch is z - z^2 whatever the tablet
    assert two_text_gap_floor(z, 0.0) == pytest.approx(z * (1.0 - z), rel=1e-15)


def test_two_text_gap_floor_values():
    assert two_text_gap_floor(0.5, 0.3) == pytest.approx(5 / 32, rel=1e-15)
    # orthogonal states are enscribable at every Q, and Q = -1 has a tablet on a state with mismatch 0
    assert all(two_text_gap_floor(0.0, q) == 0.0 for q in np.linspace(-1.0, 1.0, 41))
    assert two_text_gap_floor(0.5, -1.0) == 0.0
    with pytest.raises(QOutOfRange):
        two_text_gap_floor(0.5, 1.5)
    with pytest.raises(QOutOfRange):
        two_text_gap_floor(0.5, float("nan"))
    with pytest.raises(ZOutOfRange):
        two_text_gap_floor(1.0, 0.3)


def test_uniform_sextic_constant_term():
    for n in (3, 5, 20):
        assert uniform_sextic(n, 0.0) == 1.0


def test_z0_threshold_three_states():
    assert abs(z0_threshold(3) - (-0.203785)) < 1e-5


def test_z0_threshold_large_n_scaling():
    for n in (50, 100, 200):
        z0 = z0_threshold(n)
        approx = -1.0 / (2.0 * n)
        assert abs(z0 - approx) / abs(approx) < 0.2


def test_q_range_real_uniform_known_value():
    result = q_range_real_uniform(3, 0.5)
    iv = result.intervals[0]
    assert abs(iv.upper - (-0.5)) < 1e-12
    assert iv.upper_flavor == "central"


def test_q_range_real_uniform_empties_below_threshold():
    z0 = z0_threshold(3)
    assert not q_range_real_uniform(3, z0 + 1e-3).empty
    assert q_range_real_uniform(3, z0 - 1e-3).empty


def test_q_range_real_uniform_sign_pattern():
    for n in (3, 4):
        for z in (-0.1, 0.2, 0.5, 0.8):
            result = q_range_real_uniform(n, z)
            if result.empty:
                continue
            iv = result.intervals[0]
            assert np.sign(iv.lower) == -np.sign(z)
            assert np.sign(iv.upper) == -np.sign(z)


def test_q_range_real_uniform_validation():
    with pytest.raises(SizeMismatch):
        q_range_real_uniform(2, 0.3)
    with pytest.raises(ZOutOfRange):
        q_range_real_uniform(3, -0.5)


def test_solve_real_uniform_central_basic():
    cert = solve_real_uniform_central(3, 0.3)
    assert cert.flavor == "central"
    assert cert.residual < 1e-9
    assert np.allclose(cert.params.phases, 1.0)


def test_solve_real_uniform_central_orthogonal():
    cert = solve_real_uniform_central(3, 0.0)
    assert cert.params.Q == 1.0
    assert cert.residual < 1e-12


def test_solve_real_uniform_central_negative_overlap():
    cert = solve_real_uniform_central(4, -0.1)
    assert abs(cert.params.Q - 0.4 / (0.9 * 0.7)) < 1e-12
    assert cert.params.Q > 0
    assert cert.residual < 1e-9


def test_solve_real_uniform_quasi_central_band():
    # central parameter exceeds 1 here, yet the text is enscribable
    cert = solve_real_uniform_central(3, -0.20)
    assert cert.flavor == "quasi_central"
    assert cert.residual < 1e-9
    assert 0 < cert.params.Q <= 1.0
    # non-trivial output phases at the interior parameter
    assert abs(cert.params.phases[1] - 1.0) > 1e-3


def test_solve_real_uniform_illegible():
    with pytest.raises(IllegibleText):
        solve_real_uniform_central(3, -0.3)


def test_solve_real_uniform_sweep():
    for n in (3, 4):
        z0 = z0_threshold(n)
        start = {3: -0.45, 4: -0.30}[n]
        for z in np.arange(start, 0.951, 0.05):
            z = float(z)
            if z < 0 and z < z0:
                continue
            cert = solve_real_uniform_central(n, z)
            assert cert.residual < 1e-9


def _central_limit(n):
    """The negative overlap where the central parameter -Nz/((1+z)(1+(N-1)z)) reaches 1."""
    return (-n + np.sqrt(n * n - (n - 1))) / (n - 1)


def _rotated_uniform(rng, n, z, d):
    """make_real_uniform(n, z) in C^d (zeros appended), under a random unitary."""
    states = make_real_uniform(n, z).states
    v = random_unitary(rng, d)
    return make_text(d, [v @ np.append(states[:, i], np.zeros(d - n)) for i in range(n)])


_UNIFORM_CASES = [
    (n, z, flavor)
    for n in range(3, 8)
    for z, flavor in [
        (0.6, "central"),
        (0.25 / (n - 1), "central"),
        (0.5 * _central_limit(n), "central"),
        (0.5 * (z0_threshold(n) + _central_limit(n)), "quasi_central"),
    ]
]


@pytest.mark.parametrize("thin", [False, True], ids=["thick", "thin"])
@pytest.mark.parametrize("n, z, flavor", _UNIFORM_CASES)
def test_solve_real_uniform_certifies_on_a_rotated_text(n, z, flavor, thin):
    rng = np.random.default_rng(7 * n + (1 if thin else 0))
    text = _rotated_uniform(rng, n, z, n + 1 if thin else n)
    cert = solve_closed_form(text)
    assert cert.residual < 1e-12
    assert cert.flavor == flavor
    # the central endpoint is Q itself, up to the rounding of canonical_q
    assert q_range_real_uniform(n, z).contains(cert.params.Q, margin=-1e-12)


def _bits(cert):
    p = cert.params
    return p.q, p.Q, p.tablet.tobytes(), p.phases.tobytes(), cert.residual, cert.flavor


@pytest.mark.parametrize("n, z", [(3, 0.3), (3, -0.19), (4, -0.1), (4, -0.14), (5, 0.2), (7, 0.0)])
def test_solve_real_uniform_central_is_solve_closed_form_on_the_canonical_text(n, z):
    assert _bits(solve_real_uniform_central(n, z)) == _bits(solve_closed_form(make_real_uniform(n, z)))


@pytest.mark.parametrize("z", [-0.5, -0.3, 0.3])
def test_solve_real_uniform_central_certifies_every_two_text(z):
    # below z = sqrt(3) - 2 the gauge flips a 2-text's phase, so the overlap it solves at is |z|,
    # never the raw negative z, whose central Q would leave [-1, 1]
    cert = solve_real_uniform_central(2, z)
    assert cert.residual < 1e-12
    assert _bits(cert) == _bits(solve_two_text(make_real_uniform(2, z)))


def test_solve_real_uniform_central_needs_two_states():
    with pytest.raises(SizeMismatch):
        solve_real_uniform_central(1, 0.3)


def test_closed_form_q_range_widens_a_thin_two_text():
    z = 0.3
    text = make_text(3, [[1.0, 0.0, 0.0], [z, np.sqrt(1 - z * z), 0.0]])
    neg_hi, pos_lo = -2 * z / (1 + z) ** 2, 2 * z / (1 + z * z)
    assert closed_form_q_range(text) == QRangeResult((
        QInterval(-1.0, neg_hi, True, True, "closed", "weakly_central"),
        QInterval(pos_lo, 1.0, True, True, "weakly_central", "closed"),
    ))
    assert closed_form_q_range(make_text(2, text.states[:2].T)) == q_range_two_text(z)


@pytest.mark.parametrize("z", [0.3, -0.1])
def test_closed_form_q_range_widens_a_thin_uniform_text(z):
    text = _rotated_uniform(np.random.default_rng(3), 3, z, 4)
    # the range of the overlap the text has, which the rotation moved by rounding
    thick = q_range_real_uniform(3, _phase_gauge(text)[1]).intervals[0]
    (widened,) = closed_form_q_range(text).intervals
    if z > 0:  # a negative interval reaches out to -1
        expected = QInterval(-1.0, thick.upper, True, thick.upper_closed, "closed", thick.upper_flavor)
    else:
        expected = QInterval(thick.lower, 1.0, thick.lower_closed, True, thick.lower_flavor, "closed")
    assert widened == expected
    thick_text = make_real_uniform(3, z)
    assert closed_form_q_range(thick_text) == q_range_real_uniform(3, _phase_gauge(thick_text)[1])


def test_closed_form_q_range_refuses_other_texts():
    text = random_text(np.random.default_rng(5), 3, 3)
    with pytest.raises(EnscribeError, match="no closed-form Q range for this text"):
        closed_form_q_range(text)


@pytest.mark.parametrize("n", range(3, 9))
def test_closed_form_q_range_is_empty_at_the_dependence_boundary(n):
    # the mean overlap lands on -1/(N-1) or an ulp below it, outside q_range_real_uniform's domain
    text = make_real_uniform(n, -1.0 / (n - 1))
    assert closed_form_q_range(text).empty
    # and solve reports a reason for it, so both exit 2
    with pytest.raises(EnscribeError):
        solve_closed_form(text)


_COVARIANCE_CASES = [(2, z) for z in (0.0, 0.5, -0.2, -0.5)] + [
    (n, z)
    for n in range(3, 8)
    for z in (0.0, 0.6, 0.5 * _central_limit(n), 0.5 * (z0_threshold(n) + _central_limit(n)),
              0.5 * (z0_threshold(n) - 1.0 / (n - 1)))
]


@pytest.mark.parametrize("pad", [0, 1], ids=["thick", "padded"])
@pytest.mark.parametrize("n, z", _COVARIANCE_CASES)
def test_closed_forms_are_covariant_under_text_equivalence(n, z, pad):
    # legible central, quasi-central and illegible overlaps: phases, a relabeling and a
    # rotation keep the range and the screen verdict, and the closed form still certifies
    base = make_real_uniform(n, z)
    base = make_text(n + pad, [np.append(base.state(i), np.zeros(pad)) for i in range(n)])
    image, _, _, _ = random_equivalence_image(np.random.default_rng(10 * n + pad), base)
    expected, verdict = closed_form_q_range(base), illegibility_screen(base).verdict
    for text in (base, image):
        result = closed_form_q_range(text)
        assert len(result.intervals) == len(expected.intervals)
        for x, y in zip(result.intervals, expected.intervals):
            assert abs(x.lower - y.lower) <= 1e-9 and abs(x.upper - y.upper) <= 1e-9
            assert (x.lower_closed, x.upper_closed) == (y.lower_closed, y.upper_closed)
        assert illegibility_screen(text).verdict == verdict
        if result.empty:
            with pytest.raises(EnscribeError):
                solve_closed_form(text)
        else:
            cert = solve_closed_form(text)
            assert cert.residual < 1e-12
            assert result.contains(cert.params.Q, margin=-1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_rotated_orthonormal_text_has_overlap_zero(n):
    # a rotation leaves off-diagonal overlaps near 1e-17, which the overlap graph reads as zero
    text = _rotated_uniform(np.random.default_rng(n), n, 0.0, n)
    assert _phase_gauge(text)[1] == 0.0
    assert closed_form_q_range(text) == closed_form_q_range(make_real_uniform(n, 0.0))
    assert solve_closed_form(text).params.Q == 1.0


def test_solve_closed_form_leaves_other_texts_to_the_search():
    assert solve_closed_form(random_text(np.random.default_rng(5), 3, 3)) is None
    assert abs(solve_closed_form(make_real_uniform(2, 0.5)).params.Q + 4.0 / 9.0) < 1e-12


@st.composite
def uniform_texts(draw):
    """make_real_uniform(N, z), zero-padded and rotated, with a seed: z = 0, the boundary, or any z."""
    n = draw(st.integers(3, 6))
    lo = -1.0 / (n - 1)
    z = draw(st.one_of(st.just(0.0), st.just(lo), st.floats(lo, 0.9)))
    seed = draw(st.integers(0, 2**32 - 1))
    return _rotated_uniform(np.random.default_rng(seed), n, z, n + draw(st.integers(0, 2))), seed


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(uniform_texts())
def test_screen_and_closed_form_share_one_legibility_rule(case):
    text, seed = case
    image, _, _, _ = random_equivalence_image(np.random.default_rng(seed), text)
    ranges = []
    for t in (text, image):
        ranges.append(closed_form_q_range(t))
        assert illegibility_screen(t).illegible == ranges[-1].empty
    a, b = ranges
    assert len(a.intervals) == len(b.intervals)
    for x, y in zip(a.intervals, b.intervals):
        assert abs(x.lower - y.lower) <= 1e-9 and abs(x.upper - y.upper) <= 1e-9
        assert (x.lower_closed, x.upper_closed) == (y.lower_closed, y.upper_closed)


def test_direct_sum_enscribe_empty_complement_is_identity():
    text = make_real_uniform(2, 0.5)
    cert = solve_two_text(text)
    assert direct_sum_enscribe(text, cert, (0, 1)) is cert


def test_direct_sum_enscribe_tablet_in_dialect_keeps_q():
    block = make_real_uniform(2, 0.5)
    states = [
        np.concatenate([block.state(0), [0.0]]),
        np.concatenate([block.state(1), [0.0]]),
        np.array([0.0, 0.0, 1.0]),
    ]
    combined = make_text(3, states)
    sub = combined.subtext((0, 1))
    cert = solve_two_text(sub)
    lifted = direct_sum_enscribe(combined, cert, (0, 1))
    assert abs(lifted.params.Q - cert.params.Q) < 1e-12
    assert lifted.residual < 1e-9


def _classical_pair_plus_two_text():
    block = make_real_uniform(2, 0.5)
    return make_text(4, [
        np.array([1.0, 0.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 0.0, 0.0]),
        np.concatenate([np.zeros(2), block.state(0)]),
        np.concatenate([np.zeros(2), block.state(1)]),
    ])


def test_direct_sum_enscribe_classical_pair_plus_two_text():
    combined = _classical_pair_plus_two_text()
    cert = solve_two_text(combined.subtext((2, 3)))
    lifted = direct_sum_enscribe(combined, cert, (2, 3))
    assert lifted.residual < 1e-9
    # tablet orthogonal to the classical block
    ov = np.abs(combined.states[:, :2].conj().T @ lifted.params.tablet)
    assert np.max(ov) < 1e-9


@st.composite
def direct_sums(draw):
    """A text with a valid certificate of its block at ``quantum``: a complex 2-text or a
    feasible real uniform N-text (N = 3, 4), beside k <= 3 states orthogonal to it and to
    each other, in C^(d + k + free) rotated at random, with the block at random positions.
    The certificate's tablet may slide partly out of the block's dialect (thin extension)."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if n == 2:
        block = random_text(rng, 2, draw(st.integers(2, 3)))
        cert = solve_two_text(block)
    else:
        z = draw(st.floats(-1.0 / (n - 1), 0.9, exclude_min=True))
        assume(not q_range_real_uniform(n, z).empty)
        block, cert = make_real_uniform(n, z), solve_real_uniform_central(n, z)
    k = draw(st.integers(0, 3))
    d = block.dimension
    dim = d + k + draw(st.integers(0, 2))
    w = random_unitary(rng, dim)
    where = rng.permutation(n + k)
    quantum, classical = tuple(int(i) for i in where[:n]), tuple(int(i) for i in where[n:])
    states = np.zeros((dim, n + k), dtype=complex)
    states[:d, list(quantum)] = block.states
    states[d + np.arange(k), list(classical)] = 1.0
    combined = make_text(dim, list((w @ states).T))
    tablet, big_q = w[:, :d] @ cert.params.tablet, cert.params.Q
    if dim > d and big_q != 0.0 and draw(st.booleans()):
        # |Q| grows towards 1 while the tablet's part in the block's dialect shrinks
        # by sqrt(Q / Q'), so Q |<psi_i|t>|^2 stays put
        big_q = np.copysign(abs(big_q) + draw(st.floats(0.0, 1.0)) * (1.0 - abs(big_q)), big_q)
        c = np.sqrt(cert.params.Q / big_q)
        # direct_sum_enscribe refuses a tablet (nearly) orthogonal to the block's dialect
        assume(c > 1e-4)
        tablet = c * tablet + np.sqrt(1.0 - c * c) * w[:, d + int(rng.integers(dim - d))]
    params = EnscriptionParams.from_Q(big_q, tablet, phases=cert.params.phases)
    return combined, certificate(combined.subtext(quantum), params), quantum, classical


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(direct_sums())
def test_direct_sum_lift_stays_valid(case):
    combined, cert, quantum, classical = case
    assert cert.is_valid()
    lifted = direct_sum_enscribe(combined, cert, quantum)
    assert lifted.is_valid()
    overlaps = combined.states[:, list(classical)].conj().T @ lifted.params.tablet
    assert np.max(np.abs(overlaps), initial=0.0) < 1e-9


def test_direct_sum_enscribe_rejects_overlapping_complement():
    text = make_real_uniform(3, 0.4)
    cert = solve_two_text(text.subtext((0, 1)))
    with pytest.raises(NotADirectSum):
        direct_sum_enscribe(text, cert, (0, 1))


@st.composite
def overlap_patterns(draw):
    """An overlap pattern on N = 2..6 states, as its upper-triangle edges in row order, and a phase seed."""
    n = draw(st.integers(2, 6))
    pairs = n * (n - 1) // 2
    return n, tuple(draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs))), draw(st.integers(0, 2**32 - 1))


def _pattern_text(n, edges, seed):
    """A text realizing the pattern A: the Cholesky rows of G = I + (0.15/N) A, with random phases on the edges."""
    adj = np.zeros((n, n), dtype=bool)
    adj[np.triu_indices(n, 1)] = edges
    adj |= adj.T
    upper = np.triu(adj * np.exp(2j * np.pi * np.random.default_rng(seed).random((n, n))), 1)
    g = np.eye(n) + 0.15 / n * (upper + upper.conj().T)
    return adj, make_text(n, np.linalg.cholesky(g).conj())


def _some_orthogonal_block_fits(adj):
    """Lemma 2's pattern by brute force: some choice of orthogonal block among all 2^N, pairwise
    orthogonal, with the rest pairwise overlapping and no edge between the two."""
    n = len(adj)
    for mask in range(2**n):
        orth = [i for i in range(n) if mask >> i & 1]
        rest = [i for i in range(n) if not mask >> i & 1]
        if (not adj[np.ix_(orth, orth)].any() and not adj[np.ix_(orth, rest)].any()
                and (adj[np.ix_(rest, rest)] | np.eye(len(rest), dtype=bool)).all()):
            return True
    return False


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(overlap_patterns())
@example((3, (False, False, False), 0))  # orthonormal: every state in the orthogonal block
@example((3, (True, True, True), 0))  # fully quantum: every state in the overlapping block
@example((3, (True, False, True), 0))  # one zero overlap: 0 and 2 both overlap 1, no block fits
@example((4, (True, False, False, False, False, False), 0))  # one overlapping pair beside two orthogonal states
def test_lemma2_block_rules_read_the_overlap_graph(pattern):
    adj, text = _pattern_text(*pattern)
    assert np.array_equal(texts.overlap_graph(text), adj)
    assert illegibility_screen(text).lemma2_pattern_ok == _some_orthogonal_block_fits(adj)
    n = len(adj)
    for mask in range(1, 2**n):
        sub = tuple(i for i in range(n) if mask >> i & 1)
        rest = [i for i in range(n) if not mask >> i & 1]
        cert = certificate(text.subtext(sub), EnscriptionParams.from_q(0.5, text.state(0), n_states=len(sub)))
        not_a_direct_sum = adj[np.ix_(rest, rest)].any() or adj[np.ix_(rest, sub)].any()
        try:
            direct_sum_enscribe(text, cert, sub)
            raised = False
        except NotADirectSum:
            raised = True
        except InvalidInputCertificate:  # a direct sum, but the certificate does not hold on the subtext
            raised = False
        assert raised == not_a_direct_sum, sub


@pytest.mark.parametrize(
    "indices",
    [(2, 7), (-2, -1), (2.2, 3.9), (True, 3), (np.float64(2), np.float64(3)), (2, 2)],
    ids=["past-the-end", "negative", "float", "bool", "np-float64", "duplicate"],
)
def test_direct_sum_enscribe_indices_outside_the_text_are_typed(indices):
    # the indices QuantumText.subtext rejects, and no others: a float is not truncated to the state it names
    combined = _classical_pair_plus_two_text()
    cert = solve_two_text(combined.subtext((2, 3)))
    with pytest.raises(DimensionMismatch):
        direct_sum_enscribe(combined, cert, indices)


def test_direct_sum_enscribe_of_no_states_is_a_dimension_mismatch():
    # an orthonormal text passes the block rules for the empty subtext, which QuantumText.subtext rejects
    text = make_text(3, np.eye(3))
    cert = certificate(text, EnscriptionParams.from_q(0.5, text.state(0), n_states=3))
    with pytest.raises(DimensionMismatch, match="subtext indices"):
        direct_sum_enscribe(text, cert, ())


def test_direct_sum_enscribe_full_reordering_recertifies():
    text = make_text(2, [[1, 0], [0.3 + 0.4j, np.sqrt(0.75)]])
    cert = solve_two_text(text.subtext((1, 0)))
    lifted = direct_sum_enscribe(text, cert, (1, 0))
    assert lifted.residual < 1e-9
    assert enscription_residual(text, lifted.params) == lifted.residual
    # the identity order returns the certificate itself, but only a valid one
    with pytest.raises(InvalidInputCertificate):
        direct_sum_enscribe(text, cert, (0, 1))


def test_thin_extension_endpoints():
    base = make_real_uniform(2, 0.35)
    embedded = make_text(3, [np.concatenate([base.state(i), [0.0]]) for i in range(2)])
    cert = solve_two_text(embedded)
    direction = np.array([0.0, 0.0, 1.0])
    same = thin_extension_family(embedded, cert, 1.0, direction)
    assert abs(same.params.Q - cert.params.Q) < 1e-12
    assert np.allclose(same.params.tablet, cert.params.tablet, atol=1e-12)
    q0 = abs(cert.params.Q)
    extreme = thin_extension_family(embedded, cert, q0, direction)
    assert abs(abs(extreme.params.Q) - 1.0) < 1e-12


def test_thin_extension_residual_along_family():
    base = make_real_uniform(2, 0.35)
    embedded = make_text(3, [np.concatenate([base.state(i), [0.0]]) for i in range(2)])
    cert = solve_two_text(embedded)
    direction = np.array([0.0, 0.0, 1.0])
    lifted = thin_extension_family(embedded, cert, 0.9, direction)
    assert lifted.residual < 1e-9


def test_thin_extension_errors():
    base = make_real_uniform(2, 0.35)
    embedded = make_text(3, [np.concatenate([base.state(i), [0.0]]) for i in range(2)])
    cert = solve_two_text(embedded)
    with pytest.raises(TOutOfRange):
        thin_extension_family(embedded, cert, abs(cert.params.Q) / 2, [0, 0, 1.0])
    with pytest.raises(DirectionNotOrthogonal):
        thin_extension_family(embedded, cert, 0.9, embedded.state(0))


def test_direct_sum_lift_keeps_both_states_of_a_near_parallel_two_text():
    # the pair's second singular value, 7.1e-5, stays above the rank cut, so classify and dialect_frame
    # both count two dimensions: the lift projects the tablet onto both, and keeps the subtext's residual
    block = make_real_uniform(2, 1 - 5e-9)
    assert classify(block).dialect_dimension == 2
    text = make_text(3, [np.append(block.state(0), 0), np.append(block.state(1), 0), [0, 0, 1]])
    sub = text.subtext((0, 1))
    assert dialect_frame(sub.states).shape == (3, 2)
    cert = search.feasibility_search(sub, 0.9, search.SearchOptions(seed=1, starts=16)).certificate
    assert cert is not None and cert.residual > 1e-9
    lifted = direct_sum_enscribe(text, cert, (0, 1))
    assert abs(lifted.residual - cert.residual) < 1e-12


def test_thin_extension_takes_the_dialect_that_classify_counts():
    # singular values 1.41, 1, 5e-11: the smallest falls under the rank cut, RANK_TOL of the largest
    text = make_text(3, [[1, 0, 0], [0, 1, 0], unit(np.array([1, 1, 1e-10]))])
    assert classify(text).dialect_dimension == 2
    u = np.linalg.svd(text.states)[0]
    cert = certificate(text, EnscriptionParams.from_Q(0.5, u[:, 0], n_states=3))
    lifted = thin_extension_family(text, cert, 0.5, u[:, 2])
    assert abs(lifted.params.Q - 1.0) < 1e-12
    assert np.allclose(lifted.params.tablet, np.sqrt(0.5) * (u[:, 0] + u[:, 2]), atol=1e-12)


def test_q_minus_one_dependence_thick_two_text():
    text = make_real_uniform(2, 0.4)
    rng = np.random.default_rng(19)
    for _ in range(5):
        assert q_minus_one_dependence_check(text, random_state(rng, 2))


def test_q_minus_one_dependence_thin_text_with_outside_tablet():
    base = make_real_uniform(2, 0.4)
    embedded = make_text(3, [np.concatenate([base.state(i), [0.0]]) for i in range(2)])
    tablet = np.array([0.5, 0.1, 0.0])
    tablet[2] = np.sqrt(1 - np.vdot(tablet, tablet).real)
    assert not q_minus_one_dependence_check(embedded, tablet)
    # independent rank oracle on the explicit vectors
    omegas = np.column_stack(
        [entangled_input(embedded, i, -1.0, tablet) for i in range(2)]
    )
    assert np.linalg.matrix_rank(omegas) == 2


def test_q_minus_one_dependence_single_state():
    text = make_text(2, [[1, 0]])
    assert not q_minus_one_dependence_check(text, np.array([0.0, 1.0]))


def test_illegibility_screen_dependent_text():
    third = np.array([1.0, 1.0]) / np.sqrt(2)
    text = make_text(2, [[1, 0], [0, 1], third])
    report = illegibility_screen(text)
    assert report.reason == "inefficient"
    assert report.verdict == "illegible(inefficient)"


def test_illegibility_screen_one_zero_overlap():
    a, b = 0.4, np.sqrt(1 - 0.16)
    text = make_text(3, [[1, 0, 0], [a, b, 0], [0, a, b]])
    report = illegibility_screen(text)
    assert report.reason == "lemma2_pattern"


def test_illegibility_screen_uniform_eigen_sign():
    text = make_real_uniform(3, 0.4)
    report = illegibility_screen(text)
    assert report.reason is None
    assert report.eigen_sign == -1
    # dense eigensolver oracle on the reciprocal-overlap matrix
    m = 1.0 / gram(text).real
    eig = np.linalg.eigvalsh(m)
    assert int(np.sum(eig < 0)) == 2 and int(np.sum(eig > 0)) == 1


def test_illegibility_screen_uniform_below_threshold():
    report = illegibility_screen(make_real_uniform(3, -0.3))
    assert report.reason == "uniform_threshold"
    assert report.eigen_sign_ok is True
    assert report.uniform_threshold_ok is False


def test_illegibility_screen_singular_reciprocal_gram():
    # the real 3-text with Gram [[1, 1/2, 1/2], [1/2, 1, 1/7], [1/2, 1/7, 1]]: its reciprocal Gram
    # has eigenvalues -6, 0 and 9, so no sign pattern is defined
    g = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 1.0 / 7.0], [0.5, 1.0 / 7.0, 1.0]])
    text = make_text(3, np.linalg.cholesky(g))
    eig = np.linalg.eigvalsh(1.0 / gram(text).real)
    assert np.allclose(eig, [-6.0, 0.0, 9.0])
    report = illegibility_screen(text)
    assert report.reason == "eigen_sign"
    assert report.verdict == "illegible(eigen_sign)"
    assert report.eigen_sign is None


def test_illegibility_screen_wrong_reciprocal_sign_pattern():
    # two eigenvalues of each sign, all well away from 0: neither sign is held by all but one
    text = random_nonclassical_text(np.random.default_rng(21), 4, 4)
    eig = np.linalg.eigvalsh(1.0 / gram(text))
    assert int(np.sum(eig < -1.0)) == 2 and int(np.sum(eig > 1.0)) == 2
    report = illegibility_screen(text)
    assert report.reason == "eigen_sign"
    assert report.verdict == "illegible(eigen_sign)"
    assert report.eigen_sign is None


def test_illegibility_screen_classical_ok():
    rng = np.random.default_rng(3)
    text = make_text(3, random_unitary(rng, 3).T)
    report = illegibility_screen(text)
    assert report.reason is None
    assert report.eigen_sign is None


@st.composite
def uniform_texts_and_images(draw):
    """A real uniform N-text, N = 3..7, or a phased or rotated image of one: z anywhere in
    (-1/(N-1), 1) with |z| >= 1e-8, near-parallel with 1 - z down to 2e-9, or within 1e-6 of z0(N)."""
    n = draw(st.integers(3, 7))
    kind = draw(st.sampled_from(["across", "near-parallel", "near-z0"]))
    if kind == "across":
        z = draw(st.floats(-1.0 / (n - 1), 1.0 - 2e-9, exclude_min=True))
        assume(abs(z) >= 1e-8)
    elif kind == "near-parallel":
        z = 1.0 - 10.0 ** -draw(st.floats(3.0, np.log10(5e8)))
    else:
        z = z0_threshold(n) + draw(st.floats(-1e-6, 1e-6))
    text = make_real_uniform(n, z)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    image = draw(st.sampled_from(["as-is", "phased", "rotated"]))
    if image == "phased":
        return make_text(n, list((text.states * np.exp(2j * np.pi * rng.random(n))).T))
    if image == "rotated":
        return random_equivalence_image(rng, text)[0]
    return text


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(uniform_texts_and_images())
@example(make_real_uniform(3, 1 - 5e-9))
@example(make_real_uniform(4, 1 - 5e-9))
@example(make_real_uniform(5, 1 - 5e-9))
@example(make_real_uniform(5, 1 - 2e-8))
def test_the_screen_reads_a_uniform_text_as_its_closed_form_range(text):
    # the reciprocal-Gram eigenvalues of a near-parallel text, about -(1 - z) N - 1 times and N once,
    # are counted by sign against their rounding margin, not cut relative to the largest
    screen = illegibility_screen(text)
    q_range = closed_form_q_range(text)
    assert screen.illegible == q_range.empty
    if not q_range.empty:
        (interval,) = q_range.intervals
        assert screen.eigen_sign == np.sign(interval.lower + interval.upper)


@pytest.mark.parametrize("scale, overlapping", [(1.0, False), (2.0, True)], ids=["at-tol", "above-tol"])
def test_overlap_at_the_line_gets_one_verdict_everywhere(scale, overlapping):
    # |z01| is DEFAULT_TOL exactly (orthogonal) or twice it (overlapping)
    z = scale * texts.DEFAULT_TOL
    text = make_text(3, [[1, 0, 0], [z, np.sqrt(1 - z * z), 0], [0, 0, 1]])
    assert abs(gram(text)[0, 1]) == z
    cls = classify(text)
    assert cls.classical is not overlapping
    assert not cls.fully_quantum
    # an orthogonal text or one overlapping pair: the Lemma 2 pattern holds either way
    assert illegibility_screen(text).verdict == "possibly_enscribable"
    cert = solve_two_text(text.subtext((1, 2)))
    if overlapping:
        with pytest.raises(NotADirectSum):
            direct_sum_enscribe(text, cert, (1, 2))
    else:
        assert direct_sum_enscribe(text, cert, (1, 2)).is_valid()
    assert [edge[:2] for edge in search._Objective(text).forest] == ([(0, 1)] if overlapping else [])


@pytest.mark.parametrize(
    "call, text",
    [
        (illegibility_screen, make_real_uniform(3, 0.3)),
        (illegibility_screen, make_real_uniform(3, -0.3)),
        (closed_form_q_range, make_real_uniform(3, 0.3)),
        (closed_form_q_range, make_real_uniform(2, 0.5)),
        (solve_closed_form, make_real_uniform(3, 0.3)),
        (solve_closed_form, make_real_uniform(2, -0.5)),
        (solve_two_text, make_real_uniform(2, 0.5)),
    ],
    ids=["screen-legible", "screen-illegible", "qrange-uniform", "qrange-two", "solve-uniform", "solve-two",
         "two-text"],
)
def test_each_verdict_derives_the_gauge_once(monkeypatch, call, text):
    from enscribe import engine

    calls = []
    gauge = engine._phase_gauge

    def counting_gauge(text):
        calls.append(text)
        return gauge(text)

    monkeypatch.setattr(engine, "_phase_gauge", counting_gauge)
    call(text)
    assert len(calls) == 1


def _seeded_two_texts(kind, count=150):
    rng = np.random.default_rng({"phased": 1, "negative-real": 2, "orthogonal": 3}[kind])
    for _ in range(count):
        d = int(rng.integers(2, 5))
        if kind == "phased":
            base = random_text(rng, 2, d) if rng.random() < 0.5 else make_real_uniform(2, rng.uniform(-0.95, 0.95))
            yield make_text(base.dimension, (base.states * np.exp(2j * np.pi * rng.random(2))).T)
        elif kind == "negative-real":
            z = rng.choice([Z_QUBIT, rng.uniform(-0.95, -1e-6)])
            yield _rotated_uniform(rng, 2, z, d) if rng.random() < 0.5 else make_real_uniform(2, z)
        else:
            yield _rotated_uniform(rng, 2, 0.0, d)


@pytest.mark.parametrize("kind", ["phased", "negative-real", "orthogonal"])
def test_two_text_gauge_keeps_a_negative_overlap_where_the_central_q_is_at_most_one(kind):
    # a 2-text keeps a real negative z iff its central Q, 2|z| / (1 - |z|)^2, is at most one (within
    # CANONICAL_Q_TOL), that is iff |z| <= 2 - sqrt(3); otherwise the gauge turns z positive
    from enscribe.certificates import CANONICAL_Q_TOL

    for text in _seeded_two_texts(kind):
        beta, z = _phase_gauge(text)
        g01 = gram(text)[0, 1]
        if not texts.overlap_graph(text).any():
            assert z == 0.0 and beta.tolist() == [1.0, 1.0]
            continue
        assert abs(abs(z) - abs(g01)) < 1e-15
        assert abs(np.conj(beta[0]) * beta[1] * g01 - z) < 1e-15
        x = abs(g01)
        negative = abs(g01.imag) <= texts.DEFAULT_TOL and g01.real < 0.0 and 2 * x / (1 - x) ** 2 <= 1 + CANONICAL_Q_TOL
        assert (z < 0.0) == negative


def test_the_qubit_example_sits_on_the_two_text_sign_line():
    assert _phase_gauge(qubit_example()[0])[1] == pytest.approx(Z_QUBIT, abs=1e-15)
    assert _phase_gauge(make_real_uniform(2, Z_QUBIT - 1e-9))[1] == pytest.approx(2.0 - np.sqrt(3.0) + 1e-9, abs=1e-15)
