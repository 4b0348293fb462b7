import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enscribe import (
    build_procedure,
    closed_form_q_range,
    feasibility_search,
    gram,
    make_real_uniform,
    make_text,
    q_range_two_text,
    search,
    two_text_gap_floor,
    verification,
    verify_procedure,
)
from enscribe.certificates import DEGENERATE_TOL, EnscriptionParams, enscription_residual, input_normalizer
from enscribe.errors import EnscribeError, QOutOfRange
from enscribe.search import SearchOptions

from helpers import random_classical_text, random_state, random_text, random_unitary


def test_classical_text_found_with_tablet_orthogonal_to_rest():
    rng = np.random.default_rng(0)
    text = random_classical_text(rng, 3, 3)
    result = feasibility_search(text, 0.7, SearchOptions(seed=0, starts=12))
    assert result.feasible
    cert = result.certificate
    ov = np.abs(text.states.conj().T @ cert.params.tablet)
    # nonzero deformation forces orthogonality to all states but one
    assert np.sum(ov > 1e-6) == 1


def test_uniform_below_threshold_never_feasible():
    text = make_real_uniform(3, -0.3)
    for big_q in (0.3, 0.7, 0.95, -0.5):
        result = feasibility_search(text, big_q, SearchOptions(seed=0, starts=12))
        assert not result.feasible
        assert result.best_residual > 1e-3


def test_two_text_inside_positive_branch():
    text = make_real_uniform(2, 0.5)
    result = feasibility_search(text, 0.9, SearchOptions(seed=0, starts=12))
    assert result.feasible
    assert result.certificate.residual < 1e-8


def test_two_text_in_gap_is_infeasible():
    text = make_real_uniform(2, 0.5)
    result = feasibility_search(text, 0.3, SearchOptions(seed=0, starts=32))
    assert result.verdict == "infeasible"
    assert result.best_residual > 1e-4


def test_search_is_deterministic():
    text = make_real_uniform(2, 0.4)
    opts = SearchOptions(seed=7, starts=10)
    a = feasibility_search(text, 0.95, opts)
    b = feasibility_search(text, 0.95, opts)
    assert a.start_index == b.start_index
    assert np.array_equal(a.certificate.params.tablet, b.certificate.params.tablet)
    assert a.best_residual == b.best_residual


def test_joint_search_over_q():
    text = make_real_uniform(2, 0.6)
    result = feasibility_search(text, None, SearchOptions(seed=1, starts=16))
    assert result.feasible
    # 2-texts are always enscribable somewhere in the allowed range
    assert -1.0 < result.certificate.params.Q <= 1.0


def test_single_state_trivially_feasible():
    text = make_text(2, [[1, 0]])
    result = feasibility_search(text, 0.5, SearchOptions(seed=0, starts=4))
    assert result.feasible
    assert result.best_residual == 0.0


def test_classical_text_feasible_at_zero_deformation():
    rng = np.random.default_rng(9)
    text = random_classical_text(rng, 3, 4)
    result = feasibility_search(text, 0.0, SearchOptions(seed=0, starts=4))
    assert result.feasible
    assert result.best_residual < 1e-12


def _count_starts(monkeypatch) -> list:
    """Record every call of search._minimize_start; returns the record."""
    calls = []
    original = search._minimize_start

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(search, "_minimize_start", counted)
    return calls


def _record_ends(monkeypatch) -> list:
    """Record the end Q and evaluations of every call of search._minimize_start; returns the record."""
    ends = []
    original = search._minimize_start

    def recorded(obj, x0, fixed_q):
        x, evals = original(obj, x0, fixed_q)
        ends.append((obj.q_of(x, fixed_q), evals))
        return x, evals

    monkeypatch.setattr(search, "_minimize_start", recorded)
    return ends


@pytest.mark.parametrize("big_q", [-1.5, float("nan"), 2.0])
def test_out_of_range_fixed_q_raises_before_any_start(monkeypatch, big_q):
    calls = _count_starts(monkeypatch)
    with pytest.raises(QOutOfRange):
        feasibility_search(make_real_uniform(2, 0.5), big_q, SearchOptions(seed=0, starts=4))
    assert calls == []


def test_qubit_text_at_q_one_wins_at_first_start(monkeypatch):
    calls = _count_starts(monkeypatch)
    z = np.sqrt(3.0) - 2.0
    ap, am = np.sqrt((1 + z) / 2), np.sqrt((1 - z) / 2)
    text = make_text(2, [[ap, am], [ap, -am]])
    result = feasibility_search(text, 1.0, SearchOptions(seed=0, starts=16))
    assert result.feasible
    assert result.start_index == 0
    assert len(calls) == 1


def test_infeasible_search_runs_every_start(monkeypatch):
    # a 3-text has no closed-form floor, so no start can show that it reached the floor
    calls = _count_starts(monkeypatch)
    result = feasibility_search(make_real_uniform(3, -0.3), 0.5, SearchOptions(seed=0, starts=32))
    assert result.verdict == "infeasible"
    assert len(calls) == 32


def test_gap_two_text_search_stops_at_its_closed_form_floor(monkeypatch):
    # Q = 0.3 lies in the gap (-0.444, 0.8) of this 2-text, where the floor is 5/32; the
    # search ends at the first start that reaches it, with the floor, Q and start index that
    # the winner rule picks over all 64 starts
    text, options = make_real_uniform(2, 0.5), SearchOptions(seed=0, starts=64)
    obj = search._Objective(text)
    floors = [obj.max_residual(search._minimize_start(obj, x0, 0.3)[0], 0.3)[0]
              for x0 in search._starts_for(obj, options, False)]
    winner = next(i for i, res in enumerate(floors) if res - min(floors) <= search.FLOOR_TIE * min(floors))
    calls = _count_starts(monkeypatch)
    result = feasibility_search(text, 0.3, options)
    assert len(calls) == 1
    assert result.verdict == "infeasible"
    assert abs(result.best_residual - 5 / 32) <= 1e-12
    assert (result.best_residual, result.Q, result.start_index) == (floors[winner], 0.3, winner)


@pytest.mark.parametrize("offset", [1e-6, 1e-7])
def test_gap_two_text_search_stops_at_its_floor_near_the_gap_end(monkeypatch, offset):
    # the floor (about 3e-7 and 3e-8) times FLOOR_TIE is below a mismatch's rounding, so the stop
    # also takes the absolute margin 8 eps (1 + |Q|)
    big_q = 0.8 - offset
    floor = two_text_gap_floor(0.5, big_q)
    calls = _count_starts(monkeypatch)
    result = feasibility_search(make_real_uniform(2, 0.5), big_q, SearchOptions(seed=0, starts=64))
    assert len(calls) == 1
    assert result.start_index == 0
    assert abs(result.best_residual - floor) <= search.FLOOR_TIE * floor + 8.0 * np.finfo(float).eps * (1.0 + big_q)


@pytest.mark.parametrize("seed, n, d", [(0, 2, 2), (1, 2, 3), (2, 3, 3), (3, 4, 3)])
def test_search_at_q_zero_runs_start_zero_alone(monkeypatch, seed, n, d):
    # at Q = 0 the residual does not see the tablet: every start ends on start 0's floor, bit for bit
    text = verification.random_nonclassical_text(np.random.default_rng(seed), n, d)
    options = SearchOptions(seed=seed, starts=64)
    obj = search._Objective(text)
    floors = [obj.max_residual(search._minimize_start(obj, x0, 0.0)[0], 0.0)[0]
              for x0 in search._starts_for(obj, options, False)]
    assert len(floors) == 64 and len(set(floors)) == 1
    calls = _count_starts(monkeypatch)
    result = feasibility_search(text, 0.0, options)
    assert len(calls) == 1
    assert result.verdict == "infeasible"
    assert (result.best_residual, result.Q, result.start_index) == (min(floors), 0.0, floors.index(min(floors)))
    assert result.evaluations == 1


@pytest.mark.parametrize(
    "text, big_q, floor, rel",
    [
        # Q = 0.3 lies in the gap (-0.444, 0.8) of this 2-text
        (make_real_uniform(2, 0.5), 0.3, 0.15625000000000022, 1e-10),
        # a joint floor whose winning start runs into the cap near Q = -1 carries rounding noise
        (make_real_uniform(3, -0.35), None, 0.3066990948838057, 1e-4),
        (verification.random_nonclassical_text(np.random.default_rng(5), 3, 3), 0.0, 0.5128078274224358, 0.0),
    ],
    ids=["gap", "joint", "q0"],
)
def test_infeasible_floors_stay_flat(text, big_q, floor, rel):
    # floors of a 64-start search before the LM stop was raised to FLOOR_TIE; a stop rule may
    # move them by its rounding noise only
    result = feasibility_search(text, big_q, SearchOptions(seed=0, starts=64))
    assert result.verdict == "infeasible"
    assert abs(result.best_residual - floor) <= rel * floor


def test_joint_floor_survives_rounding_of_the_jacobian(monkeypatch):
    # a winning start that ends on |Q| = 1 used to run into the evaluation cap there, and a
    # 1e-15 relative jitter of the Jacobian moved this floor by up to 8.4e-5 relative
    text, options = make_real_uniform(3, -0.31908484394177206), SearchOptions(seed=2114292751, starts=64)
    floor = feasibility_search(text, None, options).best_residual
    original = search._Objective.jacobian
    for seed in range(6):
        rng = np.random.default_rng(seed)

        def jittered(self, x, fixed_q, rng=rng):
            jac = original(self, x, fixed_q)
            return jac * (1.0 + 1e-15 * rng.standard_normal(jac.shape))

        monkeypatch.setattr(search._Objective, "jacobian", jittered)
        moved = feasibility_search(text, None, options).best_residual
        assert abs(moved - floor) <= 1e-10 * floor


@pytest.mark.parametrize("z", [-0.35, -0.30, -0.27])
def test_joint_starts_that_end_on_unit_q_do_not_hit_the_cap(monkeypatch, z):
    # Q = sin x_q is flat in x_q on |Q| = 1; the chart's curvature term keeps the model's (Q, Q)
    # entry from vanishing there
    ends = _record_ends(monkeypatch)
    result = feasibility_search(make_real_uniform(3, z), None, SearchOptions(seed=0, starts=64))
    assert result.verdict == "infeasible" and len(ends) == 64
    on_unit_q = [evals for big_q, evals in ends if abs(abs(big_q) - 1.0) <= 1e-6]
    assert on_unit_q
    assert max(on_unit_q) < search.MAX_EVALUATIONS


def test_search_logs_one_debug_line(caplog, monkeypatch):
    # cli.main stops the enscribe logger from propagating to the root, where caplog listens
    monkeypatch.setattr(logging.getLogger("enscribe"), "propagate", True)
    text = verification.random_nonclassical_text(np.random.default_rng(0), 3, 3)
    caplog.set_level(logging.NOTSET, logger="enscribe")
    feasibility_search(text, 0.0, SearchOptions(seed=0, starts=64))
    assert caplog.records == []
    caplog.set_level(logging.DEBUG, logger="enscribe")
    result = feasibility_search(text, 0.0, SearchOptions(seed=0, starts=64))
    (record,) = caplog.records
    assert record.name == "enscribe" and record.levelno == logging.DEBUG
    assert record.getMessage() == (
        "feasibility_search: starts run 1, evaluations 1, capped starts 0, verdict infeasible, "
        f"best_residual {result.best_residual:.3e}"
    )


def test_fixed_q_two_text_search_logs_its_closed_form_floor(caplog, monkeypatch):
    monkeypatch.setattr(logging.getLogger("enscribe"), "propagate", True)
    caplog.set_level(logging.DEBUG, logger="enscribe")
    result = feasibility_search(make_real_uniform(2, 0.5), 0.3, SearchOptions(seed=0, starts=64))
    (record,) = caplog.records
    assert record.getMessage() == (
        f"feasibility_search: starts run 1, evaluations {result.evaluations}, capped starts 0, "
        f"verdict infeasible, best_residual {result.best_residual:.3e}, closed-form floor {5 / 32:.3e}"
    )


def test_search_debug_line_counts_the_starts_that_hit_the_cap(caplog, monkeypatch):
    monkeypatch.setattr(logging.getLogger("enscribe"), "propagate", True)
    caplog.set_level(logging.DEBUG, logger="enscribe")
    ends = _record_ends(monkeypatch)
    result = feasibility_search(make_real_uniform(3, -0.35), None, SearchOptions(seed=0, starts=64))
    capped = sum(evals == search.MAX_EVALUATIONS for _, evals in ends)
    assert capped > 0
    (record,) = caplog.records
    assert record.getMessage() == (
        f"feasibility_search: starts run 64, evaluations {result.evaluations}, capped starts {capped}, "
        f"verdict infeasible, best_residual {result.best_residual:.3e}"
    )


def test_feasible_search_stops_at_first_certifying_start(monkeypatch):
    # The first solve stalls where it starts, which does not certify at this
    # Q, so a later start has to find the certificate.
    calls = []
    original = search._minimize_start

    def stall_first(obj, x0, fixed_q):
        calls.append(x0)
        return (x0, 0) if len(calls) == 1 else original(obj, x0, fixed_q)

    monkeypatch.setattr(search, "_minimize_start", stall_first)
    result = feasibility_search(make_real_uniform(2, 0.5), 0.9, SearchOptions(seed=0, starts=12))
    assert result.feasible
    assert result.start_index > 0
    assert len(calls) == result.start_index + 1


@pytest.mark.parametrize("n, z, k", [(3, 0.15, 1), (3, 0.3, 3), (4, 0.2, 0), (4, 0.2, 3)])
def test_joint_search_on_rotated_uniform_text_certifies_at_first_start(n, z, k):
    image = verification.random_equivalence_image(np.random.default_rng(k), make_real_uniform(n, z))[0]
    result = feasibility_search(image, None, SearchOptions(seed=0, starts=16))
    assert result.feasible
    assert result.start_index == 0


def test_joint_q_certificate_is_not_pinned_to_the_end_of_the_range():
    result = feasibility_search(make_real_uniform(2, 0.5), None, SearchOptions(seed=1, starts=16))
    assert result.feasible
    assert -0.99 < result.Q < 1.0


@pytest.mark.parametrize(
    "text, big_q, starts",
    [
        (make_real_uniform(2, 0.5), 0.9, 12),
        (make_real_uniform(2, 0.5), 0.3, 8),
        (make_real_uniform(3, 0.3), None, 4),
        (make_text(2, [[1, 0]]), 0.5, 4),
    ],
)
def test_evaluations_count_objective_calls(monkeypatch, text, big_q, starts):
    count = [0]
    original = search._Objective.residual_vector

    def counted(self, x, fixed_q):
        count[0] += 1
        return original(self, x, fixed_q)

    monkeypatch.setattr(search._Objective, "residual_vector", counted)
    result = feasibility_search(text, big_q, SearchOptions(seed=0, starts=starts))
    assert result.evaluations == count[0] > 0


@st.composite
def two_texts_at_q(draw):
    """A 2-text of overlap modulus in [0.05, 0.95], real or complex, in C^2 to C^4, alone or as a phased,
    rotated and relabelled image; a Q anywhere in [-1, 1] or within 1e-6 of an end of its gap; a seed."""
    z, d = draw(st.floats(0.05, 0.95)), draw(st.integers(2, 4))
    phase = np.exp(1j * draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0 * np.pi))))
    seed = draw(st.integers(0, 2**32 - 1))
    text = make_text(d, [np.eye(d)[0], z * phase * np.eye(d)[0] + np.sqrt(1.0 - z * z) * np.eye(d)[1]])
    if draw(st.booleans()):
        text = verification.random_equivalence_image(np.random.default_rng(seed), text)[0]
    neg, pos = q_range_two_text(z).intervals
    end = draw(st.sampled_from([None, neg.upper, pos.lower]))
    if end is None:
        return text, draw(st.floats(-1.0, 1.0)), seed
    # at least 1e-7 away, so that the floor (about 1e-7 z (1 - z) there) is not lost in rounding
    return text, end + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-7, 1e-6)), seed


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(two_texts_at_q())
def test_two_text_gap_floor_bounds_every_start_and_meets_the_best(drawn):
    text, big_q, seed = drawn
    z = abs(gram(text)[0, 1])
    floor = two_text_gap_floor(z, big_q)
    # Q = -1 is outside the range only because the entangled inputs degenerate there
    assert (floor > 0.0) == (not q_range_two_text(z).contains(big_q) and big_q > -1.0)
    obj = search._Objective(text)
    ends = [obj.max_residual(search._minimize_start(obj, x0, big_q)[0], big_q)[0]
            for x0 in search._starts_for(obj, SearchOptions(seed=seed, starts=16), False)]
    # a mismatch is the difference of two numbers near z < 1, so it also rounds by about 1e-16 absolute
    assert all(floor * (1.0 - 1e-12) - 2e-15 <= res for res in ends)
    if floor > 0.0:
        assert abs(min(ends) - floor) <= 1e-8 * floor + 1e-13


@st.composite
def texts_with_zero_overlaps(draw):
    """Generic texts from N = d + 1 to d = N + 2, orthonormal ones, texts split over
    orthogonal blocks (a forest, not a tree), and nearly dependent ones."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(max(2, d - 2), d + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # more states than dimensions fit neither an orthonormal set nor the blocks,
    # and are dependent outright
    kinds = ["generic", "classical", "blocks"] + ["near_dependent"] * (n >= 3)
    kind = draw(st.sampled_from(kinds)) if n <= d else "generic"
    if kind == "generic":
        return random_text(rng, n, d), rng
    if kind == "classical":
        return random_classical_text(rng, n, d), rng
    if kind == "near_dependent":
        # the last state leaves the span of the others by about eps, so the
        # states' smallest singular value is near eps, above the rank cut of
        # numerical_rank: nearly dependent, yet independent
        eps = draw(st.sampled_from([1e-4, 1e-5, 1e-6]))
        base = random_text(rng, n - 1, d)
        mix = base.states @ (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
        last = mix / np.linalg.norm(mix) + eps * random_state(rng, d)
        return make_text(d, [*base.states.T, last / np.linalg.norm(last)]), rng
    u, k = random_unitary(rng, d), d // 2
    blocks = [u[:, :k] if i % 2 else u[:, k:] for i in range(n)]
    return make_text(d, [b @ random_state(rng, b.shape[1]) for b in blocks]), rng


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(texts_with_zero_overlaps(), st.floats(-1.0, 1.0))
def test_search_residual_matches_certificate_residual(drawn, big_q):
    text, rng = drawn
    obj = search._Objective(text)
    x = rng.standard_normal(obj.size)
    res, phases = obj.max_residual(x, big_q)
    params = EnscriptionParams.from_Q(big_q, obj.tablet(x), phases=phases)
    assert abs(res - enscription_residual(text, params)) < 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(texts_with_zero_overlaps(), st.one_of(st.none(), st.floats(-1.0, 1.0)))
def test_jacobian_matches_central_differences(drawn, big_q):
    text, rng = drawn
    obj = search._Objective(text)
    x = rng.standard_normal(obj.size + (big_q is None))
    # on the unit sphere, far from the origin; a joint Q well inside (-1, 1)
    x[: obj.size] /= np.linalg.norm(x[: obj.size])
    if big_q is None:
        x[-1] = rng.uniform(-1.3, 1.3)
    h = 1e-6
    steps = [h * e for e in np.eye(len(x))]
    diffs = np.column_stack(
        [(obj.residual_vector(x + e, big_q) - obj.residual_vector(x - e, big_q)) / (2 * h) for e in steps]
    )
    jac = obj.jacobian(x, big_q)
    assert jac.shape == diffs.shape
    assert np.max(np.abs(jac - diffs), initial=0.0) <= 1e-6 * max(1.0, np.max(np.abs(diffs), initial=0.0))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(texts_with_zero_overlaps(), st.one_of(st.none(), st.floats(-1.0, 1.0)))
def test_jacobian_annihilates_the_radial_and_global_phase_directions(drawn, big_q):
    # the residual depends on the tablet's ray only: neither its length nor a
    # global phase c -> e^{i phi} c moves a mismatch
    text, rng = drawn
    obj = search._Objective(text)
    x = rng.standard_normal(obj.size + (big_q is None))
    jac, k = obj.jacobian(x, big_q), obj.k
    radial, phase = np.zeros_like(x), np.zeros_like(x)
    radial[: obj.size] = x[: obj.size]
    phase[:k], phase[k: 2 * k] = -x[k: 2 * k], x[:k]
    bound = 1e-12 * np.max(np.abs(jac), initial=0.0)
    assert np.max(np.abs(jac @ radial), initial=0.0) <= bound
    assert np.max(np.abs(jac @ phase), initial=0.0) <= bound


@pytest.mark.parametrize("big_q", [None, 0.5])
@pytest.mark.parametrize(
    "text, at_origin",
    [(make_text(2, [[1, 0]]), False), (make_text(2, [[1, 0]]), True), (make_real_uniform(3, 0.3), True)],
    ids=["one-state", "one-state-origin", "three-state-origin"],
)
def test_jacobian_shapes_fit_the_solve(text, at_origin, big_q):
    obj = search._Objective(text)
    x = np.zeros(obj.size + (big_q is None))
    if not at_origin:
        x[0] = 1.0
    r, jac = obj.residual_vector(x, big_q), obj.jacobian(x, big_q)
    assert jac.shape == (len(r), len(x))
    end, evals = search._minimize_start(obj, x, big_q)
    assert end.shape == x.shape
    assert evals >= 1


@pytest.mark.parametrize("z", [0.5, 0.65, 0.75])
def test_infeasible_winner_survives_a_one_ulp_move_of_a_state(z):
    # most starts end on one floor up to rounding; the strict minimum of the
    # floor moved from start 31 to 15 at z = 0.65 and from 33 to 13 at 0.75
    text = make_real_uniform(2, z)
    below, above = closed_form_q_range(text).intervals
    big_q = below.upper + 0.4 * (above.lower - below.upper)
    states = text.states.copy()
    states[0, 1] = np.nextafter(states[0, 1].real, 2.0)
    moved = make_text(2, list(states.T))
    assert not np.array_equal(moved.states, text.states)
    a, b = (feasibility_search(t, big_q, SearchOptions(seed=0, starts=64)) for t in (text, moved))
    assert a.verdict == b.verdict == "infeasible"
    assert (a.start_index, a.Q) == (b.start_index, b.Q)


@pytest.mark.parametrize("n", [3, 4])
def test_search_coordinates_do_not_depend_on_the_rotation_of_a_text(n):
    # a uniform text's Gram matrix has a repeated eigenvalue, so an eigenbasis
    # of G would be picked by rounding; the Cholesky factor is unique
    base = make_real_uniform(n, 0.3)
    for seed in range(5):
        v = random_unitary(np.random.default_rng(seed), n)
        rotated = make_text(n, [v @ base.state(i) for i in range(n)])
        assert np.max(np.abs(search._Objective(rotated).factor - search._Objective(base).factor)) < 1e-12


@pytest.mark.parametrize(
    "options",
    [
        {"starts": 0},
        {"starts": -3},
        {"seed": -1},
        {"starts": 2.5},
        {"starts": float("inf")},
        {"starts": True},
        {"seed": 1.5},
        {"seed": float("nan")},
        {"seed": False},
    ],
)
def test_invalid_search_options_raise(options):
    # construction only: a search given an unbounded start count would append starts until memory runs out
    with pytest.raises(EnscribeError):
        SearchOptions(**options)


def test_search_options_take_numpy_integers():
    assert SearchOptions(seed=np.int64(3), starts=np.int32(5)) == SearchOptions(seed=3, starts=5)


def test_search_options_hold_only_seed_and_starts():
    # the acceptance line is certificates.ACCEPT_TOL, not an option
    assert [f.name for f in dataclasses.fields(SearchOptions)] == ["seed", "starts"]


@pytest.mark.parametrize("n, z", [(2, 0.5), (2, 0.3), (3, 0.3)])
def test_thick_text_at_q_minus_one_is_infeasible_not_degenerate(n, z):
    # a start on state i makes B_i = 1 + Q |a_i|^2 vanish; the tablet on a
    # state has matching residual 0 for a 2-text, but no entangled input
    result = feasibility_search(make_real_uniform(n, z), -1.0, SearchOptions(seed=0, starts=16))
    assert not result.feasible
    assert result.verdict == "infeasible"


@pytest.mark.parametrize("n, z", [(2, 0.5), (3, 0.3), (3, 1 - 5e-9), (4, 1 - 5e-9), (5, 1 - 2e-8)])
def test_thick_text_at_q_minus_one_runs_no_start(monkeypatch, n, z):
    calls = _count_starts(monkeypatch)
    result = feasibility_search(make_real_uniform(n, z), -1.0, SearchOptions(seed=0, starts=16))
    assert result == search.SearchResult(None, np.inf, "infeasible", -1.0, -1, 0)
    assert calls == []


def test_thin_two_text_certifies_at_q_minus_one_with_a_proper_tablet():
    base = make_real_uniform(2, 0.3)
    thin = make_text(3, [np.concatenate([base.state(i), [0.0]]) for i in range(2)])
    result = feasibility_search(thin, -1.0, SearchOptions(seed=0, starts=64))
    assert result.feasible
    cert = result.certificate
    assert min(input_normalizer(thin, i, cert.params.q, cert.params.tablet) for i in range(2)) > DEGENERATE_TOL
    assert verify_procedure(build_procedure(thin, cert), thin, cert) < 1e-8


def _padded_uniform(n, z, extra):
    """A real uniform N-text padded with zeros, plus the extra canonical vectors: a block text in C^(N+extra)."""
    base, d = make_real_uniform(n, z), n + extra
    padded = [np.concatenate([base.state(i), np.zeros(extra)]) for i in range(n)]
    return make_text(d, padded + [np.eye(d)[n + k] for k in range(extra)])


@pytest.mark.parametrize(
    "text, big_q, verdict, winner",
    [
        # the tablet's radial direction makes J^T J singular; an undamped solve raised LinAlgError
        (make_real_uniform(3, 0.3), -0.5, "feasible", (4, 197)),
        # Q = 0.3 lies outside the closed-form interval [0.1643, 0.1754]
        (make_real_uniform(3, -0.05), 0.3, "infeasible", None),
        (_padded_uniform(3, 0.3, 2), -0.5, "feasible", (5, 204)),
    ],
    ids=["uniform-feasible", "uniform-infeasible", "block-feasible"],
)
def test_fixed_q_search_on_a_singular_normal_matrix(text, big_q, verdict, winner):
    result = feasibility_search(text, big_q, SearchOptions(seed=0, starts=64))
    assert result.verdict == verdict
    assert result.feasible is (verdict == "feasible")
    if winner is not None:
        # (start index, evaluations over all starts run)
        assert (result.start_index, result.evaluations) == winner


@st.composite
def uniform_and_block_texts_at_q(draw):
    """A real uniform N-text, alone or padded into a block text, and a Q: inside one of the uniform
    text's closed-form intervals, where starts converge, or anywhere in [-1, 1] when there is none."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(2, 5))
    z = rng.uniform(max(-1.0 / (n - 1), -0.95), 0.95)
    intervals = closed_form_q_range(make_real_uniform(n, z)).intervals
    inside = intervals[rng.integers(len(intervals))] if intervals else None
    big_q = rng.uniform(inside.lower, inside.upper) if inside else rng.uniform(-1.0, 1.0)
    return _padded_uniform(n, z, int(rng.integers(0, 3))), big_q


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(uniform_and_block_texts_at_q())
def test_fixed_q_search_on_uniform_and_block_texts_raises_only_enscribe_errors(drawn):
    text, big_q = drawn
    try:
        feasibility_search(text, big_q, SearchOptions(seed=0, starts=8))
    except EnscribeError:
        pass


def test_starts_are_drawn_only_when_the_search_reaches_them():
    # this input certifies at start 0, so a large start count must cost nothing up front
    import tracemalloc

    text = make_real_uniform(2, 0.3)
    tracemalloc.start()
    try:
        result = feasibility_search(text, 0.8, SearchOptions(seed=0, starts=200_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.feasible, result.start_index) == (True, 0)
    assert peak < 4_000_000


@pytest.mark.parametrize("joint", [True, False])
def test_a_shorter_search_runs_a_prefix_of_a_longer_ones_starts(joint):
    obj = search._Objective(make_real_uniform(3, 0.3))
    # the states and their sum come first, then seeded random vectors from one stream
    short = list(search._starts_for(obj, SearchOptions(seed=5, starts=7), joint))
    long = list(search._starts_for(obj, SearchOptions(seed=5, starts=12), joint))
    assert (len(short), len(long)) == (7, 12)
    assert all(np.array_equal(a, b) for a, b in zip(short, long))
