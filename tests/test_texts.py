import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enscribe import (
    classify,
    equivalent,
    gram,
    make_real_uniform,
    make_text,
    texts,
    unitary_from_correspondence,
)
from enscribe.errors import ColinearPair, DimensionMismatch, GramMismatch, NonUnitState, SizeMismatch, ZOutOfRange
from enscribe.linalg import dialect_frame

from helpers import random_classical_text, random_state, random_text, random_unitary

Z_QUBIT = np.sqrt(3.0) - 2.0


def _qubit_pair():
    ap = np.sqrt((1 + Z_QUBIT) / 2)
    am = np.sqrt((1 - Z_QUBIT) / 2)
    return make_text(2, [[ap, am], [ap, -am]])


def test_make_text_orthonormal_pair():
    text = make_text(2, [[1, 0], [0, 1]])
    assert text.n_states == 2
    assert np.allclose(gram(text), np.eye(2))


def test_make_text_rejects_colinear_phase_copy():
    theta = 0.7
    with pytest.raises(ColinearPair):
        make_text(2, [[1, 0], [np.exp(1j * theta), 0]])


def test_make_text_rejects_non_unit():
    with pytest.raises(NonUnitState):
        make_text(2, [[1, 0], [0, 2.0]])
    with pytest.raises(NonUnitState):
        make_text(2, [[1, 0], [0, np.nan]])


def test_make_text_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        make_text(3, [[1, 0], [0, 1]])


@pytest.mark.parametrize(
    "indices",
    [[-1], [0, 0], [5], [], [1.5], [True], [np.float64(1.0)]],
    ids=["negative", "repeated", "past-the-end", "empty", "float", "bool", "numpy-float"],
)
def test_subtext_rejects_an_index_set_that_names_no_text(indices):
    # -1 would wrap to the last state, a repeat would make a colinear pair, which make_text forbids,
    # and int() would truncate 1.5 to state 1
    text = make_real_uniform(3, 0.3)
    with pytest.raises(DimensionMismatch, match="subtext indices"):
        text.subtext(indices)


@pytest.mark.parametrize("index", [1.0, True, -1, 3, np.float64(1.0), np.bool_(True)],
                         ids=["float", "bool", "negative", "past-the-end", "numpy-float", "numpy-bool"])
def test_state_takes_the_index_rule_of_subtext(index):
    # 1.0 used to raise IndexError and True to return a (d, 1, N) array
    text = make_real_uniform(3, 0.3)
    with pytest.raises(DimensionMismatch, match="state index"):
        text.state(index)
    with pytest.raises(DimensionMismatch, match="subtext indices"):
        text.subtext([index])


@pytest.mark.parametrize("index", [1, np.int64(1), np.int32(1)], ids=["int", "numpy-int64", "numpy-int32"])
def test_state_takes_integers_of_any_width(index):
    text = make_real_uniform(3, 0.3)
    assert text.state(index).tobytes() == text.states[:, 1].tobytes()
    assert text.subtext([index]).states.tobytes() == text.states[:, [1]].tobytes()


def test_qubit_pair_overlap():
    text = _qubit_pair()
    assert abs(gram(text)[0, 1] - Z_QUBIT) < 1e-12


def test_gram_matches_bruteforce_inner_products():
    rng = np.random.default_rng(4)
    text = random_text(rng, 4, 4)
    g = gram(text)
    for i in range(4):
        for j in range(4):
            # independent oracle: plain loop over components
            direct = sum(
                complex(text.state(i)[k]).conjugate() * complex(text.state(j)[k])
                for k in range(4)
            )
            assert abs(g[i, j] - direct) < 1e-12


def test_gram_hermitian_psd_unit_diag():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, d = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        text = random_text(rng, min(n, d + 2), d)
        g = gram(text)
        assert np.allclose(g, g.conj().T, atol=1e-12)
        assert np.allclose(np.diagonal(g).real, 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(g).min() > -1e-9


def test_triple_overlap_inequality():
    # |z12|^2 + |z23|^2 + |z31|^2 <= 1 + 2 Re(z12 z23 z31) on every 3-subset
    rng = np.random.default_rng(5)
    for _ in range(25):
        text = random_text(rng, 3, int(rng.integers(2, 5)))
        g = gram(text)
        lhs = abs(g[0, 1]) ** 2 + abs(g[1, 2]) ** 2 + abs(g[2, 0]) ** 2
        rhs = 1 + 2 * (g[0, 1] * g[1, 2] * g[2, 0]).real
        assert lhs <= rhs + 1e-9


def test_classify_orthonormal_basis():
    text = make_text(3, np.eye(3))
    cls = classify(text)
    assert cls.classical and cls.efficient and cls.thick
    assert not cls.fully_quantum
    assert cls.dialect_dimension == 3


def test_classify_one_zero_overlap():
    a, b = 0.4, np.sqrt(1 - 0.16)
    text = make_text(3, [[1, 0, 0], [a, b, 0], [0, a, b]])
    g = gram(text)
    assert abs(g[0, 2]) < 1e-12 and abs(g[0, 1]) > 0.1 and abs(g[1, 2]) > 0.1
    cls = classify(text)
    assert not cls.classical and not cls.fully_quantum
    assert cls.efficient


def test_classify_degenerate_uniform_not_efficient():
    text = make_real_uniform(3, -0.5)
    assert not classify(text).efficient


def test_two_texts_always_efficient():
    rng = np.random.default_rng(8)
    for _ in range(5):
        text = random_text(rng, 2, 2)
        assert classify(text).efficient


def test_make_real_uniform_orthonormal_at_zero():
    text = make_real_uniform(3, 0.0)
    assert np.allclose(gram(text), np.eye(3), atol=1e-12)


def test_make_real_uniform_target_overlap():
    g = gram(make_real_uniform(3, 0.5))
    off = g[np.triu_indices(3, 1)]
    assert np.max(np.abs(off - 0.5)) < 1e-12


def test_make_real_uniform_degenerate_simplex():
    text = make_real_uniform(4, -1.0 / 3.0)
    eigs = np.linalg.eigvalsh(gram(text))
    assert abs(eigs[0]) < 1e-10
    assert not classify(text).efficient


def test_make_real_uniform_range_errors():
    with pytest.raises(ZOutOfRange):
        make_real_uniform(3, 1.0)
    with pytest.raises(ZOutOfRange):
        make_real_uniform(3, -0.6)
    with pytest.raises(ZOutOfRange):
        make_real_uniform(2, -1.0)


def test_make_real_uniform_classification_sweep():
    for n in (3, 4):
        for z in np.arange(-1.0 / (n - 1) + 0.05, 0.95, 0.1):
            cls = classify(make_real_uniform(n, float(z)))
            assert cls.efficient
            assert cls.fully_quantum == (abs(z) > 1e-12)


def _random_image(rng, text):
    n, d = text.n_states, text.dimension
    v = random_unitary(rng, d)
    beta = np.exp(2j * np.pi * rng.random(n))
    perm = rng.permutation(n)
    return (
        make_text(d, [beta[i] * v @ text.state(perm[i]) for i in range(n)]),
        v,
        beta,
        perm,
    )


def test_classify_invariant_under_equivalence():
    rng = np.random.default_rng(13)
    for _ in range(10):
        text = random_text(rng, 3, 3)
        image, _, _, _ = _random_image(rng, text)
        assert classify(image) == classify(text)


def test_equivalent_to_itself():
    rng = np.random.default_rng(2)
    text = random_text(rng, 3, 3)
    witness = equivalent(text, text)
    assert witness is not None
    _check_witness(text, text, witness)


def test_equivalent_to_itself_with_more_states_than_dimensions():
    # the rotation comes from the rank-2 dialect frame, not from three columns
    text = make_text(2, [[1, 0], [0, 1], [0.6, 0.8]])
    witness = equivalent(text, text)
    assert witness is not None
    _check_witness(text, text, witness)


def _check_witness(ta, tb, witness):
    for i in range(ta.n_states):
        rebuilt = witness.phases[i] * witness.unitary @ tb.state(witness.permutation[i])
        assert np.linalg.norm(ta.state(i) - rebuilt) < 1e-7


def test_equivalent_recovers_random_transformation():
    rng = np.random.default_rng(21)
    for _ in range(6):
        text = random_text(rng, 3, 3)
        image, _, _, _ = _random_image(rng, text)
        witness = equivalent(image, text)
        assert witness is not None
        _check_witness(image, text, witness)


def test_equivalent_symmetry():
    rng = np.random.default_rng(31)
    text = random_text(rng, 3, 3)
    image, _, _, _ = _random_image(rng, text)
    assert equivalent(image, text) is not None
    assert equivalent(text, image) is not None


def test_equivalent_distinguishes_two_text_overlaps():
    a = make_real_uniform(2, 0.3)
    b = make_real_uniform(2, 0.4)
    assert equivalent(a, b) is None


def test_equivalent_matches_images_at_a_rounding_boundary():
    # |z| = 0.1234565 sits on a 6-decimal rounding boundary
    rng = np.random.default_rng(3)
    text = make_real_uniform(2, 0.1234565)
    for _ in range(50):
        image, _, _, _ = _random_image(rng, text)
        witness = equivalent(image, text)
        assert witness is not None
        _check_witness(image, text, witness)


@pytest.mark.parametrize("n", range(3, 9))
def test_equivalent_rejects_uniform_sign_partner(n, monkeypatch):
    # same |Gram| entries, but the Bargmann invariant z^3 changes sign, and with it the
    # Gram spectrum: the gate rejects the pair before the pairing search starts
    def no_search(graph):
        raise AssertionError("the pairing search ran")

    monkeypatch.setattr(texts, "spanning_forest", no_search)
    rng = np.random.default_rng(n)
    for z in (0.1, -0.1, 0.5 / (n - 1)):
        partner, _, _, _ = _random_image(rng, make_real_uniform(n, -z))
        assert equivalent(make_real_uniform(n, z), partner) is None


def test_equivalent_phases_two_overlap_components_joined_later():
    # |0> and |1> do not overlap; the third state fixes their relative phase (V = diag(1, i))
    s = 1 / np.sqrt(2)
    a = make_text(3, [[1, 0, 0], [0, 1, 0], [s, s, 0]])
    b = make_text(3, [[1, 0, 0], [0, 1, 0], [s, 1j * s, 0]])
    witness = equivalent(a, b)
    assert witness is not None
    _check_witness(a, b, witness)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_equivalent_matches_images_of_basis_vectors_plus_a_generic_state(n):
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    text = make_text(n, list(np.eye(n)[: n - 1]) + [v / np.linalg.norm(v)])
    for _ in range(5):
        image, _, _, _ = _random_image(rng, text)
        witness = equivalent(image, text)
        assert witness is not None
        _check_witness(image, text, witness)


def _conjugate_is_distinguishable(text):
    """Distinct pair moduli and a clearly complex Bargmann triple: no relabeling undoes conjugation."""
    g = gram(text)
    n = text.n_states
    mods = np.sort(np.abs(g[np.triu_indices(n, 1)]))
    triple = g[0, 1] * g[1, 2] * g[2, 0]
    return np.min(np.diff(mods)) > 1e-3 and abs(triple.imag) > 1e-3


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(2, 5), st.integers(0, 1), st.integers(0, 2**32 - 1))
def test_equivalent_witnesses_images_and_rejects_conjugates(n, extra, seed):
    rng = np.random.default_rng(seed)
    text = random_text(rng, n, n + extra)
    image, _, _, _ = _random_image(rng, text)
    witness = equivalent(image, text)
    assert witness is not None
    _check_witness(image, text, witness)
    if n >= 3:
        assume(_conjugate_is_distinguishable(text))
        conjugate, _, _, _ = _random_image(rng, make_text(text.dimension, text.states.conj().T))
        assert equivalent(conjugate, text) is None


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.integers(1, 6), st.integers(0, 1), st.sampled_from(["image", "perturbed", "conjugate", "unrelated"]),
       st.floats(-10.0, -7.0), st.booleans(), st.integers(0, 2**32 - 1))
def test_the_spectrum_gate_refuses_only_pairs_the_search_refuses(n, extra, kind, exponent, uniform, seed):
    # Weyl: a pairing the search accepts moves the Gram spectrum by less than n EQUIVALENCE_TOL
    rng = np.random.default_rng(seed)
    d = n + extra
    text = make_real_uniform(n, rng.uniform(-0.9 / max(n - 1, 1), 0.9)) if uniform and n > 1 else random_text(rng, n, d)
    if kind == "unrelated":
        other = random_text(rng, text.n_states, text.dimension)
    else:
        source = make_text(text.dimension, text.states.conj().T) if kind == "conjugate" else text
        other, _, _, _ = _random_image(rng, source)
    if kind == "perturbed":
        noise = rng.standard_normal(other.states.shape) + 1j * rng.standard_normal(other.states.shape)
        moved = other.states + 10.0 ** exponent * noise / np.linalg.norm(noise, axis=0)
        other = make_text(other.dimension, (moved / np.linalg.norm(moved, axis=0)).T)
    gated = equivalent(text, other)
    searched = texts._pairing(text, other, gram(text), gram(other))
    assert (gated is None) == (searched is None)
    if gated is not None:
        assert gated.permutation == searched.permutation
        assert np.array_equal(gated.phases, searched.phases)
        assert np.array_equal(gated.unitary, searched.unitary)


def _correspondence_pairing(text_a, text_b):
    """The witness search of equivalent with the rotation of linalg.unitary_from_correspondence, its earlier rule."""
    n, tol = text_a.n_states, texts.EQUIVALENCE_TOL
    za, zb = gram(text_a), gram(text_b)
    rows_a, rows_b = np.sort(np.abs(za), axis=1), np.sort(np.abs(zb), axis=1)
    allowed = np.max(np.abs(rows_a[:, None, :] - rows_b[None, :, :]), axis=2) <= tol
    order = [i for i, _ in texts.spanning_forest(np.abs(za) > tol)]
    perm, beta = [-1] * n, np.ones(n, dtype=complex)

    def witness():
        sources = [text_b.state(k) for k in perm]
        targets = [np.conj(beta[i]) * text_a.state(i) for i in range(n)]
        try:
            w = unitary_from_correspondence(sources, targets, text_a.dimension, gram_tol=tol)
        except GramMismatch:
            return None
        v = w.apply(np.eye(text_a.dimension))
        err = max(np.linalg.norm(text_a.state(i) - beta[i] * v @ text_b.state(k)) for i, k in enumerate(perm))
        return (tuple(perm), beta.copy()) if err < tol * 10 else None

    def extend(depth):
        if depth == n:
            return witness()
        i, earlier = order[depth], order[:depth]
        for k in range(n):
            if k in perm or not allowed[i, k]:
                continue
            b = next((beta[j] * za[j, i] / zb[perm[j], k] for j in earlier
                      if abs(za[j, i]) > tol and abs(zb[perm[j], k]) > tol), 1.0 + 0j)
            beta[i] = b / abs(b)
            if all(abs(za[j, i] - np.conj(beta[j]) * beta[i] * zb[perm[j], k]) <= tol for j in earlier):
                perm[i] = k
                found = extend(depth + 1)
                if found is not None:
                    return found
                perm[i] = -1
        return None

    return extend(0)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(1, 6), st.integers(-1, 1), st.sampled_from(["image", "perturbed", "conjugate", "unrelated"]),
       st.floats(-10.0, -7.0), st.booleans(), st.integers(0, 2**32 - 1))
def test_the_procrustes_witness_agrees_with_the_correspondence_witness(n, extra, kind, exponent, near_dependent,
                                                                      seed):
    # thin texts (extra = 1) and more states than dimensions (extra = -1) included
    rng = np.random.default_rng(seed)
    d = max(n + extra, min(n, 2))
    text = random_text(rng, n, d)
    if near_dependent and 3 <= n <= d:
        # the last state within 10^exponent of the span of the others
        mix = text.states[:, :-1] @ (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
        last = mix / np.linalg.norm(mix) + 10.0 ** exponent * random_text(rng, 1, d).states[:, 0]
        text = make_text(d, list(text.states[:, :-1].T) + [last / np.linalg.norm(last)])
    if kind == "unrelated":
        other = random_text(rng, n, d)
    else:
        source = make_text(d, text.states.conj().T) if kind == "conjugate" else text
        other, _, _, _ = _random_image(rng, source)
    if kind == "perturbed":
        noise = rng.standard_normal(other.states.shape) + 1j * rng.standard_normal(other.states.shape)
        moved = other.states + 10.0 ** exponent * noise / np.linalg.norm(noise, axis=0)
        other = make_text(d, (moved / np.linalg.norm(moved, axis=0)).T)
    witness = equivalent(text, other)
    earlier = _correspondence_pairing(text, other)
    assert (witness is None) == (earlier is None)
    if witness is not None:
        assert witness.permutation == earlier[0]
        assert np.array_equal(witness.phases, earlier[1])
        rebuilt = witness.phases * (witness.unitary @ other.states[:, list(witness.permutation)])
        assert np.linalg.norm(text.states - rebuilt, axis=0).max() < 10 * texts.EQUIVALENCE_TOL


def test_equivalent_size_mismatch():
    with pytest.raises(SizeMismatch):
        equivalent(make_real_uniform(2, 0.3), make_real_uniform(3, 0.3))


@pytest.mark.parametrize(
    "n, edges, forest",
    [
        # a breadth-first forest from 0 would hang 6 on 5; here 1 is taken first
        (7, [(0, 2), (0, 5), (1, 2), (5, 6), (1, 6)],
         [(0, None), (2, 0), (1, 2), (5, 0), (6, 1), (3, None), (4, None)]),
        (4, [(i, j) for i in range(4) for j in range(i)], [(0, None), (1, 0), (2, 0), (3, 0)]),
    ],
    ids=["sparse", "complete"],
)
def test_spanning_forest_takes_the_lowest_neighbour_of_the_taken_states_next(n, edges, forest):
    graph = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        graph[i, j] = graph[j, i] = True
    assert texts.spanning_forest(graph) == forest


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(1, 5), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_overlap_graph_is_a_symmetric_threshold_of_the_gram_matrix(n, extra, seed):
    rng = np.random.default_rng(seed)
    # classical texts give exact zeros, random ones none
    text = (random_classical_text if seed % 2 else random_text)(rng, n, n + extra)
    graph = texts.overlap_graph(text)
    upper = np.triu_indices(n, 1)
    assert np.array_equal(graph, graph.T)
    assert not np.diagonal(graph).any()
    assert np.array_equal(graph[upper], np.abs(gram(text)[upper]) > texts.DEFAULT_TOL)
    # every parent in the forest is an earlier neighbour
    forest = texts.spanning_forest(graph)
    taken = [i for i, _ in forest]
    assert sorted(taken) == list(range(n))
    for pos, (i, parent) in enumerate(forest):
        assert parent is None or (graph[parent, i] and parent in taken[:pos])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(1, 7), st.integers(0, 2), st.sampled_from(["complex", "real", "near_parallel", "near_dependent"]),
       st.floats(np.log10(2e-9), -3.0), st.sampled_from([1e-4, 1e-5, 1e-6]), st.integers(0, 2**32 - 1))
def test_classify_and_dialect_frame_count_one_rank(n, extra, kind, log_gap, eps, seed):
    # one rank on one scale: the dialect classify counts is the frame dialect_frame keeps
    rng = np.random.default_rng(seed)
    d = n + extra
    if kind == "near_parallel":
        # real uniform overlap z = 1 - 10^log_gap, so 1 - z runs over [2e-9, 1e-3]
        text = make_real_uniform(n, 1.0 - 10.0 ** log_gap)
    elif kind == "near_dependent" and n >= 3:
        # the last state leaves the span of the others by about eps, as tests/test_search.py builds it
        base = random_text(rng, n - 1, d)
        mix = base.states @ (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
        last = mix / np.linalg.norm(mix) + eps * random_state(rng, d)
        text = make_text(d, [*base.states.T, last / np.linalg.norm(last)])
    elif kind == "real":
        text = make_text(d, [v / np.linalg.norm(v) for v in rng.standard_normal((n, d))])
    else:
        text = random_text(rng, n, d)
    cls = classify(text)
    assert cls.dialect_dimension == dialect_frame(text.states).shape[1]
    assert cls.efficient == (cls.dialect_dimension == text.n_states)
