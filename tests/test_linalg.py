import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enscribe import (
    EnscriptionParams,
    certificate,
    make_real_uniform,
    make_text,
    solve_real_uniform_central,
    solve_two_text,
)
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


def _mean_gram_frames(r_a, r_b):
    """Both families' dialect frames from one eigh (w, E) of the mean Gram matrix of their coordinates,
    polar(R E_r w_r^-1/2) over the eigenvalues numerical_rank counts: the construction before each family
    took its own polar factor, kept as the accuracy yardstick."""
    from enscribe import linalg

    w, e = np.linalg.eigh(0.5 * (r_a.conj().T @ r_a + r_b.conj().T @ r_b))
    keep = w.size - linalg.numerical_rank(w)
    frames = []
    for r in (r_a, r_b):
        u, _, vh = np.linalg.svd(r @ (e[:, keep:] / np.sqrt(w[keep:])), full_matrices=False)
        frames.append(u @ vh)
    return frames


def _own_polar_frames(r_a, r_b):
    """Each family's frame U_r V_r^dag from one SVD of its own coordinates, r = numerical_rank of its
    singular values."""
    from enscribe import linalg

    frames = []
    for r in (r_a, r_b):
        u, s, vh = np.linalg.svd(r, full_matrices=False)
        rank = linalg.numerical_rank(s)
        frames.append(u[:, :rank] @ vh[:rank])
    return frames


def _qr_reference(inputs, outputs, frames):
    """unitary_from_correspondence as one Householder QR of the stack [inputs | outputs] gives it, the
    one route it had before the Gram route, with the dialect frames ``frames`` takes from the coordinates."""
    from enscribe import linalg

    a, b = np.asarray(inputs, dtype=complex), np.asarray(outputs, dtype=complex)
    n = a.shape[0]
    v, r = np.linalg.qr(np.concatenate([a, b]).T)
    a_in, b_in = frames(r[:, :n], r[:, n:])
    eye = np.eye(v.shape[1])
    off_a, off_b = eye - a_in @ a_in.conj().T, eye - b_in @ b_in.conj().T
    left, _, right = np.linalg.svd(b_in @ a_in.conj().T + off_b @ off_a)
    return linalg.SpanUnitary(v, left @ right)


def _record(monkeypatch, name):
    """Every call of np.linalg.<name> from here on, as (shape of its array, the array, its result)."""
    calls = []
    original = getattr(np.linalg, name)

    def recorded(a, *args, **kwargs):
        result = original(a, *args, **kwargs)
        calls.append((np.shape(a), a, result))
        return result

    monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def test_a_well_conditioned_correspondence_takes_its_frame_from_one_eigh_of_its_gram_matrix(monkeypatch):
    # no QR runs and no SVD has more than 2N rows: the frame is X E Lambda^-1/2 for the one
    # eigh E Lambda E^dag of the 2N x 2N Gram matrix K = X^dag X of X = [inputs | outputs], the
    # only eigh that runs; each dialect frame comes from an SVD of a 2N x N coordinate block
    from enscribe import linalg

    rng = np.random.default_rng(5)
    dim, n = 36, 3
    inputs = random_unitary(rng, dim)[:, :n].T
    outputs = inputs @ random_unitary(rng, dim).T
    qr, svd, eigh = (_record(monkeypatch, name) for name in ("qr", "svd", "eigh"))
    w = linalg.unitary_from_correspondence(inputs, outputs, dim)
    assert qr == []
    assert svd and max(shape[0] for shape, _, _ in svd) <= 2 * n
    ((shape, k, (lam, e)),) = eigh
    assert shape == (2 * n, 2 * n)
    x = np.concatenate([inputs, outputs]).T
    assert np.max(np.abs(k - x.conj().T @ x)) < 1e-14
    assert np.array_equal(w.frame, x @ (e / np.sqrt(lam)))
    assert w.frame.shape == (dim, 2 * n)
    assert max(np.linalg.norm(w.apply(a) - b) for a, b in zip(inputs, outputs)) < 1e-12


@pytest.mark.parametrize("case", ["rank-deficient", "near-parallel"])
def test_an_ill_conditioned_correspondence_keeps_the_bits_of_one_qr(monkeypatch, case):
    # below the line, where the Gram frame would lose orthonormality, one Householder QR of the
    # dim x 2N stack runs as it always has, and the factors keep its bits and those of each
    # family's own polar frame
    from enscribe import linalg, procedures

    if case == "rank-deficient":  # an orthonormal text with the tablet on state 0: input 0 is parallel to clone 0
        text = make_text(3, np.eye(3))
        cert = certificate(text, EnscriptionParams.from_q(0.6, text.state(0), n_states=3))
    else:  # the near-parallel band: lambda_min / lambda_max of K is at rounding level
        text, cert = make_real_uniform(2, 1 - 5e-9), solve_real_uniform_central(2, 1 - 5e-9)
    inputs, clones = procedures._inputs_and_clones(text, cert.params)
    dim, n = text.dimension ** 2, text.n_states
    qr = _record(monkeypatch, "qr")
    w = linalg.unitary_from_correspondence(inputs, clones, dim, gram_tol=max(linalg.GRAM_TOL, 10 * cert.residual))
    assert [shape for shape, _, _ in qr] == [(dim, 2 * n)]
    monkeypatch.undo()
    ref = _qr_reference(inputs, clones, _own_polar_frames)
    assert np.array_equal(w.frame, ref.frame) and np.array_equal(w.block, ref.block)


def _procedure_clone_pool(seed):
    """The texts and certificates of bench/workloads.py's procedure-clone pool for one seed."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("bench_workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    rounds = workloads.ProcedureClone().rounds(np.random.default_rng(seed), 4, None)
    return [(item["text"], item["cert"]) for items in rounds for item in items]


def _uniform_and_two_texts(d):
    """Central uniform d-texts and rotated 2-texts in C^d, on both sides of the line."""
    cases = [(make_real_uniform(d, z), solve_real_uniform_central(d, z)) for z in (0.1, 0.3, 0.6, 0.9, 0.99)]
    v = random_unitary(np.random.default_rng(d), d)
    for z in (-0.9, -0.4, 0.2, 0.7, 0.999):
        two = make_text(d, [v[:, 0], z * v[:, 0] + np.sqrt(1.0 - z * z) * v[:, 1]])
        cases.append((two, solve_two_text(two)))
    return cases


def _defects(w, inputs, clones):
    """The action error max_i ||W a_i - b_i|| and the frame defect ||V^dag V - I|| of factors W."""
    action = float(np.linalg.norm(w.apply(inputs.T) - clones.T, axis=0).max())
    return action, float(np.linalg.norm(w.frame.conj().T @ w.frame - np.eye(w.frame.shape[1])))


@pytest.mark.parametrize(
    "cases",
    [pytest.param(lambda d=d: _uniform_and_two_texts(d), id=f"d{d}") for d in (2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 40, 48)]
    + [pytest.param(lambda seed=seed: _procedure_clone_pool(seed), id=f"pool-seed{seed}") for seed in range(1, 11)],
)
def test_the_gram_route_is_as_accurate_as_the_qr_route(cases):
    # on either side of the line the action error and the frame defect ||V^dag V - I|| stay within
    # 1e-12 of those of one QR with the mean-Gram frames, and the procedure verifies far below the
    # acceptance line
    from enscribe import procedures

    for text, cert in cases():
        assert cert.is_valid()
        u = procedures.build_procedure(text, cert)
        inputs, clones = procedures._inputs_and_clones(text, cert.params)
        old = _qr_reference(inputs, clones, _mean_gram_frames)
        new, ref = _defects(u, inputs, clones), _defects(old, inputs, clones)
        assert max(abs(a - b) for a, b in zip(new, ref)) <= 1e-12, (text.dimension, text.n_states, new, ref)
        assert procedures.verify_procedure(u, text, cert) < 1e-8
