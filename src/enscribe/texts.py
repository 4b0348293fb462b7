"""Finite sets of quantum states: validation, Gram data, classification, equivalence.

A "text" is a finite ordered set of normalized, pairwise non-colinear vectors in
a complex inner-product space (its "language"). The span of the states is the
"dialect"; a text whose dialect fills the language is "thick".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    ColinearPair,
    DimensionMismatch,
    NonUnitState,
    SizeMismatch,
    ZOutOfRange,
)

# Overlap modulus below which two states count as orthogonal; also the norm
# and colinearity margin of make_text.
DEFAULT_TOL = 1e-9
# Gram-entry and rebuild tolerance of equivalent.
EQUIVALENCE_TOL = 1e-8


@dataclass(frozen=True)
class QuantumText:
    """N pairwise non-colinear unit vectors in a d-dimensional complex space.

    ``states`` holds the vectors column-wise: ``states[:, i]`` is state i.
    Instances are built through :func:`make_text`, which validates the
    invariants (unit norms, no colinear pair).
    """

    dimension: int
    states: np.ndarray

    @property
    def n_states(self) -> int:
        return self.states.shape[1]

    def state(self, i: int) -> np.ndarray:
        """State i for an integer 0 <= i < N (_is_index); any other index raises DimensionMismatch."""
        if not _is_index(i, self.states.shape[1]):
            raise DimensionMismatch(f"state index {i!r} must be an integer in range({self.states.shape[1]})")
        return self.states[:, i]

    def subtext(self, indices) -> "QuantumText":
        """The states at ``indices``, in that order: a nonempty set of distinct indices that state
        accepts, so the subtext keeps make_text's invariants; any other index set raises DimensionMismatch."""
        idx = list(indices)
        n = self.states.shape[1]
        if not idx or not all(_is_index(i, n) for i in idx) or len(set(idx)) != len(idx):
            raise DimensionMismatch(f"subtext indices {idx} must be distinct integers in range({n}), at least one")
        return QuantumText(self.dimension, self.states[:, [int(i) for i in idx]].copy())


def _is_index(i, n: int) -> bool:
    """Whether i indexes one of n states: an int or numpy integer in range(n); a bool, a float and a
    negative index are not."""
    return isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < n


@dataclass(frozen=True)
class TextClassification:
    classical: bool
    fully_quantum: bool
    efficient: bool
    thick: bool
    dialect_dimension: int


@dataclass(frozen=True)
class EquivalenceWitness:
    """Witness that textA equals textB after relabeling, phases, and a rotation.

    Semantics: ``A.state(i) == phases[i] * unitary @ B.state(permutation[i])``.
    """

    permutation: tuple
    phases: np.ndarray
    unitary: np.ndarray


def make_text(dimension: int, raw_states) -> QuantumText:
    """Validate raw vectors into a QuantumText.

    States whose norm deviates from 1 by less than DEFAULT_TOL are normalized by
    linalg.unit, so a text's own states rebuild it bit for bit; larger deviations
    raise NonUnitState. An overlap modulus of at least ``1 - DEFAULT_TOL`` raises ColinearPair.
    """
    if dimension < 1:
        raise DimensionMismatch("dimension must be >= 1")
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in raw_states]
    if not vecs:
        raise DimensionMismatch("a text needs at least one state")
    for k, v in enumerate(vecs):
        if v.shape[0] != dimension:
            raise DimensionMismatch(f"state {k} has length {v.shape[0]}, expected {dimension}")
        norm = float(np.linalg.norm(v))
        if not abs(norm - 1.0) < DEFAULT_TOL:
            raise NonUnitState(f"state {k} has norm {norm}")
    mat = linalg.unit(np.column_stack(vecs))
    g = linalg.dagger(mat) @ mat
    n = mat.shape[1]
    for i in range(n):
        for j in range(i + 1, n):
            if abs(g[i, j]) >= 1.0 - DEFAULT_TOL:
                raise ColinearPair(f"states {i} and {j} are colinear (|overlap|={abs(g[i, j]):.12f})")
    return QuantumText(dimension, mat)


def gram(text: QuantumText) -> np.ndarray:
    """Matrix of pairwise overlaps <psi_i|psi_j>; Hermitian, unit diagonal, PSD."""
    return linalg.dagger(text.states) @ text.states


def overlap_graph(text: QuantumText) -> np.ndarray:
    """Which states overlap: True off the diagonal where |<psi_i|psi_j>| > DEFAULT_TOL.

    The one line between zero and nonzero overlaps. The pair i < j is judged
    by G[i, j], whose modulus can differ from G[j, i]'s in the last bit.
    """
    upper = np.triu(np.abs(gram(text)) > DEFAULT_TOL, 1)
    return upper | upper.T


def spanning_forest(graph) -> list:
    """(state, parent) pairs in spanning-forest order of a boolean graph.

    The lowest state next to one already taken comes next, with its first
    neighbour in that order as its parent; else the lowest state left starts
    a new tree, with parent None. Every parent precedes its children.
    """
    forest, rest = [], list(range(len(graph)))
    while rest:
        step = next(((i, p) for i in rest for p, _ in forest if graph[p][i]), (rest[0], None))
        forest.append(step)
        rest.remove(step[0])
    return forest


def classify(text: QuantumText) -> TextClassification:
    """Flags: pairwise-orthogonal, pairwise-overlapping, linearly independent, spanning.

    Which pairs overlap comes from overlap_graph. The dialect dimension is
    linalg.numerical_rank of the states' singular values; make_text's
    colinearity margin keeps the second one of a valid text above
    sqrt(DEFAULT_TOL), far above that cut, so one or two states are always
    independent.
    """
    n = text.n_states
    edges = int(overlap_graph(text).sum())
    dialect_dim = linalg.numerical_rank(np.linalg.svd(text.states, compute_uv=False))
    return TextClassification(
        classical=edges == 0,
        fully_quantum=edges == n * (n - 1),
        efficient=dialect_dim == n,
        thick=dialect_dim == text.dimension,
        dialect_dimension=dialect_dim,
    )


def make_real_uniform(n_states: int, z: float) -> QuantumText:
    """N unit vectors in dimension N with constant real pairwise overlap z.

    Built as columns of the principal square root of (1-z) I + z J; for
    z = -1/(N-1) the states span only N-1 dimensions.
    """
    n = int(n_states)
    if n < 1:
        raise DimensionMismatch("n_states must be >= 1")
    if n == 1:
        return make_text(1, [[1.0]])
    z = float(z)
    lo = -1.0 / (n - 1)
    if not (lo <= z < 1.0) or abs(z) >= 1.0 - DEFAULT_TOL:
        raise ZOutOfRange(f"need -1/(N-1) <= z < 1 with |z| < 1, got {z}")
    lam = 1.0 + (n - 1) * z
    a = np.sqrt(1.0 - z)
    b = (np.sqrt(lam) - a) / n
    root = a * np.eye(n) + b * np.ones((n, n))
    return make_text(n, [root[:, i] for i in range(n)])


def equivalent(text_a: QuantumText, text_b: QuantumText):
    """Witness that text_a and text_b agree up to permutation, phases, and a unitary.

    Returns an EquivalenceWitness or None; tol is EQUIVALENCE_TOL. Texts whose
    ascending Gram spectra differ by more than n tol (plus n^2 eps of
    eigensolver rounding) are inequivalent: by Weyl's inequality a pairing the
    search accepts, whose Gram entries agree within tol, moves each eigenvalue
    by at most sqrt(n(n-1)) tol, so the gate refuses no pair the search would
    accept.

    The search assigns the states of text_a in spanning_forest order of the
    |z_a| > tol graph, each to an unused state k of text_b in ascending order,
    with its phase beta_i fixed by its first earlier neighbour (1 for the first
    state of a component); a pair is kept only if every earlier overlap agrees
    within tol. Pairs whose sorted row moduli differ by more than tol are never
    tried, since sorting is 1-Lipschitz in the max norm. A complete assignment
    gives V, the orthogonal Procrustes rotation of the paired states of text_b
    onto the unphased states of text_a, returned if it rebuilds text_a within
    10 tol; otherwise the search backtracks. For generic texts the order is
    0..N-1 and the first witness in lexicographic order is returned.
    """
    if text_a.dimension != text_b.dimension or text_a.n_states != text_b.n_states:
        raise SizeMismatch("texts must share the state count and language dimension")
    n = text_a.n_states
    za, zb = gram(text_a), gram(text_b)
    gap = np.max(np.abs(np.linalg.eigvalsh(za) - np.linalg.eigvalsh(zb)))
    if not gap <= n * (EQUIVALENCE_TOL + n * np.finfo(float).eps):
        return None
    return _pairing(text_a, text_b, za, zb)


def _pairing(text_a: QuantumText, text_b: QuantumText, za: np.ndarray, zb: np.ndarray):
    """The witness search of equivalent without its spectrum gate; za and zb are the texts' Gram matrices."""
    n, tol = text_a.n_states, EQUIVALENCE_TOL
    rows_a, rows_b = np.sort(np.abs(za), axis=1), np.sort(np.abs(zb), axis=1)
    allowed = np.max(np.abs(rows_a[:, None, :] - rows_b[None, :, :]), axis=2) <= tol
    order = [i for i, _ in spanning_forest(np.abs(za) > tol)]
    perm = [-1] * n  # perm[i]: the state of text_b paired with state i of text_a
    beta = np.ones(n, dtype=complex)

    def witness():
        # candidate relation: text_a.state(i) == beta_i * V @ text_b.state(perm[i]), with V the
        # Procrustes rotation of the paired states; the full SVD pairs any null directions itself
        paired = text_b.states[:, perm]
        u, _, vh = np.linalg.svd((text_a.states * np.conj(beta)) @ linalg.dagger(paired))
        v = u @ vh
        err = np.linalg.norm(text_a.states - beta * (v @ paired), axis=0).max()
        return EquivalenceWitness(tuple(perm), beta, v) if err < tol * 10 else None

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
