"""Enscription parameters, entangled inputs, and the pairwise matching residual.

An enscription of a text {psi_i} onto a tablet psi_0 with deformation q is a
unitary on the doubled space sending each entangled input

    (psi_i (x) psi_0 + q psi_0 (x) psi_i) / sqrt(A_i),
    A_i = 1 + |q|^2 + 2 Re(q) |<psi_i|psi_0>|^2,

to alpha_i psi_i (x) psi_i with unit-modulus output phases alpha_i. Such a
unitary exists iff, for every pair i < j,

    z_ij + Q <psi_i|psi_0><psi_0|psi_j> = sqrt(B_i B_j) conj(alpha_i) alpha_j z_ij^2,

where z_ij = <psi_i|psi_j>, Q = 2 Re(q) / (1 + |q|^2) in [-1, 1] is the
entanglement parameter, and B_i = 1 + Q |<psi_i|psi_0>|^2. The residual of a
parameter set is the largest violation of that condition.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import linalg, texts
from .errors import DegenerateNormalizer, DimensionMismatch, InvalidCertificate, QOutOfRange

FLAVOR_TOL = 1e-8
DEGENERATE_TOL = 1e-9
# How far past 1 an |entanglement parameter| may round and still be read as one in [-1, 1].
CANONICAL_Q_TOL = 1e-12


def q_to_Q(q: complex) -> float:
    """Entanglement parameter 2 Re(q) / (1 + |q|^2) of a deformation q."""
    q = complex(q)
    return 2.0 * q.real / (1.0 + abs(q) ** 2)


def canonical_q(Q: float) -> float:
    """The real deformation in [-1, 1] realizing a given entanglement parameter."""
    Q = float(Q)
    if not abs(Q) <= 1.0 + CANONICAL_Q_TOL:
        raise QOutOfRange(f"entanglement parameter must lie in [-1, 1], got {Q}")
    Q = min(1.0, max(-1.0, Q))
    return Q / (1.0 + np.sqrt(max(0.0, 1.0 - Q * Q)))


@dataclass(frozen=True)
class EnscriptionParams:
    """Deformation q, entanglement parameter Q, tablet, and output phases."""

    q: complex
    Q: float
    tablet: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        if not cmath.isfinite(self.q):
            raise QOutOfRange(f"q must be finite, got {self.q}")
        # written as not (... <= tol) so that a NaN fails each check
        if not abs(q_to_Q(self.q) - self.Q) <= 1e-12:
            raise QOutOfRange("Q does not match 2 Re(q)/(1+|q|^2)")
        tab = np.asarray(self.tablet, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(tab))
        if not abs(norm - 1.0) <= 1e-9:
            raise DimensionMismatch(f"tablet must be unit norm, got {norm}")
        object.__setattr__(self, "tablet", linalg.unit(tab))
        ph = np.asarray(self.phases, dtype=complex).reshape(-1)
        mods = np.abs(ph)
        if ph.size and not np.max(np.abs(mods - 1.0)) <= 1e-9:
            raise DimensionMismatch("output phases must have modulus 1")
        # each phase is one column of a 1 x N row, so linalg.unit normalizes it by itself
        object.__setattr__(self, "phases", linalg.unit(ph[None, :])[0])

    @classmethod
    def from_q(cls, q: complex, tablet, phases=None, n_states: int | None = None) -> "EnscriptionParams":
        if phases is None:
            if n_states is None:
                raise DimensionMismatch("phases or n_states required")
            phases = np.ones(n_states, dtype=complex)
        return cls(complex(q), q_to_Q(q), np.asarray(tablet, dtype=complex), np.asarray(phases, dtype=complex))

    @classmethod
    def from_Q(cls, Q: float, tablet, phases=None, n_states: int | None = None) -> "EnscriptionParams":
        return cls.from_q(canonical_q(Q), tablet, phases, n_states)

    @property
    def n_states(self) -> int:
        return self.phases.shape[0]


# Residual below which a certificate is valid: the one acceptance line, which no parameter moves.
ACCEPT_TOL = 1e-8


@dataclass(frozen=True)
class EnscriptionCertificate:
    params: EnscriptionParams
    residual: float
    flavor: str

    def is_valid(self) -> bool:
        return self.residual < ACCEPT_TOL


def input_normalizer(text: texts.QuantumText, i: int, q: complex, tablet: np.ndarray) -> float:
    """A_i = 1 + |q|^2 + 2 Re(q) |<psi_i|psi_0>|^2."""
    return _normalizer(complex(q), abs(np.vdot(text.state(i), tablet)) ** 2)


def _normalizer(q: complex, overlap_sq):
    """A = 1 + |q|^2 + 2 Re(q) |<psi|psi_0>|^2 from |<psi|psi_0>|^2.

    Callers square Python's abs of the overlap: np.abs of a complex array
    rounds differently, and A would not keep its bits.
    """
    return 1.0 + abs(q) ** 2 + 2.0 * q.real * overlap_sq


def _nonvanishing(a, i: int):
    """The normalizer A of entangled input i, after DegenerateNormalizer if A is at or below DEGENERATE_TOL."""
    if a <= DEGENERATE_TOL:
        raise DegenerateNormalizer(f"entangled input {i} has vanishing norm (A={a:.3e})")
    return a


def _entangled(product: np.ndarray, swapped: np.ndarray, q: complex, a) -> np.ndarray:
    """(psi (x) psi_0 + q psi_0 (x) psi) / sqrt(A): the one home of the entangled-input formula.

    ``product`` is psi (x) psi_0 and ``swapped`` psi_0 (x) psi, for one state
    with its normalizer A, or as the rows of N x d^2 arrays with an N x 1
    array of normalizers.
    """
    # in place: product + q swapped, as a sum, has the same bits in either order
    omega = q * swapped
    omega += product
    omega /= np.sqrt(a)
    return omega


def _tablet(text: texts.QuantumText, tablet) -> np.ndarray:
    tab = np.asarray(tablet, dtype=complex).reshape(-1)
    if tab.shape[0] != text.dimension:
        raise DimensionMismatch("tablet length does not match the language dimension")
    return tab


def entangled_input(text: texts.QuantumText, i: int, q: complex, tablet) -> np.ndarray:
    """Normalized (psi_i (x) tablet + q tablet (x) psi_i) in the doubled space.

    Kronecker ordering: component index = a * d + b for the product of the
    a-th and b-th basis vectors.
    """
    tab = _tablet(text, tablet)
    q = complex(q)
    psi = text.state(i)
    a = _nonvanishing(_normalizer(q, abs(np.vdot(psi, tab)) ** 2), i)
    return _entangled(np.outer(psi, tab).ravel(), np.outer(tab, psi).ravel(), q, a)


def entangled_inputs(text: texts.QuantumText, q: complex, tablet) -> np.ndarray:
    """The entangled inputs of every state at once, as the rows of an N x d^2 array.

    Row i is entangled_input(text, i, q, tablet), bit for bit: each product
    and normalizer is formed the same way, broadcast over the states.
    """
    tab = _tablet(text, tablet)
    q = complex(q)
    # one np.vdot per state, as input_normalizer: a matrix-vector product rounds differently
    a = [_nonvanishing(_normalizer(q, abs(np.vdot(text.state(i), tab)) ** 2), i) for i in range(text.n_states)]
    states, row = text.states.T, tab[None, :]
    return _entangled(linalg.kron_rows(states, row), linalg.kron_rows(row, states), q, np.array(a)[:, None])


def _pair_mismatch(text: texts.QuantumText, params: EnscriptionParams) -> np.ndarray:
    g = texts.gram(text)
    ov = linalg.dagger(text.states) @ params.tablet
    b = 1.0 + params.Q * np.abs(ov) ** 2
    np.clip(b, 0.0, None, out=b)
    lhs = g + params.Q * np.outer(ov, ov.conj())
    rank_one = np.outer(params.phases.conj(), params.phases)
    return lhs - np.sqrt(np.outer(b, b)) * rank_one * g ** 2


def enscription_residual(text: texts.QuantumText, params: EnscriptionParams) -> float:
    """Largest pairwise violation of the matching condition; 0 means enscribable."""
    if params.n_states != text.n_states:
        raise DimensionMismatch("phases length does not match the state count")
    if params.tablet.shape[0] != text.dimension:
        raise DimensionMismatch("tablet length does not match the language dimension")
    n = text.n_states
    if n < 2:
        return 0.0
    m = _pair_mismatch(text, params)
    return float(np.max(np.abs(m[np.triu_indices(n, 1)])))


def residual_via_states(text: texts.QuantumText, params: EnscriptionParams) -> float:
    """Residual recomputed from explicit entangled inputs (independent route).

    Inner products of dense Kronecker vectors are compared with the required
    rank-one phase pattern; each pair mismatch is rescaled by sqrt(B_i B_j) so
    both routes express the violation in the same normalization.
    """
    n = text.n_states
    if n < 2:
        return 0.0
    omegas = entangled_inputs(text, params.q, params.tablet)
    g = texts.gram(text)
    ov = linalg.dagger(text.states) @ params.tablet
    b = np.clip(1.0 + params.Q * np.abs(ov) ** 2, 0.0, None)
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            mism = np.vdot(omegas[i], omegas[j]) - np.conj(params.phases[i]) * params.phases[j] * g[i, j] ** 2
            worst = max(worst, abs(mism) * np.sqrt(b[i] * b[j]))
    return float(worst)


def tablet_flavor(text: texts.QuantumText, tablet) -> str:
    """central / weakly_central / quasi_central / generic tablet-overlap pattern.

    Overlaps (or their moduli) that agree within FLAVOR_TOL count as equal.
    """
    tab = np.asarray(tablet, dtype=complex).reshape(-1)
    ov = linalg.dagger(text.states) @ tab
    n = ov.shape[0]
    if n <= 1:
        return "central"
    if np.max(np.abs(ov - ov[0])) < FLAVOR_TOL:
        return "central"
    if np.max(np.abs(np.abs(ov) - np.abs(ov[0]))) < FLAVOR_TOL:
        return "weakly_central"
    if n >= 3:
        for k in range(n):
            rest = np.delete(ov, k)
            if np.max(np.abs(rest - rest[0])) < FLAVOR_TOL:
                return "quasi_central"
    return "generic"


def certificate(text: texts.QuantumText, params: EnscriptionParams) -> EnscriptionCertificate:
    """Bundle parameters with their residual and tablet flavor."""
    return EnscriptionCertificate(
        params=params,
        residual=enscription_residual(text, params),
        flavor=tablet_flavor(text, params.tablet),
    )


def check_fit(text: texts.QuantumText, cert: EnscriptionCertificate) -> None:
    """InvalidCertificate unless ``cert`` has one output phase per state of ``text`` and a tablet in its language.

    The O(1) shape check that the procedure builder, its verifier and the
    cloning machine run first, so a certificate of another text fails as such
    instead of as a broadcast error or a result for the wrong states.
    """
    p = cert.params
    if p.n_states != text.n_states or p.tablet.shape[0] != text.dimension:
        raise InvalidCertificate(f"a certificate of {p.n_states} states in C^{p.tablet.shape[0]} does not fit "
                                 f"a text of {text.n_states} states in C^{text.dimension}")
