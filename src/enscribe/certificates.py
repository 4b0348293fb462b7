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

from dataclasses import dataclass

import numpy as np

from . import linalg, texts
from .errors import DegenerateNormalizer, DimensionMismatch, QOutOfRange

FLAVOR_TOL = 1e-8
DEGENERATE_TOL = 1e-9


def q_to_Q(q: complex) -> float:
    """Entanglement parameter 2 Re(q) / (1 + |q|^2) of a deformation q."""
    q = complex(q)
    return 2.0 * q.real / (1.0 + abs(q) ** 2)


def canonical_q(Q: float) -> float:
    """The real deformation in [-1, 1] realizing a given entanglement parameter."""
    Q = float(Q)
    if not abs(Q) <= 1.0 + 1e-12:
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
        # written as not (... <= tol) so that a NaN fails each check
        if not abs(q_to_Q(self.q) - self.Q) <= 1e-12:
            raise QOutOfRange("Q does not match 2 Re(q)/(1+|q|^2)")
        tab = np.asarray(self.tablet, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(tab))
        if not abs(norm - 1.0) <= 1e-9:
            raise DimensionMismatch(f"tablet must be unit norm, got {norm}")
        object.__setattr__(self, "tablet", tab / norm)
        ph = np.asarray(self.phases, dtype=complex).reshape(-1)
        mods = np.abs(ph)
        if ph.size and not np.max(np.abs(mods - 1.0)) <= 1e-9:
            raise DimensionMismatch("output phases must have modulus 1")
        object.__setattr__(self, "phases", ph / mods)

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


# Residual below which a certificate is valid; every accept_tol default reads it.
ACCEPT_TOL = 1e-8


@dataclass(frozen=True)
class EnscriptionCertificate:
    params: EnscriptionParams
    residual: float
    flavor: str

    def is_valid(self, accept_tol: float = ACCEPT_TOL) -> bool:
        return self.residual < accept_tol


def input_normalizer(text: texts.QuantumText, i: int, q: complex, tablet: np.ndarray) -> float:
    """A_i = 1 + |q|^2 + 2 Re(q) |<psi_i|psi_0>|^2."""
    q = complex(q)
    ov = np.vdot(text.state(i), tablet)
    return 1.0 + abs(q) ** 2 + 2.0 * q.real * abs(ov) ** 2


def entangled_input(text: texts.QuantumText, i: int, q: complex, tablet) -> np.ndarray:
    """Normalized (psi_i (x) tablet + q tablet (x) psi_i) in the doubled space.

    Kronecker ordering: component index = a * d + b for the product of the
    a-th and b-th basis vectors.
    """
    tab = np.asarray(tablet, dtype=complex).reshape(-1)
    if tab.shape[0] != text.dimension:
        raise DimensionMismatch("tablet length does not match the language dimension")
    if not 0 <= i < text.n_states:
        raise DimensionMismatch(f"state index {i} out of range")
    a = input_normalizer(text, i, q, tab)
    if a <= DEGENERATE_TOL:
        raise DegenerateNormalizer(f"entangled input {i} has vanishing norm (A={a:.3e})")
    psi = text.state(i)
    return (np.kron(psi, tab) + complex(q) * np.kron(tab, psi)) / np.sqrt(a)


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
    omegas = [entangled_input(text, i, params.q, params.tablet) for i in range(n)]
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
