"""Probabilistic cloning machine built from an enscription.

An auxiliary qubit, a controlled swap of the two registers, and a projective
measurement convert a product input psi_i (x) psi_0 into the entangled input
of the enscription with success probability p_i = A_i / (1 + |q|)^2; applying
the procedure on success yields a perfect clone. Tensor order throughout is
ancilla (x) copy-1 (x) copy-2.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import linalg, procedures, texts
from .certificates import (
    ACCEPT_TOL,
    DEGENERATE_TOL,
    EnscriptionCertificate,
    EnscriptionParams,
    _entangled,
    _nonvanishing,
    _normalizer,
    certificate,
)
from .errors import ComplexQ, InvalidCertificate, QOutOfRange, QZero, ZOutOfRange


@dataclass(frozen=True)
class AncillaStates:
    """Preparation state and the orthogonal success/failure pointer states.

    ``xi`` is weighted so that the controlled swap output splits exactly into
    sqrt(p) eta (x) Omega(q) + sqrt(1-p) chi (x) Omega(-q/|q|); at |q| = 1 it
    reduces to the balanced superposition (|0> + q |1>)/sqrt(2).
    """

    xi: np.ndarray
    eta: np.ndarray
    chi: np.ndarray


@dataclass(frozen=True)
class CloneOutcome:
    index: int
    p_success: float
    success_state: np.ndarray
    failure_state: np.ndarray | None
    final_clone: np.ndarray
    fidelity: float


@dataclass(frozen=True)
class FailureSymmetryReport:
    expected_parity: int | None
    parity_ok: bool
    deviation: float


@dataclass(frozen=True)
class SaturationReport:
    overlap: float
    bound: float
    probabilities: tuple
    saturated: bool


def ancilla_states(q: complex) -> AncillaStates:
    q = complex(q)
    if not cmath.isfinite(q):
        raise QOutOfRange(f"ancilla states need a finite q, got {q}")
    if abs(q) == 0.0:
        raise QZero("ancilla states are undefined at q = 0")
    mod = abs(q)
    xi = np.array([1.0, q / np.sqrt(mod)], dtype=complex) / np.sqrt(1.0 + mod)
    eta = np.array([1.0, np.sqrt(mod)], dtype=complex) / np.sqrt(1.0 + mod)
    chi = np.array([np.sqrt(mod), -1.0], dtype=complex) / np.sqrt(1.0 + mod)
    return AncillaStates(xi, eta, chi)


def controlled_swap(dim: int) -> np.ndarray:
    """Unitary involution exchanging the two registers when the ancilla is |1>."""
    cswap = np.eye(2 * dim * dim, dtype=complex)
    cswap[dim * dim :] = linalg.swap_factors(cswap[dim * dim :], dim)
    return cswap


def real_q_success_probability(text: texts.QuantumText, params: EnscriptionParams, i: int) -> float | None:
    """(1 + Q|<psi_i|psi_0>|^2) / (1 + |Q|), the form of p_i for real q; None for complex q."""
    if abs(complex(params.q).imag) >= 1e-12:
        return None
    ov = abs(np.vdot(text.state(i), params.tablet)) ** 2
    return (1.0 + params.Q * ov) / (1.0 + abs(params.Q))


@dataclass(frozen=True)
class _Split:
    """State i under the controlled swap: q, psi (x) psi_0, psi_0 (x) psi, A at q, p_i = A / (1 + |q|)^2,
    its real-q form (None for complex q), and the failure input at -q/|q| (None when its normalizer is at
    or below DEGENERATE_TOL, the line of every entangled input)."""

    q: complex
    psi_tab: np.ndarray
    tab_psi: np.ndarray
    a: float
    prob: float
    p_real: float | None
    omega_fail: np.ndarray | None


def _split(text: texts.QuantumText, params: EnscriptionParams, i: int) -> _Split:
    """State i's split, derived once for run_clone and the parity check.

    QZero at q = 0, where the machine is undefined; InvalidCertificate if p_i
    misses the real-q form by 1e-10.
    """
    q = complex(params.q)
    if abs(q) == 0.0:
        raise QZero("the cloning machine is undefined at q = 0")
    psi, tab = text.state(i), params.tablet
    psi_tab, tab_psi = np.outer(psi, tab).ravel(), np.outer(tab, psi).ravel()
    overlap_sq = abs(np.vdot(psi, tab)) ** 2
    a = _normalizer(q, overlap_sq)
    prob = a / (1.0 + abs(q)) ** 2
    p_real = real_q_success_probability(text, params, i)
    if p_real is not None and not abs(prob - p_real) < 1e-10:
        raise InvalidCertificate(f"real-q probability forms disagree for state {i}: {prob!r} vs {p_real!r}")
    q_fail = -q / abs(q)
    a_fail = _normalizer(q_fail, overlap_sq)
    omega_fail = _entangled(psi_tab, tab_psi, q_fail, a_fail) if a_fail > DEGENERATE_TOL else None
    return _Split(q, psi_tab, tab_psi, a, float(prob), p_real, omega_fail)


def run_clone(
    text: texts.QuantumText,
    cert: EnscriptionCertificate,
    i: int,
    procedure: linalg.SpanUnitary,
) -> CloneOutcome:
    """Exact state-vector run of the machine on state i, post-selected on success.

    Prepares the ancilla, applies the controlled swap to
    xi (x) psi_i (x) tablet, verifies the orthogonal success/failure
    decomposition, and applies the enscription procedure (from
    procedures.build_procedure, built once per certificate) on the success
    branch in O(d^2 N); the failure branch state is also recorded (None when
    _split has no failure input). The split, p_i and the failure input come from _split; the
    success input is built from its products and A. Raises DimensionMismatch
    unless the procedure is a SpanUnitary on C^d (x) C^d.
    """
    if not cert.is_valid():
        raise InvalidCertificate(f"certificate residual {cert.residual:.3e} above {ACCEPT_TOL:.1e}")
    p = cert.params
    split = _split(text, p, i)
    anc = ancilla_states(split.q)
    # controlled_swap(d) @ kron(xi, psi (x) tablet): the ancilla-|1> half has its registers swapped
    out = np.concatenate([anc.xi[0] * split.psi_tab, anc.xi[1] * split.tab_psi])
    omega_q = _entangled(split.psi_tab, split.tab_psi, split.q, _nonvanishing(split.a, i))
    success_state = np.outer(anc.eta, omega_q).ravel()
    failure_state = None if split.omega_fail is None else np.outer(anc.chi, split.omega_fail).ravel()
    # sqrt(1 - p) chi (x) Omega(-q/|q|) held unnormalized: no 1 - p, no normalizer that can vanish
    mod = abs(split.q)
    failure_branch = np.outer(np.sqrt(mod) / (1.0 + mod) * anc.chi, split.psi_tab - split.q / mod * split.tab_psi)
    recon = np.sqrt(split.prob) * success_state + failure_branch.ravel()
    decomp_err = float(np.linalg.norm(out - recon))
    if decomp_err > 1e-10:
        raise InvalidCertificate(f"controlled-swap output decomposition off by {decomp_err:.3e}")

    final_clone = procedures.apply_procedure(procedure, omega_q)
    psi = text.state(i)
    target = np.outer(psi, psi).ravel()
    clone_err = float(np.linalg.norm(final_clone - p.phases[i] * target))
    if clone_err > max(ACCEPT_TOL, 10.0 * cert.residual):
        raise InvalidCertificate(
            f"procedure misses the phased clone of state {i} by {clone_err:.3e}"
        )
    fidelity = float(abs(np.vdot(target, final_clone)))
    return CloneOutcome(
        index=i,
        p_success=split.prob,
        success_state=success_state,
        failure_state=failure_state,
        final_clone=final_clone,
        fidelity=fidelity,
    )


def failure_state_symmetry_check(
    text: texts.QuantumText,
    cert: EnscriptionCertificate,
    i: int,
) -> FailureSymmetryReport:
    """Check the failure state is the (anti)symmetrization of state i with the tablet.

    Defined for real q only, where real_q_success_probability is not None: the
    failure state has swap parity +1 when Q < 0 and -1 when Q > 0.
    """
    split = _split(text, cert.params, i)
    if split.p_real is None:
        raise ComplexQ("failure-state parity is only defined for real q")
    if split.omega_fail is None:
        return FailureSymmetryReport(expected_parity=None, parity_ok=True, deviation=0.0)
    parity = 1 if cert.params.Q < 0 else -1
    swapped = linalg.swap_factors(split.omega_fail, text.dimension)
    deviation = float(np.linalg.norm(swapped - parity * split.omega_fail))
    return FailureSymmetryReport(expected_parity=parity, parity_ok=deviation < 1e-10, deviation=deviation)


def duan_guo_saturation(z: float) -> SaturationReport:
    """Run the machine on the central 2-text enscription that saturates 1/(1+|z|).

    For a real overlap z in (-1, 0) the central tablet with entanglement
    parameter -2z/(1+z^2) and opposite output phases attains the optimal
    cloning success probability for both states.
    """
    z = float(z)
    if not -1.0 < z < 0.0:
        raise ZOutOfRange(f"saturation construction needs -1 < z < 0, got {z}")
    text = texts.make_real_uniform(2, z)
    tablet = linalg.unit(text.state(0) + text.state(1))
    big_q = -2.0 * z / (1.0 + z * z)
    params = EnscriptionParams.from_Q(big_q, tablet, phases=np.array([1.0, -1.0]))
    cert = certificate(text, params)
    if not cert.is_valid():
        raise InvalidCertificate(f"saturating certificate residual {cert.residual:.3e}")
    u = procedures.build_procedure(text, cert)
    probs = tuple(run_clone(text, cert, i, procedure=u).p_success for i in range(2))
    bound = 1.0 / (1.0 + abs(z))
    saturated = all(abs(p - bound) < 1e-10 for p in probs)
    return SaturationReport(overlap=z, bound=bound, probabilities=probs, saturated=saturated)
