"""Probabilistic cloning machine built from an enscription.

An auxiliary qubit, a controlled swap of the two registers, and a projective
measurement convert a product input psi_i (x) psi_0 into the entangled input
of the enscription with success probability p_i = A_i / (1 + |q|)^2; applying
the procedure on success yields a perfect clone. Tensor order throughout is
ancilla (x) copy-1 (x) copy-2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, procedures, texts
from .certificates import (
    ACCEPT_TOL,
    EnscriptionCertificate,
    EnscriptionParams,
    certificate,
    entangled_input,
    input_normalizer,
)
from .errors import ComplexQ, InvalidCertificate, QZero, ZOutOfRange


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
    final_clone: np.ndarray | None
    fidelity: float | None
    measurement: int


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


def success_probability(text: texts.QuantumText, params: EnscriptionParams, i: int) -> float:
    """p_i = A_i / (1 + |q|)^2; InvalidCertificate if it misses the real-q form by 1e-10."""
    q = complex(params.q)
    if abs(q) == 0.0:
        raise QZero("the cloning machine is undefined at q = 0")
    a = input_normalizer(text, i, q, params.tablet)
    p = a / (1.0 + abs(q)) ** 2
    p_real = real_q_success_probability(text, params, i)
    if p_real is not None and not abs(p - p_real) < 1e-10:
        raise InvalidCertificate(f"real-q probability forms disagree for state {i}: {p!r} vs {p_real!r}")
    return float(p)


def run_clone(
    text: texts.QuantumText,
    cert: EnscriptionCertificate,
    i: int,
    procedure: np.ndarray | None = None,
    accept_tol: float = ACCEPT_TOL,
) -> CloneOutcome:
    """Exact state-vector run of the machine on state i, post-selected on success.

    Prepares the ancilla, applies the controlled swap to
    xi (x) psi_i (x) tablet, verifies the orthogonal success/failure
    decomposition, and applies the enscription procedure on the success
    branch. The reported measurement eigenvalue is the success outcome 1;
    the failure branch state is also recorded (None when p_i = 1).
    """
    if not cert.is_valid(accept_tol):
        raise InvalidCertificate(f"certificate residual {cert.residual:.3e} above {accept_tol:.1e}")
    p = cert.params
    q = complex(p.q)
    if abs(q) == 0.0:
        raise QZero("the cloning machine is undefined at q = 0")
    d = text.dimension
    anc = ancilla_states(q)
    # controlled_swap(d) @ kron(xi, product): the ancilla-|1> half has its registers swapped
    product = np.kron(text.state(i), p.tablet)
    out = np.concatenate([anc.xi[0] * product, anc.xi[1] * linalg.swap_factors(product, d)])

    prob = success_probability(text, p, i)
    omega_q = entangled_input(text, i, q, p.tablet)
    success_state = np.kron(anc.eta, omega_q)
    failure_state = None
    recon = np.sqrt(prob) * success_state
    if 1.0 - prob > 1e-12:
        omega_fail = entangled_input(text, i, -q / abs(q), p.tablet)
        failure_state = np.kron(anc.chi, omega_fail)
        recon = recon + np.sqrt(1.0 - prob) * failure_state
    decomp_err = float(np.linalg.norm(out - recon))
    if decomp_err > 1e-10:
        raise InvalidCertificate(f"controlled-swap output decomposition off by {decomp_err:.3e}")

    u = procedures.build_procedure(text, cert, accept_tol) if procedure is None else procedure
    final_clone = u @ omega_q
    target = np.kron(text.state(i), text.state(i))
    clone_err = float(np.linalg.norm(final_clone - p.phases[i] * target))
    if clone_err > max(accept_tol, 10.0 * cert.residual):
        raise InvalidCertificate(
            f"procedure misses the phased clone of state {i} by {clone_err:.3e}"
        )
    fidelity = float(abs(np.vdot(target, final_clone)))
    return CloneOutcome(
        index=i,
        p_success=prob,
        success_state=success_state,
        failure_state=failure_state,
        final_clone=final_clone,
        fidelity=fidelity,
        measurement=1,
    )


def sample_clone(
    text: texts.QuantumText,
    cert: EnscriptionCertificate,
    i: int,
    rng: np.random.Generator,
    procedure: np.ndarray | None = None,
) -> CloneOutcome:
    """Demonstration-only sampled run: draws the measurement from Bernoulli(p_i)."""
    outcome = run_clone(text, cert, i, procedure=procedure)
    if rng.random() < outcome.p_success:
        return outcome
    return CloneOutcome(
        index=i,
        p_success=outcome.p_success,
        success_state=outcome.success_state,
        failure_state=outcome.failure_state,
        final_clone=None,
        fidelity=None,
        measurement=0,
    )


def failure_state_symmetry_check(
    text: texts.QuantumText,
    cert: EnscriptionCertificate,
    i: int,
) -> FailureSymmetryReport:
    """Check the failure state is the (anti)symmetrization of state i with the tablet.

    Defined for real q only: the failure state has swap parity +1 when Q < 0
    and -1 when Q > 0.
    """
    q = complex(cert.params.q)
    if abs(q.imag) > 1e-12:
        raise ComplexQ("failure-state parity is only defined for real q")
    if abs(q) == 0.0:
        raise QZero("the cloning machine is undefined at q = 0")
    prob = success_probability(text, cert.params, i)
    if 1.0 - prob <= 1e-12:
        return FailureSymmetryReport(expected_parity=None, parity_ok=True, deviation=0.0)
    omega_fail = entangled_input(text, i, -q / abs(q), cert.params.tablet)
    parity = 1 if cert.params.Q < 0 else -1
    swapped = linalg.swap_factors(omega_fail, text.dimension)
    deviation = float(np.linalg.norm(swapped - parity * omega_fail))
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
