"""Probabilistic cloning machine built from an enscription.

An auxiliary qubit, a controlled swap of the two registers, and a projective
measurement convert a product input psi_i (x) psi_0 into the entangled input
of the enscription with success probability p_i = A_i / (1 + |q|)^2; applying
the procedure on success yields a perfect clone. Tensor order throughout is
ancilla (x) copy-1 (x) copy-2.
"""

from __future__ import annotations

import cmath
import math
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
    check_fit,
)
from .errors import InvalidCertificate, QOutOfRange, QZero, ZOutOfRange

# The line of the machine's own checks: the agreement of the two p_i forms in _split, the
# decomposition check of run_clone, the parity check and duan_guo_saturation's saturation.
CHECK_TOL = 1e-10


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
    """The machine's run on state i: its success probability p_i, the procedure's output W omega_q on
    success, and that clone's fidelity with psi_i (x) psi_i."""

    index: int
    p_success: float
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
    return _real_q_form(params, abs(np.vdot(text.state(i), params.tablet)) ** 2)


def _real_q_form(params: EnscriptionParams, overlap_sq) -> float | None:
    """real_q_success_probability from |<psi_i|psi_0>|^2."""
    if abs(complex(params.q).imag) >= 1e-12:
        return None
    return (1.0 + params.Q * overlap_sq) / (1.0 + abs(params.Q))


@dataclass(frozen=True)
class _Split:
    """State i under the controlled swap, in scalars: q, |<psi|psi_0>|^2, A at q, p_i = A / (1 + |q|)^2,
    its real-q form (None for complex q), and q_f = -q/|q| with the normalizer A_f of the failure input
    at q_f. The state has a failure input exactly when A_f is above DEGENERATE_TOL, the line of every
    entangled input."""

    q: complex
    overlap_sq: float
    a: float
    prob: float
    p_real: float | None
    q_fail: complex
    a_fail: float

    @property
    def has_failure(self) -> bool:
        """Whether the state has a failure input; a NaN A_f has none."""
        return self.a_fail > DEGENERATE_TOL


def _split(text: texts.QuantumText, params: EnscriptionParams, i: int) -> _Split:
    """State i's split, derived once for run_clone and the parity check; it forms no vector.

    QZero at q = 0, where the machine is undefined; InvalidCertificate if p_i
    misses the real-q form by CHECK_TOL.
    """
    q = complex(params.q)
    if abs(q) == 0.0:
        raise QZero("the cloning machine is undefined at q = 0")
    overlap_sq = float(abs(np.vdot(text.state(i), params.tablet)) ** 2)
    a = _normalizer(q, overlap_sq)
    prob = a / (1.0 + abs(q)) ** 2
    p_real = _real_q_form(params, overlap_sq)
    if p_real is not None and not abs(prob - p_real) < CHECK_TOL:
        raise InvalidCertificate(f"real-q probability forms disagree for state {i}: {prob!r} vs {p_real!r}")
    q_fail = -q / abs(q)
    return _Split(q, overlap_sq, a, float(prob), p_real, q_fail, _normalizer(q_fail, overlap_sq))


def _norm_sq(cu, cs, overlap_sq) -> float:
    """||cu psi (x) t + cs t (x) psi||^2 for unit psi and t, from <psi (x) t|t (x) psi> = |<psi|t>|^2.

    The metric [[1, |<psi|t>|^2], [|<psi|t>|^2, 1]] is positive semidefinite, so only rounding
    makes the form negative; it is clipped at 0.
    """
    return max(abs(cu) ** 2 + abs(cs) ** 2 + 2.0 * overlap_sq * (cu.conjugate() * cs).real, 0.0)


def _decomposition_error(split: _Split, anc: AncillaStates) -> float:
    """||controlled-swap output - sqrt(p) eta (x) omega_q - failure branch||, on coefficients.

    With u = psi (x) t and s = t (x) psi every term lies in span |k> (x) {u, s}: the output
    xi_0 |0> u + xi_1 |1> s, omega_q = (u + q s) / sqrt(A), and the failure branch
    sqrt(1 - p) chi (x) Omega(-q/|q|), held unnormalized as sqrt(|q|) / (1 + |q|) chi (x) (u - q/|q| s):
    no 1 - p, no normalizer that can vanish. So the norm is the I_2 (x) metric form of _norm_sq on the
    2 x 2 array of coefficients, and no 2 d^2-vector is formed.
    """
    q, mod = split.q, abs(split.q)
    success = math.sqrt(split.prob) / math.sqrt(split.a)
    failure = math.sqrt(mod) / (1.0 + mod)
    # Python scalars: on two coefficients numpy's per-call cost is all there is
    xi = anc.xi.tolist()
    output = ((xi[0], 0.0), (0.0, xi[1]))
    total = 0.0
    for (out_u, out_s), eta, chi in zip(output, anc.eta.tolist(), anc.chi.tolist()):
        total += _norm_sq(out_u - success * eta - failure * chi,
                          out_s - success * q * eta + failure * q / mod * chi, split.overlap_sq)
    return math.sqrt(total)


def _products(psi: np.ndarray, tablet: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi (x) t and t (x) psi, the two vectors every entangled input of state psi is built from."""
    return np.outer(psi, tablet).ravel(), np.outer(tablet, psi).ravel()


def run_clone(
    text: texts.QuantumText,
    cert: EnscriptionCertificate,
    i: int,
    procedure: linalg.SpanUnitary,
) -> CloneOutcome:
    """Exact run of the machine on state i, post-selected on success.

    Prepares the ancilla, applies the controlled swap to xi (x) psi_i (x) tablet,
    checks that its output splits into sqrt(p) eta (x) omega_q and the failure
    branch, and applies the enscription procedure (from
    procedures.build_procedure, built once per certificate) on the success
    branch in O(d^2 N). The split, p_i and the failure input's q_f and A_f come
    from _split. The decomposition check runs on the 2 x 2 coefficients of the
    output in |k> (x) {psi (x) t, t (x) psi} (_decomposition_error), so the only
    d^2-vectors formed are the two products, omega_q, W omega_q and psi (x) psi;
    the procedure is the caller's, so its clone check and the fidelity stay in
    C^d (x) C^d. Raises InvalidCertificate unless the certificate fits the text
    (certificates.check_fit), and DimensionMismatch unless the procedure is a
    SpanUnitary on C^d (x) C^d.
    """
    check_fit(text, cert)
    if not cert.is_valid():
        raise InvalidCertificate(f"certificate residual {cert.residual:.3e} above {ACCEPT_TOL:.1e}")
    p = cert.params
    split = _split(text, p, i)
    anc = ancilla_states(split.q)
    psi = text.state(i)
    omega_q = _entangled(*_products(psi, p.tablet), split.q, _nonvanishing(split.a, i))
    decomp_err = _decomposition_error(split, anc)
    if decomp_err > CHECK_TOL:
        raise InvalidCertificate(f"controlled-swap output decomposition off by {decomp_err:.3e}")

    final_clone = procedures.apply_procedure(procedure, omega_q)
    target = np.outer(psi, psi).ravel()
    clone_err = float(np.linalg.norm(final_clone - p.phases[i] * target))
    if clone_err > max(ACCEPT_TOL, 10.0 * cert.residual):
        raise InvalidCertificate(
            f"procedure misses the phased clone of state {i} by {clone_err:.3e}"
        )
    fidelity = float(abs(np.vdot(target, final_clone)))
    return CloneOutcome(i, split.prob, final_clone, fidelity)


def failure_state_symmetry_check(
    text: texts.QuantumText,
    cert: EnscriptionCertificate,
    i: int,
) -> FailureSymmetryReport:
    """Check the failure state is the (anti)symmetrization of state i with the tablet.

    For real q, where real_q_success_probability is not None, the failure
    state has swap parity +1 when Q < 0 and -1 when Q > 0. The check forms the
    failure input Omega(-q/|q|) in C^d (x) C^d and swaps its factors
    (linalg.swap_factors). It stays there on purpose: for real q, -q/|q| is the
    parity exactly, so the same identity read off the two coefficients of
    psi (x) t and t (x) psi would vanish by construction and test nothing, while
    the formed vector shows a layout fault in the input or in the swap. A state
    with no parity to check, at complex q or with no failure input, reports
    expected_parity None. Raises InvalidCertificate unless the certificate fits
    the text (certificates.check_fit).
    """
    check_fit(text, cert)
    split = _split(text, cert.params, i)
    if split.p_real is None or not split.has_failure:
        return FailureSymmetryReport(expected_parity=None, parity_ok=True, deviation=0.0)
    parity = 1 if cert.params.Q < 0 else -1
    omega_fail = _entangled(*_products(text.state(i), cert.params.tablet), split.q_fail, split.a_fail)
    swapped = linalg.swap_factors(omega_fail, text.dimension)
    deviation = float(np.linalg.norm(swapped - parity * omega_fail))
    return FailureSymmetryReport(expected_parity=parity, parity_ok=deviation < CHECK_TOL, deviation=deviation)


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
    saturated = all(abs(p - bound) < CHECK_TOL for p in probs)
    return SaturationReport(overlap=z, bound=bound, probabilities=probs, saturated=saturated)
