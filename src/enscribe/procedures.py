"""Explicit unitary procedures realizing certified enscriptions."""

from __future__ import annotations

import numpy as np

from . import linalg, texts
from .certificates import ACCEPT_TOL, EnscriptionCertificate, EnscriptionParams, certificate, entangled_input
from .errors import InvalidCertificate, NotQOne


def _inputs_and_clones(text: texts.QuantumText, p: EnscriptionParams) -> tuple:
    """Entangled inputs omega_i and their phased clones alpha_i psi_i (x) psi_i."""
    inputs = [entangled_input(text, i, p.q, p.tablet) for i in range(text.n_states)]
    clones = [p.phases[i] * np.kron(text.state(i), text.state(i)) for i in range(text.n_states)]
    return inputs, clones


def build_procedure(
    text: texts.QuantumText,
    cert: EnscriptionCertificate,
    accept_tol: float = ACCEPT_TOL,
) -> np.ndarray:
    """Unitary on the doubled space mapping each entangled input to its clone.

    The correspondence fixes the action on the span of the inputs; the
    procedure is the identity outside span(inputs, clones) and a rotation
    inside (linalg.unitary_from_correspondence). The Gram-match gate
    is widened with the certificate residual, since a residual r allows the
    two families' Gram matrices to differ at that scale.
    """
    if cert.params.n_states != text.n_states:
        raise InvalidCertificate("certificate does not match the text size")
    if not cert.is_valid(accept_tol):
        raise InvalidCertificate(f"certificate residual {cert.residual:.3e} above {accept_tol:.1e}")
    inputs, clones = _inputs_and_clones(text, cert.params)
    gram_tol = max(linalg.GRAM_TOL, 10.0 * cert.residual)
    dim = text.dimension ** 2
    return linalg.unitary_from_correspondence(inputs, clones, dim, gram_tol=gram_tol)


def verify_procedure(
    u: np.ndarray,
    text: texts.QuantumText,
    cert: EnscriptionCertificate,
) -> float:
    """Action error plus unitarity defect of a candidate procedure.

    Returns max_i ||U omega_i - alpha_i psi_i (x) psi_i|| plus ||U^dag U - I||;
    both must be small for the procedure to count as a realization.
    """
    action = 0.0
    for omega, clone in zip(*_inputs_and_clones(text, cert.params)):
        action = max(action, float(np.linalg.norm(u @ omega - clone)))
    defect = float(np.linalg.norm(linalg.dagger(u) @ u - np.eye(u.shape[0])))
    return action + defect


def symmetrize_procedure(text: texts.QuantumText, cert: EnscriptionCertificate) -> np.ndarray:
    """Swap-commuting procedure for a certificate at entanglement parameter 1.

    At q = 1 both the entangled inputs and the clone outputs lie in the
    symmetric subspace, so the correspondence can be built there and extended
    by the identity on the antisymmetric subspace; the result commutes with
    the factor-exchange operator.
    """
    p = cert.params
    if abs(p.Q - 1.0) > 1e-9 or abs(complex(p.q) - 1.0) > 1e-9:
        raise NotQOne("symmetrized procedures require q = 1")
    if not cert.is_valid():
        raise InvalidCertificate(f"certificate residual {cert.residual:.3e} above {ACCEPT_TOL:.1e}")
    d = text.dimension
    iso = linalg.symmetric_basis(d)
    proj = linalg.dagger(iso)
    inputs, clones = _inputs_and_clones(text, p)
    gram_tol = max(linalg.GRAM_TOL, 10.0 * cert.residual)
    w_sym = linalg.unitary_from_correspondence(
        [proj @ v for v in inputs], [proj @ v for v in clones], iso.shape[1], gram_tol=gram_tol
    )
    full = iso @ w_sym @ linalg.dagger(iso)
    full += np.eye(d * d) - iso @ linalg.dagger(iso)
    return full


def qubit_example():
    """The worked two-state qubit enscription at q = 1 with its explicit matrix.

    States a+|0> + a-|1> and a+|0> - a-|1> with a± = sqrt((1±z)/2) and
    z = sqrt(3) - 2, tablet |0>, trivial output phases. The returned 4x4
    matrix realizes the enscription and commutes with the factor swap.
    """
    z = np.sqrt(3.0) - 2.0
    ap = np.sqrt((1.0 + z) / 2.0)
    am = np.sqrt((1.0 - z) / 2.0)
    text = texts.make_text(2, [[ap, am], [ap, -am]])
    params = EnscriptionParams.from_q(1.0, [1.0, 0.0], n_states=2)
    cert = certificate(text, params)
    s3 = np.sqrt(3.0) / 2.0
    u = np.array(
        [
            [0.5, 0.0, 0.0, s3],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [s3, 0.0, 0.0, -0.5],
        ],
        dtype=complex,
    )
    return text, cert, u
