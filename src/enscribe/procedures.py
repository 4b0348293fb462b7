"""Explicit unitary procedures realizing certified enscriptions."""

from __future__ import annotations

import logging
from math import sqrt

import numpy as np

from . import linalg, texts
from .certificates import ACCEPT_TOL, EnscriptionCertificate, EnscriptionParams, certificate, entangled_input
from .errors import InvalidCertificate

log = logging.getLogger("enscribe")


def _inputs_and_clones(text: texts.QuantumText, p: EnscriptionParams) -> tuple:
    """Entangled inputs omega_i and their phased clones alpha_i psi_i (x) psi_i."""
    inputs = [entangled_input(text, i, p.q, p.tablet) for i in range(text.n_states)]
    clones = [p.phases[i] * np.outer(text.state(i), text.state(i)).ravel() for i in range(text.n_states)]
    return inputs, clones


def build_procedure(text: texts.QuantumText, cert: EnscriptionCertificate) -> np.ndarray:
    """Unitary on the doubled space mapping each entangled input to its clone.

    The correspondence fixes the action on the span of the inputs; the
    procedure is the identity outside span(inputs, clones) and a rotation
    inside (linalg.unitary_from_correspondence). At q = 1 the inputs and the
    clones are all swap-symmetric, so the procedure commutes with the swap
    of the two copies. The Gram-match gate is widened with the certificate
    residual, since a residual r allows the two families' Gram matrices to
    differ at that scale.

    The realization is unique only where every clone direction overlaps some
    input. Where one is orthogonal to every input (at Q = -1, where the inputs
    are antisymmetric and the clones symmetric, and on an orthonormal text
    with the tablet on a state), several rotations are equally near the
    identity, and which one is returned depends on the basis the QR and SVD
    pick; there the procedure of an equivalent text need not be the moved
    (V (x) V) U (V (x) V)^dag, though both realize the moved certificate.
    """
    if cert.params.n_states != text.n_states:
        raise InvalidCertificate("certificate does not match the text size")
    if not cert.is_valid():
        raise InvalidCertificate(f"certificate residual {cert.residual:.3e} above {ACCEPT_TOL:.1e}")
    inputs, clones = _inputs_and_clones(text, cert.params)
    gram_tol = max(linalg.GRAM_TOL, 10.0 * cert.residual)
    dim = text.dimension ** 2
    return linalg.unitary_from_correspondence(inputs, clones, dim, gram_tol=gram_tol)


def verify_procedure(
    u: np.ndarray,
    text: texts.QuantumText,
    cert: EnscriptionCertificate,
) -> float:
    """Action error plus a bound on the unitarity defect of a candidate procedure.

    Returns max_i ||U omega_i - alpha_i psi_i (x) psi_i|| plus a bound on
    ||U^dag U - I||_F computed through S = span(inputs, clones); both must be
    small for the procedure to count as a realization. With P the reduced QR
    factor of the stacked families (min(D, 2N) orthonormal columns spanning
    at least S), B = P^dag U P and U = U0 + F, where U0 = P B P^dag + I - P P^dag
    acts as B on span P and as the identity outside it:

        ||U^dag U - I|| <= delta + 2 sqrt(1 + delta) phi + phi^2,

    with delta = ||B^dag B - I|| and phi = ||F||, since U0^dag U0 - I =
    P (B^dag B - I) P^dag and ||U0||_2 <= sqrt(1 + delta). The bound equals the
    dense defect up to rounding when U is the identity off span P, as every
    build_procedure unitary is, and is the dense defect when span P is the
    whole space. So this verifies the realization that is the identity off
    span(inputs, clones): a unitary that realizes the certificate but also
    rotates the complement reads as unverified. It costs O(D^2 N) on the
    doubled space of dimension D = d^2, against O(D^3) for the dense U^dag U.
    """
    n = text.n_states
    inputs, clones = _inputs_and_clones(text, cert.params)
    families = np.column_stack(inputs + clones)
    action = float(np.linalg.norm(u @ families[:, :n] - families[:, n:], axis=0).max())
    p = np.linalg.qr(families)[0]
    eye = np.eye(p.shape[1])
    b = linalg.dagger(p) @ (u @ p)
    delta = float(np.linalg.norm(linalg.dagger(b) @ b - eye))
    # F = U - I - P (B - I) P^dag, formed in the one D x D buffer
    off = p @ ((b - eye) @ linalg.dagger(p))
    np.subtract(u, off, out=off)
    off.flat[:: off.shape[0] + 1] -= 1.0
    phi = float(np.linalg.norm(off))
    log.debug("verify_procedure: action error %.3e, span defect %.3e, off-span residual %.3e", action, delta, phi)
    return action + delta + 2.0 * sqrt(1.0 + delta) * phi + phi * phi


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
