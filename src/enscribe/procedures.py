"""Explicit unitary procedures realizing certified enscriptions."""

from __future__ import annotations

import logging
from math import sqrt

import numpy as np

from . import linalg, texts
from .certificates import ACCEPT_TOL, EnscriptionCertificate, EnscriptionParams, certificate, entangled_input
from .errors import DimensionMismatch, InvalidCertificate

log = logging.getLogger("enscribe")


def _inputs_and_clones(text: texts.QuantumText, p: EnscriptionParams) -> tuple:
    """Entangled inputs omega_i and their phased clones alpha_i psi_i (x) psi_i."""
    inputs = [entangled_input(text, i, p.q, p.tablet) for i in range(text.n_states)]
    clones = [p.phases[i] * np.outer(text.state(i), text.state(i)).ravel() for i in range(text.n_states)]
    return inputs, clones


def build_procedure(text: texts.QuantumText, cert: EnscriptionCertificate) -> linalg.SpanUnitary:
    """Unitary on the doubled space mapping each entangled input to its clone.

    The correspondence fixes the action on the span of the inputs; the
    procedure is the identity outside span(inputs, clones) and a rotation
    inside (linalg.unitary_from_correspondence). It is returned as those
    factors, a frame of at most 2N columns and a rotation on it, so building,
    verifying and applying it never forms a d^2 x d^2 matrix. At q = 1 the
    inputs and the clones are all swap-symmetric, so the procedure commutes
    with the swap of the two copies. The Gram-match gate is widened with the certificate
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


def apply_procedure(u: linalg.SpanUnitary | np.ndarray, x: np.ndarray) -> np.ndarray:
    """U x for a factored (SpanUnitary) or a dense procedure U and a vector or column stack x.

    Raises DimensionMismatch unless U acts on the space of x: a dense U must
    be square, and a SpanUnitary's frame must have as many rows as x and its
    block as many rows and columns as the frame has columns.
    """
    dim = x.shape[0]
    if isinstance(u, linalg.SpanUnitary):
        k = u.frame.shape[1]
        if u.frame.shape[0] != dim or u.block.shape != (k, k):
            raise DimensionMismatch(f"procedure factors have shapes {u.frame.shape} and {u.block.shape}, "
                                    f"expected ({dim}, k) and (k, k)")
        return u.apply(x)
    u = np.asarray(u)
    if u.shape != (dim, dim):
        raise DimensionMismatch(f"procedure has shape {u.shape}, expected ({dim}, {dim})")
    return u @ x


def verify_procedure(
    u: linalg.SpanUnitary | np.ndarray,
    text: texts.QuantumText,
    cert: EnscriptionCertificate,
) -> float:
    """Action error plus a bound on the unitarity defect of a candidate procedure.

    Returns max_i ||U omega_i - alpha_i psi_i (x) psi_i|| plus a bound on
    ||U^dag U - I||_F; both must be small for the procedure to count as a
    realization. The inputs and clones are built again from the certificate,
    not taken from build_procedure, so the check does not trust the builder.
    The bound reads U as U = U0 + F with U0 = I + V (B - I) V^dag
    for a frame V (D x k) and a k x k block B:

    - a SpanUnitary is its own frame and block, with F = 0;
    - a dense U takes V = P, the reduced QR factor of the stacked inputs and
      clones (min(D, 2N) orthonormal columns spanning at least
      S = span(inputs, clones)), and B = P^dag U P, so F is U's part off span P.

    With A = B - I and E = V^dag V - I, U0^dag U0 - I = V (B^dag B - I + A^dag E A) V^dag,
    so with delta = ||B^dag B - I||, eps = ||E|| and ||V||_2^2 <= 1 + eps,

        ||U0^dag U0 - I|| <= delta' = (1 + eps) (delta + ||A||_2^2 eps),

    and with phi = ||F||, since ||U0||_2 <= sqrt(1 + delta'),

        ||U^dag U - I|| <= delta' + 2 sqrt(1 + delta') phi + phi^2.

    The eps term counts the rounding of a frame that is not exactly
    orthonormal, which delta alone cannot see. The bound equals the dense
    defect up to rounding when U is the identity off span V, as every
    SpanUnitary is, and bounds it for any matrix. For a dense U, span P
    holds the inputs and clones, so this verifies the realization that is
    the identity off span(inputs, clones): a dense unitary that realizes the
    certificate but also rotates the complement reads as unverified. On
    factors it costs O(D N^2), and on a dense U O(D^2 N), against O(D^3) for
    the dense U^dag U.

    Raises DimensionMismatch unless U acts on the doubled space of dimension
    D = d^2 (apply_procedure).
    """
    n = text.n_states
    inputs, clones = _inputs_and_clones(text, cert.params)
    families = np.column_stack(inputs + clones)
    action = float(np.linalg.norm(apply_procedure(u, families[:, :n]) - families[:, n:], axis=0).max())
    if isinstance(u, linalg.SpanUnitary):
        frame, block, phi = u.frame, u.block, 0.0
    else:
        frame = np.linalg.qr(families)[0]
        block = linalg.dagger(frame) @ (u @ frame)
        # F = U - I - P (B - I) P^dag, formed in the one D x D buffer
        off = frame @ ((block - np.eye(block.shape[0])) @ linalg.dagger(frame))
        np.subtract(u, off, out=off)
        off.flat[:: off.shape[0] + 1] -= 1.0
        phi = float(np.linalg.norm(off))
    eye = np.eye(block.shape[0])
    delta = float(np.linalg.norm(linalg.dagger(block) @ block - eye))
    eps = float(np.linalg.norm(linalg.dagger(frame) @ frame - eye))
    span = (1.0 + eps) * (delta + float(np.linalg.norm(block - eye, 2)) ** 2 * eps)
    log.debug("verify_procedure: action error %.3e, span defect %.3e, frame defect %.3e, off-span residual %.3e",
              action, delta, eps, phi)
    return action + span + 2.0 * sqrt(1.0 + span) * phi + phi * phi


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
