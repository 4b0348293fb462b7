"""Explicit unitary procedures realizing certified enscriptions."""

from __future__ import annotations

import logging

import numpy as np

from . import linalg, texts
from .certificates import (
    ACCEPT_TOL,
    EnscriptionCertificate,
    EnscriptionParams,
    certificate,
    check_fit,
    entangled_inputs,
)
from .errors import DimensionMismatch, InvalidCertificate

log = logging.getLogger("enscribe")


def _inputs_and_clones(text: texts.QuantumText, p: EnscriptionParams) -> tuple[np.ndarray, np.ndarray]:
    """Entangled inputs omega_i and their phased clones alpha_i psi_i (x) psi_i, as the rows of two
    N x d^2 arrays, each built in one broadcast."""
    states = text.states.T
    return entangled_inputs(text, p.q, p.tablet), p.phases[:, None] * linalg.kron_rows(states, states)


def build_procedure(text: texts.QuantumText, cert: EnscriptionCertificate) -> linalg.SpanUnitary:
    """Unitary on the doubled space mapping each entangled input to its clone.

    The correspondence fixes the action on the span of the inputs; the
    procedure is the identity outside span(inputs, clones) and a rotation
    inside (linalg.unitary_from_correspondence). It is returned as those
    factors, a frame of at most 2N columns and a rotation on it, so building,
    verifying and applying it never forms a d^2 x d^2 matrix. The two N x d^2
    families are handed over as they are built. Their d^2 x 2N stack X is
    factored as X = V R, the frame V and both families' coordinates R on it:
    from one eigh of the 2N x 2N Gram matrix X^dag X where it is well
    conditioned (the Gram route), and from one Householder QR of X on
    rank-deficient and nearly parallel stacks (the QR route, whose frame keeps
    the QR's bits); linalg.FRAME_TOL draws the line, and the route is logged at
    debug. The Gram gate compares the two diagonal blocks of X^dag X, and
    each family's dialect frame is the polar factor of its own coordinates,
    a block of at most 2N rows, so no SVD runs on a d^2-row array; its rank
    cut reads singular values, so a near-parallel pair of a valid text keeps
    both its directions and the procedure realizes an exact certificate. At q = 1 the
    inputs and the clones are all swap-symmetric, so the procedure commutes
    with the swap of the two copies. The Gram-match gate is widened with the certificate
    residual, since a residual r allows the two families' Gram matrices to
    differ at that scale.

    The realization is unique only where every clone direction overlaps some
    input. Where one is orthogonal to every input (at Q = -1, where the inputs
    are antisymmetric and the clones symmetric, and on an orthonormal text
    with the tablet on a state), several rotations are equally near the
    identity, and which one is returned depends on the basis the frame and
    SVD pick; there the procedure of an equivalent text need not be the moved
    (V (x) V) U (V (x) V)^dag, though both realize the moved certificate.
    """
    check_fit(text, cert)
    if not cert.is_valid():
        raise InvalidCertificate(f"certificate residual {cert.residual:.3e} above {ACCEPT_TOL:.1e}")
    inputs, clones = _inputs_and_clones(text, cert.params)
    gram_tol = max(linalg.GRAM_TOL, 10.0 * cert.residual)
    dim = text.dimension ** 2
    return linalg.unitary_from_correspondence(inputs, clones, dim, gram_tol=gram_tol)


def apply_procedure(u: linalg.SpanUnitary, x: np.ndarray) -> np.ndarray:
    """U x for a procedure U (SpanUnitary) and a vector or column stack x.

    Raises DimensionMismatch unless U is a SpanUnitary acting on the space of
    x: its frame must have as many rows as x and its block as many rows and
    columns as the frame has columns.
    """
    if not isinstance(u, linalg.SpanUnitary):
        raise DimensionMismatch(f"a procedure must be a SpanUnitary, got {type(u).__name__}")
    k = u.frame.shape[1]
    if u.frame.shape[0] != x.shape[0] or u.block.shape != (k, k):
        raise DimensionMismatch(f"procedure factors have shapes {u.frame.shape} and {u.block.shape}, "
                                f"expected ({x.shape[0]}, k) and (k, k)")
    return u.apply(x)


def verify_procedure(u: linalg.SpanUnitary, text: texts.QuantumText, cert: EnscriptionCertificate) -> float:
    """Action error plus a bound on the unitarity defect of a candidate procedure U = I + V (M - I) V^dag.

    Returns max_i ||U omega_i - alpha_i psi_i (x) psi_i|| plus a bound on
    ||U^dag U - I||_F; both must be small for the procedure to count as a
    realization. The inputs and clones are built again from the certificate,
    not taken from build_procedure, so the check does not trust the builder.
    With A = M - I and E = V^dag V - I, U^dag U - I = V (M^dag M - I + A^dag E A) V^dag,
    so with delta = ||M^dag M - I||, eps = ||E|| and ||V||_2^2 <= 1 + eps,

        ||U^dag U - I|| <= (1 + eps) (delta + ||A||_2^2 eps).

    The eps term counts the rounding of a frame that is not exactly
    orthonormal, which delta alone cannot see. It costs O(D N^2) for
    D = d^2, against O(D^3) for the dense U^dag U.

    Raises InvalidCertificate unless the certificate fits the text
    (certificates.check_fit), and DimensionMismatch unless U is a SpanUnitary
    on the doubled space (apply_procedure).
    """
    check_fit(text, cert)
    n = text.n_states
    # columns of one C-ordered array, as stacking the vectors gave: BLAS rounds another layout differently
    families = np.ascontiguousarray(np.concatenate(_inputs_and_clones(text, cert.params)).T)
    action = float(np.linalg.norm(apply_procedure(u, families[:, :n]) - families[:, n:], axis=0).max())
    eye = np.eye(u.block.shape[0])
    delta = float(np.linalg.norm(linalg.dagger(u.block) @ u.block - eye))
    eps = float(np.linalg.norm(u.frame_adjoint @ u.frame - eye))
    span = (1.0 + eps) * (delta + float(np.linalg.norm(u.block_offset, 2)) ** 2 * eps)
    log.debug("verify_procedure: action error %.3e, span defect %.3e, frame defect %.3e", action, delta, eps)
    return action + span


def qubit_example():
    """The worked two-state qubit enscription at q = 1 with its explicit procedure.

    States a+|0> + a-|1> and a+|0> - a-|1> with a± = sqrt((1±z)/2) and
    z = sqrt(3) - 2, tablet |0>, trivial output phases. The returned
    procedure, the identity off span(|00>, |11>) and a reflection on it,
    realizes the enscription and its 4x4 matrix commutes with the factor swap.
    """
    z = np.sqrt(3.0) - 2.0
    ap = np.sqrt((1.0 + z) / 2.0)
    am = np.sqrt((1.0 - z) / 2.0)
    text = texts.make_text(2, [[ap, am], [ap, -am]])
    params = EnscriptionParams.from_q(1.0, [1.0, 0.0], n_states=2)
    cert = certificate(text, params)
    s3 = np.sqrt(3.0) / 2.0
    u = linalg.SpanUnitary(np.eye(4, dtype=complex)[:, [0, 3]], np.array([[0.5, s3], [s3, -0.5]], dtype=complex))
    return text, cert, u
