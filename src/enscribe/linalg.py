"""Dense complex linear-algebra helpers shared by the higher-level modules."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, GramMismatch

log = logging.getLogger("enscribe")

GRAM_TOL = 1e-10
RANK_TOL = 1e-8
# How far v / |v| may move an entry of a vector that unit keeps as it is.
UNIT_TOL = 16 * np.finfo(float).eps
# How far the frame defect ||V^dag V - I|| of a frame taken from a Gram matrix may exceed a QR
# frame's (unitary_from_correspondence): that route runs only where its predicted excess is below it.
FRAME_TOL = 1e-12


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def unit(v: np.ndarray) -> np.ndarray:
    """A new array of v / |v|, column by column for a matrix; a column that this would move by no more
    than UNIT_TOL in any entry keeps its values, so unit(unit(v)) is unit(v), bit for bit."""
    u = v / np.linalg.norm(v, axis=0)
    return np.where(np.abs(u - v).max(axis=0, initial=0.0) <= UNIT_TOL, v, u)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def swap_factors(v: np.ndarray, dim: int) -> np.ndarray:
    """Exchange the two tensor factors of C^dim (x) C^dim along the first axis of v.

    Kronecker order: component a * dim + b moves to b * dim + a. On a vector
    this equals swap_operator(dim) @ v exactly, without building the operator.
    """
    return v.reshape(dim, dim, *v.shape[1:]).swapaxes(0, 1).reshape(v.shape)


def kron_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i is np.kron(a[i], b[i]), for n x d arrays a and b; a 1 x d array stands for n equal rows.

    Each row has the bits of np.outer(a[i], b[i]).ravel(). Both operands are
    given all three axes: at d = 1 numpy multiplies an operand broadcast
    across a missing axis in another loop, whose complex product rounds
    differently. They are made C-ordered first, since numpy lays out a
    product like its operands, and a product of strided rows would have
    strided rows, which BLAS sums in another order.
    """
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a[:, :, None] * b[:, None, :]).reshape(max(a.shape[0], b.shape[0]), -1)


def swap_operator(dim: int) -> np.ndarray:
    """Exchange of the two tensor factors on C^dim (x) C^dim as a dense matrix.

    It is the identity with its rows permuted by swap_factors.
    """
    return swap_factors(np.eye(dim * dim, dtype=complex), dim)


def complete_orthonormal(cols: np.ndarray) -> np.ndarray:
    """Orthonormal columns completing ``cols`` (dim x r, orthonormal) to a basis of C^dim.

    The trailing columns of the complete Householder QR of ``cols``; callers
    read only their span, the orthogonal complement of span(cols).
    """
    return np.linalg.qr(cols, mode="complete")[0][:, cols.shape[1]:]


def numerical_rank(values: np.ndarray) -> int:
    """Count of singular values above RANK_TOL times the largest; every reader passes an SVD's."""
    return int(np.sum(values > RANK_TOL * max(float(np.max(values)), 1e-300)))


def _polar(m: np.ndarray) -> np.ndarray:
    """U_r V_r^dag from one SVD U S V^dag of ``m``, r = numerical_rank of S: the polar factor of m, the
    nearest matrix with orthonormal columns, with the directions under the rank cut dropped."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    r = numerical_rank(s)
    return u[:, :r] @ vh[:r]


def dialect_frame(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal dialect frame of the columns of ``vectors``: from one SVD U S V^dag, the columns
    of U for the numerical_rank(S) singular values it keeps."""
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    return u[:, :numerical_rank(s)]


@dataclass(frozen=True)
class SpanUnitary:
    """The unitary W = I + V (M - I) V^dag, kept as its two factors.

    ``frame`` is V, dim x k with orthonormal columns, and ``block`` is M, a
    k x k unitary: W is M on span V and the identity outside it. apply costs
    O(dim k) per vector, against O(dim^2) for the dense matrix, which the
    package never forms (apply(np.eye(dim)) is that matrix). M - I and V^dag
    are formed on first use and held (block_offset, frame_adjoint), so later
    calls copy nothing.
    """

    frame: np.ndarray
    block: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.frame.nbytes + self.block.nbytes

    @cached_property
    def block_offset(self) -> np.ndarray:
        """M - I, formed on first use and held."""
        return self.block - np.eye(self.block.shape[0])

    @cached_property
    def frame_adjoint(self) -> np.ndarray:
        """V^dag, formed on first use and held: a k x dim conjugate copy of the frame."""
        return dagger(self.frame)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """W x for a vector or a column stack x, from the held M - I and V^dag."""
        return x + self.frame @ (self.block_offset @ (self.frame_adjoint @ x))


def _family(vectors, dim: int) -> np.ndarray:
    """One side of a correspondence as the rows of a complex array; a complex array of such rows is not copied.

    Raises DimensionMismatch unless it holds at least one vector and every entry is a vector of length dim.
    """
    shapes = {np.shape(v) for v in vectors}
    if shapes != {(dim,)}:
        found = ", ".join(map(str, sorted(shapes))) or "no vectors"
        raise DimensionMismatch(f"a correspondence needs vectors of shape ({dim},) on each side, got {found}")
    return np.asarray(vectors, dtype=complex)


def unitary_from_correspondence(
    inputs,
    outputs,
    dim: int,
    gram_tol: float = GRAM_TOL,
) -> SpanUnitary:
    """Unitary W with W @ inputs[k] = outputs[k] for Gram-matched vector families.

    The dim x 2N stack X = [inputs | outputs] has the 2N x 2N Gram matrix
    K = X^dag X, formed in one product. Its diagonal blocks are the two
    families' Gram matrices, and the Gram gate compares them first: it raises
    GramMismatch when they differ by more than ``gram_tol`` entrywise, and a
    non-finite vector fails it, so eigh sees a finite K. X is then factored as X = V R: the frame V
    has k = min(dim, 2N) orthonormal columns, and R holds both families'
    coordinates on it, R_a for the inputs and R_b for the outputs. The factors
    come from K when its eigenvalues allow, and from a Householder QR
    otherwise:

    - Gram route: one eigh K = E diag(w) E^dag gives V = X E w^-1/2 and
      R = w^1/2 E^dag. The rounding of K and of its eigh, magnified by the
      smallest eigenvalue, adds to the frame defect ||V^dag V - I|| of a QR
      frame a term that grows like 2N u w_max / w_min (u = eps / 2, the unit
      roundoff; at most 0.88 of it over 590 uniform texts and 2-texts with
      dim up to 48^2). So this route runs only while that prediction is
      below FRAME_TOL, and its defect stays within FRAME_TOL of the QR's.
    - QR route: below the line, on rank-deficient and nearly parallel
      stacks, one Householder QR of X gives V and R, orthonormal to rounding
      whatever the conditioning.

    One debug line on the enscribe logger names the route, w_min / w_max and
    k. Each family's frame is the polar factor of its own k x N coordinate
    block, a = U_r V_r^dag from one SVD of R_a (b likewise from R_b), with
    r = numerical_rank of that SVD's singular values. Since R = polar(R)
    (R^dag R)^1/2, Gram-matched coordinates share their Hermitian factor, so
    b a^dag maps R_a to R_b, and V a and V b are the dialect frames of the
    two families (polar(V R) = V polar(R)). W is a unitary with W A = B
    nearest the identity: the identity outside span(inputs, outputs) and a
    rotation inside, W = I + V (m - I) V^dag, where m is the polar factor of
    b a^dag + (I - b b^dag)(I - a a^dag) in C^k: it maps span(a) to span(b)
    as b a^dag does, and the complement of span(a) to that of span(b) as
    close to the identity as a unitary can, so it fixes every direction
    orthogonal to both, including columns of V outside their span. W is
    returned as the factors V and m (SpanUnitary).

    Each family is a sequence of vectors of length dim or an N x dim array
    of them. Raises DimensionMismatch on empty or ragged families, on an
    entry that is not a vector of length dim, or on families of different
    sizes.
    """
    a, b = _family(inputs, dim), _family(outputs, dim)
    n = a.shape[0]
    if b.shape[0] != n:
        raise DimensionMismatch(f"input and output families must have matching sizes, got {n} and {b.shape[0]}")
    x = np.concatenate([a, b])
    # K = X^dag X for the dim x 2N stack X = x.T, in one product
    k = x.conj() @ x.T
    gap = float(np.max(np.abs(k[:n, :n] - k[n:, n:])))
    if not gap <= gram_tol:
        raise GramMismatch(f"Gram matrices differ by {gap:.3e} (> {gram_tol:.1e})")
    w, e = np.linalg.eigh(k)
    ratio = float(w[0] / w[-1]) if w[-1] > 0 else 0.0
    # the Gram frame's predicted excess defect, 2N u w_max / w_min with u = eps / 2, against FRAME_TOL
    if n * np.finfo(float).eps < FRAME_TOL * ratio:
        route = "gram"
        v, r = x.T @ (e / np.sqrt(w)), np.sqrt(w)[:, None] * dagger(e)
    else:
        route = "qr"
        # Householder QR keeps v orthonormal also when the two families overlap
        v, r = np.linalg.qr(x.T)
    log.debug("unitary_from_correspondence: %s route, lambda_min/lambda_max %.3e, %d frame columns",
              route, ratio, v.shape[1])
    a_in, b_in = _polar(r[:, :n]), _polar(r[:, n:])
    eye = np.eye(v.shape[1])
    # the polar factor of b a^dag + (I - b b^dag)(I - a a^dag) maps a to b and,
    # needing no completion convention, fixes every direction orthogonal to both
    off_a, off_b = eye - a_in @ dagger(a_in), eye - b_in @ dagger(b_in)
    left, _, right = np.linalg.svd(b_in @ dagger(a_in) + off_b @ off_a)
    return SpanUnitary(v, left @ right)
