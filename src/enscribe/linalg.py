"""Dense complex linear-algebra helpers shared by the higher-level modules."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, GramMismatch

GRAM_TOL = 1e-10
RANK_TOL = 1e-8


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


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


def swap_operator(dim: int) -> np.ndarray:
    """Exchange of the two tensor factors on C^dim (x) C^dim as a dense matrix.

    It is the identity with its rows permuted by swap_factors.
    """
    return swap_factors(np.eye(dim * dim, dtype=complex), dim)


def symmetric_basis(dim: int) -> np.ndarray:
    """Isometry whose columns span the swap-symmetric subspace of C^(dim^2)."""
    # columns: the diagonal states |ii>, then (|ij> + |ji>)/sqrt(2) for i < j in row order
    diag = np.arange(dim)
    i, j = np.triu_indices(dim, 1)
    pairs = dim + np.arange(i.size)
    basis = np.zeros((dim * dim, dim + i.size), dtype=complex)
    basis[diag * dim + diag, diag] = 1.0
    basis[i * dim + j, pairs] = basis[j * dim + i, pairs] = 1.0 / np.sqrt(2.0)
    return basis


def complete_orthonormal(cols: np.ndarray) -> np.ndarray:
    """Orthonormal columns completing ``cols`` (dim x r, orthonormal) to a basis of C^dim.

    Only the span of ``cols`` is fixed by the callers, so the completion is a
    convention: the greedy column-pivoted QR of I - cols cols^dag. Each new
    column is the normalized residual of the canonical vector whose residual
    is largest (the largest diagonal entry of the residual projector, lowest
    index on ties), orthogonalized twice against every column so far; its
    component on that canonical vector is positive up to rounding, so R has
    a positive diagonal.
    """
    dim, r = cols.shape
    # the basis vectors as rows, so that each one is contiguous
    rows = np.zeros((dim, dim), dtype=complex)
    rows[:r] = cols.T
    # diagonal of the residual projector: the squared residual of each canonical vector
    resid = 1.0 - np.sum(np.abs(cols) ** 2, axis=1)
    for k in range(r, dim):
        j = int(np.argmax(resid))
        done = rows[:k]
        v = -(done[:, j].conj() @ done)
        v[j] += 1.0
        v -= (done.conj() @ v) @ done
        v /= np.linalg.norm(v)
        rows[k] = v
        resid -= np.abs(v) ** 2
    return rows[r:].T


def numerical_rank(values: np.ndarray) -> int:
    """Count of singular values (or PSD eigenvalues) above RANK_TOL times the largest.

    A dialect dimension is counted on Gram eigenvalues, as in dialect_frame.
    """
    return int(np.sum(values > RANK_TOL * max(float(np.max(values)), 1e-300)))


def dialect_frame(vectors: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal dialect frame U of the columns of ``vectors``.

    ``g`` is their Gram matrix (computed when omitted). Of g = E diag(w) E^dag
    the eigenvalues numerical_rank counts are kept, and
    U = polar(vectors E_r / sqrt(w_r)), so vectors ~ U (E_r sqrt(w_r))^dag:
    two families with the same Gram matrix get frames with the same
    coefficients.
    """
    if g is None:
        g = dagger(vectors) @ vectors
    w, e = np.linalg.eigh(g)
    # eigh sorts ascending, so the kept eigenvalues are the last ones
    keep = w.size - numerical_rank(w)
    # the polar factor: nearest matrix with orthonormal columns
    u, _, vh = np.linalg.svd(vectors @ (e[:, keep:] / np.sqrt(w[keep:])), full_matrices=False)
    return u @ vh


def unitary_from_correspondence(
    inputs,
    outputs,
    dim: int | None = None,
    gram_tol: float = GRAM_TOL,
) -> np.ndarray:
    """Unitary W with W @ inputs[k] = outputs[k] for Gram-matched vector families.

    Both families are mixed with the same coefficients into their dialect
    frames A and B over the common Gram matrix, whose rank r sets the frame
    size. W is a unitary with W A = B nearest the identity: the identity
    outside span(inputs, outputs) and a rotation inside. With V the
    orthonormal Q of the QR of [A, B] (k = min(dim, 2r) columns) and
    a = V^dag A, b = V^dag B, W = I + V (m - I) V^dag, where m is the polar
    factor of b a^dag + (I - b b^dag)(I - a a^dag) in C^k: it maps a to b,
    and the complement of span(a) to that of span(b) as close to the
    identity as a unitary can, so it fixes every direction orthogonal to
    both, including columns of V outside their span.

    Raises GramMismatch when the two Gram matrices differ by more than
    ``gram_tol`` entrywise, DimensionMismatch on inconsistent shapes.
    """
    a = np.column_stack([np.asarray(v, dtype=complex) for v in inputs]) if len(inputs) else None
    b = np.column_stack([np.asarray(v, dtype=complex) for v in outputs]) if len(outputs) else None
    if (a is None) != (b is None) or (a is not None and a.shape != b.shape):
        raise DimensionMismatch("input and output families must have matching shapes")
    if a is None:
        if dim is None:
            raise DimensionMismatch("dimension required for empty correspondence")
        return np.eye(dim, dtype=complex)
    if dim is not None and a.shape[0] != dim:
        raise DimensionMismatch(f"vectors have length {a.shape[0]}, expected {dim}")
    ga = dagger(a) @ a
    gb = dagger(b) @ b
    gap = float(np.max(np.abs(ga - gb)))
    if not gap <= gram_tol:
        raise GramMismatch(f"Gram matrices differ by {gap:.3e} (> {gram_tol:.1e})")

    g = 0.5 * (ga + gb)
    a_frame = dialect_frame(a, g)
    b_frame = dialect_frame(b, g)
    # Householder QR keeps v orthonormal also when the two frames overlap
    v, _ = np.linalg.qr(np.column_stack([a_frame, b_frame]))
    a_in, b_in = dagger(v) @ a_frame, dagger(v) @ b_frame
    eye = np.eye(v.shape[1])
    # the polar factor of b a^dag + (I - b b^dag)(I - a a^dag) maps a to b and,
    # needing no completion convention, fixes every direction orthogonal to both
    off_a, off_b = eye - a_in @ dagger(a_in), eye - b_in @ dagger(b_in)
    left, _, right = np.linalg.svd(b_in @ dagger(a_in) + off_b @ off_a)
    w = v @ (left @ right - eye) @ dagger(v)
    w += np.eye(a.shape[0])
    return w
