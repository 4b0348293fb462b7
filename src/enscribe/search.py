"""Seeded multi-start numerical search for enscription parameters.

The matching condition sees the tablet only through its overlaps a = L c
with the states. One complete QR of the states, states = Q_k R_k with
k = min(N, d) and R's diagonal made nonnegative, gives L = R_k^dag, the
Cholesky factor of the Gram matrix G = L L^dag; c in C^k holds the tablet's
coordinates on the columns of Q_k. A thin text (N < d) adds one real
coordinate s, the tablet's part along the next column of Q. No rank is cut,
so the overlaps are exact for nearly dependent states too, and L depends on
G alone wherever G is nonsingular, so a rotated text gets the same
coordinates. A joint Q is the sine of a last coordinate. For
fixed coordinates the output phases are eliminated: each nonzero overlap
forces a relative phase, propagated over a spanning forest of the
nonzero-overlap graph, and what remains vanishes exactly at enscribable
parameters.

Each start is one trust-region least-squares solve (finite-difference
Jacobian) of the pairwise mismatches. Starts run in a fixed, seeded order and
the first whose largest residual beats the accept tolerance wins, so the
search stops there. When no start certifies, every start runs and the result
records the lexicographic minimum of (residual, start index): a floor over
the starts, not a proof of infeasibility. The starts are coordinate vectors:
the text's states, their normalized sum, then seeded random vectors. The
tablet is built once, for the winning start.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sin, sqrt

import numpy as np
from scipy.optimize import least_squares

from . import linalg, texts
from .certificates import (
    ACCEPT_TOL,
    DEGENERATE_TOL,
    EnscriptionCertificate,
    EnscriptionParams,
    canonical_q,
    certificate,
)
from .errors import EnscribeError

FLOOR_TOL = 1e-4


@dataclass(frozen=True)
class SearchOptions:
    """Seed, start count and accept tolerance of a search; invalid values raise EnscribeError."""

    seed: int = 0
    starts: int = 64
    accept_tol: float = ACCEPT_TOL

    def __post_init__(self):
        if not self.seed >= 0:
            raise EnscribeError(f"seed must be nonnegative, got {self.seed}")
        if not self.starts >= 1:
            raise EnscribeError(f"starts must be at least 1, got {self.starts}")
        if not (isfinite(self.accept_tol) and self.accept_tol > 0.0):
            raise EnscribeError(f"tolerance must be finite and positive, got {self.accept_tol}")


@dataclass(frozen=True)
class SearchResult:
    """Best certificate found (if any) together with the attained residual."""

    certificate: EnscriptionCertificate | None
    best_residual: float
    verdict: str
    Q: float | None
    start_index: int
    evaluations: int = 0

    @property
    def feasible(self) -> bool:
        return self.certificate is not None


class _Objective:
    """Residual of the phase-eliminated matching condition at Gram coordinates x (and Q).

    x holds Re c, Im c, the remainder s of a thin text, then a joint Q
    coordinate. Works on plain Python complex scalars; the problem sizes here
    (a handful of states in a handful of dimensions) make that faster than
    vectorizing.
    """

    def __init__(self, text: texts.QuantumText):
        self.n = text.n_states
        g = texts.gram(text)
        # states = Q_k R_k with k = min(N, d); flipping rows of R_k to a
        # nonnegative diagonal makes L = R_k^dag the Cholesky factor of G,
        # which every rotation of the text shares
        q, r = np.linalg.qr(text.states, mode="complete")
        self.k = min(self.n, text.dimension)
        flip = np.where(np.diagonal(r).real < 0.0, -1.0, 1.0)
        self.factor = linalg.dagger(r[: self.k] * flip[:, None])
        q[:, : self.k] *= flip
        # the basis only serves to build the winning tablet: Q_k, then a thin
        # text's remainder direction
        self.basis = q
        self.size = 2 * self.k + (self.k < text.dimension)
        self.rows = [[complex(v) for v in row] for row in self.factor]
        self.pairs = [
            (i, j, complex(g[i, j]), complex(g[i, j]) ** 2)
            for i in range(self.n)
            for j in range(i + 1, self.n)
        ]
        # (parent, child) edges of the overlap graph's spanning forest
        self.forest = [
            (p, i, complex(g[p, i]), complex(g[p, i]) ** 2)
            for i, p in texts.spanning_forest(texts.overlap_graph(text))
            if p is not None
        ]

    def overlaps(self, x) -> list | None:
        """The tablet's overlaps a = L c / |(c, s)| with the states; None at the origin."""
        k = self.k
        xs = [float(v) for v in x[: self.size]]
        norm_sq = sum(v * v for v in xs)
        if norm_sq < 1e-18:
            return None
        inv = 1.0 / sqrt(norm_sq)
        c = [complex(xs[m], xs[m + k]) * inv for m in range(k)]
        return [sum(lk * ck for lk, ck in zip(row, c)) for row in self.rows]

    def tablet(self, x) -> np.ndarray:
        """The unit tablet Q_k c + s q_k at x; q_k is the QR column after the dialect's."""
        k = self.k
        t = self.basis[:, :k] @ (x[:k] + 1j * x[k: 2 * k])
        if self.size > 2 * k:
            t = t + x[2 * k] * self.basis[:, k]
        return linalg.unit(t)

    def q_of(self, x, fixed_q: float | None) -> float:
        """Fixed Q, or sin of the joint coordinate: smooth, so no stretch of x is flat in Q."""
        if fixed_q is not None:
            return fixed_q
        return max(-1.0 + 1e-9, sin(float(x[-1])))

    def _mismatches(self, ov: list, big_q: float) -> tuple:
        """Pair mismatches at overlaps ov and Q, with the forest phases that eliminate them."""
        sq = [
            sqrt(max(0.0, 1.0 + big_q * (o.real * o.real + o.imag * o.imag)))
            for o in ov
        ]
        alphas = [complex(1.0)] * self.n
        for i, j, z, z2 in self.forest:
            den = sq[i] * sq[j] * z2
            forced = (z + big_q * ov[i] * ov[j].conjugate()) / den if den else 0j
            mod = abs(forced)
            alphas[j] = alphas[i] * (forced / mod if mod > 0.0 else 1.0)
        mismatches = [
            z + big_q * ov[i] * ov[j].conjugate() - sq[i] * sq[j] * alphas[i].conjugate() * alphas[j] * z2
            for i, j, z, z2 in self.pairs
        ]
        return mismatches, alphas

    def max_residual(self, x, fixed_q: float | None) -> tuple:
        """Largest pair mismatch at x with its phases; infinite at the origin and
        where an entangled input degenerates (A_i <= DEGENERATE_TOL, as in entangled_input)."""
        ov = self.overlaps(x)
        if ov is None:
            return np.inf, None
        big_q = self.q_of(x, fixed_q)
        q = canonical_q(big_q)
        if min(1.0 + q * q + 2.0 * q * abs(o) ** 2 for o in ov) <= DEGENERATE_TOL:
            return np.inf, None
        ms, alphas = self._mismatches(ov, big_q)
        return max(map(abs, ms), default=0.0), np.array(alphas, dtype=complex)

    def residual_vector(self, x, fixed_q: float | None) -> np.ndarray:
        ov = self.overlaps(x)
        if ov is None:
            return np.full(max(2 * len(self.pairs), 1), 1e3)
        ms, _ = self._mismatches(ov, self.q_of(x, fixed_q))
        # real and imaginary parts interleaved
        return np.array(ms, dtype=complex).view(np.float64)


def _starts_for(obj: _Objective, options: SearchOptions, joint_q: bool) -> list:
    # States first: from their normalized sum the solve can stall in a
    # nonzero local minimum, so a search's cost depended on which start won.
    # State i sits at conj(L[i, :]), their normalized sum at L^dag 1 / |L^dag 1|.
    coords = [obj.factor[i].conj() for i in range(min(obj.n, 4))]
    total = obj.factor.conj().sum(axis=0)
    norm = np.linalg.norm(total)
    if norm > 1e-6:
        coords.append(total / norm)
    rest = np.zeros(obj.size - 2 * obj.k + joint_q)
    xs = [np.concatenate([c.real, c.imag, rest]) for c in coords]
    rng = np.random.default_rng(options.seed)
    while len(xs) < options.starts:
        vec = rng.standard_normal(obj.size)
        if joint_q:
            vec = np.concatenate([vec, np.arcsin(rng.uniform(-0.95, 0.95, 1))])
        xs.append(vec)
    return xs[: options.starts]


def _minimize_start(obj: _Objective, x0: np.ndarray, fixed_q: float | None):
    """One least-squares solve from x0; returns its end point and objective evaluations."""
    fit = least_squares(
        lambda x: obj.residual_vector(x, fixed_q),
        x0,
        method="trf",
        xtol=3e-16,
        ftol=3e-16,
        gtol=1e-15,
        max_nfev=150,
    )
    # nfev leaves out the len(x0) calls of each two-point Jacobian
    return fit.x, fit.nfev + fit.njev * len(x0)


def feasibility_search(
    text: texts.QuantumText,
    big_q: float | None = None,
    options: SearchOptions | None = None,
) -> SearchResult:
    """Search tablets (and optionally Q) for a valid enscription certificate.

    ``big_q`` is a fixed value or None, which optimizes Q jointly with the
    tablet. A fixed value outside [-1, 1] raises ``QOutOfRange`` before any
    start runs.

    The first start, in start order, whose residual beats the accept tolerance
    ends the search and yields the certificate. Otherwise every start runs
    and the result records the attained floor with verdict "infeasible"
    (above the floor tolerance) or "inconclusive" (in between).
    """
    options = options or SearchOptions()
    joint = big_q is None
    fixed_q = None if joint else float(big_q)
    if not joint:
        canonical_q(fixed_q)  # raises QOutOfRange outside [-1, 1], NaN included
    obj = _Objective(text)
    best_x, best_phases, best_res, best_idx, evals = None, None, np.inf, -1, 0
    for idx, x0 in enumerate(_starts_for(obj, options, joint)):
        x, used = _minimize_start(obj, x0, fixed_q)
        evals += used
        res, phases = obj.max_residual(x, fixed_q)
        if res < best_res:
            best_x, best_res, best_idx, best_phases = x, res, idx, phases
        if res < options.accept_tol:
            break
    if best_x is None:
        return SearchResult(None, np.inf, "infeasible", fixed_q, -1, evals)
    qv = obj.q_of(best_x, fixed_q)
    if best_res < options.accept_tol:
        params = EnscriptionParams.from_Q(qv, obj.tablet(best_x), phases=best_phases)
        return SearchResult(certificate(text, params), best_res, "feasible", qv, best_idx, evals)
    verdict = "infeasible" if best_res > FLOOR_TOL else "inconclusive"
    return SearchResult(None, best_res, verdict, qv, best_idx, evals)
