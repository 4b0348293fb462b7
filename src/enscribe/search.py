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

Each start is one Levenberg-Marquardt solve of the pairwise mismatches with
their analytic Jacobian. Starts run in a fixed, seeded order and the first
whose largest residual beats the accept tolerance wins, so the search stops
there. When no start certifies, every start runs and the result
records the lexicographic minimum of (residual, start index): a floor over
the starts, not a proof of infeasibility. The starts are coordinate vectors:
the text's states, their normalized sum, then seeded random vectors. The
tablet is built once, for the winning start.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, isfinite, sin, sqrt

import numpy as np

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
    """Best certificate found (if any) together with the attained residual.

    Without a certificate, ``best_residual`` is the search's floor: the
    largest pair mismatch at each start's end point, minimized over the
    starts. Each start minimizes the sum of squared mismatches, not the
    largest one, so the floor moves with the stop rules of _minimize_start;
    it is evidence of infeasibility, not a lower bound on the residual.
    """

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
    coordinate. residual_vector gives the mismatches and jacobian their exact
    derivative in x. Works on plain Python complex scalars; the problem sizes
    here (a handful of states in a handful of dimensions) make that faster
    than vectorizing.
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
        # e_l, the move of L c per unit of coordinate l: the columns of L for
        # Re c, i times them for Im c, 0 for s
        self.directions = [[row[m] for row in self.rows] for m in range(self.k)]
        self.directions += [[1j * v for v in col] for col in self.directions]
        self.directions += [[0j] * self.n] * (self.size - 2 * self.k)
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
        """Pair mismatches at overlaps ov and Q, with the forest phases that eliminate them
        and the scales s_i = sqrt(1 + Q |a_i|^2)."""
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
        return mismatches, alphas, sq

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
        ms, alphas, _ = self._mismatches(ov, big_q)
        return max(map(abs, ms), default=0.0), np.array(alphas, dtype=complex)

    def residual_vector(self, x, fixed_q: float | None) -> np.ndarray:
        ov = self.overlaps(x)
        if ov is None:
            return np.full(max(2 * len(self.pairs), 1), 1e3)
        ms, _, _ = self._mismatches(ov, self.q_of(x, fixed_q))
        # real and imaginary parts interleaved
        return np.array(ms, dtype=complex).view(np.float64)

    def jacobian(self, x, fixed_q: float | None) -> np.ndarray:
        """Derivative of residual_vector at x, rows in its order; zero at the origin.

        Column l is the move of the mismatches per unit of x[l]. For a tablet
        coordinate the overlaps a = L c / |(c, s)| move by (e_l - a x[l] / |x|) / |x|,
        with e_l the l-th of the directions; a joint Q = sin(x[-1]) moves by
        cos(x[-1]), and by 0 on its clamp.
        """
        ov = self.overlaps(x)
        if ov is None:
            return np.zeros((max(2 * len(self.pairs), 1), len(x)))
        big_q = self.q_of(x, fixed_q)
        _, alphas, sq = self._mismatches(ov, big_q)
        xs = [float(v) for v in x[: self.size]]
        norm = sqrt(sum(v * v for v in xs))
        columns = [
            self._mismatch_derivative(ov, alphas, sq, big_q, [(e - o * v / norm) / norm for e, o in zip(col, ov)], 0.0)
            for col, v in zip(self.directions, xs)
        ]
        if fixed_q is None:
            # on its clamp q_of returns the bound, not the sine
            d_q = cos(float(x[-1])) if big_q == sin(float(x[-1])) else 0.0
            columns.append(self._mismatch_derivative(ov, alphas, sq, big_q, [0j] * self.n, d_q))
        # real and imaginary rows interleaved, as in residual_vector
        return np.array(columns, dtype=complex).reshape(len(x), -1).view(np.float64).T

    def _mismatch_derivative(self, ov, alphas, sq, big_q, d_ov, d_q) -> list:
        """Derivative of the pair mismatches when the overlaps move by d_ov and Q by d_q.

        With w = z + Q a_i conj(a_j) and s_i = sqrt(1 + Q |a_i|^2), each forest
        phase follows its parent's, d theta_j = d theta_p + Im(dw / w), and each
        mismatch m = w - s_i s_j e^{i(theta_j - theta_i)} z^2 moves by
        dw - z^2 e^{i(theta_j - theta_i)} (d(s_i s_j) + i s_i s_j (d theta_j - d theta_i)).
        Terms through a vanishing w or s_i are 0.
        """

        def d_w(i, j):
            return d_q * ov[i] * ov[j].conjugate() + big_q * (
                d_ov[i] * ov[j].conjugate() + ov[i] * d_ov[j].conjugate()
            )

        d_sq = [
            (d_q * (o.real * o.real + o.imag * o.imag) + 2.0 * big_q * (o.conjugate() * do).real) / (2.0 * s)
            if s > 0.0
            else 0.0
            for o, do, s in zip(ov, d_ov, sq)
        ]
        d_theta = [0.0] * self.n
        for i, j, z, _ in self.forest:
            w = z + big_q * ov[i] * ov[j].conjugate()
            d_theta[j] = d_theta[i] + ((d_w(i, j) / w).imag if w and sq[i] * sq[j] > 0.0 else 0.0)
        return [
            d_w(i, j)
            - z2 * alphas[i].conjugate() * alphas[j]
            * (d_sq[i] * sq[j] + sq[i] * d_sq[j] + 1j * sq[i] * sq[j] * (d_theta[j] - d_theta[i]))
            for i, j, _, z2 in self.pairs
        ]


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
    """One Levenberg-Marquardt solve from x0; returns its end point and objective evaluations.

    Each step solves (J^T J + mu I) h = -J^T r with the analytic Jacobian; mu
    follows Nielsen's gain-ratio rule. A trial with a larger or non-finite
    residual is rejected. The solve stops when the gradient vanishes, an
    accepted step gains less than 1e-12 of the squared residual, a rejected
    step has shrunk to nothing, or 100 residuals have been evaluated.
    """
    x = np.array(x0, dtype=float)
    r = obj.residual_vector(x, fixed_q)
    cost, evals = r @ r, 1
    jac = obj.jacobian(x, fixed_q)
    grad, normal = jac.T @ r, jac.T @ jac
    mu, nu = 1e-3 * np.max(np.diagonal(normal), initial=0.0), 2.0
    while evals < 100 and np.max(np.abs(grad), initial=0.0) > 1e-15:
        step = np.linalg.solve(normal + mu * np.eye(len(x)), -grad)
        trial = x + step
        r_trial = obj.residual_vector(trial, fixed_q)
        evals += 1
        cost_trial = r_trial @ r_trial
        if cost_trial < cost:
            gain = (cost - cost_trial) / (step @ (mu * step - grad))
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
            small = cost - cost_trial <= 1e-12 * cost
            x, r, cost = trial, r_trial, cost_trial
            if small:
                break
            jac = obj.jacobian(x, fixed_q)
            grad, normal = jac.T @ r, jac.T @ jac
        else:
            mu, nu = mu * nu, nu * 2.0
            if not np.linalg.norm(step) > 1e-15 * np.linalg.norm(x):
                break
    return x, evals


def feasibility_search(
    text: texts.QuantumText,
    big_q: float | None = None,
    options: SearchOptions | None = None,
) -> SearchResult:
    """Search tablets (and optionally Q) for a valid enscription certificate.

    ``big_q`` is a fixed value or None, which optimizes Q jointly with the
    tablet. A fixed value outside [-1, 1] raises ``QOutOfRange`` before any
    start runs. At Q = -1 a thick text is infeasible in closed form (its
    entangled inputs are dependent, see engine.q_minus_one_dependence_check),
    so no start runs and the floor is infinite.

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
        if fixed_q == -1.0 and texts.classify(text).thick:
            return SearchResult(None, np.inf, "infeasible", fixed_q, -1, 0)
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
