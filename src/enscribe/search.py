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
their analytic Jacobian: Wirtinger rows over the overlaps, built on Python
scalars from the residual's own evaluation, times a fixed direction matrix.
Starts run in a fixed, seeded order and the first whose largest residual
beats certificates.ACCEPT_TOL wins, so the search stops there. When no start
certifies, every start runs and the result records the earliest start whose
residual is within FLOOR_TIE (relative) of the smallest: a floor over the
starts, not a proof of infeasibility. FLOOR_TIE is also the precision to
which a start polishes its floor: it stops once a step gains less than that
share of its squared residual. At a fixed Q = 0 the residual does not depend
on the tablet, so start 0 alone runs. The starts are coordinate vectors:
the text's states, their normalized sum, then seeded random vectors. The
tablet is built once, for the winning start.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import islice
from math import cos, sin, sqrt

import numpy as np

from . import linalg, texts
from .certificates import (
    ACCEPT_TOL,
    DEGENERATE_TOL,
    EnscriptionCertificate,
    EnscriptionParams,
    _normalizer,
    canonical_q,
    certificate,
)
from .errors import EnscribeError

log = logging.getLogger("enscribe")

FLOOR_TOL = 1e-4
FLOOR_TIE = 1e-10


@dataclass(frozen=True)
class SearchOptions:
    """Seed and start count of a search, both integers (not bools); invalid values raise EnscribeError."""

    seed: int = 0
    starts: int = 64

    def __post_init__(self):
        for name in ("seed", "starts"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise EnscribeError(f"{name} must be an integer, got {value!r}")
        if not self.seed >= 0:
            raise EnscribeError(f"seed must be nonnegative, got {self.seed}")
        if not self.starts >= 1:
            raise EnscribeError(f"starts must be at least 1, got {self.starts}")


@dataclass(frozen=True)
class SearchResult:
    """Best certificate found (if any) together with the attained residual.

    Without a certificate, ``best_residual`` is the search's floor: the
    largest pair mismatch at the winning start's end point, within FLOOR_TIE
    of its minimum over the starts. Each start minimizes the sum of squares,
    not the largest mismatch, and stops once a step gains less than FLOOR_TIE
    of it, so the floor moves with the stop rules of _minimize_start; it is
    evidence of infeasibility, not a lower bound. ``evaluations`` counts the
    objective evaluations of every start run: 1 at a fixed Q = 0, where
    start 0 alone runs and makes no step.
    A floor whose winning start ran into the 100-evaluation cap near |Q| = 1,
    where a joint Q coordinate barely moves, carries rounding noise of up to
    1e-4 relative: a 1e-15 relative change of the Jacobian moves it there.
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
    derivative in x. Point-dependent work runs on Python complex scalars,
    cheaper at these sizes than numpy's per-call cost; the Jacobian's product
    with its constant frame is one numpy call.
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
        # rows E = [L, iL, 0] (the move of L c per unit of each tablet
        # coordinate), conj E, x (set by jacobian) and the unit Q row
        e = np.hstack([self.factor, 1j * self.factor, np.zeros((self.n, self.size + 1 - 2 * self.k))])
        self.frame = np.vstack([e, e.conj(), np.zeros((2, self.size + 1))])
        self.frame[-1, -1] = 1.0
        self._last = (None, None)
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
        xs = x[: self.size].tolist()
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

    def _evaluate(self, x, fixed_q: float | None):
        """(overlaps, Q, mismatches, phases, scales) at x, None at the origin; kept
        for the last point, so the Jacobian at an evaluated point reuses them."""
        key = (x.tolist(), fixed_q)
        if self._last[0] != key:
            ov = self.overlaps(x)
            big_q = self.q_of(x, fixed_q)
            self._last = (key, None if ov is None else (ov, big_q, *self._mismatches(ov, big_q)))
        return self._last[1]

    def max_residual(self, x, fixed_q: float | None) -> tuple:
        """Largest pair mismatch at x with its phases; infinite at the origin and
        where an entangled input degenerates (A_i <= DEGENERATE_TOL, as in entangled_input)."""
        state = self._evaluate(x, fixed_q)
        if state is None:
            return np.inf, None
        ov, big_q, ms, alphas, _ = state
        q = canonical_q(big_q)
        if min(_normalizer(q, abs(o) ** 2) for o in ov) <= DEGENERATE_TOL:
            return np.inf, None
        return max(map(abs, ms), default=0.0), np.array(alphas, dtype=complex)

    def residual_vector(self, x, fixed_q: float | None) -> np.ndarray:
        state = self._evaluate(x, fixed_q)
        if state is None:
            return np.full(max(2 * len(self.pairs), 1), 1e3)
        # real and imaginary parts interleaved
        return np.array(state[2], dtype=complex).view(np.float64)

    def jacobian(self, x, fixed_q: float | None) -> np.ndarray:
        """Derivative of residual_vector at x, rows in its order; zero at the origin.

        With w = z + Q a_i conj(a_j) and s_i = sqrt(1 + Q |a_i|^2), each forest
        phase follows its parent's, d theta_j = d theta_p + Im(dw / w), and each
        mismatch m = w - s_i s_j e^{i(theta_j - theta_i)} z^2 moves by
        dw - z^2 e^{i(theta_j - theta_i)} (d(s_i s_j) + i s_i s_j (d theta_j - d theta_i)).
        One scalar pass writes each move as a Wirtinger row over (da, d conj a, dQ),
        a real differential as its da half h (its d conj a half is conj(h));
        terms through a vanishing w or s_i are 0. The overlaps a = L c / |x|
        move by (E - a x^T / |x|) / |x|, so the tablet columns are
        (rows [E; conj E] - (rows [a; conj a]) x^T / |x|) / |x|, one product with
        the frame. A joint Q = sin(x[-1]) moves by cos(x[-1]), and by 0 on its clamp.
        """
        state = self._evaluate(x, fixed_q)
        if state is None:
            return np.zeros((max(2 * len(self.pairs), 1), len(x)))
        ov, big_q, _, alphas, sq = state
        n = self.n
        conj_ov = [o.conjugate() for o in ov]
        # ds_i as its da_i coefficient and dQ part; theta_j as its da row, dQ part last
        d_sq = [big_q * co / (2.0 * s) if s > 0.0 else 0j for co, s in zip(conj_ov, sq)]
        d_sq_q = [(o.real * o.real + o.imag * o.imag) / (2.0 * s) if s > 0.0 else 0.0 for o, s in zip(ov, sq)]
        theta = [[0j] * (n + 1) for _ in range(n)]
        for p, j, z, _ in self.forest:
            row = theta[j] = theta[p][:]
            w = z + big_q * ov[p] * conj_ov[j]
            if w and sq[p] * sq[j] > 0.0:
                # Im(dw / w) = (dw / w - conj(dw / w)) / 2i
                row[p] += big_q * conj_ov[j] / (2j * w)
                row[j] -= big_q * conj_ov[p] / (2j * w.conjugate())
                row[n] += (ov[p] * conj_ov[j] / w).imag
        norm = sqrt(sum(v * v for v in x[: self.size].tolist()))
        # on its clamp q_of returns the bound, not the sine
        d_q = cos(float(x[-1])) if fixed_q is None and big_q == sin(float(x[-1])) else 0.0
        rows = []
        for i, j, _, z2 in self.pairs:
            phase = z2 * alphas[i].conjugate() * alphas[j]
            spin = -1j * phase * sq[i] * sq[j]
            diff = [b - a for a, b in zip(theta[i], theta[j])]
            d_a = [spin * v for v in diff[:n]]
            d_conj_a = [spin * v.conjugate() for v in diff[:n]]
            d_a[i] += big_q * conj_ov[j] - phase * sq[j] * d_sq[i]
            d_a[j] -= phase * sq[i] * d_sq[j]
            d_conj_a[i] -= phase * sq[j] * d_sq[i].conjugate()
            d_conj_a[j] += big_q * ov[i] - phase * sq[i] * d_sq[j].conjugate()
            radial = sum(t * o for t, o in zip(d_a, ov)) + sum(t * o for t, o in zip(d_conj_a, conj_ov))
            move_q = ov[i] * conj_ov[j] - phase * (sq[j] * d_sq_q[i] + sq[i] * d_sq_q[j]) + spin * diff[n]
            rows.append(d_a + d_conj_a + [-radial / norm, move_q * d_q * norm])
        frame = self.frame[:, : len(x)]
        frame[2 * n, : self.size] = x[: self.size]
        cols = np.array(rows, dtype=complex).reshape(len(self.pairs), 2 * n + 2) @ frame / norm
        # real and imaginary rows interleaved, as in residual_vector
        return np.ascontiguousarray(cols.T).view(np.float64).T


def _starts_for(obj: _Objective, options: SearchOptions, joint_q: bool):
    """Yield the search's start vectors in order, each drawn only when the search reaches it."""
    # States first: from their normalized sum the solve can stall in a
    # nonzero local minimum, so a search's cost depended on which start won.
    # State i sits at conj(L[i, :]), their normalized sum at L^dag 1 / |L^dag 1|.
    coords = [obj.factor[i].conj() for i in range(min(obj.n, 4))]
    total = obj.factor.conj().sum(axis=0)
    norm = np.linalg.norm(total)
    if norm > 1e-6:
        coords.append(total / norm)
    rest = np.zeros(obj.size - 2 * obj.k + joint_q)
    coords = coords[: options.starts]
    for c in coords:
        yield np.concatenate([c.real, c.imag, rest])
    rng = np.random.default_rng(options.seed)
    for _ in range(options.starts - len(coords)):
        vec = rng.standard_normal(obj.size)
        if joint_q:
            vec = np.concatenate([vec, np.arcsin(rng.uniform(-0.95, 0.95, 1))])
        yield vec


def _minimize_start(obj: _Objective, x0: np.ndarray, fixed_q: float | None):
    """One Levenberg-Marquardt solve from x0; returns its end point and objective evaluations.

    Each step solves (J^T J + mu I) h = -J^T r with the analytic Jacobian; mu
    follows Nielsen's gain-ratio rule, floored at 1e-12 of J^T J's largest
    diagonal entry. A trial with a larger or non-finite residual is rejected.
    The solve stops when the gradient vanishes, an accepted step gains less
    than FLOOR_TIE of the squared residual (the precision to which the search
    ties floors), a rejected step has shrunk to nothing, or 100 residuals have
    been evaluated. The scalar bookkeeping runs on Python floats.
    """
    x = np.array(x0, dtype=float)
    r = obj.residual_vector(x, fixed_q)
    cost, evals = float(r @ r), 1
    jac = obj.jacobian(x, fixed_q)
    grad, normal = jac.T @ r, jac.T @ jac
    mu, nu = 1e-3 * float(np.max(np.diagonal(normal), initial=0.0)), 2.0
    eye = np.eye(len(x))
    while evals < 100 and abs(grad).max() > 1e-15:
        step = np.linalg.solve(normal + mu * eye, -grad)
        trial = x + step
        r_trial = obj.residual_vector(trial, fixed_q)
        evals += 1
        cost_trial = float(r_trial @ r_trial)
        if cost_trial < cost:
            predicted = float(step @ (mu * step - grad))
            # every gain ratio from 1 up gives the factor 1/3, so the cap keeps the cube finite;
            # a prediction rounded to zero or below counts as a full gain
            gain = min((cost - cost_trial) / predicted, 1.0) if predicted > 0.0 else 1.0
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
            small = cost - cost_trial <= FLOOR_TIE * cost
            x, r, cost = trial, r_trial, cost_trial
            if small:
                break
            jac = obj.jacobian(x, fixed_q)
            grad, normal = jac.T @ r, jac.T @ jac
            # the tablet's radial direction leaves J^T J singular, so mu has a floor
            mu = max(mu, 1e-12 * float(normal.diagonal().max()))
        else:
            mu, nu = mu * nu, nu * 2.0
            if not sqrt(float(step @ step)) > 1e-15 * sqrt(float(x @ x)):
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
    so no start runs and the floor is infinite. At Q = 0 start 0 alone runs:
    there the residual does not depend on the tablet.

    The first start, in start order, whose residual beats ACCEPT_TOL
    ends the search and yields the certificate. Otherwise every start runs
    and the result records the earliest start whose floor is within FLOOR_TIE
    (relative) of the smallest, with that start's floor and Q, and verdict
    "infeasible" (above the floor tolerance) or "inconclusive" (in between).
    Each search logs one debug line on the ``enscribe`` logger: the starts
    run, the evaluations, the verdict and the best residual.
    """
    options = options or SearchOptions()
    joint = big_q is None
    fixed_q = None if joint else float(big_q)
    if not joint:
        canonical_q(fixed_q)  # raises QOutOfRange outside [-1, 1], NaN included
    obj = _Objective(text)
    starts = _starts_for(obj, options, joint)
    if fixed_q == 0.0:
        # w = z and every s_i = 1, so the residual does not see the tablet and
        # every start would end on start 0's floor
        starts = islice(starts, 1)
    elif fixed_q == -1.0 and texts.classify(text).thick:
        starts = ()
    ends, evals = [], 0
    for x0 in starts:
        x, used = _minimize_start(obj, x0, fixed_q)
        evals += used
        ends.append((*obj.max_residual(x, fixed_q), x))
        if ends[-1][0] < ACCEPT_TOL:
            break
    floor = min((res for res, _, _ in ends), default=np.inf)
    if floor == np.inf:
        result = SearchResult(None, np.inf, "infeasible", fixed_q, -1, evals)
    else:
        best_idx = len(ends) - 1
        if floor >= ACCEPT_TOL:
            # many starts end on one floor up to rounding, so a tie goes to the earliest
            best_idx = next(i for i, (res, _, _) in enumerate(ends) if res - floor <= FLOOR_TIE * floor)
        best_res, best_phases, best_x = ends[best_idx]
        qv = obj.q_of(best_x, fixed_q)
        if best_res < ACCEPT_TOL:
            params = EnscriptionParams.from_Q(qv, obj.tablet(best_x), phases=best_phases)
            result = SearchResult(certificate(text, params), best_res, "feasible", qv, best_idx, evals)
        else:
            verdict = "infeasible" if best_res > FLOOR_TOL else "inconclusive"
            result = SearchResult(None, best_res, verdict, qv, best_idx, evals)
    log.debug("feasibility_search: starts run %d, evaluations %d, verdict %s, best_residual %.3e",
              len(ends), evals, result.verdict, result.best_residual)
    return result
