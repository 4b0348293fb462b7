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
Its model is Gauss-Newton's J^T J, save that a joint Q's diagonal entry is
the larger of that and the sine's own curvature term -tan(x_q) g_q: the sine
is flat on |Q| = 1, where most starts on an infeasible text end, and there
Gauss-Newton alone sees no curvature along the Q coordinate. Starts run in a
fixed, seeded order and the first whose largest residual beats
certificates.ACCEPT_TOL wins, so the search stops there. When no start
certifies, every start runs and the result records the earliest start whose
residual is within FLOOR_TIE (relative) of the smallest: a floor over the
starts, not a proof of infeasibility. A 2-text at a fixed Q has its floor in
closed form (engine.two_text_gap_floor), so there the search also stops at
the first start within FLOOR_TIE of it, or within the mismatch's rounding
near the gap's ends, and a floor it stops at is the exact minimum to that
precision; where the floor is above that rounding, no start certifies, even
below ACCEPT_TOL. FLOOR_TIE is also the precision to
which a fixed-Q start polishes its floor: it stops once a step gains less
than that share of its squared residual. At a fixed Q = 0 the residual does
not depend on the tablet, so start 0 alone runs. The starts are coordinate
vectors: the text's states, their normalized sum, then seeded random
vectors. The tablet is built once, for the winning start or solve.

A joint search (Q free) that no start certifies ends with the Q problem:
it minimizes over Q the fixed-Q floor F(Q), the largest mismatch at the end
of one fixed-Q solve warm-started from the nearest Q already solved, by a
coarse grid and golden-section search (_minimize_over_q). The problem always
runs to its end, and its least F decides: below ACCEPT_TOL it certifies at
its Q, otherwise it is the joint floor. So a joint start does not polish its
own floor: it stalls at an accepted step that gains at most JOINT_STOP of its
squared residual when the undamped Gauss-Newton model at its new point
predicts at most that share too (_minimize_start).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import islice
from math import cos, sin, sqrt, tan

import numpy as np

from . import engine, linalg, texts
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
MAX_EVALUATIONS = 100  # objective evaluations one solve (a start or a Q-problem solve) may spend
JOINT_STOP = 0.25  # share of its squared residual at which a joint start stalls (_minimize_start)
JOINT_Q_MIN = -1.0 + 1e-9  # where q_of clamps a joint Q, and where the Q problem's grid begins
Q_GRID = 9  # points of the Q problem's coarse scan, evenly spaced on [JOINT_Q_MIN, 1]
Q_TOL = 1e-2  # width to which golden-section search narrows the Q problem's bracket


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

    Without a certificate at a fixed Q, ``best_residual`` is the search's
    floor: the largest pair mismatch at the winning start's end point, within
    FLOOR_TIE of its minimum over the starts. Each start minimizes the sum of
    squares, not the largest mismatch, and stops once a step gains less than
    FLOOR_TIE of it, so the floor moves with the stop rules of
    _minimize_start; it is evidence of infeasibility, not a lower bound. The
    exception is a 2-text at a fixed Q other than 0 and -1: the search stops
    at a start within FLOOR_TIE of engine.two_text_gap_floor, or within the
    mismatch's rounding of it (feasibility_search), so a floor it stops at is
    the exact minimum to that precision.

    A joint floor is the least fixed-Q floor F(Q) that the Q problem found:
    ``Q`` is where it found it, and ``start_index`` is the joint start that
    seeded the problem (the earliest within FLOOR_TIE of the smallest joint
    end), also when that least F certifies. A certified result's ``Q`` is its
    certificate's, q_to_Q(canonical_q(Q)), which can differ from the Q that
    was searched by a few ulp. F is a floor of
    the same kind as a fixed-Q search's, so it too is evidence and not a
    lower bound, and the Q problem narrows Q to Q_TOL only. A 1e-15 relative
    jitter of the Jacobian moves the joint floor of
    make_real_uniform(3, -0.319) by at most 1e-10 relative (measured over 20
    jitters: 1.5e-15).

    ``evaluations`` counts the objective evaluations of every start and every
    solve of the Q problem: 1 at a fixed Q = 0, where start 0 alone runs and
    makes no step.
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
        """Fixed Q, or sin of the joint coordinate, clamped below at JOINT_Q_MIN = -1 + 1e-9.

        The sine keeps a joint Q in [-1, 1] with no bound to hit, but its slope
        cos x vanishes at Q = +-1, and below the clamp Q does not move with x at
        all; _normal_equations gives the model the sine's curvature there.
        """
        if fixed_q is not None:
            return fixed_q
        return max(JOINT_Q_MIN, sin(float(x[-1])))

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


def _normal_equations(obj: _Objective, x: np.ndarray, r: np.ndarray, fixed_q: float | None):
    """Gradient g = J^T r and model matrix at x: J^T J, with a joint Q entry that sees the sine's curvature.

    A joint Q = sin x_q moves r by r_Q cos x_q, which vanishes on |Q| = 1, so
    J^T J is flat there along x_q. The chart's own share of the Hessian,
    sum_i r_i d^2 r_i / dx_q^2 through sin'' = -sin, is -sin x_q sum_i r_i r_Q,i
    = -tan(x_q) g_q, exact on |Q| = 1; the (Q, Q) entry takes the larger of it
    and Gauss-Newton's J_q^T J_q. On the clamp near Q = -1, g_q is 0.
    """
    jac = obj.jacobian(x, fixed_q)
    grad, normal = jac.T @ r, jac.T @ jac
    if fixed_q is None:
        normal[-1, -1] = max(normal[-1, -1], -tan(float(x[-1])) * float(grad[-1]))
    return grad, normal


def _minimize_start(obj: _Objective, x0: np.ndarray, fixed_q: float | None):
    """One Levenberg-Marquardt solve from x0; returns its end point, objective evaluations and
    whether the joint stall ended it.

    Each step solves (N + mu I) h = -J^T r with the analytic Jacobian, where N
    is J^T J with a joint Q's curvature entry (_normal_equations); mu
    follows Nielsen's gain-ratio rule, floored at 1e-12 of N's largest
    diagonal entry. A trial with a larger or non-finite residual is rejected.
    The solve stops when the gradient vanishes, a rejected step has shrunk to
    nothing, MAX_EVALUATIONS residuals have been evaluated, or an accepted
    step gains at most a share of the squared residual: FLOOR_TIE at a fixed
    Q, the precision to which the search ties floors. A joint start, whose
    floor the search does not report, either certifies or seeds the Q problem
    (_minimize_over_q); it stalls at an accepted step that gains at most
    JOINT_STOP when the undamped model at the new point, (N + floor I) h =
    -J^T r, predicts a gain g^T (N + floor I)^-1 g of at most JOINT_STOP too.
    A small gain alone is no stall: a start on its way to a certificate can
    gain a few percent a step for tens of steps while mu holds it back, and
    there the undamped model predicts nearly its whole squared residual away.
    The scalar bookkeeping runs on Python floats.
    """
    stop = FLOOR_TIE if fixed_q is not None else JOINT_STOP
    x = np.array(x0, dtype=float)
    r = obj.residual_vector(x, fixed_q)
    cost, evals = float(r @ r), 1
    grad, normal = _normal_equations(obj, x, r, fixed_q)
    mu, nu = 1e-3 * float(np.max(np.diagonal(normal), initial=0.0)), 2.0
    eye = np.eye(len(x))
    while evals < MAX_EVALUATIONS and abs(grad).max() > 1e-15:
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
            small = cost - cost_trial <= stop * cost
            x, r, cost = trial, r_trial, cost_trial
            if small and fixed_q is not None:
                break
            grad, normal = _normal_equations(obj, x, r, fixed_q)
            # the tablet's radial direction leaves N singular, so mu has a floor
            floor = 1e-12 * float(normal.diagonal().max())
            mu = max(mu, floor)
            # a joint start stalls where the undamped model, too, says a step gains at most JOINT_STOP
            # (floor is 0 only where J, and so the gradient, is 0, and the loop ends anyway)
            if small and floor > 0.0 and float(grad @ np.linalg.solve(normal + floor * eye, grad)) <= stop * cost:
                return x, evals, True
        else:
            mu, nu = mu * nu, nu * 2.0
            if not sqrt(float(step @ step)) > 1e-15 * sqrt(float(x @ x)):
                break
    return x, evals, False


def _minimize_over_q(obj: _Objective, q0: float, x0: np.ndarray):
    """Minimize over Q the fixed-Q floor F(Q), seeded by a joint start's end at (q0, tablet x0).

    F(Q) is the largest mismatch at the end of one fixed-Q _minimize_start,
    warm-started from the end tablet of the nearest Q already solved (x0 for
    the first). F is computed at q0, then at Q_GRID points evenly spaced on
    [JOINT_Q_MIN, 1], then by golden-section search between the neighbours of
    the best grid point, until the bracket is at most Q_TOL wide. The problem
    always runs to its end. Returns the least F's (F, phases, tablet, Q) and
    the evaluations of each solve.
    """
    solved, uses = [], []

    def floor_at(big_q: float) -> float:
        warm = min(solved, key=lambda end: abs(end[3] - big_q))[2] if solved else x0
        x, used, _ = _minimize_start(obj, warm, big_q)
        uses.append(used)
        solved.append((*obj.max_residual(x, big_q), x, big_q))
        return solved[-1][0]

    floor_at(q0)
    grid = np.linspace(JOINT_Q_MIN, 1.0, Q_GRID).tolist()
    floors = [floor_at(q) for q in grid]
    i = floors.index(min(floors))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, Q_GRID - 1)]
    shrink = (sqrt(5.0) - 1.0) / 2.0
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = floor_at(c), floor_at(d)
    while hi - lo > Q_TOL:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = floor_at(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = floor_at(d)
    return min(solved, key=lambda end: end[0]), uses


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
    ends the search and gives the certificate. Otherwise every start runs
    and the result records the earliest start whose floor is within FLOOR_TIE
    (relative) of the smallest, with that start's floor and Q, and verdict
    "infeasible" (above the floor tolerance) or "inconclusive" (in between).
    A joint search goes on from that start to the Q problem
    (_minimize_over_q): F(Q) at the start's Q, then at Q_GRID points evenly
    spaced on [JOINT_Q_MIN, 1], then by golden-section search between the
    best grid point's neighbours down to a bracket Q_TOL wide. The problem
    always runs to its end, and the least F certifies at its Q if it is below
    ACCEPT_TOL; otherwise the least F and its Q are the result's floor and Q,
    with the seeding start's index. A certified result reports its
    certificate's Q.
    So ``options.starts`` counts joint starts only; the Q problem's solves
    come on top.
    At any other fixed Q a 2-text's floor is known exactly
    (engine.two_text_gap_floor), so the search also ends at the first start
    whose residual is within FLOOR_TIE (relative) of it, or within
    8 eps (1 + |Q|) absolute; the winner rule is unchanged. Where that floor
    exceeds 8 eps (1 + |Q|), Q lies outside the closed-form range, so no
    residual certifies there, not even one below ACCEPT_TOL near the gap's
    ends: the search reports the floor ("inconclusive" below FLOOR_TOL). The absolute
    margin is the mismatch's own rounding: m = z + Q a0 conj(a1)
    - s0 s1 e^{i theta} z^2 has terms of modulus at most 1, |Q| and 1 + |Q|
    (|a_i| <= 1, s_i^2 <= 1 + |Q|), so about eight roundings, each off by
    eps/2 of what it rounds, move it by up to 8 eps (1 + |Q|), which also
    covers the closed form's own rounding. Near the gap's ends, where the
    floor is below about 1e-6, that is more than FLOOR_TIE of the floor.
    Each search logs one debug line on the ``enscribe`` logger: the starts
    run, the evaluations, the solves (starts and the Q problem's) that ran
    into the MAX_EVALUATIONS cap, the verdict and the best residual; for a
    fixed-Q 2-text the closed-form floor, and for a joint search the starts
    that stalled (_minimize_start), the Q problem's solves, their evaluations
    and the result's Q.
    """
    options = options or SearchOptions()
    joint = big_q is None
    fixed_q = None if joint else float(big_q)
    if not joint:
        canonical_q(fixed_q)  # raises QOutOfRange outside [-1, 1], NaN included
    obj = _Objective(text)
    starts = _starts_for(obj, options, joint)
    closed_floor, stop_at, certify_below = None, -np.inf, ACCEPT_TOL
    if fixed_q == 0.0:
        # w = z and every s_i = 1, so the residual does not see the tablet and
        # every start would end on start 0's floor
        starts = islice(starts, 1)
    elif fixed_q == -1.0 and texts.classify(text).thick:
        starts = ()
    elif not joint and obj.n == 2:
        # a fixed-Q 2-text's floor is known in closed form, so a start that reaches it ends the search
        closed_floor = engine.two_text_gap_floor(abs(obj.pairs[0][2]), fixed_q)
        rounding = 8.0 * np.finfo(float).eps * (1.0 + abs(fixed_q))
        stop_at = closed_floor * (1.0 + FLOOR_TIE) + rounding
        if closed_floor > rounding:
            # Q is outside the closed-form range, so no residual, however small, certifies
            certify_below = 0.0
    ends, evals, capped, stalled, q_uses = [], 0, 0, 0, []
    for x0 in starts:
        x, used, stall = _minimize_start(obj, x0, fixed_q)
        evals += used
        capped += used >= MAX_EVALUATIONS
        stalled += stall
        ends.append((*obj.max_residual(x, fixed_q), x))
        if ends[-1][0] < certify_below or ends[-1][0] <= stop_at:
            break
    floor = min((res for res, _, _ in ends), default=np.inf)
    if floor == np.inf:
        result = SearchResult(None, np.inf, "infeasible", fixed_q, -1, evals)
    else:
        best_idx = len(ends) - 1
        if floor >= certify_below:
            # many starts end on one floor up to rounding, so a tie goes to the earliest
            best_idx = next(i for i, (res, _, _) in enumerate(ends) if res - floor <= FLOOR_TIE * floor)
        best_res, best_phases, best_x = ends[best_idx]
        qv = obj.q_of(best_x, fixed_q)
        if joint and best_res >= ACCEPT_TOL:
            (best_res, best_phases, best_x, qv), q_uses = _minimize_over_q(obj, qv, best_x[: obj.size])
            evals += sum(q_uses)
            capped += sum(used >= MAX_EVALUATIONS for used in q_uses)
        if best_res < certify_below:
            cert = certificate(text, EnscriptionParams.from_Q(qv, obj.tablet(best_x), phases=best_phases))
            result = SearchResult(cert, best_res, "feasible", cert.params.Q, best_idx, evals)
        else:
            verdict = "infeasible" if best_res > FLOOR_TOL else "inconclusive"
            result = SearchResult(None, best_res, verdict, qv, best_idx, evals)
    note = "" if closed_floor is None else f", closed-form floor {closed_floor:.3e}"
    if joint:
        note = f", stalled starts {stalled}, Q problem solves {len(q_uses)}, evaluations {sum(q_uses)}, Q {result.Q}"
    log.debug("feasibility_search: starts run %d, evaluations %d, capped solves %d, verdict %s, best_residual %.3e%s",
              len(ends), evals, capped, result.verdict, result.best_residual, note)
    return result
