"""Seeded multi-start numerical search for enscription parameters.

For a fixed tablet and entanglement parameter the output phases can be
eliminated: every pair with a nonzero overlap forces the relative phase, and
a consistent assignment is propagated over a spanning forest of the
nonzero-overlap graph. The remaining objective depends only on the tablet
(and Q when it is not fixed) and vanishes exactly at enscribable parameters.

Each start is one trust-region least-squares solve (finite-difference
Jacobian) of the pairwise mismatches. Starts run in a fixed, seeded order and
the first whose largest residual beats the accept tolerance wins, so the
search stops there. When no start certifies, every start runs and the result
records the lexicographic minimum of (residual, start index): a floor over
the starts, not a proof of infeasibility. The starts are the text's states,
their normalized sum, then seeded random tablets; a joint Q is the sine of
the last coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sin, sqrt

import numpy as np
from scipy.optimize import least_squares

from . import texts
from .certificates import ACCEPT_TOL, EnscriptionCertificate, EnscriptionParams, canonical_q, certificate

FLOOR_TOL = 1e-4


@dataclass(frozen=True)
class SearchOptions:
    seed: int = 0
    starts: int = 64
    accept_tol: float = ACCEPT_TOL


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
    """Residual of the phase-eliminated matching condition at (tablet, Q).

    Works on plain Python complex scalars; the problem sizes here (a handful
    of states in a handful of dimensions) make that faster than vectorizing.
    """

    def __init__(self, text: texts.QuantumText, tol: float = 1e-12):
        self.n = text.n_states
        self.d = text.dimension
        self.conj_states = [
            [complex(text.states[k, i]).conjugate() for k in range(self.d)]
            for i in range(self.n)
        ]
        g = texts.gram(text)
        self.pairs = [
            (i, j, complex(g[i, j]), complex(g[i, j]) ** 2)
            for i in range(self.n)
            for j in range(i + 1, self.n)
        ]
        self.forest = self._spanning_forest(g, tol)

    def _spanning_forest(self, g: np.ndarray, tol: float) -> list:
        """Edges (i, j, z_ij, z_ij^2) of a breadth-first forest of the nonzero-overlap graph."""
        nz = np.abs(g) > tol
        np.fill_diagonal(nz, False)
        seen = [False] * self.n
        order = []
        for root in range(self.n):
            if seen[root]:
                continue
            seen[root] = True
            queue = [root]
            while queue:
                i = queue.pop(0)
                for j in range(self.n):
                    if nz[i, j] and not seen[j]:
                        seen[j] = True
                        z = complex(g[i, j])
                        order.append((i, j, z, z * z))
                        queue.append(j)
        return order

    def tablet_of(self, x) -> list | None:
        d = self.d
        xs = [float(v) for v in x[: 2 * d]]
        norm_sq = sum(v * v for v in xs)
        if norm_sq < 1e-18:
            return None
        inv = 1.0 / sqrt(norm_sq)
        return [complex(xs[k], xs[k + d]) * inv for k in range(d)]

    def q_of(self, x, fixed_q: float | None) -> float:
        """Fixed Q, or sin of the joint coordinate: smooth, so no stretch of x is flat in Q."""
        if fixed_q is not None:
            return fixed_q
        return max(-1.0 + 1e-9, sin(float(x[-1])))

    def _alphas(self, ov: list, sq: list, big_q: float) -> list:
        alphas = [complex(1.0)] * self.n
        for i, j, z, z2 in self.forest:
            lhs = z + big_q * ov[i] * ov[j].conjugate()
            forced = lhs / (sq[i] * sq[j] * z2)
            mod = abs(forced)
            alphas[j] = alphas[i] * (forced / mod if mod > 0.0 else 1.0)
        return alphas

    def _mismatches(self, tablet: list, big_q: float) -> list:
        ov = [sum(c * t for c, t in zip(row, tablet)) for row in self.conj_states]
        sq = [
            sqrt(max(0.0, 1.0 + big_q * (o.real * o.real + o.imag * o.imag)))
            for o in ov
        ]
        alphas = self._alphas(ov, sq, big_q)
        return [
            z + big_q * ov[i] * ov[j].conjugate() - sq[i] * sq[j] * alphas[i].conjugate() * alphas[j] * z2
            for i, j, z, z2 in self.pairs
        ]

    def phases_for(self, tablet, big_q: float) -> np.ndarray:
        tab = [complex(v) for v in tablet]
        ov = [sum(c * t for c, t in zip(row, tab)) for row in self.conj_states]
        sq = [sqrt(max(0.0, 1.0 + big_q * abs(o) ** 2)) for o in ov]
        return np.array(self._alphas(ov, sq, big_q), dtype=complex)

    def max_residual(self, tablet, big_q: float) -> float:
        if self.n < 2:
            return 0.0
        return max(abs(m) for m in self._mismatches([complex(v) for v in tablet], big_q))

    def residual_vector(self, x, fixed_q: float | None) -> np.ndarray:
        tablet = self.tablet_of(x)
        if tablet is None:
            return np.full(max(2 * len(self.pairs), 1), 1e3)
        ms = self._mismatches(tablet, self.q_of(x, fixed_q))
        out = np.empty(2 * len(ms))
        for k, m in enumerate(ms):
            out[2 * k] = m.real
            out[2 * k + 1] = m.imag
        return out


def _structured_tablets(text: texts.QuantumText) -> list:
    # States first: from their normalized sum the solve often stalls in a
    # nonzero local minimum (two-texts at fixed Q, rotated uniform texts with
    # joint Q), so a search's cost depended on which start won.
    cands = [text.state(i).copy() for i in range(min(text.n_states, 4))]
    total = text.states.sum(axis=1)
    norm = np.linalg.norm(total)
    if norm > 1e-6:
        cands.append(total / norm)
    return cands


def _starts_for(text: texts.QuantumText, options: SearchOptions, joint_q: bool) -> list:
    d = text.dimension
    rng = np.random.default_rng(options.seed)
    xs = []
    for tab in _structured_tablets(text):
        x = np.concatenate([tab.real, tab.imag, [0.0]] if joint_q else [tab.real, tab.imag])
        xs.append(x)
    while len(xs) < options.starts:
        vec = rng.standard_normal(2 * d)
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
    best_x, best_res, best_idx, evals = None, np.inf, -1, 0
    for idx, x0 in enumerate(_starts_for(text, options, joint)):
        x, used = _minimize_start(obj, x0, fixed_q)
        evals += used
        tablet = obj.tablet_of(x)
        if tablet is None:
            continue
        res = obj.max_residual(tablet, obj.q_of(x, fixed_q))
        if res < best_res:
            best_x, best_res, best_idx = x, res, idx
        if res < options.accept_tol:
            break
    if best_x is None:
        return SearchResult(None, np.inf, "infeasible", fixed_q, -1, evals)
    tablet = np.array(obj.tablet_of(best_x), dtype=complex)
    qv = obj.q_of(best_x, fixed_q)
    if best_res < options.accept_tol:
        params = EnscriptionParams.from_Q(qv, tablet, phases=obj.phases_for(tablet, qv))
        return SearchResult(certificate(text, params), best_res, "feasible", qv, best_idx, evals)
    verdict = "infeasible" if best_res > FLOOR_TOL else "inconclusive"
    return SearchResult(None, best_res, verdict, qv, best_idx, evals)
