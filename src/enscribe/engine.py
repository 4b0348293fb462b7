"""Closed-form enscription solvers, entanglement-parameter ranges, and screens."""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, texts
from .certificates import (
    ACCEPT_TOL,
    CANONICAL_Q_TOL,
    EnscriptionCertificate,
    EnscriptionParams,
    certificate,
    enscription_residual,
    entangled_inputs,
)
from .errors import (
    DirectionNotOrthogonal,
    EnscribeError,
    IllegibleText,
    InvalidInputCertificate,
    NotADirectSum,
    QOutOfRange,
    RootNotBracketed,
    SizeMismatch,
    TOutOfRange,
    ZOutOfRange,
)

# Bracket width at which z0_threshold stops bisecting.
Z0_TOL = 1e-10

log = logging.getLogger("enscribe")


@dataclass(frozen=True)
class QInterval:
    """Closed/open interval of feasible entanglement parameters.

    Endpoint flavors annotate what is known about the boundary enscription:
    "central", "weakly_central", "quasi_central", "closed" (attained, flavor
    unasserted), or "open" (endpoint excluded).
    """

    lower: float
    upper: float
    lower_closed: bool
    upper_closed: bool
    lower_flavor: str
    upper_flavor: str

    def contains(self, value: float, margin: float = 0.0) -> bool:
        """Membership test; a positive margin shrinks the interval at both ends."""
        lo = self.lower + margin
        hi = self.upper - margin
        lo_ok = value >= lo if self.lower_closed else value > lo
        hi_ok = value <= hi if self.upper_closed else value < hi
        return lo_ok and hi_ok


@dataclass(frozen=True)
class QRangeResult:
    intervals: tuple

    def contains(self, value: float, margin: float = 0.0) -> bool:
        return any(iv.contains(value, margin) for iv in self.intervals)

    @property
    def empty(self) -> bool:
        return len(self.intervals) == 0


@dataclass(frozen=True)
class IllegibilityReport:
    """Outcome of the stack of necessary conditions for enscribability."""

    efficient_ok: bool
    lemma2_pattern_ok: bool
    eigen_sign_ok: bool
    eigen_sign: int | None
    uniform_threshold_ok: bool | None
    verdict: str

    @property
    def reason(self) -> str | None:
        """The failed condition that the verdict names, or None for possibly_enscribable."""
        return self.verdict[len("illegible("):-1] if self.illegible else None

    @property
    def illegible(self) -> bool:
        return self.verdict != "possibly_enscribable"


def solve_two_text(text: texts.QuantumText) -> EnscriptionCertificate:
    """Central-tablet enscription of a 2-text (always exists), built by _solve_gauged."""
    if text.n_states != 2:
        raise SizeMismatch("solver only applies to 2-texts")
    return _solve_gauged(text, *_closed_form(text))


def q_range_two_text(z_modulus: float) -> QRangeResult:
    """Feasible entanglement parameters of a thick 2-text with overlap modulus z."""
    z = float(z_modulus)
    if not 0.0 <= z < 1.0:
        raise ZOutOfRange(f"overlap modulus must lie in [0, 1), got {z}")
    pos_lo = 2.0 * z / (1.0 + z * z)
    neg_hi = -2.0 * z / (1.0 + z) ** 2
    return QRangeResult(
        intervals=(
            QInterval(-1.0, neg_hi, False, True, "open", "weakly_central"),
            QInterval(pos_lo, 1.0, True, True, "weakly_central", "closed"),
        )
    )


def two_text_gap_floor(z_modulus: float, big_q: float) -> float:
    """Least largest mismatch, over all tablets, of a 2-text with overlap modulus z at a fixed Q.

    0 inside q_range_two_text(z) and at Q = -1, where a tablet on a state
    matches but its entangled input degenerates. In the gap it is exact:
    - After the gauge, w = z + Q a0 conj(a1) and P = (1 + Q|a0|^2)(1 + Q|a1|^2),
      and the mismatch is | |w| - z^2 sqrt(P) |. A unit tablet in the span has
      a^dag G^-1 a = 1, so |w|^2 = P - c with c = (1 - z^2)(1 + Q), and
      f(P) = sqrt(P - c) - z^2 sqrt(P) strictly increases with P.
    - P is monotone in |a0|^2 and in |a1|^2, so its least value lies on the
      boundary of their reachable region, which real tablets trace:
      P = B^2 y^2 + 2ABzy + A^2 - B^2(1 - z^2), A = 1 + Q/2, B = Q/2,
      y in [-1, 1]. In the gap the vertex lies outside [-1, 1], so
      sqrt(P_min) = 1 + (Q - |Q|z)/2, and P_min - c is the square of
      sqrt(P_min) - 1 + z (Q < 0) or of 1 + z - sqrt(P_min) (Q > 0). The floor
      f(P_min) is therefore (1 - z)(z - |Q|k/2), with k = 1 + z^2 for Q > 0
      and (1 + z)^2 for Q < 0. That form has no square root, and it cancels
      only in the factor that vanishes at the range's ends.
    - A thin text's tablet with weight v on the span has overlaps sqrt(v) a',
      which meets the thick problem at Qv. Qv lies in the gap with Q, where
      the floor falls as |Qv| grows, so v = 1 is best: thin and thick
      2-texts share the floor.
    """
    q_range = q_range_two_text(z_modulus)
    z, q = float(z_modulus), float(big_q)
    if not -1.0 <= q <= 1.0:
        raise QOutOfRange(f"entanglement parameter must lie in [-1, 1], got {q}")
    if q_range.contains(q):
        return 0.0
    k = 1.0 + z * z if q > 0.0 else (1.0 + z) ** 2
    return max(0.0, (1.0 - z) * (z - abs(q) * k / 2.0))


def uniform_sextic(n_states: int, z: float) -> float:
    """Feasibility polynomial of real uniform N-texts evaluated at overlap z."""
    n = int(n_states)
    if n < 3:
        raise SizeMismatch("defined for N >= 3")
    z = float(z)
    return (
        1.0
        + 2.0 * (n - 1) * z
        - 3.0 * (n - 2) * z ** 2
        + 4.0 * (n - 1) * z ** 3
        + 3.0 * (n - 2) * z ** 4
        - 2.0 * (2 * n - 3) * z ** 5
        + (n - 1) * z ** 6
    )


def z0_threshold(n_states: int) -> float:
    """Unique root of the feasibility sextic in (-1/(N-1), 0), by bisection to Z0_TOL.

    Real uniform N-texts with overlap below this threshold admit no
    enscription for any deformation.
    """
    n = int(n_states)
    if n < 3:
        raise SizeMismatch("defined for N >= 3")
    a = -1.0 / (n - 1) + 1e-13
    b = -1e-13
    fa, fb = uniform_sextic(n, a), uniform_sextic(n, b)
    if not (fa < 0.0 < fb):
        raise RootNotBracketed(f"no sign change on ({a}, {b}) for N={n}")
    while b - a > Z0_TOL:
        mid = 0.5 * (a + b)
        if uniform_sextic(n, mid) < 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _uniform_q2(n: int, z: float) -> float:
    return -n * z / ((1.0 + z) * (1.0 + (n - 1) * z))


def _uniform_q1(n: int, z: float) -> float:
    num = -z * (4.0 * z * (1.0 - z * z) * (1.0 - z) + n * (1.0 - 2.0 * z + 3.0 * z ** 2 + 2.0 * z ** 3 - 3.0 * z ** 4))
    den = (1.0 + z) * (1.0 + (n - 1) * z) * (1.0 - z + z * z) ** 2
    return num / den


def q_range_real_uniform(n_states: int, z: float) -> QRangeResult:
    """Feasible entanglement parameters of a thick real uniform N-text, N >= 3, or of an orthonormal text of any N.

    The closed-form endpoints are intersected with (-1, 1]; an empty result
    means the text is illegible. The endpoint produced by the central tablet
    is flagged "central"; every other feasible value is quasi-central.
    """
    n = int(n_states)
    z = float(z)
    if z == 0.0:
        return QRangeResult(intervals=(QInterval(-1.0, 1.0, False, True, "open", "closed"),))
    if n < 3:
        raise SizeMismatch("defined for N >= 3")
    if not -1.0 / (n - 1) < z < 1.0:
        raise ZOutOfRange(f"need -1/(N-1) < z < 1, got {z}")
    q2 = _uniform_q2(n, z)
    q1 = _uniform_q1(n, z)
    lo, hi = (q1, q2) if q1 <= q2 else (q2, q1)
    lo_flavor = "central" if lo == q2 else "quasi_central"
    hi_flavor = "central" if hi == q2 else "quasi_central"
    lo_closed = hi_closed = True
    if hi > 1.0:
        hi, hi_closed, hi_flavor = 1.0, True, "quasi_central"
    if lo <= -1.0:
        lo, lo_closed, lo_flavor = -1.0, False, "open"
    if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
        return QRangeResult(intervals=())
    return QRangeResult(intervals=(QInterval(lo, hi, lo_closed, hi_closed, lo_flavor, hi_flavor),))


def _thin_interval(iv: QInterval) -> QInterval:
    """A thick interval widened for a thin text: Q is feasible when Q s^2 is for some s in (0, 1]
    (the rescaling of thin_extension_family), so each interval reaches out to -1 or 1, closed."""
    if iv.lower < 0.0 and not (iv.lower == -1.0 and iv.lower_closed):
        iv = replace(iv, lower=-1.0, lower_closed=True, lower_flavor="closed")
    if iv.upper > 0.0 and not (iv.upper == 1.0 and iv.upper_closed):
        iv = replace(iv, upper=1.0, upper_closed=True, upper_flavor="closed")
    return iv


def _closed_form(text: texts.QuantumText) -> tuple[np.ndarray, float, QRangeResult] | None:
    """The gauge (beta, z) and thick-text Q range of a 2-text, a one-state text or a real uniform text, else None.

    A 2-text's range reads |G_01| from texts.gram (the gauge's |z| can differ in the last bit); a
    dependent uniform text, z <= -1/(N-1), gets the empty range.
    """
    beta, z = _phase_gauge(text)
    n = text.n_states
    if z is None:
        return None
    if n == 2:
        return beta, z, q_range_two_text(abs(complex(texts.gram(text)[0, 1])))
    dependent = n > 1 and z <= -1.0 / (n - 1)
    return beta, z, QRangeResult(intervals=()) if dependent else q_range_real_uniform(n, z)


def closed_form_q_range(text: texts.QuantumText) -> QRangeResult:
    """The Q range of _closed_form, widened for a thin text (N < d); any other text raises EnscribeError."""
    closed = _closed_form(text)
    if closed is None:
        raise EnscribeError("no closed-form Q range for this text (need a 2-text or a real uniform text)")
    if text.n_states >= text.dimension:
        return closed[2]
    return QRangeResult(tuple(_thin_interval(iv) for iv in closed[2].intervals))


def _quasi_central_uniform(states: np.ndarray, beta: np.ndarray, z: float, big_q: float) -> EnscriptionParams:
    """Exact quasi-central parameters at a feasible Q for gauged states of common overlap z, phases times beta.

    One state keeps a distinct tablet overlap c1 = x + iy while the other
    N-1 share a common real overlap c fixed by Q c^2 = -z/(1+z). The unit-
    tablet constraint is linear in |c1|^2 once x is eliminated, so the
    remaining unimodularity condition reduces to a linear equation.
    """
    n = states.shape[1]
    lam = 1.0 + (n - 1) * z
    t_c = -z / ((1.0 + z) * big_q)
    if t_c <= 0:
        raise IllegibleText("entanglement parameter has the wrong sign for this overlap")
    c = np.sqrt(t_c)
    a1 = 1.0 + (n - 2) * z
    k1 = a1 / (2.0 * z * (n - 1) * c)
    k0 = ((n - 1) * c * c - (1.0 - z) * lam) / (2.0 * z * (n - 1) * c)
    qc = big_q * c
    z4 = z ** 4 / (1.0 + z)
    coeff1 = 2.0 * (z + qc * k0) * qc * k1 + qc ** 2 - 2.0 * qc ** 2 * k1 * k0 - big_q * z4
    coeff0 = (z + qc * k0) ** 2 - (qc * k0) ** 2 - z4
    s = -coeff0 / coeff1
    x = k1 * s + k0
    y_sq = s - x * x
    if y_sq < -1e-12:
        raise IllegibleText("no quasi-central tablet at this entanglement parameter")
    y = np.sqrt(max(0.0, y_sq))
    overlaps = np.full(n, c, dtype=complex)
    overlaps[0] = x + 1j * y
    weights = (overlaps - z * np.sum(overlaps) / lam) / (1.0 - z)
    tablet = states @ weights
    b1 = 1.0 + big_q * s
    b = 1.0 / (1.0 + z)
    gamma = (z + big_q * overlaps[0] * c) / (np.sqrt(b1 * b) * z * z)
    gamma /= abs(gamma)
    phases = beta * np.concatenate([[1.0 + 0j], np.full(n - 1, gamma)])
    return EnscriptionParams.from_Q(big_q, tablet, phases=phases)


def _solve_gauged(text: texts.QuantumText, beta: np.ndarray, z: float, q_range: QRangeResult) -> EnscriptionCertificate:
    """Enscription of a text whose gauged states beta_i psi_i have the common real overlap z (_closed_form).

    The normalized sum of the gauged states is the central tablet, with output phases beta, while its
    Q = -Nz/((1+z)(1+(N-1)z)) lies in [-1, 1] (up to CANONICAL_Q_TOL), as it does for a 2-text; beyond, the
    certificate is quasi-central at the midpoint of the thick range q_range. An empty one raises IllegibleText.
    At z = 0 the central Q is 0, where the cloning machine is undefined, so the tablet is gauged state 0 at
    Q = 1 instead: its residual is 0, and Q = 1 lies in every z = 0 range, a one-state text's included.
    """
    n = text.n_states
    if q_range.empty:
        raise IllegibleText(f"real uniform N={n} text with z={z} admits no enscription")
    states = text.states * beta
    q2 = _uniform_q2(n, z)
    if z == 0.0:
        params = EnscriptionParams.from_Q(1.0, states[:, 0], phases=beta)
    elif abs(q2) <= 1.0 + CANONICAL_Q_TOL:
        params = EnscriptionParams.from_Q(q2, linalg.unit(states.sum(axis=1)), phases=beta)
    else:
        interval = q_range.intervals[0]
        params = _quasi_central_uniform(states, beta, z, 0.5 * (interval.lower + interval.upper))
    return certificate(text, params)


def solve_real_uniform_central(n_states: int, z: float) -> EnscriptionCertificate:
    """solve_closed_form on make_real_uniform(n_states, z), N >= 2."""
    if int(n_states) < 2:
        raise SizeMismatch("defined for N >= 2")
    return solve_closed_form(texts.make_real_uniform(n_states, z))


def solve_closed_form(text: texts.QuantumText) -> EnscriptionCertificate | None:
    """The closed-form certificate of a 2-text, a one-state text or a real uniform text; None for any other text.

    An illegible uniform text raises the EnscribeError of _solve_gauged.
    """
    closed = _closed_form(text)
    if closed is None:
        return None
    log.info("dispatching to the 2-text central solver" if text.n_states == 2 else
             "dispatching to the real-uniform central solver (z=%g)" % closed[1])
    return _solve_gauged(text, *closed)


def direct_sum_enscribe(
    combined_text: texts.QuantumText,
    cert: EnscriptionCertificate,
    quantum_indices,
) -> EnscriptionCertificate:
    """Lift an enscription of an orthogonal subtext to the whole text.

    The remaining states must be pairwise orthogonal and orthogonal to the
    certified subtext (no edge of texts.overlap_graph), and ``cert`` must
    hold on the subtext with a residual below ACCEPT_TOL. The lifted tablet is
    the normalized projection of the input tablet onto the subtext dialect,
    and the entanglement parameter is scaled by the squared projection norm.
    Indices that QuantumText.subtext rejects (none, a repeated one, one
    outside range(N), or one that is not an integer, such as a float or a
    bool) raise DimensionMismatch; the identity order returns ``cert`` itself
    once it is validated, and any other order is re-certified on the whole
    text.
    """
    n = combined_text.n_states
    idx2 = tuple(quantum_indices)
    subtext = combined_text.subtext(idx2)
    idx1 = tuple(i for i in range(n) if i not in idx2)
    graph = texts.overlap_graph(combined_text)
    if graph[np.ix_(idx1, idx1)].any():
        raise NotADirectSum(f"states {idx1} of the complement are not pairwise orthogonal")
    if graph[np.ix_(idx1, idx2)].any():
        raise NotADirectSum(f"states {idx1} overlap the certified subtext {idx2}")
    if cert.params.n_states != len(idx2):
        raise InvalidInputCertificate("certificate phase count does not match the subtext")
    if enscription_residual(subtext, cert.params) >= ACCEPT_TOL:
        raise InvalidInputCertificate("input certificate is not valid on the subtext")
    if idx2 == tuple(range(n)):
        return cert
    basis = linalg.dialect_frame(subtext.states)
    projected = basis @ (linalg.dagger(basis) @ cert.params.tablet)
    norm = float(np.linalg.norm(projected))
    if norm < 1e-9:
        raise InvalidInputCertificate("tablet is orthogonal to the subtext dialect")
    new_q = norm ** 2 * cert.params.Q
    phases = np.ones(n, dtype=complex)
    for pos, i in enumerate(idx2):
        phases[i] = cert.params.phases[pos]
    params = EnscriptionParams.from_Q(new_q, projected / norm, phases=phases)
    return certificate(combined_text, params)


def thin_extension_family(
    text: texts.QuantumText,
    cert: EnscriptionCertificate,
    t: float,
    direction,
) -> EnscriptionCertificate:
    """Slide a thin text's tablet out of the dialect, rescaling Q to Q0/t.

    The new tablet is sqrt(t) psi_0 + sqrt(1-t) phi_0 with phi_0 a unit vector
    orthogonal to the dialect; t ranges over [|Q0|, 1] so the rescaled
    parameter stays inside [-1, 1]. Phases are unchanged.
    """
    t = float(t)
    q0 = cert.params.Q
    if not (abs(q0) <= t <= 1.0) or t <= 1e-12:
        raise TOutOfRange(f"need |Q0| <= t <= 1 with t > 0, got t={t}, Q0={q0}")
    phi = np.asarray(direction, dtype=complex).reshape(-1)
    if phi.shape[0] != text.dimension:
        raise DirectionNotOrthogonal("direction length does not match the language dimension")
    phi = linalg.unit(phi)
    basis = linalg.dialect_frame(text.states)
    if float(np.linalg.norm(linalg.dagger(basis) @ phi)) > 1e-9:
        raise DirectionNotOrthogonal("direction has a component inside the dialect")
    tablet0 = cert.params.tablet
    if float(np.linalg.norm(tablet0 - basis @ (linalg.dagger(basis) @ tablet0))) > 1e-8:
        raise InvalidInputCertificate("input tablet must lie in the dialect")
    new_tablet = np.sqrt(t) * tablet0 + np.sqrt(1.0 - t) * phi
    params = EnscriptionParams.from_Q(q0 / t, new_tablet, phases=cert.params.phases)
    return certificate(text, params)


def q_minus_one_dependence_check(text: texts.QuantumText, tablet) -> bool:
    """True iff the entangled inputs at deformation -1 are linearly dependent.

    For a thick text this always holds, which is what rules out enscriptions
    at entanglement parameter -1.
    """
    # the inputs as columns, the matrix the SVD read when they were stacked one by one
    omegas = entangled_inputs(text, -1.0, tablet).T
    return linalg.numerical_rank(np.linalg.svd(omegas, compute_uv=False)) < text.n_states


def _phase_gauge(text: texts.QuantumText) -> tuple[np.ndarray, float | None]:
    """Unit phases beta, beta_0 = 1, and the real z with conj(beta_i) beta_j <psi_i|psi_j> = z on every pair.

    The one rule for a real overlap, so equivalent texts get one z: z is None
    unless the gauged overlaps have imaginary parts of at most
    texts.DEFAULT_TOL and real parts that spread by at most that much. beta_j
    puts the overlap with state 0 at s |G_0j|, and z = s mean |G_ij|. For
    N >= 3 the sign s is that of the Bargmann invariant G_01 G_12 G_20 = z^3;
    a 2-text keeps a real negative overlap while its central Q stays within
    [-1, 1], else s = 1. With no edge of texts.overlap_graph, z = 0, beta = 1.
    """
    n = text.n_states
    beta = np.ones(n, dtype=complex)
    if not texts.overlap_graph(text).any():
        return beta, 0.0
    g = texts.gram(text)
    upper = ~np.tri(n, dtype=bool)  # i < j in row order, as np.triu_indices(n, 1) but cheaper
    row, real = g[0, 1:], np.abs(g[0, 1:].imag) <= texts.DEFAULT_TOL
    if n == 2:
        s = -1.0 if real[0] and row[0].real < 0.0 and _uniform_q2(2, -abs(row[0])) <= 1.0 + CANONICAL_Q_TOL else 1.0
    else:
        s = 1.0 if (g[0, 1] * g[1, 2] * g[2, 0]).real >= 0.0 else -1.0
    # only an overlap with state 0 that is complex or of sign -s gets a phase; a real one keeps exactly 1
    np.divide(s * np.conj(row), np.abs(row), out=beta[1:], where=~real | (s * row.real < 0.0))
    gauged = (np.conj(beta)[:, None] * g * beta)[upper]
    uniform = np.abs(gauged.imag).max() <= texts.DEFAULT_TOL and np.ptp(gauged.real) <= texts.DEFAULT_TOL
    return beta, (s * float(np.abs(g[upper]).mean()) if uniform else None)


def illegibility_screen(text: texts.QuantumText) -> IllegibilityReport:
    """Run the necessary conditions for enscribability and report the verdict.

    Checks, in order: linear independence of the states; the states that
    overlap any other must overlap pairwise (the others then form an
    orthogonal block with no cross terms); for an overlapping block of n >= 3
    states the entrywise-reciprocal Gram matrix 1/G must be nonsingular with
    all but one eigenvalue of a single sign (which pins the sign of any
    feasible entanglement parameter); and a real uniform text must have a
    nonempty _closed_form range, the rule that qrange and solve apply. Which
    states overlap comes from texts.overlap_graph.

    The signs are counted against a margin m on the rounding of 1/G's
    eigenvalues, computed from the input: an eigenvalue in [-m, m] reads as
    zero, so the block as singular. Each Gram entry is an inner product of
    unit vectors of length d, which rounds by at most (d + 2) eps (eps the
    machine epsilon); its reciprocal then moves by at most (d + 4) eps / |G_ij|^2
    with the rounding of the division. By Weyl's inequality the eigenvalues
    move by at most the Frobenius norm of those bounds, and eigvalsh adds at
    most n eps max|lambda|, so

        m = eps ((d + 4) ||1/|G|^2||_F + n max|lambda|).

    A near-parallel pair keeps its sign: at z = 1 - 5e-9 on a uniform 3-text
    the N - 1 eigenvalues near -5e-9 lie six orders of magnitude beyond m.
    """
    cls = texts.classify(text)
    g = texts.gram(text)
    graph = texts.overlap_graph(text)
    busy = np.flatnonzero(graph.any(axis=1))
    lemma2_ok = int(graph[np.ix_(busy, busy)].sum()) == busy.size * (busy.size - 1)

    eigen_ok = True
    eps: int | None = None
    if lemma2_ok and len(busy) >= 3:
        reciprocal = 1.0 / g[np.ix_(busy, busy)]
        eig = np.linalg.eigvalsh(reciprocal)
        margin = np.finfo(float).eps * ((text.dimension + 4) * np.linalg.norm(np.abs(reciprocal) ** 2)
                                        + eig.size * np.abs(eig).max())
        pos, neg = int(np.sum(eig > margin)), int(np.sum(eig < -margin))
        if pos + neg == eig.size and min(pos, neg) == 1:
            eps = 1 if neg == 1 else -1
        else:
            eigen_ok = False

    closed = None if cls.classical or text.n_states < 3 else _closed_form(text)
    uniform_ok = None if closed is None else not closed[2].empty

    reason = None
    if not cls.efficient:
        reason = "inefficient"
    elif not lemma2_ok:
        reason = "lemma2_pattern"
    elif not eigen_ok:
        reason = "eigen_sign"
    elif uniform_ok is False:
        reason = "uniform_threshold"
    return IllegibilityReport(
        efficient_ok=cls.efficient,
        lemma2_pattern_ok=lemma2_ok,
        eigen_sign_ok=eigen_ok,
        eigen_sign=eps,
        uniform_threshold_ok=uniform_ok,
        verdict="possibly_enscribable" if reason is None else f"illegible({reason})",
    )
