"""The benchmark's four workloads: seeded inputs, one op, its check, and probes.

Every workload builds its inputs from the seed with the package's own
constructors, as a pool of rounds. A round has a fixed mix of input kinds (only
the random draws inside each kind change with the seed), and the benchmark
always runs whole rounds, so every run measures the same mix.

References used by the checks are closed forms or theorems from the paper,
written out here rather than taken from the code under test where that is
practical: the 2-text intervals, the central Q of real uniform texts, the
uniform feasibility thresholds z0(N), the failure-state parity rule and the
classification of 2-texts by |z|.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from enscribe import (
    certificates,
    cli,
    engine,
    files,
    linalg,
    machine,
    procedures,
    search,
    texts,
    verification,
)

GUARD = 1e-2  # distance kept from closed-form interval ends, as in two-text-q-range
ACCEPT = 1e-8
FLOOR = 1e-4

# Roots of the real-uniform feasibility sextic in (-1/(N-1), 0): a real uniform
# N-text with overlap z < Z0[N] admits no enscription for any Q.
Z0 = {3: -0.2037847, 4: -0.1414838, 5: -0.1091759, 6: -0.0891356, 7: -0.0754119}


def two_text_intervals(z: float) -> tuple:
    """Closed-form feasible Q of a 2-text with overlap modulus z: (-1, a] and [b, 1]."""
    return -2.0 * z / (1.0 + z) ** 2, 2.0 * z / (1.0 + z * z)


def central_q(n: int, z: float) -> float:
    """Central-tablet Q of the real uniform N-text with overlap z."""
    return -n * z / ((1.0 + z) * (1.0 + (n - 1) * z))


def rotated(text: texts.QuantumText, rng) -> texts.QuantumText:
    """The text under a random unitary: same Gram matrix, different vectors."""
    v = linalg.random_unitary(text.dimension, rng)
    return texts.make_text(text.dimension, [v @ text.state(i) for i in range(text.n_states)])


def probe_certificates(item: dict, call) -> None:
    """Certificate and entangled-input construction on the item's text."""
    text = item["text"]
    tablet = text.states.sum(axis=1)
    if np.linalg.norm(tablet) < 1e-6:
        tablet = text.state(0)
    big_q = item["Q"] if item["Q"] is not None else 0.0
    params = certificates.EnscriptionParams.from_Q(big_q, linalg.unit(tablet), n_states=text.n_states)
    call("certificates.certificate", certificates.certificate, text, params)
    for i in range(text.n_states):
        call("certificates.entangled_input", certificates.entangled_input, text, i, params.q, params.tablet)


class _Search:
    """Shared op, facts and probes of the two search workloads."""

    chosen = ("search",)
    tail_pct = 75.0
    runs_verification = False
    rescale = True

    def item(self, kind, text, big_q, rng, starts, **expect) -> dict:
        options = search.SearchOptions(seed=int(rng.integers(2 ** 31)), starts=starts)
        return {"kind": kind, "text": text, "Q": big_q, "options": options, "expect": expect}

    def op(self, item, call):
        return call("search.feasibility_search", search.feasibility_search,
                    item["text"], item["Q"], item["options"])

    def facts(self, item, res) -> dict:
        return {"search": (res.verdict, res.start_index, res.evaluations, res.best_residual,
                           item["options"].starts)}

    def probe(self, item, call) -> dict:
        probe_certificates(item, call)
        return {}

    def corrupt(self, item) -> dict:
        wrong = "infeasible" if item["expect"]["verdict"] == "feasible" else "feasible"
        return {**item, "expect": {**item["expect"], "verdict": wrong}}


class SearchFeasible(_Search):
    name = "search-feasible"
    why = ("16-start searches on inputs feasible in closed form; a winning start comes early, "
           "so an early stop or a cheaper objective shows here")
    kinds = ("two", "u3", "two", "joint3", "u3", "two", "joint4", "u3")
    tiny_kinds = ("two", "u3", "joint3", "joint4")

    def rounds(self, rng, count, workdir, tiny=False) -> list:
        out = []
        for r in range(count):
            items, two_k, u3_k = [], 0, 0
            for kind in self.tiny_kinds if tiny else self.kinds:
                if kind == "two":
                    z = rng.uniform(0.1 + 0.2 * two_k, 0.3 + 0.2 * two_k)
                    neg_hi, pos_lo = two_text_intervals(z)
                    if (r + two_k) % 2 == 0:
                        lo, hi = pos_lo + GUARD, 1.0
                    else:
                        lo, hi = -1.0 + 1e-3, neg_hi - GUARD
                    big_q = lo + rng.uniform(0.1, 0.9) * (hi - lo)
                    items.append(self.item(kind, texts.make_real_uniform(2, z), big_q, rng, 16,
                                           verdict="feasible"))
                    two_k += 1
                elif kind == "u3":
                    z = (rng.uniform(0.05, 0.275), rng.uniform(0.275, 0.5), rng.uniform(-0.17, -0.05))[u3_k]
                    image, _, _, _ = verification.random_equivalence_image(rng, texts.make_real_uniform(3, z))
                    items.append(self.item(kind, image, central_q(3, z), rng, 16, verdict="feasible"))
                    u3_k += 1
                else:
                    n = 3 if kind == "joint3" else 4
                    z = rng.uniform(0.1, 0.6)
                    image, _, _, _ = verification.random_equivalence_image(rng, texts.make_real_uniform(n, z))
                    items.append(self.item(kind, image, None, rng, 16, verdict="feasible", uniform=(n, z)))
            out.append(items)
        return out

    def check(self, item, res) -> list:
        where = "search.feasibility_search"
        if res.verdict != item["expect"]["verdict"] or res.certificate is None:
            return [f"{where}: verdict {res.verdict} (floor {res.best_residual:.3e}), "
                    f"expected {item['expect']['verdict']}"]
        bad = []
        params = res.certificate.params
        resid = certificates.residual_via_states(item["text"], params)
        if not resid < ACCEPT:
            bad.append(f"{where}: residual_via_states {resid:.3e} >= {ACCEPT:.0e}")
        if item["Q"] is not None and abs(params.Q - item["Q"]) > 1e-9:
            bad.append(f"{where}: certificate Q {params.Q} differs from the requested {item['Q']}")
        if "uniform" in item["expect"]:
            n, z = item["expect"]["uniform"]
            if not engine.q_range_real_uniform(n, z).contains(res.Q, margin=-1e-6):
                bad.append(f"{where}: joint Q {res.Q} outside q_range_real_uniform({n}, {z})")
        return bad


class SearchInfeasible(_Search):
    name = "search-infeasible"
    why = ("64-start searches that must run every start on inputs infeasible in closed form; "
           "an early stop must leave it flat, a faster per-start core moves it")
    kinds = ("q0", "gap", "q0", "gap", "joint", "gap", "q0", "gap")
    tiny_kinds = ("q0", "gap", "joint")
    q0_sizes = ((2, 2), (2, 3), (3, 3))

    def rounds(self, rng, count, workdir, tiny=False) -> list:
        out = []
        for _ in range(count):
            items, gap_k, q0_k = [], 0, 0
            for kind in self.tiny_kinds if tiny else self.kinds:
                if kind == "gap":
                    z = rng.uniform(0.1 + 0.15 * gap_k, 0.25 + 0.15 * gap_k)
                    neg_hi, pos_lo = two_text_intervals(z)
                    lo, hi = neg_hi + GUARD, pos_lo - GUARD
                    big_q = lo + rng.uniform(0.1, 0.9) * (hi - lo)
                    items.append(self.item(kind, texts.make_real_uniform(2, z), big_q, rng, 64,
                                           verdict="infeasible"))
                    gap_k += 1
                elif kind == "q0":
                    n, d = self.q0_sizes[q0_k]
                    text = verification.random_nonclassical_text(rng, n, d)
                    items.append(self.item(kind, text, 0.0, rng, 64, verdict="infeasible"))
                    q0_k += 1
                else:
                    z = rng.uniform(-0.45, -0.26)
                    items.append(self.item(kind, texts.make_real_uniform(3, z), None, rng, 64,
                                           verdict="infeasible"))
            out.append(items)
        return out

    def check(self, item, res) -> list:
        where = "search.feasibility_search"
        if res.verdict != item["expect"]["verdict"] or res.certificate is not None:
            return [f"{where}: verdict {res.verdict} (floor {res.best_residual:.3e}), "
                    f"expected {item['expect']['verdict']}"]
        if not res.best_residual > FLOOR:
            return [f"{where}: floor {res.best_residual:.3e} <= {FLOOR:.0e}"]
        return []


class ProcedureClone:
    name = "procedure-clone"
    why = ("build, verify and run the cloning machine from closed-form certificates, d = 4..20; "
           "linalg, procedures and machine do the work, search none")
    chosen = ("linalg", "procedures")
    tail_pct = 90.0
    runs_verification = False
    # Wall times as measured: the d = 20 ops, which work on multi-megabyte
    # matrices, do not slow down with the speed kernel, and rescaling them
    # tripled the run-to-run spread of op_tail_s.
    rescale = False
    dims = (4, 8, 12, 16, 20)
    # 2-texts only at d = 16 and 20: a round then has three ops below the two
    # d = 16 ops and two above, so the median falls inside the d = 16 ops, whose
    # times vary less between runs than the sub-10 ms ops at small d, and the
    # p90 inside the d = 20 ops.
    two_text_dims = (16, 20)

    def rounds(self, rng, count, workdir, tiny=False) -> list:
        out = []
        for _ in range(count):
            items = []
            for d in self.dims[:3] if tiny else self.dims:
                z = rng.uniform(0.05, 0.6)
                cert = engine.solve_real_uniform_central(d, z)
                # z > 0 gives Q < 0, whose failure state is swap-symmetric (+1)
                items.append({"kind": f"uniform-d{d}", "text": texts.make_real_uniform(d, z),
                              "cert": cert, "Q": cert.params.Q, "expect": {"parity": 1}})
                if d not in self.two_text_dims and not tiny:
                    continue
                z = -rng.uniform(0.05, 0.25)
                v = linalg.random_unitary(d, rng)
                two = texts.make_text(d, [v[:, 0], z * v[:, 0] + sqrt(1.0 - z * z) * v[:, 1]])
                cert = engine.solve_two_text(two)
                # z < 0 gives Q > 0, whose failure state is antisymmetric (-1)
                items.append({"kind": f"two-d{d}", "text": two, "cert": cert, "Q": cert.params.Q,
                              "expect": {"parity": -1}})
            out.append(items)
        return out

    def op(self, item, call):
        text, cert = item["text"], item["cert"]
        u = call("procedures.build_procedure", procedures.build_procedure, text, cert)
        err = call("procedures.verify_procedure", procedures.verify_procedure, u, text, cert)
        fidelity, parity = [], []
        for i in range(text.n_states):
            outcome = call("machine.run_clone", machine.run_clone, text, cert, i, procedure=u)
            sym = call("machine.failure_state_symmetry_check", machine.failure_state_symmetry_check,
                       text, cert, i)
            fidelity.append(outcome.fidelity)
            parity.append((sym.expected_parity, sym.parity_ok))
        return {"verify_error": err, "fidelity": fidelity, "parity": parity, "unitary_bytes": u.nbytes}

    def check(self, item, out) -> list:
        bad = []
        if not out["verify_error"] < ACCEPT:
            bad.append(f"procedures.build_procedure: verify error {out['verify_error']:.3e}")
        worst = max(abs(f - 1.0) for f in out["fidelity"])
        if not worst < ACCEPT:
            bad.append(f"machine.run_clone: |fidelity - 1| = {worst:.3e}")
        expected = item["expect"]["parity"]
        if any(p != expected or not ok for p, ok in out["parity"]):
            bad.append(f"machine.failure_state_symmetry_check: parity {out['parity'][0]}, "
                       f"expected {expected:+d}")
        return bad

    def facts(self, item, out) -> dict:
        return {"unitary_bytes": out["unitary_bytes"]}

    def probe(self, item, call) -> dict:
        """Time the linalg layer on the families build_procedure hands it."""
        probe_certificates(item, call)
        text, p = item["text"], item["cert"].params
        d = text.dimension
        inputs = [certificates.entangled_input(text, i, p.q, p.tablet) for i in range(text.n_states)]
        outputs = [p.phases[i] * np.kron(text.state(i), text.state(i)) for i in range(text.n_states)]
        gram_tol = max(linalg.GRAM_TOL, 10.0 * item["cert"].residual)
        call("linalg.unitary_from_correspondence", linalg.unitary_from_correspondence,
             inputs, outputs, d * d, gram_tol=gram_tol)
        for family in (inputs, outputs):
            frame = np.linalg.svd(np.column_stack(family), full_matrices=False)[0]
            call("linalg.complete_orthonormal", linalg.complete_orthonormal, frame)
        call("linalg.swap_operator", linalg.swap_operator, d)
        cswap = call("machine.controlled_swap", machine.controlled_swap, d)
        return {"controlled_swap_bytes": int(getattr(cswap, "nbytes", 0))}

    def corrupt(self, item) -> dict:
        return {**item, "expect": {"parity": -item["expect"]["parity"]}}


class Screen:
    name = "screen"
    why = ("CLI classify/qrange/solve on a JSON file plus texts.equivalent, N = 2..7; "
           "the only workload that measures texts, engine, files and cli")
    chosen = ("texts", "cli")
    tail_pct = 90.0
    runs_verification = True
    rescale = True
    commands = ("classify", "qrange", "solve")
    # (N, sign of z for a legible text, or 0 for an illegible one below z0(N)).
    # N = 2 twice and N = 3..7 once, each always the same case, so the median
    # op is always the illegible N = 4 one and the p90 falls inside the N = 7 ops.
    plan = ((2, 1), (2, -1), (3, 1), (4, 0), (5, -1), (6, 0), (7, 1))
    tiny_plan = ((2, 1), (3, 1), (4, 0))

    def rounds(self, rng, count, workdir, tiny=False) -> list:
        out = []
        for r in range(count):
            items = []
            for k, (n, sign) in enumerate(self.tiny_plan if tiny else self.plan):
                legible = sign != 0
                if n == 2:
                    z = sign * rng.uniform(0.1, 0.7)
                elif not legible:
                    lo = -1.0 / (n - 1)
                    z = lo + rng.uniform(0.2, 0.8) * (Z0[n] - lo)
                elif sign > 0:
                    z = rng.uniform(0.2, 0.8) / (n - 1)
                else:
                    z = rng.uniform(0.2, 0.8) * Z0[n]
                text = rotated(texts.make_real_uniform(n, z), rng)
                image, _, _, _ = verification.random_equivalence_image(rng, text)
                # same |Gram| but, for N >= 3, a different Bargmann invariant z^3
                partner = rotated(texts.make_real_uniform(n, -z), rng)
                path = workdir / f"text-{r}-{k}.json"
                files.save_text(text, str(path))
                items.append({
                    "kind": f"n{n}",
                    "text": text, "image": image, "partner": partner, "Q": None, "z": z,
                    "path": str(path),
                    "reports": {c: str(workdir / f"report-{c}.json") for c in self.commands},
                    "expect": {"exit": 0 if legible else 2, "legible": legible, "partner_match": n == 2},
                })
            out.append(items)
        return out

    def op(self, item, call):
        codes = tuple(
            call(f"cli.main.{c}", cli.main, [c, "--input", item["path"], "--output", item["reports"][c]])
            for c in self.commands
        )
        match = call("texts.equivalent.match", texts.equivalent, item["text"], item["image"])
        partner_span = "texts.equivalent.match" if item["expect"]["partner_match"] else "texts.equivalent.nomatch"
        other = call(partner_span, texts.equivalent, item["text"], item["partner"])
        return {"codes": codes, "match": match, "other": other}

    def check(self, item, out) -> list:
        exp = item["expect"]
        bad = [f"cli.main.{c}: exit {code}, expected {exp['exit']}"
               for c, code in zip(self.commands, out["codes"]) if code != exp["exit"]]
        if bad:
            return bad
        reports = {c: files.load_json(item["reports"][c]) for c in self.commands}
        verdict = reports["classify"]["illegibility"]["verdict"]
        if (verdict == "possibly_enscribable") != exp["legible"]:
            bad.append(f"cli.main.classify: verdict {verdict} for z = {item['z']}")
        if reports["qrange"]["empty"] == exp["legible"]:
            bad.append(f"cli.main.qrange: empty = {reports['qrange']['empty']} for z = {item['z']}")
        solve = reports["solve"]
        if solve["feasible"] != exp["legible"]:
            bad.append(f"cli.main.solve: feasible = {solve['feasible']} for z = {item['z']}")
        elif exp["legible"]:
            big_q = solve["Q"]
            inside = any(iv["lower"] - 1e-9 <= big_q <= iv["upper"] + 1e-9
                         for iv in reports["qrange"]["intervals"])
            if not solve["residual"] < ACCEPT or not inside:
                bad.append(f"cli.main.solve: Q {big_q} residual {solve['residual']:.3e} "
                           f"against the qrange report")
            if item["text"].n_states >= 3 and np.sign(big_q) != -np.sign(item["z"]):
                bad.append(f"cli.main.solve: sign(Q) = sign(z) for z = {item['z']}")
        if not self._witness_ok(item["text"], item["image"], out["match"]):
            bad.append("texts.equivalent.match: no valid witness for an equivalent image")
        if exp["partner_match"]:
            if not self._witness_ok(item["text"], item["partner"], out["other"]):
                bad.append("texts.equivalent.match: no valid witness for a 2-text with equal |z|")
        elif out["other"] is not None:
            bad.append("texts.equivalent.nomatch: witness returned for the z -> -z partner")
        return bad

    @staticmethod
    def _witness_ok(a, b, w) -> bool:
        if w is None:
            return False
        err = max(float(np.linalg.norm(a.state(i) - w.phases[i] * w.unitary @ b.state(w.permutation[i])))
                  for i in range(a.n_states))
        return err < 1e-6

    def facts(self, item, out) -> dict:
        return {"exit_mismatch": sum(code != item["expect"]["exit"] for code in out["codes"])}

    def probe(self, item, call) -> dict:
        """Time the library calls the CLI commands make, on the same files."""
        probe_certificates(item, call)
        text = call("files.load_text", files.load_text, item["path"])
        call("texts.classify", texts.classify, text)
        call("engine.illegibility_screen", engine.illegibility_screen, text)
        if item["expect"]["legible"]:
            if text.n_states == 2:
                call("engine.closed_form", engine.solve_two_text, text)
            else:
                call("engine.closed_form", engine.solve_real_uniform_central, text.n_states, item["z"])
        return {}

    def corrupt(self, item) -> dict:
        exp = item["expect"]
        return {**item, "expect": {**exp, "exit": 2 - exp["exit"], "legible": not exp["legible"]}}


WORKLOADS = {w.name: w for w in (SearchFeasible(), SearchInfeasible(), ProcedureClone(), Screen())}
