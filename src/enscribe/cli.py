"""Batch command-line front end emitting deterministic JSON reports.

Exit codes: 0 success/feasible, 2 well-formed negative result (illegible
input, or no valid certificate for solve, build-procedure or clone, which
share _certificate), 1 error. Verbosity is controlled by the ENSCRIBE_LOG
environment variable (error, info, debug).
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys

import numpy as np

from . import engine, files, machine, procedures, texts, verification
from .errors import EnscribeError, InvalidCertificate
from .search import SearchOptions, feasibility_search

log = logging.getLogger("enscribe")


def _emit(report: dict, output: str | None) -> None:
    text = files.dump_json(report, output)
    if not output:
        sys.stdout.write(text)


def _load_text(args) -> texts.QuantumText:
    if not args.input:
        raise EnscribeError("at least one --input file is required")
    return files.load_text(args.input[0])


def cmd_classify(args) -> int:
    text = _load_text(args)
    screen = engine.illegibility_screen(text)
    _emit({"classification": texts.classify(text), "gram": texts.gram(text), "illegibility": screen}, args.output)
    return 2 if screen.illegible else 0


def cmd_gram(args) -> int:
    text = _load_text(args)
    g = texts.gram(text)
    report = {
        "dimension": text.dimension,
        "n_states": text.n_states,
        "gram": g,
        "eigenvalues": np.linalg.eigvalsh(g),
    }
    _emit(report, args.output)
    return 0


class _Negative(Exception):
    """A well-formed negative result; main writes its report, args[0], and exits 2."""


def _certificate(args, text: texts.QuantumText):
    """The valid certificate of a second --input, else of engine's closed form, else of the search.

    Else raises _Negative with solve's report: a solver's reason, the search's floor, or the invalid certificate.
    EnscribeError if a third --input, or --q, --search, --starts or --seed beside a certificate file, would
    go unread. --starts and --seed are read only when the search runs; where the closed form gives the
    certificate, one info line names those given.
    """
    if len(args.input) > 2:
        raise EnscribeError(f"--input takes a text and at most one certificate, got {len(args.input)} files")
    if len(args.input) > 1:
        for flag, given in (("--q", args.q is not None), ("--search", args.search),
                            ("--starts", args.starts is not None), ("--seed", args.seed is not None)):
            if given:
                raise EnscribeError(f"{flag} has no effect when a certificate file is given as the second --input")
        cert = files.load_certificate(args.input[1], text)
    else:
        try:
            cert = engine.solve_closed_form(text) if args.q is None and not args.search else None
            if cert is None:
                result = feasibility_search(text, args.q, args.options)
                cert = result.certificate
            elif unread := [flag for flag in ("--starts", "--seed") if getattr(args, flag[2:]) is not None]:
                log.info("the closed form gave the certificate, so %s went unread", " and ".join(unread))
        except EnscribeError as exc:
            log.info("solver reported: %s", exc)
            raise _Negative({"feasible": False, "reason": str(exc)}) from exc
        if cert is None:
            # no floor at all (no start ran, or none reached a proper tablet) is null
            floor = result.best_residual if np.isfinite(result.best_residual) else None
            raise _Negative({"feasible": False, "best_residual": floor, "verdict": result.verdict})
    if not cert.is_valid():
        raise _Negative({**files.certificate_to_dict(cert), "feasible": False})
    return cert


def cmd_solve(args) -> int:
    _emit({**files.certificate_to_dict(_certificate(args, _load_text(args))), "feasible": True}, args.output)
    return 0


def cmd_qrange(args) -> int:
    rng_result = engine.closed_form_q_range(_load_text(args))
    report = {"empty": rng_result.empty, "intervals": rng_result.intervals}
    _emit(report, args.output)
    return 2 if rng_result.empty else 0


def cmd_build_procedure(args) -> int:
    text = _load_text(args)
    cert = _certificate(args, text)
    u = procedures.build_procedure(text, cert)
    defect = procedures.verify_procedure(u, text, cert)
    report = files.procedure_to_dict(u)
    report["verification_error"] = defect
    _emit(report, args.output)
    return 0


def cmd_clone(args) -> int:
    text = _load_text(args)
    cert = _certificate(args, text)
    u = procedures.build_procedure(text, cert)
    rows = []
    for i in range(text.n_states):
        outcome = machine.run_clone(text, cert, i, procedure=u)
        report = machine.failure_state_symmetry_check(text, cert, i)
        if not report.parity_ok:
            raise InvalidCertificate(f"failure input of state {i} misses its swap parity by {report.deviation:.3e}")
        parity = report.expected_parity
        rows.append(
            {
                "i": i,
                "p_success": outcome.p_success,
                "p_formula_real_q": machine.real_q_success_probability(text, cert.params, i),
                "fidelity": outcome.fidelity,
                "failure_symmetry": "n/a" if parity is None else f"{parity:+d}",
            }
        )
    _emit({"results": rows, "Q": cert.params.Q}, args.output)
    return 0


def cmd_verify_theorems(args) -> int:
    results = verification.run_checks(only=args.only, seed=args.seed)
    if not results:
        raise EnscribeError(f"no check matches {args.only!r}")
    report = {"checks": results, "all_passed": all(r.passed for r in results)}
    _emit(report, args.output)
    for r in results:
        print(("PASS " if r.passed else "FAIL ") + r.name, file=sys.stderr)
    return 0 if report["all_passed"] else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first call and shared for the rest of the process.

    Parsing leaves the parser as it was: each parse_args call fills a fresh
    Namespace, so the shared parser carries nothing from one main() call to
    the next. Callers must not add arguments to it.
    """
    parser = argparse.ArgumentParser(
        prog="enscribe",
        description="Entangled-cloning feasibility analysis for finite sets of quantum states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups: each subcommand takes exactly the flags it reads
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write the JSON report here instead of stdout")
    reader = argparse.ArgumentParser(add_help=False, parents=[output])
    reader.add_argument(
        "--input", action="append", help="input JSON file; repeat to pass a text then a certificate"
    )
    solver = argparse.ArgumentParser(add_help=False, parents=[reader])
    # None unless given, so that a certificate file can reject them; main resolves them by SearchOptions
    solver.add_argument("--seed", type=int, default=None)
    solver.add_argument("--starts", type=int, default=None)
    solver.add_argument("--q", type=float, default=None, help="fix the entanglement parameter")
    solver.add_argument("--search", action="store_true", help="force the numeric search path")
    checks = argparse.ArgumentParser(add_help=False, parents=[output])
    checks.add_argument("--seed", type=int, default=0)
    checks.add_argument("--only", default=None, help="filter verification checks by name")

    for name, fn, flags in (
        ("classify", cmd_classify, reader),
        ("gram", cmd_gram, reader),
        ("solve", cmd_solve, solver),
        ("qrange", cmd_qrange, reader),
        ("build-procedure", cmd_build_procedure, solver),
        ("clone", cmd_clone, solver),
        ("verify-theorems", cmd_verify_theorems, checks),
    ):
        sub.add_parser(name, parents=[flags]).set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("ENSCRIBE_LOG", "error").lower(), logging.ERROR
    )
    # only the package's logger is configured, so an embedding process keeps its
    # logging: one stderr handler, installed at the first call; the level, at every call
    if not log.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        log.addHandler(handler)
        log.propagate = False
    log.setLevel(level)
    args = build_parser().parse_args(argv)
    try:
        if "seed" in args:  # a bad seed or start count fails up front, by the rule of SearchOptions
            args.options = SearchOptions(**{name: value for name in ("seed", "starts")
                                            if (value := getattr(args, name, None)) is not None})
        try:
            return args.func(args)
        except _Negative as negative:
            _emit(negative.args[0], args.output)
            return 2
    except (EnscribeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
