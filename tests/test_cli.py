import argparse
import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from enscribe import cli, enscription_residual, files, make_real_uniform, make_text, qubit_example, z0_threshold
from enscribe.certificates import EnscriptionParams, certificate
from enscribe.cli import main
from enscribe.verification import random_equivalence_image

from helpers import random_text, random_unitary


def _write_text(tmp_path, name, text):
    path = tmp_path / name
    files.save_text(text, str(path))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_solve_two_text(tmp_path, capsys):
    path = _write_text(tmp_path, "t.json", make_real_uniform(2, 0.5))
    code, report = _run(capsys, ["solve", "--input", path])
    assert code == 0
    assert abs(report["Q"] - (-4.0 / 9.0)) < 1e-12
    assert report["residual"] < 1e-10


def test_solve_qubit_text_at_fixed_q(tmp_path, capsys):
    z = np.sqrt(3.0) - 2.0
    ap, am = np.sqrt((1 + z) / 2), np.sqrt((1 - z) / 2)
    text = make_text(2, [[ap, am], [ap, -am]])
    path = _write_text(tmp_path, "qubit.json", text)
    code, report = _run(capsys, ["solve", "--input", path, "--q", "1", "--starts", "16"])
    assert code == 0
    assert report["Q"] == 1.0
    assert report["residual"] < 1e-8
    # at Q = 1 the certified tablets form a one-parameter family; the paper's
    # member is |0> with trivial phases
    paper = EnscriptionParams.from_Q(1.0, [1.0, 0.0], phases=[1.0, 1.0])
    assert certificate(text, paper).residual < 1e-8


def test_solve_report_without_a_floor_is_strict_json(tmp_path, capsys):
    # a thick text at Q = -1 is infeasible before any start runs, so there is
    # no finite floor to report
    path = _write_text(tmp_path, "t.json", make_real_uniform(2, 0.5))
    assert main(["solve", "--input", path, "--q", "-1", "--starts", "4"]) == 2

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert report["feasible"] is False
    assert report["best_residual"] is None


def test_solve_illegible_text_exits_two(tmp_path, capsys):
    path = _write_text(tmp_path, "bad.json", make_real_uniform(3, -0.3))
    code, report = _run(capsys, ["solve", "--input", path])
    assert code == 2
    assert report["feasible"] is False


def test_solve_search_reports_floor_on_infeasible(tmp_path, capsys):
    path = _write_text(tmp_path, "bad.json", make_real_uniform(3, -0.3))
    code, report = _run(
        capsys, ["solve", "--input", path, "--search", "--q", "0.5", "--starts", "16"]
    )
    assert code == 2
    assert report["best_residual"] > 1e-4


def test_classify_orthonormal_pair(tmp_path, capsys):
    path = _write_text(tmp_path, "ortho.json", make_text(2, [[1, 0], [0, 1]]))
    code, report = _run(capsys, ["classify", "--input", path])
    assert code == 0
    assert report["classification"]["classical"] is True
    assert report["illegibility"]["verdict"] == "possibly_enscribable"


def test_classify_one_zero_overlap_exits_two(tmp_path, capsys):
    a, b = 0.4, np.sqrt(1 - 0.16)
    path = _write_text(tmp_path, "zero.json", make_text(3, [[1, 0, 0], [a, b, 0], [0, a, b]]))
    code, report = _run(capsys, ["classify", "--input", path])
    assert code == 2
    assert report["illegibility"]["verdict"] == "illegible(lemma2_pattern)"


def test_classify_uniform_below_threshold(tmp_path, capsys):
    path = _write_text(tmp_path, "uniform.json", make_real_uniform(3, -0.3))
    code, report = _run(capsys, ["classify", "--input", path])
    assert code == 2
    assert "illegible" in report["illegibility"]["verdict"]


def test_gram_command(tmp_path, capsys):
    path = _write_text(tmp_path, "t.json", make_real_uniform(3, 0.5))
    code, report = _run(capsys, ["gram", "--input", path])
    assert code == 0
    assert abs(report["gram"][0][1][0] - 0.5) < 1e-12


def test_qrange_two_text(tmp_path, capsys):
    path = _write_text(tmp_path, "t.json", make_real_uniform(2, 0.5))
    code, report = _run(capsys, ["qrange", "--input", path])
    assert code == 0
    lowers = sorted(iv["lower"] for iv in report["intervals"])
    assert abs(lowers[1] - 0.8) < 1e-12


def test_clone_with_certificate_file(tmp_path, capsys):
    text = make_real_uniform(2, -0.5)
    tpath = _write_text(tmp_path, "t.json", text)
    code, cert_report = _run(capsys, ["solve", "--input", tpath])
    assert code == 0
    cpath = tmp_path / "cert.json"
    cpath.write_text(json.dumps(cert_report))
    code, report = _run(capsys, ["clone", "--input", tpath, "--input", str(cpath)])
    assert code == 0
    for row in report["results"]:
        assert abs(row["fidelity"] - 1.0) < 1e-8
        assert row["failure_symmetry"] in ("+1", "-1")


def test_clone_with_saturating_certificate(tmp_path, capsys):
    # the bound-saturating central certificate gives p = 2/3 at overlap -1/2
    import numpy as np

    from enscribe import EnscriptionParams, certificate, files as efiles

    text = make_real_uniform(2, -0.5)
    tablet = text.state(0) + text.state(1)
    tablet = tablet / np.linalg.norm(tablet)
    params = EnscriptionParams.from_Q(
        -2 * (-0.5) / (1 + 0.25), tablet, phases=np.array([1.0, -1.0])
    )
    cert = certificate(text, params)
    tpath = _write_text(tmp_path, "t.json", text)
    cpath = tmp_path / "sat.json"
    efiles.save_certificate(cert, str(cpath))
    code, report = _run(capsys, ["clone", "--input", tpath, "--input", str(cpath)])
    assert code == 0
    for row in report["results"]:
        assert abs(row["p_success"] - 2.0 / 3.0) < 1e-10


@pytest.mark.parametrize("command", ["clone", "build-procedure"])
def test_certificate_with_wrong_tablet_length_is_an_error(tmp_path, capsys, command):
    text = make_real_uniform(2, -0.5)
    tpath = _write_text(tmp_path, "t.json", text)
    code, cert_report = _run(capsys, ["solve", "--input", tpath])
    assert code == 0
    cert_report["tablet"].append([0.0, 0.0])
    cpath = tmp_path / "cert.json"
    cpath.write_text(json.dumps(cert_report))
    code = main([command, "--input", tpath, "--input", str(cpath)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_clone_solves_when_no_certificate_given(tmp_path, capsys):
    path = _write_text(tmp_path, "t.json", make_real_uniform(2, 0.3))
    code, report = _run(capsys, ["clone", "--input", path])
    assert code == 0
    assert len(report["results"]) == 2


def test_build_procedure_command(tmp_path, capsys):
    path = _write_text(tmp_path, "t.json", make_real_uniform(2, 0.5))
    code, report = _run(capsys, ["build-procedure", "--input", path])
    assert code == 0
    assert report["dim"] == 4
    assert report["verification_error"] < 1e-8


@pytest.mark.parametrize("n, eps", [(2, 2e-9), (2, 5e-9), (3, 1e-8), (4, 1.5e-8)])
def test_near_parallel_texts_build_and_clone_their_closed_form(tmp_path, capsys, n, eps):
    # the closed-form certificate is exact, so the procedure must realize it: a Gram eigenvalue of order eps
    # is a singular value of order sqrt(eps), which the builder's rank cut keeps
    path = _write_text(tmp_path, "t.json", make_real_uniform(n, 1 - eps))
    code, report = _run(capsys, ["build-procedure", "--input", path])
    assert code == 0 and report["verification_error"] < 1e-8
    code, report = _run(capsys, ["clone", "--input", path])
    assert code == 0 and len(report["results"]) == n


@pytest.mark.parametrize(
    "text, digest, report_digest",
    [
        (make_real_uniform(2, 0.5), "8cafec355e0727d2eb1576816736e99102140552cc14bac182de73f30a097031",
         "15bf7621cb0ab98e13d1fa98e81ea3739937d8d6bfe6d474d53bf7b03a1c79bb"),
        (make_real_uniform(3, 0.3), "cffc828baa7d17c2f0ad10998683ecd4a3ecda7d4605e7bc42ce24fbcf5e9944",
         "7397c59c3350a8feba7584033fa1c839c8d4c6b7f64eb2de3e6e89bef193a312"),
        (random_text(np.random.default_rng(11), 2, 3),
         "d44cc38137c5ba3c2a5e9d6d2dae8ed417a76998b34ccb4f56af3dd499d5db88",
         "a5dd26aa05fbf30e3ca16f8a2230f2fb584ef05e2dc3469b61bed363f55295b8"),
        (qubit_example()[0], "163383eca7faaa980d4bae2e5fbf63ccb51d31e5b2376540284d645bf084479e",
         "174e60e1c8203212c0231a639b51945c6234dd9f2d4e53e06e8bd46d01eaa97e"),
    ],
    ids=["uniform-2", "uniform-3", "complex-2-text", "qubit-text"],
)
def test_build_procedure_matrix_keeps_its_bits(tmp_path, capsys, text, digest, report_digest):
    # the report is the factors V and M of W = I + V (M - I) V^dag; W formed from the parsed factors as the
    # dense report formed it has the digest of that report's matrix. The first three pin a frame from one
    # eigh of the Gram matrix of [inputs | clones], and the qubit example's text, whose stack is
    # rank-deficient, one from the Householder QR of that stack; each family's dialect frame is the polar
    # factor of its own coordinates
    path = _write_text(tmp_path, "t.json", text)
    assert main(["build-procedure", "--input", path]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == report_digest
    report = json.loads(out)
    assert set(report) == {"dim", "frame", "block", "verification_error"}
    v, m = (np.array(report[name], dtype=float).view(complex)[..., 0] for name in ("frame", "block"))
    assert v.shape == (report["dim"], m.shape[0]) and m.shape == (m.shape[0],) * 2
    w = v @ (m - np.eye(m.shape[0])) @ v.conj().T
    w += np.eye(report["dim"])
    assert hashlib.sha256(json.dumps(files._vector(w)).encode()).hexdigest() == digest


def test_reports_are_byte_identical(tmp_path, capsys):
    path = _write_text(tmp_path, "t.json", make_real_uniform(2, 0.5))
    main(["solve", "--input", path, "--seed", "0"])
    first = capsys.readouterr().out
    main(["solve", "--input", path, "--seed", "0"])
    second = capsys.readouterr().out
    assert first == second


def test_missing_file_is_an_error(capsys):
    code = main(["classify", "--input", "/nonexistent/file.json"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_directory_path_is_an_error(tmp_path, capsys):
    path = _write_text(tmp_path, "t.json", make_real_uniform(2, 0.5))
    for argv in (["classify", "--input", str(tmp_path)], ["classify", "--input", path, "--output", str(tmp_path)]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_malformed_file_is_an_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code = main(["classify", "--input", str(path)])
    assert code == 1


def test_bad_flag_values_are_errors(tmp_path, capsys):
    path = _write_text(tmp_path, "t.json", make_real_uniform(2, 0.5))
    for argv in (
        ["solve", "--input", path, "--starts", "0"],
        ["clone", "--input", path, "--starts", "-2"],
        ["solve", "--input", path, "--search", "--seed", "-1"],
        ["clone", "--input", path, "--seed", "-1"],
        ["verify-theorems", "--only", "z0", "--seed", "-1"],
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv
    # a rejected call leaves nothing behind for the next one
    assert main(["solve", "--input", path]) == 0


@pytest.mark.parametrize("command", ["solve", "build-procedure", "clone"])
def test_tolerance_is_not_a_flag(tmp_path, capsys, command):
    # certificates.ACCEPT_TOL is the one acceptance line; no flag moves it
    path = _write_text(tmp_path, "t.json", make_real_uniform(2, 0.5))
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", path, "--q", "0.3", "--tolerance", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --tolerance" in captured.err


def test_verify_theorems_single_check(capsys):
    code = main(["verify-theorems", "--only", "z0"])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["all_passed"] is True
    assert report["checks"][0]["name"] == "z0-threshold"


def test_solve_rotated_uniform_certifies_the_input_text(tmp_path, capsys):
    base = make_real_uniform(3, 0.3)
    v = random_unitary(np.random.default_rng(4), 3)
    text = make_text(3, [v @ base.state(i) for i in range(3)])
    path = _write_text(tmp_path, "rotated.json", text)
    code, report = _run(capsys, ["solve", "--input", path])
    assert code == 0
    cpath = tmp_path / "cert.json"
    cpath.write_text(json.dumps(report))
    cert = files.load_certificate(str(cpath), text)
    assert enscription_residual(text, cert.params) < 1e-8
    code, _ = _run(capsys, ["clone", "--input", path])
    assert code == 0


@pytest.mark.parametrize("shift, uniform", [(1e-8, False), (1e-11, True)])
def test_uniform_detection_agrees_across_commands(tmp_path, capsys, shift, uniform):
    g = np.full((3, 3), -0.3)
    np.fill_diagonal(g, 1.0)
    g[0, 1] = g[1, 0] = -0.3 + shift
    w, e = np.linalg.eigh(g)
    root = e @ np.diag(np.sqrt(w)) @ e.T
    path = _write_text(tmp_path, "near.json", make_text(3, [root[:, i] for i in range(3)]))
    _, report = _run(capsys, ["classify", "--input", path])
    assert (report["illegibility"]["uniform_threshold_ok"] is not None) == uniform
    # qrange errors out (exit 1) exactly when no closed form applies
    code, _ = _run(capsys, ["qrange", "--input", path])
    assert (code != 1) == uniform
    # the closed-form solver reports a reason, the search a verdict
    _, report = _run(capsys, ["solve", "--input", path, "--starts", "4"])
    assert ("reason" in report) == uniform


@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("n", range(3, 8))
def test_closed_form_commands_share_one_legibility_rule(tmp_path, capsys, n, pad):
    # just below z0 (inside the bisection's old 1e-9 margin), just above it, and at the dependence boundary
    z0 = z0_threshold(n)
    for z, expected in [(z0 - 5e-10, 2), (z0 + 1e-6, 0), (-1.0 / (n - 1), 2)]:
        base = make_real_uniform(n, z)
        text = make_text(n + pad, [np.append(base.state(i), np.zeros(pad)) for i in range(n)])
        path = _write_text(tmp_path, "t.json", text)
        codes = [_run(capsys, [command, "--input", path])[0] for command in ("classify", "qrange", "solve")]
        assert codes == [expected] * 3, z


@pytest.mark.parametrize("big_q", ["-1.5", "nan", "2"])
def test_solve_out_of_range_q_reports_a_reason(tmp_path, capsys, big_q):
    path = _write_text(tmp_path, "t.json", make_real_uniform(2, 0.5))
    code, report = _run(capsys, ["solve", "--input", path, "--q", big_q, "--starts", "4"])
    assert code == 2
    assert report["feasible"] is False
    assert report["reason"].startswith("entanglement parameter must lie in [-1, 1]")


@pytest.mark.parametrize("big_q", [0.8 - 1e-8, -4 / 9 + 1e-8])
def test_solve_just_outside_the_two_text_range_agrees_with_qrange(tmp_path, capsys, big_q):
    # the gap floor there is below ACCEPT_TOL, yet the search no longer certifies what qrange excludes
    path = _write_text(tmp_path, "t.json", make_real_uniform(2, 0.5))
    code, report = _run(capsys, ["qrange", "--input", path])
    assert code == 0
    assert not any(iv["lower"] <= big_q <= iv["upper"] for iv in report["intervals"])
    code, report = _run(capsys, ["solve", "--input", path, "--q", repr(big_q)])
    assert code == 2
    assert (report["feasible"], report["verdict"]) == (False, "inconclusive")


@pytest.mark.parametrize("command", ["classify", "solve"])
def test_text_with_nan_component_is_an_error(tmp_path, capsys, command):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"dimension": 2, "states": [[[1, 0], [0, 0]], [[0.6, 0], [float("nan"), 0]]]}))
    code = main([command, "--input", str(path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("n, z", [(2, 0.5), (3, 0.3), (3, 1 - 5e-9), (4, 1 - 5e-9), (5, 1 - 2e-8)])
def test_thick_text_at_q_minus_one_is_a_negative_result(tmp_path, capsys, n, z):
    path = _write_text(tmp_path, "t.json", make_real_uniform(n, z))
    code, report = _run(capsys, ["solve", "--input", path, "--q", "-1", "--starts", "16"])
    assert code == 2
    assert report["feasible"] is False


def _thin(n, z):
    base = make_real_uniform(n, z)
    return make_text(n + 1, [np.concatenate([base.state(i), [0.0]]) for i in range(n)])


def test_qrange_of_a_thin_uniform_text_reaches_minus_one(tmp_path, capsys):
    path = _write_text(tmp_path, "thin.json", _thin(3, 0.3))
    code, report = _run(capsys, ["qrange", "--input", path])
    assert code == 0
    (iv,) = report["intervals"]
    assert (iv["lower"], iv["lower_closed"], iv["lower_flavor"]) == (-1.0, True, "closed")
    assert iv["upper_closed"] and iv["upper_flavor"] == "central"
    # both ends certify; just past the upper one the search finds nothing
    for big_q, expected in ((iv["lower"], 0), (-0.95, 0), (iv["upper"], 0), (iv["upper"] + 0.013, 2)):
        code, _ = _run(capsys, ["solve", "--input", path, "--q", repr(big_q), "--starts", "16"])
        assert code == expected, big_q


def test_qrange_of_a_thin_two_text_closes_minus_one(tmp_path, capsys):
    path = _write_text(tmp_path, "thin.json", _thin(2, 0.3))
    code, report = _run(capsys, ["qrange", "--input", path])
    assert code == 0
    neg, pos = sorted(report["intervals"], key=lambda iv: iv["lower"])
    assert (neg["lower"], neg["lower_closed"]) == (-1.0, True)
    assert abs(neg["upper"] - (-2 * 0.3 / 1.3**2)) < 1e-12
    assert (pos["upper"], pos["upper_closed"]) == (1.0, True)
    for big_q in (neg["lower"], neg["upper"], pos["lower"], pos["upper"]):
        code, report = _run(capsys, ["solve", "--input", path, "--q", repr(big_q)])
        assert code == 0, big_q


@pytest.mark.parametrize("n, z, expected", [(3, 0.3, 0), (3, -0.19, 0), (4, -0.2, 2)])
def test_closed_form_commands_agree_on_a_phased_image(tmp_path, capsys, n, z, expected):
    # legible central, legible quasi-central, illegible: phases and a rotation change no exit code
    base = make_real_uniform(n, z)
    image, _, _, _ = random_equivalence_image(np.random.default_rng(0), base)
    for name, text in (("base.json", base), ("image.json", image)):
        path = _write_text(tmp_path, name, text)
        codes = [_run(capsys, [command, "--input", path])[0] for command in ("classify", "qrange", "solve")]
        assert codes == [expected] * 3, name


@pytest.mark.parametrize("dimension", [1, 2])
def test_one_state_text_has_a_closed_form_range(tmp_path, capsys, dimension):
    # a text with no overlapping pair has z = 0: every Q in (-1, 1], and -1 too for a thin text
    path = _write_text(tmp_path, "one.json", make_text(dimension, [np.eye(dimension)[0]]))
    code, report = _run(capsys, ["qrange", "--input", path])
    assert code == 0
    assert report["intervals"] == [{"lower": -1.0, "lower_closed": dimension > 1,
                                    "lower_flavor": "closed" if dimension > 1 else "open",
                                    "upper": 1.0, "upper_closed": True, "upper_flavor": "closed"}]
    code, report = _run(capsys, ["solve", "--input", path])
    assert (code, report["Q"]) == (0, 1.0)
    assert _run(capsys, ["classify", "--input", path])[0] == 0


@pytest.mark.parametrize("text", [
    make_real_uniform(4, 0.0),
    make_real_uniform(2, 0.0),
    make_text(3, list(random_unitary(np.random.default_rng(3), 3).T)),
    make_text(1, [[1.0]]),
    make_text(2, [[0.6, 0.8j]]),
], ids=["uniform-4", "uniform-2", "rotated-orthonormal", "one-state-d1", "one-state-d2"])
def test_clone_runs_on_texts_with_no_overlapping_pair(tmp_path, capsys, text):
    # at z = 0 the closed form puts the tablet on state 0 at Q = 1, where the machine is defined
    path = _write_text(tmp_path, "t.json", text)
    code, report = _run(capsys, ["clone", "--input", path])
    assert (code, report["Q"]) == (0, 1.0)
    p = [row["p_success"] for row in report["results"]]
    assert np.max(np.abs(np.subtract(p, [1.0] + [0.5] * (text.n_states - 1)))) < 1e-12
    assert all(abs(row["fidelity"] - 1.0) < 1e-12 for row in report["results"])


@pytest.mark.parametrize("eps", [1e-5, 1e-7])
def test_clone_runs_near_certain_success(tmp_path, capsys, eps):
    # the tablet leans eps off state 0 at q = 0.5: state 0 succeeds with 1 - p_0 = 4.4e-11 or 4.4e-15,
    # too little failure branch to normalize, so it has no failure parity
    text = make_text(4, np.eye(4)[:3])
    cert = certificate(text, EnscriptionParams.from_q(0.5, [np.cos(eps), 0.0, 0.0, np.sin(eps)], n_states=3))
    cpath = tmp_path / "cert.json"
    files.save_certificate(cert, str(cpath))
    code, report = _run(capsys, ["clone", "--input", _write_text(tmp_path, "t.json", text), "--input", str(cpath)])
    assert code == 0
    assert [row["failure_symmetry"] for row in report["results"]] == ["n/a", "-1", "-1"]
    assert report["results"][0]["p_success"] > 1.0 - 1e-10


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    path = _write_text(tmp_path, "t.json", make_real_uniform(2, 0.5))
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert main(["classify", "--input", path]) == 0
    first = len(built)
    assert first > 0
    for command in ("qrange", "solve", "gram", "classify"):
        assert main([command, "--input", path]) == 0
    capsys.readouterr()
    assert len(built) == first


def test_calls_share_no_parsed_state(tmp_path, capsys):
    # a fresh parser, then a call with every solver flag set, then the plain call again
    path = _write_text(tmp_path, "t.json", make_real_uniform(2, 0.5))
    cli.build_parser.cache_clear()
    first = _run(capsys, ["solve", "--input", path])
    assert first[0] == 0
    main(["solve", "--input", path, "--q", "0.3", "--search", "--starts", "8", "--seed", "3"])
    capsys.readouterr()
    assert _run(capsys, ["solve", "--input", path]) == first


@pytest.mark.parametrize("text", [make_real_uniform(2, 0.5), make_real_uniform(4, 0.3)])
def test_closed_form_names_the_search_flags_it_leaves_unread_at_info(tmp_path, capsys, caplog, monkeypatch, text):
    # the closed form gives the certificate, so the search and its flags never run
    path = _write_text(tmp_path, "t.json", text)
    plain = _run(capsys, ["solve", "--input", path])
    assert plain[0] == 0
    # cli.main stops the enscribe logger from propagating to the root, where caplog listens
    monkeypatch.setattr(logging.getLogger("enscribe"), "propagate", True)
    monkeypatch.setenv("ENSCRIBE_LOG", "info")
    for flags, unread in ((["--starts", "3"], "--starts"), (["--seed", "7", "--starts", "3"], "--starts and --seed")):
        caplog.clear()
        assert _run(capsys, ["solve", "--input", path, *flags]) == plain
        lines = [r.getMessage() for r in caplog.records if "went unread" in r.getMessage()]
        assert lines == [f"the closed form gave the certificate, so {unread} went unread"]
    # where the search runs, it reads them
    for flags in (["--q", "0.3", "--starts", "3"], ["--search", "--seed", "7"]):
        caplog.clear()
        main(["solve", "--input", path, *flags])
        capsys.readouterr()
        assert not any("went unread" in r.getMessage() for r in caplog.records)


def test_log_level_is_read_on_every_call(tmp_path):
    # in a fresh process, so that the stderr handler main installs is the only one
    path = _write_text(tmp_path, "t.json", make_real_uniform(2, 0.5))
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = (
        "import os, sys; from enscribe.cli import main\n"
        "for level in ('error', 'info'):\n"
        "    os.environ['ENSCRIBE_LOG'] = level\n"
        "    print('--', level, file=sys.stderr)\n"
        "    main(['solve', '--input', sys.argv[1], '--output', os.devnull])\n"
    )
    out = subprocess.run([sys.executable, "-c", code, path], env=env, capture_output=True, text=True, check=True)
    assert out.stderr == "-- error\n-- info\nINFO enscribe: dispatching to the 2-text central solver\n"


def test_build_procedure_logs_the_verification_terms_only_at_debug(tmp_path):
    # in a fresh process, so that the stderr handler main installs is the only one
    path = _write_text(tmp_path, "t.json", make_real_uniform(3, 0.3))
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    env.pop("ENSCRIBE_LOG", None)
    argv = [sys.executable, "-m", "enscribe.cli", "build-procedure", "--input", path, "--output", os.devnull]
    quiet = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    assert quiet.stderr == ""
    loud = subprocess.run(argv, env={**env, "ENSCRIBE_LOG": "debug"}, capture_output=True, text=True, check=True)
    lines = [line for line in loud.stderr.splitlines() if line.startswith("DEBUG enscribe: verify_procedure:")]
    assert len(lines) == 1
    for term in ("action error", "span defect", "frame defect"):
        assert term in lines[0]
    # and the builder's one line on its route
    routes = [line for line in loud.stderr.splitlines() if line.startswith("DEBUG enscribe: unitary_from_correspondence:")]
    assert len(routes) == 1 and " gram route, " in routes[0] and routes[0].endswith(", 6 frame columns")


def test_search_at_q_zero_logs_its_single_start_only_at_debug(tmp_path):
    # in a fresh process, so that the stderr handler main installs is the only one
    path = _write_text(tmp_path, "t.json", make_real_uniform(2, 0.5))
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    env.pop("ENSCRIBE_LOG", None)
    argv = [sys.executable, "-m", "enscribe.cli", "solve", "--input", path, "--q", "0"]
    quiet = subprocess.run(argv, env=env, capture_output=True, text=True)
    loud = subprocess.run(argv, env={**env, "ENSCRIBE_LOG": "debug"}, capture_output=True, text=True)
    assert quiet.returncode == loud.returncode == 2
    assert quiet.stderr == ""
    assert loud.stdout == quiet.stdout
    floor = json.loads(quiet.stdout)["best_residual"]
    assert loud.stderr.splitlines() == [
        "DEBUG enscribe: feasibility_search: starts run 1, evaluations 1, capped solves 0, verdict infeasible, "
        f"best_residual {floor:.3e}"
    ]


def test_gap_search_names_its_closed_form_floor_only_at_debug(tmp_path):
    # Q = 0.3 lies in the gap of this 2-text, where the floor is 5/32; in a fresh process, so that
    # the stderr handler main installs is the only one
    path = _write_text(tmp_path, "t.json", make_real_uniform(2, 0.5))
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    env.pop("ENSCRIBE_LOG", None)
    argv = [sys.executable, "-m", "enscribe.cli", "solve", "--input", path, "--q", "0.3"]
    quiet = subprocess.run(argv, env=env, capture_output=True, text=True)
    loud = subprocess.run(argv, env={**env, "ENSCRIBE_LOG": "debug"}, capture_output=True, text=True)
    assert quiet.returncode == loud.returncode == 2
    assert quiet.stderr == ""
    assert loud.stdout == quiet.stdout
    floor = json.loads(quiet.stdout)["best_residual"]
    (line,) = loud.stderr.splitlines()
    assert line.startswith("DEBUG enscribe: feasibility_search: starts run 1, ")
    assert line.endswith(f", verdict infeasible, best_residual {floor:.3e}, closed-form floor {5 / 32:.3e}")


def test_main_leaves_other_loggers_alone():
    # in a fresh process: main configures only the enscribe logger, so the root
    # level stays as it was and another logger's warning still prints
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    env.pop("ENSCRIBE_LOG", None)
    code = (
        "import logging, os; from enscribe.cli import main\n"
        "before = logging.getLogger().level\n"
        "main(['verify-theorems', '--only', 'z0', '--output', os.devnull])\n"
        "print(before, logging.getLogger().level)\n"
        "logging.getLogger('app').warning('app warning')\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == f"{logging.WARNING} {logging.WARNING}\n"
    assert out.stderr == "PASS z0-threshold\napp warning\n"


def _invalid_certificate_file(tmp_path, text):
    # the tablet of the central certificate moved onto one state: well formed, residual far above ACCEPT_TOL
    params = EnscriptionParams.from_Q(-4.0 / 9.0, text.state(0), phases=[1.0, -1.0])
    cert = certificate(text, params)
    assert not cert.is_valid()
    path = tmp_path / "invalid-cert.json"
    files.save_certificate(cert, str(path))
    return str(path)


NO_CERTIFICATE_CASES = {
    "illegible-uniform": (make_real_uniform(3, -0.3), []),
    "dependent-uniform": (make_real_uniform(3, -0.5), []),
    "search-at-fixed-q": (make_real_uniform(2, 0.3), ["--q", "0.2"]),
    "search-joint": (random_text(np.random.default_rng(2), 3, 3), []),
    "out-of-range-q": (make_real_uniform(2, 0.3), ["--q", "2"]),
    "invalid-certificate-file": (make_real_uniform(2, -0.5), None),
}


@pytest.mark.parametrize("case", NO_CERTIFICATE_CASES)
def test_commands_without_a_valid_certificate_write_solves_negative_report(tmp_path, capsys, case):
    text, flags = NO_CERTIFICATE_CASES[case]
    path = _write_text(tmp_path, "t.json", text)
    if flags is None:
        flags = ["--input", _invalid_certificate_file(tmp_path, text)]
    outputs = {}
    for command in ("solve", "build-procedure", "clone"):
        code = main([command, "--input", path, *flags])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, ""), command
        outputs[command] = captured.out
    assert outputs["build-procedure"] == outputs["solve"] == outputs["clone"]
    assert json.loads(outputs["solve"])["feasible"] is False


def test_solve_certifies_a_given_certificate(tmp_path, capsys):
    # the saturating certificate (Q = 0.8), not the closed form's (Q = -4/9), is reported
    text = make_real_uniform(2, -0.5)
    tablet = text.state(0) + text.state(1)
    params = EnscriptionParams.from_Q(0.8, tablet / np.linalg.norm(tablet), phases=[1.0, -1.0])
    cpath = tmp_path / "sat.json"
    files.save_certificate(certificate(text, params), str(cpath))
    tpath = _write_text(tmp_path, "t.json", text)
    code, report = _run(capsys, ["solve", "--input", tpath, "--input", str(cpath)])
    assert code == 0
    assert report == {**files.certificate_to_dict(certificate(text, params)), "feasible": True}
    code, report = _run(capsys, ["solve", "--input", tpath, "--input", _invalid_certificate_file(tmp_path, text)])
    assert (code, report["feasible"]) == (2, False)


@pytest.mark.parametrize("command", ["solve", "build-procedure", "clone"])
def test_malformed_certificate_file_is_an_error(tmp_path, capsys, command):
    tpath = _write_text(tmp_path, "t.json", make_real_uniform(2, -0.5))
    cpath = tmp_path / "cert.json"
    cpath.write_text("{broken")
    code = main([command, "--input", tpath, "--input", str(cpath)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: ")


def test_dependent_uniform_text_gets_the_empty_range_reason(tmp_path, capsys):
    path = _write_text(tmp_path, "t.json", make_real_uniform(3, -0.5))
    assert [_run(capsys, [command, "--input", path])[0] for command in ("classify", "qrange")] == [2, 2]
    code, report = _run(capsys, ["solve", "--input", path])
    assert code == 2
    assert report == {"feasible": False, "reason": "real uniform N=3 text with z=-0.5 admits no enscription"}


def test_verify_theorems_with_no_matching_check_is_an_error(capsys):
    code = main(["verify-theorems", "--only", "no-such-check"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: no check matches 'no-such-check'\n"


@pytest.mark.parametrize("command", ["solve", "build-procedure", "clone"])
@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--q", "0.9"], "--q"),
        (["--search"], "--search"),
        (["--starts", "3"], "--starts"),
        (["--seed", "7"], "--seed"),
        (None, "--input"),
    ],
    ids=["q", "search", "starts", "seed", "third-input"],
)
def test_flags_a_certificate_file_would_leave_unread_are_errors(tmp_path, capsys, command, extra, flag):
    # with a certificate file as the second --input, --q, --search, --starts, --seed and a third file
    # would be dropped
    text = make_real_uniform(2, -0.5)
    tpath = _write_text(tmp_path, "t.json", text)
    cpath = str(tmp_path / "cert.json")
    tablet = text.state(0) + text.state(1)
    params = EnscriptionParams.from_Q(0.8, tablet / np.linalg.norm(tablet), phases=[1.0, -1.0])
    files.save_certificate(certificate(text, params), cpath)
    argv = [command, "--input", tpath, "--input", cpath]
    code = main(argv + (extra if extra is not None else ["--input", cpath]))
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: ") and flag in captured.err


CLONE_Q07_DIGEST = "c0c6425d669f0c682b5a006b706bf988c95898376bbd1b27bbbdcc0122422143"


def test_clone_fails_on_a_failure_input_without_its_parity(tmp_path, capsys, monkeypatch):
    # a swap that leaves the copies in place breaks the parity -1 of Q = 0.7: clone reports the error, not "-1"
    path = _write_text(tmp_path, "uniform2_z0.3.json", make_real_uniform(2, 0.3))
    argv = ["clone", "--input", path, "--q", "0.7"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CLONE_Q07_DIGEST
    from enscribe import machine

    monkeypatch.setattr(machine.linalg, "swap_factors", lambda v, dim: v)
    report = tmp_path / "report.json"
    assert main(argv + ["--output", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not report.exists()
    assert captured.err.startswith("error: failure input of state 0 misses its swap parity by 2.000e+00")
