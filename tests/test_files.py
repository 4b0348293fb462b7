import json

import numpy as np
import pytest

from enscribe import QInterval, files, make_real_uniform, solve_two_text, qubit_example
from enscribe.errors import ParseError, QOutOfRange

from helpers import random_text


def test_text_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(2)
    text = random_text(rng, 3, 4)
    path = tmp_path / "text.json"
    files.save_text(text, str(path))
    back = files.load_text(str(path))
    assert back.dimension == text.dimension
    assert np.array_equal(back.states, text.states)


def test_certificate_round_trip(tmp_path):
    cert = solve_two_text(make_real_uniform(2, 0.5))
    path = tmp_path / "cert.json"
    files.save_certificate(cert, str(path))
    back = files.load_certificate(str(path))
    assert back.params.Q == cert.params.Q
    assert np.array_equal(back.params.tablet, cert.params.tablet)
    assert np.array_equal(back.params.phases, cert.params.phases)
    assert back.residual == cert.residual
    assert back.flavor == cert.flavor


def test_certificate_revalidated_against_text(tmp_path):
    text = make_real_uniform(2, 0.5)
    cert = solve_two_text(text)
    path = tmp_path / "cert.json"
    files.save_certificate(cert, str(path))
    back = files.load_certificate(str(path), text)
    assert back.residual < 1e-10


def test_procedure_round_trip(tmp_path):
    _, _, u = qubit_example()
    path = tmp_path / "proc.json"
    files.save_procedure(u, str(path))
    assert np.array_equal(files.load_procedure(str(path)), u)


def test_malformed_inputs_raise_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        files.load_text(str(bad))
    bad.write_text('{"dimension": 2}')
    with pytest.raises(ParseError):
        files.load_text(str(bad))


@pytest.mark.parametrize("matrix", [[], [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]])
def test_malformed_procedure_raises_parse_error(matrix):
    with pytest.raises(ParseError):
        files.procedure_from_dict({"dim": 2, "matrix": matrix})


def test_certificate_with_nan_q_is_rejected():
    data = files.certificate_to_dict(solve_two_text(make_real_uniform(2, 0.5)))
    data["q"] = [float("nan"), 0.0]
    with pytest.raises(QOutOfRange):
        files.certificate_from_dict(json.loads(json.dumps(data)))


def test_procedure_with_nan_entry_raises_parse_error():
    data = files.procedure_to_dict(np.eye(2, dtype=complex))
    data["matrix"][1][0] = [float("nan"), 0.0]
    with pytest.raises(ParseError):
        files.procedure_from_dict(data)


def test_dump_json_is_deterministic():
    cert = solve_two_text(make_real_uniform(2, 0.5))
    a = files.dump_json(files.certificate_to_dict(cert))
    b = files.dump_json(files.certificate_to_dict(cert))
    assert a == b


def test_dump_json_writes_numpy_values_complex_numbers_and_dataclasses():
    interval = QInterval(np.float64(-1.0), -0.5, np.bool_(False), True, "open", "central")
    report = {"a": np.array([[1 + 2j, 3]]), "b": np.int64(4), "c": 0.5j, "d": np.complex128(-1j), "e": interval}
    assert json.loads(files.dump_json(report)) == {
        "a": [[[1.0, 2.0], [3.0, 0.0]]],
        "b": 4,
        "c": [0.0, 0.5],
        "d": [-0.0, -1.0],
        "e": {"lower": -1.0, "upper": -0.5, "lower_closed": False, "upper_closed": True,
              "lower_flavor": "open", "upper_flavor": "central"},
    }
    with pytest.raises(TypeError):
        files.dump_json({"f": object()})


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_dump_json_refuses_non_finite_numbers(value):
    with pytest.raises(ValueError):
        files.dump_json({"x": value})
