import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enscribe import (
    EnscriptionParams,
    QInterval,
    build_procedure,
    canonical_q,
    certificate,
    files,
    make_real_uniform,
    make_text,
    solve_real_uniform_central,
    solve_two_text,
)
from enscribe.errors import EnscribeError, ParseError, QOutOfRange

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
    text = make_real_uniform(2, 0.5)
    cert = solve_two_text(text)
    path = tmp_path / "cert.json"
    files.save_certificate(cert, str(path))
    back = files.load_certificate(str(path), text)
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


def _solved_two_text():
    """make_real_uniform(2, 0.5) and the dict of its closed-form certificate."""
    text = make_real_uniform(2, 0.5)
    return text, files.certificate_to_dict(solve_two_text(text))


def test_a_written_residual_is_never_trusted():
    # Q = 0.3 lies in the gap of this text; the file claims a zero residual
    text, data = _solved_two_text()
    data.update(q=[canonical_q(0.3), 0.0], Q=0.3, residual="0")
    back = files.certificate_from_dict(data, text)
    assert abs(back.residual - 0.41875) < 1e-12
    assert not back.is_valid()


def test_malformed_inputs_raise_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        files.load_text(str(bad))
    bad.write_text('{"dimension": 2}')
    with pytest.raises(ParseError):
        files.load_text(str(bad))


def test_non_utf8_file_raises_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ParseError):
        files.load_text(str(bad))


def test_three_element_entries_raise_parse_error():
    with pytest.raises(ParseError):
        files.text_from_dict({"dimension": 2, "states": [[[1, 0, 5], [0, 0]], [[0, 0], [1, 0]]]})
    text, data = _solved_two_text()
    data["q"] = [data["q"][0], data["q"][1], 5.0]
    with pytest.raises(ParseError):
        files.certificate_from_dict(data, text)


@pytest.mark.parametrize(
    "entry", [[True, False], [False, 0.0], [1.0, True], [1, False]], ids=["bools", "bool-re", "bool-im", "int-bool"]
)
def test_boolean_entries_raise_parse_error(entry):
    # numpy reads a boolean beside numbers as 0 or 1; JSON true is not a number here
    with pytest.raises(ParseError):
        files.text_from_dict({"dimension": 2, "states": [[entry, [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]})
    text, data = _solved_two_text()
    data["q"] = entry
    with pytest.raises(ParseError):
        files.certificate_from_dict(data, text)


@pytest.mark.parametrize("value", [2.7, 2.0, True, "2", math.inf], ids=repr)
def test_dimension_and_dim_must_be_integers(value):
    # no truncation of 2.7, no True as 1, and 1e400 (read as inf) is no OverflowError
    with pytest.raises(ParseError):
        files.text_from_dict({"dimension": value, "states": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]})


def test_overflowing_dimension_in_a_file_is_a_parse_error(tmp_path):
    path = tmp_path / "t.json"
    path.write_text('{"dimension": 1e400, "states": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}')
    with pytest.raises(ParseError):
        files.load_text(str(path))


def test_certificate_with_nan_q_is_rejected():
    text, data = _solved_two_text()
    data["q"] = [float("nan"), 0.0]
    with pytest.raises(QOutOfRange):
        files.certificate_from_dict(json.loads(json.dumps(data)), text)


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


def _per_entry_encode(obj):
    """The reference encoding: tolist, then one [re, im] callback per complex entry."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (complex, np.complexfloating)):
        return [complex(obj).real, complex(obj).imag]
    return files._encode(obj)


def _reference_dump(obj):
    return json.dumps(obj, sort_keys=True, indent=1, default=_per_entry_encode, allow_nan=False) + "\n"


@pytest.mark.parametrize("array", [
    np.array([[1 + 2j, -0.0 - 0.0j], [complex(-0.0, 3.5), 1e-300 - 1e300j]]),
    np.array(-0.0 + 2j),
    np.array([], dtype=complex),
    np.array([0.1 + 0.2j, -1j], dtype=np.complex64),
    np.random.default_rng(7).standard_normal((3, 4, 2)) @ np.array([1, 1j]),
    np.array([1.5, -0.0]),
], ids=["matrix-with-negative-zeros", "zero-d", "empty", "complex64", "seeded-3x4", "real"])
def test_complex_arrays_encode_as_per_entry_pairs(array, monkeypatch):
    report = {"a": array, "b": [array, {"c": array}]}
    expected = _reference_dump(report)

    def no_pair(x):
        raise AssertionError("an array entry was encoded on its own")

    monkeypatch.setattr(files, "_pair", no_pair)
    assert files.dump_json(report) == expected


def test_dict_writers_match_the_per_entry_pairs(monkeypatch):
    # text_to_dict and procedure_to_dict write a whole array at once; a _pair per entry is the reference
    text = make_text(2, [[complex(1.0, -0.0), complex(-0.0, -0.0)], [0.6, complex(-0.0, 0.8)]])
    procedure = build_procedure(make_real_uniform(3, 0.3), solve_real_uniform_central(3, 0.3))
    expected = [
        {"dimension": 2, "states": [[files._pair(x) for x in text.state(i)] for i in range(2)]},
        {"dim": 9, **{name: [[files._pair(x) for x in row] for row in getattr(procedure, name)]
                      for name in ("frame", "block")}},
    ]

    def no_pair(x):
        raise AssertionError("an array entry was encoded on its own")

    monkeypatch.setattr(files, "_pair", no_pair)
    written = [files.text_to_dict(text), files.procedure_to_dict(procedure)]
    assert json.dumps(written) == json.dumps(expected)


@pytest.mark.parametrize("entry", [complex("nan"), complex(0.0, float("inf")), complex(float("-inf"), 1.0)])
def test_complex_arrays_with_non_finite_entries_are_refused(entry):
    array = np.array([1.0 + 0j, entry])
    with pytest.raises(ValueError):
        _reference_dump({"a": array})
    with pytest.raises(ValueError):
        files.dump_json({"a": array})


@st.composite
def saved_objects(draw, kinds=("text", "certificate")):
    """A text, or a certificate of random parameters on a text, with that text.

    Entries drawn as zero are written as -0.0, which a sum re + 1j * im would turn into 0.0.
    """
    kind = draw(st.sampled_from(kinds))
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4 if d > 1 else 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.lists(st.booleans(), min_size=d, max_size=d))

    def unit():
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v[zeros] = complex(-0.0, -0.0)
        return v / np.linalg.norm(v) if np.any(v) else np.eye(d)[0] * complex(1.0, -0.0)

    try:
        text = make_text(d, [unit() for _ in range(n)])
    except EnscribeError:  # zeros in the same places can make two states colinear
        text = random_text(rng, n, d)
    if kind == "text":
        return kind, text, text
    q = complex(*draw(st.sampled_from([(0.0, 0.0), (-0.0, 1.0), (1.0, 0.0)]) | st.just(tuple(rng.standard_normal(2)))))
    params = EnscriptionParams.from_q(q, unit(), phases=np.exp(2j * np.pi * rng.random(n)))
    return kind, certificate(text, params), text


_WRITE = {"text": files.text_to_dict, "certificate": files.certificate_to_dict}
_READ = {"text": lambda data, _: files.text_from_dict(data), "certificate": files.certificate_from_dict}


def _bits(obj) -> list:
    if hasattr(obj, "states"):
        return [obj.dimension, obj.states.tobytes()]
    p = obj.params
    return [np.complex128(p.q).tobytes(), np.float64(p.Q).tobytes(), p.tablet.tobytes(), p.phases.tobytes(),
            np.float64(obj.residual).tobytes(), obj.flavor]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(saved_objects())
def test_saved_objects_load_bit_exactly(case):
    kind, obj, text = case
    saved = files.dump_json(_WRITE[kind](obj))
    back = _READ[kind](json.loads(saved), text)
    assert _bits(back) == _bits(obj)
    assert files.dump_json(_WRITE[kind](back)) == saved


def _paths(node, path=()):
    """The path of every value below a JSON node, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


# a bool, a string, null, a fraction, a nested list and 1e400 (which JSON reads as inf)
_BAD_VALUES = [True, False, "1", None, 2.7, [[0.5]], json.loads("1e400")]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(saved_objects())
def test_a_corrupted_value_raises_only_enscribe_errors(case):
    # every value of the dict in turn, by every bad value
    kind, obj, text = case
    saved = files.dump_json(_WRITE[kind](obj))
    for path in _paths(json.loads(saved)):
        for bad in _BAD_VALUES:
            doc = json.loads(saved)
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = bad
            try:
                _READ[kind](doc, text)
            except EnscribeError:
                pass


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(saved_objects(kinds=("certificate",)))
def test_written_verdicts_are_not_read(case):
    # Q, residual and flavor are recomputed on load, so no value written there changes it
    _, cert, text = case
    data = files.certificate_to_dict(cert)
    clean = _bits(files.certificate_from_dict(data, text))
    for key in ("Q", "residual", "flavor"):
        for bad in _BAD_VALUES:
            assert _bits(files.certificate_from_dict({**data, key: bad}, text)) == clean
