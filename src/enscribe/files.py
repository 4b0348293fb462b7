"""JSON file formats for texts, certificates, procedures, and reports.

Complex numbers are stored as two-element [re, im] arrays of doubles, which
round-trips bit-exactly through Python's JSON encoder; a load keeps those
bits, because make_text and EnscriptionParams leave unit values as they are.
A file carries inputs, never verdicts: a certificate is read as its q, tablet
and phases and certified again on its text, and a procedure is written but
not read.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from . import texts
from .certificates import EnscriptionCertificate, EnscriptionParams, certificate
from .errors import ParseError


def _pair(x: complex) -> list:
    x = complex(x)
    return [x.real, x.imag]


def _vector(v) -> list:
    """[re, im] pairs of a complex array, nested as its shape.

    One tolist for the whole array, not a _pair per entry; .real and .imag keep each -0.0.
    """
    a = np.asarray(v, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _unvector(pairs) -> np.ndarray:
    """The complex vector of a list of [re, im] entries; ValueError unless each is exactly two numbers."""
    a = np.array(pairs)
    # numpy reads a boolean beside numbers as 0 or 1, so the entries are searched for one
    if a.ndim != 2 or a.shape[1] != 2 or a.dtype.kind not in "iuf" or bool in {type(x) for p in pairs for x in p}:
        raise ValueError("complex entries must be [re, im] pairs of numbers")
    # a view, not re + 1j * im, keeps every bit: that sum turns an re of -0.0 into 0.0
    return np.ascontiguousarray(a, dtype=float).view(complex)[:, 0]


def _integer(value) -> int:
    """A text's dimension; ValueError unless it is an integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def text_to_dict(text: texts.QuantumText) -> dict:
    return {
        "dimension": text.dimension,
        "states": _vector(text.states.T),
    }


def text_from_dict(data: dict) -> texts.QuantumText:
    try:
        dim = _integer(data["dimension"])
        states = [_unvector(s) for s in data["states"]]
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"malformed text object: {exc}") from exc
    return texts.make_text(dim, states)


def certificate_to_dict(cert: EnscriptionCertificate) -> dict:
    p = cert.params
    return {
        "Q": float(p.Q),
        "q": _pair(p.q),
        "tablet": _vector(p.tablet),
        "phases": _vector(p.phases),
        "residual": float(cert.residual),
        "flavor": cert.flavor,
    }


def certificate_from_dict(data: dict, text: texts.QuantumText) -> EnscriptionCertificate:
    """The certificate of the written q, tablet and phases on ``text``.

    The written Q, residual and flavor are not read: they are computed again
    (``certificates.certificate``), so a file cannot vouch for itself.
    """
    try:
        q = complex(_unvector([data["q"]])[0])
        tablet = _unvector(data["tablet"])
        phases = _unvector(data["phases"])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"malformed certificate object: {exc}") from exc
    return certificate(text, EnscriptionParams.from_q(q, tablet, phases=phases))


def procedure_to_dict(procedure) -> dict:
    """The report of build-procedure: a built procedure W = I + V (M - I) V^dag (a linalg.SpanUnitary) as its
    factors, the D x k frame V and the k x k block M, by rows; D is the dimension of the doubled space."""
    return {"dim": procedure.frame.shape[0], "frame": _vector(procedure.frame), "block": _vector(procedure.block)}


def _encode(obj):
    """JSON form of numpy arrays and scalars, complex values ([re, im]) and dataclasses."""
    if isinstance(obj, np.ndarray):
        return _vector(obj) if np.iscomplexobj(obj) else obj.tolist()
    if isinstance(obj, (complex, np.complexfloating)):
        return _pair(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def dump_json(obj: dict, path: str | None = None) -> str:
    """Deterministic, strict JSON text; writes to ``path`` when given.

    A non-finite float raises ValueError instead of becoming a bare Infinity or NaN.
    """
    out = json.dumps(obj, sort_keys=True, indent=1, default=_encode, allow_nan=False) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(out)
    return out


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_text(path: str) -> texts.QuantumText:
    return text_from_dict(load_json(path))


def save_text(text: texts.QuantumText, path: str) -> None:
    dump_json(text_to_dict(text), path)


def load_certificate(path: str, text: texts.QuantumText) -> EnscriptionCertificate:
    return certificate_from_dict(load_json(path), text)


def save_certificate(cert: EnscriptionCertificate, path: str) -> None:
    dump_json(certificate_to_dict(cert), path)
