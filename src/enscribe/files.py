"""JSON file formats for texts, certificates, procedures, and reports.

Complex numbers are stored as two-element [re, im] arrays of doubles, which
round-trips bit-exactly through Python's JSON encoder.
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


def _vector(v: np.ndarray) -> list:
    return [_pair(x) for x in np.asarray(v, dtype=complex)]


def _unvector(pairs) -> np.ndarray:
    return np.array([complex(p[0], p[1]) for p in pairs], dtype=complex)


def text_to_dict(text: texts.QuantumText) -> dict:
    return {
        "dimension": text.dimension,
        "states": [_vector(text.state(i)) for i in range(text.n_states)],
    }


def text_from_dict(data: dict) -> texts.QuantumText:
    try:
        dim = int(data["dimension"])
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


def certificate_from_dict(data: dict, text: texts.QuantumText | None = None) -> EnscriptionCertificate:
    try:
        q = complex(data["q"][0], data["q"][1])
        tablet = _unvector(data["tablet"])
        phases = _unvector(data["phases"])
        residual = float(data["residual"])
        flavor = str(data["flavor"])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"malformed certificate object: {exc}") from exc
    params = EnscriptionParams.from_q(q, tablet, phases=phases)
    if text is not None:
        return certificate(text, params)
    return EnscriptionCertificate(params=params, residual=residual, flavor=flavor)


def procedure_to_dict(matrix: np.ndarray) -> dict:
    m = np.asarray(matrix, dtype=complex)
    return {"dim": m.shape[0], "matrix": [_vector(row) for row in m]}


def procedure_from_dict(data: dict) -> np.ndarray:
    try:
        dim = int(data["dim"])
        m = np.vstack([_unvector(r) for r in data["matrix"]])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"malformed procedure object: {exc}") from exc
    if m.shape != (dim, dim):
        raise ParseError(f"procedure matrix has shape {m.shape}, expected ({dim}, {dim})")
    if not np.all(np.isfinite(m)):
        raise ParseError("procedure matrix has a non-finite entry")
    return m


def _encode(obj):
    """JSON form of numpy arrays and scalars, complex values ([re, im]) and dataclasses."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
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
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_text(path: str) -> texts.QuantumText:
    return text_from_dict(load_json(path))


def save_text(text: texts.QuantumText, path: str) -> None:
    dump_json(text_to_dict(text), path)


def load_certificate(path: str, text: texts.QuantumText | None = None) -> EnscriptionCertificate:
    return certificate_from_dict(load_json(path), text)


def save_certificate(cert: EnscriptionCertificate, path: str) -> None:
    dump_json(certificate_to_dict(cert), path)


def load_procedure(path: str) -> np.ndarray:
    return procedure_from_dict(load_json(path))


def save_procedure(matrix: np.ndarray, path: str) -> None:
    dump_json(procedure_to_dict(matrix), path)
