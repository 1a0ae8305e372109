"""JSON interchange formats: circuit documents, obfuscation keys, counts.

Circuit documents carry opaque unitaries losslessly (row-major [re, im]
matrix entries with full round-trip float precision), which QASM 2 cannot.
"""
from __future__ import annotations

import functools
import json
import math
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .circuit import (
    Barrier,
    Circuit,
    Measure,
    OpaqueUnitary,
    Reset,
    StandardGate,
)

CIRCUIT_FORMAT = "qobf-circuit"
KEY_FORMAT = "qobf-key"
FORMAT_VERSION = 1


class SchemaError(ValueError):
    pass


# Field checks shared by the circuit and key readers, JSON types only: a boolean
# is not an int, a numeric string is not a number. They run for every instruction
# and key record, so a message and its location prefix `at` are built on failure.
_INT, _NUM, _STR = (int,), (int, float), (str,)


def _value(v, types: tuple, what: str, at: str = ""):
    if type(v) not in types:
        raise SchemaError(f"{at}{what} must be {' or '.join(t.__name__ for t in types)}")
    return v


def _values(v, types: tuple, what: str, at: str = "") -> tuple:
    if type(v) is list:
        for x in v:
            if type(x) not in types:
                break
        else:
            return tuple(v)
    raise SchemaError(f"{at}{what} must be a list of {' or '.join(t.__name__ for t in types)}")


def _matrix_from_json(rows) -> np.ndarray:
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed matrix entry: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SchemaError(f"matrix must be square, got shape {m.shape}")
    return m.astype(np.complex128)


def circuit_from_dict(doc: dict) -> Circuit:
    if not isinstance(doc, dict) or doc.get("format") != CIRCUIT_FORMAT:
        raise SchemaError(f"not a {CIRCUIT_FORMAT} document")
    if doc.get("version") != FORMAT_VERSION:
        raise SchemaError(f"unsupported document version {doc.get('version')!r}")
    instructions = []
    try:
        for i, entry in enumerate(doc.get("instructions", [])):
            at = f"instruction {i}: "
            if not isinstance(entry, dict):
                raise SchemaError(f"{at}not an object")
            kind = entry.get("kind")
            if kind == "gate":
                instructions.append(StandardGate(
                    _value(entry["name"], _STR, "name", at),
                    tuple(map(float, _values(entry.get("params", []), _NUM, "params", at))),
                    _values(entry["qubits"], _INT, "qubits", at),
                ))
            elif kind == "unitary":
                instructions.append(OpaqueUnitary(
                    _value(entry["label"], _STR, "label", at),
                    _values(entry["qubits"], _INT, "qubits", at),
                    _matrix_from_json(entry["matrix"]),
                ))
            elif kind == "measure":
                instructions.append(Measure(
                    _value(entry["qubit"], _INT, "qubit", at),
                    _value(entry["clbit"], _INT, "clbit", at),
                ))
            elif kind == "reset":
                instructions.append(Reset(_value(entry["qubit"], _INT, "qubit", at)))
            elif kind == "barrier":
                instructions.append(Barrier(_values(entry["qubits"], _INT, "qubits", at)))
            else:
                raise SchemaError(f"{at}unknown kind {kind!r}")
        return Circuit(
            num_qubits=_value(doc["num_qubits"], _INT, "num_qubits"),
            num_clbits=_value(doc["num_clbits"], _INT, "num_clbits"),
            instructions=tuple(instructions),
        )
    except KeyError as exc:
        raise SchemaError(f"missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(str(exc)) from exc


# Writers. The circuit and key documents are written as the exact bytes of
# json.dumps(doc, indent=2) + "\n", without building doc: with an indent,
# json.dumps leaves its C encoder and walks every matrix entry in Python. Each
# record kind is one %-template; each value is written the way json.dumps writes
# it. A list or object where the schema has a scalar is a TypeError here.

_NL = tuple("\n" + "  " * level for level in range(8))  # line break + indent, by level


def _scalar(v) -> str:
    """``v`` as json.dumps writes it: the type decides, so 1 stays 1."""
    if isinstance(v, str):
        return _string(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if math.isfinite(v):
            return float.__repr__(v)
        return "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _join(items: list, level: int, brackets: str = "[]") -> str:
    """Written items as one list (or object) at nesting ``level``."""
    if not items:
        return brackets
    inner = _NL[level + 1]
    return brackets[0] + inner + ("," + inner).join(items) + _NL[level] + brackets[1]


def _numbers(values, level: int) -> str:
    return _join(list(map(_scalar, values)), level)


def _floats(values) -> list[str]:
    """``_scalar`` of each value, in one float.__repr__ pass when all are finite floats."""
    try:
        texts = list(map(float.__repr__, values))
    except TypeError:  # an int, a bool or not a number
        return list(map(_scalar, values))
    if "n" in "".join(texts):  # nan or inf, which JSON spells NaN and Infinity
        return list(map(_scalar, values))
    return texts


def _object(level: int, **fields) -> str:
    """%-template of an object at ``level``: each field is written JSON text, or
    None for a %s slot."""
    items = [f"{_string(k)}: {'%s' if v is None else v}" for k, v in fields.items()]
    return _join(items, level, "{}")


@functools.lru_cache(maxsize=8)
def _matrix_template(dim: int) -> str:
    """%-template of a dim x dim matrix of [re, im] pairs inside an instruction."""
    pair = _join(["%s", "%s"], 5)
    return _join([_join([pair] * dim, 4)] * dim, 3)


def _matrix(m: np.ndarray) -> str:
    m = np.asarray(m, dtype=np.complex128)
    return _matrix_template(m.shape[0]) % tuple(_floats(m.ravel().view(np.float64).tolist()))


_GATE = _object(2, kind=_scalar("gate"), name=None, params=None, qubits=None)
_UNITARY = _object(2, kind=_scalar("unitary"), label=None, qubits=None, matrix=None)
_MEASURE = _object(2, kind=_scalar("measure"), qubit=None, clbit=None)
_RESET = _object(2, kind=_scalar("reset"), qubit=None)
_BARRIER = _object(2, kind=_scalar("barrier"), qubits=None)
_CIRCUIT = _object(0, format=_scalar(CIRCUIT_FORMAT), version=_scalar(FORMAT_VERSION),
                   num_qubits=None, num_clbits=None, instructions=None) + "\n"


def write_json(c: Circuit) -> str:
    """The circuit document: the same bytes as json.dumps(doc, indent=2) plus a newline."""
    records = []
    for instr in c.instructions:
        if isinstance(instr, StandardGate):
            records.append(_GATE % (
                _scalar(instr.name), _numbers(instr.params, 3), _numbers(instr.qubits, 3)))
        elif isinstance(instr, OpaqueUnitary):
            records.append(_UNITARY % (
                _scalar(instr.label), _numbers(instr.qubits, 3), _matrix(instr.matrix)))
        elif isinstance(instr, Measure):
            records.append(_MEASURE % (_scalar(instr.qubit), _scalar(instr.clbit)))
        elif isinstance(instr, Reset):
            records.append(_RESET % _scalar(instr.qubit))
        elif isinstance(instr, Barrier):
            records.append(_BARRIER % _numbers(instr.qubits, 3))
    return _CIRCUIT % (_scalar(c.num_qubits), _scalar(c.num_clbits), _join(records, 1))


def read_json(text: str) -> Circuit:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, over the digit limit, too deep
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return circuit_from_dict(doc)


def counts_to_json(counts: dict[str, int], shots: int) -> str:
    return json.dumps({"shots": shots, "counts": dict(sorted(counts.items()))}, indent=2) + "\n"
