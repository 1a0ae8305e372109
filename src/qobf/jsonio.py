"""JSON interchange formats: circuit documents, obfuscation keys, counts.

Circuit documents carry opaque unitaries losslessly (row-major [re, im]
matrix entries with full round-trip float precision), which QASM 2 cannot.
Circuit and key documents are compact: a header line, one instruction or key
record per line, and a closing line. Any JSON layout of the same schema reads.
"""
from __future__ import annotations

import json

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


# Writers. A document is its header fields on the first line, then one compact
# record per line, then a closing line. json's C encoder writes every value: it
# takes the C path because there is no indent, and skips the circular check
# because each record is built here from tuples and scalars. Records are encoded
# one at a time, so no dict of the whole artifact is built. A value json refuses,
# such as a numpy.int64 qubit, raises its TypeError.
_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def _document(head: dict, field: str, records, tail: dict | None = None) -> str:
    """``head``'s fields, then ``field``: the list of ``records``, one per line,
    then ``tail``'s fields."""
    first = f"{_encode(head)[:-1]},{_encode(field)}:["
    last = "]" + ("," + _encode(tail)[1:] if tail else "}")
    body = ",\n".join(map(_encode, records))
    return f"{first}\n{body}\n{last}\n" if body else f"{first}{last}\n"


def _record(instr) -> dict:
    if isinstance(instr, StandardGate):
        return {"kind": "gate", "name": instr.name, "params": instr.params,
                "qubits": instr.qubits}
    if isinstance(instr, OpaqueUnitary):
        m = np.ascontiguousarray(instr.matrix, dtype=np.complex128)
        return {"kind": "unitary", "label": instr.label, "qubits": instr.qubits,
                "matrix": m.view(np.float64).reshape(*m.shape, 2).tolist()}
    if isinstance(instr, Measure):
        return {"kind": "measure", "qubit": instr.qubit, "clbit": instr.clbit}
    if isinstance(instr, Reset):
        return {"kind": "reset", "qubit": instr.qubit}
    return {"kind": "barrier", "qubits": instr.qubits}


def write_json(c: Circuit) -> str:
    """The circuit document, one instruction per line."""
    head = {"format": CIRCUIT_FORMAT, "version": FORMAT_VERSION,
            "num_qubits": c.num_qubits, "num_clbits": c.num_clbits}
    return _document(head, "instructions", map(_record, c.instructions))


def read_json(text: str) -> Circuit:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, over the digit limit, too deep
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return circuit_from_dict(doc)


def counts_to_json(counts: dict[str, int], shots: int) -> str:
    return json.dumps({"shots": shots, "counts": dict(sorted(counts.items()))}, indent=2) + "\n"
