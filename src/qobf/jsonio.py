"""JSON interchange formats: circuit documents, obfuscation keys, counts.

Circuit documents carry opaque unitaries losslessly (row-major [re, im]
matrix entries with full round-trip float precision), which QASM 2 cannot.
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


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _matrix_from_json(rows) -> np.ndarray:
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed matrix entry: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SchemaError(f"matrix must be square, got shape {m.shape}")
    return m.astype(np.complex128)


def circuit_to_dict(c: Circuit) -> dict:
    instructions = []
    for instr in c.instructions:
        if isinstance(instr, StandardGate):
            instructions.append(
                {
                    "kind": "gate",
                    "name": instr.name,
                    "params": list(instr.params),
                    "qubits": list(instr.qubits),
                }
            )
        elif isinstance(instr, OpaqueUnitary):
            instructions.append(
                {
                    "kind": "unitary",
                    "label": instr.label,
                    "qubits": list(instr.qubits),
                    "matrix": _matrix_to_json(instr.matrix),
                }
            )
        elif isinstance(instr, Measure):
            instructions.append({"kind": "measure", "qubit": instr.qubit, "clbit": instr.clbit})
        elif isinstance(instr, Reset):
            instructions.append({"kind": "reset", "qubit": instr.qubit})
        elif isinstance(instr, Barrier):
            instructions.append({"kind": "barrier", "qubits": list(instr.qubits)})
    return {
        "format": CIRCUIT_FORMAT,
        "version": FORMAT_VERSION,
        "num_qubits": c.num_qubits,
        "num_clbits": c.num_clbits,
        "instructions": instructions,
    }


def circuit_from_dict(doc: dict) -> Circuit:
    if not isinstance(doc, dict) or doc.get("format") != CIRCUIT_FORMAT:
        raise SchemaError(f"not a {CIRCUIT_FORMAT} document")
    if doc.get("version") != FORMAT_VERSION:
        raise SchemaError(f"unsupported document version {doc.get('version')!r}")
    instructions = []
    try:
        for i, entry in enumerate(doc.get("instructions", [])):
            if not isinstance(entry, dict):
                raise SchemaError(f"instruction {i}: not an object")
            kind = entry.get("kind")
            if kind == "gate":
                instructions.append(
                    StandardGate(
                        entry["name"],
                        tuple(float(p) for p in entry.get("params", [])),
                        tuple(int(q) for q in entry["qubits"]),
                    )
                )
            elif kind == "unitary":
                m = _matrix_from_json(entry["matrix"])
                instructions.append(
                    OpaqueUnitary(entry["label"], tuple(int(q) for q in entry["qubits"]), m)
                )
            elif kind == "measure":
                instructions.append(Measure(int(entry["qubit"]), int(entry["clbit"])))
            elif kind == "reset":
                instructions.append(Reset(int(entry["qubit"])))
            elif kind == "barrier":
                instructions.append(Barrier(tuple(int(q) for q in entry["qubits"])))
            else:
                raise SchemaError(f"instruction {i}: unknown kind {kind!r}")
        circuit = Circuit(
            num_qubits=int(doc["num_qubits"]),
            num_clbits=int(doc["num_clbits"]),
            instructions=tuple(instructions),
        )
        circuit.validate()
    except KeyError as exc:
        raise SchemaError(f"missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(str(exc)) from exc
    return circuit


def write_json(c: Circuit) -> str:
    return json.dumps(circuit_to_dict(c), indent=2) + "\n"


def read_json(text: str) -> Circuit:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, over the digit limit, too deep
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return circuit_from_dict(doc)


def counts_to_json(counts: dict[str, int], shots: int) -> str:
    return json.dumps({"shots": shots, "counts": dict(sorted(counts.items()))}, indent=2) + "\n"
