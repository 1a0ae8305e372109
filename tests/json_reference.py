"""Reference encoder for the artifact writers: the documents as dicts, then
``json.dumps(doc, indent=2) + "\\n"``.

The writers emit the same documents in a compact layout; ``reindent`` of their
text must give these bytes exactly. The tests compare the two on generated
circuits and keys.
"""
import json

from qobf.circuit import Barrier, Measure, OpaqueUnitary, Reset, StandardGate
from qobf.jsonio import CIRCUIT_FORMAT, FORMAT_VERSION, KEY_FORMAT


def _matrix_to_json(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _params_to_json(p) -> list:
    return [p.theta, p.phi, p.lam]


def circuit_to_dict(c) -> dict:
    instructions = []
    for instr in c.instructions:
        if isinstance(instr, StandardGate):
            instructions.append({
                "kind": "gate",
                "name": instr.name,
                "params": list(instr.params),
                "qubits": list(instr.qubits),
            })
        elif isinstance(instr, OpaqueUnitary):
            instructions.append({
                "kind": "unitary",
                "label": instr.label,
                "qubits": list(instr.qubits),
                "matrix": _matrix_to_json(instr.matrix),
            })
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


def key_to_dict(key) -> dict:
    doc = {
        "format": KEY_FORMAT,
        "version": FORMAT_VERSION,
        "seed": key.seed,
        "mode": key.mode.value,
        "num_qubits": key.num_qubits,
        "num_gates": key.num_gates,
        "records": [
            {
                "kind": "block",
                "label": r.label,
                "gate_index": r.gate_index,
                "original": r.original,
                "qubits": list(r.qubits),
                "left": [_params_to_json(t) for t in r.left],
                "right": [_params_to_json(t) for t in r.right],
            }
            for r in key.blocks
        ]
        + [
            {
                "kind": "boundary",
                "label": r.label,
                "segment": r.segment,
                "qubit": r.qubit,
                "params": _params_to_json(r.params),
                "role": r.role,
            }
            for r in key.boundaries
        ],
        "segment_params": [_params_to_json(p) for p in key.segment_params],
    }
    if key.protected is not None:
        doc["protected"] = list(key.protected)
    return doc


def reference_write_json(c) -> str:
    return json.dumps(circuit_to_dict(c), indent=2) + "\n"


def reference_write_key_json(key) -> str:
    return json.dumps(key_to_dict(key), indent=2) + "\n"


def reindent(text: str) -> str:
    """A document's text as json.dumps(indent=2) lays it out."""
    return json.dumps(json.loads(text), indent=2) + "\n"
