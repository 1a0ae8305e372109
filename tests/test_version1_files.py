"""Artifacts written by the earlier indent=2 writer still read, and re-indenting
today's output gives their bytes back.

The files under ``data/v1`` were written by the indent=2 writer from the
obfuscations in ``V1_ARTIFACTS``; they are kept as they were written.
"""
from pathlib import Path

import pytest
from json_reference import reindent

from qobf.circuit import OpaqueUnitary
from qobf.jsonio import read_json, write_json
from qobf.obfuscate import ObfuscationMode, obfuscate, read_key_json, write_key_json
from qobf.qasm import parse

DATA = Path(__file__).parent / "data" / "v1"

# name -> (QASM source, mode, seed, subset_size)
V1_ARTIFACTS = {
    # subset mode, so the key has "protected"
    "subset": (
        "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n"
        "h q[0];\ncx q[0],q[1];\nrz(0.5) q[1];\nmeasure q -> c;\n",
        ObfuscationMode.SUBSET, 5, 2,
    ),
    # global mode around a mid-circuit measure, so "segment_params" has two entries
    "global_midcircuit": (
        "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n"
        "h q[0];\nmeasure q[0] -> c[0];\nreset q[0];\nrz(0.25) q[0];\nmeasure q -> c;\n",
        ObfuscationMode.GLOBAL, 3, None,
    ),
}


def same_circuit(a, b) -> bool:
    """Equal registers and instructions, opaque matrices bit for bit."""
    if (a.num_qubits, a.num_clbits, len(a.instructions)) != (
            b.num_qubits, b.num_clbits, len(b.instructions)):
        return False
    for x, y in zip(a.instructions, b.instructions):
        if isinstance(x, OpaqueUnitary):
            if not (isinstance(y, OpaqueUnitary) and (x.label, x.qubits) == (y.label, y.qubits)
                    and x.matrix.tobytes() == y.matrix.tobytes()):
                return False
        elif x != y:
            return False
    return True


def v1_obfuscation(name: str):
    src, mode, seed, subset_size = V1_ARTIFACTS[name]
    return obfuscate(parse(src), mode, seed, subset_size=subset_size)


@pytest.mark.parametrize("name", sorted(V1_ARTIFACTS))
class TestVersion1Files:
    def test_circuit_reads_as_todays_output(self, name):
        text = write_json(v1_obfuscation(name).circuit)
        assert same_circuit(read_json((DATA / f"{name}_circuit.json").read_text()),
                            read_json(text))

    def test_key_reads_as_todays_output(self, name):
        text = write_key_json(v1_obfuscation(name).key)
        assert read_key_json((DATA / f"{name}_key.json").read_text()) == read_key_json(text)

    def test_reindented_output_is_the_old_file(self, name):
        obf = v1_obfuscation(name)
        assert reindent(write_json(obf.circuit)) == (DATA / f"{name}_circuit.json").read_text()
        assert reindent(write_key_json(obf.key)) == (DATA / f"{name}_key.json").read_text()

    def test_keys_have_the_optional_fields(self, name):
        key = read_key_json((DATA / f"{name}_key.json").read_text())
        if name == "subset":
            assert key.protected
        else:
            assert len(key.segment_params) == 2
