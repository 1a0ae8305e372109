"""Tests for JSON serialization of circuits and counts."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qobf.circuit import Barrier, Circuit, Measure, OpaqueUnitary, Reset, StandardGate
from qobf.jsonio import (
    CIRCUIT_FORMAT,
    FORMAT_VERSION,
    SchemaError,
    circuit_from_dict,
    circuit_to_dict,
    counts_to_json,
    read_json,
    write_json,
)
from qobf.linalg import max_abs_diff
from qobf.obfuscate import ObfuscationMode, key_to_dict, obfuscate, read_key_json


def sample_circuit():
    m = np.eye(4, dtype=complex)[[0, 3, 2, 1]]
    return Circuit(
        2,
        2,
        (
            StandardGate("h", (), (0,)),
            StandardGate("rz", (0.25,), (1,)),
            OpaqueUnitary("Blk_0", (0, 1), m),
            Barrier((0, 1)),
            Reset(0),
            Measure(0, 0),
            Measure(1, 1),
        ),
        register_names={"q": (0, 2), "c": (0, 2)},
    )


class TestRoundTrip:
    def test_write_read_identity(self):
        c = sample_circuit()
        back = read_json(write_json(c))
        assert back.num_qubits == c.num_qubits
        assert back.num_clbits == c.num_clbits
        assert len(back.instructions) == len(c.instructions)
        for a, b in zip(c.instructions, back.instructions):
            assert type(a) is type(b)
        blk_a = c.instructions[2]
        blk_b = back.instructions[2]
        assert blk_b.label == blk_a.label
        assert max_abs_diff(blk_a.matrix, blk_b.matrix) == 0.0

    def test_write_is_stable(self):
        c = sample_circuit()
        assert write_json(c) == write_json(read_json(write_json(c)))

    def test_header_fields(self):
        doc = circuit_to_dict(sample_circuit())
        assert doc["format"] == CIRCUIT_FORMAT
        assert doc["version"] == FORMAT_VERSION


class TestSchemaErrors:
    def test_wrong_format_tag(self):
        doc = circuit_to_dict(sample_circuit())
        doc["format"] = "something-else"
        with pytest.raises(SchemaError):
            circuit_from_dict(doc)

    def test_wrong_version(self):
        doc = circuit_to_dict(sample_circuit())
        doc["version"] = 999
        with pytest.raises(SchemaError):
            circuit_from_dict(doc)

    def test_corrupted_matrix_rejected(self):
        doc = circuit_to_dict(sample_circuit())
        for instr in doc["instructions"]:
            if "matrix" in instr:
                instr["matrix"][0][0] = [3.0, 0.0]
        with pytest.raises(SchemaError):
            circuit_from_dict(doc)

    def test_not_json(self):
        with pytest.raises((SchemaError, json.JSONDecodeError)):
            read_json("not json at all")


def sample_key_doc():
    return key_to_dict(obfuscate(sample_circuit(), ObfuscationMode.CHAINED, seed=1).key)


def with_instruction(entry):
    doc = circuit_to_dict(sample_circuit())
    doc["instructions"][0] = entry
    return json.dumps(doc)


def with_record(**changes):
    doc = sample_key_doc()
    doc["records"][0].update(changes)
    return doc


def without(doc, field):
    del doc[field]
    return doc


class TestDomainErrors:
    @pytest.mark.parametrize(
        "text",
        [
            with_instruction(7),
            with_instruction(["gate"]),
            with_instruction({"kind": "gate", "qubits": [0]}),  # no name
            with_instruction({"kind": "gate", "name": "h", "qubits": 0}),
            with_instruction({"kind": "measure", "qubit": "x", "clbit": 0}),
            with_instruction({"kind": "reset", "qubit": float("inf")}),
            with_instruction({"kind": "unitary", "label": "B", "qubits": [0], "matrix": [[1]]}),
            json.dumps(without(circuit_to_dict(sample_circuit()), "num_qubits")),
            json.dumps({**circuit_to_dict(sample_circuit()), "instructions": 5}),
            "[" * 100000,
            "1" * 5000,
        ],
    )
    def test_read_json_faults_are_schema_errors(self, text):
        with pytest.raises(SchemaError):
            read_json(text)

    @pytest.mark.parametrize(
        "doc",
        [
            {**sample_key_doc(), "records": [7]},
            without(sample_key_doc(), "seed"),
            {**sample_key_doc(), "records": [without(sample_key_doc()["records"][0], "label")]},
            with_record(qubits=5),
            with_record(left=[[1.0, 2.0]]),
            {**sample_key_doc(), "version": 2},
            {**sample_key_doc(), "mode": "sideways"},
            {**sample_key_doc(), "protected": 3},
            {**sample_key_doc(), "num_gates": float("nan")},
        ],
    )
    def test_read_key_json_faults_are_schema_errors(self, doc):
        with pytest.raises(SchemaError):
            read_key_json(json.dumps(doc))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=10,
)
small_values = st.integers(-1, 3) | st.sampled_from(["h", "cx", "rz", "u3", "global", "B"])
field_values = (
    json_values
    | small_values
    | st.lists(small_values | st.floats(), max_size=3)
    | st.lists(st.lists(st.lists(st.floats(-2, 2), max_size=2), max_size=2), max_size=2)
)
CIRCUIT_FIELDS = ["kind", "name", "params", "qubits", "qubit", "clbit", "label", "matrix"]
KEY_RECORD_FIELDS = ["kind", "label", "gate_index", "original", "qubits", "left", "right",
                     "segment", "qubit", "params", "role"]


def records(fields, kinds):
    entry = st.fixed_dictionaries(
        {"kind": st.sampled_from(kinds)},
        optional={f: field_values for f in fields if f != "kind"},
    )
    return st.lists(entry | json_values, max_size=4)


circuit_docs = st.fixed_dictionaries(
    {"format": st.just(CIRCUIT_FORMAT), "version": st.just(FORMAT_VERSION)},
    optional={
        "num_qubits": field_values,
        "num_clbits": field_values,
        "instructions": records(
            CIRCUIT_FIELDS, ["gate", "unitary", "measure", "reset", "barrier", "other"]
        ) | json_values,
    },
)
key_docs = st.fixed_dictionaries(
    {"format": st.just("qobf-key"), "version": st.just(FORMAT_VERSION)},
    optional={
        **{f: field_values for f in ["seed", "mode", "num_qubits", "num_gates",
                                     "segment_params", "protected"]},
        "records": records(KEY_RECORD_FIELDS, ["block", "boundary", "other"]) | json_values,
    },
)


class TestFuzz:
    @given(json_values | circuit_docs)
    @settings(max_examples=300, deadline=None)
    def test_read_json_raises_only_schema_errors(self, doc):
        try:
            read_json(json.dumps(doc))
        except SchemaError:
            pass

    @given(json_values | key_docs)
    @settings(max_examples=300, deadline=None)
    def test_read_key_json_raises_only_schema_errors(self, doc):
        try:
            read_key_json(json.dumps(doc))
        except SchemaError:
            pass


class TestCounts:
    def test_counts_to_json(self):
        doc = json.loads(counts_to_json({"00": 500, "11": 524}, 1024))
        assert doc["shots"] == 1024
        assert doc["counts"]["11"] == 524
