"""Tests for JSON serialization of circuits and counts."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import max_abs_diff

from qobf.circuit import Barrier, Circuit, Measure, OpaqueUnitary, Reset, StandardGate
from qobf.jsonio import (
    CIRCUIT_FORMAT,
    FORMAT_VERSION,
    SchemaError,
    circuit_from_dict,
    counts_to_json,
    read_json,
    write_json,
)
from qobf.obfuscate import ObfuscationMode, obfuscate, read_key_json, write_key_json
from qobf.qasm import parse


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
    )


def sample_doc():
    return json.loads(write_json(sample_circuit()))


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

    def test_parsed_circuit_equals_its_round_trip(self):
        c = parse(
            "OPENQASM 2.0;\nqreg a[3];\ncreg m[3];\nh a[0];\ncx a[0], a[1];\n"
            "u3(0.1, 0.2, 0.3) a[2];\nbarrier a;\nmeasure a -> m;\n"
        )
        assert read_json(write_json(c)) == c

    def test_write_is_stable(self):
        c = sample_circuit()
        assert write_json(c) == write_json(read_json(write_json(c)))

    def test_header_fields(self):
        doc = sample_doc()
        assert doc["format"] == CIRCUIT_FORMAT
        assert doc["version"] == FORMAT_VERSION


class TestSchemaErrors:
    def test_wrong_format_tag(self):
        doc = sample_doc()
        doc["format"] = "something-else"
        with pytest.raises(SchemaError):
            circuit_from_dict(doc)

    def test_wrong_version(self):
        doc = sample_doc()
        doc["version"] = 999
        with pytest.raises(SchemaError):
            circuit_from_dict(doc)

    def test_corrupted_matrix_rejected(self):
        doc = sample_doc()
        for instr in doc["instructions"]:
            if "matrix" in instr:
                instr["matrix"][0][0] = [3.0, 0.0]
        with pytest.raises(SchemaError):
            circuit_from_dict(doc)

    def test_not_json(self):
        with pytest.raises((SchemaError, json.JSONDecodeError)):
            read_json("not json at all")


def sample_key_doc():
    key = obfuscate(sample_circuit(), ObfuscationMode.CHAINED, seed=1).key
    return json.loads(write_key_json(key))


def with_instruction(entry):
    doc = sample_doc()
    doc["instructions"][0] = entry
    return json.dumps(doc)


def with_record(**changes):
    doc = sample_key_doc()
    doc["records"][0].update(changes)
    return doc


def with_boundary(**changes):
    doc = sample_key_doc()
    assert doc["records"][-1]["kind"] == "boundary"
    doc["records"][-1].update(changes)
    return doc


def with_field(doc, value, *path):
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return doc


def without(doc, field):
    del doc[field]
    return doc


def with_duplicate_label():
    doc = sample_key_doc()
    assert [r["kind"] for r in doc["records"][:2]] == ["block", "block"]
    doc["records"][1]["label"] = doc["records"][0]["label"]
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
            json.dumps(without(sample_doc(), "num_qubits")),
            json.dumps({**sample_doc(), "instructions": 5}),
            "[" * 100000,
            "1" * 5000,
            # JSON types: no float, boolean or numeric string where an integer
            # belongs, no number for a name, no string for a number
            json.dumps({**sample_doc(), "num_qubits": 2.9}),
            json.dumps({**sample_doc(), "num_qubits": 2.0}),
            json.dumps({**sample_doc(), "num_clbits": True}),
            with_instruction({"kind": "gate", "name": "h", "qubits": ["1"]}),
            with_instruction({"kind": "gate", "name": "h", "qubits": [True]}),
            with_instruction({"kind": "gate", "name": "h", "qubits": "1"}),
            with_instruction({"kind": "gate", "name": 5, "qubits": [0]}),
            with_instruction({"kind": "gate", "name": "rz", "params": ["0.5"], "qubits": [0]}),
            with_instruction({"kind": "gate", "name": "rz", "params": [True], "qubits": [0]}),
            with_instruction({"kind": "gate", "name": "rz", "params": 0.5, "qubits": [0]}),
            with_instruction({"kind": "measure", "qubit": 1, "clbit": True}),
            with_instruction({"kind": "measure", "qubit": 1.7, "clbit": 0}),
            with_instruction({"kind": "reset", "qubit": "0"}),
            with_instruction({"kind": "barrier", "qubits": [0.0, 1]}),
            with_instruction({"kind": "unitary", "label": 5, "qubits": [0],
                              "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}),
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
            {**sample_key_doc(), "seed": 3.7},
            {**sample_key_doc(), "seed": True},
            {**sample_key_doc(), "num_qubits": "2"},
            {**sample_key_doc(), "mode": 1},
            {**sample_key_doc(), "protected": "ab"},
            {**sample_key_doc(), "protected": [0.5]},
            {**sample_key_doc(), "segment_params": [[True, 0.0, 0.0]]},
            with_record(label=5),
            with_record(gate_index=1.0),
            with_record(original=7),
            with_record(qubits=["0"]),
            with_record(left=[["0.5", 0.0, 0.0]]),
            with_boundary(segment=False),
            with_boundary(qubit=0.0),
            with_boundary(role=1),
            with_boundary(params=[0.1, 0.2, "0.3"]),
        ],
    )
    def test_read_key_json_faults_are_schema_errors(self, doc):
        with pytest.raises(SchemaError):
            read_key_json(json.dumps(doc))

    @pytest.mark.parametrize("doc,message", [
        (with_record(left=[[float("nan"), 0.0, 0.0]]), "key record 0: left angle must be finite"),
        (with_record(right=[[0.0, float("inf"), 0.0]]),
         "key record 0: right angle must be finite"),
        (with_boundary(params=[0.0, 0.0, float("-inf")]),
         r"key record \d+: params angle must be finite"),
        ({**sample_key_doc(), "segment_params": [[float("nan"), 0.0, 0.0]]},
         "segment_params angle must be finite"),
        ({**sample_key_doc(), "num_gates": -1}, "num_gates must be non-negative"),
        ({**sample_key_doc(), "num_qubits": 0}, "num_qubits must be positive"),
        (with_record(qubits=[2]), "key record 0: qubit 2 outside the 2-qubit register"),
        (with_record(qubits=[-1]), "key record 0: qubit -1 outside the 2-qubit register"),
        (with_boundary(qubit=5), r"key record \d+: qubit 5 outside the 2-qubit register"),
        ({**sample_key_doc(), "records": [{"kind": "gate"}]}, "key record 0: unknown kind 'gate'"),
        (with_duplicate_label(), "key record 1: duplicate block label 'Obf_H_0'"),
    ])
    def test_impossible_keys_name_the_record(self, doc, message):
        with pytest.raises(SchemaError, match=message):
            read_key_json(json.dumps(doc))

    def test_integral_numbers_read_as_params(self):
        text = with_instruction({"kind": "gate", "name": "rz", "params": [1], "qubits": [0]})
        gate = read_json(text).instructions[0]
        assert gate.params == (1.0,) and type(gate.params[0]) is float


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=10,
)
# Near misses for integer fields: integral floats, booleans, numeric strings.
non_integers = (
    st.floats() | st.integers(-1, 3).map(float) | st.booleans()
    | st.sampled_from(["0", "1", "2", "0.5"])
)
small_values = (
    st.integers(-1, 3) | st.sampled_from(["h", "cx", "rz", "u3", "global", "B"]) | non_integers
)
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


CIRCUIT_INTEGER_FIELDS = [
    ("num_qubits",), ("num_clbits",),
    ("instructions", 0, "qubits", 0), ("instructions", 2, "qubits", 1),
    ("instructions", 3, "qubits", 0), ("instructions", 4, "qubit"),
    ("instructions", 5, "qubit"), ("instructions", 5, "clbit"),
]
KEY_INTEGER_FIELDS = [
    ("seed",), ("num_qubits",), ("num_gates",), ("records", 0, "gate_index"),
    ("records", 0, "qubits", 0), ("records", -1, "segment"), ("records", -1, "qubit"),
]


class TestStrictTypes:
    @given(st.sampled_from(CIRCUIT_INTEGER_FIELDS), non_integers)
    @settings(max_examples=200, deadline=None)
    def test_circuit_integer_fields_reject_non_integers(self, path, value):
        doc = with_field(sample_doc(), value, *path)
        with pytest.raises(SchemaError):
            read_json(json.dumps(doc))

    @given(st.sampled_from(KEY_INTEGER_FIELDS), non_integers)
    @settings(max_examples=200, deadline=None)
    def test_key_integer_fields_reject_non_integers(self, path, value):
        doc = with_field(sample_key_doc(), value, *path)
        with pytest.raises(SchemaError):
            read_key_json(json.dumps(doc))

    @given(st.sampled_from([("instructions", 0, "name"), ("instructions", 2, "label")]),
           st.booleans() | st.integers() | st.floats() | st.none() | st.just(["h"]))
    @settings(max_examples=100, deadline=None)
    def test_circuit_names_must_be_strings(self, path, value):
        doc = with_field(sample_doc(), value, *path)
        with pytest.raises(SchemaError):
            read_json(json.dumps(doc))

    @given(st.booleans() | st.sampled_from(["0.25", "1"]) | st.none() | st.just([0.25]))
    @settings(max_examples=50, deadline=None)
    def test_circuit_params_must_be_numbers(self, value):
        doc = with_field(sample_doc(), value, "instructions", 1, "params", 0)
        with pytest.raises(SchemaError):
            read_json(json.dumps(doc))


class TestCounts:
    def test_counts_to_json(self):
        doc = json.loads(counts_to_json({"00": 500, "11": 524}, 1024))
        assert doc["shots"] == 1024
        assert doc["counts"]["11"] == 524
