"""The artifact writers emit the reference encoder's documents: re-indented, their
text is the bytes of json.dumps(indent=2)."""
import json
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from json_reference import reference_write_json, reference_write_key_json, reindent

from qobf.circuit import (
    PHASE_PAIR_GATES,
    Barrier,
    Circuit,
    Measure,
    OpaqueUnitary,
    Reset,
    StandardGate,
)
from qobf.jsonio import write_json
from qobf.linalg import MAX_PHASE, U3Params
from qobf.obfuscate import (
    BlockRecord,
    BoundaryRecord,
    ObfuscationKey,
    ObfuscationMode,
    obfuscate,
    write_key_json,
)

# Floats whose spelling differs between naive formatters: signed zero, the
# smallest subnormal, the switch to exponent notation at 1e16 and 1e-5, and a
# value with no short binary form.
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1e-7, 1e-4, 0.1,
                  -2.5, 1.7976931348623157e308]
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_FLOATS)
# Any number the reference writes: Python and numpy floats, ints and bools.
numbers = (
    finite | finite.map(np.float64) | st.integers(-(2 ** 70), 2 ** 70) | st.booleans()
)
# Escapes: quotes, backslashes, control characters, non-ASCII and astral text.
labels = st.text(max_size=6) | st.sampled_from(['"', "\\", "\x00\x1f\n\t", "é", "\U0001f600",
                                                 "%s", "Obf_CX_1"])

PARAM_GATES = {"h": 0, "rz": 1, "u2": 2, "u3": 3}


def within_phase_bound(v):
    """A phi or lam that a circuit accepts: one beyond 2**24 folds back below it."""
    return v if abs(v) <= MAX_PHASE else math.fmod(v, MAX_PHASE)


@st.composite
def unitaries(draw, arity: int) -> np.ndarray:
    """A random unitary, or a signed permutation, whose entries include -0.0."""
    dim = 2 ** arity
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return np.linalg.qr(z)[0]
    signs = np.array(draw(st.lists(st.sampled_from([1, -1, 1j, -1j]), min_size=dim,
                                   max_size=dim)))
    return -np.eye(dim, dtype=np.complex128)[rng.permutation(dim)] * signs


@st.composite
def circuits(draw, params=numbers) -> Circuit:
    n = draw(st.integers(1, 4))
    nc = draw(st.integers(0, 3))
    wires = st.permutations(range(n))
    instrs = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["gate", "unitary", "measure", "reset", "barrier"]))
        if kind == "gate":
            name = draw(st.sampled_from(sorted(PARAM_GATES)))
            values = draw(st.lists(params, min_size=PARAM_GATES[name],
                                   max_size=PARAM_GATES[name]))
            if name in PHASE_PAIR_GATES:
                values[-2:] = map(within_phase_bound, values[-2:])
            instrs.append(StandardGate(name, tuple(values), (draw(wires)[0],)))
        elif kind == "unitary":
            k = draw(st.integers(0, min(n, 3)))
            instrs.append(OpaqueUnitary(draw(labels), tuple(draw(wires)[:k]),
                                        draw(unitaries(k))))
        elif kind == "measure" and nc:
            instrs.append(Measure(draw(wires)[0], draw(st.integers(0, nc - 1))))
        elif kind == "reset":
            instrs.append(Reset(draw(wires)[0]))
        elif kind == "barrier":
            instrs.append(Barrier(tuple(draw(wires)[:draw(st.integers(0, n))])))
    return Circuit(n, nc, tuple(instrs))


# Key angles may be anything a float field can hold, NaN and infinities included.
angles = st.builds(U3Params, *[numbers | st.floats()] * 3)


@st.composite
def keys(draw) -> ObfuscationKey:
    triples = st.lists(angles, max_size=3).map(tuple)
    blocks = st.builds(BlockRecord, labels, st.integers(0, 99), labels,
                       st.lists(st.integers(0, 9), max_size=3).map(tuple), triples, triples)
    boundaries = st.builds(BoundaryRecord, labels, st.integers(0, 9), st.integers(0, 9),
                           angles, st.sampled_from(["basis", "inv_basis"]) | labels)
    return ObfuscationKey(
        seed=draw(st.integers(0, 2 ** 64)),
        mode=draw(st.sampled_from(ObfuscationMode)),
        num_qubits=draw(st.integers(1, 9)),
        num_gates=draw(st.integers(0, 99)),
        blocks=tuple(draw(st.lists(blocks, max_size=3))),
        boundaries=tuple(draw(st.lists(boundaries, max_size=3))),
        segment_params=tuple(draw(st.lists(angles, max_size=2))),
        protected=draw(st.none() | st.lists(st.integers(0, 99), max_size=3).map(tuple)),
    )


class TestSameBytesAsReference:
    @given(circuits())
    @settings(max_examples=300, deadline=None)
    def test_write_json(self, c):
        assert reindent(write_json(c)) == reference_write_json(c)

    @given(keys())
    @settings(max_examples=300, deadline=None)
    def test_write_key_json(self, key):
        assert reindent(write_key_json(key)) == reference_write_key_json(key)

    # Small angles: past 2**24, phi + lam loses enough to rounding to give gate
    # matrices that are not unitary, and Circuit refuses them.
    @given(circuits(params=st.floats(-10, 10) | st.integers(-3, 3) | st.booleans()),
           st.sampled_from(ObfuscationMode), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_obfuscated_artifacts(self, c, mode, seed):
        gates = sum(isinstance(i, (StandardGate, OpaqueUnitary)) for i in c.instructions)
        obf = obfuscate(c, mode, seed, subset_size=gates // 2
                        if mode is ObfuscationMode.SUBSET else None)
        assert reindent(write_json(obf.circuit)) == reference_write_json(obf.circuit)
        assert reindent(write_key_json(obf.key)) == reference_write_key_json(obf.key)

    def test_empty_circuit(self):
        c = Circuit(1, 0, ())
        assert reindent(write_json(c)) == reference_write_json(c)

    @pytest.mark.parametrize("protected", [None, (), (0, 2)])
    def test_key_without_records(self, protected):
        key = ObfuscationKey(0, ObfuscationMode.SUBSET, 2, 3, (), (), (), protected)
        assert reindent(write_key_json(key)) == reference_write_key_json(key)

    def test_matrix_changed_after_construction(self):
        """The writers spell non-finite entries as json.dumps does, even where
        no constructor would have let them in."""
        c = Circuit(1, 0, (OpaqueUnitary("u", (0,), np.eye(2, dtype=np.complex128)),))
        c.instructions[0].matrix[0] = [complex(float("nan"), float("-inf")), float("inf")]
        assert reindent(write_json(c)) == reference_write_json(c)

    def test_wide_opaque_block(self):
        """Blocks past 3 qubits take the same path."""
        rng = np.random.default_rng(5)
        for k in (4, 5):
            z = rng.normal(size=(2 ** k,) * 2) + 1j * rng.normal(size=(2 ** k,) * 2)
            c = Circuit(k, 0, (OpaqueUnitary("wide", tuple(range(k)), np.linalg.qr(z)[0]),))
            assert reindent(write_json(c)) == reference_write_json(c)


class TestLayout:
    @pytest.mark.parametrize("mode", list(ObfuscationMode))
    def test_one_record_per_line(self, mode):
        """The header line opens the record list, each record is one line, and
        the last line closes the document."""
        c = Circuit(2, 2, (StandardGate("h", (), (0,)), StandardGate("cx", (), (0, 1)),
                           Measure(0, 0), StandardGate("rz", (0.5,), (1,)), Measure(1, 1)))
        obf = obfuscate(c, mode, 4, subset_size=2 if mode is ObfuscationMode.SUBSET else None)
        for text, field in ((write_json(obf.circuit), "instructions"),
                            (write_key_json(obf.key), "records")):
            lines = text.splitlines()
            assert lines[0].endswith(f'"{field}":[') and lines[-1].startswith("]")
            assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == \
                json.loads(text)[field]


def _circuit_with(value):
    return Circuit(2, 1, (StandardGate("rz", (value,), (0,)),))


class TestRefusedValues:
    """What json.dumps refuses, the writers refuse with the same TypeError."""

    @pytest.mark.parametrize("build", [
        lambda: Circuit(2, 1, (StandardGate("h", (), (np.int64(1),)),)),
        lambda: Circuit(2, 1, (Measure(0, np.int64(0)),)),
        lambda: Circuit(2, 1, (Reset(np.int32(1)),)),
        lambda: _circuit_with(np.int64(1)),
        lambda: _circuit_with(Decimal("0.5")),
    ], ids=["gate-qubit", "clbit", "reset-qubit", "int64-param", "decimal-param"])
    def test_circuit(self, build):
        c = build()
        for writer in (reference_write_json, write_json):
            with pytest.raises(TypeError, match="is not JSON serializable"):
                writer(c)

    @pytest.mark.parametrize("change", [
        {"seed": np.int64(3)},
        {"segment_params": (U3Params(np.int64(1), 0.0, 0.0),)},
        {"protected": (np.int64(0),)},
        {"blocks": (BlockRecord("b", 0, "H", (np.int64(0),), (), ()),)},
    ], ids=["seed", "angle", "protected", "block-qubit"])
    def test_key(self, change):
        fields = dict(seed=0, mode=ObfuscationMode.GLOBAL, num_qubits=1, num_gates=1,
                      blocks=(), boundaries=())
        key = ObfuscationKey(**{**fields, **change})
        for writer in (reference_write_key_json, write_key_json):
            with pytest.raises(TypeError, match="is not JSON serializable"):
                writer(key)
