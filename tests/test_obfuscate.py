"""Tests for obfuscation modes, keys, deobfuscation, and gate recognition."""
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import max_abs_diff, strip_measurements
from json_reference import reindent

from qobf.bench import CASE_STUDY_KEY, PAPER_SUITE, generate, qaoa_maxcut
from qobf.circuit import (
    Barrier,
    Circuit,
    Measure,
    OpaqueUnitary,
    Reset,
    StandardGate,
    gate_count,
    standard_gate_matrix,
    to_unitary,
)
from qobf.linalg import U3Params, equal_up_to_global_phase, u3_matrix
from qobf.jsonio import write_json
from qobf.obfuscate import (
    ObfuscationError,
    ObfuscationMode,
    conjugate_gate,
    deobfuscate_block,
    key_from_dict,
    obfuscate,
    read_key_json,
    recognize_gate,
    sample_basis,
    write_key_json,
)
from qobf.simulate import probabilities, run

GATE_POOL = (
    ("h", 0), ("x", 0), ("y", 0), ("z", 0), ("s", 0), ("t", 0),
    ("rx", 1), ("ry", 1), ("rz", 1), ("u3", 3),
    ("cx", 0), ("cz", 0), ("swap", 0), ("rzz", 1),
)


def random_circuit(rng, num_qubits, num_gates, with_measures=True):
    instrs = []
    for _ in range(num_gates):
        name, n_params = GATE_POOL[rng.integers(len(GATE_POOL))]
        arity = 2 if name in ("cx", "cz", "swap", "rzz") else 1
        if arity > num_qubits:
            name, n_params, arity = "h", 0, 1
        qubits = tuple(int(q) for q in rng.choice(num_qubits, arity, replace=False))
        params = tuple(float(a) for a in rng.uniform(-np.pi, np.pi, n_params))
        instrs.append(StandardGate(name, params, qubits))
    if with_measures:
        instrs += [Measure(q, q) for q in range(num_qubits)]
    return Circuit(num_qubits, num_qubits if with_measures else 0, tuple(instrs))


def bell():
    return Circuit(
        2,
        2,
        (
            StandardGate("h", (), (0,)),
            StandardGate("cx", (), (0, 1)),
            Measure(0, 0),
            Measure(1, 1),
        ),
    )


MODES = [
    (ObfuscationMode.GLOBAL, {}),
    (ObfuscationMode.CHAINED, {}),
    (ObfuscationMode.SUBSET, {"subset_size": 1}),
]


class TestEquivalence:
    @pytest.mark.parametrize("mode,kw", MODES)
    def test_bell_operator_preserved(self, mode, kw):
        c = bell()
        obf = obfuscate(c, mode, seed=3, **kw)
        assert equal_up_to_global_phase(
            to_unitary(strip_measurements(c)),
            to_unitary(strip_measurements(obf.circuit)),
            1e-9,
        )

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_random_circuits_all_modes(self, seed):
        rng = np.random.default_rng(seed)
        c = random_circuit(rng, int(rng.integers(1, 4)), int(rng.integers(1, 9)))
        u0 = to_unitary(strip_measurements(c))
        for mode, kw in MODES:
            kw = dict(kw)
            if mode is ObfuscationMode.SUBSET:
                kw["subset_size"] = min(1, gate_count(c))
            obf = obfuscate(c, mode, seed=seed % 97, **kw)
            u1 = to_unitary(strip_measurements(obf.circuit))
            assert equal_up_to_global_phase(u0, u1, 1e-9)

    def test_mid_circuit_measure_segments(self):
        c = Circuit(
            2,
            2,
            (
                StandardGate("h", (), (0,)),
                Measure(0, 0),
                StandardGate("x", (), (1,)),
                Measure(1, 1),
            ),
        )
        obf = obfuscate(c, ObfuscationMode.GLOBAL, seed=5)
        # two gate-bearing segments -> 2 gates + 2 * (2n) boundary layers
        assert gate_count(obf.circuit) == 2 + 2 * 2 * c.num_qubits
        from qobf.simulate import run

        assert run(c, 1024, seed=0).counts == run(obf.circuit, 1024, seed=0).counts


class TestStructure:
    @pytest.mark.parametrize("mode", [ObfuscationMode.GLOBAL, ObfuscationMode.CHAINED])
    def test_gate_count_m_plus_2n(self, mode):
        c = bell()
        obf = obfuscate(c, mode, seed=1)
        assert gate_count(obf.circuit) == gate_count(c) + 2 * c.num_qubits

    def test_empty_circuit_still_gets_boundaries(self):
        c = Circuit(2, 0, ())
        obf = obfuscate(c, ObfuscationMode.GLOBAL, seed=1)
        assert gate_count(obf.circuit) == 2 * c.num_qubits

    def test_all_blocks_are_opaque(self):
        obf = obfuscate(bell(), ObfuscationMode.CHAINED, seed=2)
        gates = [
            i for i in obf.circuit.instructions if not isinstance(i, Measure)
        ]
        assert all(isinstance(g, OpaqueUnitary) for g in gates)

    def test_subset_unprotected_pass_through(self):
        c = bell()
        obf = obfuscate(c, ObfuscationMode.SUBSET, seed=4, subset_size=1)
        standard = [
            i for i in obf.circuit.instructions if isinstance(i, StandardGate)
        ]
        assert len(standard) == 1  # one of the two gates stays in the clear

    def test_subset_size_zero_is_identity_rewrite(self):
        c = bell()
        obf = obfuscate(c, ObfuscationMode.SUBSET, seed=4, subset_size=0)
        assert obf.circuit.instructions == c.instructions

    def test_subset_size_range_checked(self):
        with pytest.raises(ObfuscationError):
            obfuscate(bell(), ObfuscationMode.SUBSET, seed=0, subset_size=99)
        with pytest.raises(ObfuscationError):
            obfuscate(bell(), ObfuscationMode.SUBSET, seed=0)

    def test_subset_size_rejected_elsewhere(self):
        with pytest.raises(ObfuscationError):
            obfuscate(bell(), ObfuscationMode.GLOBAL, seed=0, subset_size=1)

    @pytest.mark.parametrize("mode, subset_size", [
        (ObfuscationMode.CHAINED, None), (ObfuscationMode.SUBSET, 1),
    ])
    def test_global_params_rejected_elsewhere(self, mode, subset_size):
        with pytest.raises(ObfuscationError, match="global_params only valid in global mode"):
            obfuscate(bell(), mode, seed=0, subset_size=subset_size,
                      global_params=CASE_STUDY_KEY)


    def test_phase_angle_bound(self):
        # a gate and a pinned basis at the bound obfuscate to unitary blocks
        c = Circuit(1, 1, (StandardGate("u2", (1.0, 2.0 ** 24), (0,)), Measure(0, 0)))
        pinned = U3Params(0.3, -(2.0 ** 24), 2.0 ** 24)
        obf = obfuscate(c, ObfuscationMode.GLOBAL, seed=0, global_params=pinned)
        assert obf.key.segment_params == (pinned,)
        beyond = U3Params(0.3, 0.0, math.nextafter(2.0 ** 24, math.inf))
        with pytest.raises(ObfuscationError, match=r"global_params phase angle beyond 2\*\*24"):
            obfuscate(c, ObfuscationMode.GLOBAL, seed=0, global_params=beyond)


class TestValidatedOnce:
    def test_obfuscate_and_run_validate_only_what_they_build(self, monkeypatch):
        c = Circuit(2, 2, (
            StandardGate("h", (), (0,)), Measure(0, 0), Reset(0),
            StandardGate("cx", (), (0, 1)), Measure(0, 0), Measure(1, 1),
        ))
        calls = []
        real = Circuit.validate
        monkeypatch.setattr(Circuit, "validate", lambda self: calls.append(self) or real(self))
        obf = obfuscate(c, ObfuscationMode.CHAINED, seed=0)
        run(c, 64, seed=1)
        run(obf.circuit, 64, seed=1)
        probabilities(obf.circuit)
        assert len(calls) == 1 and calls[0] is obf.circuit


class TestDeterminism:
    @pytest.mark.parametrize("mode,kw", MODES)
    def test_same_seed_identical_serialization(self, mode, kw):
        from qobf.jsonio import write_json

        a = obfuscate(bell(), mode, seed=11, **kw)
        b = obfuscate(bell(), mode, seed=11, **kw)
        assert write_json(a.circuit) == write_json(b.circuit)
        assert write_key_json(a.key) == write_key_json(b.key)

    def test_different_seed_different_blocks(self):
        a = obfuscate(bell(), ObfuscationMode.GLOBAL, seed=1)
        b = obfuscate(bell(), ObfuscationMode.GLOBAL, seed=2)
        ma = a.circuit.instructions[2].matrix
        mb = b.circuit.instructions[2].matrix
        assert max_abs_diff(ma, mb) > 1e-3


class TestKey:
    @pytest.mark.parametrize("mode,kw", MODES)
    def test_key_roundtrip(self, mode, kw):
        key = obfuscate(bell(), mode, seed=9, **kw).key
        back = key_from_dict(json.loads(write_key_json(key)))
        assert back == key
        assert read_key_json(write_key_json(key)) == key

    @pytest.mark.parametrize("mode,kw", MODES)
    def test_deobfuscate_blocks_recover_gates(self, mode, kw):
        c = bell()
        obf = obfuscate(c, mode, seed=13, **kw)
        originals = {"H": standard_gate_matrix("h", ()), "CX": standard_gate_matrix("cx", ())}
        found = 0
        for instr in obf.circuit.instructions:
            if isinstance(instr, OpaqueUnitary) and instr.label.startswith("Obf_"):
                rec = obf.key.block(instr.label)
                recovered = deobfuscate_block(instr, obf.key)
                assert max_abs_diff(recovered, originals[rec.original]) < 1e-9
                found += 1
        assert found >= 1

    def test_wrong_key_fails_to_recover(self):
        c = bell()
        obf = obfuscate(c, ObfuscationMode.GLOBAL, seed=13)
        wrong = obfuscate(c, ObfuscationMode.GLOBAL, seed=14)
        block = next(
            i for i in obf.circuit.instructions
            if isinstance(i, OpaqueUnitary) and i.label.startswith("Obf_H")
        )
        recovered = deobfuscate_block(block, wrong.key)
        assert max_abs_diff(recovered, standard_gate_matrix("h", ())) > 1e-3

    def test_unknown_label_raises(self):
        obf = obfuscate(bell(), ObfuscationMode.GLOBAL, seed=13)
        with pytest.raises(ObfuscationError):
            obf.key.block("Obf_NOPE_0")

    @pytest.mark.parametrize("mode,kw", MODES)
    def test_every_label_maps_to_its_own_record(self, mode, kw):
        c = random_circuit(np.random.default_rng(21), 4, 40)
        key = obfuscate(c, mode, seed=21, **kw).key
        assert len(key.blocks) >= 1
        for rec in key.blocks:
            assert key.block(rec.label) is rec
        # The label index is not a field: a key that has been searched still
        # equals one that has not.
        assert read_key_json(write_key_json(key)) == key


class TestConjugation:
    def test_conjugate_gate_matches_manual(self):
        rng = np.random.default_rng(8)
        p, q = sample_basis(rng), sample_basis(rng)
        g = standard_gate_matrix("cx", ())
        left = [u3_matrix(p), u3_matrix(q)]
        right = [u3_matrix(p.inverse()), u3_matrix(q.inverse())]
        got = conjugate_gate(g, left, right)
        manual = np.kron(left[1], left[0]) @ g @ np.kron(right[1], right[0])
        assert max_abs_diff(got, manual) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ObfuscationError):
            conjugate_gate(np.eye(4, dtype=complex), [np.eye(2)], [np.eye(2)])


class TestRecognizeGate:
    def test_fixed_gates(self):
        for name in ("id", "x", "y", "z", "h", "s", "sdg", "t", "tdg"):
            assert recognize_gate(standard_gate_matrix(name, ())) == name
        for name in ("cx", "cz", "swap"):
            assert recognize_gate(standard_gate_matrix(name, ())) == name
        assert recognize_gate(standard_gate_matrix("ccx", ())) == "ccx"

    def test_rotation_families(self):
        assert recognize_gate(standard_gate_matrix("rx", (0.7,))) == "rx"
        assert recognize_gate(standard_gate_matrix("ry", (1.3,))) == "ry"
        assert recognize_gate(standard_gate_matrix("rz", (0.4,))) == "rz"
        assert recognize_gate(standard_gate_matrix("rzz", (0.9,))) == "rzz"

    def test_phase_gate_reports_rz_family(self):
        # p/u1 are phase-equivalent to rz; the probe reports the family
        # representative.
        assert recognize_gate(standard_gate_matrix("p", (0.6,))) == "rz"

    def test_conjugated_blocks_are_opaque(self):
        rng = np.random.default_rng(21)
        for name in ("h", "x", "t"):
            g = standard_gate_matrix(name, ())
            p = sample_basis(rng)
            blob = conjugate_gate(
                g, [u3_matrix(p.inverse())], [u3_matrix(p)]
            )
            assert recognize_gate(blob) is None

    def test_non_unitary_rejected(self):
        with pytest.raises(ObfuscationError):
            recognize_gate(np.ones((2, 2), dtype=complex))


class TestGlobalParams:
    def test_pinned_key_recorded(self):
        pinned = U3Params(2.86, 2.33, 0.762)
        obf = obfuscate(bell(), ObfuscationMode.GLOBAL, seed=0, global_params=pinned)
        assert obf.key.segment_params[0] == pinned
        prologue = obf.circuit.instructions[0]
        assert max_abs_diff(prologue.matrix, u3_matrix(pinned.inverse())) < 1e-12

    def test_boundary_matrices_built_from_their_own_params(self):
        # p == p.inverse() in value here, but the two differ in signed zeros,
        # and so do the zero entries of their matrices.
        pinned = U3Params(0.0, 1.0, -1.0)
        obf = obfuscate(bell(), ObfuscationMode.GLOBAL, seed=0, global_params=pinned)
        layers = [i for i in obf.circuit.instructions if "Basis" in getattr(i, "label", "")]
        for instr, p in zip(layers, [pinned.inverse()] * 2 + [pinned] * 2):
            assert instr.matrix.tobytes() == u3_matrix(p).tobytes()



def _h(q):
    return StandardGate("h", (), (q,))


def _cx(a, b):
    return StandardGate("cx", (), (a, b))


GOLDEN_INPUTS = [(s.name, generate(s.name, **s.params)) for s in PAPER_SUITE] + [
    ("mid_measure_reset", Circuit(3, 3, (
        _h(0), _cx(0, 1), Measure(1, 0), Reset(1), StandardGate("x", (), (1,)),
        Barrier((0, 1, 2)), _cx(1, 2), Reset(0), _h(2), Measure(0, 1), Measure(2, 2),
    ))),
    ("barriers", Circuit(2, 2, (
        Barrier(()), _h(0), Barrier((0, 1)), _cx(0, 1), Barrier((1,)),
        Measure(0, 0), Measure(1, 1),
    ))),
    ("gate_free_tail", Circuit(2, 2, (
        _h(0), _cx(0, 1), Measure(0, 0), Barrier((0, 1)), Measure(1, 1), Barrier((0,)),
    ))),
    ("empty", Circuit(2, 0, ())),
]


def golden_digest(layout) -> str:
    """SHA-256 of ``layout`` of the circuit and key JSON of every mode for fixed seeds."""
    h = hashlib.sha256()
    runs = [
        obfuscate(
            c, mode, seed=seed,
            subset_size=gate_count(c) // 2 if mode is ObfuscationMode.SUBSET else None,
        )
        for _, c in GOLDEN_INPUTS
        for mode in ObfuscationMode
        for seed in (0, 3, 17)
    ]
    runs.append(obfuscate(
        qaoa_maxcut(), ObfuscationMode.GLOBAL, seed=0, global_params=CASE_STUDY_KEY
    ))
    for obf in runs:
        h.update(layout(write_json(obf.circuit)).encode())
        h.update(layout(write_key_json(obf.key)).encode())
    return h.hexdigest()


class TestGolden:
    def test_artifacts_byte_identical(self):
        """Re-indented, the artifacts are the documents pinned when the writers
        emitted json.dumps(indent=2)."""
        assert golden_digest(reindent) == (
            "76df96dbc98545bce55e278476dec5fc105156c0e81a2ee13cba6993a0c9c687"
        )

    def test_compact_bytes_pinned(self):
        """The artifacts as written: one compact record per line."""
        assert golden_digest(lambda text: text) == (
            "a19959f64d3de6e5f3fbb273b4f7c7e3daead4f424dd06bb1f115e98dcb127a2"
        )
