"""Tests for the circuit IR: instructions, validation, structure queries."""
import numpy as np
import pytest
from helpers import concat, lifted_operator, max_abs_diff, strip_measurements

from qobf.circuit import (
    Barrier,
    Circuit,
    CircuitError,
    GATE_SIGNATURES,
    Measure,
    OpaqueUnitary,
    Reset,
    StandardGate,
    depth,
    gate_count,
    instruction_matrix,
    segment,
    standard_gate_matrix,
    to_unitary,
)
from qobf.linalg import equal_up_to_global_phase, is_unitary


def bell_circuit():
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


class TestGateMatrices:
    def test_all_signatures_have_matrices(self):
        for name, (n_params, n_qubits) in GATE_SIGNATURES.items():
            m = standard_gate_matrix(name, (0.3,) * n_params)
            assert m.shape == (2 ** n_qubits, 2 ** n_qubits)
            assert is_unitary(m, 1e-12)

    def test_cx_permutation(self):
        # Control is slot 0, the least significant local bit.
        m = standard_gate_matrix("cx", ())
        expect = np.eye(4)[[0, 3, 2, 1]]
        assert max_abs_diff(m, expect) == 0.0

    def test_ccx_permutation(self):
        m = standard_gate_matrix("ccx", ())
        expect = np.eye(8)
        expect[[3, 7]] = expect[[7, 3]]
        assert max_abs_diff(m, expect) == 0.0

    def test_rzz_diagonal(self):
        th = 0.9
        m = standard_gate_matrix("rzz", (th,))
        d = np.exp(1j * th / 2 * np.array([-1, 1, 1, -1]))
        assert max_abs_diff(m, np.diag(d)) < 1e-15

    def test_h_s_t_relations(self):
        s = standard_gate_matrix("s", ())
        t = standard_gate_matrix("t", ())
        assert max_abs_diff(t @ t, s) < 1e-15
        assert max_abs_diff(s @ standard_gate_matrix("sdg", ()), np.eye(2)) < 1e-15

    def test_unknown_gate(self):
        with pytest.raises(CircuitError):
            standard_gate_matrix("frobnicate", ())

    def test_u_aliases(self):
        a = standard_gate_matrix("u3", (0.4, 0.5, 0.6))
        b = standard_gate_matrix("u", (0.4, 0.5, 0.6))
        assert max_abs_diff(a, b) == 0.0

    @pytest.mark.parametrize(
        "name", ["id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "cx", "cz", "swap", "ccx"]
    )
    def test_fixed_gates_are_shared_and_read_only(self, name):
        m = standard_gate_matrix(name, ())
        assert m is standard_gate_matrix(name, [])
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
        assert m[0, 0] != 2.0

    def test_parametric_gates_are_fresh_arrays(self):
        a = standard_gate_matrix("rx", (0.3,))
        assert a is not standard_gate_matrix("rx", (0.3,))
        assert a.flags.writeable


class TestInstructions:
    def test_standard_gate_arity_checked_at_validate(self):
        with pytest.raises(CircuitError):
            Circuit(2, 0, (StandardGate("cx", (), (0,)),))
        with pytest.raises(CircuitError):
            Circuit(2, 0, (StandardGate("rz", (), (0,)),))

    def test_opaque_requires_unitary(self):
        with pytest.raises(CircuitError):
            OpaqueUnitary("Bad", (0,), np.ones((2, 2), dtype=complex))

    def test_opaque_dimension_must_match_wires(self):
        with pytest.raises(CircuitError):
            OpaqueUnitary("Bad", (0, 1), np.eye(2, dtype=complex))

    def test_instruction_matrix_for_opaque(self):
        m = np.eye(4, dtype=complex)[[0, 3, 2, 1]]
        op = OpaqueUnitary("Blk", (0, 1), m)
        assert max_abs_diff(instruction_matrix(op), m) == 0.0


class TestValidation:
    def test_bell_validates(self):
        assert bell_circuit().validate() is None

    def test_qubit_out_of_range(self):
        with pytest.raises(CircuitError):
            Circuit(1, 0, (StandardGate("x", (), (1,)),))

    def test_duplicate_wires_rejected(self):
        with pytest.raises(CircuitError):
            Circuit(2, 0, (StandardGate("cx", (), (1, 1)),))

    def test_clbit_out_of_range(self):
        with pytest.raises(CircuitError):
            Circuit(1, 1, (Measure(0, 1),))

    def test_invalid_circuit_cannot_be_built(self, monkeypatch):
        calls = []
        real = Circuit.validate
        monkeypatch.setattr(Circuit, "validate", lambda self: calls.append(self) or real(self))
        with pytest.raises(CircuitError, match="instruction 0: qubit 2 out of range"):
            Circuit(2, 0, (StandardGate("h", (), (2,)),))
        assert len(calls) == 1

    @pytest.mark.parametrize("junk", [("h",), "h", None, 3, np.eye(2)])
    def test_non_instruction_rejected(self, junk):
        with pytest.raises(CircuitError, match="is not an instruction") as exc:
            Circuit(1, 0, (StandardGate("h", (), (0,)), junk))
        assert str(exc.value).startswith("instruction 1: ")

    @pytest.mark.parametrize(
        "gate, message",
        [
            (StandardGate("frob", (), (0,)), "unknown gate 'frob'"),
            (StandardGate("rz", (), (0,)), "gate 'rz' expects 1 parameter(s), got 0"),
            (StandardGate("h", (0.5,), (0,)), "gate 'h' expects 0 parameter(s), got 1"),
            (StandardGate("cx", (), (0,)), "instruction 0: gate 'cx' arity mismatch"),
        ],
    )
    def test_signature_errors_need_no_matrix(self, monkeypatch, gate, message):
        def refuse(name, params):
            raise AssertionError("validate must not build gate matrices")

        monkeypatch.setattr("qobf.circuit.standard_gate_matrix", refuse)
        with pytest.raises(CircuitError) as exc:
            Circuit(2, 0, (gate,))
        assert str(exc.value) == message

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_parameter_rejected(self, value):
        with pytest.raises(CircuitError, match="instruction 1: gate 'rx' has a non-finite"):
            Circuit(1, 0, (StandardGate("h", (), (0,)), StandardGate("rx", (value,), (0,))))


class TestStructure:
    def test_gate_count_ignores_non_gates(self):
        c = Circuit(
            2,
            2,
            (
                StandardGate("h", (), (0,)),
                Barrier((0, 1)),
                Measure(0, 0),
                Reset(1),
                StandardGate("x", (), (1,)),
            ),
        )
        assert gate_count(c) == 2

    def test_depth_bell(self):
        assert depth(bell_circuit()) == 3

    def test_depth_parallel_gates(self):
        c = Circuit(2, 0, (StandardGate("h", (), (0,)), StandardGate("h", (), (1,))))
        assert depth(c) == 1

    def test_barrier_syncs_without_depth(self):
        c = Circuit(
            2,
            0,
            (
                StandardGate("h", (), (0,)),
                Barrier((0, 1)),
                StandardGate("h", (), (1,)),
            ),
        )
        assert depth(c) == 2

    def test_segment_boundaries(self):
        view = segment(bell_circuit())
        assert view.segments == ((0, 2), (3, 3), (4, 4))
        assert view.boundaries == (2, 3)

    def test_strip_measurements(self):
        stripped = strip_measurements(bell_circuit())
        assert gate_count(stripped) == 2
        assert all(
            not isinstance(i, (Measure, Reset)) for i in stripped.instructions
        )

    def test_concat(self):
        a = Circuit(2, 0, (StandardGate("h", (), (0,)),))
        b = Circuit(2, 0, (StandardGate("x", (), (1,)),))
        ab = concat(a, b)
        assert gate_count(ab) == 2

    def test_concat_register_mismatch(self):
        with pytest.raises(CircuitError):
            concat(Circuit(1, 0, ()), Circuit(2, 0, ()))


class TestToUnitary:
    def test_bell_unitary(self):
        u = to_unitary(strip_measurements(bell_circuit()))
        state = u[:, 0]
        expect = np.zeros(4, dtype=complex)
        expect[0] = expect[3] = 1 / np.sqrt(2)
        assert max_abs_diff(state, expect) < 1e-12

    def test_rejects_measurements(self):
        with pytest.raises(CircuitError):
            to_unitary(bell_circuit())

    def test_qubit_cap(self):
        c = Circuit(11, 0, ())
        with pytest.raises(CircuitError):
            to_unitary(c)

    def test_lifted_operator_matches_kron(self):
        g = StandardGate("x", (), (1,))
        full = lifted_operator(g, 2)
        x = standard_gate_matrix("x", ())
        assert max_abs_diff(full, np.kron(x, np.eye(2))) == 0.0

    def test_inverse_circuit_composes_to_identity(self):
        c = Circuit(
            2,
            0,
            (
                StandardGate("h", (), (0,)),
                StandardGate("cx", (), (0, 1)),
                StandardGate("rz", (0.3,), (1,)),
            ),
        )
        inv = Circuit(
            2,
            0,
            (
                StandardGate("rz", (-0.3,), (1,)),
                StandardGate("cx", (), (0, 1)),
                StandardGate("h", (), (0,)),
            ),
        )
        assert equal_up_to_global_phase(
            to_unitary(concat(c, inv)), np.eye(4), 1e-12
        )
