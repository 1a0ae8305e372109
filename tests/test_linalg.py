"""Tests for the dense linear-algebra core."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import max_abs_diff

from qobf.linalg import (
    LinalgError,
    TWO_PI,
    U3Params,
    adjoint,
    apply_to_tensor,
    equal_up_to_global_phase,
    is_unitary,
    kron_slots,
    u3_matrix,
)

ANGLES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestU3Matrix:
    def test_identity_at_zero(self):
        assert max_abs_diff(u3_matrix(U3Params(0, 0, 0)), np.eye(2)) < 1e-15

    def test_hadamard(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        assert max_abs_diff(u3_matrix(U3Params(np.pi / 2, 0, np.pi)), h) < 1e-15

    def test_pauli_x(self):
        got = u3_matrix(U3Params(np.pi, 0, np.pi))
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert equal_up_to_global_phase(got, x, 1e-12)

    def test_explicit_entries(self):
        th, ph, lam = 0.7, 1.1, -0.4
        m = u3_matrix(U3Params(th, ph, lam))
        assert m[0, 0] == pytest.approx(np.cos(th / 2))
        assert m[0, 1] == pytest.approx(-np.exp(1j * lam) * np.sin(th / 2))
        assert m[1, 0] == pytest.approx(np.exp(1j * ph) * np.sin(th / 2))
        assert m[1, 1] == pytest.approx(np.exp(1j * (ph + lam)) * np.cos(th / 2))

    @given(ANGLES, ANGLES, ANGLES)
    @settings(max_examples=200, deadline=None)
    def test_always_unitary(self, th, ph, lam):
        assert is_unitary(u3_matrix(U3Params(th, ph, lam)), 1e-12)

    @given(ANGLES, ANGLES, ANGLES)
    @settings(max_examples=200, deadline=None)
    def test_inverse_params_are_exact_adjoint(self, th, ph, lam):
        p = U3Params(th, ph, lam)
        inv = p.inverse()
        assert inv == U3Params(-th, -lam, -ph)
        assert max_abs_diff(u3_matrix(inv), adjoint(u3_matrix(p))) < 1e-12

    def test_params_inverse_method(self):
        p = U3Params(2.86, 2.33, 0.762)
        assert p.inverse() == U3Params(-2.86, -0.762, -2.33)
        assert p.inverse().inverse() == p

    def test_as_tuple(self):
        assert U3Params(1.0, 2.0, 3.0).as_tuple() == (1.0, 2.0, 3.0)


class TestMatrixOps:
    def test_adjoint(self):
        rng = np.random.default_rng(1)
        a = random_unitary(rng, 2)
        assert max_abs_diff(adjoint(a) @ a, np.eye(2)) < 1e-12

    def test_kron_slots_order(self):
        # Slot 0 is the least significant local bit: for [A, B] the lifted
        # operator is B (x) A in numpy's kron convention.
        rng = np.random.default_rng(4)
        a, b = random_unitary(rng, 2), random_unitary(rng, 2)
        assert max_abs_diff(kron_slots([a, b]), np.kron(b, a)) == 0.0


class TestPredicates:
    def test_is_unitary_rejects_scaled(self):
        assert not is_unitary(2.0 * np.eye(2))

    def test_global_phase_equality(self):
        rng = np.random.default_rng(5)
        a = random_unitary(rng, 4)
        assert equal_up_to_global_phase(a, np.exp(0.77j) * a, 1e-12)
        assert not equal_up_to_global_phase(a, random_unitary(rng, 4), 1e-6)

    @given(st.floats(0, TWO_PI, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_global_phase_equality_any_phase(self, phase):
        rng = np.random.default_rng(6)
        a = random_unitary(rng, 2)
        assert equal_up_to_global_phase(a, np.exp(1j * phase) * a, 1e-9)


class TestApplyToTensor:
    def test_single_qubit_on_two_qubit_state(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0
        out = apply_to_tensor(x, [1], state, 2).reshape(-1)
        expect = np.zeros(4, dtype=complex)
        expect[2] = 1.0  # qubit 1 is bit 1 of the index
        assert max_abs_diff(out, expect) == 0.0

    def test_cx_control_slot0(self):
        cx = np.eye(4, dtype=complex)[[0, 3, 2, 1]]
        state = np.zeros(4, dtype=complex)
        state[1] = 1.0  # qubit 0 set
        out = apply_to_tensor(cx, [0, 1], state, 2).reshape(-1)
        assert out[3] == pytest.approx(1.0)

    def test_matches_full_kron(self):
        rng = np.random.default_rng(7)
        m = random_unitary(rng, 4)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        out = apply_to_tensor(m, [0, 2], state, 3).reshape(-1)
        # Build the lifted operator by permuting a kron embedding.
        full = np.zeros((8, 8), dtype=complex)
        for col in range(8):
            vec = np.zeros(8, dtype=complex)
            vec[col] = 1.0
            full[:, col] = apply_to_tensor(m, [0, 2], vec, 3).reshape(-1)
        assert is_unitary(full, 1e-12)
        assert max_abs_diff(out, full @ state) < 1e-12

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(1, min(3, n)).flatmap(
                    lambda k: st.permutations(range(n)).map(lambda p: tuple(p[:k]))
                ),
            )
        ),
        st.sampled_from([(), (1,), (3,), (4,)]),
        st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_reference(self, n_qubits, trailing, seed):
        n, qubits = n_qubits
        k = len(qubits)
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(2 ** k, 2 ** k)) + 1j * rng.normal(size=(2 ** k, 2 ** k))
        shape = (2 ** n,) + trailing
        array = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out = apply_to_tensor(m, qubits, array, n)
        assert out.shape == shape
        assert max_abs_diff(out, dense_lift(m, qubits, n) @ array) < 1e-12

    @pytest.mark.parametrize("qubits", [(0, 0), (3,), (-1,), (1, 3)])
    def test_rejects_invalid_qubits(self, qubits):
        m = np.eye(2 ** len(qubits), dtype=complex)
        with pytest.raises(LinalgError):
            apply_to_tensor(m, qubits, np.ones(8, dtype=complex), 3)


def dense_lift(m, qubits, n):
    """Reference lift of ``m`` on ``qubits``: P^T (I (x) m) P, from np.kron alone.

    P is the basis permutation taking register index i to the index whose low
    bits are i's bits at ``qubits`` (in slot order) and whose high bits are
    the remaining register bits in ascending order.
    """
    k = len(qubits)
    identity = np.eye(1)
    for _ in range(n - k):
        identity = np.kron(np.eye(2), identity)
    order = list(qubits) + [q for q in range(n) if q not in qubits]
    p = np.zeros((2 ** n, 2 ** n))
    for i in range(2 ** n):
        j = sum(((i >> q) & 1) << pos for pos, q in enumerate(order))
        p[j, i] = 1.0
    return p.T @ np.kron(identity, m) @ p
