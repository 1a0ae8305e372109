"""Dense complex matrix kernel: U3 operators, adjoints, Kronecker lifting.

All operators are numpy ``complex128`` arrays. Multi-qubit operators follow a
little-endian slot convention: slot 0 of an operator is the least significant
bit of its row/column index.

``apply_to_tensor`` applies a k-qubit operator to a register as one matrix
product: a transpose brings the operator's bits to the front, and its inverse
puts them back. Both permutations are computed once per (qubits, register
size) and cached, so a call on a small state costs a few microseconds.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class LinalgError(ValueError):
    pass


@dataclass(frozen=True)
class U3Params:
    """The (theta, phi, lam) triple of a single-qubit basis rotation."""

    theta: float
    phi: float
    lam: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.theta, self.phi, self.lam)

    def inverse(self) -> "U3Params":
        """Parameters of the exact adjoint: (-theta, -lam, -phi).

        The sign/order swap makes the identity phase-exact, not merely
        phase-equivalent.
        """
        return U3Params(-self.theta, -self.lam, -self.phi)


def u3_matrix(p: U3Params) -> np.ndarray:
    """2x2 unitary of the universal single-qubit rotation."""
    t2 = p.theta / 2.0
    c, s = math.cos(t2), math.sin(t2)
    return np.array(
        [
            [c, -np.exp(1j * p.lam) * s],
            [np.exp(1j * p.phi) * s, np.exp(1j * (p.phi + p.lam)) * c],
        ],
        dtype=np.complex128,
    )


def adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def kron_slots(mats) -> np.ndarray:
    """Kronecker product of per-slot operators, slot 0 least significant.

    ``kron_slots([a, b])`` acts with ``a`` on bit 0 and ``b`` on bit 1,
    i.e. equals ``np.kron(b, a)`` in textbook (big-endian-first) order.
    """
    out = np.eye(1, dtype=np.complex128)
    for m in mats:
        out = np.kron(m, out)
    return out


def is_unitary(a: np.ndarray, tol: float = 1e-9) -> bool:
    if a.shape[0] != a.shape[1]:
        return False
    if not np.all(np.isfinite(a)):
        return False
    delta = a.conj().T @ a - np.eye(a.shape[0])
    return float(np.max(np.abs(delta))) <= tol


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff a = e^{i alpha} b for some phase, within ``tol`` entry-wise.

    The phase is estimated from the largest-magnitude entry of ``b``, which is
    numerically stable against near-zero entries.
    """
    if a.shape != b.shape:
        raise LinalgError(f"dimension mismatch: {a.shape} vs {b.shape}")
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    ref = b[idx]
    if abs(ref) == 0.0:
        return float(np.max(np.abs(a))) <= tol
    phase = a[idx] / ref
    mag = abs(phase)
    if mag == 0.0:
        return False
    phase /= mag
    return float(np.max(np.abs(a - phase * b))) <= tol


@functools.lru_cache(maxsize=8192)
def _axis_perms(qubits: tuple[int, ...], num_qubits: int) -> tuple[tuple, tuple]:
    """Transpose bringing ``qubits``' axes to the front in slot order, and its inverse.

    Axes are those of the array reshaped to ``(2,) * num_qubits + (-1,)``: in
    C order the first axis is the most significant register bit, and the last
    one holds the trailing dimensions.
    """
    if len(set(qubits)) != len(qubits) or not all(0 <= q < num_qubits for q in qubits):
        raise LinalgError(f"qubits {qubits} invalid for a {num_qubits}-qubit register")
    front = [num_qubits - 1 - q for q in reversed(qubits)]
    perm = front + [a for a in range(num_qubits + 1) if a not in front]
    inverse = [0] * len(perm)
    for i, a in enumerate(perm):
        inverse[a] = i
    return tuple(perm), tuple(inverse)


def apply_to_tensor(m: np.ndarray, qubits, array: np.ndarray, num_qubits: int) -> np.ndarray:
    """Apply operator ``m`` on the given register bits of ``array``.

    ``array`` has leading dimension 2**num_qubits (state index, bit i =
    qubit i) and arbitrary trailing dimensions. ``qubits`` lists the register
    bits in slot order (slot 0 least significant of ``m``'s index).

    The array is viewed as ``(2,) * num_qubits + (-1,)``, transposed by the
    cached permutation of ``_axis_perms`` so the operator's bits lead, and
    multiplied as one ``(2**k, 2**k) @ (2**k, -1)`` product; the inverse
    permutation restores the axis order. Every arity and every trailing shape
    (state vectors, ``to_unitary``'s matrices) takes this one path.
    """
    k = len(qubits)
    if m.shape != (2 ** k, 2 ** k):
        raise LinalgError(f"operator shape {m.shape} does not match {k} qubits")
    shape = array.shape
    if shape[0] != 2 ** num_qubits:
        raise LinalgError("array leading dimension does not match register size")
    perm, inverse = _axis_perms(tuple(qubits), num_qubits)
    t = array.reshape((2,) * num_qubits + (-1,)).transpose(perm)
    t = (m @ t.reshape(2 ** k, -1)).reshape(t.shape).transpose(inverse)
    return t.reshape(shape)
