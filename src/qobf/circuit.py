"""Platform-neutral circuit representation and structural analysis.

Conventions (fixed across the toolkit):
  - qubit i is bit i of the state/matrix index (qubit 0 least significant);
  - for a multi-qubit instruction, gate-slot 0 is the least significant bit
    of the instruction's local matrix;
  - counts bitstrings render classical bit (num_clbits-1) leftmost.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import U3Params, apply_to_tensor, is_unitary, u3_matrix


class CircuitError(ValueError):
    pass


@dataclass(frozen=True)
class StandardGate:
    name: str
    params: tuple[float, ...]
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class OpaqueUnitary:
    label: str
    qubits: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dim = 2 ** len(self.qubits)
        if self.matrix.shape != (dim, dim):
            raise CircuitError(
                f"opaque block {self.label!r}: matrix shape {self.matrix.shape} "
                f"does not match arity {len(self.qubits)}"
            )
        if not is_unitary(self.matrix, tol=1e-9):
            raise CircuitError(f"opaque block {self.label!r}: matrix is not unitary")


@dataclass(frozen=True)
class Measure:
    qubit: int
    clbit: int


@dataclass(frozen=True)
class Reset:
    qubit: int


@dataclass(frozen=True)
class Barrier:
    qubits: tuple[int, ...]


Instruction = StandardGate | OpaqueUnitary | Measure | Reset | Barrier


# name -> (parameter count, arity); arity None = any (barrier-like n/a here)
GATE_SIGNATURES: dict[str, tuple[int, int]] = {
    "id": (0, 1),
    "x": (0, 1),
    "y": (0, 1),
    "z": (0, 1),
    "h": (0, 1),
    "s": (0, 1),
    "sdg": (0, 1),
    "t": (0, 1),
    "tdg": (0, 1),
    "rx": (1, 1),
    "ry": (1, 1),
    "rz": (1, 1),
    "p": (1, 1),
    "u1": (1, 1),
    "u2": (2, 1),
    "u3": (3, 1),
    "u": (3, 1),
    "cx": (0, 2),
    "cz": (0, 2),
    "swap": (0, 2),
    "ccx": (0, 3),
    "rzz": (1, 2),
}

_SQ2 = 1.0 / math.sqrt(2.0)


def _fixed(*rows) -> np.ndarray:
    return np.array(rows, dtype=np.complex128)


# Parameter-free gates, built once and shared, hence read-only.
_FIXED_GATES: dict[str, np.ndarray] = {
    "id": np.eye(2, dtype=np.complex128),
    "x": _fixed([0, 1], [1, 0]),
    "y": _fixed([0, -1j], [1j, 0]),
    "z": _fixed([1, 0], [0, -1]),
    "h": _fixed([_SQ2, _SQ2], [_SQ2, -_SQ2]),
    "s": _fixed([1, 0], [0, 1j]),
    "sdg": _fixed([1, 0], [0, -1j]),
    "t": _fixed([1, 0], [0, cmath.exp(0.25j * math.pi)]),
    "tdg": _fixed([1, 0], [0, cmath.exp(-0.25j * math.pi)]),
    # control = slot 0: basis 1 <-> 3
    "cx": _fixed([1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]),
    "cz": np.diag([1, 1, 1, -1]).astype(np.complex128),
    "swap": _fixed([1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]),
    # controls = slots 0, 1; target = slot 2: basis 3 <-> 7
    "ccx": np.eye(8, dtype=np.complex128)[[0, 1, 2, 7, 4, 5, 6, 3]],
}
for _matrix in _FIXED_GATES.values():
    _matrix.setflags(write=False)
del _matrix


def _check_signature(name: str, num_params: int):
    sig = GATE_SIGNATURES.get(name)
    if sig is None:
        raise CircuitError(f"unknown gate {name!r}")
    if num_params != sig[0]:
        raise CircuitError(
            f"gate {name!r} expects {sig[0]} parameter(s), got {num_params}"
        )


def standard_gate_matrix(name: str, params) -> np.ndarray:
    """Textbook unitary of a supported standard gate.

    Multi-qubit gates use the slot convention above; e.g. for cx the control
    is slot 0 (least significant bit), mapping basis index 1 to 3. Gates
    without parameters return a shared read-only array.
    """
    params = tuple(float(v) for v in params)
    _check_signature(name, len(params))
    fixed = _FIXED_GATES.get(name)
    if fixed is not None:
        return fixed
    if name == "rx":
        c, s = math.cos(params[0] / 2), math.sin(params[0] / 2)
        return _fixed([c, -1j * s], [-1j * s, c])
    if name == "ry":
        c, s = math.cos(params[0] / 2), math.sin(params[0] / 2)
        return _fixed([c, -s], [s, c])
    if name == "rz":
        e = cmath.exp(0.5j * params[0])
        return _fixed([e.conjugate(), 0], [0, e])
    if name in ("p", "u1"):
        return _fixed([1, 0], [0, cmath.exp(1j * params[0])])
    if name == "u2":
        phi, lam = params
        return _SQ2 * _fixed(
            [1, -cmath.exp(1j * lam)],
            [cmath.exp(1j * phi), cmath.exp(1j * (phi + lam))],
        )
    if name in ("u3", "u"):
        return u3_matrix(U3Params(*params))
    if name == "rzz":
        e = cmath.exp(0.5j * params[0])
        return np.diag([e.conjugate(), e, e, e.conjugate()]).astype(np.complex128)
    raise CircuitError(f"unknown gate {name!r}")  # pragma: no cover


def instruction_matrix(instr: Instruction) -> np.ndarray:
    if isinstance(instr, StandardGate):
        return standard_gate_matrix(instr.name, instr.params)
    if isinstance(instr, OpaqueUnitary):
        return instr.matrix
    raise CircuitError(f"instruction {instr!r} has no unitary matrix")


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    num_clbits: int
    instructions: tuple[Instruction, ...]

    def __post_init__(self):
        if self.num_qubits < 1:
            raise CircuitError("num_qubits must be positive")
        if self.num_clbits < 0:
            raise CircuitError("num_clbits must be non-negative")
        object.__setattr__(self, "instructions", tuple(self.instructions))
        self.validate()

    def validate(self):
        """Check instruction types, index ranges, gate signatures and arity.

        Runs once, at construction, so no malformed circuit exists. Gates are
        checked against ``GATE_SIGNATURES`` and for finite parameters; no
        matrix is built.
        """
        for i, instr in enumerate(self.instructions):
            if isinstance(instr, (StandardGate, OpaqueUnitary, Barrier)):
                qubits = instr.qubits
            elif isinstance(instr, (Measure, Reset)):
                qubits = (instr.qubit,)
            else:
                raise CircuitError(f"instruction {i}: {instr!r} is not an instruction")
            if len(set(qubits)) != len(qubits):
                raise CircuitError(f"instruction {i}: repeated qubit in {qubits}")
            for q in qubits:
                if not 0 <= q < self.num_qubits:
                    raise CircuitError(f"instruction {i}: qubit {q} out of range")
            if isinstance(instr, Measure) and not 0 <= instr.clbit < self.num_clbits:
                raise CircuitError(f"instruction {i}: clbit {instr.clbit} out of range")
            if isinstance(instr, StandardGate):
                _check_signature(instr.name, len(instr.params))
                if len(instr.qubits) != GATE_SIGNATURES[instr.name][1]:
                    raise CircuitError(
                        f"instruction {i}: gate {instr.name!r} arity mismatch"
                    )
                if not all(map(math.isfinite, instr.params)):
                    raise CircuitError(
                        f"instruction {i}: gate {instr.name!r} has a non-finite parameter"
                    )


@dataclass(frozen=True)
class SegmentView:
    """Maximal unitary instruction ranges separated by Measure/Reset."""

    segments: tuple[tuple[int, int], ...]  # half-open [start, end) ranges
    boundaries: tuple[int, ...]  # indices of Measure/Reset instructions


def segment(c: Circuit) -> SegmentView:
    segments: list[tuple[int, int]] = []
    boundaries: list[int] = []
    start = 0
    for i, instr in enumerate(c.instructions):
        if isinstance(instr, (Measure, Reset)):
            segments.append((start, i))
            boundaries.append(i)
            start = i + 1
    segments.append((start, len(c.instructions)))
    return SegmentView(tuple(segments), tuple(boundaries))


def windowed_segments(c: Circuit, view: SegmentView) -> tuple[bool, ...]:
    """Per segment of ``view``: does global/chained obfuscation give it a basis window?

    A gate-bearing segment gets one; a gate-free segment (e.g. the tail after
    terminal measurements) gets one only when it is the whole circuit.
    """
    if len(view.segments) == 1:
        return (True,)
    return tuple(
        any(isinstance(i, (StandardGate, OpaqueUnitary)) for i in c.instructions[a:b])
        for a, b in view.segments
    )


def gate_count(c: Circuit) -> int:
    return sum(
        1 for instr in c.instructions if isinstance(instr, (StandardGate, OpaqueUnitary))
    )


def depth(c: Circuit) -> int:
    """Greedy wire-leveling depth; barriers synchronize without adding depth."""
    levels = [0] * c.num_qubits
    for instr in c.instructions:
        if isinstance(instr, Barrier):
            if instr.qubits:
                sync = max(levels[q] for q in instr.qubits)
                for q in instr.qubits:
                    levels[q] = sync
            continue
        if isinstance(instr, (Measure, Reset)):
            qubits = (instr.qubit,)
        else:
            qubits = instr.qubits
        lvl = 1 + max(levels[q] for q in qubits)
        for q in qubits:
            levels[q] = lvl
    return max(levels, default=0)


def to_unitary(c: Circuit, max_qubits: int = 10) -> np.ndarray:
    """Full-register operator of a measurement-free circuit.

    Brute-force oracle: each instruction is lifted to the register by identity
    padding and multiplied in time order.
    """
    if c.num_qubits > max_qubits:
        raise CircuitError(
            f"to_unitary cap exceeded: {c.num_qubits} qubits > {max_qubits}"
        )
    u = np.eye(2 ** c.num_qubits, dtype=np.complex128)
    for instr in c.instructions:
        if isinstance(instr, (Measure, Reset)):
            raise CircuitError("to_unitary requires a measurement/reset-free circuit")
        if isinstance(instr, Barrier):
            continue
        u = apply_to_tensor(instruction_matrix(instr), instr.qubits, u, c.num_qubits)
    return u

