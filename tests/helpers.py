"""Oracle helpers shared by the tests; the library itself has no use for them."""
import numpy as np

from qobf.circuit import Circuit, CircuitError, Instruction, Measure, Reset, instruction_matrix
from qobf.linalg import apply_to_tensor


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def strip_measurements(c: Circuit) -> Circuit:
    """Drop Measure/Reset instructions (oracle helper for equivalence tests)."""
    kept = tuple(
        instr for instr in c.instructions if not isinstance(instr, (Measure, Reset))
    )
    return Circuit(c.num_qubits, c.num_clbits, kept)


def concat(a: Circuit, b: Circuit) -> Circuit:
    if a.num_qubits != b.num_qubits or a.num_clbits != b.num_clbits:
        raise CircuitError("concat requires matching register sizes")
    return Circuit(a.num_qubits, a.num_clbits, a.instructions + b.instructions)


def lifted_operator(instr: Instruction, num_qubits: int) -> np.ndarray:
    """Instruction operator lifted to the full register."""
    out = np.eye(2 ** num_qubits, dtype=np.complex128)
    return apply_to_tensor(instruction_matrix(instr), instr.qubits, out, num_qubits)
