"""Quantum circuit obfuscation by randomized U3 basis conjugation."""

__version__ = "0.1.0"

from .circuit import (
    Barrier,
    Circuit,
    CircuitError,
    Measure,
    OpaqueUnitary,
    Reset,
    StandardGate,
    depth,
    gate_count,
    segment,
    standard_gate_matrix,
    to_unitary,
)
from .linalg import (
    U3Params,
    adjoint,
    equal_up_to_global_phase,
    kron,
    matmul,
    u3_inverse_params,
    u3_matrix,
)
from .obfuscate import (
    ObfuscatedCircuit,
    ObfuscationKey,
    ObfuscationMode,
    conjugate_gate,
    deobfuscate_block,
    obfuscate,
    recognize_gate,
    sample_basis,
)
from .qasm import ParseError, SourceVersion, detect_version, emit_qasm2, parse, zyz_to_u3
from .jsonio import read_json, write_json
from .simulate import Counts, Statevector, apply_unitary, probabilities, run
from .bench import generate
from .metrics import ComparisonReport, OverheadReport, overhead, semantic_accuracy, timed_compare, tvd
from .security import SecurityReport, audit_circuit, blackbox_guess_probability, whitebox_profile

__all__ = [name for name in dir() if not name.startswith("_")]
