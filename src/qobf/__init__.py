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
from .linalg import U3Params, adjoint, equal_up_to_global_phase, u3_matrix
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
from .qasm import ParseError, emit_qasm2, parse, zyz_to_u3
from .jsonio import read_json, write_json
from .simulate import Counts, prepare, probabilities, run, sample
from .bench import generate
from .metrics import ComparisonReport, OverheadReport, overhead, semantic_accuracy, timed_compare, tvd
from .security import SecurityReport, audit_circuit, blackbox_guess_probability, whitebox_profile

__all__ = [
    "Barrier", "Circuit", "CircuitError", "Measure", "OpaqueUnitary", "Reset", "StandardGate",
    "depth", "gate_count", "segment", "standard_gate_matrix", "to_unitary",
    "U3Params", "adjoint", "equal_up_to_global_phase", "u3_matrix",
    "ObfuscatedCircuit", "ObfuscationKey", "ObfuscationMode", "conjugate_gate",
    "deobfuscate_block", "obfuscate", "recognize_gate", "sample_basis",
    "ParseError", "emit_qasm2", "parse", "zyz_to_u3",
    "read_json", "write_json",
    "Counts", "prepare", "probabilities", "run", "sample",
    "generate",
    "ComparisonReport", "OverheadReport", "overhead", "semantic_accuracy", "timed_compare", "tvd",
    "SecurityReport", "audit_circuit", "blackbox_guess_probability", "whitebox_profile",
]
