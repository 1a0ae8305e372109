"""Acceptance gate: one test per release criterion, at the stated tolerances.

Each criterion is a separate test so the pytest report reads as a pass/fail
line per criterion. Tolerances and budgets are frozen; do not widen them.
"""
import itertools
import math
import time

import numpy as np
import pytest
from helpers import max_abs_diff, strip_measurements

from qobf.bench import (
    CASE_STUDY_KEY,
    PAPER_SUITE,
    generate,
    paper_case_study,
    run_paper_suite,
)
from qobf.circuit import (
    Circuit,
    Measure,
    OpaqueUnitary,
    StandardGate,
    gate_count,
    to_unitary,
)
from qobf.jsonio import read_json, write_json
from qobf.linalg import U3Params, adjoint, equal_up_to_global_phase, u3_matrix
from qobf.metrics import overhead, semantic_accuracy, timed_compare, tvd
from qobf.obfuscate import ObfuscationMode, obfuscate, recognize_gate
from qobf.qasm import emit_qasm2, parse, zyz_to_u3
from qobf.security import (
    blackbox_guess_probability,
    whitebox_profile,
)
from qobf.simulate import run

ALL_MODES = (ObfuscationMode.GLOBAL, ObfuscationMode.CHAINED, ObfuscationMode.SUBSET)

GATE_POOL = (
    ("h", 0, 1), ("x", 0, 1), ("y", 0, 1), ("z", 0, 1), ("s", 0, 1),
    ("t", 0, 1), ("rx", 1, 1), ("ry", 1, 1), ("rz", 1, 1), ("u3", 3, 1),
    ("cx", 0, 2), ("cz", 0, 2), ("swap", 0, 2), ("rzz", 1, 2),
)


def _random_circuit(rng):
    num_qubits = int(rng.integers(1, 5))
    num_gates = int(rng.integers(1, 21))
    instrs = []
    for _ in range(num_gates):
        name, n_params, arity = GATE_POOL[rng.integers(len(GATE_POOL))]
        if arity > num_qubits:
            name, n_params, arity = "h", 0, 1
        qubits = tuple(int(q) for q in rng.choice(num_qubits, arity, replace=False))
        params = tuple(float(a) for a in rng.uniform(-np.pi, np.pi, n_params))
        instrs.append(StandardGate(name, params, qubits))
    return Circuit(num_qubits, 0, tuple(instrs))


def _obfuscate_any(c, mode, seed):
    if mode is ObfuscationMode.SUBSET:
        m = gate_count(c)
        return obfuscate(c, mode, seed=seed, subset_size=max(1, m // 2))
    return obfuscate(c, mode, seed=seed)


def test_criterion_01_inverse_identity():
    """10,000 random triples: U3(-t, -l, -p) is the exact adjoint; < 1 s."""
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        p = U3Params(*rng.uniform(-2 * np.pi, 2 * np.pi, 3))
        worst = max(worst, max_abs_diff(u3_matrix(p.inverse()), adjoint(u3_matrix(p))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_02_equivalence_oracle():
    """200 random circuits x 3 modes x 3 seeds preserve the operator; < 30 s."""
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    failures = 0
    for _ in range(200):
        c = _random_circuit(rng)
        u0 = to_unitary(c)
        for mode in ALL_MODES:
            for seed in (0, 1, 2):
                obf = _obfuscate_any(c, mode, seed)
                u1 = to_unitary(strip_measurements(obf.circuit))
                if not equal_up_to_global_phase(u0, u1, 1e-9):
                    failures += 1
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 30.0


@pytest.mark.parametrize("name", ["bv", "dj", "phase_kickback", "toffoli"])
def test_criterion_03_deterministic_rows(name):
    """Deterministic benchmarks: exactly 100.00 accuracy / 0.0000 TVD."""
    c = generate(name)
    base = run(c, 1024, seed=0)
    for mode in ALL_MODES:
        obf = _obfuscate_any(c, mode, seed=5)
        got = run(obf.circuit, 1024, seed=99)
        assert round(semantic_accuracy(base, got), 2) == 100.00
        assert round(tvd(base, got), 4) == 0.0000


def test_criterion_04_qaoa_case_study():
    """Fixed key (2.86, 2.33, 0.762): right peaks, accuracy/TVD bands,
    exact distributions within 1e-9."""
    assert CASE_STUDY_KEY == U3Params(2.86, 2.33, 0.762)
    result = paper_case_study(shots=1024, runs=100, seed=0)
    for counts in (result.original_counts, result.obfuscated_counts):
        top2 = sorted(counts, key=counts.get, reverse=True)[:2]
        assert set(top2) == {"01001", "10110"}
    assert result.report.semantic_accuracy_percent >= 90.0
    assert result.report.tvd <= 0.12
    assert result.max_distribution_error < 1e-9


def test_criterion_05_stochastic_rows():
    """Grover >= 95% / TVD <= 0.06; QFT and Simon >= 90%."""
    bands = {"grover3": (95.0, 0.06), "qft": (90.0, None), "simon": (90.0, None)}
    for name, (floor, tvd_cap) in bands.items():
        c = generate(name)
        obf = obfuscate(c, ObfuscationMode.GLOBAL, seed=17)
        report = timed_compare(c, obf.circuit, shots=1024, runs=100, seed=17)
        assert report.semantic_accuracy_percent >= floor, name
        if tvd_cap is not None:
            assert report.tvd <= tvd_cap, name


@pytest.mark.parametrize("mode", [ObfuscationMode.GLOBAL, ObfuscationMode.CHAINED])
@pytest.mark.parametrize("spec", PAPER_SUITE, ids=lambda s: s.name)
def test_criterion_06_overhead_formulas(spec, mode):
    """Exact integer structure: m + 2n final, 3m + 2n pre-fusion, depth +2."""
    c = generate(spec.name, **spec.params)
    obf = obfuscate(c, mode, seed=23)
    rep = overhead(c, obf.circuit, mode=mode.value)
    assert rep.measured_count == rep.m + 2 * rep.n
    assert rep.final_count == rep.m + 2 * rep.n
    assert rep.pre_fusion_count == 3 * rep.m + 2 * rep.n
    assert rep.depth_delta == 2
    assert rep.consistent


def test_criterion_07_security_formulas():
    """Whitebox == exhaustive enumeration (n <= 20); blackbox percent point;
    entropy peaks at floor(n/2) (n <= 30)."""
    for n in range(1, 21):
        for x in range(n + 1):
            rep = whitebox_profile(n, x)
            if n <= 12:  # literal enumeration where it is affordable
                total = sum(1 for _ in itertools.combinations(range(n), x))
            else:
                total = math.comb(n, x)
            assert rep.success_probability == pytest.approx(1.0 / total, rel=1e-12)
            assert rep.min_entropy_bits == pytest.approx(
                math.log2(total), rel=1e-12, abs=1e-12
            )
    p = blackbox_guess_probability(2 * math.pi / 100)
    assert abs(p - 1e-6) <= 1e-15 * 1e-6
    for n in range(2, 31):
        entropies = [whitebox_profile(n, x).min_entropy_bits for x in range(n + 1)]
        assert max(range(n + 1), key=lambda x: entropies[x]) in (n // 2, (n + 1) // 2)
        assert entropies[n // 2] == max(entropies)


def test_criterion_08_compiler_resistance():
    """100 random keys x all benchmarks: every block is unrecognizable;
    the identity key is the degenerate control."""
    circuits = [generate(s.name, **s.params) for s in PAPER_SUITE]
    for seed in range(100):
        c = circuits[seed % len(circuits)]
        for mode in ALL_MODES:
            obf = _obfuscate_any(c, mode, seed=seed)
            for instr in obf.circuit.instructions:
                if isinstance(instr, OpaqueUnitary) and instr.label.startswith("Obf_"):
                    assert recognize_gate(instr.matrix) is None
    # Degenerate control: conjugating by the identity basis leaves every
    # gate recognizable. Parameterized originals may come back under any
    # phase-equivalent name (e.g. p(pi/4) is literally t).
    allowed = {
        "p": {"rz", "z", "s", "sdg", "t", "tdg", "id"},
        "rx": {"rx", "x", "id"},
        "ry": {"ry", "y", "id"},
        "rz": {"rz", "z", "s", "sdg", "t", "tdg", "id"},
    }
    for c in circuits:
        obf = obfuscate(
            c, ObfuscationMode.GLOBAL, seed=0, global_params=U3Params(0.0, 0.0, 0.0)
        )
        for instr in obf.circuit.instructions:
            if isinstance(instr, OpaqueUnitary) and instr.label.startswith("Obf_"):
                name = obf.key.block(instr.label).original.lower()
                got = recognize_gate(instr.matrix)
                assert got in allowed.get(name, {name})


def test_criterion_09_execution_time_ratio():
    """Mean obfuscated simulate time <= 2x original across the suite."""
    rows = run_paper_suite(modes=(ObfuscationMode.GLOBAL,), shots=1024, runs=20, seed=1)
    orig = sum(r.report.original_runtime_seconds for r in rows)
    obf = sum(r.report.obfuscated_runtime_seconds for r in rows)
    assert obf <= 2.0 * orig


def test_criterion_10_round_trips():
    """QASM emit/parse fixed point; JSON write/read identity; ZYZ recovery."""
    for spec in PAPER_SUITE:
        c = generate(spec.name, **spec.params)
        text = emit_qasm2(c)
        assert emit_qasm2(parse(text)) == text
        for mode in ALL_MODES:
            obf = _obfuscate_any(c, mode, seed=3)
            blob = write_json(obf.circuit)
            assert write_json(read_json(blob)) == blob
    rng = np.random.default_rng(99)
    worst = 0.0
    for i in range(10_000):
        if i % 5 == 0:  # exercise the theta in {0, pi} neighborhoods
            theta = float(rng.choice([0.0, np.pi])) + rng.normal(scale=1e-8)
            p = U3Params(theta, *rng.uniform(0, 2 * np.pi, 2))
            m = np.exp(1j * rng.uniform(0, 2 * np.pi)) * u3_matrix(p)
        else:
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(z)
            m = q * (np.diag(r) / np.abs(np.diag(r)))
        params, phase = zyz_to_u3(m)
        worst = max(worst, max_abs_diff(np.exp(1j * phase) * u3_matrix(params), m))
    assert worst < 1e-9
