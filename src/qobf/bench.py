"""Benchmark circuit generators and the table-style evaluation run.

Measured bitstrings are rendered with classical bit (num_clbits-1) leftmost;
every generator maps qubit i to classical bit (n_measured-1-i), so rendered
strings read qubit 0 leftmost. That convention reproduces the expected QAOA
optima 01001/10110 on the 5-node MaxCut graph.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .circuit import Circuit, Measure, StandardGate, gate_count
from .jsonio import write_json
from .linalg import U3Params
from .metrics import ComparisonReport, OverheadReport, overhead, timed_compare
from .obfuscate import ObfuscatedCircuit, ObfuscationMode, obfuscate, write_key_json
from .simulate import probabilities, run

QAOA_EDGES = ((0, 1), (1, 2), (1, 3), (3, 4), (2, 4))
QAOA_GAMMA = 0.865
QAOA_BETA = 0.457
CASE_STUDY_KEY = U3Params(2.86, 2.33, 0.762)


class BenchError(ValueError):
    pass


@dataclass(frozen=True)
class BenchmarkSpec:
    name: str
    params: dict = field(default_factory=dict)
    deterministic_outcome: str | None = None
    expected_top: tuple[str, ...] | None = None


def _measure_all(instrs: list, qubits: range | list, n_clbits: int):
    """Measure qubit i into clbit (n_clbits-1-i): qubit 0 renders leftmost."""
    for i, q in enumerate(qubits):
        instrs.append(Measure(q, n_clbits - 1 - i))


def bell() -> Circuit:
    instrs: list = [StandardGate("h", (), (0,)), StandardGate("cx", (), (0, 1))]
    _measure_all(instrs, range(2), 2)
    return Circuit(2, 2, tuple(instrs))


def ghz(k: int = 3) -> Circuit:
    if k < 2:
        raise BenchError("ghz needs k >= 2")
    instrs: list = [StandardGate("h", (), (0,))]
    instrs += [StandardGate("cx", (), (i, i + 1)) for i in range(k - 1)]
    _measure_all(instrs, range(k), k)
    return Circuit(k, k, tuple(instrs))


def toffoli() -> Circuit:
    instrs: list = [
        StandardGate("x", (), (0,)),
        StandardGate("x", (), (1,)),
        StandardGate("ccx", (), (0, 1, 2)),
    ]
    _measure_all(instrs, range(3), 3)
    return Circuit(3, 3, tuple(instrs))


def bv(pattern: str = "1011") -> Circuit:
    if not pattern or set(pattern) - {"0", "1"}:
        raise BenchError(f"bad BV pattern {pattern!r}")
    n = len(pattern)
    anc = n
    instrs: list = [StandardGate("h", (), (i,)) for i in range(n)]
    instrs += [StandardGate("x", (), (anc,)), StandardGate("h", (), (anc,))]
    for i, bit in enumerate(pattern):
        if bit == "1":
            instrs.append(StandardGate("cx", (), (i, anc)))
    instrs += [StandardGate("h", (), (i,)) for i in range(n)]
    _measure_all(instrs, range(n), n)
    return Circuit(n + 1, n, tuple(instrs))


def dj(n: int = 4, kind: str = "balanced") -> Circuit:
    if kind not in ("constant", "balanced"):
        raise BenchError(f"dj kind must be constant|balanced, got {kind!r}")
    anc = n
    instrs: list = [StandardGate("h", (), (i,)) for i in range(n)]
    instrs += [StandardGate("x", (), (anc,)), StandardGate("h", (), (anc,))]
    if kind == "balanced":
        instrs.append(StandardGate("cx", (), (0, anc)))
    else:
        instrs.append(StandardGate("x", (), (anc,)))
    instrs += [StandardGate("h", (), (i,)) for i in range(n)]
    _measure_all(instrs, range(n), n)
    return Circuit(n + 1, n, tuple(instrs))


def _ccz(q0: int, q1: int, q2: int) -> list:
    return [
        StandardGate("h", (), (q2,)),
        StandardGate("ccx", (), (q0, q1, q2)),
        StandardGate("h", (), (q2,)),
    ]


def grover3(marked: str = "101") -> Circuit:
    if len(marked) != 3 or set(marked) - {"0", "1"}:
        raise BenchError(f"grover3 expects a 3-bit marked string, got {marked!r}")
    instrs: list = [StandardGate("h", (), (i,)) for i in range(3)]
    for _ in range(2):  # optimal iteration count for 8 states
        # oracle: phase-flip the marked state (marked[i] is qubit i)
        flips = [i for i, b in enumerate(marked) if b == "0"]
        instrs += [StandardGate("x", (), (i,)) for i in flips]
        instrs += _ccz(0, 1, 2)
        instrs += [StandardGate("x", (), (i,)) for i in flips]
        # diffusion
        instrs += [StandardGate("h", (), (i,)) for i in range(3)]
        instrs += [StandardGate("x", (), (i,)) for i in range(3)]
        instrs += _ccz(0, 1, 2)
        instrs += [StandardGate("x", (), (i,)) for i in range(3)]
        instrs += [StandardGate("h", (), (i,)) for i in range(3)]
    _measure_all(instrs, range(3), 3)
    return Circuit(3, 3, tuple(instrs))


def phase_kickback() -> Circuit:
    instrs: list = [
        StandardGate("h", (), (0,)),
        StandardGate("x", (), (1,)),
        StandardGate("h", (), (1,)),
        StandardGate("cx", (), (0, 1)),
        StandardGate("h", (), (0,)),
        Measure(0, 0),
    ]
    return Circuit(2, 1, tuple(instrs))


def _cp(theta: float, a: int, b: int) -> list:
    return [
        StandardGate("p", (theta / 2,), (a,)),
        StandardGate("p", (theta / 2,), (b,)),
        StandardGate("cx", (), (a, b)),
        StandardGate("p", (-theta / 2,), (b,)),
        StandardGate("cx", (), (a, b)),
    ]


def _qft_instrs(qubits: list[int], inverse: bool = False) -> list:
    k = len(qubits)
    instrs: list = []
    for j in range(k - 1, -1, -1):
        instrs.append(StandardGate("h", (), (qubits[j],)))
        for i in range(j - 1, -1, -1):
            instrs += _cp(math.pi / 2 ** (j - i), qubits[i], qubits[j])
    for i in range(k // 2):
        # bit-reversal swaps, emitted as cx triples: a bare swap commutes
        # with any same-basis conjugation and would stay recognizable
        a, b = qubits[i], qubits[k - 1 - i]
        instrs += [
            StandardGate("cx", (), (a, b)),
            StandardGate("cx", (), (b, a)),
            StandardGate("cx", (), (a, b)),
        ]
    if inverse:
        instrs = [_invert(g) for g in reversed(instrs)]
    return instrs


def _invert(g: StandardGate) -> StandardGate:
    if g.name in ("h", "x", "cx", "swap", "ccx", "z", "cz"):
        return g
    if g.name in ("p", "rx", "ry", "rz", "rzz", "u1"):
        return StandardGate(g.name, (-g.params[0],), g.qubits)
    raise BenchError(f"cannot invert gate {g.name!r}")


def qft(k: int = 4) -> Circuit:
    instrs: list = [StandardGate("x", (), (0,))]
    instrs += _qft_instrs(list(range(k)))
    _measure_all(instrs, range(k), k)
    return Circuit(k, k, tuple(instrs))


def simon(secret: str = "11") -> Circuit:
    n = len(secret)
    if not secret or set(secret) - {"0", "1"} or secret == "0" * n:
        raise BenchError(f"simon needs a nonzero secret, got {secret!r}")
    instrs: list = [StandardGate("h", (), (i,)) for i in range(n)]
    # oracle: copy x to the ancilla, then erase the pivot direction so that
    # f(x) = f(x xor secret)
    for i in range(n):
        instrs.append(StandardGate("cx", (), (i, n + i)))
    pivot = secret.index("1")
    for i, bit in enumerate(secret):
        if bit == "1":
            instrs.append(StandardGate("cx", (), (pivot, n + i)))
    instrs += [StandardGate("h", (), (i,)) for i in range(n)]
    _measure_all(instrs, range(n), n)
    return Circuit(2 * n, n, tuple(instrs))


def qaoa_maxcut(
    edges=QAOA_EDGES,
    gamma: float = QAOA_GAMMA,
    beta: float = QAOA_BETA,
) -> Circuit:
    n = max(max(e) for e in edges) + 1
    instrs: list = [StandardGate("h", (), (i,)) for i in range(n)]
    # cost layer: e^{-i gamma (1 - Z_i Z_j)/2} per edge, global phase dropped;
    # this is the convention that concentrates (0.865, 0.457) on the optimal
    # cut bitstrings
    for i, j in edges:
        instrs += [
            StandardGate("cx", (), (i, j)),
            StandardGate("rz", (-gamma,), (j,)),
            StandardGate("cx", (), (i, j)),
        ]
    instrs += [StandardGate("rx", (2 * beta,), (i,)) for i in range(n)]
    _measure_all(instrs, range(n), n)
    return Circuit(n, n, tuple(instrs))


_VQE_ANGLES = (0.42, 1.13, -0.61, 0.27, 0.94, -1.37, 0.55, 0.08)


def vqe_ansatz(k: int = 4, angles=None) -> Circuit:
    if angles is None:
        angles = _VQE_ANGLES[: 2 * k]
    if len(angles) != 2 * k:
        raise BenchError(f"vqe_ansatz expects {2 * k} angles")
    instrs: list = [StandardGate("ry", (angles[i],), (i,)) for i in range(k)]
    instrs += [StandardGate("cx", (), (i, i + 1)) for i in range(k - 1)]
    instrs += [StandardGate("ry", (angles[k + i],), (i,)) for i in range(k)]
    _measure_all(instrs, range(k), k)
    return Circuit(k, k, tuple(instrs))


def _cswap(c: int, a: int, b: int) -> list:
    return [
        StandardGate("cx", (), (b, a)),
        StandardGate("ccx", (), (c, a, b)),
        StandardGate("cx", (), (b, a)),
    ]


def shor_mod15_order() -> Circuit:
    """Compiled order finding for a=7, N=15: 3 counting + 4 work qubits.

    Representative stand-in for the Shor row; checked by equivalence, not by
    matching a reported distribution.
    """
    count = [0, 1, 2]
    work = [3, 4, 5, 6]
    instrs: list = [StandardGate("h", (), (q,)) for q in count]
    instrs.append(StandardGate("x", (), (work[0],)))
    # controlled multiply-by-7 mod 15 (control = counting bit 0)
    c = count[0]
    instrs += _cswap(c, work[2], work[3])
    instrs += _cswap(c, work[1], work[2])
    instrs += _cswap(c, work[0], work[1])
    instrs += [StandardGate("cx", (), (c, w)) for w in work]
    # controlled multiply-by-4 mod 15 (7^2 = 4): two controlled swaps
    c = count[1]
    instrs += _cswap(c, work[1], work[3])
    instrs += _cswap(c, work[0], work[2])
    # 7^4 = 1 mod 15: identity, nothing to apply for count[2]
    instrs += _qft_instrs(count, inverse=True)
    # with this endianness the counting register reads out naturally
    instrs += [Measure(q, i) for i, q in enumerate(count)]
    return Circuit(7, 3, tuple(instrs))


_GENERATORS = {
    "bell": bell,
    "ghz": ghz,
    "toffoli": toffoli,
    "bv": bv,
    "dj": dj,
    "grover3": grover3,
    "phase_kickback": phase_kickback,
    "qft": qft,
    "simon": simon,
    "qaoa_maxcut": qaoa_maxcut,
    "vqe_ansatz": vqe_ansatz,
    "shor_mod15_order": shor_mod15_order,
}


def generate(name: str, **params) -> Circuit:
    if name not in _GENERATORS:
        raise BenchError(f"unknown benchmark {name!r}")
    return _GENERATORS[name](**params)


PAPER_SUITE = (
    BenchmarkSpec("bv", {"pattern": "1011"}, deterministic_outcome="1011"),
    BenchmarkSpec("dj", {"n": 4, "kind": "balanced"}, deterministic_outcome="1000"),
    BenchmarkSpec("grover3", {"marked": "101"}, expected_top=("101",)),
    BenchmarkSpec("phase_kickback", deterministic_outcome="1"),
    BenchmarkSpec("qaoa_maxcut", expected_top=("01001", "10110")),
    BenchmarkSpec("qft", {"k": 4}),
    BenchmarkSpec("shor_mod15_order"),
    BenchmarkSpec("simon", {"secret": "11"}),
    BenchmarkSpec("toffoli", deterministic_outcome="111"),
    BenchmarkSpec("vqe_ansatz", {"k": 4}),
)


@dataclass(frozen=True)
class SuiteRow:
    name: str
    mode: str
    report: ComparisonReport
    structure: OverheadReport


def run_paper_suite(
    modes=(ObfuscationMode.GLOBAL,),
    shots: int = 1024,
    runs: int = 100,
    seed: int = 0,
    specs=PAPER_SUITE,
) -> list[SuiteRow]:
    rows: list[SuiteRow] = []
    for i, spec in enumerate(specs):
        original = generate(spec.name, **spec.params)
        for k, mode in enumerate(modes):
            row_seed = seed * 1000003 + 101 * i + k
            subset = None
            if mode is ObfuscationMode.SUBSET:
                subset = gate_count(original) // 2
            obf = obfuscate(original, mode, seed=row_seed, subset_size=subset)
            report = timed_compare(original, obf.circuit, shots, runs, seed=row_seed)
            structure = overhead(original, obf.circuit, mode=mode.value)
            rows.append(SuiteRow(spec.name, mode.value, report, structure))
    return rows


def counts_to_csv(counts: dict[str, int]) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["bitstring", "count"])
    for key in sorted(counts):
        writer.writerow([key, counts[key]])
    return out.getvalue()


@dataclass(frozen=True)
class CaseStudyResult:
    report: ComparisonReport
    obfuscated: ObfuscatedCircuit
    original_counts: dict[str, int]
    obfuscated_counts: dict[str, int]
    max_distribution_error: float


def paper_case_study(shots: int = 1024, runs: int = 100, seed: int = 0) -> CaseStudyResult:
    """Global-mode QAOA obfuscation with the fixed key (2.86, 2.33, 0.762)."""
    original = qaoa_maxcut()
    obf = obfuscate(
        original, ObfuscationMode.GLOBAL, seed=seed, global_params=CASE_STUDY_KEY
    )
    p_orig = probabilities(original)
    p_obf = probabilities(obf.circuit)
    keys = set(p_orig) | set(p_obf)
    max_err = max(abs(p_orig.get(k, 0.0) - p_obf.get(k, 0.0)) for k in keys)
    report = timed_compare(original, obf.circuit, shots, runs, seed=seed)
    c_orig = run(original, shots, seed=seed)
    c_obf = run(obf.circuit, shots, seed=seed + 1)
    return CaseStudyResult(report, obf, c_orig.counts, c_obf.counts, max_err)


def write_case_study_artifacts(result: CaseStudyResult, out_dir) -> dict[str, str]:
    """Emit obfuscated circuit JSON, key JSON, histogram CSVs, report JSON."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    artifacts = {
        "qaoa_obfuscated.json": write_json(result.obfuscated.circuit),
        "qaoa_key.json": write_key_json(result.obfuscated.key),
        "qaoa_original_counts.csv": counts_to_csv(result.original_counts),
        "qaoa_obfuscated_counts.csv": counts_to_csv(result.obfuscated_counts),
        "qaoa_report.json": json.dumps(result.report.to_dict(), indent=2) + "\n",
    }
    for name, text in artifacts.items():
        path = out / name
        path.write_text(text)
        paths[name] = str(path)
    return paths
