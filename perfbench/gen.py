"""Seeded workload inputs, written independently of the code under test.

Every generator takes an integer seed and uses only ``random.Random``, so the
same seed gives the same inputs on every numpy version. The QASM writer is the
benchmark's own (not ``qobf.qasm.emit_qasm2``): parser input must not depend
on the emitter under test. Each generated file comes with the flat gate list
it must parse to, macros expanded, which the output checks compare against.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Standard gates the generators draw from: fixed one-qubit gates, then
# (name, parameter count) pairs; cx is listed twice to draw it more often.
FIXED_1Q = ("h", "x", "y", "z", "s", "sdg", "t", "tdg")
PARAM_1Q = (("rx", 1), ("ry", 1), ("rz", 1), ("p", 1), ("u1", 1), ("u2", 2), ("u3", 3))
GATES_2Q = (("cx", 0), ("cx", 0), ("cz", 0), ("swap", 0), ("rzz", 1))

# Gate macros every generated file declares; bodies use parameter arithmetic,
# and ``layer`` calls the other two, so expansion is exercised two levels deep.
MACROS = """\
gate rot3(a, b, c) t { rz(a) t; ry(b) t; rz(c) t; }
gate zzphase(th) a, b { cx a, b; rz(th) b; cx a, b; }
gate layer(th) a, b { rot3(th, th / 2, -th) a; barrier a, b; zzphase(2 * th) a, b; }
"""


@dataclass(frozen=True)
class Gate:
    """One expected instruction: a standard gate after macro expansion."""

    name: str
    params: tuple[float, ...]
    qubits: tuple[int, ...]


def _rot3(a, b, c, t):
    return [Gate("rz", (a,), (t,)), Gate("ry", (b,), (t,)), Gate("rz", (c,), (t,))]


def _zzphase(th, a, b):
    return [Gate("cx", (), (a, b)), Gate("rz", (th,), (b,)), Gate("cx", (), (a, b))]


def _layer(th, a, b):
    return _rot3(th, th / 2, -th, a) + _zzphase(2 * th, a, b)


def angle(rng: random.Random) -> tuple[str, float]:
    """A parameter as QASM expression text and the value it must evaluate to."""
    kind = rng.randrange(5)
    if kind == 0:
        k, d = rng.randint(1, 7), rng.choice((2, 3, 4, 8, 16))
        return f"{k}*pi/{d}", k * math.pi / d
    if kind == 1:
        k, d = rng.randint(1, 7), rng.choice((2, 4, 8))
        return f"-{k}*pi/{d}", -k * math.pi / d
    if kind == 2:
        d = rng.choice((2, 4, 8))
        return f"pi/{d}", math.pi / d
    if kind == 3:
        v = round(rng.uniform(-3.0, 3.0), 6)
        return repr(v), v
    v = round(rng.uniform(0.0, 1.0), 4)
    return f"pi/4 + {v!r}", math.pi / 4 + v


@dataclass(frozen=True)
class QasmFile:
    text: str
    num_qubits: int
    gates: tuple[Gate, ...]  # expected unitary instructions, in order


def qasm_file(seed: int, num_qubits: int, num_gates: int) -> QasmFile:
    """A random QASM 2.0 program of about ``num_gates`` expanded gates.

    It has comments, gate macros, ``pi`` expressions, barriers and a terminal
    broadcast measurement, so it is one gate segment.
    """
    rng = random.Random(seed)
    n = num_qubits
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"// seeded benchmark circuit: {n} qubits, about {num_gates} gates",
        MACROS.rstrip("\n"),
        f"qreg q[{n}];",
        f"creg c[{n}];",
    ]
    gates: list[Gate] = []
    while len(gates) < num_gates:
        r = rng.random()
        if r < 0.03:
            lines.append(f"// block {len(gates)}")
            continue
        if r < 0.05:
            if rng.random() < 0.5:
                lines.append("barrier q;")
            else:
                a, b = rng.sample(range(n), 2)
                lines.append(f"barrier q[{a}], q[{b}];")
            continue
        if r < 0.25:
            name, q = rng.choice(FIXED_1Q), rng.randrange(n)
            lines.append(f"{name} q[{q}];")
            gates.append(Gate(name, (), (q,)))
        elif r < 0.55:
            (name, k), q = rng.choice(PARAM_1Q), rng.randrange(n)
            exprs = [angle(rng) for _ in range(k)]
            lines.append(f"{name}({', '.join(t for t, _ in exprs)}) q[{q}];")
            gates.append(Gate(name, tuple(v for _, v in exprs), (q,)))
        elif r < 0.87:
            (name, k), (a, b) = rng.choice(GATES_2Q), rng.sample(range(n), 2)
            exprs = [angle(rng) for _ in range(k)]
            head = f"{name}({', '.join(t for t, _ in exprs)})" if k else name
            lines.append(f"{head} q[{a}],q[{b}];")
            gates.append(Gate(name, tuple(v for _, v in exprs), (a, b)))
        elif r < 0.90:
            a, b, c = rng.sample(range(n), 3)
            lines.append(f"ccx q[{a}], q[{b}], q[{c}];")
            gates.append(Gate("ccx", (), (a, b, c)))
        else:
            (ta, va), (tb, vb), (tc, vc) = angle(rng), angle(rng), angle(rng)
            a, b = rng.sample(range(n), 2)
            pick = rng.randrange(3)
            if pick == 0:
                lines.append(f"rot3({ta}, {tb}, {tc}) q[{a}];")
                gates += _rot3(va, vb, vc, a)
            elif pick == 1:
                lines.append(f"zzphase({ta}) q[{a}], q[{b}];")
                gates += _zzphase(va, a, b)
            else:
                lines.append(f"layer({ta}) q[{a}], q[{b}];")
                gates += _layer(va, a, b)
    lines.append("measure q -> c;")
    return QasmFile("\n".join(lines) + "\n", n, tuple(gates))


def sub_seed(seed: int, *path: int) -> int:
    """A seed for one input, derived from the workload seed and its position."""
    for p in path:
        seed = (seed * 1_000_003 + p) % 2 ** 62
    return seed


@dataclass(frozen=True)
class MidCircuit:
    """A circuit with mid-circuit measure+reset pairs, as plain tuples.

    ``ops`` holds ("gate", Gate), ("measure", qubit, clbit) and
    ("reset", qubit); terminal measurements of every qubit q into clbit q
    come last, mid-circuit outcomes go to clbits n, n+1, ...
    """

    num_qubits: int
    num_clbits: int
    ops: tuple


def mid_circuit(seed: int, num_qubits: int, num_gates: int, num_resets: int) -> MidCircuit:
    rng = random.Random(seed)
    n = num_qubits
    cuts = sorted(rng.sample(range(2, num_gates - 1), num_resets))
    ops: list = []
    for i in range(num_gates):
        if cuts and i == cuts[0]:
            cuts.pop(0)
            q = rng.randrange(n)
            ops += [("measure", q, n + num_resets - len(cuts) - 1), ("reset", q)]
        r = rng.random()
        if r < 0.45:
            (name, k), q = rng.choice(PARAM_1Q), rng.randrange(n)
            gate = Gate(name, tuple(rng.uniform(-math.pi, math.pi) for _ in range(k)), (q,))
        elif r < 0.6:
            gate = Gate(rng.choice(FIXED_1Q), (), (rng.randrange(n),))
        elif r < 0.95:
            (name, k), qs = rng.choice(GATES_2Q), tuple(rng.sample(range(n), 2))
            gate = Gate(name, tuple(rng.uniform(-math.pi, math.pi) for _ in range(k)), qs)
        else:
            gate = Gate("ccx", (), tuple(rng.sample(range(n), 3)))
        ops.append(("gate", gate))
    ops += [("measure", q, q) for q in range(n)]
    return MidCircuit(n, n + num_resets, tuple(ops))
