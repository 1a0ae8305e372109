"""Reference results and output checks that do not come from the code under test.

Nothing here calls ``apply_to_tensor``, ``probabilities``, ``run``,
``to_unitary`` or qobf's gate tables. Gate matrices, the U3 rotation, the
Kronecker lift and the branch enumeration are written out again, so a defect in
the program cannot cancel out of the comparison.

Conventions match the program's documented ones: qubit i is bit i of a basis
index, gate slot 0 is the least significant bit of a gate matrix, and a counts
key renders classical bit ``num_clbits - 1`` leftmost.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from qobf.circuit import Barrier, Measure, OpaqueUnitary, Reset, StandardGate

TOL = 1e-9  # operator and distribution agreement
FALSE_ALARM = 1e-9  # allowed chance that a statistical check fails a correct job


class CheckFailed(AssertionError):
    pass


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Gate matrices, built for many gates at once

def u3s(theta, phi, lam) -> np.ndarray:
    """U3 rotations of equal-length angle arrays, shape (N, 2, 2)."""
    theta, phi, lam = (np.asarray(v, dtype=float) for v in (theta, phi, lam))
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    out = np.empty(theta.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 0, 1] = -np.exp(1j * lam) * s
    out[..., 1, 0] = np.exp(1j * phi) * s
    out[..., 1, 1] = np.exp(1j * (phi + lam)) * c
    return out


def _diags(rows) -> np.ndarray:
    rows = np.asarray(rows, dtype=complex)
    out = np.zeros(rows.shape + (rows.shape[-1],), dtype=complex)
    for i in range(rows.shape[-1]):
        out[..., i, i] = rows[..., i]
    return out


def _perm(dim: int, a: int, b: int) -> np.ndarray:
    m = np.eye(dim, dtype=complex)
    m[[a, b]] = m[[b, a]]
    return m


_R = 1 / math.sqrt(2)
_FIXED = {
    "id": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.diag([1, -1]).astype(complex),
    "h": np.array([[_R, _R], [_R, -_R]], dtype=complex),
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
    "t": np.diag([1, cmath.exp(0.25j * math.pi)]),
    "tdg": np.diag([1, cmath.exp(-0.25j * math.pi)]),
    "cx": _perm(4, 1, 3),  # control slot 0, target slot 1
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": _perm(4, 1, 2),
    "ccx": _perm(8, 3, 7),  # controls slots 0 and 1, target slot 2
}


def _param_gates(name: str, p: np.ndarray) -> np.ndarray:
    """Matrices of one parametrised gate for rows of parameters ``p``."""
    a = p[:, 0] if p.shape[1] else None
    if name == "rx":
        c, s = np.cos(a / 2), -1j * np.sin(a / 2)
        return np.stack([np.stack([c, s], -1), np.stack([s, c], -1)], -2)
    if name == "ry":
        c, s = np.cos(a / 2), np.sin(a / 2)
        return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2).astype(complex)
    if name == "rz":
        return _diags(np.stack([np.exp(-0.5j * a), np.exp(0.5j * a)], -1))
    if name in ("p", "u1"):
        return _diags(np.stack([np.ones_like(a), np.exp(1j * a)], -1))
    if name == "u2":
        return u3s(np.full_like(a, math.pi / 2), a, p[:, 1])
    if name in ("u3", "u"):
        return u3s(a, p[:, 1], p[:, 2])
    if name == "rzz":
        e, f = np.exp(-0.5j * a), np.exp(0.5j * a)
        return _diags(np.stack([e, f, f, e], -1))
    raise CheckFailed(f"reference has no matrix for gate {name!r}")


def gate_matrices(names, params) -> list[np.ndarray]:
    """Textbook matrices of standard gates (slot 0 least significant)."""
    out: list = [None] * len(names)
    groups: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        groups.setdefault(name, []).append(i)
    for name, rows in groups.items():
        if name in _FIXED:
            for i in rows:
                out[i] = _FIXED[name]
            continue
        mats = _param_gates(name, np.array([params[i] for i in rows], dtype=float))
        for i, m in zip(rows, mats):
            out[i] = m
    return out


def gate_matrix(name: str, params) -> np.ndarray:
    return gate_matrices([name], [tuple(params)])[0]


def kron_slots(mats) -> np.ndarray:
    """Kronecker product of stacked (N, 2, 2) operators, slot 0 least significant.

    ``mats`` lists one stack per slot; the result has shape (N, 2^k, 2^k).
    """
    out = np.ones((len(mats[0]), 1, 1), dtype=complex)
    for m in mats:
        d = out.shape[1]
        out = np.einsum("nab,ncd->nacbd", m, out).reshape(len(m), 2 * d, 2 * d)
    return out


# ---------------------------------------------------------------------------
# Exact distribution by dense Kronecker lift and branch enumeration

def lift(m: np.ndarray, qubits, n: int) -> np.ndarray:
    """Full-register operator of ``m`` acting on ``qubits`` (slot order).

    ``kron(I, m)`` acts on the low bits; a basis permutation carries each
    register index to the index whose low bits are the gate's slots.
    """
    k = len(qubits)
    rest = [q for q in range(n) if q not in qubits]
    order = list(qubits) + rest  # register bit order[j] becomes lifted bit j
    idx = np.arange(2 ** n)
    perm = np.zeros_like(idx)
    for j, q in enumerate(order):
        perm |= ((idx >> q) & 1) << j
    full = np.kron(np.eye(2 ** (n - k), dtype=complex), m)
    return full[np.ix_(perm, perm)]


def _bits(n: int, q: int) -> np.ndarray:
    return ((np.arange(2 ** n) >> q) & 1).astype(bool)


def distribution(instructions, num_qubits: int, num_clbits: int) -> dict[str, float]:
    """Exact outcome distribution of standard gates, measures and resets,
    enumerating every measure/reset branch."""
    n = num_qubits
    require(n <= 8, f"dense reference is limited to 8 qubits, got {n}")
    state = np.zeros(2 ** n, dtype=complex)
    state[0] = 1.0
    branches = [(state, 1.0, (0,) * num_clbits)]
    lifted: dict[int, np.ndarray] = {}
    for pos, instr in enumerate(instructions):
        if isinstance(instr, Barrier):
            continue
        if isinstance(instr, StandardGate):
            if pos not in lifted:
                lifted[pos] = lift(gate_matrix(instr.name, instr.params), instr.qubits, n)
            op = lifted[pos]
            branches = [(op @ s, w, c) for s, w, c in branches]
            continue
        one = _bits(n, instr.qubit)
        nxt = []
        for s, w, clb in branches:
            for outcome, mask in ((0, ~one), (1, one)):
                p = float(np.sum(np.abs(s[mask]) ** 2))
                if p * w <= 1e-15:
                    continue
                t = np.where(mask, s, 0) / math.sqrt(p)
                if isinstance(instr, Reset):
                    if outcome:
                        t = np.roll(t, -(1 << instr.qubit))  # move |1> to |0>
                    nxt.append((t, w * p, clb))
                else:
                    c = list(clb)
                    c[instr.clbit] = outcome
                    nxt.append((t, w * p, tuple(c)))
        branches = nxt
    out: dict[str, float] = {}
    for _, w, clb in branches:
        key = "".join(str(b) for b in reversed(clb))
        out[key] = out.get(key, 0.0) + w
    return out


# ---------------------------------------------------------------------------
# Statevector for wide circuits (tensor contraction, one gate at a time)

def statevector(gates, n: int) -> np.ndarray:
    """Final state of a list of ``gen.Gate`` from |0...0>, as a flat vector."""
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    mats = gate_matrices([g.name for g in gates], [g.params for g in gates])
    for g, m in zip(gates, mats):
        k = len(g.qubits)
        # tensor axis of qubit q is n-1-q; gate axis of slot s is k-1-s
        axes = [n - 1 - q for q in reversed(g.qubits)]
        psi = np.tensordot(m.reshape((2,) * (2 * k)), psi, axes=(list(range(k, 2 * k)), axes))
        psi = np.moveaxis(psi, list(range(k)), axes)
    return psi.reshape(-1)


# ---------------------------------------------------------------------------
# Checks on program outputs

def check_distribution(got: dict[str, float], want: dict[str, float], what: str):
    keys = set(got) | set(want)
    err = max((abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in keys), default=0.0)
    require(err <= TOL, f"{what}: distribution differs from reference by {err:.3g}")


def tvd(counts: dict[str, int], shots: int, ref: dict[str, float]) -> float:
    keys = set(counts) | set(ref)
    return 0.5 * sum(abs(counts.get(k, 0) / shots - ref.get(k, 0.0)) for k in keys)


def expected_tvd(p, shots: int) -> float:
    """Exact mean TVD between a perfect ``shots``-sample of ``p`` and ``p``.

    Each outcome count is binomial, and de Moivre's formula gives its mean
    absolute deviation: 2 (1-p)^(n-m) p^(m+1) (m+1) C(n, m+1), m = floor(n p).
    """
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)  # sums may round past 1
    p = p[p > 0]
    n = shots
    m = np.minimum(np.floor(n * p).astype(int), n - 1)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n + 1)))])
    with np.errstate(divide="ignore"):
        log_mad = (np.log(2 * (m + 1)) + (n - m) * np.log1p(-p) + (m + 1) * np.log(p)
                   + log_fact[n] - log_fact[m + 1] - log_fact[n - m - 1])
    return float(np.exp(log_mad).sum() / (2 * n))


def tvd_bound(support: int, shots: int) -> float:
    """TVD a correct sampler exceeds with probability at most FALSE_ALARM.

    From P(|p_hat - p|_1 >= e) <= 2^K exp(-n e^2 / 2) over K outcomes.
    """
    return math.sqrt((support * math.log(2) - math.log(FALSE_ALARM)) / (2 * shots))


def check_counts(counts, shots: int, num_clbits: int, ref: dict[str, float] | None,
                 what: str):
    """Sampled counts: exact total, well-formed keys, inside the reference
    support and, where the sample is large enough to tell, close to it."""
    require(counts.shots == shots, f"{what}: {counts.shots} shots reported, {shots} asked")
    require(sum(counts.counts.values()) == shots, f"{what}: counts do not sum to {shots}")
    for key, c in counts.counts.items():
        require(len(key) == num_clbits and set(key) <= {"0", "1"} and c > 0,
                f"{what}: malformed count {key!r}: {c}")
    if ref is None:
        return
    for key in counts.counts:
        require(ref.get(key, 0.0) > 1e-12, f"{what}: sampled impossible outcome {key}")
    support = sum(1 for v in ref.values() if v > 1e-12)
    bound = tvd_bound(support, shots)
    if bound < 1:
        d = tvd(counts.counts, shots, ref)
        require(d <= bound, f"{what}: TVD {d:.3f} to reference exceeds {bound:.3f}")


def gate_segments(instructions) -> int:
    """Measure/reset-free stretches that hold a gate (at least one stretch)."""
    count, has_gate = 0, False
    for instr in instructions:
        if isinstance(instr, (Measure, Reset)):
            count += has_gate
            has_gate = False
        elif isinstance(instr, (StandardGate, OpaqueUnitary)):
            has_gate = True
    return max(1, count + has_gate)


def check_obfuscation(original_gates, segments: int, obf_circuit, key, mode: str):
    """Structure of an obfuscated circuit against its key and the original gates.

    ``original_gates`` lists (name, params, qubits) per original gate and
    ``segments`` counts the original's gate segments (see ``gate_segments``);
    a single-segment circuit must come out with m + 2n gates. Every block
    must un-conjugate, through the key's U3 triples, to its original gate;
    along each wire the basis operators must telescope (each right triple
    undoes the rotation opened before it); and boundary blocks must carry the
    recorded rotation. The walk collects these conditions; the matrix algebra
    then runs on all of them at once.
    """
    blocks = {r.label: r for r in key.blocks}
    bounds = {r.label: r for r in key.boundaries}
    require(len(blocks) == len(key.blocks) and len(bounds) == len(key.boundaries),
            "duplicate key labels")
    open_: dict[int, tuple] = {}  # wire -> triple of the rotation applied last
    seen: set[int] = set()
    undo: list[tuple] = []  # (triple, triple) pairs whose rotations must cancel
    shown: list[tuple] = []  # (matrix, triple) boundary blocks
    by_arity: dict[int, list] = {}  # arity -> [(matrix, left, right, gate index)]
    gates = 0
    for pos, instr in enumerate(obf_circuit.instructions):
        where = f"instruction {pos}"
        if isinstance(instr, Barrier):
            continue
        if isinstance(instr, (Measure, Reset)):
            require(instr.qubit not in open_, f"{where}: measured inside a basis")
            continue
        gates += 1
        if isinstance(instr, StandardGate):
            require(mode == "subset", f"{where}: unprotected gate in {mode} mode")
            require(not open_.keys() & set(instr.qubits), f"{where}: gate inside a basis")
            continue
        if instr.label in bounds:
            rec = bounds[instr.label]
            require(instr.qubits == (rec.qubit,), f"{where}: boundary on wrong wire")
            shown.append((instr.matrix, _triple(rec.params)))
            if rec.role == "basis":
                require(rec.qubit not in open_, f"{where}: basis opened twice")
                open_[rec.qubit] = _triple(rec.params)
            else:
                require(rec.qubit in open_, f"{where}: inverse basis with no basis")
                undo.append((_triple(rec.params), open_.pop(rec.qubit)))
            continue
        require(instr.label in blocks, f"{where}: block {instr.label!r} not in key")
        rec = blocks[instr.label]
        require(rec.qubits == instr.qubits, f"{where}: key qubits differ")
        require(0 <= rec.gate_index < len(original_gates) and rec.gate_index not in seen,
                f"{where}: bad gate index {rec.gate_index}")
        require(tuple(original_gates[rec.gate_index][2]) == instr.qubits,
                f"{where}: block moved off its gate's wires")
        require(len(rec.left) == len(rec.right) == len(instr.qubits),
                f"{where}: key triples do not match the block's arity")
        seen.add(rec.gate_index)
        for slot, w in enumerate(instr.qubits):
            require(w in open_, f"{where}: block outside a basis")
            undo.append((_triple(rec.right[slot]), open_[w]))
            open_[w] = _triple(rec.left[slot])
        by_arity.setdefault(len(instr.qubits), []).append(
            (instr.matrix, [_triple(t) for t in rec.left],
             [_triple(t) for t in rec.right], rec.gate_index))
    require(not open_, f"wires {sorted(open_)} left inside a basis")
    m = len(original_gates)
    n = obf_circuit.num_qubits
    if mode == "subset":
        require(len(seen) == len(key.protected or ()), "protected gates not all blocked")
        want = m + 2 * sum(len(original_gates[i][2]) for i in seen)
    else:
        require(len(seen) == m, f"{len(seen)} blocks for {m} gates")
        want = m + 2 * n * segments
    require(gates == want, f"gate count {gates} != {want} for {mode} mode")

    if undo:
        a, b = (u3s(*np.array(side).T) for side in zip(*undo))
        err = float(np.max(np.abs(a @ b - np.eye(2))))
        require(err <= TOL, f"basis rotations along a wire do not telescope ({err:.3g})")
    if shown:
        mats, triples = zip(*shown)
        err = float(np.max(np.abs(np.array(mats) - u3s(*np.array(triples).T))))
        require(err <= TOL, f"boundary block differs from its key rotation ({err:.3g})")
    for k, rows in by_arity.items():
        mats, lefts, rights, idx = zip(*rows)
        lift_l = kron_slots([u3s(*np.array([t[s] for t in lefts]).T) for s in range(k)])
        lift_r = kron_slots([u3s(*np.array([t[s] for t in rights]).T) for s in range(k)])
        got = lift_l.conj().transpose(0, 2, 1) @ np.array(mats) @ \
            lift_r.conj().transpose(0, 2, 1)
        want_g = np.array(gate_matrices([original_gates[i][0] for i in idx],
                                        [original_gates[i][1] for i in idx]))
        err = np.max(np.abs(got - want_g), axis=(1, 2))
        worst = int(np.argmax(err))
        require(err[worst] <= TOL,
                f"block of gate {idx[worst]} ({original_gates[idx[worst]][0]}) does not "
                f"un-conjugate to it: error {err[worst]:.3g}")


def _triple(p) -> tuple[float, float, float]:
    return (p.theta, p.phi, p.lam)
