"""Deterministic noise-free statevector simulation with shot sampling.

One walker serves both entry points. It follows the circuit's branches
depth-first from an explicit stack: each measurement or reset before the
terminal ``Measure``/``Barrier`` suffix splits a branch into its two outcomes,
and at the suffix each branch folds its joint terminal distribution into the
result. ``probabilities`` weights branches by probability (exact mode);
``run`` weights them by shot count, splitting each count binomially at every
split and drawing the terminal outcomes multinomially (sampling mode). The IR
has no classical control, so both modes see the same branch distribution. At
most one pending state per split level is alive at a time, whatever the shot
count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    Barrier,
    Circuit,
    Measure,
    OpaqueUnitary,
    Reset,
    StandardGate,
    instruction_matrix,
)
from .linalg import apply_to_tensor

DEFAULT_MAX_QUBITS = 14
DEFAULT_BRANCH_CAP = 2 ** 12

_PRUNE = 1e-15  # drop branches below this probability
_CLIP = 1e-12  # drop outcome probabilities below this before sampling


class SimulationCapError(RuntimeError):
    pass


@dataclass(frozen=True)
class Counts:
    counts: dict[str, int]
    shots: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts must sum to shots")


def _check_caps(c: Circuit, max_qubits: int):
    if c.num_qubits > max_qubits:
        raise SimulationCapError(
            f"{c.num_qubits} qubits exceed the simulator cap of {max_qubits}"
        )


def _terminal_start(instructions) -> int:
    """Index where the all-``Measure``/``Barrier`` suffix begins."""
    t = len(instructions)
    while t and isinstance(instructions[t - 1], (Measure, Barrier)):
        t -= 1
    return t


def _bitstring(bits: int, num_clbits: int) -> str:
    return format(bits, f"0{num_clbits}b") if num_clbits else ""


def _terminal_fold(measures, num_qubits: int, num_clbits: int):
    """Fold of one branch's terminal measurements into (bitstring, weight) pairs.

    The returned function takes the branch's state, its mid-circuit clbits as
    an integer, its weight and the sampler. In exact mode (``rng`` is None) the
    weight is the branch probability and the outcome weights are
    probabilities; in sampling mode it is the branch's shot count and the
    outcome weights are multinomial draws.
    """
    last = {mv.clbit: mv.qubit for mv in measures}  # a later measure overwrites
    if not last:
        return lambda state, base, weight, rng: [(_bitstring(base, num_clbits), weight)]
    # Bit i of the joint distribution's flat index is qubit kept[i]; code[j] is
    # the clbit value that index j writes. Sorted, the codes sort like the
    # bitstrings, and order maps each sorted position back to its index.
    kept = sorted(set(last.values()))
    other_axes = tuple(num_qubits - 1 - q for q in range(num_qubits) if q not in kept)
    index = np.arange(2 ** len(kept))
    code = np.zeros(len(index), dtype=np.int64 if num_clbits < 64 else object)
    for cb, q in last.items():
        code |= ((index >> kept.index(q)) & 1).astype(code.dtype) << cb
    order = np.argsort(code)
    code = code[order]
    untouched = ~sum(1 << cb for cb in last)  # clbits no terminal measure writes

    def fold(state, base, weight, rng):
        p = (np.abs(state) ** 2).reshape((2,) * num_qubits)
        joint = p.sum(axis=other_axes) if other_axes else p
        values = joint.ravel()[order] * (weight if rng is None else 1.0)
        keys = np.flatnonzero(values > (_PRUNE if rng is None else _CLIP))
        out = values[keys]
        if rng is not None:
            draws = rng.multinomial(weight, out / out.sum())
            hit = np.flatnonzero(draws)
            keys, out = keys[hit], draws[hit]
        base &= untouched
        return [
            (_bitstring(bits | base, num_clbits), w)
            for bits, w in zip(code[keys].tolist(), out.tolist())
        ]

    return fold


def _walk(c: Circuit, weight, rng=None) -> dict:
    """Branch walker shared by ``probabilities`` (exact) and ``run`` (sampling).

    ``weight`` is 1.0 in exact mode and the shot count in sampling mode, which
    ``rng`` selects. ``DEFAULT_BRANCH_CAP`` binds in exact mode only.
    """
    n = c.num_qubits
    instructions = c.instructions
    t = _terminal_start(instructions)
    fold = _terminal_fold(
        [x for x in instructions[t:] if isinstance(x, Measure)], n, c.num_clbits
    )
    matrices = [
        instruction_matrix(x) if isinstance(x, (StandardGate, OpaqueUnitary)) else None
        for x in instructions[:t]
    ]
    idx = np.arange(2 ** n)
    created = [0] * t  # exact mode: branches created per split instruction
    result: dict = {}
    state = np.zeros(2 ** n, dtype=np.complex128)
    state[0] = 1.0
    stack = [(state, weight, 0, 0)]
    while stack:
        state, weight, base, i = stack.pop()
        while i < t and not isinstance(instructions[i], (Measure, Reset)):
            if matrices[i] is not None:
                state = apply_to_tensor(matrices[i], instructions[i].qubits, state, n)
            i += 1
        if i == t:
            for key, w in fold(state, base, weight, rng):
                result[key] = result.get(key, 0) + w
            continue
        # a Measure or Reset: split the branch into its two outcomes
        instr = instructions[i]
        i += 1
        mask = ((idx >> instr.qubit) & 1).astype(bool)
        p1 = float(np.sum(np.abs(state[mask]) ** 2))
        p0 = 1.0 - p1
        if rng is None:
            w0, w1 = (w if w > _PRUNE else 0 for w in (weight * p0, weight * p1))
            created[i - 1] += bool(w0) + bool(w1)
            if created[i - 1] > DEFAULT_BRANCH_CAP:
                raise SimulationCapError(
                    f"branch count {created[i - 1]} exceeds cap {DEFAULT_BRANCH_CAP}"
                )
        else:
            w1 = int(rng.binomial(weight, min(p1, 1.0)))
            w0 = weight - w1
        measured = isinstance(instr, Measure)
        if measured:
            base &= ~(1 << instr.clbit)
        # push outcome 1 first so that outcome 0 is walked first
        if w1:
            s1 = np.zeros_like(state)
            if measured:
                s1[mask] = state[mask]
            else:  # Reset: the |1> part moves to |0>
                s1[~mask] = state[mask]
            s1 /= math.sqrt(p1)
            stack.append((s1, w1, base | (1 << instr.clbit) if measured else base, i))
        if w0:
            state[mask] = 0.0
            state /= math.sqrt(p0)
            stack.append((state, w0, base, i))
    return result


def probabilities(c: Circuit, max_qubits: int = DEFAULT_MAX_QUBITS) -> dict[str, float]:
    """Exact outcome distribution over classical bits."""
    _check_caps(c, max_qubits)
    result = _walk(c, 1.0)
    total = sum(result.values())
    if abs(total - 1.0) > 1e-10:
        raise RuntimeError(f"probabilities sum to {total}, not 1")
    return result


def run(
    c: Circuit,
    shots: int,
    seed: int = 0,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> Counts:
    """Sample measurement counts; deterministic per seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    _check_caps(c, max_qubits)
    return Counts(_walk(c, shots, np.random.default_rng(seed)), shots)
