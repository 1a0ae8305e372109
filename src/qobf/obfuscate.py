"""Randomized U3 basis conjugation: one schedule, three window kinds.

Every mode rewrites the circuit through the same loop. A *window* opens with
a visible basis layer ``Basis_*`` (one U3 per wire of the window), turns each
gate G inside it into the opaque block L.G.R, where L holds the gate wires'
next bases and R the inverses of their current ones, and closes with the
inverse layer ``InvBasis_*`` of the last bases. The inserted operators
telescope, so the circuit operator is exactly preserved. The modes differ
only in their windows and in where the next bases come from:

  - global: a window is a gate-bearing unitary segment on every wire, opened
    with the adjoint of one sampled (or pinned) rotation U; every next basis
    is that same adjoint, so each block is the literal conjugation U-dagger.G.U;
  - chained: a window is a gate-bearing unitary segment on every wire, opened
    with fresh per-wire draws; every gate draws a fresh next basis per wire;
  - subset: a window is one protected gate on its own wires, opened with fresh
    draws; the next bases are the current ones. Unprotected gates pass
    through unchanged.

Measurements and resets end a segment; a gate-free segment (e.g. the tail
after terminal measurements) gets no window unless it is the whole circuit.
"""
from __future__ import annotations

import enum
import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuit import (
    Barrier,
    Circuit,
    OpaqueUnitary,
    gate_count,
    instruction_matrix,
    segment,
    standard_gate_matrix,
    windowed_segments,
)
from .jsonio import (
    _INT,
    _NUM,
    _STR,
    FORMAT_VERSION,
    KEY_FORMAT,
    SchemaError,
    _document,
    _value,
    _values,
)
from .linalg import (
    TWO_PI,
    U3Params,
    adjoint,
    equal_up_to_global_phase,
    is_unitary,
    kron_slots,
    u3_matrix,
)


class ObfuscationError(ValueError):
    pass


class ObfuscationMode(enum.Enum):
    GLOBAL = "global"
    CHAINED = "chained"
    SUBSET = "subset"


@dataclass(frozen=True)
class BlockRecord:
    """Raw conjugation data for one opaque block: matrix = L . G . R with
    L/R the slot-wise Kronecker lifts of the recorded triples."""

    label: str
    gate_index: int
    original: str
    qubits: tuple[int, ...]
    left: tuple[U3Params, ...]
    right: tuple[U3Params, ...]


@dataclass(frozen=True)
class BoundaryRecord:
    label: str
    segment: int
    qubit: int
    params: U3Params  # emitted matrix is u3_matrix(params)
    role: str  # "basis" | "inv_basis"


@dataclass(frozen=True)
class ObfuscationKey:
    seed: int
    mode: ObfuscationMode
    num_qubits: int
    num_gates: int
    blocks: tuple[BlockRecord, ...]
    boundaries: tuple[BoundaryRecord, ...]
    segment_params: tuple[U3Params, ...] = ()  # global mode, one per segment
    protected: tuple[int, ...] | None = None  # subset mode gate indices

    @functools.cached_property
    def _blocks_by_label(self) -> dict[str, BlockRecord]:
        # Built on first lookup; a cached property is not a field, so == ignores it.
        return {rec.label: rec for rec in self.blocks}

    def block(self, label: str) -> BlockRecord:
        rec = self._blocks_by_label.get(label)
        if rec is None:
            raise ObfuscationError(f"label {label!r} not present in key")
        return rec


@dataclass(frozen=True)
class ObfuscatedCircuit:
    circuit: Circuit
    key: ObfuscationKey


def sample_basis(rng: np.random.Generator) -> U3Params:
    """Uniform draw over theta in [0, pi], phi and lam in [0, 2pi)."""
    return U3Params(
        float(rng.uniform(0.0, math.pi)),
        float(rng.uniform(0.0, TWO_PI)),
        float(rng.uniform(0.0, TWO_PI)),
    )


def conjugate_gate(g: np.ndarray, left_bases, right_bases) -> np.ndarray:
    """L . g . R with L/R the slot-wise Kronecker products of 2x2 bases."""
    left_bases = list(left_bases)
    right_bases = list(right_bases)
    k = len(left_bases)
    if len(right_bases) != k or g.shape != (2 ** k, 2 ** k):
        raise ObfuscationError(
            f"basis count {len(left_bases)}/{len(right_bases)} does not match "
            f"gate dimension {g.shape}"
        )
    return kron_slots(left_bases) @ g @ kron_slots(right_bases)


class _Basis(NamedTuple):
    """One basis of a window with its inverse, each built once."""

    params: U3Params
    matrix: np.ndarray
    inv: U3Params
    inv_matrix: np.ndarray


def _basis(p: U3Params) -> _Basis:
    q = p.inverse()
    return _Basis(p, u3_matrix(p), q, u3_matrix(q))


def _display_name(instr) -> str:
    if isinstance(instr, OpaqueUnitary):
        return instr.label
    return instr.name.upper()


def obfuscate(
    c: Circuit,
    mode: ObfuscationMode,
    seed: int,
    subset_size: int | None = None,
    global_params: U3Params | None = None,
) -> ObfuscatedCircuit:
    """Rewrite ``c`` into a functionally equivalent obfuscated circuit.

    ``global_params`` pins the sampled basis of every segment in global mode
    (used by the fixed-key case study); the key records it like any sample.
    """
    if global_params is not None and mode is not ObfuscationMode.GLOBAL:
        raise ObfuscationError("global_params only valid in global mode")
    rng = np.random.default_rng(seed)
    m = gate_count(c)
    if mode is ObfuscationMode.SUBSET:
        if subset_size is None:
            raise ObfuscationError("subset mode requires subset_size")
        if not 0 <= subset_size <= m:
            raise ObfuscationError(f"subset_size {subset_size} out of range [0, {m}]")
        protected = tuple(sorted(int(i) for i in rng.choice(m, size=subset_size, replace=False)))
    else:
        if subset_size is not None:
            raise ObfuscationError("subset_size only valid in subset mode")
        protected = None
    hidden = set(protected or ())

    out: list = []
    blocks: list[BlockRecord] = []
    boundaries: list[BoundaryRecord] = []
    seg_params: list[U3Params] = []
    cur: dict[int, _Basis] = {}  # current basis per wire of the open window

    def open_window(tag: str, si: int, wires):
        if mode is ObfuscationMode.GLOBAL:
            p = global_params if global_params is not None else sample_basis(rng)
            seg_params.append(p)
            cur.update(dict.fromkeys(wires, _basis(p.inverse())))
        else:
            cur.update((w, _basis(sample_basis(rng))) for w in wires)
        for w, b in cur.items():
            label = f"Basis_{tag}_q{w}"
            out.append(OpaqueUnitary(label, (w,), b.matrix))
            boundaries.append(BoundaryRecord(label, si, w, b.params, "basis"))

    def close_window(tag: str, si: int):
        for w, b in cur.items():
            label = f"InvBasis_{tag}_q{w}"
            out.append(OpaqueUnitary(label, (w,), b.inv_matrix))
            boundaries.append(BoundaryRecord(label, si, w, b.inv, "inv_basis"))
        cur.clear()

    def conjugate(instr, gi: int):
        prev = [cur[w] for w in instr.qubits]
        if mode is ObfuscationMode.CHAINED:
            nxt = [_basis(sample_basis(rng)) for _ in instr.qubits]
        else:
            nxt = prev
        block = conjugate_gate(
            instruction_matrix(instr), [b.matrix for b in nxt], [b.inv_matrix for b in prev]
        )
        name = _display_name(instr)
        label = f"Obf_{name}_{gi}"
        out.append(OpaqueUnitary(label, instr.qubits, block))
        blocks.append(BlockRecord(
            label, gi, name, instr.qubits,
            tuple(b.params for b in nxt), tuple(b.inv for b in prev),
        ))
        cur.update(zip(instr.qubits, nxt))

    view = segment(c)
    # No window around a gate-free segment: its basis layers would inflate the
    # gate count without hiding anything.
    windowed = windowed_segments(c, view)
    gate_idx = 0
    for si, (start, end) in enumerate(view.segments):
        body = c.instructions[start:end]
        seg_window = protected is None and windowed[si]
        if seg_window:
            open_window(f"s{si}", si, range(c.num_qubits))
        for instr in body:
            if isinstance(instr, Barrier):
                out.append(instr)
                continue
            if seg_window:
                conjugate(instr, gate_idx)
            elif gate_idx in hidden:  # subset: a window of its own per gate
                open_window(f"g{gate_idx}", si, instr.qubits)
                conjugate(instr, gate_idx)
                close_window(f"g{gate_idx}", si)
            else:
                out.append(instr)
            gate_idx += 1
        if seg_window:
            close_window(f"s{si}", si)
        if si < len(view.boundaries):
            out.append(c.instructions[view.boundaries[si]])

    key = ObfuscationKey(
        seed=seed,
        mode=mode,
        num_qubits=c.num_qubits,
        num_gates=m,
        blocks=tuple(blocks),
        boundaries=tuple(boundaries),
        segment_params=tuple(seg_params),
        protected=protected,
    )
    obf = Circuit(c.num_qubits, c.num_clbits, tuple(out))
    return ObfuscatedCircuit(obf, key)


def deobfuscate_block(block: OpaqueUnitary, key: ObfuscationKey) -> np.ndarray:
    """Invert the recorded conjugation of one opaque block."""
    rec = key.block(block.label)
    if rec.qubits != block.qubits:
        raise ObfuscationError(f"key/block mismatch for label {block.label!r}")
    left = kron_slots([u3_matrix(t) for t in rec.left])
    right = kron_slots([u3_matrix(t) for t in rec.right])
    return adjoint(left) @ block.matrix @ adjoint(right)


# ---------------------------------------------------------------------------
# Compiler-resistance probe

_FIXED_BY_DIM = {
    2: ("id", "x", "y", "z", "h", "s", "sdg", "t", "tdg"),
    4: ("cx", "cz", "swap"),
    8: ("ccx",),
}

_PROBE_TOL = 1e-6


def recognize_gate(m: np.ndarray) -> str | None:
    """Name a standard gate matching ``m`` up to global phase, else None.

    Rotation families are matched by recovered angle; rz stands for the
    whole phase-equivalent diagonal family (rz/p/u1 differ only by a global
    phase at equal angle).
    """
    if not is_unitary(m, tol=1e-9):
        raise ObfuscationError("recognize_gate requires a unitary input")
    dim = m.shape[0]
    for name in _FIXED_BY_DIM.get(dim, ()):
        if equal_up_to_global_phase(m, standard_gate_matrix(name, ()), _PROBE_TOL):
            return name
    if dim == 2:
        off = max(abs(m[0, 1]), abs(m[1, 0]))
        if off <= _PROBE_TOL:
            theta = float(np.angle(m[1, 1]) - np.angle(m[0, 0]))
            if equal_up_to_global_phase(m, standard_gate_matrix("rz", (theta,)), _PROBE_TOL):
                return "rz"
        theta = 2.0 * math.atan2(abs(m[0, 1]), abs(m[0, 0]))
        for t in (theta, -theta):
            if equal_up_to_global_phase(m, standard_gate_matrix("rx", (t,)), _PROBE_TOL):
                return "rx"
            if equal_up_to_global_phase(m, standard_gate_matrix("ry", (t,)), _PROBE_TOL):
                return "ry"
    if dim == 4:
        off = float(np.max(np.abs(m - np.diag(np.diag(m)))))
        if off <= _PROBE_TOL:
            theta = float(np.angle(m[1, 1]) - np.angle(m[0, 0]))
            if equal_up_to_global_phase(m, standard_gate_matrix("rzz", (theta,)), _PROBE_TOL):
                return "rzz"
    return None


# ---------------------------------------------------------------------------
# Key serialization

def _params_from_json(v, what: str, at: str = "") -> U3Params:
    p = U3Params(*map(float, _values(v, _NUM, what, at)))
    if not (math.isfinite(p.theta) and math.isfinite(p.phi) and math.isfinite(p.lam)):
        raise SchemaError(f"{at}{what} angle must be finite")
    return p


def _in_register(qubits: tuple, num_qubits: int, at: str) -> tuple:
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise SchemaError(f"{at}qubit {q} outside the {num_qubits}-qubit register")
    return qubits


def key_from_dict(doc: dict) -> ObfuscationKey:
    """Read a key document; a key that no obfuscation could have written, with
    non-finite angles, a negative gate count, qubits outside the register or a
    block label already used, is a SchemaError naming the record."""
    if not isinstance(doc, dict) or doc.get("format") != KEY_FORMAT:
        raise SchemaError(f"not a {KEY_FORMAT} document")
    if doc.get("version") != FORMAT_VERSION:
        raise SchemaError(f"unsupported key version {doc.get('version')!r}")
    blocks = []
    boundaries = []
    labels = set()
    try:
        n = _value(doc["num_qubits"], _INT, "num_qubits")
        if n < 1:
            raise SchemaError("num_qubits must be positive")
        num_gates = _value(doc["num_gates"], _INT, "num_gates")
        if num_gates < 0:
            raise SchemaError("num_gates must be non-negative")
        for i, r in enumerate(doc.get("records", [])):
            at = f"key record {i}: "
            if not isinstance(r, dict):
                raise SchemaError(f"{at}not an object")
            if r.get("kind") == "block":
                label = _value(r["label"], _STR, "label", at)
                if label in labels:
                    raise SchemaError(f"{at}duplicate block label {label!r}")
                labels.add(label)
                blocks.append(BlockRecord(
                    label,
                    _value(r["gate_index"], _INT, "gate_index", at),
                    _value(r["original"], _STR, "original", at),
                    _in_register(_values(r["qubits"], _INT, "qubits", at), n, at),
                    tuple(_params_from_json(t, "left", at) for t in r["left"]),
                    tuple(_params_from_json(t, "right", at) for t in r["right"]),
                ))
            elif r.get("kind") == "boundary":
                boundaries.append(BoundaryRecord(
                    _value(r["label"], _STR, "label", at),
                    _value(r["segment"], _INT, "segment", at),
                    _in_register((_value(r["qubit"], _INT, "qubit", at),), n, at)[0],
                    _params_from_json(r["params"], "params", at),
                    _value(r["role"], _STR, "role", at),
                ))
            else:
                raise SchemaError(f"{at}unknown kind {r.get('kind')!r}")
        return ObfuscationKey(
            seed=_value(doc["seed"], _INT, "seed"),
            mode=ObfuscationMode(_value(doc["mode"], _STR, "mode")),
            num_qubits=n,
            num_gates=num_gates,
            blocks=tuple(blocks),
            boundaries=tuple(boundaries),
            segment_params=tuple(
                _params_from_json(p, "segment_params") for p in doc.get("segment_params", [])
            ),
            protected=_values(doc["protected"], _INT, "protected") if "protected" in doc else None,
        )
    except KeyError as exc:
        raise SchemaError(f"missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(str(exc)) from exc


def write_key_json(key: ObfuscationKey) -> str:
    """The key document, one block or boundary record per line."""
    head = {"format": KEY_FORMAT, "version": FORMAT_VERSION, "seed": key.seed,
            "mode": key.mode.value, "num_qubits": key.num_qubits, "num_gates": key.num_gates}
    blocks = ({"kind": "block", "label": r.label, "gate_index": r.gate_index,
               "original": r.original, "qubits": r.qubits,
               "left": [t.as_tuple() for t in r.left],
               "right": [t.as_tuple() for t in r.right]}
              for r in key.blocks)
    boundaries = ({"kind": "boundary", "label": r.label, "segment": r.segment,
                   "qubit": r.qubit, "params": r.params.as_tuple(), "role": r.role}
                  for r in key.boundaries)
    tail = {"segment_params": [p.as_tuple() for p in key.segment_params]}
    if key.protected is not None:
        tail["protected"] = key.protected
    return _document(head, "records", itertools.chain(blocks, boundaries), tail)


def read_key_json(text: str) -> ObfuscationKey:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, over the digit limit, too deep
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return key_from_dict(doc)
