"""Traced mode: spans around every call into qobf's public functions.

Nothing under ``src/`` changes. ``Tracer.install`` wraps each public function
of the eight library modules (plus ``Circuit.validate``) and rebinds the
wrapper under every name, in every ``qobf.*`` namespace, that held the
original; ``apply_to_tensor`` for instance is bound in both ``qobf.linalg``
and ``qobf.simulate``. Calls made while no job runs (input preparation, output
checks) pass straight through.

A span is kept in memory as name, start, end, parent span and job id, and the
spans are written out when the run ends. Self time is a span's duration minus
the durations of its direct child spans; a layer's self time is the sum over
its module's spans. Wrapper bookkeeping falls into the caller's self time,
which is why the traced run also reports its own overhead.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("qasm", "circuit", "obfuscate", "jsonio", "linalg", "simulate", "metrics",
           "security")


def _trajectory(c) -> bool:
    """True when a gate follows a measure or reset: the per-shot sampling case."""
    circ = sys.modules["qobf.circuit"]
    collapsed = False
    for instr in c.instructions:
        if isinstance(instr, (circ.Measure, circ.Reset)):
            collapsed = True
        elif collapsed and isinstance(instr, (circ.StandardGate, circ.OpaqueUnitary)):
            return True
    return False


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_apply(counters, args, kwargs, result, seconds):
    k = len(_arg(args, kwargs, 1, "qubits"))
    counters[f"apply.calls.{k}q"] += 1
    counters[f"apply.s.{k}q"] += seconds
    counters["apply.bytes"] += 2 * _arg(args, kwargs, 2, "array").nbytes  # read + write


def _count_run(counters, args, kwargs, result, seconds):
    if _trajectory(_arg(args, kwargs, 0, "c")):
        counters["trajectory_shots"] += _arg(args, kwargs, 1, "shots")


def _add(key: str, amount):
    def hook(counters, args, kwargs, result, seconds):
        counters[key] += amount(args, kwargs, result)
    return hook


# Extra counts taken at a span, by span name.
HOOKS = {
    "linalg.apply_to_tensor": _count_apply,
    "simulate.run": _count_run,
    "qasm.parse": _add("parse.bytes", lambda a, k, r: len(_arg(a, k, 0, "text"))),
    "jsonio.write_json": _add("json.bytes", lambda a, k, r: len(r)),
    "jsonio.read_json": _add("json.bytes", lambda a, k, r: len(_arg(a, k, 0, "text"))),
    "obfuscate.obfuscate": _add("blocks", lambda a, k, r: len(r.key.blocks)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack: list[int] = []
        self.job_id = -1  # no job running: calls are not recorded
        self.counters: dict[str, float] = defaultdict(float)
        self._undo: list[tuple] = []

    def _wrap(self, fn, qualname: str):
        name_id = len(self.names)
        self.names.append(qualname)
        hook = HOOKS.get(qualname)
        perf, stack = time.perf_counter, self.stack
        names, starts, ends, parents, jobs = self.name, self.start, self.end, self.parent, self.job
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job_id < 0:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.job_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[i], ends[i] = t0, t1
            if hook is not None:
                hook(tracer.counters, args, kwargs, result, t1 - t0)
            return result

        return wrapper

    def install(self):
        originals: dict[int, tuple] = {}
        for mod_name in MODULES:
            mod = importlib.import_module(f"qobf.{mod_name}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    originals[id(obj)] = (obj, self._wrap(obj, f"{mod_name}.{attr}"))
        for name in sorted(sys.modules):
            mod = sys.modules[name]
            if name != "qobf" and not name.startswith("qobf."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj))
        circuit_cls = sys.modules["qobf.circuit"].Circuit
        validate = circuit_cls.validate
        circuit_cls.validate = self._wrap(validate, "circuit.validate")
        self._undo.append((circuit_cls, "validate", validate))

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
        }

    def save(self, path):
        np.savez_compressed(path, **self.arrays())


# Per-layer times: metric -> functions whose self times it sums. Every
# per-layer time and count is per traced job.
SELF_MS = {
    "qasm.parse.ms": ["qasm.parse"],
    "circuit.validate.ms": ["circuit.validate"],
    "obfuscate.obfuscate.ms": ["obfuscate.obfuscate"],
    "obfuscate.conjugate_gate.ms": ["obfuscate.conjugate_gate"],
    "obfuscate.key_io.ms": ["obfuscate.write_key_json", "obfuscate.key_to_dict",
                            "obfuscate.read_key_json", "obfuscate.key_from_dict"],
    "jsonio.write_json.ms": ["jsonio.write_json", "jsonio.circuit_to_dict"],
    "jsonio.read_json.ms": ["jsonio.read_json", "jsonio.circuit_from_dict"],
    "linalg.is_unitary.ms": ["linalg.is_unitary"],
    "linalg.kron_slots.ms": ["linalg.kron_slots", "linalg.kron"],
    "simulate.run.ms": ["simulate.run"],
    "simulate.probabilities.ms": ["simulate.probabilities"],
    "metrics.timed_compare.ms": ["metrics.timed_compare"],
    "metrics.tvd.ms": ["metrics.tvd"],
    "metrics.semantic_accuracy.ms": ["metrics.semantic_accuracy"],
    "metrics.overhead.ms": ["metrics.overhead"],
    "security.audit_circuit.ms": ["security.audit_circuit", "security.whitebox_profile"],
}
CALLS_PER_JOB = {
    "circuit.validate.calls_per_job": "circuit.validate",
    "circuit.instruction_matrix.calls_per_job": "circuit.instruction_matrix",
    "obfuscate.sample_basis.calls": "obfuscate.sample_basis",
    "linalg.is_unitary.calls_per_job": "linalg.is_unitary",
    "simulate.run.calls": "simulate.run",
}
ARITIES = (1, 2, 3)


def per_layer(tracer: Tracer, job_seconds, untraced_jobs_per_s: float,
              scale: float) -> dict:
    """Per-layer metrics of a traced stretch, from its spans and counters.

    Times are as measured; only the traced jobs-per-second, which is compared
    with the untraced half, is scaled by ``scale`` to the nominal speed.
    """
    a = tracer.arrays()
    jobs = max(len(job_seconds), 1)
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_s = np.bincount(a["name"], weights=dur - child, minlength=len(a["names"]))
    calls = np.bincount(a["name"], minlength=len(a["names"]))
    index = {name: i for i, name in enumerate(tracer.names)}

    def self_of(names) -> float:
        return sum(float(self_s[index[n]]) for n in names if n in index)

    def calls_of(name) -> float:
        return float(calls[index[name]]) if name in index else 0.0

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    c = tracer.counters
    out: dict[str, tuple[float, str]] = {}
    for metric, names in SELF_MS.items():
        out[metric] = (1e3 * self_of(names) / jobs, "ms")
    for metric, name in CALLS_PER_JOB.items():
        out[metric] = (calls_of(name) / jobs, "count")
    out["qasm.parse.kib_per_s"] = (rate(c["parse.bytes"] / 1024, self_of(["qasm.parse"])),
                                   "KiB/s")
    json_s = self_of(SELF_MS["jsonio.write_json.ms"] + SELF_MS["jsonio.read_json.ms"])
    out["jsonio.mib_per_s"] = (rate(c["json.bytes"] / 2 ** 20, json_s), "MiB/s")
    out["jsonio.bytes_per_job"] = (c["json.bytes"] / jobs, "B")
    out["obfuscate.blocks_per_job"] = (c["blocks"] / jobs, "count")
    out["simulate.trajectory_shots"] = (c["trajectory_shots"] / jobs, "count")
    for k in ARITIES:
        out[f"linalg.apply_to_tensor.calls.{k}q"] = (c[f"apply.calls.{k}q"] / jobs, "count")
        out[f"linalg.apply_to_tensor.us_per_call.{k}q"] = (
            1e6 * rate(c[f"apply.s.{k}q"], c[f"apply.calls.{k}q"]), "us")
    apply_s = sum(c[f"apply.s.{k}q"] for k in ARITIES)
    out["linalg.apply_to_tensor.gib_per_s"] = (rate(c["apply.bytes"] / 2 ** 30, apply_s),
                                              "GiB/s_computed")
    layer_s = defaultdict(float)
    for name, i in index.items():
        layer_s[name.split(".")[0]] += float(self_s[i])
    for mod in MODULES:
        out[f"{mod}.layer.ms"] = (1e3 * layer_s[mod] / jobs, "ms")
    top = float(dur[~has_parent].sum())
    total = float(sum(job_seconds))
    out["bench.glue.ms"] = (1e3 * (total - top) / jobs, "ms")
    out["job.ms"] = (1e3 * total / jobs, "ms")
    traced_jobs_per_s = rate(len(job_seconds), total * scale)
    out["trace.jobs_per_s_untraced"] = (untraced_jobs_per_s, "1/s")
    out["trace.jobs_per_s_traced"] = (traced_jobs_per_s, "1/s")
    out["trace.overhead_pct"] = (
        100 * (rate(untraced_jobs_per_s, traced_jobs_per_s) - 1), "%")
    out["trace.spans_per_job"] = (len(dur) / jobs, "count")
    return out
