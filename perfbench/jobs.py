"""The three workloads: job inputs, timed job bodies, output checks, the loop.

Every workload is a closed loop with one client: the next job starts when the
previous one has finished and been checked. Jobs come in passes whose make-up
(circuit sizes, modes, shot counts) does not depend on the seed; the seed only
draws the circuits' contents and the program's seeds. A run measures whole
passes until the timed job time reaches the requested seconds, so every run
of a workload averages over the same mix.

The program is reached only through module attributes (``sim.run``, not a
name imported once), so the traced run's rebinding sees every call.
"""
from __future__ import annotations

import gc
import importlib
import math
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import gen
import oracle
import speed
from oracle import require

circ = importlib.import_module("qobf.circuit")
js = importlib.import_module("qobf.jsonio")
met = importlib.import_module("qobf.metrics")
ob = importlib.import_module("qobf.obfuscate")
qa = importlib.import_module("qobf.qasm")
sec = importlib.import_module("qobf.security")
sim = importlib.import_module("qobf.simulate")
suite = importlib.import_module("qobf.bench")

WORKLOADS = ("paper_eval", "qasm_pipeline", "midcircuit")

# Percentile reported as ``job_ms_tail``, fixed per workload so that runs
# compare: at least ten jobs lie beyond it in every 25 s run of the first
# benchmarked commit on a two-core x86 machine (jobs per run: paper_eval
# 540-780, midcircuit 30-50, qasm_pipeline 36-54).
TAIL_PERCENTILE = {"paper_eval": 98, "midcircuit": 65, "qasm_pipeline": 70}

PAPER_RUNS = 20
SHOTS = 1024
MODES = {m.value: m for m in ob.ObfuscationMode}


@dataclass
class Job:
    """One unit of closed-loop work. ``prepare`` and ``check`` are untimed."""

    label: str
    prepare: Callable[[], Any]
    body: Callable[[Any], Any]
    check: Callable[[Any, Any], dict]


# ---------------------------------------------------------------------------
# paper_eval: the paper's table, PAPER_SUITE x {global, chained, subset}

_paper_refs: dict[str, tuple] = {}


def _paper_ref(spec):
    """Input circuit and exact reference distribution of one suite row."""
    if spec.name not in _paper_refs:
        c = suite.generate(spec.name, **spec.params)
        ref = oracle.distribution(c.instructions, c.num_qubits, c.num_clbits)
        if spec.deterministic_outcome is not None:
            require(abs(ref.get(spec.deterministic_outcome, 0.0) - 1) <= oracle.TOL,
                    f"reference misses {spec.name}'s known outcome")
        _paper_refs[spec.name] = (c, ref)
    return _paper_refs[spec.name]


def _gate_list(c):
    return [(i.name, i.params, i.qubits) for i in c.instructions
            if isinstance(i, circ.StandardGate)]


def paper_pass(seed: int, pass_no: int, tiny: bool) -> list[Job]:
    specs = suite.PAPER_SUITE
    if tiny:  # one deterministic and one sampled row
        specs = [s for s in specs if s.name in ("bv", "grover3")]
    runs = 2 if tiny else PAPER_RUNS
    jobs = []
    for i, spec in enumerate(specs):
        for k, mode in enumerate(MODES.values()):
            s = gen.sub_seed(seed, pass_no, i, k)
            jobs.append(Job(
                f"{spec.name}/{mode.value}",
                lambda spec=spec: _paper_ref(spec),
                lambda inp, mode=mode, s=s, runs=runs: _paper_body(inp, mode, s, runs),
                lambda inp, out, spec=spec, mode=mode, s=s, runs=runs:
                    _paper_check(spec, inp, out, mode, s, runs),
            ))
    return jobs


def _paper_body(inp, mode, s, runs):
    c, _ = inp
    subset = None
    if mode is ob.ObfuscationMode.SUBSET:
        subset = circ.gate_count(c) // 2
    obf = ob.obfuscate(c, mode, seed=s, subset_size=subset)
    return obf, met.timed_compare(c, obf.circuit, SHOTS, runs, seed=s)


def _paper_check(spec, inp, out, mode, s, runs):
    c, ref = inp
    obf, rep = out
    gates = _gate_list(c)
    oracle.check_obfuscation(gates, oracle.gate_segments(c.instructions), obf.circuit,
                             obf.key, mode.value)
    if mode is ob.ObfuscationMode.SUBSET:
        require(len(obf.key.protected) == len(gates) // 2, "wrong protected subset size")
    oracle.check_distribution(sim.probabilities(obf.circuit), ref, spec.name)
    require(rep.shots == SHOTS and rep.runs == runs, "report shots/runs differ from request")
    require(0 <= rep.tvd <= 1, f"report TVD {rep.tvd} out of range")
    # with equal shot totals, overlap = shots - L1/2, so accuracy = 100 (1 - tvd)
    require(abs(rep.semantic_accuracy_percent - 100 * (1 - rep.tvd)) <= 1e-9,
            "accuracy and TVD disagree")
    support = sum(1 for v in ref.values() if v > 1e-12)
    if spec.deterministic_outcome is not None:
        require(rep.tvd == 0, f"deterministic row has TVD {rep.tvd}")
    else:
        bound = 2 * oracle.tvd_bound(support, SHOTS)
        require(rep.tvd <= bound, f"mean TVD {rep.tvd:.3f} exceeds {bound:.3f}")
    require(min(rep.original_runtime_seconds, rep.obfuscated_runtime_seconds) > 0,
            "non-positive runtime")
    counts = sim.run(obf.circuit, SHOTS, seed=s)
    oracle.check_counts(counts, SHOTS, c.num_clbits, ref, spec.name)
    return {
        "tvd": oracle.tvd(counts.counts, SHOTS, ref),
        "tvd_expected": oracle.expected_tvd(list(ref.values()), SHOTS),
        "artifact_bytes": len(js.write_json(obf.circuit)) + len(ob.write_key_json(obf.key)),
        "gates": len(gates),
    }


# ---------------------------------------------------------------------------
# midcircuit: measure+reset mid-circuit, trajectory sampling and branching

# (qubits, measure+reset pairs, shots) per circuit of a pass; each circuit
# runs in chained and in global mode, at the same shot count. Both 256-shot
# circuits have the same shape, so the latency percentiles that fall among
# them (p50 and the tail) do not straddle two job sizes. The first job, the
# warm-up, is a cheap one.
MID_CIRCUITS = ((4, 1, 64), (5, 2, 256), (3, 2, 1024), (5, 2, 256), (6, 3, 64))
MID_GATES = 26


def mid_pass(seed: int, pass_no: int, tiny: bool) -> list[Job]:
    jobs = []
    for j, (n, resets, shots) in enumerate(MID_CIRCUITS[:2] if tiny else MID_CIRCUITS):
        spec = gen.mid_circuit(gen.sub_seed(seed, pass_no, j), n,
                               8 if tiny else MID_GATES, resets)
        shots = 64 if tiny else shots
        for k, mode in enumerate(("chained", "global")):
            s = gen.sub_seed(seed, pass_no, j, k)
            jobs.append(Job(
                f"mid{n}q{resets}r/{mode}/{shots}",
                lambda spec=spec: _mid_input(spec),
                lambda c, mode=mode, shots=shots, s=s: _mid_body(c, MODES[mode], shots, s),
                lambda c, out, mode=mode, shots=shots: _mid_check(c, out, mode, shots),
            ))
    return jobs


def _mid_input(spec: gen.MidCircuit):
    instrs = []
    for op in spec.ops:
        if op[0] == "gate":
            instrs.append(circ.StandardGate(op[1].name, op[1].params, op[1].qubits))
        elif op[0] == "measure":
            instrs.append(circ.Measure(op[1], op[2]))
        else:
            instrs.append(circ.Reset(op[1]))
    return circ.Circuit(spec.num_qubits, spec.num_clbits, tuple(instrs))


def _mid_body(c, mode, shots, s):
    obf = ob.obfuscate(c, mode, seed=s)
    return (obf, sim.run(c, shots, seed=s), sim.run(obf.circuit, shots, seed=s + 1),
            sim.probabilities(obf.circuit))


def _mid_check(c, out, mode, shots):
    obf, counts_orig, counts_obf, probs = out
    ref = oracle.distribution(c.instructions, c.num_qubits, c.num_clbits)
    oracle.check_obfuscation(_gate_list(c), oracle.gate_segments(c.instructions),
                             obf.circuit, obf.key, mode)
    oracle.check_distribution(probs, ref, "obfuscated probabilities")
    oracle.check_counts(counts_orig, shots, c.num_clbits, ref, "original counts")
    oracle.check_counts(counts_obf, shots, c.num_clbits, ref, "obfuscated counts")
    return {
        "tvd": oracle.tvd(counts_obf.counts, shots, ref),
        "tvd_expected": oracle.expected_tvd(list(ref.values()), shots),
        "artifact_bytes": len(js.write_json(obf.circuit)) + len(ob.write_key_json(obf.key)),
        "gates": len(_gate_list(c)),
    }


# ---------------------------------------------------------------------------
# qasm_pipeline: parse -> obfuscate -> write -> read -> analyze -> simulate

# (qubits, gates) per job of a pass: seventeen 1k-gate files (~15 KiB) over
# every width from 8 to 14 qubits and one 16k-gate file (~230 KiB), where parse
# cost grows fastest. Fourteen of the 1k-gate files have 8-12 qubits and cost
# about the same, so p50 and the tail (p70) fall inside that group in every run.
QASM_SIZES = ((8, 1000), (11, 1000), (14, 1000), (9, 1000), (10, 1000), (12, 1000),
              (8, 1000), (11, 1000), (13, 1000), (9, 1000), (11, 16000), (10, 1000),
              (8, 1000), (12, 1000), (14, 1000), (9, 1000), (11, 1000), (10, 1000))
TINY_QASM_SIZES = ((8, 40), (9, 60))


def qasm_pass(seed: int, pass_no: int, tiny: bool) -> list[Job]:
    jobs = []
    for j, (n, m) in enumerate(TINY_QASM_SIZES if tiny else QASM_SIZES):
        mode = MODES[("global", "chained")[j % 2]]
        s = gen.sub_seed(seed, pass_no, j)
        jobs.append(Job(
            f"qasm{n}q{m}g/{mode.value}",
            lambda s=s, n=n, m=m: gen.qasm_file(s, n, m),
            lambda f, mode=mode, s=s: _qasm_body(f, mode, s),
            lambda f, out, mode=mode: _qasm_check(f, out, mode),
        ))
    return jobs


def _qasm_body(f: gen.QasmFile, mode, s):
    # The artifacts go through their text form in memory: a disk write would
    # time the machine's page cache and write-back, not the program.
    c = qa.parse(f.text)
    obf = ob.obfuscate(c, mode, seed=s)
    circuit_json, key_json = js.write_json(obf.circuit), ob.write_key_json(obf.key)
    back, back_key = js.read_json(circuit_json), ob.read_key_json(key_json)
    report = met.overhead(c, back, mode=mode.value)
    audit = sec.audit_circuit(ob.ObfuscatedCircuit(back, back_key))
    counts = sim.run(back, SHOTS, seed=s)
    return c, obf, len(circuit_json) + len(key_json), back, back_key, report, audit, counts


def _same_instruction(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, circ.OpaqueUnitary):
        return a.label == b.label and a.qubits == b.qubits and \
            a.matrix.shape == b.matrix.shape and bool((a.matrix == b.matrix).all())
    return a == b


def _qasm_check(f: gen.QasmFile, out, mode):
    c, obf, artifact_bytes, back, back_key, report, audit, counts = out
    n, m = f.num_qubits, len(f.gates)
    # parse: the writer's own expanded gate list, then one measurement per qubit
    require((c.num_qubits, c.num_clbits) == (n, n), "parsed register sizes differ")
    unitary = [i for i in c.instructions if isinstance(i, circ.StandardGate)]
    require(len(unitary) == m, f"parsed {len(unitary)} gates, wrote {m}")
    for got, want in zip(unitary, f.gates):
        require(got.name == want.name and got.qubits == want.qubits and
                len(got.params) == len(want.params) and
                all(abs(a - b) <= 1e-12 for a, b in zip(got.params, want.params)),
                f"parsed {got} where {want} was written")
    measures = [i for i in c.instructions if isinstance(i, circ.Measure)]
    require(measures == [circ.Measure(q, q) for q in range(n)], "parsed measurements differ")
    # JSON and key round trip are exact
    require(len(back.instructions) == len(obf.circuit.instructions) and
            all(map(_same_instruction, back.instructions, obf.circuit.instructions)),
            "circuit JSON round trip is not exact")
    require(back_key == obf.key, "key JSON round trip is not exact")
    gates = [(g.name, g.params, g.qubits) for g in f.gates]
    oracle.check_obfuscation(gates, 1, back, back_key, mode.value)
    require(report.consistent and (report.m, report.n) == (m, n) and
            report.measured_count == m + 2 * n, f"overhead report {report} is off")
    require(audit.parameters == {"n": m, "x": m}, f"audit parameters {audit.parameters}")
    oracle.check_counts(counts, SHOTS, n, None, "counts")
    probs = abs(oracle.statevector(f.gates, n)) ** 2
    idx = [int(k, 2) for k in counts.counts]
    freq = [v / SHOTS for v in counts.counts.values()]
    # cross-entropy score: ~F_exp for a correct sampler, ~0 for a wrong one
    f_exp = 2 ** n * float(probs @ probs) - 1
    f_hat = 2 ** n * float(probs[idx] @ freq) - 1
    require(f_exp < 0.5 or f_hat >= f_exp / 2,
            f"sample cross-entropy {f_hat:.3f}, expected about {f_exp:.3f}")
    sampled = probs[idx]
    tvd = 0.5 * (float(abs(sampled - freq).sum()) + 1 - float(sampled.sum()))
    return {"tvd": tvd, "tvd_expected": oracle.expected_tvd(probs, SHOTS),
            "artifact_bytes": artifact_bytes, "gates": m}


# ---------------------------------------------------------------------------
# The closed loop

def passes(workload: str, seed: int, tiny: bool = False):
    """Endless passes of the workload's jobs; pass -1 is the warm-up."""
    pass_no = -1
    while True:
        if workload == "paper_eval":
            yield paper_pass(seed, pass_no, tiny)
        elif workload == "midcircuit":
            yield mid_pass(seed, pass_no, tiny)
        else:
            yield qasm_pass(seed, pass_no, tiny)
        pass_no += 1


@dataclass
class Loop:
    """What one measured stretch of the closed loop saw."""

    latencies: list = field(default_factory=list)
    failed: int = 0
    figures: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    reference: speed.Speed = field(default_factory=speed.Speed)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def nominal_latencies(self) -> list:
        """Job times scaled to the nominal machine speed (see ``speed.py``)."""
        scale = self.reference.scale
        return [t * scale for t in self.latencies]


def run_job(job: Job, loop: Loop, tracer=None):
    """Time one job between two stretches of the reference task, then check it.

    A job that raises or fails its check counts as failed; the loop goes on.
    """
    inp = job.prepare()
    gc.collect()  # every job starts from the same collector state
    # the reference brackets the job: half its share before, half after
    budget = speed.SHARE / 2 * (loop.latencies[-1] if loop.latencies else 0.0)
    loop.reference.sample(budget)
    if tracer is not None:
        tracer.job_id = len(loop.latencies)
    t0 = time.perf_counter()
    try:
        try:
            out = job.body(inp)
        finally:
            loop.latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.job_id = -1
            loop.reference.sample(speed.SHARE / 2 * loop.latencies[-1])
        loop.figures.append(job.check(inp, out))
    except Exception as exc:  # a job that raises or fails its check has failed
        loop.failed += 1
        if len(loop.errors) < 5:
            loop.errors.append(f"{job.label}: {type(exc).__name__}: {exc}")


def measure(source, seconds: float, tracer=None) -> Loop:
    """Whole passes from ``source`` until the timed job time reaches ``seconds``."""
    loop = Loop()
    while loop.busy < seconds or not loop.latencies:
        for job in next(source):
            run_job(job, loop, tracer)
    return loop


def warm_up(source):
    """Run the first job of the warm-up pass; its timing and outcome are dropped.

    Then freeze what exists by now (modules, caches, the reference circuit) out
    of the collector's reach, so collections during a job walk the job's own
    objects and the ``gc.collect()`` before each job stays cheap.
    """
    run_job(next(source)[0], Loop())
    gc.collect()
    gc.freeze()


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    v = sorted(values)
    pos = (len(v) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def end_to_end(workload: str, loop: Loop) -> dict:
    """End-to-end metrics of a measured loop: name -> (value, unit).

    ``tvd_mean`` follows the entropy of the seeded circuits, so across seeds
    it spreads more than any bound allows; ``tvd_ratio`` divides the summed
    TVD by what a perfect sampler would show on the same distributions and
    shot counts, which stays near 1 for a correct program. Times are at the
    nominal machine speed.
    """
    lat = loop.nominal_latencies
    figs = loop.figures or [
        {"tvd": math.nan, "tvd_expected": math.nan, "artifact_bytes": 0, "gates": 1}]
    tail = TAIL_PERCENTILE[workload]
    return {
        "jobs_per_s": (len(lat) / sum(lat), "1/s"),
        "job_ms_p50": (1e3 * percentile(lat, 50), "ms"),
        "job_ms_tail": (1e3 * percentile(lat, tail), "ms"),
        "fail_ratio": (loop.failed / len(lat), "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "tvd_mean": (sum(f["tvd"] for f in figs) / len(figs), "ratio"),
        "tvd_ratio": (sum(f["tvd"] for f in figs) / sum(f["tvd_expected"] for f in figs),
                      "ratio"),
        "artifact_bytes_per_gate": (
            sum(f["artifact_bytes"] for f in figs) / sum(f["gates"] for f in figs), "B"),
    }
