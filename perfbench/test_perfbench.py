"""Tests of the benchmark itself. Run from the checkout root:

    python3 -m pytest -q perfbench

They use tiny inputs, so they check names, units and the output checks, not
speed.
"""
from __future__ import annotations

import dataclasses
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()

import gen  # noqa: E402
import jobs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from qobf.circuit import Circuit, Measure, OpaqueUnitary, Reset, StandardGate  # noqa: E402
from qobf.obfuscate import ObfuscatedCircuit  # noqa: E402
from qobf.simulate import Counts  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == ["paper_eval", "qasm_pipeline",
                                                      "midcircuit"]
    assert set(jobs.WORKLOADS) == set(run.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    out = run.benchmark(workload, seed=3, seconds=0, trace=trace, tiny=True, probes=1)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        out["info"]["errors"]
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert out["table"]["fail_ratio"] == (0.0, "ratio")
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _tiny_loop(workload: str) -> jobs.Loop:
    return jobs.measure(jobs.passes(workload, 5, tiny=True), 0)


def test_perturbed_block_matrix_fails_the_job(monkeypatch):
    real = jobs.ob.obfuscate

    def perturbed(*args, **kwargs):
        obf = real(*args, **kwargs)
        instrs = list(obf.circuit.instructions)
        i = next(i for i, x in enumerate(instrs)
                 if isinstance(x, OpaqueUnitary) and x.label.startswith("Obf_"))
        block = instrs[i]
        kick = np.diag(np.exp(1e-6j * np.arange(len(block.matrix))))  # still unitary
        instrs[i] = OpaqueUnitary(block.label, block.qubits, kick @ block.matrix)
        circuit = dataclasses.replace(obf.circuit, instructions=tuple(instrs))
        return ObfuscatedCircuit(circuit, obf.key)

    monkeypatch.setattr(jobs.ob, "obfuscate", perturbed)
    loop = _tiny_loop("paper_eval")
    assert loop.failed == len(loop.latencies) > 0
    assert "un-conjugate" in loop.errors[0]


def test_dropped_shot_raises_fail_ratio(monkeypatch):
    real = jobs.sim.run

    def drop_one(c, shots, *args, **kwargs):
        counts = dict(real(c, shots, *args, **kwargs).counts)
        key = next(iter(counts))
        counts[key] -= 1
        return Counts({k: v for k, v in counts.items() if v}, shots - 1)

    monkeypatch.setattr(jobs.sim, "run", drop_one)
    out = run.benchmark("midcircuit", seed=5, seconds=0, trace=False, tiny=True, probes=1)
    result = out["result"]
    assert not result["correct"] and result["failed"] == result["attempted"] > 0
    assert out["table"]["fail_ratio"] == (1.0, "ratio")
    assert "shots reported" in out["info"]["errors"][0]


def test_key_triple_off_by_1e_6_fails_the_job(monkeypatch):
    real = jobs.ob.obfuscate

    def skewed(*args, **kwargs):
        obf = real(*args, **kwargs)
        block = obf.key.blocks[0]
        t = block.left[0]
        left = (dataclasses.replace(t, theta=t.theta + 1e-6),) + block.left[1:]
        key = dataclasses.replace(
            obf.key, blocks=(dataclasses.replace(block, left=left),) + obf.key.blocks[1:])
        return ObfuscatedCircuit(obf.circuit, key)

    monkeypatch.setattr(jobs.ob, "obfuscate", skewed)
    loop = _tiny_loop("qasm_pipeline")
    assert loop.failed == len(loop.latencies) > 0
    assert "telescope" in loop.errors[0] or "un-conjugate" in loop.errors[0]


def test_a_job_that_raises_counts_as_failed(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(jobs.met, "timed_compare", broken)
    loop = _tiny_loop("paper_eval")
    assert loop.failed == len(loop.latencies) > 0
    assert "boom" in loop.errors[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# The reference itself, against known answers

def test_reference_distribution_of_bell_and_reset():
    bell = [StandardGate("h", (), (0,)), StandardGate("cx", (), (0, 1)),
            Measure(0, 0), Measure(1, 1)]
    assert oracle.distribution(bell, 2, 2) == pytest.approx({"00": 0.5, "11": 0.5})
    reset = [StandardGate("x", (), (0,)), Measure(0, 0), Reset(0), Measure(0, 1)]
    assert oracle.distribution(reset, 1, 2) == pytest.approx({"01": 1.0})


def test_reference_gate_slots_follow_the_documented_convention():
    cx = oracle.lift(oracle.gate_matrix("cx", ()), (0, 1), 2)
    assert cx[3, 1] == 1 and cx[1, 1] == 0  # control qubit 0 set flips qubit 1
    ccx = oracle.lift(oracle.gate_matrix("ccx", ()), (2, 0, 1), 3)
    assert ccx[7, 5] == 1  # controls 2 and 0 set flip qubit 1


def test_reference_statevector_matches_branch_enumeration():
    rng = random.Random(4)
    f = gen.qasm_file(rng.randrange(10 ** 6), 4, 60)
    psi = oracle.statevector(f.gates, 4)
    instrs = [StandardGate(g.name, g.params, g.qubits) for g in f.gates]
    instrs += [Measure(q, q) for q in range(4)]
    dist = oracle.distribution(instrs, 4, 4)
    assert [dist.get(format(i, "04b"), 0.0) for i in range(16)] == \
        pytest.approx(abs(psi) ** 2, abs=1e-12)


def test_qasm_writer_is_seeded():
    assert gen.qasm_file(7, 8, 200) == gen.qasm_file(7, 8, 200)
    assert gen.qasm_file(7, 8, 200).text != gen.qasm_file(8, 8, 200).text


def test_percentile_interpolates_like_numpy():
    values = [random.Random(i).random() for i in range(37)]
    for p in (50, 65, 98):
        assert jobs.percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_tracer_rebinds_every_namespace_and_restores_it():
    sim, lin = sys.modules["qobf.simulate"], sys.modules["qobf.linalg"]
    original = lin.apply_to_tensor
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sim.apply_to_tensor is lin.apply_to_tensor is not original
        assert Circuit.validate.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert sim.apply_to_tensor is lin.apply_to_tensor is original
    assert not hasattr(Circuit.validate, "__wrapped__")


def test_reference_task_never_calls_the_program():
    tracer = spans.Tracer()
    tracer.install()
    try:
        speed.reference_once()
    finally:
        tracer.uninstall()
    assert len(tracer.arrays()["name"]) == 0


def test_times_are_scaled_by_the_runs_reference_speed():
    loop = jobs.Loop(latencies=[0.2, 0.4])
    loop.reference.reps, loop.reference.seconds = 10, 10 * speed.NOMINAL_S / 2
    assert loop.reference.scale == pytest.approx(2.0)  # reference ran twice as fast
    assert loop.nominal_latencies == pytest.approx([0.4, 0.8])
    loop = jobs.measure(jobs.passes("midcircuit", 5, tiny=True), 0)
    assert loop.reference.reps >= 2 * len(loop.latencies)


def test_expected_tvd_matches_a_direct_sum():
    p = np.array([0.5, 0.3, 0.15, 0.05])
    for shots in (1, 64, 257):
        k = np.arange(shots + 1)
        direct = sum(
            float(np.sum([math.comb(shots, int(i)) * q ** i * (1 - q) ** (shots - i)
                          * abs(i / shots - q) for i in k]))
            for q in p) / 2
        assert oracle.expected_tvd(p, shots) == pytest.approx(direct, rel=1e-9)
    assert oracle.expected_tvd([1 + 2e-16], 64) == 0.0  # a sum that rounds past 1
