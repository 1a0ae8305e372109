"""Evaluation metrics: semantic accuracy, total variation distance,
structural overhead, and timed circuit comparison.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .circuit import Barrier, Circuit, depth, gate_count, windowed_segments
from .simulate import DEFAULT_MAX_QUBITS, Counts, prepare, sample


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class ComparisonReport:
    semantic_accuracy_percent: float
    tvd: float
    original_runtime_seconds: float
    obfuscated_runtime_seconds: float
    original_runtime_min_seconds: float
    obfuscated_runtime_min_seconds: float
    original_evolve_seconds: float
    obfuscated_evolve_seconds: float
    shots: int
    runs: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class OverheadReport:
    m: int
    n: int
    windows: int
    pre_fusion_count: int
    final_count: int
    measured_count: int
    depth_original: int
    depth_obfuscated: int
    depth_delta: int
    consistent: bool

    def to_dict(self) -> dict:
        return asdict(self)


def closed_form_counts(m: int, n: int, w: int) -> tuple[int, int]:
    """Global/chained gate counts for w windows: (3m + 2nw pre-fusion, m + 2nw final)."""
    return 3 * m + 2 * n * w, m + 2 * n * w


def semantic_accuracy(original: Counts, obfuscated: Counts) -> float:
    """Overlapping probability mass as a percentage of the original total."""
    if original.shots <= 0 or not original.counts:
        raise MetricsError("original counts are empty")
    keys = set(original.counts) | set(obfuscated.counts)
    overlap = sum(
        min(original.counts.get(k, 0), obfuscated.counts.get(k, 0)) for k in keys
    )
    return 100.0 * overlap / sum(original.counts.values())


def tvd(original: Counts, obfuscated: Counts) -> float:
    """Half the L1 distance between the normalized histograms, exactly:
    sum |a_k S_b - b_k S_a| / (2 S_a S_b) in integers, rounded once."""
    sa, sb = original.shots, obfuscated.shots
    if sa <= 0 or sb <= 0:
        raise MetricsError("zero-shot counts")
    keys = set(original.counts) | set(obfuscated.counts)
    diff = sum(
        abs(original.counts.get(k, 0) * sb - obfuscated.counts.get(k, 0) * sa)
        for k in keys
    )
    return diff / (2 * sa * sb)


def overhead(
    original: Circuit,
    obfuscated: Circuit,
    mode: str | None = None,
) -> OverheadReport:
    """Structural overhead report; cross-checks the closed-form counts.

    Global and chained modes open one basis window per ``windowed_segments``
    entry; ``closed_form_counts`` gives the gate counts for w windows. A
    single window on a barrier-free circuit also adds exactly 2 to the depth.
    ``consistent`` records whether the measured structure matches these forms
    (pass ``mode`` to enable the check).
    """
    if original.num_qubits != obfuscated.num_qubits:
        raise MetricsError("circuits act on different register sizes")
    m = gate_count(original)
    n = original.num_qubits
    measured = gate_count(obfuscated)
    d_orig = depth(original)
    d_obf = depth(obfuscated)
    w = sum(windowed_segments(original))
    pre_fusion, final = closed_form_counts(m, n, w)
    consistent = True
    if mode in ("global", "chained"):
        depth_checked = w == 1 and not any(
            isinstance(i, Barrier) for i in original.instructions
        )
        consistent = measured == final and (
            not depth_checked or d_obf - d_orig == 2
        )
    return OverheadReport(
        m=m,
        n=n,
        windows=w,
        pre_fusion_count=pre_fusion,
        final_count=final,
        measured_count=measured,
        depth_original=d_orig,
        depth_obfuscated=d_obf,
        depth_delta=d_obf - d_orig,
        consistent=consistent,
    )


def timed_compare(
    original: Circuit,
    obfuscated: Circuit,
    shots: int = 1024,
    runs: int = 1,
    seed: int = 0,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> ComparisonReport:
    """Evolve each circuit once, sample it ``runs`` times; average accuracy and TVD.

    A runtime is the evolve time plus the mean (or minimum, which damps
    scheduler noise) sampling time: the simulator work of one run.
    """
    if runs < 1:
        raise MetricsError("runs must be >= 1")
    child_seeds = np.random.SeedSequence(seed).generate_state(2 * runs)
    t0 = time.perf_counter()
    p_orig = prepare(original, max_qubits)
    t1 = time.perf_counter()
    p_obf = prepare(obfuscated, max_qubits)
    evolve_orig, evolve_obf = t1 - t0, time.perf_counter() - t1
    acc, dist, t_orig, t_obf = [], [], [], []
    for i in range(runs):
        t0 = time.perf_counter()
        c_orig = sample(p_orig, shots, seed=int(child_seeds[2 * i]))
        t1 = time.perf_counter()
        c_obf = sample(p_obf, shots, seed=int(child_seeds[2 * i + 1]))
        t2 = time.perf_counter()
        t_orig.append(t1 - t0)
        t_obf.append(t2 - t1)
        acc.append(semantic_accuracy(c_orig, c_obf))
        dist.append(tvd(c_orig, c_obf))
    return ComparisonReport(
        semantic_accuracy_percent=float(np.mean(acc)),
        tvd=float(np.mean(dist)),
        original_runtime_seconds=evolve_orig + float(np.mean(t_orig)),
        obfuscated_runtime_seconds=evolve_obf + float(np.mean(t_obf)),
        original_runtime_min_seconds=evolve_orig + float(np.min(t_orig)),
        obfuscated_runtime_min_seconds=evolve_obf + float(np.min(t_obf)),
        original_evolve_seconds=evolve_orig,
        obfuscated_evolve_seconds=evolve_obf,
        shots=shots,
        runs=runs,
    )
