"""Evaluation metrics: semantic accuracy, total variation distance,
structural overhead, and timed circuit comparison.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .circuit import Barrier, Circuit, depth, gate_count, segment, windowed_segments
from .simulate import Counts, run


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
    shots: int
    runs: int

    def to_dict(self) -> dict:
        return {
            "semantic_accuracy_percent": self.semantic_accuracy_percent,
            "tvd": self.tvd,
            "original_runtime_seconds": self.original_runtime_seconds,
            "obfuscated_runtime_seconds": self.obfuscated_runtime_seconds,
            "original_runtime_min_seconds": self.original_runtime_min_seconds,
            "obfuscated_runtime_min_seconds": self.obfuscated_runtime_min_seconds,
            "shots": self.shots,
            "runs": self.runs,
        }


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
        return {
            "m": self.m,
            "n": self.n,
            "windows": self.windows,
            "pre_fusion_count": self.pre_fusion_count,
            "final_count": self.final_count,
            "measured_count": self.measured_count,
            "depth_original": self.depth_original,
            "depth_obfuscated": self.depth_obfuscated,
            "depth_delta": self.depth_delta,
            "consistent": self.consistent,
        }


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
    """Half the L1 distance between the two count histograms.

    Unequal shot totals fall back to probability normalization (the count
    form assumes matching totals).
    """
    if original.shots <= 0 or obfuscated.shots <= 0:
        raise MetricsError("zero-shot counts")
    keys = set(original.counts) | set(obfuscated.counts)
    if original.shots == obfuscated.shots:
        diff = sum(
            abs(original.counts.get(k, 0) - obfuscated.counts.get(k, 0)) for k in keys
        )
        return diff / (2.0 * original.shots)
    diff = sum(
        abs(
            original.counts.get(k, 0) / original.shots
            - obfuscated.counts.get(k, 0) / obfuscated.shots
        )
        for k in keys
    )
    return diff / 2.0


def overhead(
    original: Circuit,
    obfuscated: Circuit,
    mode: str | None = None,
) -> OverheadReport:
    """Structural overhead report; cross-checks the closed-form counts.

    Global and chained modes add one basis layer and one inverse layer of n
    gates per window (``windowed_segments``): m + 2nw gates after fusion,
    3m + 2nw before, for w windows. A single window on a barrier-free circuit
    also adds exactly 2 to the depth. ``consistent`` records whether the
    measured structure matches these forms (pass ``mode`` to enable the check).
    """
    if original.num_qubits != obfuscated.num_qubits:
        raise MetricsError("circuits act on different register sizes")
    m = gate_count(original)
    n = original.num_qubits
    measured = gate_count(obfuscated)
    d_orig = depth(original)
    d_obf = depth(obfuscated)
    w = sum(windowed_segments(original, segment(original)))
    consistent = True
    if mode in ("global", "chained"):
        depth_checked = w == 1 and not any(
            isinstance(i, Barrier) for i in original.instructions
        )
        consistent = measured == m + 2 * n * w and (
            not depth_checked or d_obf - d_orig == 2
        )
    return OverheadReport(
        m=m,
        n=n,
        windows=w,
        pre_fusion_count=3 * m + 2 * n * w,
        final_count=m + 2 * n * w,
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
    max_qubits: int | None = None,
) -> ComparisonReport:
    """Run both circuits repeatedly; average accuracy, TVD, and simulate time.

    Timing covers simulation only (parsing/obfuscation excluded); the minimum
    across runs damps scheduler noise.
    """
    if runs < 1:
        raise MetricsError("runs must be >= 1")
    kwargs = {} if max_qubits is None else {"max_qubits": max_qubits}
    child_seeds = np.random.SeedSequence(seed).generate_state(2 * runs)
    acc, dist, t_orig, t_obf = [], [], [], []
    for i in range(runs):
        t0 = time.perf_counter()
        c_orig = run(original, shots, seed=int(child_seeds[2 * i]), **kwargs)
        t1 = time.perf_counter()
        c_obf = run(obfuscated, shots, seed=int(child_seeds[2 * i + 1]), **kwargs)
        t2 = time.perf_counter()
        t_orig.append(t1 - t0)
        t_obf.append(t2 - t1)
        acc.append(semantic_accuracy(c_orig, c_obf))
        dist.append(tvd(c_orig, c_obf))
    return ComparisonReport(
        semantic_accuracy_percent=float(np.mean(acc)),
        tvd=float(np.mean(dist)),
        original_runtime_seconds=float(np.mean(t_orig)),
        obfuscated_runtime_seconds=float(np.mean(t_obf)),
        original_runtime_min_seconds=float(np.min(t_orig)),
        obfuscated_runtime_min_seconds=float(np.min(t_obf)),
        shots=shots,
        runs=runs,
    )
