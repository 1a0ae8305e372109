"""Tests for the statevector simulator and shot sampler."""
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qobf.bench import PAPER_SUITE, generate
from qobf.circuit import Circuit, Measure, Reset, StandardGate
from qobf.obfuscate import ObfuscationMode, obfuscate
from qobf.simulate import (
    Counts,
    SimulationCapError,
    probabilities,
    run,
)


def bell():
    return Circuit(
        2,
        2,
        (
            StandardGate("h", (), (0,)),
            StandardGate("cx", (), (0, 1)),
            Measure(0, 0),
            Measure(1, 1),
        ),
    )


class TestProbabilities:
    def test_bell(self):
        p = probabilities(bell())
        assert p["00"] == pytest.approx(0.5)
        assert p["11"] == pytest.approx(0.5)
        assert "01" not in p and "10" not in p

    def test_deterministic_single_outcome(self):
        c = Circuit(1, 1, (StandardGate("x", (), (0,)), Measure(0, 0)))
        assert probabilities(c) == pytest.approx({"1": 1.0})

    def test_sum_to_one(self):
        rng = np.random.default_rng(0)
        instrs = [StandardGate("h", (), (q,)) for q in range(3)]
        instrs += [StandardGate("rz", (rng.uniform(),), (q,)) for q in range(3)]
        instrs += [Measure(q, q) for q in range(3)]
        p = probabilities(Circuit(3, 3, tuple(instrs)))
        assert sum(p.values()) == pytest.approx(1.0)

    def test_bitstring_order_high_clbit_leftmost(self):
        c = Circuit(2, 2, (StandardGate("x", (), (0,)), Measure(0, 0), Measure(1, 1)))
        assert probabilities(c) == pytest.approx({"01": 1.0})

    def test_terminal_clbits_permuted_and_overwritten(self):
        # q0 -> c1 and q1 -> c0 swap the bit order; q2's clbit is overwritten
        # by q1, so q2 does not show in the key.
        c = Circuit(
            3,
            2,
            (
                StandardGate("x", (), (1,)),
                StandardGate("h", (), (2,)),
                StandardGate("ry", (0.8,), (0,)),
                Measure(0, 1),
                Measure(2, 0),
                Measure(1, 0),
            ),
        )
        p1 = np.sin(0.4) ** 2
        assert probabilities(c) == pytest.approx({"01": 1 - p1, "11": p1})
        assert set(run(c, 256, seed=0).counts) == {"01", "11"}

    def test_clbits_beyond_64_bits(self):
        c = Circuit(2, 70, (StandardGate("x", (), (0,)), Measure(1, 3), Measure(0, 69)))
        key = "1" + "0" * 69
        assert probabilities(c) == {key: 1.0}
        assert run(c, 8, seed=0).counts == {key: 8}

    def test_unmeasured_qubits_ignored(self):
        c = Circuit(2, 1, (StandardGate("h", (), (1,)), StandardGate("x", (), (0,)), Measure(0, 0)))
        assert probabilities(c) == pytest.approx({"1": 1.0})

    def test_mid_circuit_measure_branches(self):
        # Measure then act: both branches survive with the right weights.
        c = Circuit(
            1,
            2,
            (
                StandardGate("h", (), (0,)),
                Measure(0, 0),
                StandardGate("x", (), (0,)),
                Measure(0, 1),
            ),
        )
        p = probabilities(c)
        assert p == pytest.approx({"10": 0.5, "01": 0.5})

    def test_reset(self):
        c = Circuit(1, 1, (StandardGate("x", (), (0,)), Reset(0), Measure(0, 0)))
        assert probabilities(c) == pytest.approx({"0": 1.0})

    def test_reset_of_superposition(self):
        c = Circuit(
            1,
            1,
            (StandardGate("h", (), (0,)), Reset(0), StandardGate("h", (), (0,)), Measure(0, 0)),
        )
        p = probabilities(c)
        assert p == pytest.approx({"0": 0.5, "1": 0.5})

    def test_qubit_cap(self):
        with pytest.raises(SimulationCapError):
            probabilities(Circuit(15, 0, ()))


class TestRun:
    def test_counts_total(self):
        counts = run(bell(), 1024, seed=0)
        assert counts.shots == 1024
        assert sum(counts.counts.values()) == 1024
        assert set(counts.counts) <= {"00", "11"}

    def test_deterministic_circuit_single_bin(self):
        c = Circuit(1, 1, (StandardGate("x", (), (0,)), Measure(0, 0)))
        assert run(c, 512, seed=3).counts == {"1": 512}

    def test_seed_determinism(self):
        a = run(bell(), 2048, seed=7)
        b = run(bell(), 2048, seed=7)
        assert a == b

    def test_counts_pinned_on_measurement_terminal_circuits(self):
        # Every paper-suite row x {global, chained}, obfuscated with seed 3 and
        # sampled at 1024 shots with seeds 0-4. The digest was taken before the
        # simulator core was rewritten; per-seed counts of measurement-terminal
        # circuits must not change.
        rows = []
        for spec in PAPER_SUITE:
            original = generate(spec.name, **spec.params)
            for mode in (ObfuscationMode.GLOBAL, ObfuscationMode.CHAINED):
                obf = obfuscate(original, mode, seed=3)
                for seed in range(5):
                    counts = run(obf.circuit, 1024, seed=seed).counts
                    rows.append([spec.name, mode.value, seed, counts])
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert digest == "3b47e2999c2703d44e698c72f6af2cde508dfa387545472a2803d3ef0dbeeacf"

    def test_seed_sensitivity(self):
        a = run(bell(), 2048, seed=7)
        b = run(bell(), 2048, seed=8)
        assert a.counts != b.counts

    @pytest.mark.parametrize(
        "c",
        [
            # measure, then act on the collapsed qubit
            Circuit(
                1,
                2,
                (
                    StandardGate("h", (), (0,)),
                    Measure(0, 0),
                    StandardGate("x", (), (0,)),
                    Measure(0, 1),
                ),
            ),
            # reset of a superposition, then a fresh superposition
            Circuit(
                2,
                2,
                (
                    StandardGate("h", (), (0,)),
                    StandardGate("ry", (1.1,), (1,)),
                    Reset(0),
                    StandardGate("h", (), (0,)),
                    StandardGate("cx", (), (0, 1)),
                    Measure(0, 0),
                    Measure(1, 1),
                ),
            ),
            # two branching levels with uneven weights
            Circuit(
                2,
                4,
                (
                    StandardGate("ry", (0.7,), (0,)),
                    StandardGate("h", (), (1,)),
                    Measure(0, 0),
                    StandardGate("cx", (), (0, 1)),
                    Measure(1, 1),
                    StandardGate("ry", (2.0,), (0,)),
                    StandardGate("cx", (), (1, 0)),
                    Measure(0, 2),
                    Measure(1, 3),
                ),
            ),
        ],
        ids=["measure-then-x", "reset-superposition", "two-levels"],
    )
    def test_mid_circuit_counts_match_exact_probabilities(self, c):
        # Sampling splits shot counts at every mid-circuit measure or reset;
        # the frequencies must agree with the exact branch distribution.
        counts = run(c, 20000, seed=1)
        freq = {k: v / 20000 for k, v in counts.counts.items()}
        exact = probabilities(c)
        assert set(freq) <= set(exact)
        for k, p in exact.items():
            assert freq.get(k, 0.0) == pytest.approx(p, abs=0.02)

    def test_branch_cap_binds_only_in_exact_mode(self):
        # 2**13 exact branches exceed the default cap; 64 shots never make
        # more than 64 sampled branches.
        instrs = []
        for i in range(13):
            instrs += [StandardGate("h", (), (0,)), Measure(0, i)]
        c = Circuit(1, 13, (*instrs, StandardGate("x", (), (0,))))
        counts = run(c, 64, seed=0)
        assert counts.shots == 64 and sum(counts.counts.values()) == 64
        with pytest.raises(SimulationCapError):
            probabilities(c)

    def test_sampling_memory_independent_of_shots(self):
        # 10 mid-circuit measurements of fresh superpositions: up to 1024
        # sampled branches, but only one pending state per split level.
        n = 10
        instrs = []
        for q in range(n):
            instrs += [StandardGate("h", (), (q,)), Measure(q, q), StandardGate("x", (), (q,))]
        instrs += [Measure(q, n + q) for q in range(n)]
        c = Circuit(n, 2 * n, tuple(instrs))
        tracemalloc.start()
        try:
            counts = run(c, 1024, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(counts.counts.values()) == 1024
        assert peak < 4 * 2 ** 20

    @given(st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_counts_bounded_by_support(self, seed):
        counts = run(bell(), 256, seed=seed)
        assert set(counts.counts) <= {"00", "11"}
        assert sum(counts.counts.values()) == 256

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError, match="shots must be >= 1"):
            run(bell(), 0)

    def test_no_clbits_gives_empty_key(self):
        c = Circuit(1, 0, (StandardGate("h", (), (0,)),))
        counts = run(c, 16, seed=0)
        assert counts.counts == {"": 16}


ROT = (
    StandardGate("h", (), (0,)), StandardGate("ry", (0.7,), (1,)),
    StandardGate("cx", (), (0, 2)), StandardGate("rx", (1.1,), (2,)),
    StandardGate("u3", (0.3, 0.2, 0.9), (3,)), StandardGate("cx", (), (3, 1)),
)

# Terminal clbit maps that the outcome-code table must spread exactly: one
# qubit into two clbits, overwritten clbits beside a mid-circuit measure, and
# 70 clbits (object-dtype codes).
ODD_CLBIT_MAPS = {
    "two_clbits": Circuit(4, 3, ROT + (Measure(0, 0), Measure(0, 2), Measure(1, 1))),
    "overwrite": Circuit(4, 3, ROT[:3] + (Measure(2, 2), Reset(2)) + ROT[3:] + (
        Measure(0, 0), Measure(1, 0), Measure(3, 1), Measure(2, 1), Measure(3, 2))),
    "wide": Circuit(4, 70, ROT[:4] + (Measure(1, 65), Reset(1)) + ROT[4:] + (
        Measure(0, 3), Measure(1, 69), Measure(2, 40), Measure(3, 10))),
}


class TestTerminalFoldPinned:
    @pytest.mark.parametrize("name, digest", [
        ("two_clbits", "9d4922b5a623348568c386f4b17fbd2e3a067bee4049fc8fe3c71f7f5741988d"),
        ("overwrite", "80c67eb6238b2c25836da726026f0eebd50bf90d8e5daaefde2060a3b3d81449"),
        ("wide", "c740df7141b3bca3c59e015b21a1f3057337a7dc1dbdc6a8cc5542ca80b5e7ca"),
    ])
    def test_odd_clbit_maps_pinned(self, name, digest):
        """Exact probabilities and seeded counts, values and key order."""
        c = ODD_CLBIT_MAPS[name]
        text = repr(list(probabilities(c).items())) + repr(list(run(c, 1024, seed=7).counts.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestCounts:
    def test_sum_validated(self):
        with pytest.raises(ValueError):
            Counts({"0": 5}, 4)
