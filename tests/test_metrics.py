"""Tests for accuracy/TVD metrics, overhead reports, and timed comparison."""
import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qobf.simulate
from qobf.bench import PAPER_SUITE, bell, generate, run_paper_suite
from qobf.circuit import Circuit, Measure, OpaqueUnitary, Reset, StandardGate, gate_count
from qobf.metrics import (
    MetricsError,
    overhead,
    semantic_accuracy,
    timed_compare,
    tvd,
)
from qobf.obfuscate import ObfuscationMode, obfuscate
from qobf.simulate import Counts


def mid_circuit():
    return Circuit(2, 2, (
        StandardGate("h", (), (0,)),
        Measure(0, 0),
        Reset(0),
        StandardGate("cx", (), (0, 1)),
        Measure(0, 0),
        Measure(1, 1),
    ))


def counts(d):
    return Counts(dict(d), sum(d.values()))


class TestWorkedExample:
    # Frozen worked example: overlap = 550 + 424 = 974 of 1024 shots,
    # |diff| = 50 + 50 over 2 * 1024.
    A = {"0": 600, "1": 424}
    B = {"0": 550, "1": 474}

    def test_accuracy(self):
        assert semantic_accuracy(counts(self.A), counts(self.B)) == pytest.approx(
            100.0 * 974 / 1024
        )

    def test_tvd(self):
        assert tvd(counts(self.A), counts(self.B)) == pytest.approx(100 / 2048)

    def test_two_decimal_renderings(self):
        assert round(semantic_accuracy(counts(self.A), counts(self.B)), 2) == 95.12
        assert round(tvd(counts(self.A), counts(self.B)), 4) == 0.0488


class TestProperties:
    def test_identical_counts(self):
        a = counts({"00": 700, "11": 324})
        assert semantic_accuracy(a, a) == 100.0
        assert tvd(a, a) == 0.0

    def test_disjoint_counts(self):
        a, b = counts({"0": 100}), counts({"1": 100})
        assert semantic_accuracy(a, b) == 0.0
        assert tvd(a, b) == 1.0

    @given(
        st.dictionaries(
            st.sampled_from(["00", "01", "10", "11"]),
            st.integers(1, 500),
            min_size=1,
        ),
        st.dictionaries(
            st.sampled_from(["00", "01", "10", "11"]),
            st.integers(1, 500),
            min_size=1,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_accuracy_is_100_minus_tvd_at_equal_shots(self, da, db):
        # Force equal totals by padding the lighter histogram.
        ta, tb = sum(da.values()), sum(db.values())
        if ta < tb:
            da = dict(da)
            da["pad"] = da.get("pad", 0) + (tb - ta)
        elif tb < ta:
            db = dict(db)
            db["pad"] = db.get("pad", 0) + (ta - tb)
        a, b = counts(da), counts(db)
        assert semantic_accuracy(a, b) == pytest.approx(100.0 * (1.0 - tvd(a, b)))

    def test_unequal_shots_normalized(self):
        a = counts({"0": 50, "1": 50})
        b = counts({"0": 100, "1": 100})
        assert tvd(a, b) == 0.0

    def test_unequal_shots_exact(self):
        a = counts({"00": 3, "01": 7, "11": 1})
        b = counts({"00": 5, "10": 2, "11": 6})
        exact = sum(
            abs(Fraction(a.counts.get(k, 0), a.shots) - Fraction(b.counts.get(k, 0), b.shots))
            for k in ("00", "01", "10", "11")
        ) / 2
        assert tvd(a, b) == float(exact) == 7 / 11  # the float form read 0.6363636363636365

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            semantic_accuracy(Counts({}, 0), counts({"0": 1}))
        with pytest.raises(MetricsError):
            tvd(Counts({}, 0), counts({"0": 1}))


class TestOverhead:
    def test_global_mode_report(self):
        c = bell()
        obf = obfuscate(c, ObfuscationMode.GLOBAL, seed=0)
        rep = overhead(c, obf.circuit, mode="global")
        assert (rep.m, rep.n) == (2, 2)
        assert rep.final_count == rep.m + 2 * rep.n == rep.measured_count
        assert rep.pre_fusion_count == 3 * rep.m + 2 * rep.n
        assert rep.depth_delta == 2
        assert rep.consistent

    @pytest.mark.parametrize("mode", [ObfuscationMode.GLOBAL, ObfuscationMode.CHAINED])
    def test_mid_circuit_counts_one_layer_pair_per_window(self, mode):
        # h, measure, reset | cx, 2 terminal measures: two gate-bearing
        # segments, so two basis windows of n = 2 wires each.
        c = mid_circuit()
        obf = obfuscate(c, mode, seed=4)
        rep = overhead(c, obf.circuit, mode=mode.value)
        assert (rep.m, rep.n, rep.windows) == (2, 2, 2)
        assert rep.measured_count == rep.final_count == 2 + 2 * 2 * 2
        assert rep.pre_fusion_count == 3 * 2 + 2 * 2 * 2
        assert rep.consistent

    def test_mid_circuit_missing_layer_is_inconsistent(self):
        c = mid_circuit()
        obf = obfuscate(c, ObfuscationMode.GLOBAL, seed=4).circuit
        first = next(i for i, x in enumerate(obf.instructions) if isinstance(x, OpaqueUnitary))
        dropped = Circuit(obf.num_qubits, obf.num_clbits,
                          obf.instructions[:first] + obf.instructions[first + 1:])
        assert not overhead(c, dropped, mode="global").consistent

    def test_gate_free_tail_is_not_a_window(self):
        rep = overhead(bell(), obfuscate(bell(), ObfuscationMode.CHAINED, seed=2).circuit,
                       mode="chained")
        assert rep.windows == 1 and rep.depth_delta == 2 and rep.consistent

    def test_no_mode_skips_consistency(self):
        c = bell()
        rep = overhead(c, c)
        assert rep.consistent

    def test_register_mismatch(self):
        with pytest.raises(MetricsError):
            overhead(Circuit(1, 0, ()), Circuit(2, 0, ()))


class TestTimedCompare:
    def test_report_fields(self):
        c = bell()
        obf = obfuscate(c, ObfuscationMode.GLOBAL, seed=0)
        rep = timed_compare(c, obf.circuit, shots=512, runs=3, seed=1)
        assert rep.shots == 512 and rep.runs == 3
        assert 0.0 <= rep.tvd <= 1.0
        assert 0.0 <= rep.semantic_accuracy_percent <= 100.0
        assert rep.original_runtime_seconds > 0.0
        assert rep.original_runtime_min_seconds <= rep.original_runtime_seconds

    def test_zero_runs_rejected(self):
        with pytest.raises(MetricsError, match="runs must be >= 1"):
            timed_compare(bell(), bell(), runs=0)

    def test_deterministic_given_seed(self):
        c = bell()
        obf = obfuscate(c, ObfuscationMode.CHAINED, seed=0)
        a = timed_compare(c, obf.circuit, shots=256, runs=2, seed=5)
        b = timed_compare(c, obf.circuit, shots=256, runs=2, seed=5)
        assert a.semantic_accuracy_percent == b.semantic_accuracy_percent
        assert a.tvd == b.tvd

    def test_paper_suite_accuracy_and_tvd_pinned(self):
        # Taken before timed_compare prepared each circuit once: evolving once
        # and sampling many times must not move a single accuracy or TVD bit.
        rows = run_paper_suite(modes=list(ObfuscationMode), runs=5, seed=2)
        text = repr([
            (r.name, r.mode, r.report.semantic_accuracy_percent, r.report.tvd) for r in rows
        ])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c9a5ec49da004b69973640438fd31613c9efd7fb61d9d630670f45b21238a29e"
        )

    def test_each_circuit_is_evolved_once(self, monkeypatch):
        # A structural guard, not a timing test: 20 runs of a split-free row
        # apply each gate of each circuit once, not once per run.
        calls = []
        apply = qobf.simulate.apply_to_tensor
        monkeypatch.setattr(qobf.simulate, "apply_to_tensor",
                            lambda *args: calls.append(1) or apply(*args))
        spec = next(s for s in PAPER_SUITE if s.name == "qaoa_maxcut")
        c = generate(spec.name, **spec.params)
        obf = obfuscate(c, ObfuscationMode.CHAINED, seed=4).circuit
        rep = timed_compare(c, obf, shots=256, runs=20, seed=0)
        assert len(calls) == gate_count(c) + gate_count(obf)
        for evolve, low, mean in (
            (rep.original_evolve_seconds, rep.original_runtime_min_seconds,
             rep.original_runtime_seconds),
            (rep.obfuscated_evolve_seconds, rep.obfuscated_runtime_min_seconds,
             rep.obfuscated_runtime_seconds),
        ):
            assert 0.0 < evolve <= low <= mean
