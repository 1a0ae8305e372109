"""Tests for the benchmark generators and reporting harness."""
import numpy as np
import pytest

from qobf.bench import (
    CASE_STUDY_KEY,
    PAPER_SUITE,
    QAOA_EDGES,
    QAOA_GAMMA,
    counts_to_csv,
    generate,
    paper_case_study,
    run_paper_suite,
    write_case_study_artifacts,
)
from qobf.circuit import Circuit, StandardGate, gate_count, to_unitary
from qobf.linalg import equal_up_to_global_phase
from qobf.obfuscate import ObfuscationMode
from qobf.simulate import probabilities, run

DETERMINISTIC = {
    "bell": None,
    "bv": "1011",
    "dj": "1000",
    "toffoli": "111",
    "phase_kickback": "1",
}


class TestGenerators:
    @pytest.mark.parametrize("name", [s.name for s in PAPER_SUITE] + ["bell", "ghz"])
    def test_all_generate_and_validate(self, name):
        c = generate(name)
        c.validate()
        assert gate_count(c) > 0

    def test_unknown_name(self):
        from qobf.bench import BenchError

        with pytest.raises(BenchError):
            generate("nope")

    @pytest.mark.parametrize(
        "name,outcome",
        [(k, v) for k, v in DETERMINISTIC.items() if v is not None],
    )
    def test_deterministic_outcomes(self, name, outcome):
        assert probabilities(generate(name)) == pytest.approx({outcome: 1.0})

    def test_bell_counts(self):
        counts = run(generate("bell"), 1024, seed=0)
        assert set(counts.counts) == {"00", "11"}

    def test_ghz(self):
        p = probabilities(generate("ghz", k=4))
        assert p == pytest.approx({"0000": 0.5, "1111": 0.5})

    def test_bv_arbitrary_pattern(self):
        assert probabilities(generate("bv", pattern="0110")) == pytest.approx(
            {"0110": 1.0}
        )

    def test_dj_constant(self):
        assert probabilities(generate("dj", n=3, kind="constant")) == pytest.approx(
            {"000": 1.0}
        )

    def test_grover_marked_state_dominates(self):
        p = probabilities(generate("grover3", marked="101"))
        assert max(p, key=p.get) == "101"
        assert p["101"] > 0.9

    def test_simon_outcomes_orthogonal_to_secret(self):
        # Secret s = 11: every measured y must satisfy y . s = 0 (mod 2).
        p = probabilities(generate("simon", secret="11"))
        for y in p:
            assert (int(y[0]) + int(y[1])) % 2 == 0

    def test_qaoa_peaks_at_optimal_cuts(self):
        p = probabilities(generate("qaoa_maxcut"))
        top2 = sorted(p, key=p.get, reverse=True)[:2]
        assert set(top2) == {"01001", "10110"}
        assert p["01001"] + p["10110"] == pytest.approx(0.37, abs=0.005)

    def test_qaoa_cost_term_is_rzz(self):
        # The generator's cx . rz(-gamma) . cx per edge is rzz(-gamma).
        gamma = QAOA_GAMMA
        fused = Circuit(2, 0, (StandardGate("rzz", (-gamma,), (0, 1)),))
        ladder = Circuit(2, 0, (
            StandardGate("cx", (), (0, 1)),
            StandardGate("rz", (-gamma,), (1,)),
            StandardGate("cx", (), (0, 1)),
        ))
        assert equal_up_to_global_phase(to_unitary(fused), to_unitary(ladder), 1e-12)

    def test_qaoa_default_graph_edges(self):
        assert QAOA_EDGES == ((0, 1), (1, 2), (1, 3), (3, 4), (2, 4))

    def test_qft_distribution_normalized(self):
        p = probabilities(generate("qft"))
        assert sum(p.values()) == pytest.approx(1.0)

    def test_shor_period_peaks(self):
        # Order of 7 mod 15 is 4: the 3-bit counting register peaks at
        # multiples of 8/4 = 2.
        p = probabilities(generate("shor_mod15_order"))
        peaks = {k for k, v in p.items() if v > 0.1}
        assert peaks == {"000", "010", "100", "110"}

    def test_vqe_deterministic_angles(self):
        a = probabilities(generate("vqe_ansatz"))
        b = probabilities(generate("vqe_ansatz"))
        assert a == b


class TestSuite:
    def test_run_paper_suite_small(self):
        rows = run_paper_suite(
            modes=(ObfuscationMode.GLOBAL,), shots=256, runs=2, seed=0,
            specs=PAPER_SUITE[:3],
        )
        assert len(rows) == 3
        for row in rows:
            assert row.structure.consistent
            assert 0.0 <= row.report.tvd <= 1.0

    def test_run_paper_suite_subset_mode(self):
        rows = run_paper_suite(
            modes=(ObfuscationMode.SUBSET,), shots=128, runs=1, seed=0, specs=PAPER_SUITE[:2],
        )
        assert [(r.name, r.mode) for r in rows] == [(s.name, "subset") for s in PAPER_SUITE[:2]]
        for row in rows:
            assert 0.0 <= row.report.tvd <= 1.0
            assert row.structure.measured_count > row.structure.m  # half the gates hidden

    def test_suite_deterministic_across_calls(self):
        kw = dict(modes=(ObfuscationMode.GLOBAL,), shots=128, runs=1, seed=3,
                  specs=PAPER_SUITE[:2])
        a = run_paper_suite(**kw)
        b = run_paper_suite(**kw)
        assert [r.report.tvd for r in a] == [r.report.tvd for r in b]

    def test_counts_to_csv(self):
        text = counts_to_csv({"11": 5, "00": 3})
        lines = text.strip().splitlines()
        assert lines[0] == "bitstring,count"
        assert lines[1:] == ["00,3", "11,5"]


class TestCaseStudy:
    def test_case_study_and_artifacts(self, tmp_path):
        result = paper_case_study(shots=512, runs=3, seed=2)
        top2 = sorted(result.obfuscated_counts, key=result.obfuscated_counts.get)[-2:]
        assert set(top2) == {"01001", "10110"}
        assert result.max_distribution_error < 1e-9
        assert result.obfuscated.key.segment_params[0] == CASE_STUDY_KEY
        paths = write_case_study_artifacts(result, tmp_path)
        assert set(paths) == {
            "qaoa_obfuscated.json",
            "qaoa_key.json",
            "qaoa_original_counts.csv",
            "qaoa_obfuscated_counts.csv",
            "qaoa_report.json",
        }
        from qobf.jsonio import read_json
        from qobf.obfuscate import read_key_json

        c = read_json((tmp_path / "qaoa_obfuscated.json").read_text())
        key = read_key_json((tmp_path / "qaoa_key.json").read_text())
        assert c.num_qubits == 5
        assert key.mode is ObfuscationMode.GLOBAL
