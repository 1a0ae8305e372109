"""End-to-end tests for the qobf command-line interface."""
import json

import pytest

from qobf.circuit import gate_count
from qobf.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SIMCAP,
    EXIT_THRESHOLD,
    EXIT_VALIDATION,
    main,
)
from qobf.jsonio import read_json

BELL_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
"""

MID_CIRCUIT_QASM = (
    "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[0];\n"
    "reset q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
)


@pytest.fixture
def bell_qasm(tmp_path):
    path = tmp_path / "bell.qasm"
    path.write_text(BELL_QASM)
    return str(path)


def obfuscate_bell(tmp_path, bell_qasm, mode="global", seed="1"):
    out = str(tmp_path / "obf.json")
    key = str(tmp_path / "key.json")
    args = [
        "obfuscate", "--in", bell_qasm, "--mode", mode, "--seed", seed,
        "--out", out, "--key-out", key,
    ]
    if mode == "subset":
        args += ["--subset-size", "1"]
    assert main(args) == EXIT_OK
    return out, key


class TestObfuscate:
    @pytest.mark.parametrize("mode", ["global", "chained", "subset"])
    def test_roundtrip_files(self, tmp_path, bell_qasm, mode):
        out, key = obfuscate_bell(tmp_path, bell_qasm, mode=mode)
        doc = json.loads(open(out).read())
        assert doc["format"] == "qobf-circuit"
        keydoc = json.loads(open(key).read())
        assert keydoc["format"] == "qobf-key"
        assert keydoc["mode"] == mode

    def test_deterministic_output(self, tmp_path, bell_qasm):
        a, _ = obfuscate_bell(tmp_path, bell_qasm, seed="9")
        text_a = open(a).read()
        b, _ = obfuscate_bell(tmp_path, bell_qasm, seed="9")
        assert open(b).read() == text_a

    def test_json_overhead_report(self, tmp_path, bell_qasm, capsys):
        rc = main(["obfuscate", "--in", bell_qasm, "--out", str(tmp_path / "o.json"), "--json"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert (doc["m"], doc["n"], doc["windows"]) == (2, 2, 1)
        assert doc["final_count"] == doc["measured_count"] == 6 and doc["consistent"]

    def test_missing_input(self, tmp_path, capsys):
        rc = main([
            "obfuscate", "--in", str(tmp_path / "nope.qasm"),
            "--out", str(tmp_path / "o.json"),
        ])
        assert rc == EXIT_IO
        assert "nope.qasm" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--key-out"])
    def test_output_into_missing_directory(self, tmp_path, bell_qasm, capsys, flag):
        paths = {"--out": str(tmp_path / "o.json"), "--key-out": str(tmp_path / "k.json")}
        paths[flag] = str(tmp_path / "missing" / "x.json")
        rc = main(["obfuscate", "--in", bell_qasm, *(a for kv in paths.items() for a in kv)])
        assert rc == EXIT_IO
        captured = capsys.readouterr()
        assert paths[flag] in captured.err
        assert "Traceback" not in captured.out + captured.err
        # both files or neither: no circuit is left without its key
        assert not (tmp_path / "o.json").exists() and not (tmp_path / "k.json").exists()

    @pytest.mark.parametrize("case", ["out_is_key_out", "key_out_links_to_out", "out_is_in"])
    def test_aliased_paths_refused_before_any_write(self, tmp_path, bell_qasm, capsys, case):
        paths = {"--in": bell_qasm, "--out": str(tmp_path / "o.json"),
                 "--key-out": str(tmp_path / "k.json")}
        clash = ("--out", "--key-out")
        if case == "out_is_key_out":
            paths["--key-out"] = paths["--out"]
        elif case == "key_out_links_to_out":
            (tmp_path / "k.json").symlink_to(paths["--out"])
        else:
            paths["--out"], clash = bell_qasm, ("--in", "--out")
        rc = main(["obfuscate", *(a for kv in paths.items() for a in kv)])
        assert rc == EXIT_IO
        err = capsys.readouterr().err
        assert all(f"{flag} {paths[flag]}" in err for flag in clash)
        assert sorted(p.name for p in tmp_path.iterdir() if p.exists()) == ["bell.qasm"]
        assert (tmp_path / "bell.qasm").read_text() == BELL_QASM

    def test_non_utf8_byte_is_located(self, tmp_path, capsys):
        bad = tmp_path / "bad.qasm"
        bad.write_bytes(b"OPENQASM 2.0;\nqreg q[1];\nh q[0]\xff;\n")
        rc = main(["obfuscate", "--in", str(bad), "--out", str(tmp_path / "o.json")])
        assert rc == EXIT_PARSE
        assert "line 3, col 7: non-UTF-8 byte 0xff" in capsys.readouterr().err

    def test_non_utf8_byte_in_comment_is_skipped(self, tmp_path):
        src = tmp_path / "c.qasm"
        src.write_bytes(b"OPENQASM 2.0;\nqreg q[1];\nh q[0]; // \xff\n")
        assert main(["obfuscate", "--in", str(src), "--out", str(tmp_path / "o.json")]) == EXIT_OK

    def test_non_utf8_json_is_a_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"format": "qobf-circuit\xff"}')
        assert main(["analyze", "--in", str(bad)]) == EXIT_VALIDATION

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.qasm"
        bad.write_text("OPENQASM 2.0;\nqreg q[1];\nzorp q[0];\n")
        rc = main([
            "obfuscate", "--in", str(bad), "--out", str(tmp_path / "o.json"),
        ])
        assert rc == EXIT_PARSE


    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mode", "subset"], "subset mode requires subset_size"),
            (["--mode", "chained", "--subset-size", "1"], "subset_size only valid in subset mode"),
            (["--mode", "subset", "--subset-size", "3"], "subset_size 3 out of range [0, 2]"),
        ],
    )
    def test_subset_size_faults_exit_3(self, tmp_path, bell_qasm, capsys, flags, message):
        rc = main(["obfuscate", "--in", bell_qasm, "--out", str(tmp_path / "o.json"), *flags])
        assert rc == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_mid_circuit_artifact_passes_structure_check(self, tmp_path, capsys):
        src = tmp_path / "mid.qasm"
        src.write_text(MID_CIRCUIT_QASM)
        for mode in ("global", "chained"):
            rc = main([
                "obfuscate", "--in", str(src), "--mode", mode,
                "--out", str(tmp_path / "o.json"),
            ])
            assert rc == EXIT_OK
            out = capsys.readouterr().out
            assert "final count m + 2nw = 10 (measured 10)" in out
            assert "WARNING" not in out

    @pytest.mark.parametrize(
        "statement, where",
        [
            ("qreg q[1];\nrx(1/0) q[0];\n", "line 3, col 5"),
            ("qreg q[1.5];\n", "line 2, col 8"),
            ("qreg q[2];\nh q[1e3];\n", "line 3, col 5"),
            ("qreg q[1];\nrx(1e400) q[0];\n", "line 3, col 1"),
            ("qreg q[2];\ncx q[0],q[0];\n", "line 3, col 1"),
            ("qreg q[2];\nbarrier q, q[1];\n", "line 3, col 12"),
            ("qreg q[1];\nrx(" + "(" * 400 + "1" + ")" * 400 + ") q[0];\n", "line 3, col 104"),
        ],
    )
    def test_numeric_faults_are_parse_errors(self, tmp_path, capsys, statement, where):
        bad = tmp_path / "bad.qasm"
        bad.write_text("OPENQASM 2.0;\n" + statement)
        rc = main(["obfuscate", "--in", str(bad), "--out", str(tmp_path / "o.json")])
        assert rc == EXIT_PARSE
        captured = capsys.readouterr()
        assert where in captured.err
        assert "Traceback" not in captured.out + captured.err


class TestSimulate:
    def test_counts_json(self, tmp_path, bell_qasm, capsys):
        rc = main(["simulate", "--in", bell_qasm, "--shots", "256", "--seed", "4"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["shots"] == 256
        assert set(doc["counts"]) <= {"00", "11"}

    def test_out_file(self, tmp_path, bell_qasm):
        out = tmp_path / "counts.json"
        rc = main(["simulate", "--in", bell_qasm, "--shots", "64", "--out", str(out)])
        assert rc == EXIT_OK
        assert sum(json.loads(out.read_text())["counts"].values()) == 64

    def test_seed_determinism(self, tmp_path, bell_qasm, capsys):
        main(["simulate", "--in", bell_qasm, "--shots", "128", "--seed", "2"])
        a = capsys.readouterr().out
        main(["simulate", "--in", bell_qasm, "--shots", "128", "--seed", "2"])
        assert capsys.readouterr().out == a

    def test_environment_does_not_set_the_cap(self, bell_qasm, monkeypatch):
        monkeypatch.setenv("QOBF_MAX_QUBITS", "abc")
        assert main(["simulate", "--in", bell_qasm, "--shots", "8"]) == EXIT_OK

    def test_max_qubits_cap(self, tmp_path, capsys):
        big = tmp_path / "big.qasm"
        big.write_text("OPENQASM 2.0;\nqreg q[6];\ncreg c[6];\nh q;\nmeasure q -> c;\n")
        rc = main(["simulate", "--in", str(big), "--max-qubits", "4", "--shots", "8"])
        assert rc == EXIT_SIMCAP


class TestCompare:
    def test_equivalent_circuits(self, tmp_path, bell_qasm, capsys):
        obf, _ = obfuscate_bell(tmp_path, bell_qasm)
        capsys.readouterr()  # drain the obfuscate summary
        rc = main(["compare", bell_qasm, obf, "--shots", "512", "--runs", "2", "--json"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["semantic_accuracy_percent"] > 90.0
        for name in ("original", "obfuscated"):
            assert 0 < doc[f"{name}_evolve_seconds"] <= doc[f"{name}_runtime_min_seconds"]

    def test_text_report_has_an_evolve_line_per_circuit(self, tmp_path, bell_qasm, capsys):
        obf, _ = obfuscate_bell(tmp_path, bell_qasm)
        capsys.readouterr()
        assert main(["compare", bell_qasm, obf, "--shots", "64", "--runs", "3"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        for name in ("original", "obfuscated"):
            assert any(l.startswith(f"{name} time") and "mean" in l and "min" in l for l in lines)
            assert any(l.startswith(f"{name} evolve") and l.endswith("once per circuit")
                       for l in lines)

    def test_accuracy_floor_failure(self, tmp_path, bell_qasm, capsys):
        # Compare bell against a deliberately different circuit.
        other = tmp_path / "x.qasm"
        other.write_text(
            "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nx q[0];\n"
            "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
        )
        rc = main([
            "compare", bell_qasm, str(other),
            "--shots", "512", "--accuracy-floor", "90",
        ])
        assert rc == EXIT_THRESHOLD


class TestAnalyze:
    @pytest.mark.parametrize("mode", ["global", "chained", None])
    def test_projection_counts_windows(self, tmp_path, capsys, mode):
        # h | measure, reset | cx | measure, measure: two windows, m = 2, n = 2
        src = tmp_path / "mid.qasm"
        src.write_text(MID_CIRCUIT_QASM)
        args = ["analyze", "--in", str(src)]
        if mode is not None:  # the artifact, read with its key
            obf, key = tmp_path / "obf.json", str(tmp_path / "key.json")
            assert main([
                "obfuscate", "--in", str(src), "--mode", mode, "--seed", "3",
                "--out", str(obf), "--key-out", key,
            ]) == EXIT_OK
            assert gate_count(read_json(obf.read_text())) == 10
            args = ["analyze", "--in", str(obf), "--key", key]
        capsys.readouterr()  # drain the obfuscate summary
        assert main([*args, "--json"]) == EXIT_OK
        projection = json.loads(capsys.readouterr().out)["overhead"]["projection"]
        assert projection == {"pre_fusion_count": 14, "final_count": 10}
        assert main(args) == EXIT_OK
        assert "pre-fusion 14, final 10" in capsys.readouterr().out

    def test_plain_report(self, tmp_path, bell_qasm, capsys):
        rc = main(["analyze", "--in", bell_qasm])
        assert rc == EXIT_OK
        assert capsys.readouterr().out

    def test_with_key(self, tmp_path, bell_qasm, capsys):
        obf, key = obfuscate_bell(tmp_path, bell_qasm, mode="subset")
        capsys.readouterr()  # drain the obfuscate summary
        rc = main(["analyze", "--in", obf, "--key", key, "--json"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert "security" in doc

    def test_with_key_reports_measured_gate_count(self, tmp_path, capsys):
        src = tmp_path / "c.qasm"
        src.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
            "h q[0];\ncx q[0],q[1];\nccx q[0],q[1],q[2];\nx q[2];\nh q[1];\n"
        )
        obf, key = tmp_path / "obf.json", str(tmp_path / "key.json")
        assert main([
            "obfuscate", "--in", str(src), "--mode", "subset", "--subset-size", "3",
            "--seed", "0", "--out", str(obf), "--key-out", key,
        ]) == EXIT_OK
        artifact = read_json(obf.read_text())
        assert gate_count(artifact) != 5 + 2 * 3  # the m + 2n form does not apply
        capsys.readouterr()  # drain the obfuscate summary
        assert main(["analyze", "--in", str(obf), "--key", key, "--json"]) == EXIT_OK
        overhead = json.loads(capsys.readouterr().out)["overhead"]
        assert overhead["gate_count"] == gate_count(artifact)
        assert "projection" not in overhead and "depth_delta" not in overhead

    @pytest.mark.parametrize(
        "circuit_doc, key_doc",
        [
            ('{"format": "qobf-circuit", "version": 1, "num_qubits": 1, "num_clbits": 0,'
             ' "instructions": [7]}', None),
            ('{"format": "qobf-circuit", "version": 1, "num_qubits": 1, "num_clbits": 0,'
             ' "instructions": [{"kind": "gate", "qubits": [0]}]}', None),
            (None, '{"format": "qobf-key", "version": 1, "records": [7]}'),
            (None, '{"format": "qobf-key", "version": 1, "records": []}'),
        ],
    )
    def test_malformed_json_exits_3(self, tmp_path, bell_qasm, capsys, circuit_doc, key_doc):
        args = ["analyze", "--in", bell_qasm]
        if circuit_doc is not None:
            (tmp_path / "c.json").write_text(circuit_doc)
            args[2] = str(tmp_path / "c.json")
        if key_doc is not None:
            (tmp_path / "k.json").write_text(key_doc)
            args += ["--key", str(tmp_path / "k.json")]
        assert main(args) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err

    def test_corrupted_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "qobf-circuit", "version": 1}')
        rc = main(["analyze", "--in", str(bad)])
        assert rc == EXIT_VALIDATION


class TestBench:
    def test_small_bench_run(self, tmp_path, capsys):
        rc = main([
            "bench", "--modes", "global",
            "--shots", "64", "--runs", "1", "--seed", "0", "--json",
        ])
        assert rc == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 10
        for r in rows:
            assert 0 < r["original_evolve_seconds"] <= r["original_runtime_seconds"]
            assert 0 < r["obfuscated_evolve_seconds"] <= r["obfuscated_runtime_seconds"]
        assert {r["circuit"] for r in rows} == {
            "bv", "dj", "grover3", "phase_kickback", "qaoa_maxcut",
            "qft", "shor_mod15_order", "simon", "toffoli", "vqe_ansatz",
        }

    def test_case_study_out_under_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "sub")
        rc = main(["bench", "--runs", "1", "--shots", "16", "--case-study-out", out])
        assert rc == EXIT_IO
        captured = capsys.readouterr()
        assert out in captured.err
        assert "Traceback" not in captured.out + captured.err


class TestTopLevel:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--suite", "paper"],
            ["bench", "--max-qubits", "4"],
            ["analyze", "--in", "x.qasm", "--seed", "1"],
            ["analyze", "--in", "x.qasm", "--max-qubits", "4"],
            ["obfuscate", "--in", "x.qasm", "--out", "y.json", "--max-qubits", "4"],
            ["simulate", "--in", "x.qasm", "--json"],
        ],
    )
    def test_unread_flags_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
