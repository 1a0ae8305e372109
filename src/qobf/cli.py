"""Command-line surface: obfuscate, simulate, compare, analyze, bench.

Exit codes: 0 success, 2 parse error, 3 validation/schema error,
4 simulation cap exceeded, 5 threshold failure, 6 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .bench import paper_case_study, run_paper_suite, write_case_study_artifacts
from .circuit import Circuit, gate_count, windowed_segments
from .jsonio import counts_to_json, read_json, write_json
from .metrics import closed_form_counts, overhead, timed_compare
from .obfuscate import (
    ObfuscatedCircuit,
    ObfuscationMode,
    obfuscate,
    read_key_json,
    write_key_json,
)
from .qasm import ParseError, parse
from .security import audit_circuit, whitebox_profile
from .simulate import DEFAULT_MAX_QUBITS, SimulationCapError, run

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SIMCAP = 4
EXIT_THRESHOLD = 5
EXIT_IO = 6


class CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def load_circuit(path: str) -> Circuit:
    """Load QASM or JSON, auto-detected by extension then content sniffing.

    JSON must be UTF-8. QASM is decoded with ``surrogateescape``, so the
    tokenizer names an undecodable byte with its line and column.
    """
    data = Path(path).read_bytes()
    suffix = Path(path).suffix.lower()
    sniffed_json = data.lstrip().startswith(b"{")
    is_json = suffix == ".json" or (suffix not in (".qasm", ".qasm2") and sniffed_json)
    if is_json:
        return read_json(data.decode())
    return parse(data.decode(errors="surrogateescape"))


def _print_overhead(report, as_json: bool):
    if as_json:
        print(json.dumps(report.to_dict(), indent=2))
        return
    print("structural overhead:")
    print(f"  gates m = {report.m}, qubits n = {report.n}, basis windows w = {report.windows}")
    print(f"  pre-fusion count 3m + 2nw = {report.pre_fusion_count}")
    print(f"  final count m + 2nw = {report.final_count} (measured {report.measured_count})")
    print(
        f"  depth {report.depth_original} -> {report.depth_obfuscated}"
        f" (delta {report.depth_delta})"
    )
    if not report.consistent:
        print("  WARNING: measured structure does not match the closed-form counts")


def _print_security(report):
    print(f"security ({report.model}): parameters {report.parameters}")
    print(f"  success probability {report.success_probability:.6g}")
    print(f"  min-entropy {report.min_entropy_bits:.4f} bits")
    if report.warning:
        print(f"  WARNING: {report.warning}")


def _refuse_aliases(paths: dict):
    """Exit 6 before any write when two of the flag -> path entries name one file."""
    seen = {}
    for flag, path in paths.items():
        if path is not None:
            first = seen.setdefault(Path(path).resolve(), (flag, path))
            if first[0] != flag:
                raise CliFailure(
                    EXIT_IO, f"{first[0]} {first[1]} and {flag} {path} are the same file"
                )


def cmd_obfuscate(args) -> int:
    _refuse_aliases({"--in": getattr(args, "in"), "--out": args.out, "--key-out": args.key_out})
    original = load_circuit(getattr(args, "in"))
    mode = ObfuscationMode(args.mode)
    result = obfuscate(original, mode, seed=args.seed, subset_size=args.subset_size)
    out = Path(args.out)
    out.write_text(write_json(result.circuit))
    if args.key_out:
        try:
            Path(args.key_out).write_text(write_key_json(result.key))
        except OSError:
            out.unlink()  # both files or neither: no circuit without its key
            raise
    _print_overhead(overhead(original, result.circuit, mode=mode.value), args.json)
    return EXIT_OK


def cmd_simulate(args) -> int:
    circuit = load_circuit(getattr(args, "in"))
    counts = run(circuit, args.shots, seed=args.seed, max_qubits=args.max_qubits)
    text = counts_to_json(counts.counts, counts.shots)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_compare(args) -> int:
    original = load_circuit(args.original)
    obfuscated = load_circuit(args.obfuscated)
    report = timed_compare(
        original,
        obfuscated,
        shots=args.shots,
        runs=args.runs,
        seed=args.seed,
        max_qubits=args.max_qubits,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"semantic accuracy : {report.semantic_accuracy_percent:.2f} %")
        print(f"TVD               : {report.tvd:.4f}")
        for name, mean, low, evolve in (
            ("original", report.original_runtime_seconds,
             report.original_runtime_min_seconds, report.original_evolve_seconds),
            ("obfuscated", report.obfuscated_runtime_seconds,
             report.obfuscated_runtime_min_seconds, report.obfuscated_evolve_seconds),
        ):
            print(f"{name + ' time':<18}: mean {mean * 1e3:.3f} ms, min {low * 1e3:.3f} ms")
            print(f"{name + ' evolve':<18}: {evolve * 1e3:.3f} ms, once per circuit")
    if report.semantic_accuracy_percent < args.accuracy_floor:
        raise CliFailure(
            EXIT_THRESHOLD,
            f"semantic accuracy {report.semantic_accuracy_percent:.2f} below "
            f"floor {args.accuracy_floor:.2f}",
        )
    return EXIT_OK


def cmd_analyze(args) -> int:
    circuit = load_circuit(getattr(args, "in"))
    if args.key:
        key = read_key_json(Path(args.key).read_text())
        security = audit_circuit(ObfuscatedCircuit(circuit, key))
        m, n, mode = key.num_gates, key.num_qubits, key.mode
        overhead = {"m": m, "n": n, "gate_count": gate_count(circuit)}
    else:
        m, n, mode = gate_count(circuit), circuit.num_qubits, None
        security = whitebox_profile(m, m // 2) if m else None
        overhead = {"m": m, "n": n}
    # The closed forms hold for global/chained. An artifact has the gate-bearing
    # segments of its original, so either one gives the window count w.
    if mode is not ObfuscationMode.SUBSET:
        w = sum(windowed_segments(circuit))
        pre_fusion, final = closed_form_counts(m, n, w)
        overhead["projection"] = {"pre_fusion_count": pre_fusion, "final_count": final}
    if args.json:
        doc = {"overhead": overhead}
        if security is not None:
            doc["security"] = security.to_dict()
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    if args.key:
        print(f"{mode.value} artifact: {overhead['gate_count']} gates for m={m}, n={n}")
    else:
        print(f"unobfuscated input: m={m}, n={n}")
    if security is not None:
        _print_security(security)
    if "projection" in overhead:
        proj = overhead["projection"]
        print(
            f"global/chained projection for w={w}: pre-fusion {proj['pre_fusion_count']}, "
            f"final {proj['final_count']}"
        )
    return EXIT_OK


def cmd_bench(args) -> int:
    modes = [ObfuscationMode(m) for m in args.modes.split(",")]
    rows = run_paper_suite(modes=modes, shots=args.shots, runs=args.runs, seed=args.seed)
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "circuit": r.name,
                        "mode": r.mode,
                        **r.report.to_dict(),
                        "structure": r.structure.to_dict(),
                    }
                    for r in rows
                ],
                indent=2,
            )
        )
    else:
        header = (
            f"{'Circuit':<18}{'Mode':<9}{'Orig Time (s)':>14}{'Obf Time (s)':>14}"
            f"{'Accuracy (%)':>14}{'TVD':>9}"
        )
        print(header)
        print("-" * len(header))
        for r in rows:
            print(
                f"{r.name:<18}{r.mode:<9}"
                f"{r.report.original_runtime_seconds:>14.5f}"
                f"{r.report.obfuscated_runtime_seconds:>14.5f}"
                f"{r.report.semantic_accuracy_percent:>14.2f}"
                f"{r.report.tvd:>9.4f}"
            )
    if args.case_study_out:
        result = paper_case_study(shots=args.shots, runs=args.runs, seed=args.seed)
        paths = write_case_study_artifacts(result, args.case_study_out)
        for name, path in sorted(paths.items()):
            print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qobf",
        description="Quantum circuit obfuscation by randomized U3 basis conjugation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--in": dict(required=True, help="input circuit (QASM or JSON)"),
        "--seed": dict(type=int, default=0),
        "--json": dict(action="store_true", help="machine-readable output"),
        "--max-qubits": dict(type=int, default=DEFAULT_MAX_QUBITS),
    }

    def common(p, *flags):
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p = sub.add_parser("obfuscate", help="rewrite a circuit into an obfuscated form")
    common(p, "--in", "--seed", "--json")
    p.add_argument("--mode", choices=["global", "chained", "subset"], default="global")
    p.add_argument("--subset-size", type=int, default=None)
    p.add_argument("--out", required=True, help="obfuscated circuit JSON path")
    p.add_argument("--key-out", default=None, help="obfuscation key JSON path")
    p.set_defaults(func=cmd_obfuscate)

    p = sub.add_parser("simulate", help="sample measurement counts")
    common(p, "--in", "--seed", "--max-qubits")
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--out", default=None, help="counts JSON path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="compare two circuits' output distributions")
    p.add_argument("original")
    p.add_argument("obfuscated")
    common(p, "--seed", "--json", "--max-qubits")
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--accuracy-floor", type=float, default=0.0)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("analyze", help="overhead and security report")
    common(p, "--in", "--json")
    p.add_argument("--key", default=None, help="obfuscation key JSON path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench", help="run the benchmark suite")
    common(p, "--seed", "--json")
    p.add_argument("--modes", default="global")
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--case-study-out", default=None, help="directory for case-study artifacts")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error ({exc.kind}): {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:  # every library domain error subclasses it
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SimulationCapError as exc:
        print(f"simulation cap: {exc}", file=sys.stderr)
        return EXIT_SIMCAP
    except CliFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:  # names the path it could not read or write
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
