"""Tests for the OpenQASM parser, emitter, and ZYZ recovery."""
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import max_abs_diff

from qobf.circuit import Barrier, Measure, OpaqueUnitary, Reset, StandardGate
from qobf.linalg import U3Params, equal_up_to_global_phase, u3_matrix
from qobf.qasm import ParseError, _tokenize, emit_qasm2, parse, zyz_to_u3

BELL_SRC = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
"""


def random_u2(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestHeader:
    def test_qasm2(self):
        assert parse("OPENQASM 2.0;\nqreg q[2];\n").num_qubits == 2

    @pytest.mark.parametrize("version", ["3", "3.0"])
    def test_qasm3(self, version):
        assert parse(f"OPENQASM {version};\nqubit[2] q;\n").num_qubits == 2

    def test_qubit_declaration_only_under_qasm3(self):
        assert parse("OPENQASM 3;\nqubit[1] q;\n").num_qubits == 1
        with pytest.raises(ParseError) as exc:
            parse("OPENQASM 2.0;\nqubit[1] q;\n")
        assert exc.value.kind == "unknown-gate"

    def test_unknown_version(self):
        with pytest.raises(ParseError) as exc:
            parse("OPENQASM 4.0;\n")
        assert exc.value.kind == "unknown-version"

    def test_missing_header(self):
        with pytest.raises(ParseError) as exc:
            parse("qreg q[1];\n")
        assert exc.value.kind == "unknown-version"

    def test_header_read_before_the_body(self):
        with pytest.raises(ParseError) as exc:
            parse("OPENQASM 4.0; $ /* unterminated")
        assert exc.value.kind == "unknown-version"


class TestParse:
    def test_bell(self):
        c = parse(BELL_SRC)
        assert c.num_qubits == 2 and c.num_clbits == 2
        kinds = [type(i).__name__ for i in c.instructions]
        assert kinds == ["StandardGate", "StandardGate", "Measure", "Measure"]

    def test_parameterized_gates_and_pi(self):
        c = parse(
            "OPENQASM 2.0;\nqreg q[1];\nrz(pi/2) q[0];\nu3(pi, -pi/4, 0.5) q[0];\n"
        )
        rz, u3 = c.instructions
        assert rz.params[0] == pytest.approx(np.pi / 2)
        assert u3.params == pytest.approx((np.pi, -np.pi / 4, 0.5))

    def test_expression_arithmetic(self):
        c = parse("OPENQASM 2.0;\nqreg q[1];\nrz(2*pi/4 + 1 - 0.5) q[0];\n")
        assert c.instructions[0].params[0] == pytest.approx(np.pi / 2 + 0.5)

    def test_whole_register_broadcast(self):
        c = parse("OPENQASM 2.0;\nqreg q[3];\nh q;\n")
        assert len(c.instructions) == 3
        assert {i.qubits[0] for i in c.instructions} == {0, 1, 2}

    def test_register_measure_broadcast(self):
        c = parse("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q -> c;\n")
        assert [(i.qubit, i.clbit) for i in c.instructions] == [(0, 0), (1, 1)]

    def test_multiple_registers_flattened(self):
        c = parse(
            "OPENQASM 2.0;\nqreg a[2];\nqreg b[1];\nx a[1];\nx b[0];\n"
        )
        assert c.num_qubits == 3
        assert [i.qubits[0] for i in c.instructions] == [1, 2]

    def test_barrier_and_reset(self):
        c = parse("OPENQASM 2.0;\nqreg q[2];\nbarrier;\nreset q[0];\nbarrier q[1];\n")
        assert isinstance(c.instructions[0], Barrier)
        assert c.instructions[0].qubits == (0, 1)
        assert isinstance(c.instructions[1], Reset)
        assert c.instructions[2].qubits == (1,)

    def test_gate_macro_expansion(self):
        src = (
            "OPENQASM 2.0;\nqreg q[2];\n"
            "gate mygate(a) p, r { h p; rz(a) r; cx p, r; }\n"
            "mygate(0.25) q[0], q[1];\n"
        )
        c = parse(src)
        names = [i.name for i in c.instructions]
        assert names == ["h", "rz", "cx"]
        assert c.instructions[1].params == (0.25,)
        assert c.instructions[2].qubits == (0, 1)

    def test_comments_ignored(self):
        c = parse(
            "OPENQASM 2.0;\n// line comment\nqreg q[1];\n/* block\ncomment */x q[0];\n"
        )
        assert len(c.instructions) == 1

    def test_qasm3_subset(self):
        src = "OPENQASM 3;\nqubit[2] q;\nbit[2] c;\nh q[0];\ncx q[0], q[1];\nc[0] = measure q[0];\n"
        c = parse(src)
        assert c.num_qubits == 2 and c.num_clbits == 2
        assert isinstance(c.instructions[-1], Measure)


def doubling_macros(k: int) -> str:
    """Macros m0..mk, one line each, where m_i calls m_(i-1) twice: m_k is 2**k gates."""
    return "gate m0 a { x a; }\n" + "".join(
        f"gate m{i} a {{ m{i - 1} a; m{i - 1} a; }}\n" for i in range(1, k + 1)
    )


class TestParseErrors:
    def test_unknown_gate_kind_and_location(self):
        with pytest.raises(ParseError) as exc:
            parse("OPENQASM 2.0;\nqreg q[1];\nzorp q[0];\n")
        assert exc.value.kind == "unknown-gate"
        assert exc.value.line == 3

    def test_arity_error(self):
        with pytest.raises(ParseError) as exc:
            parse("OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n")
        assert exc.value.kind == "arity"

    def test_index_range(self):
        with pytest.raises(ParseError) as exc:
            parse("OPENQASM 2.0;\nqreg q[1];\nx q[3];\n")
        assert exc.value.kind == "index-range"

    def test_unsupported_feature(self):
        with pytest.raises(ParseError) as exc:
            parse("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c==1) x q[0];\n")
        assert exc.value.kind == "unsupported-feature"

    def test_syntax_error(self):
        with pytest.raises(ParseError) as exc:
            parse("OPENQASM 2.0;\nqreg q[1;\n")
        assert exc.value.kind == "syntax"

    @pytest.mark.parametrize(
        "body, line, col, kind",
        [
            ("qreg q[1];\nrx(1/0) q[0];\n", 3, 5, "value"),
            ("qreg q[1];\ngate g(a) x { rx(pi/(a-a)) x; }\ng(1) q[0];\n", 3, 20, "value"),
            ("qreg q[1];\nrx(1e400) q[0];\n", 3, 1, "value"),
            ("qreg q[1];\nrz(1e308*10-1e308*10) q[0];\n", 3, 1, "value"),
            ("qreg q[1.5];\n", 2, 8, "syntax"),
            ("creg c[2e1];\n", 2, 8, "syntax"),
            ("qreg q[2];\nh q[1e3];\n", 3, 5, "syntax"),
            ("qreg q[2];\nh q[\u00b2];\n", 3, 5, "syntax"),
            ("qreg q\u00e9[2];\n", 2, 7, "syntax"),
            ("qreg q[2];\ncx q[0],q[0];\n", 3, 1, "repeated-qubit"),
            # through a macro: at the gate in the body
            ("qreg q[2];\ngate g a, b { cx a, b; }\ng q[0], q[0];\n", 3, 15, "repeated-qubit"),
            ("qreg q[2];\nbarrier q[0],q[0];\n", 3, 14, "repeated-qubit"),
            ("qreg q[2];\nbarrier q, q[1];\n", 3, 12, "repeated-qubit"),
            # the 101st nesting level: parentheses and signs
            ("qreg q[1];\nrx(" + "(" * 400 + "1" + ")" * 400 + ") q[0];\n", 3, 104,
             "unsupported-feature"),
            ("qreg q[1];\nrx(" + "-" * 400 + "1) q[0];\n", 3, 104, "unsupported-feature"),
            ("qreg q[1];\ngate g a { barrier a", 3, 21, "syntax"),
            ("qreg q[60000];\nqreg r[6000];\n", 3, 6, "unsupported-feature"),
            # 2**40 gates from one call, rejected before expansion
            pytest.param("qreg q[1];\n" + doubling_macros(40) + "h q[0];\nm40 q[0];\n", 45, 1,
                         "unsupported-feature", id="macro-budget"),
        ],
    )
    def test_numeric_and_character_faults_located(self, body, line, col, kind):
        with pytest.raises(ParseError) as exc:
            parse("OPENQASM 2.0;\n" + body)
        assert (exc.value.line, exc.value.column, exc.value.kind) == (line, col, kind)

    @pytest.mark.parametrize(
        "body, line, col, kind, message",
        [
            ("qreg q[1];\nrx(;) q[0];\n", 3, 4, "syntax", "expected expression, got ';'"),
            ("qreg q[1];\nrx(2*foo) q[0];\n", 3, 6, "syntax",
             "unknown identifier 'foo' in expression"),
            ("qreg q[1];\ncreg q[1];\n", 3, 6, "syntax", "register 'q' already declared"),
            ("qreg q[1];\nh r[0];\n", 3, 3, "syntax", "unknown quantum register 'r'"),
            ("qreg q[2];\ncreg c[3];\nmeasure q -> c;\n", 4, 9, "arity",
             "measure broadcast width mismatch"),
            ("qreg q[1];\ngate h a { x a; }\n", 3, 6, "syntax", "gate 'h' already defined"),
            ("qreg q[1];\ngate g a { zorp a; }\n", 3, 12, "unknown-gate",
             "unknown gate 'zorp' in gate body"),
            ("qreg q[2];\nqreg r[3];\ncx q, r;\n", 4, 1, "arity", "broadcast width mismatch"),
            ("qreg q[2];\ngate g a { x a; }\ng q[0], q[1];\n", 4, 1, "arity",
             "gate 'g' argument count mismatch"),
            ("qreg q[1];\nrx q[0];\n", 3, 1, "arity", "gate 'rx' expects 1 parameter(s)"),
            ("qreg q[1];\ngate g a { x b; }\ng q[0];\n", 3, 12, "syntax",
             "unknown qubit argument 'b'"),
        ],
    )
    def test_fault_branches_located(self, body, line, col, kind, message):
        with pytest.raises(ParseError) as exc:
            parse("OPENQASM 2.0;\n" + body)
        assert (exc.value.line, exc.value.column, exc.value.kind) == (line, col, kind)
        assert exc.value.message == message

    @pytest.mark.parametrize("gate", ["u2(0, {})", "u3(0.1, 2.9, -{})", "u(0.1, {}, 0)"])
    def test_phase_angle_bound(self, gate):
        at_bound = f"OPENQASM 2.0;\nqreg q[1];\n{gate.format(repr(2.0 ** 24))} q[0];\n"
        (instr,) = parse(at_bound).instructions
        assert 2.0 ** 24 in map(abs, instr.params)
        beyond = repr(math.nextafter(2.0 ** 24, math.inf))
        with pytest.raises(ParseError) as exc:
            parse(f"OPENQASM 2.0;\nqreg q[1];\n{gate.format(beyond)} q[0];\n")
        assert (exc.value.line, exc.value.column, exc.value.kind) == (3, 1, "value")
        assert "phase angle beyond 2**24" in exc.value.message

    def test_macro_chain_expands_without_recursion(self):
        text = "OPENQASM 2.0;\nqreg q[1];\ngate m0 a { x a; }\n" + "".join(
            f"gate m{i} a {{ m{i - 1} a; }}\n" for i in range(1, 1200)
        )
        c = parse(text + "m1199 q[0];\n")
        assert c.instructions == (StandardGate("x", (), (0,)),)

    def test_macro_expansion_within_budget(self):
        c = parse("OPENQASM 2.0;\nqreg q[1];\n" + doubling_macros(14) + "m14 q[0];\n")
        assert len(c.instructions) == 2 ** 14

    def test_macro_budget_summed_over_calls(self):
        # four calls of 2**16 gates fill the 2**18 budget; the fifth is refused
        text = "OPENQASM 2.0;\nqreg q[1];\n" + doubling_macros(16) + "m16 q[0];\n" * 5
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.column, exc.value.kind) == (24, 1, "unsupported-feature")
        assert "past 262144 gates" in exc.value.message

    def test_unterminated_literals(self):
        for text, what in [("/* open", "block comment"), ('"open', "string literal")]:
            with pytest.raises(ParseError) as exc:
                parse("OPENQASM 2.0;\nqreg q[1];\n  " + text + "\n\n")
            assert (exc.value.line, exc.value.column) == (3, 3)
            assert exc.value.message == f"unterminated {what}"


class TestInputConventions:
    @pytest.mark.parametrize(
        "text, line, col", [("qreg q[\u0663];\n", 2, 8), ("qreg q[2];\nh q[\uff11];\n", 3, 5)]
    )
    def test_non_ascii_digit_is_unexpected(self, text, line, col):
        with pytest.raises(ParseError) as exc:
            parse("OPENQASM 2.0;\n" + text)
        assert exc.value.message.startswith("unexpected character")
        assert (exc.value.line, exc.value.column) == (line, col)

    def test_comments_and_blank_lines_before_header(self):
        head = "\n// a comment\n/* and\n a block */\n  OPENQASM 2.0;\n"
        assert parse(head + "qreg q[1];\nx q[0];\n").instructions == parse(
            "OPENQASM 2.0;\nqreg q[1];\nx q[0];\n").instructions
        with pytest.raises(ParseError) as exc:
            parse(head + "qreg q[1];\nzorp q[0];\n")
        assert (exc.value.line, exc.value.column) == (7, 1)  # the file's own line

    @pytest.mark.parametrize(
        "text, line, col",
        [
            ("// c\nOPENQASM 4.0;\n", 2, 10),
            ("OPENQASM 2.0\nqreg q[1];\n", 2, 1),
            ("\n\nqreg q[1];\n", 3, 1),
            ("OPENQASM", 1, 9),
        ],
    )
    def test_header_fault_at_offending_token(self, text, line, col):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.column, exc.value.kind) == (line, col, "unknown-version")

    def test_end_of_file_error_after_final_newline(self):
        with pytest.raises(ParseError) as exc:
            parse("OPENQASM 2.0;\nqreg q[1];\nx q[0]\n\n")
        assert (exc.value.line, exc.value.column) == (5, 1)


QASM_ALPHABET = [
    "OPENQASM", "2.0", "3", "include", '"qelib1.inc"', '"', "qreg", "creg", "qubit", "bit",
    "q", "c", "a", "gate", "measure", "reset", "barrier", "opaque", "if", "h", "cx", "rz",
    "u3", "ccx", "pi", "0", "1", "2", ".5", "1e3", "[", "]", "(", ")", "{", "}", ";", ",",
    "->", "=", "==", "+", "-", "*", "/", "//", "/*", "*/", " ", "\n", "\t", "\r",
    "\u00e9", "\u0663", "\uff11", "\u00a0",
]


class TestFuzz:
    @given(
        st.sampled_from(["", "OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\n", "OPENQASM 3;\n"]),
        st.lists(st.sampled_from(QASM_ALPHABET), max_size=60),
    )
    @settings(max_examples=400, deadline=None)
    def test_parse_raises_only_parse_errors(self, head, words):
        try:
            parse(head + "".join(words))
        except ParseError:
            pass


def generated_qasm(seed: int, gates: int) -> str:
    """Seeded QASM exercising every token kind, comment style and line ending."""
    rng = random.Random(seed)
    lines = [
        "OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[12];", "creg c[12];",
        "/* block comment", "   over two lines */ gate g_1(a, b) x, y { u3(a, b/2, -a) x; cx x,y; }",
    ]

    def num():
        return rng.choice([
            str(rng.randrange(100)), f"{rng.uniform(0, 9):.6f}", f".{rng.randrange(1000)}",
            f"{rng.uniform(1, 9):.3f}e-{rng.randrange(3)}", f"{rng.randrange(9)}E+{rng.randrange(3)}",
        ])

    for _ in range(gates):
        a, b = rng.sample(range(12), 2)
        lines.append(rng.choice([
            f"h q[{a}];",
            f"cx q[{a}],q[{b}];\t// entangle",
            f"rz({num()}*pi - {num()}) q[{a}];",
            f"u3({num()}, -({num()}+pi)/{rng.randrange(1, 9)}, {num()}) q[{a}];",
            f"g_1({num()}, {num()}) q[{a}], q[{b}];",
            f"  measure q[{a}] -> c[{a}]; reset q[{a}];",
            f"barrier q[{a}],q[{b}]; /* inline */ rzz({num()}) q[{a}],q[{b}];",
        ]))
    return "\r\n".join(lines[:3]) + "\n" + "\n".join(lines[3:]) + "\n"


class TestTokenizer:
    def test_stream_pinned_on_generated_file(self):
        # SHA-256 of (kind, value, line, col) per token, computed with the
        # slicing tokenizer this one replaced.
        text = generated_qasm(5, 600)
        tokens = list(_tokenize(text))
        h = hashlib.sha256()
        for t in tokens:
            h.update(f"{t.kind}\x00{t.value}\x00{t.line}\x00{t.col}\n".encode())
        assert len(tokens) == 9199
        assert h.hexdigest() == (
            "e5406d8aa770d640a5ec68c2392667e0bd6033b8bc3413c55ae0ccd4ddfeb1ef"
        )
        parse(text)


HAND_WRITTEN = [
    # QASM 3 declarations, measure-assignment, whole-register reset and barrier
    "OPENQASM 3.0;\nqubit[3] q;\nbit[3] c;\nqubit[1] anc;\nh q;\ncx q[0], anc[0];\n"
    "c[1] = measure q[1];\nmeasure q[2] -> c[2];\nreset anc;\nbarrier q, anc;\n",
    "OPENQASM 3;\nbit[2] c;\nqubit[2] q;\nc = measure q;\n",
    # nested macros, parameter expressions, macro broadcast, barrier in a body
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n"
    "gate inner(t) a { rz(t/2) a; sdg a; }\n"
    "gate outer(t, u) a, b { inner(-t) a; barrier a, b; rzz(u*t) a, b; swap b, a; inner(t+u) b; }\n"
    "gate noargs a { h a; }\n"
    "outer(pi/3, 0.25) q[0], q[2];\nnoargs q;\nqreg r[1];\nouter(1e-3, -(2+pi)/4) q, r[0];\n",
    # register broadcast between registers, with classical broadcast
    "OPENQASM 2.0;\nqreg a[3];\nqreg b[3];\ncreg c[3];\ncreg d[1];\n"
    "cx a, b;\ncx a[0], b;\nrz(pi/3) a;\nqreg e[1];\nccx a, b, e[0];\nmeasure b -> c;\nmeasure a[1] -> d[0];\n",
    # barriers: bare, partial, whole registers
    "OPENQASM 2.0;\nqreg a[2];\nqreg b[2];\nh a;\nbarrier;\nbarrier a, b[1];\nreset b;\nbarrier b;\n",
    # comments and line endings everywhere, no final newline
    "OPENQASM 2.0; // header\r\n/* a\r\n block */ qreg /* in */ q[2]; creg c[2];\r\n"
    "u3( 0.1 , /* x */ -.5e+1 , 3E0 ) q[1];// t\ncx q[0] , q[1] ;\n\n\t measure q -> c;",
    # expression precedence and unary signs
    "OPENQASM 2.0;\nqreg q[1];\nrx(-pi + 2*pi/3 - -1) q[0];\nry(+(1 - 2) * (3 + 4) / 5) q[0];\n"
    "u(1,2,3) q[0];\nu2(pi, -pi) q[0];\nu1(0) q[0];\n",
    # no registers at all
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n",
]


def parse_digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        c = parse(text)
        h.update(repr((c.num_qubits, c.num_clbits, c.instructions)).encode())
    return h.hexdigest()


class TestParseGolden:
    def test_parse_digest_pinned(self):
        # SHA-256 of (num_qubits, num_clbits, instructions) per file. The
        # instructions were first pinned before the tokenizer and parser were
        # rewritten; this value was computed with the parser of the tree that
        # still had a register-name field, over the same texts without it.
        texts = [generated_qasm(seed, 150) for seed in range(6)] + HAND_WRITTEN
        assert parse_digest(texts) == (
            "2e01009a2f1a41777da806d76d1334497c73e280df4491d148e84056632134e4"
        )


class TestZyz:
    def test_known_u3(self):
        p = U3Params(1.2, 0.4, -0.9)
        got, phase = zyz_to_u3(u3_matrix(p))
        assert max_abs_diff(np.exp(1j * phase) * u3_matrix(got), u3_matrix(p)) < 1e-12

    @pytest.mark.parametrize("theta", [0.0, 1e-9, np.pi, np.pi - 1e-9])
    def test_degenerate_theta(self, theta):
        rng = np.random.default_rng(int(theta * 1e6) + 1)
        p = U3Params(theta, rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        m = np.exp(1j * rng.uniform(0, 2 * np.pi)) * u3_matrix(p)
        got, phase = zyz_to_u3(m)
        assert max_abs_diff(np.exp(1j * phase) * u3_matrix(got), m) < 1e-9

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_random_unitaries(self, seed):
        m = random_u2(np.random.default_rng(seed))
        got, phase = zyz_to_u3(m)
        assert 0 <= got.theta <= np.pi + 1e-12
        assert max_abs_diff(np.exp(1j * phase) * u3_matrix(got), m) < 1e-9


class TestEmit:
    def test_fixed_point(self):
        c = parse(BELL_SRC)
        text = emit_qasm2(c)
        assert emit_qasm2(parse(text)) == text

    def test_emits_parseable_params(self):
        c = parse("OPENQASM 2.0;\nqreg q[1];\nrz(0.1234567890123456) q[0];\n")
        back = parse(emit_qasm2(c))
        assert back.instructions[0].params[0] == c.instructions[0].params[0]

    def test_opaque_single_qubit_lowered_to_u3(self):
        rng = np.random.default_rng(42)
        m = random_u2(rng)
        from qobf.circuit import Circuit

        c = Circuit(1, 0, (OpaqueUnitary("Blk", (0,), m),))
        text = emit_qasm2(c)
        assert "u3(" in text
        back = parse(text)
        from qobf.circuit import to_unitary

        assert equal_up_to_global_phase(to_unitary(back), m, 1e-9)

    def test_reset_and_barrier(self):
        text = ("OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nh q[0];\nbarrier q[0],q[1];\n"
                "reset q[1];\nmeasure q[1] -> c[0];\n")
        c = parse(text)
        emitted = emit_qasm2(c)
        assert "barrier q[0],q[1];" in emitted and "reset q[1];" in emitted
        assert parse(emitted) == c

    def test_multi_qubit_opaque_rejected(self):
        from qobf.circuit import Circuit

        c = Circuit(2, 0, (OpaqueUnitary("Blk", (0, 1), np.eye(4, dtype=complex)),))
        with pytest.raises(ParseError) as exc:
            emit_qasm2(c)
        assert exc.value.kind == "unsupported-feature"
