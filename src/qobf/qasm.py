"""OpenQASM frontend: parse QASM 2.0 (and a minimal 3.0 subset) to circuits,
emit QASM 2.0, and recover U3 parameters from 1-qubit unitaries for export.
"""
from __future__ import annotations

import cmath
import enum
import math
import re
from dataclasses import dataclass

import numpy as np

from .circuit import (
    Barrier,
    Circuit,
    GATE_SIGNATURES,
    Measure,
    OpaqueUnitary,
    Reset,
    StandardGate,
)
from .linalg import TWO_PI, U3Params, is_unitary


class SourceVersion(enum.Enum):
    Qasm2 = "2.0"
    Qasm3 = "3.0"


class ParseError(Exception):
    def __init__(self, line: int, column: int, message: str, kind: str = "syntax"):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column
        self.message = message
        self.kind = kind


_HEADER_RE = re.compile(r"OPENQASM\s+(\S+?)\s*;")


def detect_version(text: str) -> SourceVersion:
    stripped = text.strip()
    m = _HEADER_RE.match(stripped)
    if m:
        ver = m.group(1)
        if ver == "2.0":
            return SourceVersion.Qasm2
        if ver in ("3.0", "3"):
            return SourceVersion.Qasm3
        raise ParseError(1, 1, f"unsupported OPENQASM version {ver!r}", "unknown-version")
    raise ParseError(1, 1, "missing or malformed OPENQASM header", "unknown-version")


# ---------------------------------------------------------------------------
# Tokenizer

_SYMBOLS = ("->", "==", "+", "-", "*", "/", "(", ")", "[", "]", "{", "}", ";", ",", "=")
_NUM_RE = re.compile(r"\d*\.?\d+([eE][+-]?\d+)?")
_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # id | num | str | sym | eof
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i)
            if end < 0:
                raise ParseError(line, col, "unterminated block comment")
            skipped = text[i : end + 2]
            line += skipped.count("\n")
            col = 1 if "\n" in skipped else col + len(skipped)
            i = end + 2
            continue
        if ch == '"':
            end = text.find('"', i + 1)
            if end < 0:
                raise ParseError(line, col, "unterminated string literal")
            tokens.append(_Token("str", text[i + 1 : end], line, col))
            col += end + 1 - i
            i = end + 1
            continue
        # Patterns match at i, so no token copies the rest of the text. A
        # character no pattern accepts (e.g. a non-ASCII letter) falls
        # through to the unexpected-character error.
        if ch.isdigit() or ch == ".":
            m = _NUM_RE.match(text, i)
            kind = "num"
        elif ch.isalpha() or ch == "_":
            m = _ID_RE.match(text, i)
            kind = "id"
        else:
            m = None
        if m is not None:
            tokens.append(_Token(kind, m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        matched = False
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(_Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                matched = True
                break
        if not matched:
            raise ParseError(line, col, f"unexpected character {ch!r}")
    tokens.append(_Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_CONSTANTS = {"pi": math.pi}


@dataclass
class _GateMacro:
    params: list[str]
    qargs: list[str]
    # body statements: (name, param_exprs, qarg names)
    body: list[tuple[str, list, list[str], _Token]]


class _Parser:
    def __init__(self, tokens: list[_Token], version: SourceVersion):
        self.tokens = tokens
        self.pos = 0
        self.version = version
        self.qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.cregs: dict[str, tuple[int, int]] = {}
        self.num_qubits = 0
        self.num_clbits = 0
        self.macros: dict[str, _GateMacro] = {}
        self.instructions: list = []

    # -- token helpers ------------------------------------------------------
    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> _Token:
        tok = self.next()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise ParseError(tok.line, tok.col, f"expected {want!r}, got {tok.value!r}")
        return tok

    def accept(self, kind: str, value: str | None = None) -> _Token | None:
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.next()
        return None

    def error(self, tok: _Token, message: str, kind: str = "syntax"):
        raise ParseError(tok.line, tok.col, message, kind)

    def expect_int(self) -> int:
        """A register size or index: a plain non-negative integer literal."""
        tok = self.expect("num")
        if not tok.value.isdigit():
            self.error(tok, f"expected an integer, got {tok.value!r}")
        return int(tok.value)

    # -- expressions --------------------------------------------------------
    def parse_expr(self):
        return self._parse_additive()

    def _parse_additive(self):
        node = self._parse_multiplicative()
        while True:
            if self.accept("sym", "+"):
                node = ("+", node, self._parse_multiplicative())
            elif self.accept("sym", "-"):
                node = ("-", node, self._parse_multiplicative())
            else:
                return node

    def _parse_multiplicative(self):
        node = self._parse_unary()
        while True:
            if self.accept("sym", "*"):
                node = ("*", node, self._parse_unary())
            elif tok := self.accept("sym", "/"):
                node = ("/", node, self._parse_unary(), tok)
            else:
                return node

    def _parse_unary(self):
        if self.accept("sym", "-"):
            return ("neg", self._parse_unary())
        if self.accept("sym", "+"):
            return self._parse_unary()
        tok = self.next()
        if tok.kind == "num":
            return ("lit", float(tok.value))
        if tok.kind == "id":
            return ("name", tok.value, tok)
        if tok.kind == "sym" and tok.value == "(":
            node = self.parse_expr()
            self.expect("sym", ")")
            return node
        self.error(tok, f"expected expression, got {tok.value!r}")

    @staticmethod
    def eval_expr(node, env: dict[str, float]) -> float:
        op = node[0]
        if op == "lit":
            return node[1]
        if op == "name":
            name, tok = node[1], node[2]
            if name in env:
                return env[name]
            if name in _CONSTANTS:
                return _CONSTANTS[name]
            raise ParseError(tok.line, tok.col, f"unknown identifier {name!r} in expression")
        if op == "neg":
            return -_Parser.eval_expr(node[1], env)
        a = _Parser.eval_expr(node[1], env)
        b = _Parser.eval_expr(node[2], env)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0.0:
                tok = node[3]
                raise ParseError(tok.line, tok.col, "division by zero in expression", "value")
            return a / b
        raise AssertionError(op)

    # -- declarations -------------------------------------------------------
    def declare_qreg(self, name: str, size: int, tok: _Token):
        if name in self.qregs or name in self.cregs:
            self.error(tok, f"register {name!r} already declared")
        self.qregs[name] = (self.num_qubits, size)
        self.num_qubits += size

    def declare_creg(self, name: str, size: int, tok: _Token):
        if name in self.qregs or name in self.cregs:
            self.error(tok, f"register {name!r} already declared")
        self.cregs[name] = (self.num_clbits, size)
        self.num_clbits += size

    def qubit_operand(self) -> tuple[str, int | None, _Token]:
        tok = self.expect("id")
        if self.accept("sym", "["):
            idx = self.expect_int()
            self.expect("sym", "]")
            return tok.value, idx, tok
        return tok.value, None, tok

    def resolve_q(self, name: str, idx: int | None, tok: _Token) -> list[int]:
        if name not in self.qregs:
            self.error(tok, f"unknown quantum register {name!r}")
        off, size = self.qregs[name]
        if idx is None:
            return [off + i for i in range(size)]
        if not 0 <= idx < size:
            self.error(tok, f"index {idx} out of range for {name!r}[{size}]", "index-range")
        return [off + idx]

    def resolve_c(self, name: str, idx: int | None, tok: _Token) -> list[int]:
        if name not in self.cregs:
            self.error(tok, f"unknown classical register {name!r}")
        off, size = self.cregs[name]
        if idx is None:
            return [off + i for i in range(size)]
        if not 0 <= idx < size:
            self.error(tok, f"index {idx} out of range for {name!r}[{size}]", "index-range")
        return [off + idx]

    # -- statements ---------------------------------------------------------
    def parse_program(self) -> Circuit:
        self.expect("id", "OPENQASM")
        self.expect("num")
        self.expect("sym", ";")
        while self.peek().kind != "eof":
            self.parse_statement()
        circuit = Circuit(
            num_qubits=max(self.num_qubits, 1),
            num_clbits=self.num_clbits,
            instructions=tuple(self.instructions),
            register_names=tuple(self.qregs) or ("q",),
        )
        circuit.validate()
        return circuit

    def parse_statement(self):
        tok = self.peek()
        if tok.kind != "id":
            self.error(tok, f"expected statement, got {tok.value!r}")
        name = tok.value
        if name == "include":
            self.next()
            self.expect("str")
            self.expect("sym", ";")
            return
        if name == "qreg":
            self.next()
            reg = self.expect("id")
            self.expect("sym", "[")
            size = self.expect_int()
            self.expect("sym", "]")
            self.expect("sym", ";")
            self.declare_qreg(reg.value, size, reg)
            return
        if name == "creg":
            self.next()
            reg = self.expect("id")
            self.expect("sym", "[")
            size = self.expect_int()
            self.expect("sym", "]")
            self.expect("sym", ";")
            self.declare_creg(reg.value, size, reg)
            return
        if name in ("qubit", "bit") and self.version is SourceVersion.Qasm3:
            self.next()
            self.expect("sym", "[")
            size = self.expect_int()
            self.expect("sym", "]")
            reg = self.expect("id")
            self.expect("sym", ";")
            if name == "qubit":
                self.declare_qreg(reg.value, size, reg)
            else:
                self.declare_creg(reg.value, size, reg)
            return
        if name == "opaque":
            self.error(tok, "opaque declarations are not supported", "unsupported-feature")
        if name in ("if", "for", "while", "def", "defcal", "cal", "switch"):
            self.error(tok, f"{name!r} (control flow) is not supported", "unsupported-feature")
        if name == "gate":
            self.parse_gate_def()
            return
        if name == "measure":
            self.next()
            qn, qi, qt = self.qubit_operand()
            self.expect("sym", "->")
            cn, ci, ct = self.qubit_operand()
            self.expect("sym", ";")
            self.emit_measure(qn, qi, qt, cn, ci, ct)
            return
        if name == "barrier":
            self.next()
            qubits: list[int] = []
            if not self.accept("sym", ";"):
                while True:
                    qn, qi, qt = self.qubit_operand()
                    qubits.extend(self.resolve_q(qn, qi, qt))
                    if self.accept("sym", ";"):
                        break
                    self.expect("sym", ",")
            else:
                for off, size in self.qregs.values():
                    qubits.extend(range(off, off + size))
            self.instructions.append(Barrier(tuple(qubits)))
            return
        if name == "reset":
            self.next()
            qn, qi, qt = self.qubit_operand()
            self.expect("sym", ";")
            for q in self.resolve_q(qn, qi, qt):
                self.instructions.append(Reset(q))
            return
        # QASM 3 measure-assignment: c[j] = measure q[i];
        if self.version is SourceVersion.Qasm3 and name in self.cregs:
            cn, ci, ct = self.qubit_operand()
            self.expect("sym", "=")
            self.expect("id", "measure")
            qn, qi, qt = self.qubit_operand()
            self.expect("sym", ";")
            self.emit_measure(qn, qi, qt, cn, ci, ct)
            return
        self.parse_gate_application()

    def emit_measure(self, qn, qi, qt, cn, ci, ct):
        qs = self.resolve_q(qn, qi, qt)
        cs = self.resolve_c(cn, ci, ct)
        if len(qs) != len(cs):
            self.error(qt, "measure broadcast width mismatch", "arity")
        for q, c in zip(qs, cs):
            self.instructions.append(Measure(q, c))

    def parse_gate_def(self):
        self.expect("id", "gate")
        name_tok = self.expect("id")
        name = name_tok.value
        if name in GATE_SIGNATURES or name in self.macros:
            self.error(name_tok, f"gate {name!r} already defined")
        params: list[str] = []
        if self.accept("sym", "("):
            if not self.accept("sym", ")"):
                while True:
                    params.append(self.expect("id").value)
                    if self.accept("sym", ")"):
                        break
                    self.expect("sym", ",")
        qargs = [self.expect("id").value]
        while self.accept("sym", ","):
            qargs.append(self.expect("id").value)
        self.expect("sym", "{")
        body: list[tuple[str, list, list[str], _Token]] = []
        while not self.accept("sym", "}"):
            g = self.expect("id")
            if g.value == "barrier":
                # barriers in macro bodies are ignored structurally
                while not self.accept("sym", ";"):
                    self.next()
                continue
            exprs: list = []
            if self.accept("sym", "("):
                if not self.accept("sym", ")"):
                    while True:
                        exprs.append(self.parse_expr())
                        if self.accept("sym", ")"):
                            break
                        self.expect("sym", ",")
            args = [self.expect("id").value]
            while self.accept("sym", ","):
                args.append(self.expect("id").value)
            self.expect("sym", ";")
            if g.value not in GATE_SIGNATURES and g.value not in self.macros:
                self.error(g, f"unknown gate {g.value!r} in gate body", "unknown-gate")
            body.append((g.value, exprs, args, g))
        self.macros[name] = _GateMacro(params, qargs, body)

    def parse_gate_application(self):
        name_tok = self.expect("id")
        name = name_tok.value
        if name not in GATE_SIGNATURES and name not in self.macros:
            self.error(name_tok, f"unknown gate {name!r}", "unknown-gate")
        exprs: list = []
        if self.accept("sym", "("):
            if not self.accept("sym", ")"):
                while True:
                    exprs.append(self.parse_expr())
                    if self.accept("sym", ")"):
                        break
                    self.expect("sym", ",")
        params = [self.eval_expr(e, {}) for e in exprs]
        operands: list[tuple[str, int | None, _Token]] = [self.qubit_operand()]
        while self.accept("sym", ","):
            operands.append(self.qubit_operand())
        self.expect("sym", ";")
        resolved = [self.resolve_q(qn, qi, qt) for qn, qi, qt in operands]
        # whole-register broadcast: all register operands must share a width
        widths = {len(r) for r in resolved if len(r) > 1}
        if len(widths) > 1:
            self.error(name_tok, "broadcast width mismatch", "arity")
        width = widths.pop() if widths else 1
        for j in range(width):
            qubits = [r[j] if len(r) > 1 else r[0] for r in resolved]
            self.apply_gate(name, params, qubits, name_tok)

    def apply_gate(self, name: str, params: list[float], qubits: list[int], tok: _Token):
        if name in self.macros:
            macro = self.macros[name]
            if len(params) != len(macro.params) or len(qubits) != len(macro.qargs):
                self.error(tok, f"gate {name!r} argument count mismatch", "arity")
            env = dict(zip(macro.params, params))
            qmap = dict(zip(macro.qargs, qubits))
            for gname, gexprs, gargs, gtok in macro.body:
                gparams = [self.eval_expr(e, env) for e in gexprs]
                try:
                    gqubits = [qmap[a] for a in gargs]
                except KeyError as exc:
                    self.error(gtok, f"unknown qubit argument {exc.args[0]!r}")
                self.apply_gate(gname, gparams, gqubits, gtok)
            return
        nparams, arity = GATE_SIGNATURES[name]
        if len(params) != nparams:
            self.error(tok, f"gate {name!r} expects {nparams} parameter(s)", "arity")
        if not all(map(math.isfinite, params)):
            self.error(tok, f"gate {name!r} has a non-finite parameter", "value")
        if len(qubits) != arity:
            self.error(tok, f"gate {name!r} expects {arity} qubit(s)", "arity")
        self.instructions.append(StandardGate(name, tuple(params), tuple(qubits)))


def parse(text: str) -> Circuit:
    version = detect_version(text)
    tokens = _tokenize(text.strip())
    return _Parser(tokens, version).parse_program()


# ---------------------------------------------------------------------------
# Emission

def _fmt(x: float) -> str:
    return repr(float(x))


def zyz_to_u3(m: np.ndarray) -> tuple[U3Params, float]:
    """Recover (U3Params, global phase) with u3(params) * e^{i phase} = m.

    theta comes from the entry magnitudes; phi/lambda from entry arguments,
    using the determinant to stay exact through the degenerate theta values.
    """
    if m.shape != (2, 2) or not is_unitary(m, tol=1e-9):
        raise ValueError("zyz_to_u3 requires a 2x2 unitary (tol 1e-9)")
    m00, m01 = m[0, 0], m[0, 1]
    m10 = m[1, 0]
    det_angle = cmath.phase(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    theta = 2.0 * math.atan2(abs(m10), abs(m00))
    if abs(m00) >= abs(m10):
        alpha = cmath.phase(m00)
        phi = cmath.phase(m10) - alpha if abs(m10) > 1e-12 else 0.0
        lam = det_angle - 2.0 * alpha - phi
    else:
        a = cmath.phase(m10)  # alpha + phi
        b = cmath.phase(-m01)  # alpha + lam
        if abs(m00) > 1e-12:
            alpha = cmath.phase(m00)
        else:
            alpha = a  # gauge freedom at theta = pi: choose phi = 0
        phi = a - alpha
        lam = b - alpha
    theta = min(max(theta, 0.0), math.pi)
    phi %= TWO_PI
    lam %= TWO_PI
    return U3Params(theta, phi, lam), alpha % TWO_PI


def emit_qasm2(c: Circuit) -> str:
    """Serialize to OpenQASM 2.0; 1-qubit opaque blocks become u3 gates."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";']
    lines.append(f"qreg q[{c.num_qubits}];")
    if c.num_clbits:
        lines.append(f"creg c[{c.num_clbits}];")
    for instr in c.instructions:
        if isinstance(instr, StandardGate):
            name = "u3" if instr.name == "u" else instr.name
            args = ",".join(f"q[{q}]" for q in instr.qubits)
            if instr.params:
                ps = ",".join(_fmt(p) for p in instr.params)
                lines.append(f"{name}({ps}) {args};")
            else:
                lines.append(f"{name} {args};")
        elif isinstance(instr, OpaqueUnitary):
            if len(instr.qubits) != 1:
                raise ParseError(
                    0, 0,
                    f"cannot emit multi-qubit opaque block {instr.label!r} as QASM 2 "
                    "(use the JSON format)",
                    "unsupported-feature",
                )
            params, _ = zyz_to_u3(instr.matrix)
            ps = ",".join(_fmt(p) for p in params.as_tuple())
            lines.append(f"u3({ps}) q[{instr.qubits[0]}];")
        elif isinstance(instr, Measure):
            lines.append(f"measure q[{instr.qubit}] -> c[{instr.clbit}];")
        elif isinstance(instr, Reset):
            lines.append(f"reset q[{instr.qubit}];")
        elif isinstance(instr, Barrier):
            args = ",".join(f"q[{q}]" for q in instr.qubits)
            lines.append(f"barrier {args};")
    return "\n".join(lines) + "\n"
