"""OpenQASM frontend: parse QASM 2.0 (and a minimal 3.0 subset) to circuits,
emit QASM 2.0, and recover U3 parameters from 1-qubit unitaries for export.

Input is ASCII; comments may precede the header. Every fault in the input
raises `ParseError` with the line and column of the offending token.
"""
from __future__ import annotations

import cmath
import math
import operator
import re
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .circuit import (
    Barrier,
    Circuit,
    GATE_SIGNATURES,
    PHASE_PAIR_GATES,
    Measure,
    OpaqueUnitary,
    Reset,
    StandardGate,
)
from .linalg import MAX_PHASE, TWO_PI, U3Params, is_unitary


class ParseError(Exception):
    def __init__(self, line: int, column: int, message: str, kind: str = "syntax"):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column
        self.message = message
        self.kind = kind


# ---------------------------------------------------------------------------
# Tokenizer

# One alternative per token kind, tried in order at the current position.
# The `*` that opens a block comment may also close it, so `/*/` is a comment.
_TOKEN_RE = re.compile(
    r"""
      (?P<newline> \n )
    | (?P<blank> [ \t\r]+ )
    | (?P<comment> //[^\n]* | /\*(?:/|[\s\S]*?\*/) )
    | (?P<str> "[^"]*" )
    | (?P<unterminated> /\* | " )
    | (?P<num> [0-9]*\.?[0-9]+ (?:[eE][+-]?[0-9]+)? )
    | (?P<id> [A-Za-z_][A-Za-z0-9_]* )
    | (?P<sym> -> | == | [-+*/()\[\]{};,=] )
    | (?P<bad> [\s\S] )
    """,
    re.VERBOSE | re.ASCII,
)


class _Token(NamedTuple):
    kind: str  # id | num | str | sym | eof
    value: str
    line: int
    col: int


def _tokenize(text: str) -> Iterator[_Token]:
    """Yield the tokens of `text`, then an eof token.

    A column counts from the end of the last token containing a newline, so
    the token after a multi-line block comment is in column 1.
    """
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind in ("id", "num", "sym", "str"):
            yield _Token(kind, value[1:-1] if kind == "str" else value, line,
                         m.start() - line_start + 1)
        elif kind == "unterminated":
            what = "block comment" if value == "/*" else "string literal"
            raise ParseError(line, m.start() - line_start + 1, f"unterminated {what}")
        elif kind == "bad":
            what = f"unexpected character {value!r}"
            if "\udc80" <= value <= "\udcff":  # a byte surrogateescape could not decode
                what = f"non-UTF-8 byte 0x{ord(value) - 0xDC00:02x}"
            raise ParseError(line, m.start() - line_start + 1, what)
        if "\n" in value:
            line += value.count("\n")
            line_start = m.end()
    yield _Token("eof", "", line, len(text) - line_start + 1)


# Supported header versions: is the file QASM 3?
_QASM3 = {"2.0": False, "3": True, "3.0": True}


def _read_header(tokens: Iterator[_Token]) -> bool:
    """Consume `OPENQASM <version> ;`, the first three tokens; True for QASM 3."""
    tok = next(tokens)
    if tok[:2] == ("id", "OPENQASM"):
        tok = next(tokens)
        if tok.kind == "num":
            qasm3 = _QASM3.get(tok.value)
            if qasm3 is None:
                raise ParseError(tok.line, tok.col,
                                 f"unsupported OPENQASM version {tok.value!r}", "unknown-version")
            tok = next(tokens)
            if tok[:2] == ("sym", ";"):
                return qasm3
    raise ParseError(tok.line, tok.col, "missing or malformed OPENQASM header", "unknown-version")


def parse(text: str) -> Circuit:
    tokens = _tokenize(text)
    qasm3 = _read_header(tokens)
    return _Parser(list(tokens), qasm3).parse_program()


# ---------------------------------------------------------------------------
# Parser

_CONSTANTS = {"pi": math.pi}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
# Parentheses and signs nest by recursion; this bound keeps it off Python's stack limit.
_MAX_NESTING = 100
# Per kind, summed over registers: broadcasts and `barrier;` list every bit.
_MAX_BITS = 1 << 16
# Gates produced by macro calls, summed over the file. Macros multiply: k
# doubling macros turn one call into 2**k gates. 2**18 is 16x the largest
# benchmark input (16k gates) and about 40 MB of instructions, far past what
# the obfuscator and the 14-qubit simulator process in seconds.
_MAX_EXPANDED = 1 << 18
_REGISTER_KINDS = {"qreg": "quantum", "qubit": "quantum", "creg": "classical", "bit": "classical"}


class _Parser:
    def __init__(self, tokens: list[_Token], qasm3: bool):
        self.tokens = tokens
        self.pos = 0
        self.qasm3 = qasm3  # QASM 3 declarations and measure-assignments allowed
        self.registers: dict[str, tuple[str, int, int]] = {}  # name -> (kind, offset, size)
        self.width = {"quantum": 0, "classical": 0}
        # name -> (params, qargs, body of (gate token, param code, qarg names), gate count)
        self.macros: dict[str, tuple[list[str], list[str], list, int]] = {}
        self.instructions: list = []
        self.nesting = 0
        self.expanded = 0  # gates produced by macro calls so far

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

    def accept(self, *symbols: str) -> _Token | None:
        tok = self.tokens[self.pos]
        if tok.kind == "sym" and tok.value in symbols:
            self.pos += 1
            return tok
        return None

    def error(self, tok: _Token, message: str, kind: str = "syntax"):
        raise ParseError(tok.line, tok.col, message, kind)

    def items(self, item: Callable, end: str) -> list:
        """`item (, item)* end`."""
        found = [item()]
        while not self.accept(end):
            if not self.accept(","):
                tok = self.peek()
                self.error(tok, f"expected ',' or {end!r}, got {tok.value!r}")
            found.append(item())
        return found

    def paren_items(self, item: Callable) -> list:
        """`( item (, item)* )`, `()` or nothing."""
        if self.accept("(") and not self.accept(")"):
            return self.items(item, ")")
        return []

    def index(self) -> int:
        """`[n]`, n a plain non-negative integer literal: a register size or index."""
        self.expect("sym", "[")
        tok = self.expect("num")
        if not tok.value.isdigit():
            self.error(tok, f"expected an integer, got {tok.value!r}")
        self.expect("sym", "]")
        return int(tok.value)

    # -- expressions, compiled to postfix code ------------------------------
    def parse_expr(self, code: list) -> list:
        self.parse_term(code)
        while tok := self.accept("+", "-"):
            self.parse_term(code)
            code.append((tok.value, tok))
        return code

    def parse_term(self, code: list):
        self.parse_unary(code)
        while tok := self.accept("*", "/"):
            self.parse_unary(code)
            code.append((tok.value, tok))

    def parse_unary(self, code: list):
        tok = self.next()
        if tok.kind == "num":
            code.append(("lit", float(tok.value)))
        elif tok.kind == "id":
            code.append(("name", tok))
        elif tok.kind == "sym" and tok.value in ("-", "+", "("):
            self.nesting += 1
            if self.nesting > _MAX_NESTING:
                self.error(tok, f"expression nested more than {_MAX_NESTING} deep",
                           "unsupported-feature")
            if tok.value == "(":
                self.parse_expr(code)
                self.expect("sym", ")")
            else:
                self.parse_unary(code)
                if tok.value == "-":
                    code.append(("neg", tok))
            self.nesting -= 1
        else:
            self.error(tok, f"expected expression, got {tok.value!r}")

    @staticmethod
    def eval_expr(code: list, env: dict[str, float]) -> float:
        stack: list[float] = []
        for op, arg in code:
            if op == "lit":
                stack.append(arg)
            elif op == "name":
                value = env.get(arg.value, _CONSTANTS.get(arg.value))
                if value is None:
                    raise ParseError(arg.line, arg.col,
                                     f"unknown identifier {arg.value!r} in expression")
                stack.append(value)
            elif op == "neg":
                stack[-1] = -stack[-1]
            else:
                b = stack.pop()
                if op == "/" and b == 0.0:
                    raise ParseError(arg.line, arg.col, "division by zero in expression", "value")
                stack[-1] = _BINARY[op](stack[-1], b)
        return stack[0]

    # -- registers ----------------------------------------------------------
    def declare(self, kind: str, tok: _Token, size: int):
        if tok.value in self.registers:
            self.error(tok, f"register {tok.value!r} already declared")
        if self.width[kind] + size > _MAX_BITS:
            self.error(tok, f"more than {_MAX_BITS} {kind} bits declared", "unsupported-feature")
        self.registers[tok.value] = (kind, self.width[kind], size)
        self.width[kind] += size

    def operand(self) -> tuple[_Token, int | None]:
        tok = self.expect("id")
        return tok, (self.index() if self.peek()[:2] == ("sym", "[") else None)

    def resolve(self, kind: str, operand: tuple[_Token, int | None]) -> list[int]:
        tok, idx = operand
        reg_kind, offset, size = self.registers.get(tok.value, (None, 0, 0))
        if reg_kind != kind:
            self.error(tok, f"unknown {kind} register {tok.value!r}")
        if idx is None:
            return list(range(offset, offset + size))
        if not 0 <= idx < size:
            self.error(tok, f"index {idx} out of range for {tok.value!r}[{size}]", "index-range")
        return [offset + idx]

    # -- statements ---------------------------------------------------------
    def parse_program(self) -> Circuit:
        while self.peek().kind != "eof":
            self.parse_statement()
        return Circuit(
            num_qubits=max(self.width["quantum"], 1),
            num_clbits=self.width["classical"],
            instructions=tuple(self.instructions),
        )

    def parse_statement(self):
        tok = self.peek()
        if tok.kind != "id":
            self.error(tok, f"expected statement, got {tok.value!r}")
        name = tok.value
        if name == "include":
            self.next()
            self.expect("str")
            self.expect("sym", ";")
        elif name in ("qreg", "creg") or (name in ("qubit", "bit") and self.qasm3):
            self.next()
            if name.endswith("reg"):  # qreg q[2];
                reg, size = self.expect("id"), self.index()
            else:  # qubit[2] q;
                size, reg = self.index(), self.expect("id")
            self.expect("sym", ";")
            self.declare(_REGISTER_KINDS[name], reg, size)
        elif name == "opaque":
            self.error(tok, "opaque declarations are not supported", "unsupported-feature")
        elif name in ("if", "for", "while", "def", "defcal", "cal", "switch"):
            self.error(tok, f"{name!r} (control flow) is not supported", "unsupported-feature")
        elif name == "gate":
            self.parse_gate_def()
        elif name == "measure":
            self.next()
            q = self.operand()
            self.expect("sym", "->")
            c = self.operand()
            self.expect("sym", ";")
            self.measure(q, c)
        elif name == "barrier":
            self.next()
            if self.accept(";"):
                qubits = range(self.width["quantum"])  # every declared qubit
            else:
                qubits = {}
                for op_tok, new in self.items(self.resolved_operand, ";"):
                    if any(q in qubits for q in new):
                        self.error(op_tok, "barrier repeats a qubit", "repeated-qubit")
                    qubits.update(dict.fromkeys(new))
            self.instructions.append(Barrier(tuple(qubits)))
        elif name == "reset":
            self.next()
            q = self.operand()
            self.expect("sym", ";")
            self.instructions.extend(map(Reset, self.resolve("quantum", q)))
        elif self.qasm3 and self.registers.get(name, ("",))[0] == "classical":
            # c[j] = measure q[i];
            c = self.operand()
            self.expect("sym", "=")
            self.expect("id", "measure")
            q = self.operand()
            self.expect("sym", ";")
            self.measure(q, c)
        else:
            self.parse_gate_application()

    def resolved_operand(self) -> tuple[_Token, list[int]]:
        op = self.operand()
        return op[0], self.resolve("quantum", op)

    def measure(self, q: tuple[_Token, int | None], c: tuple[_Token, int | None]):
        qs = self.resolve("quantum", q)
        cs = self.resolve("classical", c)
        if len(qs) != len(cs):
            self.error(q[0], "measure broadcast width mismatch", "arity")
        self.instructions.extend(map(Measure, qs, cs))

    def parse_gate_def(self):
        self.expect("id", "gate")
        name_tok = self.expect("id")
        name = name_tok.value
        if name in GATE_SIGNATURES or name in self.macros:
            self.error(name_tok, f"gate {name!r} already defined")
        params = self.paren_items(lambda: self.expect("id").value)
        qargs = self.items(lambda: self.expect("id").value, "{")
        body = []
        while not self.accept("}"):
            g = self.expect("id")
            if g.value == "barrier":
                # barriers in macro bodies are ignored structurally
                while not self.accept(";"):
                    if self.peek().kind == "eof":
                        self.expect("sym", ";")  # raises: the input ends inside the body
                    self.next()
                continue
            exprs = self.paren_items(lambda: self.parse_expr([]))
            args = self.items(lambda: self.expect("id").value, ";")
            if g.value not in GATE_SIGNATURES and g.value not in self.macros:
                self.error(g, f"unknown gate {g.value!r} in gate body", "unknown-gate")
            body.append((g, exprs, args))
        # A body calls only earlier gates, so its expanded size is known now.
        count = sum(self.macros[g.value][3] if g.value in self.macros else 1 for g, _, _ in body)
        self.macros[name] = (params, qargs, body, count)

    def parse_gate_application(self):
        name_tok = self.expect("id")
        name = name_tok.value
        if name not in GATE_SIGNATURES and name not in self.macros:
            self.error(name_tok, f"unknown gate {name!r}", "unknown-gate")
        params = [self.eval_expr(e, {}) for e in self.paren_items(lambda: self.parse_expr([]))]
        # All operands are read before any is resolved.
        resolved = [self.resolve("quantum", op) for op in self.items(self.operand, ";")]
        # whole-register broadcast: all register operands must share a width
        widths = {len(r) for r in resolved if len(r) > 1}
        if len(widths) > 1:
            self.error(name_tok, "broadcast width mismatch", "arity")
        width = widths.pop() if widths else 1
        for j in range(width):
            qubits = [r[j] if len(r) > 1 else r[0] for r in resolved]
            self.apply_gate(name, params, qubits, name_tok)

    def apply_gate(self, name: str, params: list[float], qubits: list[int], tok: _Token):
        """Append the gate, or expand the macro from a stack of open bodies."""
        if name in self.macros:
            self.expanded += self.macros[name][3]
            if self.expanded > _MAX_EXPANDED:
                self.error(tok, f"call to {name!r} takes macro expansion past "
                                f"{_MAX_EXPANDED} gates", "unsupported-feature")
        frames: list = []  # (body iterator, parameter env, qubit map) per open macro
        while True:
            if name in self.macros:
                names, qargs, body, _ = self.macros[name]
                if len(params) != len(names) or len(qubits) != len(qargs):
                    self.error(tok, f"gate {name!r} argument count mismatch", "arity")
                frames.append((iter(body), dict(zip(names, params)), dict(zip(qargs, qubits))))
            else:
                nparams, arity = GATE_SIGNATURES[name]
                if len(params) != nparams:
                    self.error(tok, f"gate {name!r} expects {nparams} parameter(s)", "arity")
                if not all(map(math.isfinite, params)):
                    self.error(tok, f"gate {name!r} has a non-finite parameter", "value")
                if name in PHASE_PAIR_GATES and max(map(abs, params[-2:])) > MAX_PHASE:
                    self.error(tok, f"gate {name!r} has a phase angle beyond 2**24", "value")
                if len(qubits) != arity:
                    self.error(tok, f"gate {name!r} expects {arity} qubit(s)", "arity")
                if len(set(qubits)) != arity:
                    self.error(tok, f"gate {name!r} repeats a qubit", "repeated-qubit")
                self.instructions.append(StandardGate(name, tuple(params), tuple(qubits)))
            while frames and (item := next(frames[-1][0], None)) is None:
                frames.pop()
            if not frames:
                return
            tok, exprs, args = item
            _, env, qmap = frames[-1]
            name = tok.value
            params = [self.eval_expr(e, env) for e in exprs]
            try:
                qubits = [qmap[a] for a in args]
            except KeyError as exc:
                self.error(tok, f"unknown qubit argument {exc.args[0]!r}")


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
