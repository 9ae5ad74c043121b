"""OpenQASM 2.0 frontend: a closed-subset parser and a canonical emitter.

Supported grammar (whitespace and // comments between any tokens):

    program := "OPENQASM 2.0;" include? (decl | stmt)*
    include := "include" STRING ";"
    decl    := ("qreg" | "creg") ID "[" INT "]" ";"
    stmt    := ID params? args ";"              (gate application)
             | "measure" arg "->" arg ";"
             | "barrier" args ";"
    params  := "(" expr ("," expr)* ")"
    arg     := ID ("[" INT "]")?

Parameter expressions are evaluated to 64-bit floats at parse time and may
use float/int literals, ``pi``, unary minus, ``+ - * /`` and parentheses.
Number literals are ASCII and complete: ``1e`` or ``²`` is a syntax error,
and so is a literal or an operation whose value overflows a 64-bit float.
The tokenizer is one regular expression; a token is a (kind, text, offset)
tuple, and line and column are computed from the offset only for an error.
There is one token per lexeme: a register argument ``q[3]`` is the four
tokens id, "[", number and "]", however it is spaced.

A register is declared before its first use, as OpenQASM 2.0 requires, so
each statement is lowered into the circuit as soon as it is read, and the
first error in source order is raised.  Within a statement, syntax comes
first, then the gate name, the counts, registers, widths and duplicates.

Gate applications on whole registers broadcast to per-index gates; a
whole-register ``measure q -> c`` expands pairwise.  Error taxonomy:
syntactic problems (including wrong parameter counts, division by zero and
overflow) raise :class:`QasmSyntaxError`; unknown gate names raise
:class:`UnknownGate`; operand resolution problems (undeclared registers,
out-of-range indices, broadcast width mismatches, duplicate qubits) raise
:class:`RegisterError`; recognized-but-excluded constructs (``gate``
definitions, ``if``, ``reset``, OpenQASM 3 syntax) raise
:class:`UnsupportedFeature`.
"""

from __future__ import annotations

import math
import re

from .circuit import GATE_SIGNATURES, Circuit, Gate, Measure


class QasmError(Exception):
    """Base class for all frontend errors."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}" if line else message)


class QasmSyntaxError(QasmError):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.expected = expected
        if expected:
            message = f"{message} (expected {', '.join(expected)})"
        super().__init__(message, line, col)


class UnknownGate(QasmError):
    pass


class RegisterError(QasmError):
    pass


class UnsupportedFeature(QasmError):
    pass


_UNSUPPORTED_KEYWORDS = {"gate", "if", "reset", "opaque"}

# One token per match, with the whitespace and // comments after it.  Number
# literals are ASCII and complete: "partial" is one whose exponent has no
# digits.  "bad" takes any other character, so matches run back to back.
# "symbol" is tried first as the most frequent token: no other alternative
# but "bad" starts with a symbol's character, so the order changes no match.
_TOKEN = re.compile(
    r"""(?:(?P<symbol>->|==|[()\[\],;+\-*/{}])
         |(?P<id>[^\W\d]\w*)
         |(?P<partial>(?:[0-9]+\.?[0-9]*|\.[0-9]+)[eE](?![+-]?[0-9])[+-]?)
         |(?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
         |"(?P<string>[^"\n]*)"
         |(?P<bad>.)
       )[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*""",
    re.VERBOSE | re.DOTALL,
)
_LEADING_SKIP = re.compile(r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*")
_ERRORS = frozenset({"partial", "bad"})

# (kind, text, offset): kind is id | number | string | symbol | eof; a
# string's text leaves out its quotes, and its offset is the opening quote
_Token = tuple[str, str, int]


def _location(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of a character offset; a tab is one column."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN.finditer(text, _LEADING_SKIP.match(text).end()):
        kind = m.lastgroup
        if kind in _ERRORS:
            _check_id_starts(text, tokens)
            raise _bad_token(text, m.group(kind), m.start())
        tokens.append((kind, m.group(kind), m.start()))
    _check_id_starts(text, tokens)
    tokens.append(("eof", "", len(text)))
    return tokens


def _check_id_starts(text: str, tokens: list[_Token]) -> None:
    """Raise at the first id that starts with a non-letter: the id pattern
    also takes a digit that is not decimal, such as "²", as a start."""
    if text.isascii():
        return
    for kind, word, offset in tokens:
        if kind == "id" and not (word[0].isalpha() or word[0] == "_"):
            raise _bad_token(text, word[0], offset)


def _bad_token(text: str, token: str, offset: int) -> QasmSyntaxError:
    ch = token[0]
    if len(token) > 1:
        message = f"number literal {token!r} has an exponent without digits"
    elif ch == '"':
        message = "unterminated string"
    elif ch.isdigit():
        message = f"number literal must use ASCII digits, got {ch!r}"
    else:
        message = f"unexpected character {ch!r}"
    return QasmSyntaxError(message, *_location(text, offset))


# (register, index or None for the whole register, offset of the register
# name): a plain tuple, as there is one per argument
_Arg = tuple[str, int | None, int]

_MAX_EXPR_DEPTH = 64


class _Parser:
    """Reads a program and lowers each statement into ``circuit`` as it goes."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.expr_depth = 0
        self.circuit = Circuit(0, 0)
        # register name -> (first flat index, width), in the order declared
        self.qregs: dict[str, tuple[int, int]] = {}
        self.cregs: dict[str, tuple[int, int]] = {}

    def at(self, offset: int) -> tuple[int, int]:
        return _location(self.text, offset)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def symbol(self) -> str | None:
        """The next token's text if it is a symbol, else None."""
        kind, text, _ = self.tokens[self.pos]
        return text if kind == "symbol" else None

    def unexpected(
        self, tok: _Token, where: str = "", expected: tuple[str, ...] = ()
    ) -> QasmSyntaxError:
        kind, text, offset = tok
        return QasmSyntaxError(f"unexpected {kind} {text!r}{where}", *self.at(offset), expected)

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind or (text is not None and tok[1] != text):
            raise self.unexpected(tok, expected=(text if text is not None else kind,))
        self.pos += 1
        return tok

    # -- header ----------------------------------------------------------

    def parse_program(self) -> Circuit:
        self.expect("id", "OPENQASM")
        _, ver, offset = self.expect("number")
        if ver != "2.0":
            raise UnsupportedFeature(f"OPENQASM version {ver} not supported", *self.at(offset))
        self.expect("symbol", ";")
        if self.peek()[:2] == ("id", "include"):
            self.next()
            _, fname, offset = self.expect("string")
            if fname != "qelib1.inc":
                raise UnsupportedFeature(f"include {fname!r} not supported", *self.at(offset))
            self.expect("symbol", ";")
        while self.peek()[0] != "eof":
            self.parse_statement()
        return self.circuit

    # -- statements ------------------------------------------------------

    def parse_statement(self) -> None:
        tok = self.peek()
        kind, word, offset = tok
        if kind != "id":
            raise self.unexpected(tok, expected=("statement",))
        if word in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedFeature(f"{word!r} is not supported", *self.at(offset))
        if word in ("qreg", "creg"):
            self.parse_decl()
        elif word == "measure":
            self.parse_measure()
        elif word == "barrier":
            self.parse_barrier()
        else:
            self.parse_gate()

    def parse_int(self, what: str) -> int:
        _, text, offset = self.expect("number")
        try:
            return int(text)
        except ValueError:
            raise QasmSyntaxError(
                f"{what} must be an integer, got {text!r}", *self.at(offset)
            ) from None

    def parse_decl(self) -> None:
        _, kw, _ = self.next()
        _, name, offset = self.expect("id")
        self.expect("symbol", "[")
        width = self.parse_int("register width")
        self.expect("symbol", "]")
        self.expect("symbol", ";")
        if width < 1:
            raise RegisterError(f"register {name!r} has width {width} < 1", *self.at(offset))
        if name in self.qregs or name in self.cregs:
            raise RegisterError(f"register {name!r} redeclared", *self.at(offset))
        c = self.circuit
        if kw == "qreg":
            self.qregs[name] = (c.num_qubits, width)
            c.num_qubits += width
        else:
            self.cregs[name] = (c.num_clbits, width)
            c.num_clbits += width

    def parse_arg(self) -> _Arg:
        _, name, offset = self.expect("id")
        index = None
        if self.symbol() == "[":
            self.next()
            index = self.parse_int("index")
            self.expect("symbol", "]")
        return name, index, offset

    def parse_args(self) -> tuple[_Arg, ...]:
        args = [self.parse_arg()]
        while self.symbol() == ",":
            self.next()
            args.append(self.parse_arg())
        self.expect("symbol", ";")
        return tuple(args)

    def resolve(self, arg: _Arg, quantum: bool) -> list[int]:
        """Flat indices of a register argument, against the registers declared so far."""
        reg, index, offset = arg
        span = (self.qregs if quantum else self.cregs).get(reg)
        space = "qreg" if quantum else "creg"
        if span is None:
            raise RegisterError(f"undeclared {space} {reg!r}", *self.at(offset))
        start, width = span
        if index is None:
            return list(range(start, start + width))
        if not 0 <= index < width:
            raise RegisterError(
                f"index {index} out of range for {space} {reg!r} of width {width}",
                *self.at(offset),
            )
        return [start + index]

    def parse_measure(self) -> None:
        offset = self.next()[2]
        src = self.parse_arg()
        self.expect("symbol", "->")
        dst = self.parse_arg()
        self.expect("symbol", ";")
        qs = self.resolve(src, quantum=True)
        cs = self.resolve(dst, quantum=False)
        if (src[1] is None) != (dst[1] is None):  # one side indexed
            raise RegisterError(
                "measure requires both operands indexed or both whole registers",
                *self.at(offset),
            )
        if len(qs) != len(cs):
            raise RegisterError(
                f"measure width mismatch: {len(qs)} qubits -> {len(cs)} clbits",
                *self.at(offset),
            )
        for q, c in zip(qs, cs):
            self.circuit.measure(q, c)

    def parse_barrier(self) -> None:
        self.next()
        qubits = [q for arg in self.parse_args() for q in self.resolve(arg, quantum=True)]
        self.circuit.barrier(*qubits)

    def parse_gate(self) -> None:
        _, name, offset = self.next()
        params: tuple[float, ...] = ()
        if self.symbol() == "(":
            self.next()
            exprs = [self.parse_expr()]
            while self.symbol() == ",":
                self.next()
                exprs.append(self.parse_expr())
            self.expect("symbol", ")")
            params = tuple(exprs)
        args = self.parse_args()
        sig = GATE_SIGNATURES.get(name)
        if sig is None:
            raise UnknownGate(f"unknown gate {name!r}", *self.at(offset))
        nq_expected, np_expected = sig
        if len(params) != np_expected:
            raise QasmSyntaxError(
                f"gate {name!r} expects {np_expected} parameter(s), got {len(params)}",
                *self.at(offset),
            )
        if len(args) != nq_expected:
            raise QasmSyntaxError(
                f"gate {name!r} expects {nq_expected} qubit argument(s), got {len(args)}",
                *self.at(offset),
            )
        operands = [self.resolve(arg, quantum=True) for arg in args]
        widths = {len(ops) for ops in operands}
        widths.discard(1)
        if len(widths) > 1:
            raise RegisterError(
                f"broadcast width mismatch in {name!r}: {sorted(widths)}", *self.at(offset)
            )
        repeat = widths.pop() if widths else 1
        # a one-qubit operand repeats across a broadcast
        columns = [ops if len(ops) > 1 else ops * repeat for ops in operands]
        for qubits in zip(*columns):
            if len(qubits) > 1 and len(set(qubits)) != len(qubits):
                raise RegisterError(
                    f"duplicate qubit operands in {name!r}: {qubits}", *self.at(offset)
                )
            self.circuit.add(name, qubits, params)

    # -- parameter expressions --------------------------------------------

    def parse_expr(self) -> float:
        value = self.parse_term()
        while self.symbol() in ("+", "-"):
            _, op, offset = self.next()
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
            self.check_finite(value, op, offset)
        return value

    def parse_term(self) -> float:
        value = self.parse_factor()
        while self.symbol() in ("*", "/"):
            _, op, offset = self.next()
            rhs = self.parse_factor()
            if op == "/":
                if rhs == 0.0:
                    raise QasmSyntaxError("division by zero in parameter", *self.at(offset))
                value = value / rhs
            else:
                value = value * rhs
            self.check_finite(value, op, offset)
        return value

    def check_finite(self, value: float, op: str, offset: int) -> None:
        if math.isinf(value):
            raise QasmSyntaxError(
                f"parameter overflows a 64-bit float at {op!r}", *self.at(offset)
            )

    def parse_factor(self) -> float:
        tok = self.peek()
        kind, text, offset = tok
        if self.expr_depth > _MAX_EXPR_DEPTH:
            raise QasmSyntaxError("expression too deeply nested", *self.at(offset))
        if kind == "symbol" and text == "-":
            self.next()
            self.expr_depth += 1
            try:
                return -self.parse_factor()
            finally:
                self.expr_depth -= 1
        if kind == "symbol" and text == "(":
            self.next()
            self.expr_depth += 1
            try:
                value = self.parse_expr()
            finally:
                self.expr_depth -= 1
            self.expect("symbol", ")")
            return value
        if kind == "number":
            self.next()
            value = float(text)
            if math.isinf(value):
                raise QasmSyntaxError(
                    f"number literal {text!r} overflows a 64-bit float", *self.at(offset)
                )
            return value
        if kind == "id" and text == "pi":
            self.next()
            return math.pi
        raise self.unexpected(tok, " in expression", ("number", "pi", "(", "-"))


def parse_qasm(text: str | bytes) -> Circuit:
    """Parse OpenQASM 2.0 source into a Circuit.

    Accepts bytes for convenience; invalid UTF-8 is reported as a syntax
    error rather than raising UnicodeDecodeError.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise QasmSyntaxError(f"input is not valid UTF-8: {exc}", 1, 1) from None
    return _Parser(text).parse_program()


def _format_angle(value: float) -> str:
    # repr round-trips doubles exactly, keeping emit(parse(emit(c))) a fixed point
    return repr(value)


def emit_qasm(c: Circuit) -> str:
    """Render a Circuit as canonical QASM text.

    One flat qreg ``q`` (and creg ``c`` if the circuit has clbits); one
    statement per op in circuit order.  ``parse_qasm(emit_qasm(c))`` is
    structurally equal to ``c``.
    """
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    if c.num_qubits > 0:
        lines.append(f"qreg q[{c.num_qubits}];")
    if c.num_clbits > 0:
        lines.append(f"creg c[{c.num_clbits}];")
    for op in c.ops:
        if isinstance(op, Gate):
            args = ",".join(f"q[{q}]" for q in op.qubits)
            if op.params:
                params = ",".join(_format_angle(p) for p in op.params)
                lines.append(f"{op.kind}({params}) {args};")
            else:
                lines.append(f"{op.kind} {args};")
        elif isinstance(op, Measure):
            lines.append(f"measure q[{op.qubit}] -> c[{op.clbit}];")
        elif op.qubits:
            args = ",".join(f"q[{q}]" for q in op.qubits)
            lines.append(f"barrier {args};")
    return "\n".join(lines) + "\n"
