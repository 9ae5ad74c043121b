"""Parser and emitter tests: grammar, broadcasting, errors, round-trips."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfid.bench import default_suite, generate
from qfid.circuit import Circuit, Gate
from qfid.qasm import (
    QasmError,
    QasmSyntaxError,
    RegisterError,
    UnknownGate,
    UnsupportedFeature,
    emit_qasm,
    parse_qasm,
)

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def test_basic_program():
    c = parse_qasm(HEADER + "qreg q[2]; creg c[2]; h q[0]; cx q[0],q[1]; measure q -> c;")
    assert c.num_qubits == 2
    assert c.num_clbits == 2
    kinds = [type(op).__name__ if not isinstance(op, Gate) else op.kind for op in c.ops]
    assert kinds == ["h", "cx", "Measure", "Measure"]
    assert c.ops[0].qubits == (0,)
    assert c.ops[1].qubits == (0, 1)
    assert (c.ops[2].qubit, c.ops[2].clbit) == (0, 0)
    assert (c.ops[3].qubit, c.ops[3].clbit) == (1, 1)


def test_pi_expression():
    c = parse_qasm(HEADER + "qreg q[1]; rz(pi/2) q[0];")
    assert c.ops[0].params[0] == pytest.approx(1.5707963267948966, abs=1e-15)


def test_expression_arithmetic():
    c = parse_qasm(HEADER + "qreg q[1]; u3(-pi/4, 2*0.5+1, (1-3)/4) q[0];")
    assert c.ops[0].params == pytest.approx((-math.pi / 4, 2.0, -0.5))


def test_out_of_range_index():
    with pytest.raises(RegisterError):
        parse_qasm(HEADER + "qreg q[2]; cx q[0], q[5];")


def test_undeclared_register():
    with pytest.raises(RegisterError):
        parse_qasm(HEADER + "qreg q[2]; h r[0];")


def test_unknown_gate():
    with pytest.raises(UnknownGate):
        parse_qasm(HEADER + "qreg q[1]; bogus q[0];")


def test_unsupported_features():
    with pytest.raises(UnsupportedFeature):
        parse_qasm(HEADER + "gate foo a { h a; }")
    with pytest.raises(UnsupportedFeature):
        parse_qasm(HEADER + "qreg q[1]; creg c[1]; if (c == 1) x q[0];")
    with pytest.raises(UnsupportedFeature):
        parse_qasm(HEADER + "qreg q[1]; reset q[0];")
    with pytest.raises(UnsupportedFeature):
        parse_qasm("OPENQASM 3.0;\nqubit[2] q;")


def test_division_by_zero_is_syntax_error():
    with pytest.raises(QasmSyntaxError):
        parse_qasm(HEADER + "qreg q[1]; rz(1/0) q[0];")


def test_register_declared_after_gates_parses():
    late = parse_qasm(HEADER + "qreg a[1]; h a[0]; qreg b[2]; creg c[1]; cx a[0], b[1];"
                      " measure b[0] -> c[0];")
    early = parse_qasm(HEADER + "qreg a[1]; qreg b[2]; creg c[1]; h a[0]; cx a[0], b[1];"
                       " measure b[0] -> c[0];")
    assert late == early
    assert (late.num_qubits, late.num_clbits) == (3, 1)
    assert [op.qubits for op in late.gates] == [(0,), (0, 2)]


def test_broadcast_whole_register():
    c = parse_qasm(HEADER + "qreg q[3]; h q;")
    assert [op.qubits for op in c.ops] == [(0,), (1,), (2,)]


def test_broadcast_two_registers_pairwise():
    c = parse_qasm(HEADER + "qreg a[2]; qreg b[2]; cx a, b;")
    assert [op.qubits for op in c.ops] == [(0, 2), (1, 3)]


def test_broadcast_mixed_fixed_and_register():
    c = parse_qasm(HEADER + "qreg a[1]; qreg b[3]; cx a[0], b;")
    assert [op.qubits for op in c.ops] == [(0, 1), (0, 2), (0, 3)]


def test_broadcast_width_mismatch():
    with pytest.raises(RegisterError):
        parse_qasm(HEADER + "qreg a[2]; qreg b[3]; cx a, b;")


def test_measure_width_mismatch():
    with pytest.raises(RegisterError):
        parse_qasm(HEADER + "qreg q[2]; creg c[3]; measure q -> c;")


def test_duplicate_operand_rejected():
    with pytest.raises(RegisterError):
        parse_qasm(HEADER + "qreg q[2]; cx q[0], q[0];")


def test_duplicate_register_name():
    with pytest.raises(RegisterError):
        parse_qasm(HEADER + "qreg q[2]; creg q[2];")


def test_zero_width_register():
    with pytest.raises(RegisterError):
        parse_qasm(HEADER + "qreg q[0];")


def test_param_count_mismatch():
    with pytest.raises(QasmSyntaxError):
        parse_qasm(HEADER + "qreg q[1]; rz q[0];")


def test_error_carries_location():
    with pytest.raises(QasmSyntaxError) as info:
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[0)")
    assert info.value.line == 3



# (class, line, col) of errors after tabs, CRLF line ends and // comments; a
# tab and a CR are one column each
_ERROR_LOCATIONS = {
    "tab before a bad character": (
        HEADER + "qreg q[2];\n\th\tq[0] $;\n", QasmSyntaxError, 4, 9),
    "tabs before an unknown gate": (
        HEADER + "qreg q[2];\n\t\tbogus q[0];\n", UnknownGate, 4, 3),
    "crlf, missing semicolon": (
        'OPENQASM 2.0;\r\ninclude "qelib1.inc";\r\nqreg q[2];\r\nh q[0]\r\ncx q[0],q[1];\r\n',
        QasmSyntaxError, 5, 1),
    "crlf, index out of range": (
        "OPENQASM 2.0;\r\nqreg q[2];\r\n  cx q[0], q[7];\r\n", RegisterError, 3, 12),
    "comments holding symbols": (
        HEADER + "// header comment ; with ( symbols\nqreg q[1]; // trailing ]\n  h q[0) ;\n",
        QasmSyntaxError, 5, 8),
    "comment, then an unterminated string": (
        'OPENQASM 2.0; // v2\ninclude "qelib1.inc\n', QasmSyntaxError, 2, 9),
    "comment, tab and crlf before a parameter count": (
        HEADER + "qreg q[1];\t// x\r\n\trz(pi, 1)\tq[0];\r\n", QasmSyntaxError, 4, 2),
    "tabs before an undeclared register": (
        HEADER + "qreg q[1];\n\t\t\th r[0];", RegisterError, 4, 6),
    "use before declaration": (
        HEADER + "\th q[0];\nqreg q[1];\n", RegisterError, 3, 4),
    "two errors, the earlier one": (
        HEADER + "qreg q[1];\n\tbogus q[0];\r\nrx(1e400) q[0];\n", UnknownGate, 4, 2),
}


@pytest.mark.parametrize("case", sorted(_ERROR_LOCATIONS))
def test_error_locations_after_tabs_crlf_and_comments(case):
    text, klass, line, col = _ERROR_LOCATIONS[case]
    with pytest.raises(QasmError) as info:
        parse_qasm(text)
    assert (type(info.value), info.value.line, info.value.col) == (klass, line, col)


def test_end_of_input_after_a_comment_is_located_after_it():
    # the end of input sits after the comment's last character
    with pytest.raises(QasmSyntaxError) as info:
        parse_qasm(HEADER + "qreg q[1];\nh q[0] // no semicolon")
    assert (info.value.line, info.value.col) == (4, 23)


# (class, message, line, col) of errors in or next to a register argument
# "ID[INT]": they pin the texts and locations the parser gives, read token by
# token
_MERGED_TOKEN_ERRORS = {
    "arguments without a comma": (
        HEADER + "qreg q[2];\ncx q[0] q[1];\n",
        QasmSyntaxError, "unexpected id 'q' (expected ;)", 4, 9),
    "spaced index": (
        HEADER + "qreg q[2];\nh q [ 7 ];\n",
        RegisterError, "index 7 out of range for qreg 'q' of width 2", 4, 3),
    "fractional index": (
        HEADER + "qreg q[2];\nh q[1.5];\n",
        QasmSyntaxError, "index must be an integer, got '1.5'", 4, 5),
    "negative index": (
        HEADER + "qreg q[2];\nh q[-1];\n",
        QasmSyntaxError, "unexpected symbol '-' (expected number)", 4, 5),
    "superscript index": (
        HEADER + "qreg q[2];\nh q[\u00b2];\n",
        QasmSyntaxError, "number literal must use ASCII digits, got '\u00b2'", 4, 5),
    "zero width": (
        HEADER + "qreg q[0];\n",
        RegisterError, "register 'q' has width 0 < 1", 3, 6),
    "fractional width": (
        HEADER + "qreg q[1.5];\n",
        QasmSyntaxError, "register width must be an integer, got '1.5'", 3, 8),
    "no width": (
        HEADER + "qreg q;\n",
        QasmSyntaxError, "unexpected symbol ';' (expected [)", 3, 7),
    "non-ascii register name": (
        HEADER + "qreg q\u00e9[2];\nh q\u00e9[3];\n",
        RegisterError, "index 3 out of range for qreg 'q\u00e9' of width 2", 4, 3),
    "crlf, missing semicolon": (
        "OPENQASM 2.0;\r\nqreg q[2];\r\nh q[0]\r\ncx q[0],q[1];\r\n",
        QasmSyntaxError, "unexpected id 'cx' (expected ;)", 4, 1),
    "crlf, index out of range": (
        "OPENQASM 2.0;\r\nqreg q[2];\r\n  cx q[0],q[7];\r\n",
        RegisterError, "index 7 out of range for qreg 'q' of width 2", 3, 11),
    "comment between name and bracket": (
        HEADER + "qreg q[2];\nh q// c\n[5];\n",
        RegisterError, "index 5 out of range for qreg 'q' of width 2", 4, 3),
    "indexed version keyword": (
        "OPENQASM[2];\n",
        QasmSyntaxError, "unexpected symbol '[' (expected number)", 1, 9),
    "indexed include": (
        "OPENQASM 2.0;\ninclude[0];\n",
        QasmSyntaxError, "unexpected symbol '[' (expected string)", 2, 8),
    "indexed gate name": (
        HEADER + "qreg q[1];\nh[0] q[0];\n",
        QasmSyntaxError, "unexpected symbol '[' (expected id)", 4, 2),
    "indexed qreg keyword": (
        HEADER + "qreg[2];\n",
        QasmSyntaxError, "unexpected symbol '[' (expected id)", 3, 5),
    "argument in an expression": (
        HEADER + "qreg q[1];\nrx(q[0]) q[0];\n",
        QasmSyntaxError, "unexpected id 'q' in expression (expected number, pi, (, -)", 4, 4),
    "indexed pi": (
        HEADER + "qreg q[1];\nrx(pi[0]) q[0];\n",
        QasmSyntaxError, "unexpected symbol '[' (expected ))", 4, 6),
    "double close bracket": (
        HEADER + "qreg q[2];\nh q[0]];\n",
        QasmSyntaxError, "unexpected symbol ']' (expected ;)", 4, 7),
    "statement glued to an argument": (
        HEADER + "qreg q[2];\ncx q[0],q[1]h q[0];\n",
        QasmSyntaxError, "unexpected id 'h' (expected ;)", 4, 13),
    "leading zero": (
        HEADER + "qreg q[2];\ncx q[01], q[0];\nh q[02];\n",
        RegisterError, "index 2 out of range for qreg 'q' of width 2", 5, 3),
}


@pytest.mark.parametrize("case", sorted(_MERGED_TOKEN_ERRORS))
def test_register_argument_token_errors_pinned(case):
    text, klass, message, line, col = _MERGED_TOKEN_ERRORS[case]
    with pytest.raises(QasmError) as info:
        parse_qasm(text)
    got = (type(info.value), str(info.value), info.value.line, info.value.col)
    assert got == (klass, f"line {line}, col {col}: {message}", line, col)


def test_register_argument_spellings_parse_alike():
    spellings = ["q[1]", "q [ 1 ]", "q\t[1 ]", "q// c\n[01]"]
    circuits = [parse_qasm(HEADER + f"qreg q[2];\ncx q[0],{arg};\n") for arg in spellings]
    assert all(c == circuits[0] for c in circuits)
    assert circuits[0].ops[0].qubits == (0, 1)


@pytest.mark.parametrize("statement", ["qreg q[{}];", "qreg q[1];\nh q[{}];"])
def test_index_too_long_for_int_reads_as_the_spaced_form(statement):
    # Python's int() refuses over 4300 digits; a merged token then falls back
    # to the token-by-token path, so it fails as "q[ digits]" does, one column on
    digits = "0" * 5000 + "1"
    errors = []
    for arg in (digits, " " + digits):
        try:
            parse_qasm(HEADER + statement.format(arg))
        except QasmError as exc:
            errors.append((type(exc), exc.line, exc.col, str(exc).split(": ", 1)[1]))
        else:
            errors.append(None)
    assert errors[0] is not None
    merged, spaced = errors
    assert merged[:2] == spaced[:2] and merged[2] + 1 == spaced[2] and merged[3] == spaced[3]


@pytest.mark.parametrize("expr,message,col", [
    ("1e400", "number literal '1e400' overflows a 64-bit float", 4),
    ("1e300*1e300", "parameter overflows a 64-bit float at '*'", 9),
    ("1.7e308+1.7e308", "parameter overflows a 64-bit float at '+'", 11),
    ("-1.7e308-1.7e308", "parameter overflows a 64-bit float at '-'", 12),
    ("1e300/1e-300", "parameter overflows a 64-bit float at '/'", 9),
])
def test_overflowing_parameter_is_a_located_syntax_error(expr, message, col):
    with pytest.raises(QasmSyntaxError) as info:
        parse_qasm(HEADER + f"qreg q[1];\nrx({expr}) q[0];")
    assert (str(info.value), info.value.line, info.value.col) == (
        f"line 4, col {col}: {message}", 4, col)


@pytest.mark.parametrize("literal,message", [
    ("1e", "exponent without digits"),
    ("2.5E+", "exponent without digits"),
    (".5e-", "exponent without digits"),
])
def test_number_literal_must_be_complete(literal, message):
    with pytest.raises(QasmSyntaxError, match=message) as info:
        parse_qasm(HEADER + f"qreg q[1];\nrx({literal}) q[0];")
    assert (info.value.line, info.value.col) == (4, 4)


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # superscript two, Arabic-Indic three
def test_number_literal_must_be_ascii(digit):
    with pytest.raises(QasmSyntaxError, match="ASCII digits") as info:
        parse_qasm(HEADER + f"qreg q[1];\nrx({digit}) q[0];")
    assert (info.value.line, info.value.col) == (4, 4)


def test_bad_number_literal_exits_1_not_traceback(tmp_path, capsys):
    from qfid.cli import main

    path = tmp_path / "bad.qasm"
    path.write_text(HEADER + "qreg q[1];\nrx(1e) q[0];\n", encoding="utf-8")
    assert main(["analyze", "--qasm", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: QasmSyntaxError: line 4, col 4:")


def test_exponents_and_unicode_identifiers_still_parse():
    c = parse_qasm(HEADER + "qreg q\u00e9[1];\nrx(1e-3) q\u00e9[0];\nrz(2.5E+2) q\u00e9[0];")
    assert [op.params for op in c.ops] == [(1e-3,), (250.0,)]

def test_comments_and_whitespace():
    text = HEADER + "// a comment\nqreg q[1]; // trailing\n  h   q[0]  ;\n"
    c = parse_qasm(text)
    assert len(c.ops) == 1


def test_barrier_expansion():
    c = parse_qasm(HEADER + "qreg q[3]; barrier q;")
    assert c.ops[0].qubits == (0, 1, 2)


def test_emit_single_h():
    c = Circuit(1)
    c.add("h", (0,))
    text = emit_qasm(c)
    assert text.count("h q[0];") == 1


def test_emit_empty_one_qubit():
    text = emit_qasm(Circuit(1))
    assert text == 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'


def test_round_trip_structural_equality():
    c = Circuit(3, 3)
    c.add("h", (0,))
    c.add("rz", (1,), (0.1234567890123456,))
    c.add("cx", (0, 2))
    c.barrier(0, 1)
    c.measure(2, 0)
    assert parse_qasm(emit_qasm(c)) == c


def test_round_trip_benchmark_suite():
    for spec in default_suite():
        c = generate(spec)
        again = parse_qasm(emit_qasm(c))
        assert again == c, spec.label()


def test_second_emit_byte_identical():
    for spec in default_suite()[:8]:
        text1 = emit_qasm(generate(spec))
        text2 = emit_qasm(parse_qasm(text1))
        assert text1 == text2, spec.label()


def test_bytes_input_and_bad_utf8():
    c = parse_qasm((HEADER + "qreg q[1]; x q[0];").encode())
    assert len(c.ops) == 1
    with pytest.raises(QasmSyntaxError):
        parse_qasm(b"OPENQASM 2.0;\xff\xfe")


# a parameter of two literals, where either literal or the operation between
# them may overflow a 64-bit float, then random text
_LITERALS = st.sampled_from(["1e400", "1e308", "1.7e308", "1e300", "1e-300", "2", "pi"])
_OVERFLOWING = st.builds(
    lambda a, op, b, tail: f"{HEADER}qreg q[2];\nrx({a}{op}{b}) q[0];\n{tail}",
    _LITERALS, st.sampled_from(["+", "-", "*", "/", "*-", ","]), _LITERALS, st.text(max_size=40),
)


@given(st.text(max_size=300) | _OVERFLOWING)
@settings(max_examples=300, deadline=None)
def test_parser_never_crashes_on_text(text):
    try:
        parse_qasm(text)
    except QasmError:
        pass


@given(st.binary(max_size=300))
@settings(max_examples=300, deadline=None)
def test_parser_never_crashes_on_bytes(data):
    try:
        parse_qasm(data)
    except QasmError:
        pass


@given(
    st.lists(
        st.sampled_from(["h q[0];", "x q[1];", "cx q[0],q[1];", "rz(0.5) q[0];",
                         "measure q[0] -> c[0];", "barrier q;"]),
        max_size=12,
    )
)
@settings(max_examples=100, deadline=None)
def test_round_trip_random_programs(stmts):
    text = HEADER + "qreg q[2]; creg c[2];\n" + "\n".join(stmts)
    try:
        c = parse_qasm(text)
    except QasmError:
        return
    assert parse_qasm(emit_qasm(c)) == c
