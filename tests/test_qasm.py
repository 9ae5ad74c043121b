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


@given(st.text(max_size=300))
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
