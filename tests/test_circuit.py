"""The one straight-line circuit grammar behind the Tucker labeling
circuits (BoolCircuit) and the fixed-point circuits (TruncCircuit,
LinFixpCircuit): round trips, malformed lines and the wire check."""

from fractions import Fraction

import pytest

from chdiv.fixp import (TruncCircuit, LinFixpCircuit, compile_fixp,
                        eval_linfixp, to_truncated)
from chdiv.tucker import BoolCircuit, demo_labeling
from conftest import LIN_TEXT, format_circuit


F = Fraction

ROUND_TRIP = {
    "tucker-demo-1": lambda: demo_labeling(1).circuit,
    "tucker-demo-2": lambda: demo_labeling(2).circuit,
    "trunc-consts": lambda: TruncCircuit.parse(
        "IN x1\nIN x2\nCONST 1/3 -> a\nCONST -1/2 -> b\nOUT a\nOUT b\n"),
    "trunc-mixed": lambda: TruncCircuit.parse(
        "IN x1  # comment\n\nIN x2\nMUL -0.25 x2 -> m\nADD m x1 -> s\n"
        "CONST 1 -> c\nOUT s\nOUT c\n"),
    "linfixp": lambda: LinFixpCircuit.parse(LIN_TEXT),
    "to_truncated": lambda: to_truncated(LinFixpCircuit.parse(LIN_TEXT)),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP))
def test_parse_format_round_trip(name):
    circ = ROUND_TRIP[name]()
    text = format_circuit(circ)
    again = type(circ).parse(text)
    assert format_circuit(again) == text
    assert (again.inputs, again.gates, again.outputs) == (
        circ.inputs, circ.gates, circ.outputs)


def test_format_writes_the_documented_text():
    assert format_circuit(demo_labeling(1).circuit) == (
        "INPUT 0\nINPUT 1\nINPUT 2\nNOT 0 -> 3\nNOT 3 -> 4\n"
        "OUTPUT 3\nOUTPUT 3\n")
    text = "IN x1\nIN x2\nMUL 1/4 x1 -> a\nADD a x2 -> s\nOUT s\nOUT a\n"
    assert format_circuit(
        TruncCircuit.parse(text.replace("1/4", "0.25"))) == text


# one line per defect and grammar; each would be a valid line but for
# its defect.  BoolCircuit has no rational parameters, so its bad
# rational stands where a wire belongs.
BOOL_LINES = {
    "missing arrow": "AND 0 1 2",
    "wrong arity": "NOT 0 1 -> 2",
    "unknown op": "XOR 0 1 -> 2",
    "bad rational": "AND 0 1/2 -> 2",
    "bad wire type": "NOT a -> 2",
}
PLANE_LINES = {
    "missing arrow": "ADD x1 x2 s",
    "wrong arity": "MUL 1/2 x1 x2 -> s",
    "unknown op": "SUB x1 x2 -> s",
    "bad rational": "MUL 1e5000 x1 -> s",
    "bad wire type": "ADD x1 -> -> s",
}
GRAMMARS = {"bool": (BoolCircuit, "INPUT 0\nINPUT 1\n", BOOL_LINES),
            "trunc": (TruncCircuit, "IN x1\nIN x2\n", PLANE_LINES),
            "linfixp": (LinFixpCircuit, "IN x1\nIN x2\n", PLANE_LINES)}


@pytest.mark.parametrize("grammar", sorted(GRAMMARS))
@pytest.mark.parametrize("defect", sorted(PLANE_LINES))
def test_malformed_line_is_rejected_with_its_number(grammar, defect):
    cls, head, lines = GRAMMARS[grammar]
    with pytest.raises(ValueError, match="bad circuit line 3:"):
        cls.parse(head + lines[defect] + "\n")


@pytest.mark.parametrize("line", ["IN", "OUT x1 x2", "CONST 1/3 -> ->",
                                  "CONST 1/0 -> c", "MUL abc x1 -> a",
                                  "-> a"])
def test_more_malformed_plane_lines(line):
    with pytest.raises(ValueError, match="bad circuit line 2:"):
        TruncCircuit.parse("IN x1\n" + line + "\n")


@pytest.mark.parametrize("text,message", [
    ("INPUT 0\nINPUT 0\nOUTPUT 0\n", "duplicate input"),
    ("INPUT 0\nNOT 1 -> 2\nOUTPUT 2\n", "used before definition"),
    ("INPUT 0\nNOT 0 -> 1\nNOT 0 -> 1\nOUTPUT 1\n", "defined twice"),
    ("INPUT 0\nNOT 0 -> 0\nOUTPUT 0\n", "defined twice"),
    ("INPUT 0\nOUTPUT 1\n", "undefined output"),
])
def test_bool_wire_check(text, message):
    with pytest.raises(ValueError, match=message):
        BoolCircuit.parse(text)


def test_constructor_checks_ops_and_arity():
    with pytest.raises(ValueError, match="unknown op"):
        BoolCircuit([0], [("XOR", (0, 0), 1)], [1])
    with pytest.raises(ValueError, match="NOT expects 1 args"):
        BoolCircuit([0], [("NOT", (0, 0), 1)], [1])
    with pytest.raises(ValueError, match="unknown op"):
        TruncCircuit(["a", "b"], [("MAX", ("a", "b"), "m")], ["m", "a"])


# --- input defects of the fixed-point circuits -------------------------------


def test_mul_rational_obeys_the_exponent_cap():
    with pytest.raises(ValueError, match="bad circuit line 3:"):
        TruncCircuit.parse("IN x1\nIN x2\nMUL 1e5000 x1 -> a\nOUT a\nOUT x2\n")


def test_linfixp_rejects_an_undefined_wire():
    with pytest.raises(ValueError, match="used before definition"):
        LinFixpCircuit.parse("IN x1\nIN x2\nADD x1 y -> s\nOUT s\nOUT x2\n")
    with pytest.raises(ValueError, match="undefined output"):
        LinFixpCircuit.parse("IN x1\nIN x2\nOUT s\nOUT x2\n")


@pytest.mark.parametrize("cls", [TruncCircuit, LinFixpCircuit])
def test_plane_circuits_reject_a_duplicated_input(cls):
    with pytest.raises(ValueError, match="duplicate input"):
        cls.parse("IN x1\nIN x1\nOUT x1\nOUT x1\n")
    with pytest.raises(ValueError, match="two inputs and two outputs"):
        cls.parse("IN x1\nIN x2\nOUT x1\n")


def test_trunc_constant_must_lie_in_the_unit_interval():
    with pytest.raises(ValueError, match="outside"):
        TruncCircuit.parse("IN x1\nIN x2\nCONST 3/2 -> c\nOUT c\nOUT x2\n")


def test_compile_fixp_names_an_op_it_cannot_place():
    lin = LinFixpCircuit.parse(LIN_TEXT)
    assert eval_linfixp(lin, (F(1, 2), F(3, 4))) == (F(1, 2), F(3, 4))
    with pytest.raises(ValueError, match="MAX"):
        compile_fixp(lin)


def test_run_checks_the_input_count():
    with pytest.raises(ValueError, match="expected 3 input values"):
        demo_labeling(1).circuit.evaluate([1, -1])
