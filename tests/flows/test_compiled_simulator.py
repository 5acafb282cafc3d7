"""The compiled netlist simulator against the tree-walking interpreter.

``NetlistSimulator`` runs each netlist's clock step as Python source
generated once at elaboration.  The semantics it must keep are defined by
the interpreter it replaced, kept here as ``netlist_interpreter``: random
modules built from every operator and statement form the Verilog subset
has must give identical ``step()`` samples, ``values`` and ``arrays`` on
both, cycle by cycle, or raise the same error.
"""

from __future__ import annotations

import functools
import io
import re
import tokenize

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netlist_interpreter import InterpretedSimulator
from repro.flows.netlist import ElaborationError, NetlistSimulator, elaborate
from repro.flows.verilog import parse_module_text

CYCLES = 16
BINARY_OPS = ["+", "-", "*", "/", "%", "&", "|", "^", "&&", "||",
              "==", "!=", "<", "<=", ">", ">=", "<<", ">>", ">>>"]


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, never swallowed
        return (type(exc), str(exc))


def run_both(source: str, cycles: list[dict]) -> None:
    """Simulate ``source`` on both simulators and compare every cycle."""
    netlist = elaborate(parse_module_text(source))
    compiled = NetlistSimulator(netlist)
    reference = InterpretedSimulator(netlist)
    assert outcome(compiled.settle) == outcome(reference.settle)
    assert compiled.values == reference.values
    for cycle, inputs in enumerate(cycles):
        got = outcome(compiled.step, inputs)
        want = outcome(reference.step, inputs)
        assert got == want, (cycle, source)
        if isinstance(want, tuple):
            return
        assert compiled.values == reference.values, (cycle, source)
        assert compiled.arrays == reference.arrays, (cycle, source)


# ----------------------------------------------------------------------
# Random modules
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _ints(low: int, high: int):
    return st.integers(low, high)


def _int(draw, low: int, high: int) -> int:
    return draw(_ints(low, high))


def _pick(draw, options):
    return options[_int(draw, 0, len(options) - 1)]


class _Design:
    """The declarations of one random module, and what code may read."""

    def __init__(self, draw):
        self.inputs = {"i0": _int(draw, 1, 40), "i1": 3, "i2": _int(draw, 1, 40)}
        self.regs = {"r0": _int(draw, 1, 40), "r1": _int(draw, 1, 40), "r2": 1}
        self.arrays = {name: (_int(draw, 1, 20), _int(draw, 1, 6))
                       for name in ("buf", "mem")}
        self.wires: dict[str, int] = {}
        self.outputs = {"o0": _int(draw, 1, 40), "o1": _int(draw, 1, 40)}
        self.q_width = _int(draw, 1, 40)
        self.scalars = sorted({**self.inputs, **self.regs}.items())

    def readable(self) -> list[str]:
        # k is the loop variable and t a blocking temporary (both integers)
        return sorted({**self.inputs, **self.regs, **self.wires}) + ["q", "k", "t"]


def _constant(draw) -> str:
    width = _int(draw, 1, 40)
    value = _int(draw, 0, (1 << width) - 1)
    return _pick(draw, [str(value % 1000), f"{width}'d{value}", f"{width}'h{value:x}"])


_SHIFT_AMOUNTS = ["i1", "r2", "0", "1", "3", "17", "40", "4'd9"]
_EXPRESSION_FORMS = ["unary", "binary", "binary", "binary", "ternary", "concat",
                     "signed", "array", "bit", "slice", "shift", "call"]


def _expression(draw, design: _Design, depth: int) -> str:
    """A random expression over every operator of the Verilog subset."""
    if depth == 0 or _int(draw, 0, 4) == 0:
        if _int(draw, 0, 1):
            return _pick(draw, design.readable())
        return _constant(draw)

    def sub() -> str:
        return _expression(draw, design, depth - 1)

    form = _pick(draw, _EXPRESSION_FORMS)
    if form == "unary":
        return f"({_pick(draw, ['~', '-', '!'])}{sub()})"
    if form == "binary":
        op = _pick(draw, BINARY_OPS)
        if op in ("<<", ">>", ">>>"):
            return f"({sub()} {op} {_pick(draw, _SHIFT_AMOUNTS)})"
        left, right = sub(), sub()
        signed = _pick(draw, ["", "", "left", "right", "both"])
        if signed in ("left", "both"):
            left = f"$signed({left})"
        if signed in ("right", "both"):
            right = f"$signed({right})"
        return f"({left} {op} {right})"
    if form == "ternary":
        return f"({sub()} ? {sub()} : {sub()})"
    if form == "concat":
        return "{" + ", ".join(sub() for _ in range(_int(draw, 1, 3))) + "}"
    if form == "signed":
        return f"$signed({sub()})"
    if form == "call":
        return f"fu_sqrt({sub()})"
    if form == "array":
        name = _pick(draw, sorted(design.arrays))
        size = design.arrays[name][1]
        index = str(_int(draw, 0, size + 2)) if _int(draw, 0, 1) else sub()
        return f"{name}[{index}]"
    if form == "shift":
        op = _pick(draw, ["<<", ">>", ">>>"])
        # a difference may be negative: '>>' of a negative value
        left = f"({sub()} - {sub()})" if _int(draw, 0, 1) else sub()
        if op == ">>>" and _int(draw, 0, 1):
            left = f"$signed({left})"
        return f"({left} {op} {_pick(draw, _SHIFT_AMOUNTS)})"
    # bit- and part-selects of a non-array signal
    name, width = _pick(draw, design.scalars)
    if form == "bit":
        return f"{name}[{_pick(draw, [str(_int(draw, 0, width + 2)), 'i1'])}]"
    lsb = _int(draw, 0, width + 2)
    return f"{name}[{_int(draw, lsb, width + 3)}:{lsb}]"


def _statements(draw, design: _Design, depth: int) -> str:
    """A random process body; ``depth`` 0 has no ``if`` and no loop, so
    loops never nest (a nested loop on the same variable need not end)."""
    out = []
    for _ in range(_int(draw, 1, 4)):
        form = _pick(draw, ["reg", "reg", "array", "if", "shift", "loop", "temp"]
                     if depth else ["reg", "array", "temp"])
        if form == "reg":
            target = _pick(draw, sorted(design.regs) + ["q"])
            out.append(f"{target} <= {_expression(draw, design, 3)};")
        elif form == "array":
            name = _pick(draw, sorted(design.arrays))
            size = design.arrays[name][1]
            index = (str(_int(draw, 0, size + 2)) if _int(draw, 0, 1)
                     else _expression(draw, design, 2))
            out.append(f"{name}[{index}] <= {_expression(draw, design, 3)};")
        elif form == "temp":
            out.append(f"t = {_expression(draw, design, 3)};")
        elif form == "if":
            cond = _expression(draw, design, 2)
            then = _statements(draw, design, depth - 1)
            other = _statements(draw, design, depth - 1)
            out.append(f"if ({cond}) begin {then} end else begin {other} end")
        elif form == "shift":
            # the delay-line idiom, with bounds in and out of range
            name = _pick(draw, sorted(design.arrays))
            size = design.arrays[name][1]
            first, stop = _int(draw, 0, size + 1), _int(draw, 0, size + 2)
            out.append(f"for (k = {first}; k < {stop}; k = k + 1) "
                       f"{name}[k] <= {name}[k - 1];")
        else:
            # any other loop: other strides, bounds and bodies
            first, stop = _int(draw, 0, 4), _int(draw, 0, 8)
            cmp, stride = _pick(draw, ["<", "<="]), _int(draw, 1, 3)
            out.append(f"for (k = {first}; k {cmp} {stop}; k = k + {stride}) "
                       f"begin {_statements(draw, design, 0)} end")
    return " ".join(out)


@st.composite
def modules(draw) -> str:
    design = _Design(draw)
    ports = ["input wire clk"]
    ports += [f"input wire [{w - 1}:0] {n}" for n, w in design.inputs.items()]
    ports += [f"output wire [{w - 1}:0] {n}" for n, w in design.outputs.items()]
    ports.append(f"output reg [{design.q_width - 1}:0] q")
    body = [f"reg [{w - 1}:0] {n};" for n, w in design.regs.items()]
    body += [f"reg [{w - 1}:0] {n} [0:{size - 1}];"
             for n, (w, size) in design.arrays.items()]
    body += ["integer k;", "integer t;"]
    for index in range(_int(draw, 0, 3)):
        width = _int(draw, 1, 40)
        body.append(f"wire [{width - 1}:0] c{index} = {_expression(draw, design, 3)};")
        design.wires[f"c{index}"] = width
    for name in design.outputs:
        body.append(f"assign {name} = {_expression(draw, design, 3)};")
    for _ in range(_int(draw, 1, 2)):
        body.append(f"always @(posedge clk) begin {_statements(draw, design, 2)} end")
    return ("module rand (\n  " + ",\n  ".join(ports) + "\n);\n  "
            + "\n  ".join(body) + "\nendmodule\n")


@st.composite
def stimulus(draw) -> list[dict]:
    return [{name: _int(draw, -5, 1 << 42) for name in ("i0", "i1", "i2")}
            for _ in range(CYCLES)]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(source=modules(), cycles=stimulus())
def test_random_modules_match_the_interpreter(source, cycles):
    run_both(source, cycles)


# ----------------------------------------------------------------------
# Fixed semantics
# ----------------------------------------------------------------------


def _single(body: str, ports: str = "input wire [7:0] a, output wire [7:0] y") -> str:
    return f"module m (input wire clk, {ports});\n{body}\nendmodule\n"


@pytest.mark.parametrize("body", [
    # && and || evaluate both operands: the right one raises even where
    # the left one decides the result (a is 0 when the module first settles)
    "assign y = (a != 8'd0) && ghost;",
    "assign y = (a == 8'd0) || ghost;",
    "assign y = 1'b0 && a[a - 8'd9];",
    # array reads out of range give 0; writes out of range are dropped
    "reg [7:0] m [0:2];\n"
    "always @(posedge clk) begin m[a] <= a; m[a - 8'd1] <= m[a + 8'd1]; end\n"
    "assign y = m[a - 8'd2] + m[8'd7];",
    # several writes to one target in one process: the last one wins
    "reg [7:0] r;\n"
    "always @(posedge clk) begin r <= a; if (a[0]) r <= a + 8'd1; r <= r + 8'd2;"
    " if (a[1]) r <= 8'd9; end\nassign y = r;",
    # non-blocking reads see pre-edge state across processes
    "reg [7:0] p; reg [7:0] r;\n"
    "always @(posedge clk) p <= a;\nalways @(posedge clk) r <= p + 8'd1;\n"
    "assign y = r;",
    # signed compare, divide, modulo and >>>; >> of a negative value
    "assign y = ($signed(a) < 8'd3) + ($signed(a) / 8'd3) + (a % $signed(8'd250))"
    " + ($signed(a) >>> 2) + ((a - 8'd200) >> 3);",
    # truncating division and modulo by zero give 0
    "assign y = (a / (a - a)) + (a % 8'd0) + ($signed(a) / $signed(8'd0));",
    # the delay-line loop starting at 0 (iteration 0 reads d[-1], out of
    # range, and writes that 0 over d[0] <= a) and running past the array
    "reg [7:0] d [0:3]; integer i;\n"
    "always @(posedge clk) begin d[0] <= a;\n"
    "  for (i = 0; i < 9; i = i + 1) d[i] <= d[i - 1]; end\n"
    "always @(posedge clk) d[2] <= a;\nassign y = d[3] ^ d[0] ^ i;",
])
def test_semantics_match_the_interpreter(body):
    cycles = [{"a": value} for value in (0, 1, 2, 3, 7, 255, 128, 9, 4, 0, 5, 6,
                                         200, 1, 2, 3)]
    run_both(_single(body), cycles)


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------


def _error(source: str, inputs: dict | None = None) -> str:
    """The message both simulators raise on their first step; they must
    agree."""
    netlist = elaborate(parse_module_text(source))
    messages = []
    for simulator in (NetlistSimulator, InterpretedSimulator):
        with pytest.raises(ElaborationError) as caught:
            simulator(netlist).step(inputs or {})
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    return messages[0]


def test_unknown_input_error():
    assert _error(_single("assign y = a;"), {"b": 1}) == "unknown input 'b'"


def test_undriven_signal_error():
    assert _error(_single("assign y = ghost + a;")) == "undriven signal 'ghost'"


def test_undriven_blocking_temporary_error():
    source = _single("reg [7:0] r;\nalways @(posedge clk) begin r <= tmp; "
                     "tmp = a; end\nassign y = r;")
    assert _error(source) == "undriven signal 'tmp'"


def test_unknown_functional_unit_error():
    message = _error(_single("assign y = fu_cube(a);"))
    assert message == "unknown functional unit 'fu_cube' (supported: ['fu_sqrt'])"


def test_assignment_to_undeclared_error():
    message = _error(_single("assign y = a;\nassign ghost = a;"))
    assert message == "assignment to undeclared 'ghost'"


@pytest.mark.parametrize("loop", [
    # a loop that never advances; the generic path counts iterations
    "for (i = 0; i < 1; i = i + 0) r <= a;",
    # the delay-line form, over more iterations than the guard allows
    "for (i = 0; i < 1000001; i = i + 1) d[i] <= d[i - 1];",
])
def test_runaway_for_loop_error(loop):
    source = _single("reg [7:0] r; reg [7:0] d [0:3]; integer i;\n"
                     f"always @(posedge clk) {loop}\nassign y = r;")
    # the interpreter takes seconds to count to the guard, so only the
    # compiled simulator runs; the message is the interpreter's
    with pytest.raises(ElaborationError, match="^runaway for loop$"):
        NetlistSimulator(elaborate(parse_module_text(source))).step({"a": 1})


def test_hierarchical_module_error():
    source = _single("wire [7:0] t;\nsub u0 (.x(a), .y(t));\nassign y = t;")
    netlist = elaborate(parse_module_text(source))
    messages = []
    for simulator in (NetlistSimulator, InterpretedSimulator):
        with pytest.raises(ElaborationError) as caught:
            simulator(netlist)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert "instantiates sub-modules" in messages[0]


# ----------------------------------------------------------------------
# Names never reach Python as identifiers
# ----------------------------------------------------------------------


#: Verilog identifiers that are Python keywords, builtins or names the
#: generated code uses for itself
_HOSTILE = ["w$x", "$r", "None", "def", "V", "A", "out", "s0", "a0", "_fail",
            "__import__", "bind", "step"]
#: every identifier the generated source may contain: its own slots,
#: helpers and keywords
_GENERATED = re.compile(
    r"[sawnbt]\d+|_fu\d+|_fail|_shr|_div|_mod|_as_signed|bind|step|edge|out"
    r"|V|A|def|return|if|else|while|pass|is|not|None")


def test_dollar_and_python_names_are_only_string_keys():
    regs = " ".join(f"reg [7:0] {name};" for name in _HOSTILE[1:])
    nbas = " ".join(f"{name} <= {prev} + 8'd1;"
                    for prev, name in zip(["w$x"] + _HOSTILE[1:], _HOSTILE[1:]))
    source = _single(f"wire [7:0] w$x = a ^ 8'h5a;\n{regs}\n"
                     f"always @(posedge clk) begin {nbas} end\n"
                     f"assign y = __import__ + step;")
    cycles = [{"a": value} for value in range(CYCLES)]
    run_both(source, cycles)

    netlist = elaborate(parse_module_text(source))
    simulator = NetlistSimulator(netlist)
    for inputs in cycles:
        simulator.step(inputs)
    assert simulator.values["w$x"] == 15 ^ 0x5A
    assert simulator.values["$r"] == (15 ^ 0x5A) + 1

    tokens = list(tokenize.generate_tokens(io.StringIO(netlist.program.source).readline))
    names = {tok.string for tok in tokens if tok.type == tokenize.NAME}
    assert all(_GENERATED.fullmatch(name) for name in names), names
    strings = {tok.string for tok in tokens if tok.type == tokenize.STRING}
    assert {repr(name) for name in _HOSTILE} <= strings
