"""Structural netlists elaborated from generated Verilog, and their
cycle simulation.

:func:`elaborate` turns one parsed :class:`~repro.flows.verilog.VerilogModule`
into a :class:`Netlist`: a signal table with widths, the continuous
assignments in dependency (topological) order, and the clocked processes.
:class:`NetlistSimulator` then advances the netlist one clock cycle at a
time with Verilog semantics — continuous assigns settle combinationally,
non-blocking assignments all read pre-edge state and commit together —
which is what lets the pure-Python RTL backend reproduce exactly what an
event-driven simulator would print for this subset.

Elaboration also compiles the netlist's clock step: :class:`_StepCompiler`
generates the Python source of one ``step`` function (the continuous
assigns in order with widths and masks folded, the output sample, every
process with its blocking temporaries as locals, and the non-blocking
commit), which is compiled once and then runs every cycle.  The source is
generated here from the netlist alone; design names enter it only as
string literals.

:func:`lint_module` runs the structural checks the satellite tests pin
for every generated file: legal identifiers and balanced ``begin``/``end``
come free with parsing; on top of that it checks that every referenced
signal is declared *before* use and that no signal has two drivers.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.flows.numeric import as_signed, truncdiv
from repro.flows.verilog import (
    AlwaysBlock,
    ArrayDecl,
    ContinuousAssign,
    Expr,
    Instance,
    NetDecl,
    VerilogModule,
    VerilogParseError,
    parse_modules,
)

__all__ = [
    "ElaborationError",
    "Netlist",
    "NetlistSimulator",
    "elaborate",
    "lint_module",
    "lint_source",
]


class ElaborationError(ValueError):
    """The module cannot be turned into a simulatable netlist."""


def _isqrt(value: int) -> int:
    import math

    return math.isqrt(max(0, value))


#: functional-unit cores the generator may reference for special opcodes
_FUNCTIONAL_UNITS = {
    "fu_sqrt": _isqrt,
}


# ----------------------------------------------------------------------
# Elaboration
# ----------------------------------------------------------------------


@dataclass
class Netlist:
    """A flattened, simulatable view of one Verilog module."""

    name: str
    #: signal name -> width (ports, wires, regs; integers are 32 wide)
    widths: dict[str, int]
    #: array name -> (element width, size)
    arrays: dict[str, tuple[int, int]]
    #: simulation-only ``integer`` loop variables (not hardware state)
    integers: frozenset[str]
    inputs: list[str]
    outputs: list[str]
    #: continuous assignments in topological evaluation order
    assigns: list[ContinuousAssign]
    processes: list[AlwaysBlock]
    instances: list[Instance]
    #: the compiled clock step (leaf modules; set by :func:`elaborate`)
    program: StepProgram | None = field(default=None, repr=False, compare=False)

    def stats(self) -> dict:
        """Cell-level statistics (the ``SynthFlow`` report payload)."""
        assigned = {a.target for a in self.assigns}
        reg_bits = sum(
            width for name, width in self.widths.items()
            if name not in assigned and name not in self.inputs
            and name not in self.integers
        )
        array_bits = sum(width * size for width, size in self.arrays.values())
        return {
            "signals": len(self.widths) - len(self.integers),
            "arrays": len(self.arrays),
            "continuous_assigns": len(self.assigns),
            "processes": len(self.processes),
            "instances": len(self.instances),
            "register_bits": reg_bits,
            "delay_line_bits": array_bits,
        }


def _expr_identifiers(expr: Expr) -> set[str]:
    kind = expr[0]
    if kind == "const":
        return set()
    if kind == "id":
        return {expr[1]}
    if kind in ("index",):
        return {expr[1]} | _expr_identifiers(expr[2])
    if kind == "slice":
        return {expr[1]}
    if kind == "concat":
        out: set[str] = set()
        for part in expr[1]:
            out |= _expr_identifiers(part)
        return out
    if kind in ("unary", "signed"):
        return _expr_identifiers(expr[-1])
    if kind == "binary":
        return _expr_identifiers(expr[2]) | _expr_identifiers(expr[3])
    if kind == "ternary":
        return (_expr_identifiers(expr[1]) | _expr_identifiers(expr[2])
                | _expr_identifiers(expr[3]))
    if kind == "call":
        out = set()
        for part in expr[2]:
            out |= _expr_identifiers(part)
        return out
    raise ElaborationError(f"unknown expression node {kind!r}")  # pragma: no cover


def _toposort_assigns(assigns: list[ContinuousAssign]) -> list[ContinuousAssign]:
    by_target = {a.target: a for a in assigns}
    ordered: list[ContinuousAssign] = []
    state: dict[str, int] = {}  # 0 visiting, 1 done

    def visit(assign: ContinuousAssign) -> None:
        mark = state.get(assign.target)
        if mark == 1:
            return
        if mark == 0:
            raise ElaborationError(
                f"combinational loop through {assign.target!r}")
        state[assign.target] = 0
        for name in _expr_identifiers(assign.expr):
            dep = by_target.get(name)
            if dep is not None:
                visit(dep)
        state[assign.target] = 1
        ordered.append(assign)

    for assign in assigns:
        visit(assign)
    return ordered


def elaborate(module: VerilogModule) -> Netlist:
    """Flatten one module into a simulatable netlist."""
    widths: dict[str, int] = {}
    arrays: dict[str, tuple[int, int]] = {}
    for port in module.ports:
        widths[port.name] = port.width
    for item in module.items:
        if isinstance(item, NetDecl):
            if item.name in widths or item.name in arrays:
                raise ElaborationError(f"signal {item.name!r} declared twice")
            widths[item.name] = item.width
        elif isinstance(item, ArrayDecl):
            if item.name in widths or item.name in arrays:
                raise ElaborationError(f"signal {item.name!r} declared twice")
            arrays[item.name] = (item.width, item.size)

    assigns = _toposort_assigns(module.assigns)
    netlist = Netlist(
        name=module.name,
        widths=widths,
        arrays=arrays,
        integers=frozenset(
            item.name for item in module.items
            if isinstance(item, NetDecl) and item.net_kind == "integer"
        ),
        inputs=[p.name for p in module.inputs()],
        outputs=[p.name for p in module.outputs()],
        assigns=assigns,
        processes=module.always_blocks,
        instances=module.instances,
    )
    if not netlist.instances:
        netlist.program = _compile_step(netlist)
    return netlist


# ----------------------------------------------------------------------
# Simulation: one generated step function per netlist
# ----------------------------------------------------------------------

#: a ``for`` loop that runs more iterations than this is a runaway
_LOOP_GUARD = 1_000_000
#: ``>>`` of a negative value shifts its 64-bit two's-complement pattern
_SHR_MASK = (1 << 64) - 1
#: operators Python's ints evaluate exactly as the simulated hardware does
_PLAIN_OPS = frozenset({"+", "-", "*", "&", "|", "^", "<<"})
_COMPARISONS = frozenset({"==", "!=", "<", "<=", ">", ">="})
#: operators that are signed when either operand is ``$signed``
_SIGNED_OPS = frozenset({"<", "<=", ">", ">=", "/", "%"})


def _fail(message: str):
    raise ElaborationError(message)


def _shr(a: int, b: int) -> int:
    return a >> b if a >= 0 else (a & _SHR_MASK) >> b


def _mod(a: int, b: int) -> int:
    return 0 if b == 0 else a - b * truncdiv(a, b)


def _int(value) -> str:
    """An int literal; anything that is not an int is refused."""
    try:
        value = operator.index(value)
    except TypeError as exc:
        raise ElaborationError(f"non-integer constant {value!r}") from exc
    return str(value) if value >= 0 else f"({value})"


def _mask(width: int) -> str:
    width = operator.index(width)
    return hex((1 << width) - 1) if width >= 0 else f"((1 << {width}) - 1)"


def _key(name: str) -> str:
    """A design name as a string literal: the only way names enter the
    generated source."""
    if type(name) is not str:
        raise ElaborationError(f"signal name {name!r} is not a string")
    return repr(name)


def _blocking_names(statements, names: dict) -> dict:
    for stmt in statements:
        if stmt[0] == "blocking":
            names.setdefault(stmt[1])
        elif stmt[0] == "if":
            _blocking_names(stmt[2], names)
            _blocking_names(stmt[3], names)
        elif stmt[0] == "for":
            names.setdefault(stmt[1][1])
            _blocking_names(stmt[4], names)
            names.setdefault(stmt[3][1])
    return names


def _is_const(expr: Expr, value: int | None = None) -> bool:
    return (expr[0] == "const" and type(expr[1]) is int
            and (value is None or expr[1] == value))


@dataclass(frozen=True)
class StepProgram:
    """One netlist's compiled clock step.

    ``bind(values, arrays)`` returns the ``step(edge)`` closure over one
    simulator's state: it settles the continuous assigns and, when
    ``edge`` is true, samples the outputs, runs the clock edge and returns
    the sample.  ``source`` is the Python it was compiled from.
    """

    source: str
    bind: Callable


class _StepCompiler:
    """Generates the Python source of one netlist's ``step``.

    Design names reach the source only as ``repr()`` dict keys: signal
    ``k`` lives in the local ``s<k>``, array ``k`` in ``a<k>`` (and its
    next-state copy during the clock edge in ``w<k>``), a pending
    non-blocking write to signal ``k`` in ``n<k>``, and blocking and
    expression temporaries in ``b<k>``/``t<k>``.  Numbers enter only as
    int literals, with widths and masks folded.
    """

    def __init__(self, netlist: Netlist):
        self.widths = netlist.widths
        self.arrays = netlist.arrays
        self.netlist = netlist
        self.signal = {name: f"s{i}" for i, name in enumerate(netlist.widths)}
        self.array = {name: f"a{i}" for i, name in enumerate(netlist.arrays)}
        self.units = {name: f"_fu{i}"
                      for i, name in enumerate(sorted(_FUNCTIONAL_UNITS))}
        #: signals read before this step assigns them (loaded from values)
        self.loads: dict[str, None] = {}
        #: signals whose local already holds this step's value
        self.assigned: set[str] = set()
        #: non-blocking scalar targets -> pending local
        self.pending: dict[str, str] = {}
        #: targets some process writes on every edge (no "unwritten" check)
        self.always_written: set[str] = set()
        #: arrays written on the edge -> next-state copy
        self.written: dict[str, str] = {}
        self.count = 0

    def fresh(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    # -- generation -----------------------------------------------------
    def generate(self) -> str:
        assigns = self.assigns()
        sample = ", ".join(f"{_key(name)}: {self.read(name, None)}"
                           for name in self.netlist.outputs)
        edge: list[str] = []
        for process in self.netlist.processes:
            self.process(process.statements, edge)
        prologue = [f"{copy} = {self.array[name]}[:]"
                    for name, copy in self.written.items()]
        prologue += [f"{slot} = None" for name, slot in self.pending.items()
                     if name not in self.always_written]
        commit = []
        for name, slot in self.pending.items():
            store = f"V[{_key(name)}] = {slot}"
            commit.append(store if name in self.always_written
                          else f"if {slot} is not None: {store}")
        commit += [f"{self.array[name]}[:] = {copy}"
                   for name, copy in self.written.items()]

        step = [f"{self.signal[name]} = V[{_key(name)}]" for name in self.loads]
        step += assigns + ["if not edge:", "    return None", f"out = {{{sample}}}"]
        step += prologue + edge + commit + ["return out"]
        lines = ["def bind(V, A):"]
        lines += [f"    {slot} = A[{_key(name)}]" for name, slot in self.array.items()]
        lines += ["    def step(edge):"] + [f"        {line}" for line in step]
        lines += ["    return step", ""]
        return "\n".join(lines)

    def assigns(self) -> list[str]:
        """The continuous assigns, in the netlist's topological order."""
        lines = []
        for assign in self.netlist.assigns:
            target = assign.target
            if target not in self.widths:
                lines.append(f"_fail({f'assignment to undeclared {target!r}'!r})")
                continue
            slot = self.signal[target]
            lines.append(f"{slot} = ({self.expr(assign.expr, None)} & "
                         f"{_mask(self.widths[target])})")
            lines.append(f"V[{_key(target)}] = {slot}")
            self.assigned.add(target)
        return lines

    def process(self, statements, lines: list[str]) -> None:
        """One always-block; its blocking temporaries are locals that
        start from the signal of the same name, as a fresh per-process
        environment over the pre-edge state does."""
        env = {}
        for name in _blocking_names(statements, {}):
            slot = env[name] = self.fresh("b")
            lines.append(f"{slot} = "
                         + (self.read(name, None) if name in self.widths else "None"))
        self.statements(statements, env, lines, "", top=True)

    # -- statements -----------------------------------------------------
    def statements(self, statements, env, lines, indent, top=False) -> None:
        if not statements:
            lines.append(f"{indent}pass")
        for stmt in statements:
            kind = stmt[0]
            if kind == "nba":
                self.nba(stmt[1], stmt[2], env, lines, indent, top)
            elif kind == "blocking":
                lines.append(f"{indent}{env[stmt[1]]} = {self.expr(stmt[2], env)}")
            elif kind == "if":
                lines.append(f"{indent}if {self.expr(stmt[1], env)}:")
                self.statements(stmt[2], env, lines, indent + "    ")
                if stmt[3]:
                    lines.append(f"{indent}else:")
                    self.statements(stmt[3], env, lines, indent + "    ")
            elif kind == "for":
                self.loop(stmt, env, lines, indent)
            else:
                lines.append(f"{indent}_fail({f'unknown statement {kind!r}'!r})")

    def nba(self, target, rhs, env, lines, indent, top) -> None:
        """A non-blocking write: computed now, committed after every
        process has run (in program order, so the last write wins)."""
        name = target[1]
        value = self.expr(rhs, env)
        if target[0] == "id" and name in self.widths:
            slot = self.pending.setdefault(name, "n" + self.signal[name][1:])
            if top:
                self.always_written.add(name)
            lines.append(f"{indent}{slot} = "
                         f"({value} & {_mask(self.widths[name])})")
        elif target[0] == "index" and name in self.arrays:
            width, size = self.arrays[name]
            copy = self.written.setdefault(name, "w" + self.array[name][1:])
            index = target[2]
            if _is_const(index):
                # an out-of-range write is dropped, its value still computed
                lines.append(f"{indent}{copy}[{_int(index[1])}] = "
                             f"({value} & {_mask(width)})"
                             if 0 <= index[1] < size else f"{indent}{value}")
                return
            held, at = self.fresh("t"), self.fresh("t")
            lines.append(f"{indent}{held} = {value}")
            lines.append(f"{indent}{at} = {self.expr(index, env)}")
            lines.append(f"{indent}if 0 <= {at} < {_int(size)}:")
            lines.append(f"{indent}    {copy}[{at}] = {held} & {_mask(width)}")
        else:
            lines.append(f"{indent}{value}")
            if target[0] == "index":
                lines.append(f"{indent}{self.expr(target[2], env)}")
            lines.append(f"{indent}_fail({f'assignment to undeclared {name!r}'!r})")

    def loop(self, stmt, env, lines, indent) -> None:
        _, init, cond, update, body = stmt
        if self.shift_loop(stmt, env, lines, indent):
            return
        self.statements((init,), env, lines, indent)
        guard = self.fresh("t")
        lines.append(f"{indent}{guard} = 0")
        lines.append(f"{indent}while {self.expr(cond, env)}:")
        inner = indent + "    "
        self.statements(body, env, lines, inner)
        self.statements((update,), env, lines, inner)
        lines.append(f"{inner}{guard} += 1")
        lines.append(f"{inner}if {guard} > {_LOOP_GUARD}:")
        lines.append(f"{inner}    _fail('runaway for loop')")

    def shift_loop(self, stmt, env, lines, indent) -> bool:
        """The delay-line idiom ``for (v = c0; v < c1; v = v + 1)
        x[v] <= x[v - 1];`` as one slice copy; False for any other loop.

        Iteration ``v`` writes the pre-edge ``x[v - 1]`` (0 when that is
        out of range) to ``x[v]`` (dropped when out of range), so the
        in-range writes are ``x[lo:hi] = x[lo - 1:hi - 1]``, plus a 0 into
        ``x[0]`` when the loop starts at or below 0.
        """
        _, init, cond, update, body = stmt
        var = init[1]
        v = ("id", var)
        if not (_is_const(init[2]) and cond[:3] == ("binary", "<", v)
                and _is_const(cond[3]) and update[1] == var
                and update[2][:3] == ("binary", "+", v) and _is_const(update[2][3], 1)
                and len(body) == 1 and body[0][0] == "nba"):
            return False
        target, rhs = body[0][1], body[0][2]
        name = target[1]
        if not (target == ("index", name, v) and name in self.arrays
                and rhs[:2] == ("index", name) and rhs[2][:3] == ("binary", "-", v)
                and _is_const(rhs[2][3], 1)):
            return False
        first, stop = init[2][1], cond[3][1]
        if stop - first > _LOOP_GUARD:
            lines.append(f"{indent}_fail('runaway for loop')")
            return True
        size = self.arrays[name][1]
        copy = self.written.setdefault(name, "w" + self.array[name][1:])
        lo, hi = max(first, 0), min(stop, size)
        if lo == 0 < hi:
            lines.append(f"{indent}{copy}[0] = 0")
            lo = 1
        if lo < hi:
            lines.append(f"{indent}{copy}[{_int(lo)}:{_int(hi)}] = "
                         f"{self.array[name]}[{_int(lo - 1)}:{_int(hi - 1)}]")
        lines.append(f"{indent}{env[var]} = {_int(max(first, stop))}")
        return True

    # -- expressions ----------------------------------------------------
    def read(self, name: str, env) -> str:
        """A signal's value: a blocking temporary shadows the signal."""
        if env is not None and name in env:
            slot = env[name]
            if name in self.widths:
                return slot
            return (f"({slot} if {slot} is not None else "
                    f"_fail({f'undriven signal {name!r}'!r}))")
        if name not in self.widths:
            return f"_fail({f'undriven signal {name!r}'!r})"
        if name not in self.assigned:
            self.loads.setdefault(name)
        return self.signal[name]

    def signed(self, code: str, expr: Expr) -> str:
        """``code`` (the value of ``expr``) as two's complement."""
        width = self.width(expr)
        if width < 1:
            return f"_as_signed(({code} & {_mask(width)}), {_int(width)})"
        half = hex(1 << (width - 1))
        return f"((({code} & {_mask(width)}) ^ {half}) - {half})"

    def width(self, expr: Expr) -> int:
        """Verilog self-determined width of ``expr``."""
        kind = expr[0]
        if kind == "const":
            return expr[2] or 32
        if kind == "id":
            return self.widths.get(expr[1], 32)
        if kind == "index":
            return self.arrays[expr[1]][0] if expr[1] in self.arrays else 1
        if kind == "slice":
            return expr[2] - expr[3] + 1
        if kind == "concat":
            return sum(self.width(part) for part in expr[1])
        if kind in ("unary", "signed"):
            return self.width(expr[-1])
        if kind in ("binary", "ternary"):
            return max(self.width(expr[-2]), self.width(expr[-1]))
        return 32

    def expr(self, expr: Expr, env) -> str:
        """Python source computing ``expr`` (one atom: a name, a literal
        or a parenthesised expression).  ``env`` maps the enclosing
        process's blocking temporaries; it is ``None`` outside processes."""
        kind = expr[0]
        if kind == "const":
            return _int(expr[1])
        if kind == "id":
            return self.read(expr[1], env)
        if kind == "index":
            name, index = expr[1], expr[2]
            if name not in self.arrays:
                return f"(({self.read(name, env)} >> {self.expr(index, env)}) & 1)"
            array, size = self.array[name], self.arrays[name][1]
            if _is_const(index):
                return f"{array}[{_int(index[1])}]" if 0 <= index[1] < size else "0"
            at = self.fresh("t")
            return (f"({array}[{at}] if 0 <= ({at} := {self.expr(index, env)}) "
                    f"< {_int(size)} else 0)")
        if kind == "slice":
            _, name, msb, lsb = expr
            return f"(({self.read(name, env)} >> {_int(lsb)}) & {_mask(msb - lsb + 1)})"
        if kind == "concat":
            code = None
            for part in expr[1]:
                width = self.width(part)
                piece = f"({self.expr(part, env)} & {_mask(width)})"
                code = piece if code is None else f"(({code} << {_int(width)}) | {piece})"
            return code
        if kind == "signed":
            return self.expr(expr[1], env)
        if kind == "unary":
            op, inner = expr[1], expr[2]
            code = self.expr(inner, env)
            if op == "~":
                return f"(~{code} & {_mask(self.width(inner))})"
            if op == "-":
                return f"(-{code})"
            return f"(0 if {code} else 1)"
        if kind == "binary":
            return self.binary(expr, env)
        if kind == "ternary":
            return (f"({self.expr(expr[2], env)} if {self.expr(expr[1], env)} "
                    f"else {self.expr(expr[3], env)})")
        if kind == "call":
            unit = self.units.get(expr[1])
            if unit is None:
                return ("_fail(" + repr(
                    f"unknown functional unit {expr[1]!r} (supported: "
                    f"{sorted(_FUNCTIONAL_UNITS)})") + ")")
            return f"{unit}({', '.join(self.expr(arg, env) for arg in expr[2])})"
        return f"_fail({f'unknown expression node {kind!r}'!r})"

    def binary(self, expr: Expr, env) -> str:
        _, op, left, right = expr
        a, b = self.expr(left, env), self.expr(right, env)
        # signedness follows Verilog: a comparison/division/modulo is
        # signed only when its operands are $signed
        if op in _SIGNED_OPS and (left[0] == "signed" or right[0] == "signed"):
            a, b = self.signed(a, left), self.signed(b, right)
        if op in _PLAIN_OPS:
            return f"({a} {op} {b})"
        if op in _COMPARISONS:
            return f"(1 if {a} {op} {b} else 0)"
        # && and || evaluate both operands, as the hardware does
        if op == "&&":
            return f"(1 if ({a} != 0) & ({b} != 0) else 0)"
        if op == "||":
            return f"(1 if ({a} != 0) | ({b} != 0) else 0)"
        if op == "/":
            return f"_div({a}, {b})"
        if op == "%":
            return f"_mod({a}, {b})"
        if op == ">>":
            return f"_shr({a}, {b})"
        if op == ">>>":
            if left[0] == "signed":
                a = self.signed(a, left)
            return f"({a} >> {b})"
        return f"_fail({f'unknown operator {op!r}'!r})"


def _compile_step(netlist: Netlist) -> StepProgram:
    """Generate and compile ``netlist``'s clock step (once per netlist)."""
    compiler = _StepCompiler(netlist)
    source = compiler.generate()
    namespace = {
        "__builtins__": {},
        "_fail": _fail,
        "_shr": _shr,
        "_div": truncdiv,
        "_mod": _mod,
        "_as_signed": as_signed,
        **{slot: _FUNCTIONAL_UNITS[name] for name, slot in compiler.units.items()},
    }
    try:
        code = compile(source, f"<netlist {netlist.name}>", "exec")
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise ElaborationError(
            f"module {netlist.name!r} is too deeply nested to simulate: {exc}") from exc
    exec(code, namespace)
    return StepProgram(source, namespace["bind"])


class NetlistSimulator:
    """Two-phase (combinational settle, then clock edge) cycle simulation.

    Registers and delay lines power up at zero — the deterministic
    counterpart of an event-driven simulator's ``x`` state after the
    generated testbench's reset-and-flush preamble.  The work of a cycle
    is the netlist's compiled :class:`StepProgram`, bound to this
    simulator's ``values`` and ``arrays``.
    """

    def __init__(self, netlist: Netlist):
        if netlist.instances:
            raise ElaborationError(
                f"module {netlist.name!r} instantiates sub-modules; the "
                "pure-Python backend simulates leaf kernel modules")
        if netlist.program is None:
            netlist.program = _compile_step(netlist)
        self.netlist = netlist
        self.values: dict[str, int] = {name: 0 for name in netlist.widths}
        self.arrays: dict[str, list[int]] = {
            name: [0] * size for name, (_, size) in netlist.arrays.items()
        }
        self._masks = {name: (1 << w) - 1 for name, w in netlist.widths.items()}
        self._step = netlist.program.bind(self.values, self.arrays)

    def settle(self) -> None:
        """Propagate the continuous assignments (combinational settle)."""
        self._step(False)

    def step(self, inputs: dict[str, int]) -> dict[str, int]:
        """Advance one clock cycle.

        Applies ``inputs``, settles the combinational network, samples
        every output port (the values an observer sees *during* this
        cycle) and then performs the clock edge: every process evaluates
        against pre-edge state and all non-blocking assignments commit
        together.  Returns the sampled outputs.
        """
        values = self.values
        for name, value in inputs.items():
            if name not in values:
                raise ElaborationError(f"unknown input {name!r}")
            values[name] = value & self._masks[name]
        return self._step(True)


# ----------------------------------------------------------------------
# Structural lint
# ----------------------------------------------------------------------


def lint_module(module: VerilogModule) -> list[str]:
    """Structural checks over one parsed module; returns violations.

    Parsing already guarantees legal identifiers and balanced
    ``begin``/``end``; this adds declared-before-use and single-driver
    checks in source order, which is what catches a generator emitting a
    wire below its first consumer.
    """
    problems: list[str] = []
    declared: set[str] = {p.name for p in module.ports}
    drivers: dict[str, int] = {}

    def check_uses(expr: Expr, where: str) -> None:
        for name in sorted(_expr_identifiers(expr)):
            if name not in declared:
                problems.append(f"{module.name}: {where} uses undeclared {name!r}")

    def note_driver(name: str, where: str) -> None:
        drivers[name] = drivers.get(name, 0) + 1
        if drivers[name] == 2:
            problems.append(f"{module.name}: {name!r} has multiple drivers ({where})")

    def scan_statements(statements, where: str, nba_targets: set[str]) -> None:
        for stmt in statements:
            kind = stmt[0]
            if kind == "nba":
                target, rhs = stmt[1], stmt[2]
                check_uses(rhs, where)
                if target[0] == "index":
                    check_uses(stmt[1][2], where)
                nba_targets.add(target[1])
                if target[1] not in declared:
                    problems.append(
                        f"{module.name}: {where} assigns undeclared {target[1]!r}")
            elif kind == "blocking":
                check_uses(stmt[2], where)
            elif kind == "if":
                check_uses(stmt[1], where)
                scan_statements(stmt[2], where, nba_targets)
                scan_statements(stmt[3], where, nba_targets)
            elif kind == "for":
                check_uses(stmt[1][2], where)
                check_uses(stmt[2], where)
                check_uses(stmt[3][2], where)
                scan_statements(stmt[4], where, nba_targets)

    for item in module.items:
        if isinstance(item, NetDecl) or isinstance(item, ArrayDecl):
            if item.name in declared:
                problems.append(f"{module.name}: {item.name!r} declared twice")
            declared.add(item.name)
        elif isinstance(item, ContinuousAssign):
            check_uses(item.expr, f"assign to {item.target!r}")
            if item.target not in declared:
                problems.append(
                    f"{module.name}: assignment to undeclared {item.target!r}")
            note_driver(item.target, "continuous assign")
        elif isinstance(item, AlwaysBlock):
            where = f"always block at line {item.line}"
            targets: set[str] = set()
            scan_statements(item.statements, where, targets)
            # a signal may be assigned several times inside ONE process
            # (reset/else branches); a second *process* or a continuous
            # assign driving it is a race
            for name in sorted(targets):
                note_driver(name, where)
        elif isinstance(item, Instance):
            for port, expr in item.connections:
                check_uses(expr, f"instance {item.name!r} port .{port}")
    return problems


def lint_source(source: str) -> list[str]:
    """Parse and lint Verilog source; parse errors become violations."""
    try:
        modules = parse_modules(source)
    except VerilogParseError as exc:
        return [str(exc)]
    problems: list[str] = []
    for module in modules:
        problems.extend(lint_module(module))
    return problems
