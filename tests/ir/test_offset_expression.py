"""The bounded evaluator for symbolic stream offsets (``-ND1*ND2``)."""

from __future__ import annotations

import time

import pytest

from repro.ir import IRTypeError
from repro.ir.instructions import _OFFSET_LIMIT, _eval_offset_expression
from repro.kernels import get_kernel, kernel_names

GRID = {"ND1": 24, "ND2": 24, "ND3": 24}


def _symbolic_offsets():
    for name in kernel_names():
        for offsets in get_kernel(name).spec().offsets.values():
            for offset in offsets:
                if isinstance(offset, str):
                    yield name, offset


def _reference(expr: str, constants: dict[str, int]) -> int:
    """What Python arithmetic gives for these operators and names."""
    return eval(expr, {"__builtins__": {}}, dict(constants))  # noqa: S307 - trusted test input


@pytest.mark.parametrize("kernel,offset", list(_symbolic_offsets()))
@pytest.mark.parametrize("grid", [(8, 8, 8), (24, 24, 24), (64, 3, 5)])
def test_every_kernel_offset_keeps_its_value(kernel, offset, grid):
    constants = {f"ND{i}": dim for i, dim in enumerate(grid, start=1)}
    assert _eval_offset_expression(offset, constants) == _reference(offset, constants)


def test_the_kernels_use_symbolic_offsets():
    assert {kernel for kernel, _ in _symbolic_offsets()} == {"conv2d", "hotspot", "nw", "sor"}


@pytest.mark.parametrize("expr", [
    "-ND1*ND2", "+ND1", "-ND1-1", "2*-3", "- -ND1", "(ND1 + 1) * (2 - ND2)",
    "ND1*ND2*ND3 - 7", "+(-(ND1))", "  12  ",
])
def test_arithmetic_matches_python(expr):
    assert _eval_offset_expression(expr, GRID) == _reference(expr, GRID)


@pytest.mark.parametrize("expr", ["2**10", "ND1**2", "9**9**9**9", "2* *3"])
def test_exponentiation_is_refused(expr):
    with pytest.raises(IRTypeError, match="exponentiation"):
        _eval_offset_expression(expr, GRID)


@pytest.mark.parametrize("expr", [
    "9" * 30,                          # an oversized literal
    "9223372036854775808",             # one past the limit
    "3037000500*3037000500",           # a product past the limit
    "ND1*" * 40 + "1",                 # a long chain of products
    "9" * 100_000,                     # a literal too long to convert quickly
])
def test_out_of_range_values_are_refused_quickly(expr):
    started = time.perf_counter()
    with pytest.raises(IRTypeError, match="out of range"):
        _eval_offset_expression(expr, GRID)
    assert time.perf_counter() - started < 1.0


def test_the_limit_itself_is_accepted():
    assert _eval_offset_expression(str(_OFFSET_LIMIT), {}) == _OFFSET_LIMIT
    assert _eval_offset_expression(f"-{_OFFSET_LIMIT}", {}) == -_OFFSET_LIMIT


def test_unknown_names_are_refused():
    with pytest.raises(IRTypeError, match=r"unknown constants \['ND4', 'x'\]"):
        _eval_offset_expression("ND4 + x", GRID)


@pytest.mark.parametrize("expr,why", [
    ("", "unexpected end"),
    ("(1", "unbalanced"),
    ("1)", "unexpected"),
    ("1 2", "unexpected"),
    ("1ND1", "unexpected"),
    ("*1", "unexpected"),
    ("1.5", "invalid characters"),
    ("__import__('os')", "unknown constants"),
    ("(" * 100 + "1" + ")" * 100, "nested deeper"),
    ("-" * 100 + "1", "nested deeper"),
])
def test_malformed_expressions_raise_typed_errors(expr, why):
    with pytest.raises(IRTypeError, match=why):
        _eval_offset_expression(expr, GRID)
