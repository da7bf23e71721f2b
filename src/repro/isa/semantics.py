"""Functional semantics for the micro-ISA.

These helpers are *pure*: given an instruction and the values of its
source operands they compute results, branch outcomes and effective
addresses.  The execution-driven pipeline calls them at execute time,
so wrong-path instructions compute with whatever (stale/garbage) values
they were renamed against — exactly like real speculative hardware —
and are discarded on flush.

Integer values are modelled as 64-bit two's-complement (results are
wrapped with :func:`to_signed64`); floating-point registers hold Python
floats.  Division by zero yields 0 rather than trapping: wrong-path
code must never crash the simulator.
"""

from __future__ import annotations

import struct

from .instructions import Instruction, UopClass

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63


def to_signed64(value: int) -> int:
    """Wrap an integer into signed 64-bit two's-complement range."""
    value &= _MASK64
    return value - (1 << 64) if value & _SIGN64 else value


def raw_bits(value: int | float) -> int:
    """The signed 64-bit register pattern of an operand value.

    A float reads as its IEEE-754 bits; an integer is already its own
    pattern.  What a register holding FP data looks like to an integer
    uop.
    """
    if isinstance(value, float):
        return struct.unpack("<q", struct.pack("<d", value))[0]
    return value


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _srem(a: int, b: int) -> int:
    if b == 0:
        return 0
    return a - _sdiv(a, b) * b


_INT_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << (b & 63),
    "shr": lambda a, b: (a & _MASK64) >> (b & 63),
    "slt": lambda a, b: int(a < b),
    "sltu": lambda a, b: int((a & _MASK64) < (b & _MASK64)),
    "min": min,
    "max": max,
    "mul": lambda a, b: a * b,
    "div": _sdiv,
    "rem": _srem,
}

_FP_OPS = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": lambda a, b: a / b if b != 0.0 else 0.0,
    "fmin": min,
    "fmax": max,
}

_BRANCH_OPS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: a < b,
    "bge": lambda a, b: a >= b,
    "ble": lambda a, b: a <= b,
    "bgt": lambda a, b: a > b,
}


def _bind_rr(fn):
    return lambda srcs, imm: to_signed64(fn(srcs[0], srcs[1]))


def _bind_ri(fn):
    return lambda srcs, imm: to_signed64(fn(srcs[0], imm))


def _bind_fp(fn):
    return lambda srcs, imm: fn(srcs[0], srcs[1])


def _build_evaluators() -> dict:
    """Pre-bind one ``(srcs, imm) -> value`` handler per scalar opcode.

    Dispatching through this table replaces :func:`compute_result`'s
    per-step string tests (``op.endswith("i")`` etc.) with a single
    dict lookup — the interpreter's hot loop and the sampled-simulation
    functional engine both index it by ``instr.opcode``.  Branch and
    memory opcodes are deliberately absent: their semantics need the
    instruction object (targets, effective addresses).
    """
    table: dict = {}
    for op in ("add", "sub", "and", "or", "xor", "shl", "shr", "slt",
               "sltu", "min", "max", "mul", "div", "rem"):
        table[op] = _bind_rr(_INT_OPS[op])
    for op in ("addi", "subi", "andi", "ori", "xori", "shli", "shri",
               "slti"):
        table[op] = _bind_ri(_INT_OPS[op[:-1]])
    table["li"] = lambda srcs, imm: imm
    table["mov"] = lambda srcs, imm: srcs[0]
    for op in ("fadd", "fsub", "fmul", "fdiv", "fmin", "fmax"):
        table[op] = _bind_fp(_FP_OPS[op])
    table["fmov"] = lambda srcs, imm: srcs[0]
    # fli encodes a small float immediate scaled by 1/256.
    table["fli"] = lambda srcs, imm: imm / 256.0
    table["itof"] = lambda srcs, imm: float(srcs[0])
    table["ftoi"] = lambda srcs, imm: to_signed64(int(srcs[0]))
    table["fcmplt"] = lambda srcs, imm: int(srcs[0] < srcs[1])
    return table


#: opcode -> ``(srcs, imm) -> value`` for every ALU/MUL/DIV/FP opcode.
SCALAR_EVALUATORS = _build_evaluators()

#: opcode -> ``(a, b) -> bool`` for every conditional-branch opcode
#: (public alias so dispatch-table builders need not reach into the
#: private op dicts).
BRANCH_EVALUATORS = dict(_BRANCH_OPS)


def compute_result(instr: Instruction, srcs: tuple) -> int | float | None:
    """Compute the destination value of a non-memory, non-branch uop.

    ``srcs`` holds the source operand values in the order of
    ``instr.srcs``.  Returns ``None`` for instructions without a
    destination.  ``call``/``callr`` results (the return address) are
    handled here as well since they write ``ra``.
    """
    fn = SCALAR_EVALUATORS.get(instr.opcode)
    if fn is not None:
        return fn(srcs, instr.imm)
    cls = instr.uop_class
    if cls in (UopClass.BR_CALL, UopClass.BR_IND) and instr.dst is not None:
        return instr.fallthrough_pc
    return None


def branch_taken(instr: Instruction, srcs: tuple) -> bool:
    """Resolve the direction of a control-flow instruction.

    Unconditional control flow (jumps, calls, returns, indirect jumps)
    is always taken; conditional branches evaluate their comparison.
    """
    cls = instr.uop_class
    if cls is UopClass.BR_COND:
        return bool(_BRANCH_OPS[instr.opcode](srcs[0], srcs[1]))
    return True


def branch_target(instr: Instruction, srcs: tuple) -> int:
    """Resolve the taken-path target PC of a control-flow instruction."""
    if instr.is_indirect:
        return int(srcs[0])
    assert instr.target is not None, f"direct branch without target: {instr}"
    return instr.target


def effective_address(instr: Instruction, srcs: tuple) -> int:
    """Compute the byte address accessed by a load or store.

    Loads use ``srcs[0]`` as the base; stores use ``srcs[1]`` (their
    first source is the value being stored).
    """
    base = srcs[1] if instr.is_store else srcs[0]
    return to_signed64(int(base) + (instr.imm or 0))
