"""Instruction set definition for the micro-ISA.

The ISA is a fixed-length (4 bytes per instruction) RISC-like set chosen
so that the paper's frontend arithmetic holds directly: the decoupled
branch predictor produces up to one taken branch or 128 bytes — i.e. 32
instructions — per cycle, and a 64-byte cache line holds 16 instructions.

Each static instruction decodes into exactly one uop (the paper notes
operating at instruction granularity "works fine for fixed-length
ISAs").  Every instruction is described by:

* ``opcode`` — mnemonic string (interned; comparisons are by identity),
* ``dst`` — flat destination architectural register index or ``None``,
* ``srcs`` — tuple of flat source register indices,
* ``imm`` — immediate operand (also the address offset for memory ops),
* ``target`` — statically known control-flow target PC, if any.

Instruction *classes* (:class:`UopClass`) drive the timing model: which
execution ports accept the uop and its latency.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

INSTRUCTION_BYTES = 4
"""Size of every instruction; PCs advance by this amount."""


class UopClass(enum.IntEnum):
    """Execution class of a uop; selects ports and latency."""

    ALU = 0        # single-cycle integer ops
    MUL = 1        # integer multiply
    DIV = 2        # integer divide / remainder
    FP = 3         # floating point arithmetic
    LOAD = 4
    STORE = 5
    BR_COND = 6    # conditional direct branch
    BR_JUMP = 7    # unconditional direct jump
    BR_CALL = 8    # direct call (pushes return address)
    BR_RET = 9     # return (indirect via ra, predicted with RAS)
    BR_IND = 10    # other indirect jump (jr / computed goto)
    NOP = 11
    HALT = 12


#: Execution latency (cycles in the execution units) per class.
CLASS_LATENCY = {
    UopClass.ALU: 1,
    UopClass.MUL: 3,
    UopClass.DIV: 12,
    UopClass.FP: 4,
    UopClass.LOAD: 1,       # address generation; cache adds the rest
    UopClass.STORE: 1,
    UopClass.BR_COND: 1,
    UopClass.BR_JUMP: 1,
    UopClass.BR_CALL: 1,
    UopClass.BR_RET: 1,
    UopClass.BR_IND: 1,
    UopClass.NOP: 1,
    UopClass.HALT: 1,
}

BRANCH_CLASSES = frozenset(
    {
        UopClass.BR_COND,
        UopClass.BR_JUMP,
        UopClass.BR_CALL,
        UopClass.BR_RET,
        UopClass.BR_IND,
    }
)

#: Branch classes whose direction or target is actually predicted (and
#: can therefore mispredict).  Direct jumps/calls always resolve at
#: decode in our model and never mispredict.
PREDICTED_BRANCH_CLASSES = frozenset(
    {UopClass.BR_COND, UopClass.BR_RET, UopClass.BR_IND}
)


# opcode -> (UopClass, has_dst, num_srcs, has_imm)
_OPCODE_TABLE: dict[str, tuple[UopClass, bool, int, bool]] = {
    # integer ALU, register-register
    "add": (UopClass.ALU, True, 2, False),
    "sub": (UopClass.ALU, True, 2, False),
    "and": (UopClass.ALU, True, 2, False),
    "or": (UopClass.ALU, True, 2, False),
    "xor": (UopClass.ALU, True, 2, False),
    "shl": (UopClass.ALU, True, 2, False),
    "shr": (UopClass.ALU, True, 2, False),
    "slt": (UopClass.ALU, True, 2, False),
    "sltu": (UopClass.ALU, True, 2, False),
    "min": (UopClass.ALU, True, 2, False),
    "max": (UopClass.ALU, True, 2, False),
    # integer ALU, register-immediate
    "addi": (UopClass.ALU, True, 1, True),
    "subi": (UopClass.ALU, True, 1, True),
    "andi": (UopClass.ALU, True, 1, True),
    "ori": (UopClass.ALU, True, 1, True),
    "xori": (UopClass.ALU, True, 1, True),
    "shli": (UopClass.ALU, True, 1, True),
    "shri": (UopClass.ALU, True, 1, True),
    "slti": (UopClass.ALU, True, 1, True),
    "li": (UopClass.ALU, True, 0, True),
    "mov": (UopClass.ALU, True, 1, False),
    # multiply / divide
    "mul": (UopClass.MUL, True, 2, False),
    "div": (UopClass.DIV, True, 2, False),
    "rem": (UopClass.DIV, True, 2, False),
    # floating point (operate on f-registers; values are floats)
    "fadd": (UopClass.FP, True, 2, False),
    "fsub": (UopClass.FP, True, 2, False),
    "fmul": (UopClass.FP, True, 2, False),
    "fdiv": (UopClass.FP, True, 2, False),
    "fmin": (UopClass.FP, True, 2, False),
    "fmax": (UopClass.FP, True, 2, False),
    "fmov": (UopClass.FP, True, 1, False),
    "fli": (UopClass.FP, True, 0, True),
    "itof": (UopClass.FP, True, 1, False),
    "ftoi": (UopClass.FP, True, 1, False),
    "fcmplt": (UopClass.FP, True, 2, False),  # int dst = (f1 < f2)
    # memory: ld rd, imm(rs1) / st rs2, imm(rs1)
    "ld": (UopClass.LOAD, True, 1, True),
    "fld": (UopClass.LOAD, True, 1, True),
    "st": (UopClass.STORE, False, 2, True),
    "fst": (UopClass.STORE, False, 2, True),
    # control flow
    "beq": (UopClass.BR_COND, False, 2, False),
    "bne": (UopClass.BR_COND, False, 2, False),
    "blt": (UopClass.BR_COND, False, 2, False),
    "bge": (UopClass.BR_COND, False, 2, False),
    "ble": (UopClass.BR_COND, False, 2, False),
    "bgt": (UopClass.BR_COND, False, 2, False),
    "jmp": (UopClass.BR_JUMP, False, 0, False),
    "call": (UopClass.BR_CALL, True, 0, False),   # dst = ra
    "ret": (UopClass.BR_RET, False, 1, False),    # src = ra
    "jr": (UopClass.BR_IND, False, 1, False),
    "callr": (UopClass.BR_IND, True, 1, False),   # indirect call: dst = ra
    # misc
    "nop": (UopClass.NOP, False, 0, False),
    "halt": (UopClass.HALT, False, 0, False),
}


def opcode_signature(opcode: str) -> tuple[UopClass, bool, int, bool]:
    """Return ``(uop_class, has_dst, num_srcs, has_imm)`` for an opcode."""
    try:
        return _OPCODE_TABLE[opcode]
    except KeyError:
        raise ValueError(f"unknown opcode: {opcode!r}") from None


def known_opcodes() -> frozenset[str]:
    """The set of all valid opcode mnemonics."""
    return frozenset(_OPCODE_TABLE)


@dataclass(frozen=True)
class Instruction:
    """A decoded static instruction.

    ``pc`` is filled in by the assembler/program builder.  ``target`` is
    the statically-encoded control-flow target PC for direct branches,
    jumps, and calls (``None`` for indirect control flow and non-branch
    instructions).
    """

    opcode: str
    dst: int | None = None
    srcs: tuple[int, ...] = ()
    imm: int | None = None
    target: int | None = None
    pc: int = -1
    label: str | None = field(default=None, compare=False)
    #: 1-based source line in the assembly text this instruction came
    #: from (``None`` for hand-built instructions).  Carried so lint
    #: findings and static-chain reports can point at workload source lines;
    #: excluded from equality like ``label``.
    line: int | None = field(default=None, compare=False)

    # Derived accessors are pure functions of the frozen fields and sit
    # on the simulator's per-cycle hot path, so they are cached on first
    # access (cached_property writes straight into __dict__, which a
    # frozen dataclass still has).
    @cached_property
    def uop_class(self) -> UopClass:
        return _OPCODE_TABLE[self.opcode][0]

    @cached_property
    def is_branch(self) -> bool:
        """True for any control-flow instruction (cond, jump, call, ret, indirect)."""
        return _OPCODE_TABLE[self.opcode][0] in BRANCH_CLASSES

    @cached_property
    def is_conditional(self) -> bool:
        return _OPCODE_TABLE[self.opcode][0] is UopClass.BR_COND

    @cached_property
    def is_indirect(self) -> bool:
        return _OPCODE_TABLE[self.opcode][0] in (UopClass.BR_RET, UopClass.BR_IND)

    @cached_property
    def is_load(self) -> bool:
        return _OPCODE_TABLE[self.opcode][0] is UopClass.LOAD

    @cached_property
    def is_store(self) -> bool:
        return _OPCODE_TABLE[self.opcode][0] is UopClass.STORE

    @cached_property
    def is_mem(self) -> bool:
        return _OPCODE_TABLE[self.opcode][0] in (UopClass.LOAD, UopClass.STORE)

    @cached_property
    def latency(self) -> int:
        return CLASS_LATENCY[_OPCODE_TABLE[self.opcode][0]]

    @cached_property
    def fallthrough_pc(self) -> int:
        return self.pc + INSTRUCTION_BYTES

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.opcode]
        if self.dst is not None:
            parts.append(f"d{self.dst}")
        if self.srcs:
            parts.append("s" + ",".join(map(str, self.srcs)))
        if self.imm is not None:
            parts.append(f"#{self.imm}")
        if self.target is not None:
            parts.append(f"->{self.target:#x}")
        return f"{self.pc:#06x}: " + " ".join(parts)
