"""Micro-ISA: instruction set, assembler, programs, and semantics.

The ISA is the substrate every other subsystem consumes: the decoupled
branch predictor walks :class:`Program` images, the OoO core executes
:class:`Instruction` uops via :mod:`repro.isa.semantics`, and the TEA
Block Cache is keyed by :class:`BasicBlock` start PCs.
"""

from .assembler import AssemblerError, assemble
from .data_directives import AssembledUnit, assemble_unit
from .interpreter import (
    InterpreterError,
    InterpreterResult,
    InterpreterTimeout,
    run_program,
)
from .instructions import (
    BRANCH_CLASSES,
    CLASS_LATENCY,
    INSTRUCTION_BYTES,
    PREDICTED_BRANCH_CLASSES,
    Instruction,
    UopClass,
    known_opcodes,
    opcode_signature,
)
from .program import BasicBlock, Program
from .registers import (
    NUM_ARCH_REGS,
    NUM_FP_REGS,
    NUM_INT_REGS,
    REG_FP,
    REG_GP,
    REG_RA,
    REG_SP,
    REG_ZERO,
    is_fp_register,
    parse_register,
    register_name,
)
from .semantics import (
    branch_taken,
    branch_target,
    compute_result,
    effective_address,
    raw_bits,
    to_signed64,
)

__all__ = [
    "AssemblerError",
    "assemble",
    "AssembledUnit",
    "assemble_unit",
    "InterpreterError",
    "InterpreterResult",
    "InterpreterTimeout",
    "run_program",
    "BRANCH_CLASSES",
    "CLASS_LATENCY",
    "INSTRUCTION_BYTES",
    "PREDICTED_BRANCH_CLASSES",
    "Instruction",
    "UopClass",
    "known_opcodes",
    "opcode_signature",
    "BasicBlock",
    "Program",
    "NUM_ARCH_REGS",
    "NUM_FP_REGS",
    "NUM_INT_REGS",
    "REG_FP",
    "REG_GP",
    "REG_RA",
    "REG_SP",
    "REG_ZERO",
    "is_fp_register",
    "parse_register",
    "register_name",
    "branch_taken",
    "branch_target",
    "compute_result",
    "effective_address",
    "raw_bits",
    "to_signed64",
]
