"""Static decode cache: one precomputed record per program position.

The fetch/dispatch/execute path used to re-derive the same facts from
the frozen instruction dataclasses on every dynamic instance: the
instruction class, the deduplicated source-register tuples, the masked
immediates, the ALU latency, the execute mode.  A program is immutable
and tiny, so all of that is computed once per (program, core config)
and shared by every dynamic instruction fetched from that position —
the core stores the record on the :class:`~repro.uarch.dynins.DynInstr`
at fetch and every later stage reads plain slots instead of calling
``source_registers()`` / ``isinstance`` chains.

The cache is memoized on the :class:`~repro.isa.program.Program` object
itself (keyed by the latency parameters, which may differ between core
presets), so the many Systems a sweep builds over the same program
decode it once.
"""

from __future__ import annotations

from typing import Optional

from repro.isa.instructions import (
    Alu,
    AluOp,
    AtomicRMW,
    Branch,
    BranchCond,
    Fence,
    Halt,
    Instruction,
    Load,
    LoadImm,
    Pause,
    Store,
)
from repro.isa.program import Program
from repro.isa.semantics import ALU_FN, BRANCH_FN
from repro.uarch.dynins import InstrClass

_MASK64 = (1 << 64) - 1

#: ``exec_mode`` values for the ALU execute stage.
EXEC_CONST = 1  # result is a precomputed constant (LoadImm, Pause, NOP)
EXEC_MOV = 2  # result is src1 (register mov) or the raw immediate
EXEC_EVAL = 3  # full evaluate_alu

#: Dense small-int encoding of InstrClass, for tuple-indexed dispatch
#: tables (indexing by int skips the enum ``__hash__`` a dict pays).
KIDX_ALU = 0
KIDX_BRANCH = 1
KIDX_ATOMIC = 2
KIDX_LOAD = 3
KIDX_STORE = 4
KIDX_FENCE = 5
KIDX_HALT = 6

#: InstrClass members in ``kidx`` order (table builders iterate this).
KIDX_ORDER = (
    InstrClass.ALU,
    InstrClass.BRANCH,
    InstrClass.ATOMIC,
    InstrClass.LOAD,
    InstrClass.STORE,
    InstrClass.FENCE,
    InstrClass.HALT,
)

_KIDX_BY_KLASS = {klass: index for index, klass in enumerate(KIDX_ORDER)}


class DecodedOp:
    """Everything the pipeline needs to know about one static position."""

    __slots__ = (
        "static",
        "klass",
        "kidx",
        "commit_simple",
        "spin",
        "dst",
        "addr_regs",
        "value_regs",
        "src1",
        "src2",
        "imm_masked",
        "exec_mode",
        "const",
        "alu_latency",
        "target_index",
        "mem_base",
        "mem_offset",
        "mem_index",
        "store_src",
        "store_imm",
        "expected",
        "alu_fn",
        "branch_fn",
        "branch_always",
        "load_like",
        "store_like",
    )

    def __init__(
        self, static: Instruction, alu_latency_floor: int, pause_latency: int
    ) -> None:
        self.static = static
        self.spin = static.spin
        self.dst: Optional[int] = None
        self.addr_regs: tuple[int, ...] = ()
        self.value_regs: tuple[int, ...] = ()
        self.src1: Optional[int] = None
        self.src2: Optional[int] = None
        self.imm_masked: Optional[int] = None
        self.exec_mode = 0
        self.const = 0
        self.alu_latency = 0
        self.target_index = -1
        self.mem_base = 0
        self.mem_offset = 0
        self.mem_index: Optional[int] = None
        self.store_src: Optional[int] = None
        self.store_imm: Optional[int] = None
        self.expected: Optional[int] = None
        #: Folded evaluator for EXEC_EVAL ALU ops / branch conditions
        #: (see repro.isa.semantics.ALU_FN / BRANCH_FN).
        self.alu_fn = None
        self.branch_fn = None
        #: Unconditional branch: predict/train skip the counter table
        #: (fetch and branch resolve read this slot instead of
        #: re-testing ``static.cond`` through the enum).
        self.branch_always = False

        kind = type(static)
        if kind is Alu:
            self.klass = InstrClass.ALU
            self.dst = static.dst
            self.value_regs = _dedup(static.source_registers())
            self.src1 = static.src1
            self.src2 = static.src2
            if static.imm is not None:
                self.imm_masked = static.imm & _MASK64
            self.alu_latency = max(static.latency, alu_latency_floor)
            if static.op is AluOp.NOP:
                self.exec_mode = EXEC_CONST
            elif static.op is AluOp.MOV:
                self.exec_mode = EXEC_MOV
                # mov-from-immediate keeps the *raw* immediate (the
                # legacy execute path did not mask it).
                self.const = static.imm or 0
            else:
                self.exec_mode = EXEC_EVAL
                self.alu_fn = ALU_FN[static.op]
        elif kind is LoadImm:
            self.klass = InstrClass.ALU
            self.dst = static.dst
            self.exec_mode = EXEC_CONST
            self.const = static.value & _MASK64
            self.alu_latency = 1
        elif kind is Pause:
            self.klass = InstrClass.ALU
            self.exec_mode = EXEC_CONST
            self.alu_latency = pause_latency
        elif kind is Branch:
            self.klass = InstrClass.BRANCH
            self.value_regs = _dedup(static.source_registers())
            self.src1 = static.src1
            self.src2 = static.src2
            if static.imm is not None:
                self.imm_masked = static.imm & _MASK64
            self.target_index = static.target_index
            self.branch_fn = BRANCH_FN[static.cond]
            self.branch_always = static.cond is BranchCond.ALWAYS
        elif kind is Load:
            self.klass = InstrClass.LOAD
            self.dst = static.dst
            self._decode_mem(static.mem)
        elif kind is Store:
            self.klass = InstrClass.STORE
            self._decode_mem(static.mem)
            if static.src is not None:
                self.value_regs = (static.src,)
                self.store_src = static.src
            else:
                self.store_imm = static.imm & _MASK64  # type: ignore[operator]
        elif kind is AtomicRMW:
            self.klass = InstrClass.ATOMIC
            self.dst = static.dst
            self._decode_mem(static.mem)
            self.value_regs = _dedup(static.value_registers())
            self.store_src = static.src
            if static.imm is not None:
                self.store_imm = static.imm & _MASK64
            self.expected = static.expected
        elif kind is Fence:
            self.klass = InstrClass.FENCE
        elif kind is Halt:
            self.klass = InstrClass.HALT
        else:  # pragma: no cover - subclassed ISA types
            self.klass = InstrClass.of(static)
        kidx = self.kidx = _KIDX_BY_KLASS[self.klass]
        #: Commit needs no store-buffer check (everything but
        #: ATOMIC/FENCE/HALT commits as soon as it completed).
        self.commit_simple = kidx < KIDX_FENCE and kidx != KIDX_ATOMIC
        #: Precomputed DynInstr.is_load_like / is_store_like (the hot
        #: memory-unit paths read a slot instead of a property call).
        self.load_like = kidx == KIDX_LOAD or kidx == KIDX_ATOMIC
        self.store_like = kidx == KIDX_STORE or kidx == KIDX_ATOMIC

    def _decode_mem(self, mem) -> None:
        self.addr_regs = _dedup(mem.source_registers())
        self.mem_base = mem.base
        self.mem_offset = mem.offset
        self.mem_index = mem.index


def _dedup(regs: tuple[int, ...]) -> tuple[int, ...]:
    """Unique, order-preserving (no-op for the common 0/1-reg cases)."""
    if len(regs) > 1:
        return tuple(dict.fromkeys(regs))
    return regs


def decode_program(
    program: Program, alu_latency_floor: int, pause_latency: int
) -> list[DecodedOp]:
    """Decode ``program`` once per latency configuration and memoize."""
    cache = getattr(program, "_decode_cache", None)
    if cache is None:
        cache = {}
        program._decode_cache = cache  # type: ignore[attr-defined]
    key = (alu_latency_floor, pause_latency)
    decoded = cache.get(key)
    if decoded is None:
        decoded = [
            DecodedOp(static, alu_latency_floor, pause_latency)
            for static in program.instructions
        ]
        cache[key] = decoded
    return decoded
