"""Dynamic (in-flight) instructions.

One :class:`DynInstr` per fetched instruction.  Atomic RMWs are a single
ROB entry whose load_lock / modify / store_unlock phases are tracked by
flags — behaviourally equivalent to gem5's µop split (the fences of the
baseline decode are modeled as issue/commit conditions supplied by the
active :class:`~repro.core.policy.AtomicPolicy`).

Squash safety: events scheduled on behalf of an instruction check
``instr.squashed`` (and that the instruction object is still the one the
event was created for — sequence numbers are never reused).  A squash
also drops the instruction's back-references (``dependents``,
``prev_producer``, ``data_waiters``, ``perform_waiters``; see
``OutOfOrderCore._squash_from``), so a squashed instruction is in no
reference cycle and is freed by reference counting once its last
pending event has run.  Nothing needs them after the rename rollback:
every wakeup path skips squashed consumers and waiters.

Hot-path design: one ``DynInstr`` is created per fetched instruction, so
the constructor avoids per-instance work wherever the answer is shared
(the class is looked up in a type-keyed table instead of an isinstance
chain, and the caller may pass a precomputed klass) or usually unused
(the dependent/waiter containers are created lazily on first append).
Pool membership (the core's retry queues and the LSQ address indexes)
is tracked in the ``flags`` bitmask so "is it already queued?" is one
AND instead of a list scan.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.isa.instructions import (
    Alu,
    AtomicRMW,
    Branch,
    Fence,
    Halt,
    Instruction,
    Load,
    LoadImm,
    Pause,
    Store,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.atomic_queue import AtomicQueueEntry


class InstrClass(enum.Enum):
    """Coarse classification used by dispatch and the energy model."""

    ALU = "alu"
    LOAD = "load"
    STORE = "store"
    ATOMIC = "atomic"
    BRANCH = "branch"
    FENCE = "fence"
    HALT = "halt"

    @staticmethod
    def of(instruction: Instruction) -> "InstrClass":
        klass = KLASS_BY_TYPE.get(type(instruction))
        if klass is not None:
            return klass
        # Fallback for subclasses (none exist in the ISA today).
        if isinstance(instruction, AtomicRMW):
            return InstrClass.ATOMIC
        if isinstance(instruction, Load):
            return InstrClass.LOAD
        if isinstance(instruction, Store):
            return InstrClass.STORE
        if isinstance(instruction, Branch):
            return InstrClass.BRANCH
        if isinstance(instruction, Fence):
            return InstrClass.FENCE
        if isinstance(instruction, Halt):
            return InstrClass.HALT
        if isinstance(instruction, (Alu, LoadImm, Pause)):
            return InstrClass.ALU
        raise TypeError(f"unknown instruction type: {instruction!r}")


#: Exact-type classification table (the ISA classes are final, so this is
#: equivalent to the isinstance chain above, minus the per-call checks).
KLASS_BY_TYPE: dict[type, InstrClass] = {
    Alu: InstrClass.ALU,
    LoadImm: InstrClass.ALU,
    Pause: InstrClass.ALU,
    Branch: InstrClass.BRANCH,
    AtomicRMW: InstrClass.ATOMIC,
    Load: InstrClass.LOAD,
    Store: InstrClass.STORE,
    Fence: InstrClass.FENCE,
    Halt: InstrClass.HALT,
}


# -- flags bitmask bits ---------------------------------------------------
#: Queued in the core's stalled-atomics retry pool.
F_STALLED_ATOMIC = 1
#: Queued in the core's waiting-for-store-agen retry pool.
F_WAIT_AGEN = 2
#: Queued in the core's waiting-for-fence retry pool.
F_WAIT_FENCE = 4
#: Present in the LoadQueue's per-word/per-line address indexes.
F_LQ_INDEXED = 8
#: Present in the StoreQueue's per-word address index.
F_SQ_INDEXED = 16


class ForwardKind(enum.Enum):
    """Where a load's value came from, when forwarded."""

    FROM_STORE = "store"  # ordinary store
    FROM_ATOMIC = "atomic"  # a store_unlock


class LocalityClass(enum.Enum):
    """Figure 13 classification of a load_lock's data source."""

    FORWARDED = "forwarded"
    WRITE_HIT = "write_hit"  # L1/L2 hit with write permission
    MISS = "miss"


class DynInstr:
    """One in-flight instruction."""

    __slots__ = (
        "seq",
        "instr",
        "klass",
        "dec",
        "pc",
        "pred_taken",
        "next_pc",
        "squashed",
        "completed",
        "committed",
        "result",
        "src_values",
        "addr_pending",
        "value_pending",
        "dependents",
        "prev_producer",
        "address",
        "word",
        "line",
        "addr_ready",
        "performed",
        "perform_cycle",
        "forwarded_from",
        "forward_kind",
        "store_data_ready",
        "store_value",
        "store_performed",
        "store_issued",
        "perform_waiters",
        "data_waiters",
        "aq_entry",
        "locked_line",
        "new_value_ready",
        "_lock_on_behalf",
        "do_not_unlock",
        "locality",
        "actual_taken",
        "actual_target",
        "dispatch_cycle",
        "head_wait_cycle",
        "issue_cycle",
        "done_cycle",
        "mem_issued",
        "flags",
    )

    def __init__(
        self,
        seq: int,
        instruction: Instruction,
        pc: int,
        klass: Optional[InstrClass] = None,
        dec: Optional[object] = None,
    ) -> None:
        self.seq = seq
        self.instr = instruction
        self.klass = klass if klass is not None else InstrClass.of(instruction)
        #: Shared static-decode record (repro.uarch.decode.DecodedOp);
        #: set by the fetch stage, None for free-standing test instances.
        self.dec = dec
        self.pc = pc
        # frontend
        self.pred_taken = False
        self.next_pc = pc + 1
        # lifecycle
        self.squashed = False
        self.completed = False
        self.committed = False
        # operands / results
        self.result: Optional[int] = None
        self.src_values: dict[int, int] = {}
        self.addr_pending = 0
        self.value_pending = 0
        #: (consumer, kind, reg) triples to wake on completion; kind is
        #: "addr"/"value" telling the consumer which counter to decrement.
        #: Lazily created on first subscription.
        self.dependents: Optional[list[tuple["DynInstr", str, int]]] = None
        #: Snapshot of the previous producer per claimed destination
        #: register (rename rollback); lazily created on first claim.
        self.prev_producer: Optional[dict[int, Optional["DynInstr"]]] = None
        # memory
        self.address: Optional[int] = None
        self.word: Optional[int] = None
        self.line: Optional[int] = None
        self.addr_ready = False
        self.performed = False  # load part: value obtained
        self.perform_cycle = -1
        self.forwarded_from: Optional[int] = None  # seq of forwarding store
        self.forward_kind: Optional[ForwardKind] = None
        self.store_data_ready = False
        self.store_value: Optional[int] = None
        self.store_performed = False  # store part: written to cache
        self.store_issued = False  # store part: drain request sent
        #: callbacks fired when the store part performs (leaves the SB);
        #: lazily created on first append.
        self.perform_waiters: Optional[list] = None
        #: callbacks fired when the store's data becomes ready; lazy.
        self.data_waiters: Optional[list] = None
        # atomics
        self.aq_entry: Optional["AtomicQueueEntry"] = None
        self.locked_line: Optional[int] = None
        self.new_value_ready = False
        self._lock_on_behalf: Optional[list["AtomicQueueEntry"]] = None
        self.do_not_unlock = False
        self.locality: Optional[LocalityClass] = None
        # branches
        self.actual_taken: Optional[bool] = None
        self.actual_target: Optional[int] = None
        # timing marks
        self.dispatch_cycle = -1
        self.head_wait_cycle = -1  # FENCED: first cycle eligible-but-fenced
        self.issue_cycle = -1
        self.done_cycle = -1
        # scheduling flags
        self.mem_issued = False
        #: Membership bitmask (retry pools, LSQ indexes) — see F_* bits.
        self.flags = 0

    # -- classification helpers ------------------------------------------

    @property
    def lock_on_behalf(self) -> list["AtomicQueueEntry"]:
        """AQ entries this (ordinary) store must lock on behalf of."""
        existing = self._lock_on_behalf
        if existing is None:
            existing = self._lock_on_behalf = []
        return existing

    @property
    def is_load_like(self) -> bool:
        return self.klass in (InstrClass.LOAD, InstrClass.ATOMIC)

    @property
    def is_store_like(self) -> bool:
        return self.klass in (InstrClass.STORE, InstrClass.ATOMIC)

    @property
    def is_atomic(self) -> bool:
        return self.klass is InstrClass.ATOMIC

    @property
    def is_spin(self) -> bool:
        return self.instr.spin

    @property
    def holds_lock(self) -> bool:
        return self.aq_entry is not None and self.aq_entry.locked

    def __repr__(self) -> str:
        flags = []
        if self.squashed:
            flags.append("squashed")
        if self.committed:
            flags.append("committed")
        elif self.completed:
            flags.append("completed")
        detail = f" {','.join(flags)}" if flags else ""
        return f"DynInstr(seq={self.seq}, pc={self.pc}, {self.klass.value}{detail})"
