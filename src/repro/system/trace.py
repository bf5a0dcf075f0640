"""Pipeline lifecycle tracing for debugging and teaching.

``PipelineTracer.attach(core)`` records one core's key pipeline
events — dispatch, load/lock perform, store perform (an atomic's is
its unlock), commit, squash — as :class:`TraceEvent` rows, listening on
the core's probe points (:mod:`repro.uarch.probe`).  An untraced core
runs no tracer code.  ``timeline`` renders an instruction-centric
view:

    seq   42 pc   7 atomic   | D@100 P@131(lock 0x40) C@140 W@144

Events live in a capped ring (:class:`~repro.obs.events.BoundedEventLog`):
once ``capacity`` is reached the oldest events are evicted and counted
in :attr:`PipelineTracer.dropped`, so tracing an arbitrarily long run
costs bounded memory and ``timeline`` simply renders the retained
window.  (The original implementation kept an unbounded list and would
"happily eat your memory" — its own words — on long runs.)

A traced core keeps the batched pipeline legs and spin fast-forward.
A parked spin span therefore leaves a gap in the timeline: its laps
are re-synthesized in the stats, not replayed as events.

For system-wide, multi-category tracing (coherence, AQ locks,
watchdog, forwarding chains) see :mod:`repro.obs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.consistency.model import OpKind, Operation
from repro.obs.events import DEFAULT_CAPACITY, BoundedEventLog
from repro.uarch.core import OutOfOrderCore
from repro.uarch.dynins import DynInstr
from repro.uarch.probe import probe_of


@dataclass(frozen=True)
class TraceEvent:
    """One pipeline event."""

    cycle: int
    core: int
    kind: str  # dispatch | perform | lock | store_perform | commit | squash
    seq: int
    pc: int
    detail: str = ""

    def __str__(self) -> str:
        detail = f" {self.detail}" if self.detail else ""
        return (
            f"[{self.cycle:6d}] core{self.core} {self.kind:13s} "
            f"seq={self.seq:<5d} pc={self.pc:<4d}{detail}"
        )


@dataclass
class _InstrTimeline:
    seq: int
    pc: int
    klass: str
    dispatch: Optional[int] = None
    perform: Optional[int] = None
    commit: Optional[int] = None
    write: Optional[int] = None
    squashed: Optional[int] = None
    lock_line: Optional[int] = None


class PipelineTracer:
    """Attachable per-core event recorder (capped; see module docstring)."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.events: BoundedEventLog[TraceEvent] = BoundedEventLog(capacity)
        self._cores: list[OutOfOrderCore] = []

    @property
    def capacity(self) -> int:
        return self.events.capacity

    @property
    def dropped(self) -> int:
        """Events evicted from the ring to respect the capacity bound."""
        return self.events.dropped

    def attach(self, core: OutOfOrderCore) -> "PipelineTracer":
        """Listen on ``core``'s probe; returns self for chaining."""
        self._cores.append(core)
        append = self.events.append
        queue, core_id = core.queue, core.core_id

        def record(kind: str, seq: int, pc: int, detail: str) -> None:
            append(TraceEvent(queue.now, core_id, kind, seq, pc, detail))

        def dispatch(instr: DynInstr) -> None:
            record("dispatch", instr.seq, instr.pc, instr.klass.value)

        def commit(instr: DynInstr) -> None:
            record("commit", instr.seq, instr.pc, instr.klass.value)

        def perform(instr: DynInstr, kind: str) -> None:
            seq, pc, result = instr.seq, instr.pc, instr.result
            if kind == "load_lock":
                record("lock", seq, pc, f"line {instr.line:#x} read {result}")
            elif kind == "load":
                record("perform", seq, pc, f"load {instr.address:#x}={result}")
            else:
                record("perform", seq, pc, f"forwarded={result}")

        def store_perform(store: DynInstr) -> None:
            detail = f"{store.address:#x}<-{store.store_value}"
            if store.is_atomic:
                detail += " unlock"
            record("store_perform", store.seq, store.pc, detail)

        def squash(seq: int, new_pc: int, cause: str) -> None:
            record("squash", seq, new_pc, f"flush >= {seq}, refetch pc {new_pc}")

        probe_of(core).listen(
            dispatch=dispatch,
            commit=commit,
            perform=perform,
            store_perform=store_perform,
            squash=squash,
        )
        return self

    # ------------------------------------------------------------------

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    def for_core(self, core_id: int) -> list[TraceEvent]:
        return [event for event in self.events if event.core == core_id]

    def timeline(self, core_id: int) -> str:
        """Instruction-centric rendering of one core's trace."""
        rows: dict[int, _InstrTimeline] = {}
        for event in self.for_core(core_id):
            if event.kind == "squash":
                for seq, row in rows.items():
                    if seq >= event.seq and row.commit is None:
                        row.squashed = event.cycle
                continue
            row = rows.setdefault(
                event.seq,
                _InstrTimeline(seq=event.seq, pc=event.pc, klass=""),
            )
            if event.kind == "dispatch":
                row.dispatch = event.cycle
                row.klass = event.detail
            elif event.kind in ("perform", "lock"):
                row.perform = event.cycle
            elif event.kind == "store_perform":
                row.write = event.cycle
            elif event.kind == "commit":
                row.commit = event.cycle
        lines = []
        for seq in sorted(rows):
            row = rows[seq]
            parts = [f"seq {row.seq:4d} pc {row.pc:3d} {row.klass:8s}|"]
            if row.dispatch is not None:
                parts.append(f"D@{row.dispatch}")
            if row.perform is not None:
                parts.append(f"P@{row.perform}")
            if row.commit is not None:
                parts.append(f"C@{row.commit}")
            if row.write is not None:
                parts.append(f"W@{row.write}")
            if row.squashed is not None:
                parts.append(f"X@{row.squashed}")
            lines.append(" ".join(parts))
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)


# ----------------------------------------------------------------------
# committed-trace export (consistency repro files)


def operations_to_jsonable(
    traces: Sequence[Sequence[Operation]],
) -> list[list[dict]]:
    """JSON-able form of per-core committed memory-operation traces.

    Used by the consistency fuzzer's repro files so a violating
    execution's evidence travels with the (program, config, seed) triple
    that produced it.  Round-trips through
    :func:`operations_from_jsonable`.
    """
    out = []
    for trace in traces:
        rows = []
        for op in trace:
            row: dict = {"kind": op.kind.value}
            if op.address is not None:
                row["address"] = op.address
            if op.value_read is not None:
                row["read"] = op.value_read
            if op.value_written is not None:
                row["written"] = op.value_written
            rows.append(row)
        out.append(rows)
    return out


def operations_from_jsonable(
    data: Sequence[Sequence[dict]],
) -> list[list[Operation]]:
    """Inverse of :func:`operations_to_jsonable`."""
    return [
        [
            Operation(
                kind=OpKind(row["kind"]),
                address=row.get("address"),
                value_read=row.get("read"),
                value_written=row.get("written"),
            )
            for row in trace
        ]
        for trace in data
    ]
