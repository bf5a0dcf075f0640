"""The Atomic Queue (AQ) — section 4 of the paper.

The AQ tracks, per in-flight atomic RMW, whether it holds a cacheline
lock and where that line lives in the L1D (set/way).  It is managed as a
FIFO conceptually parallel to the SQ: an entry is allocated when the
atomic dispatches and deallocated when its store_unlock performs.

The hardware's four CAM searches map to these methods:

1. set/way search (remote request): :meth:`is_line_locked` /
   :meth:`is_locked_setway` — does any Locked entry match?
2. set search (replacement): :meth:`locked_l1_ways` — which ways of a
   set must the replacement policy skip?
3. SQid search (forwarding): :meth:`on_store_broadcast` — a store
   leaving the SQ broadcasts its id and set/way; forwarded entries
   capture the lock (lock_on_access / do_not_unlock transfer).
4. seqNum search (flush / re-schedule): :meth:`squash_from`.

Each search is a plain scan of the entries: the queue holds
``aq_entries`` entries (4 by default, never more than the L1D ways), so
a scan touches a handful at most, and incrementally maintained
lock-count and SQid indexes measured no faster.  Two entries can
legitimately hold the same line at once during a do_not_unlock transfer
window, which the scans handle for free.

Entries store the line number alongside set/way purely as a simulator
convenience (the hardware needs only set/way; the line is recoverable
from the tag array).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

#: Shared empty result for locked_l1_ways (read-only by contract).
_EMPTY_WAYS: set[int] = set()

from repro.common.stats import StatsRegistry
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uarch.dynins import DynInstr


class AtomicQueueEntry:
    """One AQ entry: Locked bit, L1D set/way, seqNum, SQid (section 4.1)."""

    __slots__ = ("instr", "seq", "locked", "set_index", "way", "line",
                 "source_store", "chain_depth", "_owner")

    def __init__(
        self, instr: DynInstr, owner: Optional["AtomicQueue"] = None
    ) -> None:
        self.instr = instr
        self.seq = instr.seq
        self.locked = False
        self.set_index: Optional[int] = None
        self.way: Optional[int] = None
        self.line: Optional[int] = None
        #: The store this atomic forwarded from (the SQid field), if any.
        self.source_store: Optional[DynInstr] = None
        #: Consecutive-forwarding depth, for the chain bound (3.3.4).
        self.chain_depth = 0
        #: Owning queue, whose probe sees lock and unlock (None once
        #: deallocated or for free-standing entries).
        self._owner = owner

    def lock(self, line: int, set_index: int, way: int) -> None:
        if self.locked and self._owner is not None:  # pragma: no cover
            self._owner._on_entry_released(self)  # defensive: re-lock
        self.locked = True
        self.line = line
        self.set_index = set_index
        self.way = way
        if self._owner is not None:
            self._owner._on_entry_locked(self)

    def release(self) -> None:
        if self.locked and self._owner is not None:
            self._owner._on_entry_released(self)
        self.locked = False

    def __repr__(self) -> str:
        state = (
            f"locked {self.line:#x}@s{self.set_index}w{self.way}"
            if self.locked
            else ("forwarded" if self.source_store is not None else "idle")
        )
        return f"AQEntry(seq={self.seq}, {state})"


class AtomicQueue:
    """FIFO of AQ entries with the four associative searches."""

    def __init__(
        self,
        capacity: int,
        stats: StatsRegistry,
        on_fully_unlocked: Callable[[int], None],
    ) -> None:
        self._capacity = capacity
        self._entries: list[AtomicQueueEntry] = []
        self._stats = stats.scoped("aq")
        #: Called with a line number when its last lock is lifted; wired
        #: to PrivateHierarchy.notify_unlock so deferred requests replay.
        self._on_fully_unlocked = on_fully_unlocked
        #: The core's probe table (lock / unlock), None unless observed.
        self.probe = None

    # ------------------------------------------------------------------
    # probe points (called from the entry's mutators)

    def _on_entry_locked(self, entry: AtomicQueueEntry) -> None:
        probe = self.probe
        if probe is not None and probe.lock is not None:
            probe.lock(entry)

    def _on_entry_released(self, entry: AtomicQueueEntry) -> None:
        probe = self.probe
        if probe is not None and probe.unlock is not None:
            probe.unlock(entry)

    # ------------------------------------------------------------------
    # allocation / deallocation

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[AtomicQueueEntry]:
        return iter(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self._capacity

    def allocate(self, instr: DynInstr) -> Optional[AtomicQueueEntry]:
        """Allocate an entry at dispatch; None when full (stall front-end)."""
        if self.full:
            self._stats.bump("alloc_stalls")
            return None
        entry = AtomicQueueEntry(instr, owner=self)
        self._entries.append(entry)
        instr.aq_entry = entry
        self._stats.peak("occupancy_peak", len(self._entries))
        return entry

    def deallocate(self, entry: AtomicQueueEntry) -> None:
        """Remove an entry as its store_unlock performs (head of FIFO)."""
        self._entries.remove(entry)
        entry.instr.aq_entry = None
        line = entry.line
        was_locked = entry.locked
        entry.release()
        entry.source_store = None
        entry._owner = None
        if was_locked and line is not None and not self.is_line_locked(line):
            self._on_fully_unlocked(line)

    # ------------------------------------------------------------------
    # search 1 & 2: locked lines / locked ways

    def is_line_locked(self, line: int) -> bool:
        for entry in self._entries:
            if entry.locked and entry.line == line:
                return True
        return False

    def is_locked_setway(self, set_index: int, way: int) -> bool:
        for entry in self._entries:
            if entry.locked and entry.set_index == set_index and entry.way == way:
                return True
        return False

    def locked_l1_ways(self, set_index: int) -> set[int]:
        ways = _EMPTY_WAYS
        for entry in self._entries:
            if entry.locked and entry.set_index == set_index:
                if ways is _EMPTY_WAYS:
                    ways = set()
                ways.add(entry.way)  # type: ignore[arg-type]
        # Callers only probe membership; the shared constant keeps the
        # no-locks common case allocation-free.
        return ways

    def locked_lines(self) -> set[int]:
        return {e.line for e in self._entries if e.locked}  # type: ignore[misc]

    @property
    def any_locked(self) -> bool:
        for entry in self._entries:
            if entry.locked:
                return True
        return False

    def oldest_locked_entry(self) -> Optional[AtomicQueueEntry]:
        """Watchdog flush point: the oldest *squashable* lock holder.

        Committed atomics are excluded: their store_unlock is already at
        (or heading to) the SB head of an empty SB and will release the
        lock within a cache write latency, so they can never be the
        blocking party — and a committed instruction cannot be flushed.
        """
        oldest = None
        for entry in self._entries:
            if entry.locked and not entry.instr.committed:
                if oldest is None or entry.seq < oldest.seq:
                    oldest = entry
        return oldest

    # ------------------------------------------------------------------
    # search 3: SQid broadcast at store perform time

    def on_store_broadcast(
        self, store: DynInstr, line: int, set_index: int, way: int
    ) -> None:
        """A store wrote to the L1: forwarded entries capture the lock.

        Implements both lock_on_access (ordinary forwarding store) and
        the unlock-then-lock transfer that realizes do_not_unlock for a
        forwarding store_unlock (section 4.2).
        """
        for entry in self._entries:
            if entry.source_store is store:
                entry.lock(line, set_index, way)
                entry.source_store = None
                self._stats.bump("lock_captures")

    # ------------------------------------------------------------------
    # search 4: flush

    def squash_from(self, seq: int) -> list[AtomicQueueEntry]:
        """Flush entries with seqNum >= seq; lift their locks.

        Returns the flushed entries so the caller can take back
        forwarding responsibilities (see responsibilities module).
        Unlock-on-squash: a flushed Locked entry stops participating in
        the searches; if that leaves the line with no lock, deferred
        remote requests are replayed.

        Flushed entries keep their ``source_store`` because the caller
        still needs it to revoke the forwarding responsibility.
        """
        flushed = [e for e in self._entries if e.seq >= seq]
        if not flushed:
            return []
        self._entries = [e for e in self._entries if e.seq < seq]
        freed_lines = []
        for entry in flushed:
            entry.instr.aq_entry = None
            if entry.locked:
                if entry.line is not None:
                    freed_lines.append(entry.line)
                entry.release()
                self._stats.bump("unlock_on_squash")
        for line in freed_lines:
            if not self.is_line_locked(line):
                self._on_fully_unlocked(line)
        return flushed
