"""Load queue and store queue (with its committed suffix, the store buffer).

Both queues hold the owning :class:`DynInstr` objects directly.  Entries
arrive in program order, commit from the front, and squash from the back,
so deques are exact.

Address indexes: every entry whose address has resolved is also
present in per-word (and, for loads, per-line) dict-of-list buckets, so
the per-memory-op searches — youngest-older-store forwarding lookups,
memory-dependence violation checks, and load->load ordering checks —
touch only the entries on the *same word/line* instead of the whole
queue.  The buckets hold exactly
the addr-resolved, in-queue entries:

- entries enter a bucket at :meth:`insert` (when the address is already
  resolved, as in unit tests) or when the core's agen resolves the
  address (:meth:`StoreQueue.on_addr_resolved`; for loads the agen calls
  ``LoadQueue._index`` behind the same flag probe);
- entries leave at :meth:`release` (commit / SB drain) and
  :meth:`squash_from`;
- membership is tracked by the ``F_LQ_INDEXED`` / ``F_SQ_INDEXED`` bits
  of ``DynInstr.flags`` so no operation ever double-inserts or scans a
  bucket to test membership.

Buckets are unordered sets-in-a-list; the queries that need an extremum
(*oldest* violating load, *youngest* matching store) take a min/max over
the bucket, which equals the first match of a program-ordered queue scan
because the deque order is exactly seq order.  The buckets are pure
redundancy over the deques, so :meth:`LoadQueue.audit_indexes` and
:meth:`StoreQueue.audit_indexes` cross-check them in the online
invariant audit (:mod:`repro.mem.invariants`).

The store queue contains both ordinary stores and the store_unlock part
of atomics.  Its committed prefix is the store buffer (SB): only the
oldest committed, unperformed entry may write to the cache, giving TSO
its store->store order.  In-order commit plus in-order front release
make the committed entries a *prefix* of the queue, which is what lets
:meth:`StoreQueue.sb_empty_below` answer from the front entry alone.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, Optional

from repro.uarch.dynins import DynInstr, F_LQ_INDEXED, F_SQ_INDEXED


class LoadQueue:
    """Program-ordered queue of loads and atomic load_locks."""

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._entries: Deque[DynInstr] = deque()
        #: addr-resolved entries bucketed by word / by line (see module
        #: docstring for the entry/exit points and membership flag).
        self._by_word: dict[int, list[DynInstr]] = {}
        self._by_line: dict[int, list[DynInstr]] = {}

    @property
    def full(self) -> bool:
        return len(self._entries) >= self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DynInstr]:
        return iter(self._entries)

    def insert(self, instr: DynInstr) -> None:
        if self.full:
            raise OverflowError("LQ full")
        self._entries.append(instr)
        if instr.addr_ready:
            self._index(instr)

    def _index(self, instr: DynInstr) -> None:
        instr.flags |= F_LQ_INDEXED
        word = instr.word
        bucket = self._by_word.get(word)
        if bucket is None:
            self._by_word[word] = [instr]
        else:
            bucket.append(instr)
        line = instr.line
        bucket = self._by_line.get(line)
        if bucket is None:
            self._by_line[line] = [instr]
        else:
            bucket.append(instr)

    def _unindex(self, instr: DynInstr) -> None:
        instr.flags &= ~F_LQ_INDEXED
        bucket = self._by_word[instr.word]
        if len(bucket) == 1:
            del self._by_word[instr.word]
        else:
            bucket.remove(instr)
        bucket = self._by_line[instr.line]
        if len(bucket) == 1:
            del self._by_line[instr.line]
        else:
            bucket.remove(instr)

    def release(self, instr: DynInstr) -> None:
        """Remove a committed load from the front region."""
        if self._entries and self._entries[0] is instr:
            self._entries.popleft()
        else:  # pragma: no cover - defensive; commits are in order
            self._entries.remove(instr)
        if instr.flags & F_LQ_INDEXED:
            self._unindex(instr)

    def squash_from(self, seq: int) -> list[DynInstr]:
        squashed: list[DynInstr] = []
        while self._entries and self._entries[-1].seq >= seq:
            instr = self._entries.pop()
            squashed.append(instr)
            if instr.flags & F_LQ_INDEXED:
                self._unindex(instr)
        return squashed

    def has_older_than(self, seq: int) -> bool:
        """Any entry older than ``seq``?  O(1): the front is the oldest."""
        return bool(self._entries) and self._entries[0].seq < seq

    def audit_indexes(self) -> list[str]:
        """Cross-check the word/line buckets against the deque.

        Returns violation strings (empty = consistent).  Part of the
        online invariant audit (:mod:`repro.mem.invariants`): the
        buckets are pure redundancy over the deque, so any divergence
        is a bookkeeping bug that would silently corrupt
        forwarding/violation queries.
        """
        problems: list[str] = []
        in_queue = {id(instr) for instr in self._entries}
        flagged = 0
        for instr in self._entries:
            if instr.addr_ready and not (instr.flags & F_LQ_INDEXED):
                problems.append(
                    f"LQ seq={instr.seq}: address resolved but not indexed"
                )
            if instr.flags & F_LQ_INDEXED:
                flagged += 1
        for label, buckets, field in (
            ("by_word", self._by_word, "word"),
            ("by_line", self._by_line, "line"),
        ):
            total = 0
            for key, bucket in buckets.items():
                if not bucket:
                    problems.append(f"LQ {label}[{key:#x}]: empty bucket retained")
                for instr in bucket:
                    total += 1
                    if id(instr) not in in_queue:
                        problems.append(
                            f"LQ {label}[{key:#x}]: stale seq={instr.seq} "
                            "not in the queue"
                        )
                    elif not (instr.flags & F_LQ_INDEXED):
                        problems.append(
                            f"LQ {label}[{key:#x}]: seq={instr.seq} present "
                            "but membership flag clear"
                        )
                    if getattr(instr, field) != key:
                        problems.append(
                            f"LQ {label}[{key:#x}]: seq={instr.seq} filed "
                            f"under wrong {field}"
                        )
            if total != flagged:
                problems.append(
                    f"LQ {label}: holds {total} entries but {flagged} are flagged"
                )
        return problems

    def oldest_ordering_violation(self, line: int) -> Optional[DynInstr]:
        """Oldest speculatively performed load that read ``line``.

        Called when the line leaves the private hierarchy (invalidation
        or eviction): any performed-but-uncommitted load whose value came
        from memory may now violate TSO load->load order and must squash.
        Loads forwarded from the local SQ are exempt (reading your own
        store early is TSO-legal), and performed load_locks hold the line
        locked, so the line cannot have left while they are in flight.
        """
        # Performed entries are always addr-resolved, so the line bucket
        # holds every candidate.
        victim: Optional[DynInstr] = None
        for load in self._by_line.get(line, ()):
            if (
                load.performed
                and not load.committed
                and load.forwarded_from is None
                and not load.is_atomic
            ):
                if victim is None or load.seq < victim.seq:
                    victim = load
        return victim

    def oldest_violating_load(self, store_seq: int, word: int) -> Optional[DynInstr]:
        """Oldest load that mis-speculated past a store to ``word``.

        A younger load that already performed without taking its value
        from the store (or a younger one) violated the memory dependence
        — Table 2's MDV events.  The word bucket holds every
        addr-resolved load on the word, a superset of the performed ones.
        """
        victim: Optional[DynInstr] = None
        for load in self._by_word.get(word, ()):
            if (
                load.seq > store_seq
                and load.performed
                and not load.committed
                and (load.forwarded_from is None or load.forwarded_from < store_seq)
            ):
                if victim is None or load.seq < victim.seq:
                    victim = load
        return victim


class StoreQueue:
    """Program-ordered queue of stores and atomic store_unlocks."""

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._entries: Deque[DynInstr] = deque()
        #: addr-resolved entries bucketed by word (see module docstring).
        self._by_word: dict[int, list[DynInstr]] = {}

    @property
    def full(self) -> bool:
        return len(self._entries) >= self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DynInstr]:
        return iter(self._entries)

    def insert(self, instr: DynInstr) -> None:
        if self.full:
            raise OverflowError("SQ full")
        self._entries.append(instr)
        if instr.addr_ready:
            self._index(instr)

    def on_addr_resolved(self, instr: DynInstr) -> None:
        """Agen resolved the entry's address: enter the word bucket."""
        if not (instr.flags & F_SQ_INDEXED):
            self._index(instr)

    def _index(self, instr: DynInstr) -> None:
        instr.flags |= F_SQ_INDEXED
        bucket = self._by_word.get(instr.word)
        if bucket is None:
            self._by_word[instr.word] = [instr]
        else:
            bucket.append(instr)

    def _unindex(self, instr: DynInstr) -> None:
        instr.flags &= ~F_SQ_INDEXED
        bucket = self._by_word[instr.word]
        if len(bucket) == 1:
            del self._by_word[instr.word]
        else:
            bucket.remove(instr)

    def release(self, instr: DynInstr) -> None:
        """Remove a performed store (it has left the SB)."""
        if self._entries and self._entries[0] is instr:
            self._entries.popleft()
        else:  # pragma: no cover - defensive; SB drains in order
            self._entries.remove(instr)
        if instr.flags & F_SQ_INDEXED:
            self._unindex(instr)

    def squash_from(self, seq: int) -> list[DynInstr]:
        squashed: list[DynInstr] = []
        while self._entries and self._entries[-1].seq >= seq:
            instr = self._entries.pop()
            squashed.append(instr)
            if instr.flags & F_SQ_INDEXED:
                self._unindex(instr)
        return squashed

    def has_older_than(self, seq: int) -> bool:
        """Any entry older than ``seq``?  O(1): the front is the oldest."""
        return bool(self._entries) and self._entries[0].seq < seq

    def audit_indexes(self) -> list[str]:
        """Cross-check the word buckets against the deque (see LoadQueue)."""
        problems: list[str] = []
        in_queue = {id(instr) for instr in self._entries}
        flagged = 0
        for instr in self._entries:
            if instr.addr_ready and not (instr.flags & F_SQ_INDEXED):
                problems.append(
                    f"SQ seq={instr.seq}: address resolved but not indexed"
                )
            if instr.flags & F_SQ_INDEXED:
                flagged += 1
        total = 0
        for word, bucket in self._by_word.items():
            if not bucket:
                problems.append(f"SQ by_word[{word:#x}]: empty bucket retained")
            for instr in bucket:
                total += 1
                if id(instr) not in in_queue:
                    problems.append(
                        f"SQ by_word[{word:#x}]: stale seq={instr.seq} "
                        "not in the queue"
                    )
                elif not (instr.flags & F_SQ_INDEXED):
                    problems.append(
                        f"SQ by_word[{word:#x}]: seq={instr.seq} present "
                        "but membership flag clear"
                    )
                if instr.word != word:
                    problems.append(
                        f"SQ by_word[{word:#x}]: seq={instr.seq} filed "
                        "under wrong word"
                    )
        if total != flagged:
            problems.append(
                f"SQ by_word: holds {total} entries but {flagged} are flagged"
            )
        return problems

    @property
    def sb_head(self) -> Optional[DynInstr]:
        """Oldest committed, unperformed store — the one that may drain."""
        if self._entries:
            head = self._entries[0]
            if head.committed and not head.store_performed:
                return head
        return None

    def sb_empty_below(self, seq: int) -> bool:
        """True when no committed store older than ``seq`` remains.

        Committed entries form a prefix of the queue (in-order commit,
        in-order front release), so the front entry alone decides: if it
        is uncommitted, so is everything behind it.
        """
        if not self._entries:
            return True
        head = self._entries[0]
        return head.seq >= seq or not head.committed

    def youngest_matching_store(self, word: int, before_seq: int) -> Optional[DynInstr]:
        """Youngest older store with a resolved address equal to ``word``."""
        best: Optional[DynInstr] = None
        for store in self._by_word.get(word, ()):
            if store.seq < before_seq and (best is None or store.seq > best.seq):
                best = store
        return best
