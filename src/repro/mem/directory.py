"""Inclusive directory controller embedded in the shared LLC.

One transaction may be in flight per line; requests arriving while a
transaction is pending queue behind it.  The directory is *inclusive* of
all privately cached lines: allocating an entry in a full set recalls
(invalidates) a victim entry's private copies first — the paper's
inclusion-deadlock ingredient (section 3.2.5), since a recall invalidation
sent to a core that holds the line *locked* is deferred until unlock.

Data payloads are not modeled (values live in the global store); the
directory models permission transfer and latency:

- L3 presence hit: ``l3.tag + l3.data`` cycles to data.
- L3 miss: DRAM latency, then the line is installed in the L3.

Hot-path design: directory state lives in dense struct-of-arrays tables
sharded by address bank (``bank = set_index % llc_banks``, so every set
resides wholly in one bank).  Each bank slot is one tracked line: owner
(``-1`` = none), sharer set as a **bitmask** (bit *i* = core *i* — a
natural fit for the paper's 32-core machine), pending transaction, and
LRU stamp, all in parallel lists indexed by slot.  Slots are recycled
through a per-bank free list, so the footprint is proportional to the
lines actually touched, not the configured capacity (400% coverage of
32 cores' private caches would be half a million entries).  The service
paths work directly on the masks — no per-request set objects — and
:class:`Transaction` objects are pooled.

Introspection (tests, invariant audits, the observability layer) goes
through :class:`DirectoryEntry`, a live *view* over a bank slot: reads
and writes pass through to the tables, and ``entry.sharers`` is a
mutable set-like proxy over the bitmask, so fabricating drifted states
in tests works exactly as it did with dict/set entries.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.common.config import MemoryConfig
from repro.common.errors import SimulationError
from repro.common.events import EventQueue
from repro.common.stats import StatsRegistry
from repro.mem.cache import CacheArray
from repro.mem.coherence import (
    DIRECTORY_NODE,
    CoherenceMessage,
    MessageKind,
)
from repro.mem.interconnect import Interconnect

#: Upper bound on pooled Transaction objects per controller.
_TXN_POOL_LIMIT = 64


def _mask_iter(mask: int) -> Iterator[int]:
    """Set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _SharerSet:
    """Mutable set-of-cores view over one bank slot's sharer bitmask."""

    __slots__ = ("_bank", "_slot")

    def __init__(self, bank: "_DirectoryBank", slot: int) -> None:
        self._bank = bank
        self._slot = slot

    def _mask(self) -> int:
        return self._bank.sharers[self._slot]

    def add(self, core: int) -> None:
        self._bank.sharers[self._slot] |= 1 << core

    def discard(self, core: int) -> None:
        self._bank.sharers[self._slot] &= ~(1 << core)

    def clear(self) -> None:
        self._bank.sharers[self._slot] = 0

    def __contains__(self, core: int) -> bool:
        return bool(self._bank.sharers[self._slot] >> core & 1)

    def __iter__(self) -> Iterator[int]:
        return _mask_iter(self._bank.sharers[self._slot])

    def __len__(self) -> int:
        return self._bank.sharers[self._slot].bit_count()

    def __bool__(self) -> bool:
        return self._bank.sharers[self._slot] != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _SharerSet):
            return self._mask() == other._mask()
        if isinstance(other, (set, frozenset)):
            return set(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"{{{', '.join(map(str, self))}}}"


class DirectoryEntry:
    """Live view of one tracked line: an owner (M/E) xor a sharer set.

    One permanent view object exists per bank slot; every attribute
    reads/writes the bank's dense tables, so mutations made through a
    view (tests fabricating drift) are the directory's real state.
    """

    __slots__ = ("_bank", "_slot", "sharers")

    def __init__(self, bank: "_DirectoryBank", slot: int) -> None:
        self._bank = bank
        self._slot = slot
        self.sharers = _SharerSet(bank, slot)

    @property
    def line(self) -> int:
        return self._bank.lines[self._slot]

    @property
    def owner(self) -> Optional[int]:
        owner = self._bank.owner[self._slot]
        return None if owner < 0 else owner

    @owner.setter
    def owner(self, core: Optional[int]) -> None:
        self._bank.owner[self._slot] = -1 if core is None else core

    @property
    def pending(self) -> Optional["Transaction"]:
        return self._bank.pending[self._slot]

    @pending.setter
    def pending(self, txn: Optional["Transaction"]) -> None:
        self._bank.pending[self._slot] = txn

    @property
    def last_use(self) -> int:
        return self._bank.last_use[self._slot]

    @property
    def holders(self) -> set[int]:
        holders = set(_mask_iter(self._bank.sharers[self._slot]))
        owner = self._bank.owner[self._slot]
        if owner >= 0:
            holders.add(owner)
        return holders

    @property
    def holders_mask(self) -> int:
        mask = self._bank.sharers[self._slot]
        owner = self._bank.owner[self._slot]
        return mask | (1 << owner) if owner >= 0 else mask

    @property
    def empty(self) -> bool:
        return (
            self._bank.owner[self._slot] < 0
            and self._bank.sharers[self._slot] == 0
        )

    def __repr__(self) -> str:
        return (
            f"DirectoryEntry(line={self.line:#x}, owner={self.owner}, "
            f"sharers={self.sharers!r}, pending={self.pending is not None})"
        )


class _DirectoryBank:
    """Dense SoA state tables for the sets this bank owns."""

    __slots__ = ("lines", "owner", "sharers", "pending", "last_use", "views", "free")

    def __init__(self) -> None:
        self.lines: List[int] = []
        self.owner: List[int] = []
        self.sharers: List[int] = []
        self.pending: List[Optional[Transaction]] = []
        self.last_use: List[int] = []
        self.views: List[DirectoryEntry] = []
        self.free: List[int] = []

    def alloc(self, line: int) -> DirectoryEntry:
        free = self.free
        if free:
            slot = free.pop()
            self.lines[slot] = line
        else:
            slot = len(self.lines)
            self.lines.append(line)
            self.owner.append(-1)
            self.sharers.append(0)
            self.pending.append(None)
            self.last_use.append(0)
            self.views.append(DirectoryEntry(self, slot))
        return self.views[slot]

    def release(self, slot: int) -> None:
        self.lines[slot] = -1
        self.owner[slot] = -1
        self.sharers[slot] = 0
        self.pending[slot] = None
        self.free.append(slot)


@dataclass
class Transaction:
    """One in-flight directory transaction (request service or recall).

    ``waiting_acks`` is a core bitmask (same encoding as the sharer
    tables).  Instances are pooled by the controller; a transaction is
    recycled when it closes, after its blocked requests replay.
    """

    txn_id: int
    kind: str  # "GetS" | "GetX" | "Recall"
    line: int
    requester: int  # core id; DIRECTORY_NODE for recalls
    waiting_acks: int = 0
    data_ready_at: int = 0
    grant: Optional[MessageKind] = None
    #: Grant sent; waiting for the requester's Unblock before closing.
    awaiting_unblock: bool = False
    #: Requests blocked behind this transaction (same line, or a recall
    #: freeing a directory way).
    blocked: List[CoherenceMessage] = field(default_factory=list)


class DirectoryController:
    """The shared-LLC directory node on the interconnect."""

    def __init__(
        self,
        queue: EventQueue,
        network: Interconnect,
        memory_config: MemoryConfig,
        num_cores: int,
        stats: StatsRegistry,
        total_private_lines: Optional[int] = None,
    ) -> None:
        self._queue = queue
        self._network = network
        self._config = memory_config
        self._stats = stats.scoped("dir")
        # Pre-bound hot counters (request/grant paths fire per message).
        self._c_req = {
            MessageKind.GET_S: self._stats.counter("req.GetS"),
            MessageKind.GET_X: self._stats.counter("req.GetX"),
        }
        self._c_grant = {
            kind: self._stats.counter(f"grant.{kind.value}")
            for kind in (MessageKind.DATA_E, MessageKind.DATA_S, MessageKind.DATA_M)
        }
        self._c_l3_hits = self._stats.counter("l3_hits")
        self._c_l3_misses = self._stats.counter("l3_misses")
        self._c_queued = self._stats.counter("queued_behind_pending")
        network.register(DIRECTORY_NODE, self.on_message)

        if total_private_lines is None:
            per_core = memory_config.l2.num_lines
            total_private_lines = per_core * num_cores
        capacity = max(
            memory_config.directory.ways,
            int(total_private_lines * memory_config.directory.coverage),
        )
        self._ways = memory_config.directory.ways
        self._num_sets = max(1, capacity // self._ways)
        self._num_banks = network.num_banks
        self._banks = [_DirectoryBank() for _ in range(self._num_banks)]
        #: line -> live entry view (the only per-line lookup structure).
        self._entries: Dict[int, DirectoryEntry] = {}
        # Per-set resident entries, for victim selection (each set lives
        # wholly in one bank; keyed by set index).
        self._sets: Dict[int, List[DirectoryEntry]] = {}
        # Requests that could not even start a recall (all ways pending).
        self._set_overflow: Dict[int, deque] = {}

        self._l3 = CacheArray(memory_config.l3)
        self._next_txn_id = 1
        self._pending_by_id: Dict[int, Transaction] = {}
        self._use_clock = 0
        self._txn_pool: List[Transaction] = []
        #: The directory's probe table (see repro.uarch.probe), None
        #: unless observed.
        self.probe = None

    # ------------------------------------------------------------------
    # message entry point

    def on_message(self, message: CoherenceMessage) -> None:
        kind = message.kind
        if kind in (MessageKind.GET_S, MessageKind.GET_X):
            self._c_req[kind].add()
            self._handle_request(message)
        elif kind is MessageKind.PUT_LINE:
            self._handle_put(message)
        elif kind in (MessageKind.INV_ACK, MessageKind.DOWNGRADE_ACK):
            self._handle_ack(message)
        elif kind is MessageKind.UNBLOCK:
            self._handle_unblock(message)
        else:
            raise SimulationError(f"directory got unexpected message {message}")

    # ------------------------------------------------------------------
    # requests

    def _handle_request(self, message: CoherenceMessage) -> None:
        entry = self._entries.get(message.line)
        if entry is not None:
            bank, slot = entry._bank, entry._slot
            txn = bank.pending[slot]
            if txn is not None:
                message.retained = True
                txn.blocked.append(message)
                self._c_queued.add()
                return
            self._use_clock += 1
            bank.last_use[slot] = self._use_clock
            self._service(entry, message)
            return
        # Allocate a new entry (inclusive directory).
        entry = self._try_allocate(message)
        if entry is not None:
            self._service(entry, message)

    def _set_of(self, line: int) -> int:
        return line % self._num_sets

    def bank_of(self, line: int) -> int:
        """Bank owning ``line``'s set (``set_index % llc_banks``)."""
        return (line % self._num_sets) % self._num_banks

    def _try_allocate(self, message: CoherenceMessage) -> Optional[DirectoryEntry]:
        """Allocate a directory entry, recalling a victim if needed.

        Returns the new entry, or None if the request was parked behind a
        recall (it will be re-handled when space frees up).
        """
        set_index = self._set_of(message.line)
        resident = self._sets.get(set_index)
        if resident is None:
            resident = self._sets[set_index] = []
        if len(resident) < self._ways:
            bank = self._banks[set_index % self._num_banks]
            entry = bank.alloc(message.line)
            self._entries[message.line] = entry
            resident.append(entry)
            self._use_clock += 1
            bank.last_use[entry._slot] = self._use_clock
            return entry
        # Pick the LRU victim without a pending transaction.
        victim: Optional[DirectoryEntry] = None
        victim_use = 0
        for candidate in resident:
            bank, slot = candidate._bank, candidate._slot
            if bank.pending[slot] is not None:
                continue
            use = bank.last_use[slot]
            if victim is None or use < victim_use:
                victim = candidate
                victim_use = use
        if victim is None:
            # Every way is mid-transaction; park the request set-wide.
            message.retained = True
            overflow = self._set_overflow.get(set_index)
            if overflow is None:
                overflow = self._set_overflow[set_index] = deque()
            overflow.append(message)
            self._stats.bump("set_overflow")
            return None
        self._start_recall(victim, message)
        return None

    def _new_txn(self, kind: str, line: int, requester: int) -> Transaction:
        txn_id = self._next_txn_id
        self._next_txn_id = txn_id + 1
        pool = self._txn_pool
        if pool:
            txn = pool.pop()
            txn.txn_id = txn_id
            txn.kind = kind
            txn.line = line
            txn.requester = requester
            txn.waiting_acks = 0
            txn.data_ready_at = 0
            txn.grant = None
            txn.awaiting_unblock = False
        else:
            txn = Transaction(
                txn_id=txn_id, kind=kind, line=line, requester=requester
            )
        self._pending_by_id[txn_id] = txn
        probe = self.probe
        if probe is not None and probe.txn_open is not None:
            probe.txn_open(txn)
        return txn

    def _recycle_txn(self, txn: Transaction) -> None:
        if len(self._txn_pool) < _TXN_POOL_LIMIT:
            txn.blocked.clear()
            self._txn_pool.append(txn)

    def _start_recall(
        self, victim: DirectoryEntry, blocked_request: CoherenceMessage
    ) -> None:
        """Invalidate all private copies of ``victim``, then free it."""
        self._stats.bump("recalls")
        bank, slot = victim._bank, victim._slot
        line = bank.lines[slot]
        txn = self._new_txn("Recall", line, DIRECTORY_NODE)
        owner = bank.owner[slot]
        holders = bank.sharers[slot]
        if owner >= 0:
            holders |= 1 << owner
        txn.waiting_acks = holders
        blocked_request.retained = True
        txn.blocked.append(blocked_request)
        bank.pending[slot] = txn
        if not holders:
            # Nothing cached anywhere: complete immediately.
            self._complete_recall(txn)
            return
        send_msg = self._network.send_msg
        for core in _mask_iter(holders):
            send_msg(MessageKind.INV, line, DIRECTORY_NODE, core, txn.txn_id)

    def _service(self, entry: DirectoryEntry, message: CoherenceMessage) -> None:
        """Start serving a GetS/GetX against a non-pending entry.

        Every request opens a transaction that stays pending until the
        requester's Unblock confirms the grant arrived (see UNBLOCK in
        the coherence module) — requests for the same line queue behind
        it, which closes the two-owners race.
        """
        bank, slot = entry._bank, entry._slot
        line, requester = message.line, message.src
        data_ready_at = self._queue.now + self._data_latency(line)
        owner = bank.owner[slot]
        req_bit = 1 << requester
        if message.kind is MessageKind.GET_S:
            if owner >= 0 and owner != requester:
                txn = self._open_txn("GetS", entry, requester, data_ready_at)
                txn.grant = MessageKind.DATA_S
                txn.waiting_acks = 1 << owner
                self._network.send_msg(
                    MessageKind.DOWNGRADE, line, DIRECTORY_NODE, owner, txn.txn_id
                )
                return
            txn = self._open_txn("GetS", entry, requester, data_ready_at)
            # Grant Exclusive iff nobody else holds the line (the owner,
            # if any, is the requester itself here).
            if bank.sharers[slot] & ~req_bit == 0:
                txn.grant = MessageKind.DATA_E
            else:
                txn.grant = MessageKind.DATA_S
            self._complete_request(txn)
            return

        # GET_X
        targets = bank.sharers[slot]
        if owner >= 0:
            targets |= 1 << owner
        targets &= ~req_bit
        txn = self._open_txn("GetX", entry, requester, data_ready_at)
        txn.grant = MessageKind.DATA_M
        if not targets:
            self._complete_request(txn)
            return
        txn.waiting_acks = targets
        send_msg = self._network.send_msg
        for core in _mask_iter(targets):
            send_msg(MessageKind.INV, line, DIRECTORY_NODE, core, txn.txn_id)

    def _open_txn(
        self, kind: str, entry: DirectoryEntry, requester: int, data_ready_at: int
    ) -> Transaction:
        txn = self._new_txn(kind, entry._bank.lines[entry._slot], requester)
        txn.data_ready_at = data_ready_at
        entry._bank.pending[entry._slot] = txn
        return txn

    def _data_latency(self, line: int) -> int:
        """Directory lookup plus L3-or-DRAM data latency; fills the L3."""
        base = self._config.directory.latency
        if self._l3.lookup(line) is not None:
            self._c_l3_hits.add()
            return base + self._config.l3.hit_latency
        self._c_l3_misses.add()
        self._l3.fill(line)
        return base + self._config.l3.tag_latency + self._config.dram_latency

    def _send_grant_cb(self, txn: Transaction) -> None:
        """Posted grant send; ``txn`` stays pending until its Unblock."""
        self._network.send_msg(
            txn.grant, txn.line, DIRECTORY_NODE, txn.requester
        )

    # ------------------------------------------------------------------
    # acks and completion

    def _handle_ack(self, message: CoherenceMessage) -> None:
        txn = self._pending_by_id.get(message.transaction)
        if txn is None:
            raise SimulationError(f"ack for unknown transaction: {message}")
        txn.waiting_acks &= ~(1 << message.src)
        if txn.waiting_acks:
            return
        if txn.kind == "Recall":
            self._complete_recall(txn)
        else:
            self._complete_request(txn)

    def _complete_request(self, txn: Transaction) -> None:
        """Acks (if any) are in: update sharing state and send the grant.

        The transaction stays pending until the requester's Unblock.
        """
        entry = self._entries[txn.line]
        bank, slot = entry._bank, entry._slot
        grant = txn.grant
        requester = txn.requester
        if txn.kind == "GetX" or grant is MessageKind.DATA_E:
            bank.owner[slot] = requester
            bank.sharers[slot] = 0
        else:  # DATA_S: add requester; a previous owner became a sharer
            previous_owner = bank.owner[slot]
            bank.owner[slot] = -1
            mask = bank.sharers[slot] | (1 << requester)
            if previous_owner >= 0:
                mask |= 1 << previous_owner
            bank.sharers[slot] = mask
        assert grant is not None
        txn.awaiting_unblock = True
        self._c_grant[grant].add()
        delay = txn.data_ready_at - self._queue.now
        self._queue.post1(delay if delay > 0 else 0, self._send_grant_cb, txn)

    def _handle_unblock(self, message: CoherenceMessage) -> None:
        entry = self._entries.get(message.line)
        txn = entry.pending if entry is not None else None
        if txn is None:
            raise SimulationError(f"unblock without pending transaction: {message}")
        if not txn.awaiting_unblock or txn.requester != message.src:
            raise SimulationError(f"unexpected unblock {message} for {txn}")
        self._close_txn(entry, txn)

    def _complete_recall(self, txn: Transaction) -> None:
        probe = self.probe
        if probe is not None and probe.txn_close is not None:
            probe.txn_close(txn)
        entry = self._entries.pop(txn.line, None)
        if entry is not None:
            self._sets[self._set_of(txn.line)].remove(entry)
            entry._bank.release(entry._slot)
        self._pending_by_id.pop(txn.txn_id, None)
        blocked = txn.blocked
        self._drain_overflow_into(blocked, txn.line)
        self._replay(blocked)
        self._recycle_txn(txn)

    def _close_txn(self, entry: DirectoryEntry, txn: Transaction) -> None:
        probe = self.probe
        if probe is not None and probe.txn_close is not None:
            probe.txn_close(txn)
        entry._bank.pending[entry._slot] = None
        self._pending_by_id.pop(txn.txn_id, None)
        blocked = txn.blocked
        self._drain_overflow_into(blocked, txn.line)
        self._replay(blocked)
        self._recycle_txn(txn)

    def _replay(self, blocked: List[CoherenceMessage]) -> None:
        """Re-handle parked requests; recycle any that complete.

        A replayed request may get parked again (the handler re-sets
        ``retained``); otherwise its transaction is open and the message
        itself is done, so it goes back to the interconnect pool.
        """
        for message in blocked:
            message.retained = False
            self._handle_request(message)
            self._network.release(message)
        blocked.clear()

    def _drain_overflow_into(
        self, blocked: List[CoherenceMessage], line: int
    ) -> None:
        """Requests parked because all ways were pending get retried."""
        overflow = self._set_overflow.get(self._set_of(line))
        while overflow:
            blocked.append(overflow.popleft())

    # ------------------------------------------------------------------
    # evictions

    def _handle_put(self, message: CoherenceMessage) -> None:
        entry = self._entries.get(message.line)
        if entry is None:
            return
        bank, slot = entry._bank, entry._slot
        src = message.src
        if bank.owner[slot] == src:
            bank.owner[slot] = -1
        bank.sharers[slot] &= ~(1 << src)
        if (
            bank.owner[slot] < 0
            and bank.sharers[slot] == 0
            and bank.pending[slot] is None
        ):
            self._entries.pop(message.line)
            self._sets[self._set_of(message.line)].remove(entry)
            bank.release(slot)

    # ------------------------------------------------------------------
    # introspection (tests, invariant audits)

    def entry(self, line: int) -> Optional[DirectoryEntry]:
        return self._entries.get(line)

    def entries(self) -> Iterator[tuple[int, DirectoryEntry]]:
        """Iterate ``(line, entry)`` pairs (invariant-audit introspection).

        Lets :mod:`repro.mem.invariants` run the *reverse* agreement
        check — every holder the directory records actually caches the
        line — which the core-side walk cannot see.
        """
        return iter(self._entries.items())

    @property
    def num_banks(self) -> int:
        return self._num_banks

    @property
    def pending_transactions(self) -> int:
        return len(self._pending_by_id)
