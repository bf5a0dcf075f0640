"""The event-driven out-of-order core.

Pipeline model (all event-driven, no per-cycle polling):

- **Fetch/dispatch**: up to ``fetch_width`` instructions per cycle follow
  the predicted path.  Dispatch allocates ROB/LQ/SQ/AQ entries, renames
  sources against in-flight producers, and arms execution.
- **Issue/execute**: instructions wake when their producers complete;
  an issue-bandwidth limiter spreads wakeups over cycles.  Branches
  resolve and squash on mispredict; memory operations go through the
  memory unit below.
- **Memory unit**: loads search the SQ (store-to-load forwarding), honour
  fences, StoreSet predictions and the active atomic policy, then access
  the private hierarchy.  Stores agen out of order but write strictly
  in order from the store buffer after commit.
- **Commit**: in-order, ``commit_width`` per cycle.  Stores enter the SB
  at commit; atomics additionally wait for the SB to drain (every
  policy — for fenced ones the condition is vacuous by construction).
  Under the versioned policy, plain loads also wait at commit while an
  older atomic's release is unpublished (the version gate).

TSO enforcement:

- load->load: speculative loads that performed from memory are squashed
  when their line leaves the private hierarchy before commit
  (``on_line_lost``).
- store->store: single in-order draining SB.
- load->store: stores perform after commit.
- store->load around atomics: atomics commit only on an empty SB and
  their line stays locked until the store_unlock writes (section 3.2.3).

Squash safety: every deferred callback re-checks ``instr.squashed`` (and
``mem_issued``-style guards) before acting; sequence numbers are never
reused.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Callable, Deque, Optional

from repro.common.config import SystemConfig
from repro.common.events import EventQueue
from repro.common.stats import StatsRegistry
from repro.consistency.model import Operation
from repro.core.atomic_queue import AtomicQueue, AtomicQueueEntry
from repro.core.forwarding import (
    _CACHE as _CACHE_DECISION,
    LoadSource,
    decide_load_source,
)
from repro.core.policy import AtomicPolicy
from repro.core.responsibilities import (
    grant_forwarding_responsibility,
    revoke_forwarding_responsibility,
)
from repro.core.watchdog import DeadlockWatchdog
from repro.isa.program import Program
from repro.isa.registers import REGISTER_MASK
from repro.isa.semantics import evaluate_atomic
from repro.mem.data import GlobalMemory
from repro.mem.hierarchy import PrivateHierarchy, _noop
from repro.mem.lines import ADDRESS_MASK, LINE_BYTES, WORD_BYTES
from repro.mem.prefetch import StridePrefetcher
from repro.uarch.bandwidth import BandwidthLimiter
from repro.uarch.branch import BimodalPredictor
from repro.uarch.decode import (
    EXEC_CONST,
    EXEC_MOV,
    KIDX_ALU,
    KIDX_ATOMIC,
    KIDX_BRANCH,
    KIDX_FENCE,
    KIDX_HALT,
    KIDX_LOAD,
    KIDX_ORDER,
    KIDX_STORE,
    DecodedOp,
    decode_program,
)
from repro.uarch.dynins import (
    F_LQ_INDEXED,
    F_STALLED_ATOMIC,
    F_WAIT_AGEN,
    F_WAIT_FENCE,
    DynInstr,
    ForwardKind,
    InstrClass,
    LocalityClass,
)
from repro.uarch.lsq import LoadQueue, StoreQueue
from repro.uarch.rename import RenameMap
from repro.uarch.probe import CoreProbe
from repro.uarch.rob import ReorderBuffer
from repro.uarch.spinff import STREAK_MIN as SPIN_STREAK_MIN, SpinFastForward
from repro.uarch.storeset import StoreSetPredictor

#: Address generation latency (cycles after issue).
AGEN_LATENCY = 1
#: Latency of the PAUSE spin hint (x86 PAUSE stalls for tens of cycles).
PAUSE_LATENCY = 24

# Address arithmetic, inlined into _agen (see mem.lines for the layout).
_WORD_SHIFT = WORD_BYTES.bit_length() - 1
_LINE_SHIFT = LINE_BYTES.bit_length() - 1


class OutOfOrderCore:
    """One hardware thread's out-of-order pipeline."""

    def __init__(
        self,
        core_id: int,
        program: Program,
        config: SystemConfig,
        policy: AtomicPolicy,
        hierarchy: PrivateHierarchy,
        memory: GlobalMemory,
        queue: EventQueue,
        stats: StatsRegistry,
        initial_regs: Optional[dict[int, int]] = None,
    ) -> None:
        self.core_id = core_id
        self.program = program
        self.config = config
        self.cfg = config.core
        self.policy = policy
        self.hierarchy = hierarchy
        self.memory = memory
        self.queue = queue
        self.stats = stats
        # Pre-bound counter *methods* for the per-instruction hot path
        # (dispatch/issue/commit/load/store fire on every instruction;
        # binding ``.add`` once here skips both the string-key lookup
        # and the attribute load on each event).
        self._c_dispatched = stats.counter("dispatched").add
        self._c_issued_ops = stats.counter("issued_ops").add
        self._c_committed = stats.counter("committed").add
        # Created in InstrClass declaration order (stable registry key
        # order), then laid out as a kidx-indexed tuple so commit can
        # index by small int instead of hashing an enum.
        by_class = {
            klass: stats.counter(f"committed.{klass.value}").add
            for klass in InstrClass
        }
        self._c_committed_by_kidx = tuple(by_class[k] for k in KIDX_ORDER)
        self._c_loads_performed = stats.counter("loads_performed").add
        self._c_stores_performed = stats.counter("stores_performed").add
        self._c_load_locks_performed = stats.counter("load_locks_performed").add
        self._c_squashes = stats.counter("squashes").add
        self._c_squashed_instrs = stats.counter("squashed_instrs").add
        # Commit-path bumps that fire per instruction (spin workloads
        # commit mostly spin ops; every atomic takes the whole block in
        # _commit_atomic_stats) — prebound like the counters above.
        # Never-fired prebinds stay invisible (Counter.live).
        self._c_committed_spin = stats.counter("committed_spin").add
        self._c_atomics_committed = stats.counter("atomics_committed").add
        self._c_atomics_committed_spin = stats.counter(
            "atomics_committed_spin"
        ).add
        # Policy-constant choice, resolved once.
        self._c_atomic_fence_pair = (
            stats.counter("fences_omitted").add
            if policy.is_free
            else stats.counter("fences_executed").add
        )
        self._c_fwd_from_atomic = stats.counter("atomics_fwd_from_atomic").add
        self._c_fwd_from_store = stats.counter("atomics_fwd_from_store").add
        self._c_loc_forwarded = stats.counter("atomic_locality.forwarded").add
        self._c_loc_write_hit = stats.counter("atomic_locality.write_hit").add
        self._c_loc_miss = stats.counter("atomic_locality.miss").add
        # Frontend/memory stall bumps: spin workloads stall the frontend
        # on most fetch ticks, so these fire about as often as the
        # per-instruction counters above.
        self._c_stall_rob = stats.counter("dispatch_stall.rob").add
        self._c_stall_aq = stats.counter("dispatch_stall.aq").add
        self._c_aq_alloc_stalls = stats.counter("aq.alloc_stalls").add
        self._c_stall_lsq = stats.counter("dispatch_stall.lsq").add
        self._c_stall_lq = stats.counter("dispatch_stall.lq").add
        self._c_stall_sq = stats.counter("dispatch_stall.sq").add
        self._c_load_wait_store = stats.counter("load_wait_store").add
        self._c_load_lock_resched = stats.counter("load_lock_rescheduled").add
        self._c_atomic_forwarded = stats.counter("atomic_forwarded").add
        # Versioned release-consistency bookkeeping.  The stall counters
        # fire only under the versioned policy (never-fired prebinds stay
        # invisible, so the other policies' summaries are untouched);
        # the per-core flag keeps the hot commit window branch-cheap.
        self._versioned = policy.versioned
        self._c_version_chain_stall = stats.counter(
            "versioned.acquire_chain_stalls"
        ).add
        self._c_version_commit_stall = stats.counter(
            "versioned.load_commit_stalls"
        ).add
        #: Release version counter: bumped each time an atomic's
        #: store_unlock performs (the release edge becoming globally
        #: visible).  Maintained for every policy — it is one integer
        #: add per committed atomic — but only the versioned policy
        #: consults it (via the _atomics_sq watermark, which answers
        #: "is any older release still unpublished" in O(1)).
        self.release_version = 0

        self.rename = RenameMap(initial_regs)
        self.rob = ReorderBuffer(self.cfg.rob_entries)
        # The ROB deque is never reassigned, so bind it once: dispatch,
        # commit and the commit-readiness probe run on every instruction
        # and skip the property/method indirection.
        self._rob_entries = self.rob._entries
        self._rob_capacity = self.rob.capacity
        self.lq = LoadQueue(self.cfg.lq_entries)
        self.sq = StoreQueue(self.cfg.sq_entries)
        self.aq = AtomicQueue(
            config.free_atomics.aq_entries,
            stats,
            on_fully_unlocked=self._schedule_unlock_notify,
        )
        hierarchy.lock_view = self.aq
        hierarchy.on_line_lost = self._on_line_lost
        self.watchdog = DeadlockWatchdog(
            queue,
            self.aq,
            config.free_atomics.watchdog_cycles,
            config.free_atomics.watchdog_enabled,
            self._watchdog_flush,
            stats,
        )
        self.predictor = BimodalPredictor(self.cfg.predictor_entries)
        self.storeset = StoreSetPredictor(self.cfg.storeset_entries)
        self.prefetcher: Optional[StridePrefetcher] = None
        if config.memory.l1_stride_prefetcher:
            self.prefetcher = StridePrefetcher(
                issue=lambda line: hierarchy.request_read(line, _noop),
                stats=stats,
                degree=config.memory.prefetch_degree,
            )
        self.issue_bw = BandwidthLimiter(self.cfg.commit_width)
        self.max_forward_chain = config.free_atomics.max_forward_chain
        #: Per-position static decode records (memoized on the program,
        #: so cores sharing a program share the records — see
        #: repro.uarch.decode).
        self._decoded: list[DecodedOp] = decode_program(
            program, self.cfg.alu_latency, PAUSE_LATENCY
        )

        # Frontend state.
        self.pc = 0
        self.next_seq = 0
        self.halted = False  # fetched a Halt (stop fetching)
        self.finished = False  # committed the Halt
        self.finish_cycle: Optional[int] = None
        self._fetch_scheduled = False
        self._fetch_epoch = 0
        self._dispatch_blocked = False
        self._commit_scheduled = False
        self._last_commit_cycle = 0

        # Pre-bound tick callbacks: posted every fetch / commit cycle.
        self._fetch_cb = self._fetch_tick
        self._commit_cb = self._commit_tick

        # Loop-invariant hot-path prebinds (the batched windows and the
        # per-event callbacks below read these instead of chasing
        # self.cfg / bound-method attributes on every instruction).
        self._fetch_width = self.cfg.fetch_width
        self._commit_width = self.cfg.commit_width
        self._decoded_last = len(self._decoded) - 1
        self._regfile = self.rename.regfile
        self._producers = self.rename._producer
        self._execute_alu_cb = self._execute_alu
        self._resolve_branch_cb = self._resolve_branch
        self._agen_cb = self._agen
        self._notify_unlock_cb = hierarchy.notify_unlock
        self._finish_forward_cb = self._finish_forward
        # Arg-carrying memory-request callbacks (the hierarchy passes
        # the instruction back through the queue entry — no closure per
        # load/store request).
        self._perform_load_cb = self._perform_load
        self._perform_load_lock_cb = self._perform_load_lock
        self._perform_store_cb = self._perform_store

        # Waiting pools: intrusive queues.  Membership is mirrored in
        # DynInstr.flags (F_STALLED_ATOMIC / F_WAIT_AGEN / F_WAIT_FENCE)
        # so enqueue never scans for duplicates; _drain_retry_pool is
        # the only consumer and clears the flag as it drains.
        self._stalled_atomics: Deque[DynInstr] = deque()
        self._loads_waiting_agen: Deque[DynInstr] = deque()
        self._loads_waiting_fence: Deque[DynInstr] = deque()
        #: In-flight fences, program-ordered; the front is the oldest,
        #: which is all the load fence gate needs.  Commit pops the
        #: front, squash pops the suffix.
        self._fences: Deque[DynInstr] = deque()
        #: Atomics currently in the SQ, program-ordered.  An atomic
        #: leaves the SQ exactly when its store_unlock performs, so
        #: every member is unperformed and the front is the oldest
        #: unperformed atomic — the O(1) answer of
        #: _blocked_by_fenced_atomic.
        self._atomics_sq: Deque[DynInstr] = deque()

        # Accounting.
        self.active_cycles = 0
        self.quiescent_cycles = 0
        #: Invoked once, when the Halt commits; the System uses it to
        #: keep a finished-core count instead of polling every core
        #: after every event (idle-core quiescing).
        self.on_finished: Optional[Callable[[], None]] = None
        #: When set (System(trace=True)), committed memory operations are
        #: appended here in commit order, for the TSO checker.
        self.commit_trace: Optional[list[Operation]] = None
        #: The core's probe table (see repro.uarch.probe), shared with
        #: its AQ, watchdog and hierarchy.  None unless a tool observes
        #: this core.
        self.probe: Optional[CoreProbe] = None

        # Spin fast-forward (see repro.uarch.spinff).  REPRO_NO_SPINFF=1
        # runs without the engine, the reference its byte-identity tests
        # compare against.  The streak counter is the only cost the
        # commit hot path pays when the core is not spinning.
        self.parked = False
        self.spin_cycles_skipped = 0
        self.ff_parks = 0
        self._spin_streak = 0
        self._spinff: Optional[SpinFastForward] = None
        if os.environ.get("REPRO_NO_SPINFF") != "1":
            self._spinff = SpinFastForward(self)

    # ==================================================================
    # lifecycle

    def start(self) -> None:
        """Arm the first fetch event."""
        self._schedule_fetch(0)

    def finalize(self, end_cycle: int) -> None:
        """Attribute post-completion idle time and publish summary stats."""
        if self.finish_cycle is not None and end_cycle > self.finish_cycle:
            self.quiescent_cycles += end_cycle - self.finish_cycle
        self.stats.set("active_cycles", self.active_cycles)
        self.stats.set("quiescent_cycles", self.quiescent_cycles)
        if self.finish_cycle is not None:
            self.stats.set("finish_cycle", self.finish_cycle)
        self.stats.set("branch_lookups", self.predictor.lookups)
        self.stats.set("branch_mispredicts", self.predictor.mispredicts)
        if self._versioned:
            self.stats.set("release_version", self.release_version)

    # ==================================================================
    # fetch & dispatch

    def _schedule_fetch(self, delay: int) -> None:
        if self._fetch_scheduled:
            return
        self._fetch_scheduled = True
        # The tick's epoch rides along as the stored event argument —
        # no closure object and no wrapper frame per fetch tick.
        self.queue.post1(delay, self._fetch_cb, self._fetch_epoch)

    def _maybe_resume_fetch(self) -> None:
        """Resources freed: resume a dispatch-blocked frontend."""
        if self._dispatch_blocked and not self.halted and not self.finished:
            self._dispatch_blocked = False
            self._schedule_fetch(1)

    def _fetch_tick(self, epoch: int) -> None:
        """Fetch and dispatch one window of up to ``fetch_width`` ops.

        The window loop hoists every loop-invariant lookup (widths,
        decode table bounds), tracks ROB room as a local countdown
        instead of re-measuring the deque, inlines dispatch, rename and
        issue-slot reservation for the hot classes (ALU, branch, load),
        and adds the dispatched and issued counters once per window.
        """
        self._fetch_scheduled = False
        if epoch != self._fetch_epoch or self.halted or self.finished:
            return
        decoded = self._decoded
        last = self._decoded_last
        rob_entries = self._rob_entries
        room = self._rob_capacity - len(rob_entries)
        now = self.queue.now
        seq = self.next_seq
        pc = self.pc
        width = self._fetch_width
        producers = self._producers
        regfile = self._regfile
        bw = self.issue_bw
        bw_width = bw._width
        post1 = self.queue.post1
        execute_alu_cb = self._execute_alu_cb
        resolve_branch_cb = self._resolve_branch_cb
        agen_cb = self._agen_cb
        lq = self.lq
        lq_entries = lq._entries
        lq_capacity = lq._capacity
        predictor = self.predictor
        p_counters = predictor._counters
        p_mask = predictor._mask
        branch_latency = self.cfg.branch_latency
        probe = self.probe
        on_dispatch = probe.dispatch if probe is not None else None
        fetched = 0
        dispatched = 0
        issued = 0
        blocked = False
        while fetched < width:
            # Mirror Program.fetch: wrong-path fetch past either end of
            # the program resolves to the trailing Halt.
            dec = decoded[pc] if 0 <= pc < last else decoded[last]
            kidx = dec.kidx
            if room <= 0:
                self._c_stall_rob()
                blocked = True
                break
            if kidx == KIDX_LOAD:
                # _lsq_room's LOAD arm (LoadQueue.full), inlined.
                if len(lq_entries) >= lq_capacity:
                    self._c_stall_lq()
                    blocked = True
                    break
            elif KIDX_ATOMIC <= kidx <= KIDX_STORE and not self._lsq_room(kidx):
                blocked = True
                break
            instr = DynInstr(seq, dec.static, pc, dec.klass, dec)
            seq += 1
            room -= 1
            if kidx == KIDX_BRANCH:
                # BimodalPredictor.predict, inlined (one call frame per
                # fetched branch; ALWAYS branches skip the table).
                if dec.branch_always:
                    taken = True
                else:
                    predictor.lookups += 1
                    taken = p_counters[pc & p_mask] >= 2
                instr.pred_taken = taken
                if taken:
                    instr.next_pc = dec.target_index
            if kidx <= KIDX_BRANCH:
                # ALU and branch dispatch, inlined: the two most frequent
                # classes capture their value sources (as
                # _capture_sources does) with no call frame.
                instr.dispatch_cycle = now
                rob_entries.append(instr)
                dispatched += 1
                regs = dec.value_regs
                pending = 0
                if regs:
                    values = instr.src_values
                    for reg in regs:
                        producer = producers[reg]
                        if producer is None:
                            values[reg] = regfile[reg]
                        elif producer.completed:
                            values[reg] = producer.result  # type: ignore[assignment]
                        else:
                            subscribers = producer.dependents
                            if subscribers is None:
                                subscribers = producer.dependents = []
                            subscribers.append((instr, "value", reg))
                            pending += 1
                    if pending:
                        instr.value_pending = pending
                if kidx == KIDX_ALU:
                    dst = dec.dst
                    if dst is not None:
                        # rename.claim, inlined.
                        snapshot = instr.prev_producer
                        if snapshot is None:
                            snapshot = instr.prev_producer = {}
                        snapshot[dst] = producers[dst]
                        producers[dst] = instr
                    if pending == 0:
                        # _schedule_alu_execute, inlined (queue.now is
                        # constant across the fetch tick, so the hoisted
                        # ``now`` is what it would read); the issued_ops
                        # counter is added once per window below.
                        issued += 1
                        cycle = bw._cycle
                        if now > cycle:
                            bw._cycle = now
                            bw._used = 1
                            slot = now
                        elif bw._used < bw_width:
                            bw._used += 1
                            slot = cycle
                        else:
                            cycle += 1
                            bw._cycle = cycle
                            bw._used = 1
                            slot = cycle
                        instr.issue_cycle = slot
                        post1(slot - now + dec.alu_latency, execute_alu_cb, instr)
                elif pending == 0:
                    issued += 1
                    cycle = bw._cycle
                    if now > cycle:
                        bw._cycle = now
                        bw._used = 1
                        slot = now
                    elif bw._used < bw_width:
                        bw._used += 1
                        slot = cycle
                    else:
                        cycle += 1
                        bw._cycle = cycle
                        bw._used = 1
                        slot = cycle
                    instr.issue_cycle = slot
                    post1(slot - now + branch_latency, resolve_branch_cb, instr)
            elif kidx == KIDX_LOAD:
                # Load dispatch + rename.claim + _schedule_agen, inlined:
                # spin loops are fetch + load + branch.  The LQ-room
                # check above guaranteed space, and a freshly fetched
                # load never has addr_ready, so LoadQueue.insert reduces
                # to the bare append.
                instr.dispatch_cycle = now
                rob_entries.append(instr)
                dispatched += 1
                lq_entries.append(instr)
                values = instr.src_values
                pending = 0
                for reg in dec.addr_regs:
                    producer = producers[reg]
                    if producer is None:
                        values[reg] = regfile[reg]
                    elif producer.completed:
                        values[reg] = producer.result  # type: ignore[assignment]
                    else:
                        subscribers = producer.dependents
                        if subscribers is None:
                            subscribers = producer.dependents = []
                        subscribers.append((instr, "addr", reg))
                        pending += 1
                if pending:
                    instr.addr_pending = pending
                dst = dec.dst
                snapshot = instr.prev_producer
                if snapshot is None:
                    snapshot = instr.prev_producer = {}
                snapshot[dst] = producers[dst]
                producers[dst] = instr
                if pending == 0:
                    issued += 1
                    cycle = bw._cycle
                    if now > cycle:
                        bw._cycle = now
                        bw._used = 1
                        slot = now
                    elif bw._used < bw_width:
                        bw._used += 1
                        slot = cycle
                    else:
                        cycle += 1
                        bw._cycle = cycle
                        bw._used = 1
                        slot = cycle
                    post1(slot - now + AGEN_LATENCY, agen_cb, instr)
            else:
                instr.dispatch_cycle = now
                rob_entries.append(instr)
                dispatched += 1
                if kidx == KIDX_STORE:
                    self._dispatch_store(instr)
                elif kidx == KIDX_ATOMIC:
                    self._dispatch_atomic(instr)
                else:
                    if kidx == KIDX_FENCE:
                        self._fences.append(instr)
                    self._complete(instr)  # FENCE, HALT
            if on_dispatch is not None:
                on_dispatch(instr)
            pc = instr.next_pc
            fetched += 1
            if kidx == KIDX_HALT:
                self.halted = True
                break
        self.pc = pc
        self.next_seq = seq
        if dispatched:
            self._c_dispatched(dispatched)
        if issued:
            self._c_issued_ops(issued)
        if blocked:
            self._dispatch_blocked = True
        elif not self.halted:
            self._schedule_fetch(1)

    def _lsq_room(self, kidx: int) -> bool:
        """Dispatch-room check for the memory classes (ROB already ok)."""
        if kidx == KIDX_ATOMIC:
            if self.aq.full:
                self._c_stall_aq()
                self._c_aq_alloc_stalls()
                return False
            if self.lq.full or self.sq.full:
                self._c_stall_lsq()
                return False
            return True
        if kidx == KIDX_LOAD:
            if self.lq.full:
                self._c_stall_lq()
                return False
            return True
        if self.sq.full:
            self._c_stall_sq()
            return False
        return True

    def _capture_sources(self, instr: DynInstr, regs: tuple[int, ...], kind: str) -> None:
        """Resolve source registers now or subscribe to their producers.

        ``regs`` comes from the decode record, already deduplicated.
        RenameMap.read_or_producer is inlined: this runs for every
        source register of every dispatched instruction.
        """
        rename = self.rename
        producers = rename._producer
        values = instr.src_values
        for reg in regs:
            producer = producers[reg]
            if producer is None:
                values[reg] = rename.regfile[reg]
            elif producer.completed:
                values[reg] = producer.result  # type: ignore[assignment]
            else:
                subscribers = producer.dependents
                if subscribers is None:
                    subscribers = producer.dependents = []
                subscribers.append((instr, kind, reg))
                if kind == "addr":
                    instr.addr_pending += 1
                else:
                    instr.value_pending += 1

    # -- store / atomic dispatch (the other classes dispatch inline in
    # _fetch_tick) -----------------------------------------------------

    def _dispatch_store(self, instr: DynInstr) -> None:
        dec = instr.dec
        self.sq.insert(instr)
        self.storeset.on_store_dispatch(instr)
        self._capture_sources(instr, dec.addr_regs, "addr")
        if dec.value_regs:
            self._capture_sources(instr, dec.value_regs, "value")
        if instr.addr_pending == 0:
            self._schedule_agen(instr)
        if instr.value_pending == 0:
            self._store_data_ready(instr)

    def _dispatch_atomic(self, instr: DynInstr) -> None:
        dec = instr.dec
        self.lq.insert(instr)
        self.sq.insert(instr)
        self._atomics_sq.append(instr)
        allocated = self.aq.allocate(instr)
        assert allocated is not None, "dispatch room was checked"
        self.storeset.on_store_dispatch(instr)
        self._capture_sources(instr, dec.addr_regs, "addr")
        self._capture_sources(instr, dec.value_regs, "value")
        self.rename.claim(dec.dst, instr)
        if instr.addr_pending == 0:
            self._schedule_agen(instr)

    # ==================================================================
    # wakeup / issue

    def _producer_completed(self, producer: DynInstr) -> None:
        """Wake consumers of a completed producer."""
        subscribers = producer.dependents
        if subscribers is None:
            return
        for consumer, kind, reg in subscribers:
            if consumer.squashed:
                continue
            consumer.src_values[reg] = producer.result  # type: ignore[assignment]
            if kind == "addr":
                consumer.addr_pending -= 1
                if consumer.addr_pending == 0:
                    self._schedule_agen(consumer)
            else:
                pending = consumer.value_pending - 1
                consumer.value_pending = pending
                if pending == 0:
                    # _value_operands_ready's two hottest arms, inlined
                    # (ALU/BRANCH wakeups dominate; the memory classes
                    # keep the out-of-line dispatcher).
                    kidx = consumer.dec.kidx
                    if kidx == KIDX_ALU:
                        self._schedule_alu_execute(consumer)
                    elif kidx == KIDX_BRANCH:
                        self._schedule_branch_execute(consumer)
                    else:
                        self._value_operands_ready(consumer)
        subscribers.clear()

    def _value_operands_ready(self, instr: DynInstr) -> None:
        # kidx compare (small ints) instead of enum identity: this runs
        # once per woken consumer, and the enum attribute loads showed.
        kidx = instr.dec.kidx
        if kidx == KIDX_ALU:
            self._schedule_alu_execute(instr)
        elif kidx == KIDX_BRANCH:
            self._schedule_branch_execute(instr)
        elif kidx == KIDX_STORE:
            self._store_data_ready(instr)
        elif kidx == KIDX_ATOMIC:
            self._try_compute_atomic_value(instr)
        else:  # pragma: no cover - no other class captures value sources
            raise AssertionError(f"unexpected value wakeup for {instr}")

    def _schedule_alu_execute(self, instr: DynInstr) -> None:
        # Issue-slot reservation (BandwidthLimiter.grant, inlined: one
        # call frame per issued µop saved); post1 + a prebound callback:
        # no closure and no bound-method allocation per scheduled µop.
        self._c_issued_ops()
        bw = self.issue_bw
        now = self.queue.now
        cycle = bw._cycle
        if now > cycle:
            bw._cycle = now
            bw._used = 1
            slot = now
        elif bw._used < bw._width:
            bw._used += 1
            slot = cycle
        else:
            cycle += 1
            bw._cycle = cycle
            bw._used = 1
            slot = cycle
        instr.issue_cycle = slot
        self.queue.post1(
            slot - now + instr.dec.alu_latency, self._execute_alu_cb, instr
        )

    def _execute_alu(self, instr: DynInstr) -> None:
        if instr.squashed:
            return
        dec = instr.dec
        mode = dec.exec_mode
        if mode == EXEC_CONST:
            instr.result = dec.const
        else:
            src1 = (
                instr.src_values.get(dec.src1, 0) if dec.src1 is not None else 0
            )
            if mode == EXEC_MOV:
                instr.result = src1 if dec.src1 is not None else dec.const
            else:
                if dec.imm_masked is not None:
                    src2 = dec.imm_masked
                elif dec.src2 is not None:
                    src2 = instr.src_values[dec.src2]
                else:
                    src2 = 0
                # Decode-time folded evaluator (one call, masks inlined;
                # value-identical to evaluate_alu).
                instr.result = dec.alu_fn(src1, src2)
        # _complete, inlined: the entry guard already established the
        # µop is live, and an execute event fires at most once, so the
        # squashed/completed re-checks cannot trigger here.
        instr.completed = True
        if instr.dependents:
            self._producer_completed(instr)
        if not self._commit_scheduled:
            entries = self._rob_entries
            if entries:
                head = entries[0]
                if head.completed and (
                    head.dec.commit_simple or self._commit_ready(head)
                ):
                    self._commit_scheduled = True
                    self.queue.post(1, self._commit_cb)

    def _schedule_branch_execute(self, instr: DynInstr) -> None:
        # Issue-slot reservation, inlined (see _schedule_alu_execute).
        self._c_issued_ops()
        bw = self.issue_bw
        now = self.queue.now
        cycle = bw._cycle
        if now > cycle:
            bw._cycle = now
            bw._used = 1
            slot = now
        elif bw._used < bw._width:
            bw._used += 1
            slot = cycle
        else:
            cycle += 1
            bw._cycle = cycle
            bw._used = 1
            slot = cycle
        instr.issue_cycle = slot
        self.queue.post1(
            slot - now + self.cfg.branch_latency, self._resolve_branch_cb, instr
        )

    def _resolve_branch(self, instr: DynInstr) -> None:
        if instr.squashed:
            return
        dec = instr.dec
        src1 = instr.src_values.get(dec.src1, 0) if dec.src1 is not None else 0
        if dec.imm_masked is not None:
            src2 = dec.imm_masked
        elif dec.src2 is not None:
            src2 = instr.src_values[dec.src2]
        else:
            src2 = 0
        taken = dec.branch_fn(src1, src2)
        instr.actual_taken = taken
        instr.actual_target = dec.target_index if taken else instr.pc + 1
        mispredicted = taken != instr.pred_taken
        # BimodalPredictor.train, inlined (ALWAYS branches are no-ops).
        if not dec.branch_always:
            predictor = self.predictor
            if mispredicted:
                predictor.mispredicts += 1
            index = instr.pc & predictor._mask
            counters = predictor._counters
            counter = counters[index]
            if taken:
                if counter < 3:
                    counters[index] = counter + 1
            elif counter > 0:
                counters[index] = counter - 1
        # _complete, inlined (see _execute_alu): a resolve event fires
        # at most once per live branch.
        instr.completed = True
        if instr.dependents:
            self._producer_completed(instr)
        if not self._commit_scheduled:
            entries = self._rob_entries
            if entries:
                head = entries[0]
                if head.completed and (
                    head.dec.commit_simple or self._commit_ready(head)
                ):
                    self._commit_scheduled = True
                    self.queue.post(1, self._commit_cb)
        if mispredicted:
            self._squash_from(instr.seq + 1, instr.actual_target, "branch")

    # ==================================================================
    # memory unit: address generation

    def _schedule_agen(self, instr: DynInstr) -> None:
        # Issue-slot reservation, inlined (see _schedule_alu_execute).
        self._c_issued_ops()
        bw = self.issue_bw
        now = self.queue.now
        cycle = bw._cycle
        if now > cycle:
            bw._cycle = now
            bw._used = 1
            slot = now
        elif bw._used < bw._width:
            bw._used += 1
            slot = cycle
        else:
            cycle += 1
            bw._cycle = cycle
            bw._used = 1
            slot = cycle
        self.queue.post1(slot - now + AGEN_LATENCY, self._agen_cb, instr)

    def _agen(self, instr: DynInstr) -> None:
        if instr.squashed or instr.addr_ready:
            return
        dec = instr.dec
        address = instr.src_values.get(dec.mem_base, 0) + dec.mem_offset
        if dec.mem_index is not None:
            address += instr.src_values.get(dec.mem_index, 0)
        # align_word / word_index / line_of, inlined (hot path).
        address &= ADDRESS_MASK
        instr.address = address
        instr.word = address >> _WORD_SHIFT
        instr.line = address >> _LINE_SHIFT
        instr.addr_ready = True
        load_like = dec.load_like
        if load_like and not (instr.flags & F_LQ_INDEXED):
            # Enter the LQ address buckets (the flag marks membership).
            self.lq._index(instr)

        if dec.store_like:
            self.sq.on_addr_resolved(instr)
            self._check_violations(instr)
            if instr.squashed:
                return
            self._drain_retry_pool(self._loads_waiting_agen, F_WAIT_AGEN)
            if dec.kidx == KIDX_STORE:
                self._maybe_complete_store(instr)
        if load_like:
            self._try_start_load(instr)

    def _check_violations(self, store: DynInstr) -> None:
        """A store resolved its address: squash mis-speculated loads.

        Any younger load to the same word that already performed without
        taking its value from this store (or a younger one) violated the
        memory dependence — Table 2's MDV events.
        """
        assert store.word is not None
        victim = self.lq.oldest_violating_load(store.seq, store.word)
        if victim is not None:
            self.storeset.train_violation(victim, store)
            self._squash_from(victim.seq, victim.pc, "mem_dep")

    # ==================================================================
    # memory unit: loads and load_locks

    def _try_start_load(self, instr: DynInstr) -> None:
        """Run the load gates; issue to forward path or cache when clear."""
        if (
            instr.squashed
            or instr.performed
            or instr.mem_issued
            or not instr.addr_ready
        ):
            return

        # Gate 1: explicit fences (mfence) block younger loads.  _fences
        # holds only live fences in program order, so the front is the
        # oldest: one compare answers for all of them.
        fences = self._fences
        if fences and fences[0].seq < instr.seq:
            if not (instr.flags & F_WAIT_FENCE):
                instr.flags |= F_WAIT_FENCE
                self._loads_waiting_fence.append(instr)
            return
        # Gate 2: fenced designs block loads younger than an unperformed
        # atomic (Mem_Fence2).
        if self.policy.fenced and self._blocked_by_fenced_atomic(instr):
            return
        is_atomic = instr.klass is InstrClass.ATOMIC
        # Gate 3: the atomic policy's own issue conditions (Mem_Fence1).
        if is_atomic and not self._atomic_may_issue(instr):
            return
        # Gate 4: StoreSet-predicted dependence on an unresolved store.
        # StoreSet.predicted_dependency, inlined: loads outside any set
        # (the common case) exit on one dict probe.
        storeset = self.storeset
        set_id = storeset._ssit.get(instr.pc % storeset._entries)
        if set_id is not None:
            predicted = storeset._lfst.get(set_id)
            if (
                predicted is not None
                and not predicted.squashed
                and predicted.seq < instr.seq
                and not predicted.performed
                and not predicted.addr_ready
            ):
                if not (instr.flags & F_WAIT_AGEN):
                    instr.flags |= F_WAIT_AGEN
                    self._loads_waiting_agen.append(instr)
                return

        # decide_load_source's no-matching-store arm, inlined
        # (StoreQueue.youngest_matching_store over the word bucket); any
        # in-flight same-word store falls through to the full decision
        # function, which recomputes the same scan.
        best = None
        for store in self.sq._by_word.get(instr.word, ()):
            if store.seq < instr.seq and (best is None or store.seq > best.seq):
                best = store
        if best is None:
            decision = _CACHE_DECISION
        else:
            decision = decide_load_source(
                instr, self.sq, self.policy, self.max_forward_chain
            )
        if decision.action is LoadSource.FORWARD:
            self._forward_load(instr, decision.store)  # type: ignore[arg-type]
            return
        if decision.action is LoadSource.WAIT_DATA:
            store = decision.store
            assert store is not None
            self._subscribe_data(store, lambda: self._try_start_load(instr))
            return
        if decision.action is LoadSource.WAIT_PERFORM:
            store = decision.store
            assert store is not None
            self._subscribe_perform(store, lambda: self._try_start_load(instr))
            if is_atomic:
                self._c_load_lock_resched()
            else:
                self._c_load_wait_store()
            return

        # Cache path.
        instr.mem_issued = True
        instr.issue_cycle = self.queue.now
        line = instr.line
        assert line is not None
        if is_atomic:
            instr.locality = (
                LocalityClass.WRITE_HIT
                if self.hierarchy.has_write_permission(line)
                else LocalityClass.MISS
            )
            self.hierarchy.request_write(line, self._perform_load_lock_cb, instr)
        else:
            # request_read is a bare forwarder to _access; skip its
            # call frame on the hottest memory path.
            self.hierarchy._access(
                line, False, self._perform_load_cb, instr
            )

    def _subscribe_data(self, store: DynInstr, callback: Callable[[], None]) -> None:
        waiters = store.data_waiters
        if waiters is None:
            waiters = store.data_waiters = []
        waiters.append(callback)

    def _subscribe_perform(self, store: DynInstr, callback: Callable[[], None]) -> None:
        waiters = store.perform_waiters
        if waiters is None:
            waiters = store.perform_waiters = []
        waiters.append(callback)

    def _blocked_by_fenced_atomic(self, instr: DynInstr) -> bool:
        """Mem_Fence2: younger loads wait for the atomic to fully perform.

        Every atomic still in the SQ is unperformed (it leaves the SQ the
        moment its store_unlock performs), so the front of the
        program-ordered _atomics_sq deque is the oldest unperformed
        atomic.
        """
        atomics = self._atomics_sq
        if atomics:
            store = atomics[0]
            if store.seq < instr.seq:
                self._subscribe_perform(store, lambda: self._try_start_load(instr))
                return True
        return False

    def _atomic_may_issue(self, instr: DynInstr) -> bool:
        """Mem_Fence1 conditions, by policy (see policy module)."""
        if not self.policy.fenced:
            if self._versioned:
                # Acquire chaining: the load_lock (acquire) issues only
                # once every older release has performed — i.e. when it
                # is the front of the program-ordered _atomics_sq deque.
                # Cheaper than Mem_Fence1 (no older-load / SB-drain
                # wait); the retry arrives exactly when the blocking
                # release publishes its version (perform_waiters).  The
                # waiter is younger than the atomic it waits on, so a
                # squash flushes both — the standard squash-safety
                # argument of _blocked_by_fenced_atomic.
                atomics = self._atomics_sq
                if atomics and atomics[0] is not instr:
                    if instr.head_wait_cycle < 0:
                        self._c_version_chain_stall()
                    self._mark_head_wait(instr)
                    self._subscribe_perform(
                        atomics[0], lambda: self._try_start_load(instr)
                    )
                    return False
            return True
        if not self.policy.speculative:
            # Baseline: the atomic must be the oldest instruction...
            if not self.rob.oldest_uncommitted_is(instr):
                self._mark_head_wait(instr)
                self._stall_atomic(instr)
                return False
        else:
            # +Spec: all older *memory* operations must be done (older
            # loads committed — gone from the LQ; older stores performed
            # — gone from the SQ or uncommitted-none), but older ALU ops
            # and branches may still be in flight.  ``instr`` itself sits
            # in both queues, so "any older entry" is exactly "the front
            # is older than instr" — the queues are program-ordered.
            if self.lq.has_older_than(instr.seq) or self.sq.has_older_than(instr.seq):
                self._mark_head_wait(instr)
                self._stall_atomic(instr)
                return False
        # ...and the SB must be drained.
        if not self.sq.sb_empty_below(instr.seq):
            self._mark_head_wait(instr)
            self._stall_atomic(instr)
            return False
        return True

    def _mark_head_wait(self, instr: DynInstr) -> None:
        if instr.head_wait_cycle < 0:
            instr.head_wait_cycle = self.queue.now

    def _stall_atomic(self, instr: DynInstr) -> None:
        if not (instr.flags & F_STALLED_ATOMIC):
            instr.flags |= F_STALLED_ATOMIC
            self._stalled_atomics.append(instr)

    def _forward_load(self, instr: DynInstr, store: DynInstr) -> None:
        """Store-to-load forwarding (regular loads and load_locks)."""
        assert store.store_data_ready and store.store_value is not None
        probe = self.probe
        if probe is not None and probe.forward is not None:
            probe.forward(instr, store)
        instr.mem_issued = True
        instr.issue_cycle = self.queue.now
        instr.forwarded_from = store.seq
        instr.forward_kind = (
            ForwardKind.FROM_ATOMIC
            if store.klass is InstrClass.ATOMIC
            else ForwardKind.FROM_STORE
        )
        if instr.klass is InstrClass.ATOMIC:
            instr.locality = LocalityClass.FORWARDED
            assert instr.aq_entry is not None
            grant_forwarding_responsibility(instr.aq_entry, store)
            self._c_atomic_forwarded()
        value = store.store_value
        latency = self.config.memory.l1d.hit_latency
        # post1 + a 2-tuple instead of a closure over (self, instr,
        # value): forwarding fires constantly in the fwd policies.
        self.queue.post1(latency, self._finish_forward_cb, (instr, value))

    def _finish_forward(self, pair: tuple) -> None:
        """The forwarded value lands (``pair`` = instruction, value)."""
        instr, value = pair
        if instr.squashed:
            return
        instr.performed = True
        instr.perform_cycle = self.queue.now
        instr.result = value
        if instr.dec.kidx == KIDX_ATOMIC:
            # A forwarded load_lock "performs" logically when its
            # forwarding store does; the watchdog cares about lock
            # acquisition, which here transfers at store-perform time.
            self._try_compute_atomic_value(instr)
        self._complete(instr)
        probe = self.probe
        if probe is not None and probe.perform is not None:
            probe.perform(instr, "forwarded")

    def _perform_load(self, instr: DynInstr) -> None:
        if instr.squashed:
            return
        assert instr.address is not None
        instr.performed = True
        instr.perform_cycle = self.queue.now
        instr.result = self.memory.read(instr.address)
        self._c_loads_performed()
        if self.prefetcher is not None:
            self.prefetcher.observe_load(instr.pc, instr.address)
        # _complete, inlined (see _execute_alu): the mem_issued gate
        # makes the perform event unique per live load.
        instr.completed = True
        if instr.dependents:
            self._producer_completed(instr)
        if not self._commit_scheduled:
            entries = self._rob_entries
            if entries:
                head = entries[0]
                if head.completed and (
                    head.dec.commit_simple or self._commit_ready(head)
                ):
                    self._commit_scheduled = True
                    self.queue.post(1, self._commit_cb)
        probe = self.probe
        if probe is not None and probe.perform is not None:
            probe.perform(instr, "load")

    def _perform_load_lock(self, instr: DynInstr) -> None:
        """The load_lock reads its value and locks the line (section 2)."""
        if instr.squashed:
            return
        line = instr.line
        assert line is not None and instr.address is not None
        location = self.hierarchy.l1_location(line)
        if location is None or not self.hierarchy.has_write_permission(line):
            # Lost the line between grant and perform (rare race):
            # re-schedule, as hardware would (footnote 1 of the paper).
            self.hierarchy.request_write(line, self._perform_load_lock_cb, instr)
            return
        set_index, way = location
        entry = instr.aq_entry
        assert entry is not None
        entry.lock(line, set_index, way)
        self.watchdog.reset()
        instr.performed = True
        instr.perform_cycle = self.queue.now
        instr.result = self.memory.read(instr.address)
        self._c_load_locks_performed()
        self._try_compute_atomic_value(instr)
        self._complete(instr)
        probe = self.probe
        if probe is not None and probe.perform is not None:
            probe.perform(instr, "load_lock")

    def _try_compute_atomic_value(self, instr: DynInstr) -> None:
        """Fold the modify µop: needs the old value and the operands."""
        if instr.squashed or instr.new_value_ready or not instr.performed:
            return
        if instr.value_pending > 0:
            return
        dec = instr.dec
        if dec.store_imm is not None:
            operand = dec.store_imm
        elif dec.store_src is not None:
            operand = instr.src_values[dec.store_src]
        else:
            operand = 0
        expected = (
            instr.src_values[dec.expected] if dec.expected is not None else 0
        )
        assert instr.result is not None
        instr.new_value_ready = True
        instr.store_value = evaluate_atomic(
            dec.static, instr.result, operand, expected
        )
        instr.store_data_ready = True
        waiters = instr.data_waiters
        if waiters is not None:
            for waiter in waiters:
                waiter()
            waiters.clear()
        self._maybe_schedule_commit()

    # ==================================================================
    # memory unit: stores and the store buffer

    def _store_data_ready(self, instr: DynInstr) -> None:
        dec = instr.dec
        if dec.store_imm is not None:
            instr.store_value = dec.store_imm
        else:
            instr.store_value = instr.src_values[dec.store_src]
        instr.store_data_ready = True
        waiters = instr.data_waiters
        if waiters is not None:
            for waiter in waiters:
                waiter()
            waiters.clear()
        self._maybe_complete_store(instr)

    def _maybe_complete_store(self, instr: DynInstr) -> None:
        if instr.addr_ready and instr.store_data_ready and not instr.completed:
            self._complete(instr)

    def _try_drain_sb(self) -> None:
        """Let the SB head write to the cache (TSO store order)."""
        head = self.sq.sb_head
        if head is None or head.store_issued:
            return
        head.store_issued = True
        line = head.line
        assert line is not None
        self.hierarchy.request_write(line, self._perform_store_cb, head)

    def _perform_store(self, store: DynInstr) -> None:
        assert store.committed and not store.store_performed
        line = store.line
        assert line is not None and store.address is not None
        location = self.hierarchy.l1_location(line)
        if location is None or not self.hierarchy.has_write_permission(line):
            # Permission was stolen between grant and write: re-acquire.
            self.hierarchy.request_write(line, self._perform_store_cb, store)
            return
        assert store.store_value is not None
        self.memory.write(store.address, store.store_value)
        store.store_performed = True
        self._c_stores_performed()

        # SQid broadcast: forwarded atomics capture the lock here —
        # lock_on_access for ordinary stores, the unlock->lock transfer
        # (do_not_unlock) for store_unlocks (section 4.2).
        set_index, way = location
        self.aq.on_store_broadcast(store, line, set_index, way)
        if store.klass is InstrClass.ATOMIC:
            entry = store.aq_entry
            assert entry is not None
            instr_done = self.queue.now
            store.done_cycle = instr_done
            self._record_atomic_cost(store)
            self.aq.deallocate(entry)
            # The release edge is now globally visible: publish the next
            # version.  The versioned policy's gates read the deque
            # watermark below rather than comparing counters, but the
            # counter is the architectural state they model.
            self.release_version += 1
            # The atomic leaves the SQ now; keep the program-ordered
            # mirror exact (atomics drain from the SB front, in order).
            if self._atomics_sq and self._atomics_sq[0] is store:
                self._atomics_sq.popleft()
            else:  # pragma: no cover - defensive; SB drains in order
                self._atomics_sq.remove(store)
        self.sq.release(store)
        self.storeset.forget(store)
        waiters = store.perform_waiters
        if waiters is not None:
            for waiter in waiters:
                waiter()
            waiters.clear()
        self._maybe_resume_fetch()  # SQ/AQ entries freed
        self._on_sb_progress()
        self._try_drain_sb()
        probe = self.probe
        if probe is not None and probe.store_perform is not None:
            probe.store_perform(store)

    def _record_atomic_cost(self, instr: DynInstr) -> None:
        """Figure 1 accounting: Drain_SB and Atomic cycle components."""
        if instr.issue_cycle >= 0:
            if instr.head_wait_cycle >= 0:
                self.stats.observe(
                    "atomic_drain_sb", max(0, instr.issue_cycle - instr.head_wait_cycle)
                )
            else:
                self.stats.observe("atomic_drain_sb", 0)
            block = max(0, instr.done_cycle - instr.issue_cycle)
            self.stats.observe("atomic_block", block)
            # Per-locality-class latency, for calibration against the
            # measured atomic costs of Schweizer et al. (PACT'15) —
            # see repro.analysis.calibration.  None classifies as miss,
            # mirroring _commit_atomic_stats.
            locality = instr.locality
            self.stats.observe(
                "atomic_latency."
                + (locality.value if locality is not None else "miss"),
                block,
            )

    def _on_sb_progress(self) -> None:
        """SB drained one entry: re-evaluate everything gated on it."""
        self._drain_retry_pool(self._stalled_atomics, F_STALLED_ATOMIC)
        self._maybe_schedule_commit()

    def _drain_retry_pool(self, pool: Deque[DynInstr], flag: int) -> None:
        """Retry every waiter in arrival order.

        Two phases, like the rebuild-and-rescan lists this replaces:
        first the dead entries (squashed / already performed or issued)
        are dropped and every membership flag is cleared, then the
        survivors retry — a retry may legitimately re-enqueue its
        instruction (or a later survivor) into this same, now-empty
        pool.
        """
        if not pool:
            return
        pending = []
        for instr in pool:
            instr.flags &= ~flag
            if not (instr.squashed or instr.performed or instr.mem_issued):
                pending.append(instr)
        pool.clear()
        for instr in pending:
            self._try_start_load(instr)

    # ==================================================================
    # completion & commit

    def _complete(self, instr: DynInstr) -> None:
        if instr.squashed or instr.completed:
            return
        instr.completed = True
        # _producer_completed + _maybe_schedule_commit, with their cheap
        # early-outs inlined: this runs once per completed µop and the
        # common case (no subscribers, ROB head not ready) paid for two
        # call frames just to return.  Decision order is identical.
        if instr.dependents:
            self._producer_completed(instr)
        if self._commit_scheduled:
            return
        entries = self._rob_entries
        if not entries:
            return
        head = entries[0]
        if not head.completed:
            return
        if not head.dec.commit_simple and not self._commit_ready(head):
            return
        self._commit_scheduled = True
        self.queue.post(1, self._commit_cb)

    def _maybe_schedule_commit(self) -> None:
        if self._commit_scheduled:
            return
        entries = self._rob_entries
        if not entries:
            return
        head = entries[0]
        if not head.completed:
            return
        # commit_simple heads (ALU/BRANCH/LOAD/STORE) need no further
        # readiness check — skip the _commit_ready call they'd pass.
        if not head.dec.commit_simple and not self._commit_ready(head):
            return
        self._commit_scheduled = True
        self.queue.post(1, self._commit_cb)

    def _commit_ready(self, instr: DynInstr) -> bool:
        """Whether a completed ATOMIC, FENCE or HALT head may commit.

        The other classes (``commit_simple``) are ready once completed,
        so every probe site short-circuits on that flag first; the
        versioned load-retire gate lives in :meth:`_commit_tick`.
        """
        if instr.klass is InstrClass.ATOMIC:
            return (
                instr.performed
                and instr.new_value_ready
                and self.sq.sb_empty_below(instr.seq)
            )
        # FENCE and HALT both wait for their stores to be visible.
        return self.sq.sb_empty_below(instr.seq)

    def _commit_tick(self) -> None:
        """Commit one window of up to ``commit_width`` ROB heads.

        Commit readiness and the commit itself are inlined into one
        window loop with the loop-invariant lookups hoisted (the cycle
        number, the store buffer, the rename arrays, the trace sink, the
        probe's commit listener); the per-class counters are added once
        per window.  The tail feeds spin fast-forward's clean-commit
        streak.
        """
        self._commit_scheduled = False
        entries = self._rob_entries
        width = self._commit_width
        now = self.queue.now
        sq = self.sq
        by_kidx = self._c_committed_by_kidx
        trace = self.commit_trace
        probe = self.probe
        on_commit = probe.commit if probe is not None else None
        regfile = self._regfile
        producers = self._producers
        versioned = self._versioned
        atomics_sq = self._atomics_sq
        committed = 0
        spin_committed = 0
        # Per-class committed counters, accumulated in locals and added
        # once after the window (exact: aggregate counters only — the
        # rare ATOMIC/FENCE/HALT classes keep the direct call).
        n_alu = n_br = n_ld = n_st = 0
        while committed < width and entries:
            head = entries[0]
            if not head.completed:
                break
            dec = head.dec
            kidx = dec.kidx
            if not dec.commit_simple:
                if kidx == KIDX_ATOMIC:
                    if not (
                        head.performed
                        and head.new_value_ready
                        and sq.sb_empty_below(head.seq)
                    ):
                        break
                # FENCE and HALT both wait for their stores to be visible.
                elif not sq.sb_empty_below(head.seq):
                    break
            elif versioned and kidx == KIDX_LOAD:
                # Versioned load-retire gate: a plain load speculates
                # freely but retires only once every older release has
                # performed (the front of _atomics_sq is the oldest
                # unpublished one).  The re-probe is guaranteed: the
                # blocking atomic already committed, its SB entry always
                # drains, and _perform_store -> _on_sb_progress re-arms
                # commit.
                if atomics_sq and atomics_sq[0].seq < head.seq:
                    if head.head_wait_cycle < 0:
                        head.head_wait_cycle = now
                        self._c_version_commit_stall()
                    break
            entries.popleft()
            # -- commit ------------------------------------------------
            head.committed = True
            gap = now - self._last_commit_cycle
            self._last_commit_cycle = now
            if dec.spin:
                self.quiescent_cycles += gap
                spin_committed += 1
            else:
                self.active_cycles += gap
            dst = dec.dst
            result = head.result
            if dst is not None and result is not None:
                # rename.commit, inlined (truncate == mask).
                regfile[dst] = result & REGISTER_MASK
                if producers[dst] is head:
                    producers[dst] = None
            if trace is not None:
                self._record_trace(head)
            committed += 1
            if kidx == KIDX_ALU:
                n_alu += 1
            elif kidx == KIDX_BRANCH:
                n_br += 1
            elif kidx == KIDX_LOAD:
                n_ld += 1
                self.lq.release(head)
            elif kidx == KIDX_STORE:
                n_st += 1
                self._prefetch_store_permission(head)
                self._try_drain_sb()
            elif kidx == KIDX_ATOMIC:
                by_kidx[KIDX_ATOMIC]()
                self.lq.release(head)
                self.watchdog.reset()
                self._commit_atomic_stats(head)
                self._try_drain_sb()
            elif kidx == KIDX_FENCE:
                by_kidx[KIDX_FENCE]()
                # Fences commit in order, so the committing fence is the
                # front of the program-ordered deque.
                if self._fences and self._fences[0] is head:
                    self._fences.popleft()
                elif head in self._fences:  # pragma: no cover - defensive
                    self._fences.remove(head)
                self.stats.bump("fences_executed")
                self._drain_retry_pool(self._loads_waiting_fence, F_WAIT_FENCE)
            else:  # KIDX_HALT
                by_kidx[KIDX_HALT]()
                self.finished = True
                self.finish_cycle = now
                if self.on_finished is not None:
                    self.on_finished()
                if on_commit is not None:
                    on_commit(head)
                break
            if on_commit is not None:
                on_commit(head)
        if committed:
            self._c_committed(committed)
            if n_alu:
                by_kidx[KIDX_ALU](n_alu)
            if n_br:
                by_kidx[KIDX_BRANCH](n_br)
            if n_ld:
                by_kidx[KIDX_LOAD](n_ld)
            if n_st:
                by_kidx[KIDX_STORE](n_st)
            if spin_committed:
                # Aggregate counter: one add for the window is exact.
                self._c_committed_spin(spin_committed)
            self._drain_retry_pool(self._stalled_atomics, F_STALLED_ATOMIC)
            self._maybe_resume_fetch()
            # Spin fast-forward streak: a window of exclusively
            # side-effect-free classes (ALU/branch/load) extends it; any
            # store/atomic/fence/halt in the window resets it.
            if committed == n_alu + n_br + n_ld:
                self._spin_streak += committed
            else:
                self._spin_streak = 0
                spinff = self._spinff
                if spinff is not None and spinff.observing:
                    spinff.abort()
        self._maybe_schedule_commit()
        if self._spin_streak >= SPIN_STREAK_MIN and not self.finished:
            spinff = self._spinff
            if spinff is not None:
                # After _maybe_schedule_commit so a just-posted commit
                # event is part of the parkable pending set.
                spinff.on_commit_boundary()

    def _prefetch_store_permission(self, store: DynInstr) -> None:
        """At-commit store prefetch (Table 1, [54]): grab write
        permission as soon as the store commits, so the strictly
        in-order SB drain is not serialized on coherence misses."""
        if not self.cfg.store_prefetch_at_commit:
            return
        line = store.line
        if line is None or store.store_performed:
            return
        if not self.hierarchy.has_write_permission(line):
            self.stats.bump("store_prefetches")
            self.hierarchy.request_write(line, _noop)

    def _record_trace(self, instr: DynInstr) -> None:
        assert self.commit_trace is not None
        klass = instr.klass
        if klass is InstrClass.LOAD:
            assert instr.address is not None and instr.result is not None
            self.commit_trace.append(Operation.load(instr.address, instr.result))
        elif klass is InstrClass.STORE:
            assert instr.address is not None and instr.store_value is not None
            self.commit_trace.append(Operation.store(instr.address, instr.store_value))
        elif klass is InstrClass.ATOMIC:
            assert instr.address is not None
            assert instr.result is not None and instr.store_value is not None
            self.commit_trace.append(
                Operation.rmw(instr.address, instr.result, instr.store_value)
            )
        elif klass is InstrClass.FENCE:
            self.commit_trace.append(Operation.fence())

    def _commit_atomic_stats(self, instr: DynInstr) -> None:
        self._c_atomics_committed()
        if instr.dec.spin:
            self._c_atomics_committed_spin()
        self._c_atomic_fence_pair(2)
        kind = instr.forward_kind
        if kind is ForwardKind.FROM_ATOMIC:
            self._c_fwd_from_atomic()
        elif kind is ForwardKind.FROM_STORE:
            self._c_fwd_from_store()
        locality = instr.locality
        if locality is LocalityClass.FORWARDED:
            self._c_loc_forwarded()
        elif locality is LocalityClass.WRITE_HIT:
            self._c_loc_write_hit()
        else:
            self._c_loc_miss()

    # ==================================================================
    # squash

    def _squash_from(self, seq: int, new_pc: int, cause: str) -> None:
        """Flush all instructions with sequence >= ``seq``; refetch.
        ``cause`` is branch | mem_dep | mem_order | watchdog."""
        self.stats.bump(f"squash.{cause}")
        probe = self.probe
        if probe is not None and probe.squash is not None:
            probe.squash(seq, new_pc, cause)
        self._spin_streak = 0
        spinff = self._spinff
        if spinff is not None and spinff.observing:
            spinff.abort()
        squashed = self.rob.squash_from(seq)
        self._c_squashes()
        self._c_squashed_instrs(len(squashed))
        self.rename.rollback(squashed)
        self.lq.squash_from(seq)
        self.sq.squash_from(seq)
        for instr in squashed:
            instr.squashed = True
            # Drop the back-references (consumer <-> producer, waiter
            # closures) so the squashed suffix is freed by reference
            # counting here, not left for the cyclic collector.  Rebind,
            # never clear in place: a wakeup loop further up the stack
            # may still be iterating one of these lists.
            instr.dependents = None
            instr.prev_producer = None
            instr.data_waiters = None
            instr.perform_waiters = None
            if instr.dec.store_like:
                self.storeset.forget(instr)
        # Both deques are program-ordered and everything squashed is a
        # suffix (seq >= squash seq), so pop from the back.
        fences = self._fences
        while fences and fences[-1].seq >= seq:
            fences.pop()
        atomics = self._atomics_sq
        while atomics and atomics[-1].seq >= seq:
            atomics.pop()

        # Redirect fetch (a nested squash from the AQ unlock path below
        # may override this with an older redirect — that is correct).
        self.halted = False
        self._fetch_epoch += 1
        self._fetch_scheduled = False
        self._dispatch_blocked = False
        self.pc = new_pc
        self._schedule_fetch(self.cfg.mispredict_penalty)

        # Last: lift locks (may synchronously replay deferred coherence
        # requests and trigger nested, older squashes).
        flushed_entries = self.aq.squash_from(seq)
        for entry in flushed_entries:
            revoke_forwarding_responsibility(entry)
        self._maybe_schedule_commit()

    # ==================================================================
    # external events

    def _on_line_lost(self, line: int) -> None:
        """TSO: the line left the hierarchy; squash speculative readers."""
        victim = self.lq.oldest_ordering_violation(line)
        if victim is not None:
            self._squash_from(victim.seq, victim.pc, "mem_order")

    def _watchdog_flush(self, entry: AtomicQueueEntry) -> None:
        instr = entry.instr
        if instr.squashed or instr.committed:
            return
        self._squash_from(instr.seq, instr.pc, "watchdog")

    def _schedule_unlock_notify(self, line: int) -> None:
        """Decouple deferred-request replay from the unlocking event."""
        self.queue.post1(0, self._notify_unlock_cb, line)
