"""Deterministic spin-wait fast-forward.

A core stuck in a stable spin loop (barrier wait, test-and-test-and-set
backoff) re-executes the same few instructions against the same cached
line until remote coherence traffic changes what it reads.  Simulating
those laps one event at a time is where paper-scale runs (32 threads,
barrier-heavy kernels) spend almost all of their wall time, and none of
it changes any observable result.

This module removes that time *exactly*:

1. **Detect.**  The fast commit leg counts a streak of committed
   instructions that are all side-effect-free classes (ALU / branch /
   load).  Once the streak passes a threshold and the ROB contains a
   spin-marked op (PAUSE), the engine captures a *relative signature* of
   the complete core-visible state — ROB/LSQ contents with
   sequence-numbers and timestamps made base-relative, rename map,
   register file, predictor tables, private cache residency with LRU
   canonicalized to ranks, and the core's pending event-queue entries as
   (due-offset, callback, canonical arg) tuples.  If the identical
   signature recurs ``P`` cycles later, the loop is exactly periodic
   with period ``P``, and by determinism it will stay periodic until an
   external message arrives.  While waiting for the recurrence, a quick
   key made only of fields the signature itself contains (pc, fetch
   epoch, ROB length and head pc, commit gap, cache epochs, register
   file) rejects most boundaries before any full capture, and the
   capture checks the pending set before it walks the ROB.

2. **Observe.**  Between the two matching signatures the engine diffs
   the core's stats scope, accounting attributes, commit trace and the
   event streams counted on its probe (``repro.uarch.probe``): the
   per-lap delta.  A lap that moves a probe stream other than
   ``pipeline/*`` is not parked.  The first recurrence is enough: the
   kernel's posting-cycle index (``EventQueue.posted_cycle``) knows when
   each pending entry was posted, and one posted before the anchor must
   show the posting latency of the lap's own posts of its instruction.

3. **Park.**  At that first match the core's pending entries are
   physically removed from the calendar ring (descriptors remember
   due-offset and post-offset), an interconnect watch hook is
   registered for the core, and the core goes silent: zero events,
   zero cost per skipped lap.  With every spinning core parked, the
   event queue's drain loop lands directly on the next real event —
   the global time-warp.

4. **Wake.**  Any message sent to the parked core fires the hook *at
   send time*.  The first send schedules an un-park at the next lap
   boundary strictly after the send cycle; since network transit is at
   least the loop period (parking requires ``P <= latency``), every
   delivery lands at or after that boundary, so the core is always live
   again — in mid-lap-boundary state — before the message arrives.

5. **Re-synthesize.**  Un-parking at boundary ``b`` means ``k = (b -
   t0) / P`` laps were skipped.  Stats gain ``k`` times the per-lap
   delta, accounting attributes and probe stream counts likewise, the
   commit trace gains ``k`` copies of the per-lap tape, per-instruction
   timestamps and other now-anchored state shift by ``b - t0``, and the
   descriptors are spliced back into the ring at the positions the
   final lap's live run would have posted them (ordered against
   in-flight deliveries by posting cycle, and indexed at that cycle so
   a later park replays them exactly too).  Absolute-but-unobservable
   quantities (sequence numbers, LRU stamp magnitudes) do not shift; relative
   order — the only thing the simulation ever consults — is preserved.

The observable result is byte-identical to the un-fast-forwarded run;
the ``REPRO_NO_FASTPATH=1`` A/B tests assert exactly that, and the
differential fuzzer runs with the feature enabled.  ``REPRO_NO_SPINFF=1``
disables only this engine (keeping the other fast paths) for isolation.
"""

from __future__ import annotations

from typing import Optional

from repro.uarch.decode import KIDX_ALU, KIDX_BRANCH, KIDX_LOAD

#: Committed clean-class instructions before the engine even looks.
#: A handful of spin laps is enough evidence to start observing —
#: the signature match is what actually proves periodicity, and a
#: long warm-up forfeits the short barrier waits that dominate
#: barrier-period workloads.
STREAK_MIN = 24
#: Cycles to back off after a failed observation attempt.  Short:
#: most failures are transient (a last in-flight fill draining, a
#: prefetch landing) and the signature is cheap enough to retry.  An
#: attempt blocked only by an in-flight delivery to the core retries
#: when that delivery lands instead.
COOLDOWN_CYCLES = 64
#: Hard cap on the period the signature search will consider.  The
#: wake-boundary guarantee additionally requires period <= network
#: latency (see _on_send), enforced at match time.
MAX_PERIOD_CAP = 16

#: Sentinel for "this state cannot be canonicalized" (never parked).
_BAD = object()

# Engine states.
_IDLE = 0
_MATCHING = 1
_PARKED = 2


class SpinFastForward:
    """Per-core spin fast-forward state machine (see module docstring)."""

    def __init__(self, core) -> None:
        self.core = core
        self.queue = core.queue
        self.hierarchy = core.hierarchy
        self._max_period = min(core.hierarchy._network.latency, MAX_PERIOD_CAP)
        self._state = _IDLE
        self._next_try_cycle = 0
        #: Due cycle of the delivery that blocked the last capture.
        self._retry_at: Optional[int] = None
        # Observation state.
        self._anchor: Optional[tuple] = None
        self._anchor_cycle = 0
        self._anchor_snapshot: Optional[tuple] = None
        self._anchor_attrs: Optional[tuple] = None
        self._anchor_trace_len = 0
        self._anchor_streams: tuple = ()
        self._period = 0
        #: Order counter at the anchor (lower: posted before the lap).
        self._anchor_order = 0
        # Per-lap deltas (filled when the period is found).
        self._counter_deltas: dict = {}
        self._hist_deltas: dict = {}
        self._attr_deltas: tuple = ()
        self._lap_tape: list = []
        self._stream_deltas: tuple = ()
        # Park state.
        self._parked_at = 0
        self._descriptors: list = []
        self._wake_at: Optional[int] = None
        self._sends: list = []
        self._unpark_cb = self._unpark
        self._on_send_cb = self._on_send

    # ------------------------------------------------------------------
    # detection (called from the tail of _commit_tick_fast)

    @property
    def observing(self) -> bool:
        return self._state == _MATCHING

    def on_commit_boundary(self) -> None:
        """Advance the state machine at the end of a commit tick.

        Only called while the core's clean-commit streak is at or above
        ``STREAK_MIN`` (the caller gates on the counter), so everything
        here is off the hot path of ordinary execution.
        """
        now = self.queue.now
        if self._state == _IDLE:
            if now < self._next_try_cycle or not self._prefilter():
                return
            sig = self._signature(self._quick_key(now))
            if sig is None:
                self.abort()
                return
            self._anchor = sig
            self._anchor_cycle = now
            self._anchor_order = self.queue._order
            core = self.core
            self._anchor_snapshot = core.stats.snapshot_prefix(
                core.stats._scope
            )
            self._anchor_attrs = (
                core.active_cycles,
                core.quiescent_cycles,
                core.predictor.lookups,
                core.predictor.mispredicts,
            )
            trace = core.commit_trace
            self._anchor_trace_len = len(trace) if trace is not None else 0
            probe = core.probe
            self._anchor_streams = probe.snapshot() if probe is not None else ()
            self._state = _MATCHING
            return
        elapsed = now - self._anchor_cycle
        if elapsed > self._max_period:
            self.abort()
            return
        key = self._quick_key(now)
        if key != self._anchor[0]:
            # The signature starts with this key: no match possible.
            return
        plan: list = []
        sig = self._signature(key, plan)
        matched = sig == self._anchor
        if sig is None or (matched and not self._post_offsets_periodic(plan)):
            self.abort()
            return
        if not matched:
            return
        # Exact period found: the first recurrence of the complete
        # relative state.  Capture the one-lap deltas and park.
        core = self.core
        probe = core.probe
        if probe is not None:
            deltas = probe.lap_delta(self._anchor_streams)
            if deltas is None:
                # The lap emits events a count replay cannot restore.
                self.abort()
                return
            self._stream_deltas = deltas
        self._period = elapsed
        from repro.common.stats import diff_prefix_snapshots

        after = core.stats.snapshot_prefix(core.stats._scope)
        self._counter_deltas, self._hist_deltas = diff_prefix_snapshots(
            self._anchor_snapshot, after
        )
        a = self._anchor_attrs
        self._attr_deltas = (
            core.active_cycles - a[0],
            core.quiescent_cycles - a[1],
            core.predictor.lookups - a[2],
            core.predictor.mispredicts - a[3],
        )
        trace = core.commit_trace
        self._lap_tape = (
            [] if trace is None else list(trace[self._anchor_trace_len:])
        )
        self._park(now, plan)

    def abort(self) -> None:
        """Drop the current observation and back off: until the
        in-flight delivery that blocked the last capture lands, else for
        ``COOLDOWN_CYCLES``."""
        retry = self._retry_at
        self._retry_at = None
        self._anchor = None
        self._anchor_snapshot = None
        self._state = _IDLE
        self._next_try_cycle = (
            retry if retry is not None else self.queue.now + COOLDOWN_CYCLES
        )

    # ------------------------------------------------------------------
    # signature capture

    def _prefilter(self) -> bool:
        """Cheap screen before a full signature capture.

        Parking requires the ROB to hold only side-effect-free classes,
        and real spin loops always contain a spin-marked op (PAUSE); a
        clean-commit streak in straight-line code almost always fails
        the first check on the cheap kidx scan alone.
        """
        core = self.core
        if core.sq or core._atomics_sq or core._fences:
            return False
        has_spin = False
        for entry in core._rob_entries:
            kidx = entry.dec.kidx
            if kidx != KIDX_ALU and kidx != KIDX_BRANCH and kidx != KIDX_LOAD:
                return False
            if entry.dec.spin:
                has_spin = True
        return has_spin

    def _quick_key(self, now: int) -> tuple:
        """The head of the signature: cheap fields that move on almost
        every commit of a spin lap, so a differing key rules a match out.
        The cache epochs prove memory-side identity in O(1): they advance
        on every placement/removal, recency-*order* change or MESI
        transition, so equal epochs at two boundaries mean identical
        L1/L2 arrays, replacement order and coherence states.  Their
        absolute values never leak into behaviour."""
        core = self.core
        hierarchy = self.hierarchy
        rob = core._rob_entries
        return (
            core.pc,
            core._fetch_epoch,
            len(rob),
            rob[0].pc if rob else -1,
            now - core._last_commit_cycle,
            hierarchy.state_epoch,
            hierarchy._l1.mut_epoch,
            hierarchy._l1._replacement.rank_epoch,
            hierarchy._l2.mut_epoch,
            hierarchy._l2._replacement.rank_epoch,
            tuple(core.rename.regfile),
        )

    def _signature(
        self, key: tuple, plan: Optional[list] = None
    ) -> Optional[tuple]:
        """Complete relative signature of the core's state, headed by
        its quick ``key``, or None when the state is not parkable
        (in-flight memory traffic, non-clean ROB content, unknown
        pending-event shapes, ...).

        ``plan``, when given, is filled by :meth:`_scan_pending`, so a
        matching capture hands its own scan to :meth:`_park`."""
        core = self.core
        if core.halted or core.finished or core.parked:
            return None
        if (
            core.sq
            or len(core.aq)
            or core._stalled_atomics
            or core._loads_waiting_agen
            or core._loads_waiting_fence
            or core._fences
            or core._atomics_sq
        ):
            return None
        # A pending watchdog check does NOT block parking: with the AQ
        # empty (checked above) no line is locked, so the check fires as
        # a pure no-op ("nothing locked" early return) at the same
        # absolute cycle in both the fast and reference runs.  It stays
        # in the queue untouched — the global time-warp stops there and
        # replays it like any other event.  This matters a lot: the
        # default threshold (10k cycles) often exceeds short runs, so a
        # check armed by a core's first atomic would otherwise disable
        # fast-forward on that core for the rest of the run.
        if not self.hierarchy.can_park():
            return None
        now = self.queue.now
        entries = list(core._rob_entries)
        base = entries[0].seq if entries else core.next_seq
        pending = self._scan_pending(base, plan)
        if pending is None:
            return None
        index_of = {id(e): i for i, e in enumerate(entries)}

        def ref(instr) -> object:
            if instr is None:
                return -1
            i = index_of.get(id(instr))
            if i is not None:
                return i
            # Dead (committed or squashed) instruction reachable only
            # through rename snapshots; behaviorally it is just its pc,
            # result and lifecycle flags.
            return ("dead", instr.pc, instr.result, instr.committed,
                    instr.squashed)

        def rel(cycle: int) -> int:
            return now - cycle if cycle >= 0 else -1

        rob_sig = []
        for e in entries:
            kidx = e.dec.kidx
            if kidx != KIDX_ALU and kidx != KIDX_BRANCH and kidx != KIDX_LOAD:
                return None
            prev = e.prev_producer
            prev_sig = (
                tuple((reg, ref(p)) for reg, p in prev.items())
                if prev
                else ()
            )
            rob_sig.append((
                e.pc, kidx, e.seq - base, e.completed, e.performed,
                e.addr_ready, e.mem_issued, e.result,
                e.addr_pending, e.value_pending,
                e.address, e.word, e.line,
                e.pred_taken, e.next_pc, e.flags,
                tuple(e.src_values.items()),
                tuple((ref(c), kind, reg) for c, kind, reg in e.dependents)
                if e.dependents
                else (),
                prev_sig,
                rel(e.dispatch_cycle), rel(e.head_wait_cycle),
                rel(e.issue_cycle), rel(e.done_cycle),
                rel(e.perform_cycle),
            ))

        bw = core.issue_bw
        prefetch = core.prefetcher
        prefetch_sig = (
            tuple(
                sorted(
                    (slot, e.last_address, e.stride, e.confidence)
                    for slot, e in prefetch._table.items()
                )
            )
            if prefetch is not None
            else ()
        )
        storeset = core.storeset
        return (
            key,
            core._dispatch_blocked,
            core._fetch_scheduled,
            core._commit_scheduled,
            tuple(ref(p) for p in core.rename._producer),
            tuple(rob_sig),
            tuple(e.seq - base for e in core.lq),
            (now - bw._cycle if bw._cycle >= 0 else None, bw._used),
            tuple(core.predictor._counters),
            tuple(sorted(storeset._ssit.items())),
            tuple(sorted((k, ref(v)) for k, v in storeset._lfst.items())),
            prefetch_sig,
            pending,
        )

    def _canon_arg(self, arg, base: int) -> object:
        if arg is None:
            return None
        if type(arg) is int:
            return ("i", arg)
        seq = getattr(arg, "seq", None)
        if seq is not None and hasattr(arg, "dec"):
            return ("d", arg.pc, seq - base)
        if type(arg) is tuple:
            parts = tuple(self._canon_arg(a, base) for a in arg)
            return _BAD if _BAD in parts else ("t", parts)
        return _BAD

    def _targets_core(self, arg) -> bool:
        if type(arg) is list:
            core_id = self.core.core_id
            return any(getattr(m, "dst", None) == core_id for m in arg)
        return getattr(arg, "dst", None) == self.core.core_id

    def _scan_pending(self, base: int, plan: Optional[list]):
        """Canonical tuple of the core's pending events; also fills
        ``plan`` (when given) with the live ``(due, order, callback,
        arg)`` entries for extraction.  None when the pending set makes
        parking illegal: a cancellable handle on an owned entry, an
        uncanonicalizable argument, an owned heap entry, a pending
        microtask, or an in-flight delivery targeting this core (whose
        due cycle :meth:`abort` then retries at)."""
        queue = self.queue
        if queue.micro_pending():
            return None
        core = self.core
        hierarchy = self.hierarchy
        now = queue.now
        canon = []
        for due, order, callback, arg, handle in queue.iter_ring():
            owner = getattr(callback, "__self__", None)
            if owner is core or owner is hierarchy:
                if handle is not None:
                    return None
                arg_c = self._canon_arg(arg, base)
                if arg_c is _BAD:
                    return None
                canon.append((due - now, callback.__name__, arg_c))
                if plan is not None:
                    plan.append((due, order, callback, arg))
            elif self._targets_core(arg):
                self._retry_at = due
                return None
        for due, order, callback, arg, handle in queue.iter_heap():
            owner = getattr(callback, "__self__", None)
            if owner is core or owner is hierarchy:
                return None
            if self._targets_core(arg):
                self._retry_at = due
                return None
        return tuple(canon)

    # ------------------------------------------------------------------
    # park

    def _post_offsets_periodic(self, plan: list) -> bool:
        """Whether the replay may reuse every pending entry's post
        offset.  An entry posted during the observed lap recurs each lap
        at the same offsets.  One posted before the anchor recurs as the
        replica of an in-lap post of the same callback and instruction,
        so its posting latency must be the one those posts show."""
        posted_cycle = self.queue.posted_cycle
        in_lap: dict = {}
        early = []
        for due, order, callback, arg in plan:
            # Laps repeat an instruction's events under a new seq.
            key = (callback, getattr(arg, "pc", arg))
            latency = due - posted_cycle(order)
            if order < self._anchor_order:
                early.append((key, latency))
            else:
                in_lap.setdefault(key, set()).add(latency)
        return all(in_lap.get(key) == {latency} for key, latency in early)

    def _park(self, now: int, plan: list) -> None:
        core = self.core
        entries = core._rob_entries
        # Replay descriptors: where each entry sits relative to the park
        # boundary, and how long before its due cycle the live run
        # posted it (the splice rule orders replays against in-flight
        # deliveries by posting cycle).  The period is within the
        # network latency (_max_period), as the wake boundary requires.
        posted_cycle = self.queue.posted_cycle
        descriptors = [
            (due - now, now - posted_cycle(order), callback, arg)
            for due, order, callback, arg in plan
        ]
        extracted = self.queue.extract_ring(
            lambda cb, a, c=core, h=self.hierarchy: (
                getattr(cb, "__self__", None) is c
                or getattr(cb, "__self__", None) is h
            )
        )
        assert len(extracted) == len(plan)
        self._descriptors = descriptors
        self._parked_at = now
        self._wake_at = None
        self._sends = []
        watched = frozenset(
            e.line for e in entries if e.line is not None and e.addr_ready
        )
        self.hierarchy.watch_for_park(watched, self._on_send_cb)
        core.parked = True
        core.ff_parks += 1
        self._state = _PARKED
        self._anchor = None
        self._anchor_snapshot = None
        probe = core.probe
        if probe is not None and probe.park is not None:
            probe.park(now, self._period, watched)

    # ------------------------------------------------------------------
    # wake

    def _on_send(self, message, send_cycle: int, due_cycle: int) -> None:
        """Interconnect watch hook: a message is being sent to the
        parked core.  Runs at send time, before the delivery posts."""
        # Message objects are pooled; they stay intact until delivered,
        # which is at or after the un-park boundary, so keeping the
        # reference for splice-time identification is safe.  The kind
        # and line are copied now for wake-cause classification.
        self._sends.append((send_cycle, message, message.kind, message.line))
        if self._wake_at is None:
            period = self._period
            laps = (send_cycle - self._parked_at) // period + 1
            boundary = self._parked_at + laps * period
            self._wake_at = boundary
            self.queue.post(boundary - send_cycle, self._unpark_cb)

    def _unpark(self) -> None:
        core = self.core
        queue = self.queue
        boundary = queue.now
        t0 = self._parked_at
        period = self._period
        skipped = boundary - t0
        assert skipped % period == 0
        laps = skipped // period
        # The watch hook must come off before anything else: events we
        # are about to run may send messages to this core.
        self.hierarchy.unwatch_for_park()
        # Stats / accounting / trace re-synthesis: k times the per-lap
        # delta, exactly what k live laps would have recorded.
        if laps:
            core.stats.apply_scaled_delta(
                self._counter_deltas, self._hist_deltas, laps
            )
            d = self._attr_deltas
            core.active_cycles += laps * d[0]
            core.quiescent_cycles += laps * d[1]
            core.predictor.lookups += laps * d[2]
            core.predictor.mispredicts += laps * d[3]
            if self._lap_tape and core.commit_trace is not None:
                core.commit_trace.extend(self._lap_tape * laps)
            if core.probe is not None:
                core.probe.replay(self._stream_deltas, laps)
        # Shift now-anchored state to the new boundary.  Sequence
        # numbers and LRU stamps deliberately stay put: the simulation
        # only ever consults their relative order, which is unchanged.
        core._last_commit_cycle += skipped
        bw = core.issue_bw
        if bw._cycle >= 0:
            bw._cycle += skipped
        for e in core._rob_entries:
            if e.dispatch_cycle >= 0:
                e.dispatch_cycle += skipped
            if e.head_wait_cycle >= 0:
                e.head_wait_cycle += skipped
            if e.issue_cycle >= 0:
                e.issue_cycle += skipped
            if e.done_cycle >= 0:
                e.done_cycle += skipped
            if e.perform_cycle >= 0:
                e.perform_cycle += skipped
        # Splice the parked events back.  A descriptor's live-run twin
        # was posted at (boundary - post_offset); in-flight deliveries
        # to this core are ordered against it by *their* posting (send)
        # cycles — ties cannot occur (the hook fires before the
        # delivery posts, and transit >= period separates send cycles
        # from replayed post cycles sharing a due cycle).
        send_cycle_of = {id(s[1]): s[0] for s in self._sends}
        core_id = core.core_id
        for offset, post_offset, callback, arg in self._descriptors:
            due = boundary + offset
            replay_posted = boundary - post_offset
            index = None
            for i, (_order, cb, a) in enumerate(
                queue.bucket_live_entries(due)
            ):
                send = None
                if type(a) is list:
                    for m in a:
                        if getattr(m, "dst", None) == core_id:
                            send = send_cycle_of.get(id(m))
                            break
                elif getattr(a, "dst", None) == core_id:
                    send = send_cycle_of.get(id(a))
                if send is not None and send > replay_posted:
                    index = i
                    break
            if index is None:
                index = len(queue.bucket_live_entries(due))
            queue.splice_ring(due, index, callback, arg, replay_posted)
        core.spin_cycles_skipped += skipped
        core.parked = False
        self._descriptors = []
        self._sends = []
        self._state = _IDLE
        self._next_try_cycle = boundary
        probe = core.probe
        if probe is not None and probe.unpark is not None:
            probe.unpark(boundary, skipped, laps, self._first_send_info())

    def _first_send_info(self) -> Optional[tuple]:
        if not self._sends:
            return None
        send_cycle, _msg, kind, line = self._sends[0]
        return (send_cycle, kind, line, line in self.hierarchy.spin_watch)
