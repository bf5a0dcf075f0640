"""Attach the observability layer to a :class:`System`.

:class:`Observability` emits onto the :class:`~repro.obs.bus.EventBus`
from two kinds of attachment point, both set up per *instance* at
attach time, so the simulator's shared hot paths keep zero
observability branches and a system without an attached observer runs
exactly the unobserved code (the basis of the byte-identity and
perf-gate acceptance tests):

- the core's probe slot (:mod:`repro.uarch.probe`): dispatch and commit
  listeners, which the batched fetch and commit windows call once per
  instruction, and spin fast-forward's park/unpark listeners.  The
  batched legs and spin fast-forward therefore stay on under
  observation.  Every per-core stream is also counted on the probe, so
  un-parking adds the skipped laps' ``pipeline/*`` counts and the
  report's totals stay exact;
- thin wrappers that replace instance attributes and then call the
  original, resolved via instance lookup at call time so they fire
  identically under ``REPRO_NO_FASTPATH=1``:

  - core: ``_perform_load``, ``_perform_load_lock``, ``_finish_forward``,
    ``_perform_store`` (with their prebound ``*_cb`` aliases),
    ``_squash_from`` (cause read from ``core.last_squash_cause``),
    ``_forward_load``;
  - atomic queue: ``_on_entry_locked`` / ``_on_entry_released`` — one
    uniform lock/unlock stream that also covers lock *capture* via the
    store broadcast (section 4.2), which never goes through
    ``_perform_load_lock``;
  - watchdog: the ``on_timeout`` hook (fire) plus an ``_ensure_check``
    wrap (arm);
  - hierarchy: ``_evict_from_l2`` (replacement / inclusion victims) and
    ``_on_invalidate`` / ``_on_downgrade`` (deferred coherence requests
    on locked lines);
  - directory: ``_open_txn`` / ``_start_recall`` open spans that
    ``_close_txn`` / ``_complete_recall`` emit as completed
    transactions.

Online auditing: with ``audit_interval_cycles > 0`` the attacher posts
a periodic event that runs the full invariant suite
(:func:`repro.mem.invariants.verify_system`) against the live system.
The audit event re-arms **only while other events are pending**, so an
otherwise-empty queue still drains and deadlock detection (which is
"queue empty with unfinished threads") is preserved.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.common.errors import SimulationError
from repro.core.forwarding import chain_depth_of
from repro.mem.invariants import verify_system
from repro.obs.bus import EventBus
from repro.obs.chrome import chrome_trace, write_chrome_trace
from repro.obs.config import ObsConfig
from repro.obs.health import build_health
from repro.uarch.dynins import DynInstr
from repro.uarch.probe import probe_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    import pathlib

    from repro.system.simulator import System
    from repro.uarch.core import OutOfOrderCore


class Observability:
    """One observer per :class:`System`; see the module docstring."""

    def __init__(self, config: Optional[ObsConfig] = None) -> None:
        self.config = config or ObsConfig()
        self.bus = EventBus(self.config.capacity)
        self._system: Optional["System"] = None
        #: Cycle each currently-held lock was acquired at, keyed by the
        #: AQ entry object itself (never by id(): entries are recycled).
        self._lock_acquired: dict = {}
        self.lock_holds: list[int] = []
        self.chain_depths: list[int] = []
        self.watchdog_fires = 0
        self.audits_run = 0
        self.violations: list[str] = []
        self.final_violations: list[str] = []
        self.health: Optional[dict] = None

    # ------------------------------------------------------------------
    # attachment

    def attach(self, system: "System") -> "Observability":
        if self._system is not None:
            raise SimulationError("Observability is single-use: already attached")
        self._system = system
        cfg = self.config
        for core in system.cores:
            if cfg.pipeline:
                self._attach_pipeline(core)
            if cfg.forwarding:
                self._attach_forwarding(core)
            if cfg.aq:
                self._attach_aq(core)
            if cfg.watchdog:
                self._attach_watchdog(core)
            if cfg.replacement or cfg.coherence:
                self._attach_hierarchy(core)
            if cfg.spinff:
                self._attach_spinff(core)
        if cfg.coherence:
            self._attach_directory(system)
        return self

    def _core_streams(self, core: "OutOfOrderCore", cat: str, *kinds: str) -> list:
        """Resolve one core's streams and count them on its probe, where
        spin fast-forward finds them (see ``repro.uarch.probe``)."""
        streams = [self.bus.stream(cat, kind, core.core_id) for kind in kinds]
        probe_of(core).streams.extend(streams)
        return streams

    def _attach_pipeline(self, core: "OutOfOrderCore") -> None:
        emit, queue = self.bus.emit_on, core.queue
        dispatched, performed, store_performed, committed, squashed = (
            self._core_streams(
                core, "pipeline",
                "dispatch", "perform", "store_perform", "commit", "squash",
            )
        )
        orig_load = core._perform_load
        orig_lock = core._perform_load_lock
        orig_forwarded = core._finish_forward
        orig_store = core._perform_store
        orig_squash = core._squash_from

        def dispatch(instr: DynInstr) -> None:
            emit(
                dispatched, queue.now, instr.seq, 0,
                {"pc": instr.pc, "klass": instr.klass.value},
            )

        def commit(instr: DynInstr) -> None:
            emit(committed, queue.now, instr.seq, 0, {"klass": instr.klass.value})

        def perform_load(instr: DynInstr) -> None:
            was = instr.performed
            orig_load(instr)
            if instr.performed and not was:
                emit(
                    performed, queue.now, instr.seq, 0,
                    {"kind": "load", "addr": instr.address},
                )

        def perform_lock(instr: DynInstr) -> None:
            was = instr.performed
            orig_lock(instr)
            if instr.performed and not was:
                emit(
                    performed, queue.now, instr.seq, 0,
                    {"kind": "load_lock", "line": instr.line},
                )

        def finish_forward(instr: DynInstr, value: int) -> None:
            was = instr.performed
            orig_forwarded(instr, value)
            if instr.performed and not was:
                emit(performed, queue.now, instr.seq, 0, {"kind": "forwarded"})

        def perform_store(store: DynInstr) -> None:
            was = store.store_performed
            orig_store(store)
            if store.store_performed and not was:
                emit(
                    store_performed, queue.now, store.seq, 0,
                    {"addr": store.address, "atomic": 1 if store.is_atomic else 0},
                )

        def squash_from(seq: int, new_pc: int) -> None:
            emit(
                squashed, queue.now, seq, 0,
                {"new_pc": new_pc, "cause": core.last_squash_cause},
            )
            orig_squash(seq, new_pc)

        probe_of(core).listen(dispatch=dispatch, commit=commit)
        core._perform_load = perform_load  # type: ignore[method-assign]
        core._perform_load_lock = perform_lock  # type: ignore[method-assign]
        core._finish_forward = finish_forward  # type: ignore[method-assign]
        core._perform_store = perform_store  # type: ignore[method-assign]
        core._squash_from = squash_from  # type: ignore[method-assign]
        # The memory-request paths hand prebound ``*_cb`` aliases of
        # these methods to the hierarchy/event queue — refresh them so
        # the wrappers see those invocations too.
        core._perform_load_cb = perform_load
        core._perform_load_lock_cb = perform_lock
        core._perform_store_cb = perform_store

    def _attach_forwarding(self, core: "OutOfOrderCore") -> None:
        emit, queue = self.bus.emit_on, core.queue
        (forwarded,) = self._core_streams(core, "forward", "forward")
        orig_forward = core._forward_load
        depths = self.chain_depths

        def forward_load(instr: DynInstr, store: DynInstr) -> None:
            depth = chain_depth_of(store) + 1
            depths.append(depth)
            emit(
                forwarded, queue.now, instr.seq, 0,
                {
                    "store_seq": store.seq,
                    "depth": depth,
                    "to_atomic": 1 if instr.is_atomic else 0,
                },
            )
            orig_forward(instr, store)

        core._forward_load = forward_load  # type: ignore[method-assign]

    def _attach_aq(self, core: "OutOfOrderCore") -> None:
        emit, queue = self.bus.emit_on, core.queue
        locks, unlocks = self._core_streams(core, "aq", "lock", "unlock")
        aq = core.aq
        orig_locked = aq._on_entry_locked
        orig_released = aq._on_entry_released
        acquired = self._lock_acquired
        holds = self.lock_holds

        def on_locked(entry) -> None:
            orig_locked(entry)
            acquired[entry] = queue.now
            emit(locks, queue.now, entry.seq, 0, {"line": entry.line})

        def on_released(entry) -> None:
            orig_released(entry)
            start = acquired.pop(entry, queue.now)
            held = queue.now - start
            holds.append(held)
            emit(unlocks, queue.now, entry.seq, held, {"line": entry.line})

        aq._on_entry_locked = on_locked  # type: ignore[method-assign]
        aq._on_entry_released = on_released  # type: ignore[method-assign]

    def _attach_spinff(self, core: "OutOfOrderCore") -> None:
        """Stream spin fast-forward park/unpark events.

        A parked span emits nothing but these two events: its skipped
        laps' ``pipeline/*`` counts are added on un-park through the
        core's probe, and the laps' individual events are not in the
        ring.  An ``unpark`` carries the span as its ``dur``.
        """
        emit = self.bus.emit_on
        parks, unparks = self._core_streams(core, "spinff", "park", "unpark")

        def on_park(cycle: int, period: int, lines) -> None:
            emit(parks, cycle, -1, 0, {"period": period, "lines": sorted(lines)})

        def on_unpark(cycle, skipped, laps, first_send) -> None:
            info = {"skipped": skipped, "laps": laps}
            if first_send is not None:
                send_cycle, kind, line, watched = first_send
                info["wake_send_cycle"] = send_cycle
                info["wake_kind"] = getattr(kind, "value", str(kind))
                info["wake_line"] = line
                info["wake_line_watched"] = watched
            emit(unparks, cycle, -1, skipped, info)

        probe_of(core).listen(park=on_park, unpark=on_unpark)

    def _attach_watchdog(self, core: "OutOfOrderCore") -> None:
        emit, queue = self.bus.emit_on, core.queue
        arms, fires = self._core_streams(core, "watchdog", "arm", "fire")
        watchdog = core.watchdog
        orig_ensure = watchdog._ensure_check
        obs = self

        def on_timeout(entry) -> None:
            obs.watchdog_fires += 1
            emit(fires, queue.now, entry.seq, 0, {"line": entry.line})

        def ensure_check() -> None:
            was = watchdog._check_scheduled
            orig_ensure()
            if watchdog._check_scheduled and not was:
                emit(
                    arms, queue.now, -1, 0,
                    {"deadline": watchdog._last_activity + watchdog._threshold},
                )

        watchdog.on_timeout = on_timeout
        watchdog._ensure_check = ensure_check  # type: ignore[method-assign]

    def _attach_hierarchy(self, core: "OutOfOrderCore") -> None:
        emit, queue = self.bus.emit_on, core.queue
        hierarchy = core.hierarchy
        cfg = self.config
        if cfg.replacement:
            (evictions,) = self._core_streams(core, "replace", "l2_evict")
            orig_evict = hierarchy._evict_from_l2

            def evict_from_l2(line: int) -> None:
                emit(evictions, queue.now, -1, 0, {"line": line})
                orig_evict(line)

            hierarchy._evict_from_l2 = evict_from_l2  # type: ignore[method-assign]
        if cfg.coherence:
            (deferrals,) = self._core_streams(core, "coherence", "defer")
            orig_inv = hierarchy._on_invalidate
            orig_down = hierarchy._on_downgrade

            def on_invalidate(message) -> None:
                orig_inv(message)
                if message.retained:
                    emit(
                        deferrals, queue.now, -1, 0,
                        {"line": message.line, "kind": "inv"},
                    )

            def on_downgrade(message) -> None:
                orig_down(message)
                if message.retained:
                    emit(
                        deferrals, queue.now, -1, 0,
                        {"line": message.line, "kind": "downgrade"},
                    )

            hierarchy._on_invalidate = on_invalidate  # type: ignore[method-assign]
            hierarchy._on_downgrade = on_downgrade  # type: ignore[method-assign]

    def _attach_directory(self, system: "System") -> None:
        bus, queue = self.bus, system.queue
        directory = system.directory
        opened: dict[int, int] = {}
        orig_open = directory._open_txn
        orig_recall = directory._start_recall
        orig_close = directory._close_txn
        orig_complete_recall = directory._complete_recall

        def open_txn(kind, entry, requester, data_ready_at):
            txn = orig_open(kind, entry, requester, data_ready_at)
            opened[txn.txn_id] = queue.now
            return txn

        def start_recall(victim, blocked_request) -> None:
            orig_recall(victim, blocked_request)
            txn = victim.pending
            if txn is not None:
                opened[txn.txn_id] = queue.now

        def close_txn(entry, txn) -> None:
            start = opened.pop(txn.txn_id, queue.now)
            bus.emit(
                queue.now, "coherence", "txn", -1, dur=queue.now - start,
                info={
                    "kind": txn.kind,
                    "line": txn.line,
                    "requester": txn.requester,
                },
            )
            orig_close(entry, txn)

        def complete_recall(txn) -> None:
            start = opened.pop(txn.txn_id, queue.now)
            bus.emit(
                queue.now, "coherence", "recall", -1, dur=queue.now - start,
                info={"line": txn.line},
            )
            orig_complete_recall(txn)

        directory._open_txn = open_txn  # type: ignore[method-assign]
        directory._start_recall = start_recall  # type: ignore[method-assign]
        directory._close_txn = close_txn  # type: ignore[method-assign]
        directory._complete_recall = complete_recall  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # online invariant auditing

    def on_run_start(self, system: "System") -> None:
        """Called by ``System.run`` just before draining the queue."""
        if system is not self._system:
            raise SimulationError("Observability attached to a different system")
        interval = self.config.audit_interval_cycles
        if interval > 0:
            system.queue.post(interval, self._audit)

    def _audit(self) -> None:
        system = self._system
        assert system is not None
        self.audits_run += 1
        found = verify_system(
            system, strict_directory=self.config.audit_strict
        )
        if found:
            room = self.config.audit_max_violations - len(self.violations)
            if room > 0:
                self.violations.extend(found[:room])
            self.bus.emit(
                system.queue.now, "audit", "violation",
                info={"count": len(found)},
            )
        # Re-arm only while the run is live: if this audit was the last
        # event, the queue must be allowed to drain (deadlock detection
        # is "queue empty with unfinished threads").
        if len(system.queue) > 0:
            system.queue.post(self.config.audit_interval_cycles, self._audit)

    def finalize_run(self, system: "System", end_cycle: int) -> dict:
        """Final audit + health report; called by ``System.run`` at the end.

        The quiesced-only checks (no pending directory transactions, no
        phantom holders, no stranded deferred requests) are included
        only when the event queue actually drained empty — ``run``
        returns as soon as every thread committed its Halt, which may
        leave in-flight writebacks behind.
        """
        self.final_violations = verify_system(
            system,
            strict_directory=self.config.audit_strict,
            quiesced=(len(system.queue) == 0),
        )[: self.config.audit_max_violations]
        self.health = build_health(
            self.bus,
            system,
            lock_holds=self.lock_holds,
            chain_depths=self.chain_depths,
            watchdog_fires=self.watchdog_fires,
            audits_run=self.audits_run,
            violations=self.violations,
            final_violations=self.final_violations,
        )
        return self.health

    # ------------------------------------------------------------------
    # export

    def chrome_payload(self) -> dict:
        if self._system is None:
            raise SimulationError("Observability was never attached")
        return chrome_trace(
            self.bus, self._system.config.num_cores, health=self.health
        )

    def write_chrome_trace(self, path) -> "pathlib.Path":
        """Write the recorded stream as Chrome ``trace_event`` JSON."""
        return write_chrome_trace(path, self.chrome_payload())

    def event_keys(self) -> list[tuple]:
        """Stream identity (for the fastpath-equivalence tests)."""
        return self.bus.stream_keys()
