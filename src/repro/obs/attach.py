"""Attach the observability layer to a :class:`System`.

:class:`Observability` is a pure listener: it emits onto the
:class:`~repro.obs.bus.EventBus` from the probe points of
:mod:`repro.uarch.probe` and replaces no simulator method.  A system
without an attached observer has every probe slot ``None`` and runs no
observability code.

- Each core's :class:`~repro.uarch.probe.CoreProbe`, shared with its
  atomic queue, watchdog and hierarchy, carries the per-core
  categories: ``pipeline`` (dispatch, perform, store_perform, commit,
  squash with its cause), ``forward``, ``aq`` (lock/unlock, including
  lock capture via the store broadcast, section 4.2), ``watchdog``
  (arm/fire), ``replace`` (L2 evictions), ``coherence/defer``
  (remote requests waiting on a locked line) and ``spinff``
  (park/unpark).  Every per-core stream is also counted on the probe,
  so un-parking adds the skipped laps' ``pipeline/*`` counts and the
  report's totals stay exact; the batched legs and spin fast-forward
  stay on under observation.
- The directory's :class:`~repro.uarch.probe.DirectoryProbe` opens a
  span per transaction and emits it as ``coherence/txn`` or
  ``coherence/recall`` when the transaction closes.

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
from repro.uarch.probe import directory_probe_of, probe_of

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

        def dispatch(instr: DynInstr) -> None:
            emit(
                dispatched, queue.now, instr.seq, 0,
                {"pc": instr.pc, "klass": instr.klass.value},
            )

        def commit(instr: DynInstr) -> None:
            emit(committed, queue.now, instr.seq, 0, {"klass": instr.klass.value})

        def perform(instr: DynInstr, kind: str) -> None:
            if kind == "load":
                info = {"kind": kind, "addr": instr.address}
            elif kind == "load_lock":
                info = {"kind": kind, "line": instr.line}
            else:
                info = {"kind": kind}
            emit(performed, queue.now, instr.seq, 0, info)

        def store_perform(store: DynInstr) -> None:
            emit(
                store_performed, queue.now, store.seq, 0,
                {"addr": store.address, "atomic": 1 if store.is_atomic else 0},
            )

        def squash(seq: int, new_pc: int, cause: str) -> None:
            emit(squashed, queue.now, seq, 0, {"new_pc": new_pc, "cause": cause})

        probe_of(core).listen(
            dispatch=dispatch,
            commit=commit,
            perform=perform,
            store_perform=store_perform,
            squash=squash,
        )

    def _attach_forwarding(self, core: "OutOfOrderCore") -> None:
        emit, queue = self.bus.emit_on, core.queue
        (forwarded,) = self._core_streams(core, "forward", "forward")
        depths = self.chain_depths

        def forward(instr: DynInstr, store: DynInstr) -> None:
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

        probe_of(core).listen(forward=forward)

    def _attach_aq(self, core: "OutOfOrderCore") -> None:
        emit, queue = self.bus.emit_on, core.queue
        locks, unlocks = self._core_streams(core, "aq", "lock", "unlock")
        acquired = self._lock_acquired
        holds = self.lock_holds

        def lock(entry) -> None:
            acquired[entry] = queue.now
            emit(locks, queue.now, entry.seq, 0, {"line": entry.line})

        def unlock(entry) -> None:
            start = acquired.pop(entry, queue.now)
            held = queue.now - start
            holds.append(held)
            emit(unlocks, queue.now, entry.seq, held, {"line": entry.line})

        probe_of(core).listen(lock=lock, unlock=unlock)

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
        obs = self

        def arm(deadline: int) -> None:
            emit(arms, queue.now, -1, 0, {"deadline": deadline})

        def fire(entry) -> None:
            obs.watchdog_fires += 1
            emit(fires, queue.now, entry.seq, 0, {"line": entry.line})

        probe_of(core).listen(arm=arm, fire=fire)

    def _attach_hierarchy(self, core: "OutOfOrderCore") -> None:
        emit, queue = self.bus.emit_on, core.queue
        probe = probe_of(core)
        if self.config.replacement:
            (evictions,) = self._core_streams(core, "replace", "l2_evict")

            def l2_evict(line: int) -> None:
                emit(evictions, queue.now, -1, 0, {"line": line})

            probe.listen(l2_evict=l2_evict)
        if self.config.coherence:
            (deferrals,) = self._core_streams(core, "coherence", "defer")

            def defer(line: int, kind: str) -> None:
                emit(deferrals, queue.now, -1, 0, {"line": line, "kind": kind})

            probe.listen(defer=defer)

    def _attach_directory(self, system: "System") -> None:
        bus, queue = self.bus, system.queue
        opened: dict[int, int] = {}

        def txn_open(txn) -> None:
            opened[txn.txn_id] = queue.now

        def txn_close(txn) -> None:
            start = opened.pop(txn.txn_id, queue.now)
            if txn.kind == "Recall":
                kind, info = "recall", {"line": txn.line}
            else:
                kind, info = "txn", {
                    "kind": txn.kind,
                    "line": txn.line,
                    "requester": txn.requester,
                }
            bus.emit(
                queue.now, "coherence", kind, -1, dur=queue.now - start, info=info
            )

        directory_probe_of(system.directory).listen(
            txn_open=txn_open, txn_close=txn_close
        )

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
        """Stream identity (for the golden event-stream tests)."""
        return self.bus.stream_keys()
