"""The simulator's one instrumentation seam: named probe points.

Every observed event reaches the tools through a probe table.  A
component holds a ``probe`` slot that is ``None`` unless a tool
observes it, so an unobserved run pays one ``None`` check per probe
point it passes and runs no tool code.  Tools
(:class:`~repro.system.trace.PipelineTracer`,
:class:`~repro.obs.attach.Observability`) attach through
:func:`probe_of` / :func:`directory_probe_of` and ``listen(...)``;
listeners chain, so several tools can observe one component.  No tool
replaces a simulator method or callback.

One :class:`CoreProbe` per observed core is shared by the core and its
atomic queue, watchdog and private hierarchy.  Its points, each called
after the event's own side effects unless noted:

- ``dispatch(instr)`` / ``commit(instr)``: once per instruction.  The
  batched fetch and commit windows read the slot once per window, as
  they read ``commit_trace``, so an observed core keeps the batched
  legs, and with them spin fast-forward;
- ``perform(instr, kind)``: a load performs; ``kind`` is ``"load"``,
  ``"load_lock"`` or ``"forwarded"``;
- ``store_perform(store)``: a store (or an atomic's store_unlock)
  writes the cache;
- ``squash(seq, new_pc, cause)``: before the flush of everything at or
  after ``seq``; ``cause`` is ``branch``, ``mem_dep``, ``mem_order``
  or ``watchdog``;
- ``forward(instr, store)``: before ``instr`` takes its value from
  ``store`` (store-to-load forwarding);
- ``lock(entry)`` / ``unlock(entry)``: an AQ entry locks or releases
  its cacheline, including lock capture via the store broadcast;
- ``arm(deadline)`` / ``fire(entry)``: the watchdog schedules a check
  (``deadline`` = last activity + threshold), or times out on
  ``entry``, before the flush;
- ``l2_evict(line)``: before the private L2 evicts ``line``;
- ``defer(line, kind)``: a remote ``"inv"`` or ``"downgrade"`` hit a
  locked line and waits for the unlock;
- ``park(cycle, period, lines)`` / ``unpark(cycle, skipped, laps,
  first_send)``: spin fast-forward parks and un-parks the core.

``streams`` holds the per-core event streams the tools count (objects
with a ``cat`` string and an integer ``count``).  Spin fast-forward
measures them across one lap with the rest of the lap's deltas.  A lap
that moves only ``pipeline`` streams may park, and un-parking adds the
skipped laps' counts (:meth:`CoreProbe.replay`), so the tools' totals
stay exact.  A lap that moves any other stream is not parked: those
events carry more than a count (lock hold times, forwarding depths),
which no count replay can restore.

The directory's :class:`DirectoryProbe` is the one system-level table:
``txn_open(txn)`` when a transaction (request or recall) is allocated,
``txn_close(txn)`` before it completes and frees its line.
"""

from __future__ import annotations

from typing import Callable, Optional

#: The one stream category whose per-lap counts un-parking replays.
REPLAYABLE_CATEGORY = "pipeline"


def _chain(first: Optional[Callable], second: Optional[Callable]):
    if first is None:
        return second
    if second is None:
        return first

    def both(*args) -> None:
        first(*args)
        second(*args)

    return both


class _ProbeTable:
    """Named probe points, each ``None`` or a (chained) listener."""

    __slots__ = ()
    POINTS: tuple = ()

    def __init__(self) -> None:
        for name in self.POINTS:
            setattr(self, name, None)

    def listen(self, **listeners: Optional[Callable]) -> None:
        """Add listeners by point name; each runs after those attached
        before it."""
        for name, listener in listeners.items():
            if name not in self.POINTS:
                raise TypeError(f"{type(self).__name__} has no point {name!r}")
            setattr(self, name, _chain(getattr(self, name), listener))


class CoreProbe(_ProbeTable):
    """Listeners and counted streams of one observed core."""

    POINTS = (
        "dispatch",
        "commit",
        "perform",
        "store_perform",
        "squash",
        "forward",
        "lock",
        "unlock",
        "arm",
        "fire",
        "l2_evict",
        "defer",
        "park",
        "unpark",
    )
    __slots__ = POINTS + ("streams",)

    def __init__(self) -> None:
        super().__init__()
        self.streams: list = []

    def snapshot(self) -> tuple:
        return tuple(stream.count for stream in self.streams)

    def lap_delta(self, before: tuple) -> Optional[tuple]:
        """Per-stream counts since ``before``; None if a stream outside
        :data:`REPLAYABLE_CATEGORY` moved (the lap must not park)."""
        delta = []
        for i, stream in enumerate(self.streams):
            moved = stream.count - (before[i] if i < len(before) else 0)
            if moved and stream.cat != REPLAYABLE_CATEGORY:
                return None
            delta.append(moved)
        return tuple(delta)

    def replay(self, delta: tuple, laps: int) -> None:
        """Count ``laps`` more laps of ``delta`` (un-parking)."""
        for stream, moved in zip(self.streams, delta):
            if moved:
                stream.count += laps * moved


class DirectoryProbe(_ProbeTable):
    """Transaction listeners of the directory."""

    POINTS = ("txn_open", "txn_close")
    __slots__ = POINTS


def probe_of(core) -> CoreProbe:
    """The core's probe, created on first use and shared with the
    core's atomic queue, watchdog and private hierarchy."""
    probe = core.probe
    if probe is None:
        probe = CoreProbe()
        core.probe = core.aq.probe = core.watchdog.probe = probe
        core.hierarchy.probe = probe
    return probe


def directory_probe_of(directory) -> DirectoryProbe:
    """The directory's probe, created on first use."""
    probe = directory.probe
    if probe is None:
        probe = directory.probe = DirectoryProbe()
    return probe
