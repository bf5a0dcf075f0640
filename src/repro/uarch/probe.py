"""The core's one observation slot.

``OutOfOrderCore.probe`` is ``None`` unless a tool observes the core.
Tools (:class:`~repro.system.trace.PipelineTracer`,
:class:`~repro.obs.attach.Observability`) attach through
:func:`probe_of`, and their listeners chain, so several tools can
observe one core.

- ``dispatch(instr)`` / ``commit(instr)`` run once per instruction,
  after that instruction's own dispatch or commit side effects.  The
  batched fetch and commit windows read the slot once per window, as
  they read ``commit_trace``, so an unobserved run pays nothing per
  instruction and an observed one keeps the batched legs — and with
  them spin fast-forward.
- ``park(cycle, period, lines)`` / ``unpark(cycle, skipped, laps,
  first_send)`` run when spin fast-forward parks and un-parks the core.
- ``streams`` holds the per-core event streams the tools count
  (objects with a ``cat`` string and an integer ``count``).  Spin
  fast-forward measures them across one lap with the rest of the lap's
  deltas.  A lap that moves only ``pipeline`` streams may park, and
  un-parking adds the skipped laps' counts (:meth:`CoreProbe.replay`),
  so the tools' totals stay exact.  A lap that moves any other stream
  is not parked: those events carry more than a count (lock hold
  times, forwarding depths), which no count replay can restore.
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


class CoreProbe:
    """Listeners and counted streams of one observed core."""

    __slots__ = ("dispatch", "commit", "park", "unpark", "streams")

    def __init__(self) -> None:
        self.dispatch: Optional[Callable] = None
        self.commit: Optional[Callable] = None
        self.park: Optional[Callable] = None
        self.unpark: Optional[Callable] = None
        self.streams: list = []

    def listen(
        self,
        dispatch: Optional[Callable] = None,
        commit: Optional[Callable] = None,
        park: Optional[Callable] = None,
        unpark: Optional[Callable] = None,
    ) -> None:
        """Add listeners; each runs after those attached before it."""
        self.dispatch = _chain(self.dispatch, dispatch)
        self.commit = _chain(self.commit, commit)
        self.park = _chain(self.park, park)
        self.unpark = _chain(self.unpark, unpark)

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


def probe_of(core) -> CoreProbe:
    """The core's probe, created on first use."""
    probe = core.probe
    if probe is None:
        probe = core.probe = CoreProbe()
    return probe
