"""The observability event bus.

:class:`EventBus` is the single point every instrumented component
emits into.  It maintains

- one :class:`~repro.obs.events.BoundedEventLog` ring sink (the
  retained event stream, capped, with a dropped counter), and
- exact counters, one :class:`EventStream` per ``(category, kind,
  source)``, that keep counting even after the ring starts evicting —
  so the health report's totals are never truncated by the memory
  bound.  :attr:`EventBus.counts` folds them into ``"cat/kind" ->
  count``.

plus an optional list of extra sinks (callables) for tests and tools
that want live fan-out.  Emission order is the deterministic simulator
event order, so two runs of the same configuration produce identical
streams — the property the fastpath A/B tests assert.

Hot emitters resolve their stream once (:meth:`EventBus.stream`) and
emit on it (:meth:`EventBus.emit_on`), so an event costs no key
building.  A core's streams are also counted on its probe
(``repro.uarch.probe``), where spin fast-forward adds the counts of the
laps it skips.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.obs.events import BoundedEventLog, ObsEvent


class EventStream:
    """The exact emitted count of one ``(cat, kind, src)`` stream."""

    __slots__ = ("cat", "kind", "src", "count")

    def __init__(self, cat: str, kind: str, src: int) -> None:
        self.cat = cat
        self.kind = kind
        self.src = src
        self.count = 0

    def __repr__(self) -> str:
        return f"EventStream({self.cat}/{self.kind} src={self.src} count={self.count})"


class EventBus:
    """Ring sink + exact counters + optional live subscribers."""

    def __init__(self, capacity: int) -> None:
        self.ring: BoundedEventLog[ObsEvent] = BoundedEventLog(capacity)
        self.sinks: list[Callable[[ObsEvent], None]] = []
        self._streams: dict[tuple, EventStream] = {}

    def stream(self, cat: str, kind: str, src: int = -1) -> EventStream:
        """The counter of one stream, created on first use."""
        key = (cat, kind, src)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = EventStream(cat, kind, src)
        return stream

    def emit(
        self,
        cycle: int,
        cat: str,
        kind: str,
        src: int = -1,
        seq: int = -1,
        dur: int = 0,
        info: Optional[dict] = None,
    ) -> None:
        self.emit_on(self.stream(cat, kind, src), cycle, seq, dur, info)

    def emit_on(
        self,
        stream: EventStream,
        cycle: int,
        seq: int = -1,
        dur: int = 0,
        info: Optional[dict] = None,
    ) -> None:
        stream.count += 1
        event = ObsEvent(cycle, stream.cat, stream.kind, stream.src, seq, dur, info)
        self.ring.append(event)
        for sink in self.sinks:
            sink(event)

    @property
    def counts(self) -> dict[str, int]:
        """Exact emitted count per ``"cat/kind"`` stream, over all sources."""
        counts: dict[str, int] = {}
        for stream in self._streams.values():
            if stream.count:
                name = f"{stream.cat}/{stream.kind}"
                counts[name] = counts.get(name, 0) + stream.count
        return counts

    # ------------------------------------------------------------------
    # offline queries

    @property
    def dropped(self) -> int:
        return self.ring.dropped

    def events(self) -> list[ObsEvent]:
        """Retained events, oldest first."""
        return self.ring.snapshot()

    def of(self, cat: str, kind: Optional[str] = None) -> list[ObsEvent]:
        return [
            e
            for e in self.ring
            if e.cat == cat and (kind is None or e.kind == kind)
        ]

    def for_core(self, core_id: int) -> list[ObsEvent]:
        return [e for e in self.ring if e.src == core_id]

    def total(self, cat: Optional[str] = None) -> int:
        """Exact emitted count (not bounded by the ring capacity)."""
        return sum(
            s.count
            for s in self._streams.values()
            if cat is None or s.cat == cat
        )

    def stream_keys(self) -> list[tuple]:
        """Identity keys of the retained stream (for equivalence tests)."""
        return [e.key() for e in self.ring]

    def __len__(self) -> int:
        return len(self.ring)

    def __iter__(self) -> Iterator[ObsEvent]:
        return iter(self.ring)
