"""The deadlock watchdog (section 3.2.5).

One cycle counter per core, reset whenever a load_lock performs (locks a
line) and whenever an atomic commits.  If the counter reaches the
threshold while some atomic still holds a cacheline lock, the watchdog
triggers a pipeline flush starting at the oldest lock-holding atomic.
The flush lifts every lock the core holds, letting deferred coherence
requests and stalled older memory operations progress — which breaks all
four deadlock classes (RMW-RMW, Store-RMW, Load-RMW, and inclusion).

The progress guarantee (paper 3.2.5) holds because the squash decision
always comes from within the lock-holding core, and the freed line is
handed to the deferred remote request before the squashed atomic can
re-acquire it (re-fetch takes many cycles; the deferred request is
replayed immediately at unlock).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.events import EventQueue
from repro.common.stats import StatsRegistry
from repro.core.atomic_queue import AtomicQueue, AtomicQueueEntry


class DeadlockWatchdog:
    """Per-core timeout that flushes the oldest lock-holding atomic."""

    def __init__(
        self,
        queue: EventQueue,
        aq: AtomicQueue,
        threshold: int,
        enabled: bool,
        on_flush: Callable[[AtomicQueueEntry], None],
        stats: StatsRegistry,
    ) -> None:
        self._queue = queue
        self._aq = aq
        self._threshold = threshold
        self._enabled = enabled
        self._on_flush = on_flush
        self._stats = stats
        self._last_activity = 0
        self._check_scheduled = False
        self._deadline_cycle = 0
        self._timeouts = 0
        #: The core's probe table (arm / fire), None unless observed.
        self.probe = None

    @property
    def armed(self) -> bool:
        """Whether a deadline check event is pending in the queue.

        An armed watchdog is a *real* queue entry (``post_at``), never
        removed early — so the global time-warp can advance at most to
        the deadline before the check runs.  Spin-parking a core whose
        watchdog is armed is still legal when its atomic queue is empty:
        the check then takes the "nothing locked" early return at the
        same absolute cycle whether or not the core is parked (see
        ``repro.uarch.spinff``).
        """
        return self._check_scheduled

    @property
    def deadline(self) -> Optional[int]:
        """The cycle the pending check fires at, or None when unarmed."""
        return self._deadline_cycle if self._check_scheduled else None

    @property
    def timeouts(self) -> int:
        """Timeouts fired by *this* watchdog instance.

        Deliberately instance-local: the previous implementation read
        the ``watchdog_timeouts`` counter back out of the stats
        registry, so any two watchdogs sharing a registry (scoped or
        not — e.g. a fresh ``System`` built over a reused registry, or
        standalone watchdogs in tests) aliased each other's counts and
        the property leaked state across runs.  The registry counter is
        still bumped for the run summary; this property no longer
        depends on it.
        """
        return self._timeouts

    def reset(self) -> None:
        """A load_lock performed or an atomic committed: restart the timer."""
        self._last_activity = self._queue.now
        self._ensure_check()

    def _ensure_check(self) -> None:
        if not self._enabled or self._check_scheduled:
            return
        if not self._aq.any_locked:
            return
        self._check_scheduled = True
        deadline = max(self._last_activity + self._threshold, self._queue.now)
        self._deadline_cycle = deadline
        self._queue.post_at(deadline, self._check)
        probe = self.probe
        if probe is not None and probe.arm is not None:
            probe.arm(self._last_activity + self._threshold)

    def _check(self) -> None:
        self._check_scheduled = False
        if not self._aq.any_locked:
            return
        if self._queue.now - self._last_activity < self._threshold:
            self._ensure_check()
            return
        oldest = self._aq.oldest_locked_entry()
        if oldest is None:  # pragma: no cover - any_locked implies an entry
            return
        self._timeouts += 1
        self._stats.bump("watchdog_timeouts")
        self._last_activity = self._queue.now
        probe = self.probe
        if probe is not None and probe.fire is not None:
            probe.fire(oldest)
        self._on_flush(oldest)
        self._ensure_check()
