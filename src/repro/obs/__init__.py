"""Unified observability: structured tracing, health metrics, auditing.

The package generalises the per-core :class:`~repro.system.trace.PipelineTracer`
into a system-wide event layer:

- :mod:`repro.obs.events` — the :class:`ObsEvent` record and the
  :class:`BoundedEventLog` capped ring buffer every sink is built on;
- :mod:`repro.obs.bus` — the :class:`EventBus` fan-out point (ring sink
  plus per-stream counters, extensible with custom sinks);
- :mod:`repro.obs.config` — :class:`ObsConfig`, selecting event
  categories, ring capacity and the invariant-audit cadence;
- :mod:`repro.obs.attach` — :class:`Observability`, which listens on a
  :class:`~repro.system.simulator.System`'s probe points
  (:mod:`repro.uarch.probe`, as the tracer does), schedules online
  ``verify_system`` audits, and builds the end-of-run health report;
- :mod:`repro.obs.chrome` — Chrome ``trace_event`` JSON export
  (openable in Perfetto / ``chrome://tracing``) and a schema validator;
- :mod:`repro.obs.health` — the run-health report builder.

Overhead contract: with no :class:`Observability` (or tracer) attached
every probe slot is ``None`` and the simulator runs no observability
code.  What it always pays is one ``None`` check per probe point it
passes: per fetch and commit window for dispatch and commit, and per
perform, store perform, forward, squash, AQ lock change, watchdog arm
or fire, L2 eviction, deferral and directory transaction otherwise.
No tool replaces a simulator method, so observation never changes
which code is simulated.
"""

from repro.obs.attach import Observability
from repro.obs.bus import EventBus
from repro.obs.chrome import chrome_trace, validate_trace, write_chrome_trace
from repro.obs.config import ObsConfig
from repro.obs.events import BoundedEventLog, ObsEvent

__all__ = [
    "BoundedEventLog",
    "EventBus",
    "ObsConfig",
    "ObsEvent",
    "Observability",
    "chrome_trace",
    "validate_trace",
    "write_chrome_trace",
]
