"""Observability configuration.

One frozen dataclass selects which event categories are instrumented,
how large the ring sink is, and how often (if at all) the online
invariant auditor samples ``verify_system`` during ``System.run``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.obs.events import DEFAULT_CAPACITY


@dataclass(frozen=True)
class ObsConfig:
    """What to observe, and at what cost.

    ``audit_interval_cycles`` = 0 disables online auditing; a positive
    value samples the full invariant suite every that-many cycles while
    the run is live (the auditor re-arms only while other events are
    pending, so it can never mask a deadlock by keeping the queue
    non-empty).  ``audit_strict`` applies the strict directory-agreement
    path — sound mid-run, because the directory records holders before
    granting and unrecords them only on acknowledgements.
    """

    capacity: int = DEFAULT_CAPACITY
    pipeline: bool = True
    aq: bool = True
    watchdog: bool = True
    forwarding: bool = True
    coherence: bool = True
    replacement: bool = True
    #: Spin fast-forward park/unpark events.  Observation never switches
    #: the engine off; see ``Observability._attach_spinff``.
    spinff: bool = True
    #: Online ``verify_system`` sampling cadence; 0 = off.
    audit_interval_cycles: int = 0
    audit_strict: bool = True
    #: Retain at most this many violation messages in the health report.
    audit_max_violations: int = 25

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigError(
                f"obs capacity must be >= 1, got {self.capacity}"
            )
        if self.audit_interval_cycles < 0:
            raise ConfigError(
                "audit_interval_cycles must be >= 0, got "
                f"{self.audit_interval_cycles}"
            )
        if self.audit_max_violations < 1:
            raise ConfigError(
                "audit_max_violations must be >= 1, got "
                f"{self.audit_max_violations}"
            )
