"""End-of-run health report.

``build_health`` condenses one observed run into a small, JSON-stable
dict that travels on ``ResultSummary.meta["health"]``: watchdog
timeouts (total and per core), squash causes, lock hold-time and
forwarding-chain-length distributions, exact per-stream event counts,
and the online-audit record.  Everything is derived from deterministic
simulator state, so the report itself is deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.bus import EventBus
    from repro.system.simulator import System

#: Bump when the report layout changes (consumers key off this).
HEALTH_SCHEMA = 1

#: The squash-cause counters the core maintains.
SQUASH_CAUSES = ("branch", "mem_dep", "mem_order", "watchdog")


def pow2_histogram(values: Sequence[int]) -> list[list[int]]:
    """``[[upper_bound, count], ...]`` with power-of-two bucket bounds.

    Bucket ``b`` counts values ``v`` with ``prev_bound < v <= b``; the
    first bucket bound is 1 (so zeros and ones land there).  Sorted by
    bound, deterministic for any input order.
    """
    buckets: dict[int, int] = {}
    for value in values:
        bound = 1
        while bound < value:
            bound <<= 1
        buckets[bound] = buckets.get(bound, 0) + 1
    return [[bound, buckets[bound]] for bound in sorted(buckets)]


def _distribution(values: Sequence[int]) -> dict:
    if not values:
        return {"count": 0}
    return {
        "count": len(values),
        "min": min(values),
        "max": max(values),
        "mean": round(sum(values) / len(values), 3),
        "histogram": pow2_histogram(values),
    }


def build_health(
    bus: "EventBus",
    system: "System",
    *,
    lock_holds: Sequence[int],
    chain_depths: Sequence[int],
    watchdog_fires: int,
    audits_run: int,
    violations: Sequence[str],
    final_violations: Optional[Sequence[str]] = None,
) -> dict:
    """Assemble the run-health report (see module docstring)."""
    stats = system.stats
    per_core_timeouts = [
        stats.get(f"core{core.core_id}.watchdog_timeouts")
        for core in system.cores
    ]
    squash_causes = {
        cause: stats.aggregate(f"squash.{cause}") for cause in SQUASH_CAUSES
    }
    return {
        "schema": HEALTH_SCHEMA,
        "events": {
            "counts": dict(sorted(bus.counts.items())),
            "retained": len(bus),
            "dropped": bus.dropped,
        },
        "watchdog": {
            "timeouts": sum(per_core_timeouts),
            "per_core": per_core_timeouts,
            "fires_observed": watchdog_fires,
        },
        "squashes": {
            "total": stats.aggregate("squashes"),
            "causes": squash_causes,
        },
        "lock_hold_cycles": _distribution(list(lock_holds)),
        "forward_chain_depth": _distribution(list(chain_depths)),
        # How the run was simulated, not what it computed: all zeros
        # whenever the fast-forward engine was off (REPRO_NO_SPINFF).  Observation leaves the engine on, and
        # skipping changes no other section of this report except the
        # ring's retained/dropped figures (a parked span's events are
        # counted, not retained) and the spinff/* counts.
        "fastforward": {
            "parks": sum(core.ff_parks for core in system.cores),
            "spin_cycles_skipped": sum(
                core.spin_cycles_skipped for core in system.cores
            ),
            "time_warp_jumps": system.queue.warp_jumps,
        },
        "audits": {
            "runs": audits_run,
            "violations": list(violations),
            "final_violations": list(final_violations or ()),
        },
    }
