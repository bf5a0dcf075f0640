"""Chrome ``trace_event`` export and schema validation.

``chrome_trace`` projects a recorded :class:`~repro.obs.bus.EventBus`
stream into the JSON Object Format of the Trace Event specification
(the format Perfetto and ``chrome://tracing`` open directly):

- instants (dispatch, commit, squash, watchdog arm/fire, forwarding,
  deferrals, evictions, audit findings) become phase-``"i"`` events;
- completed spans (AQ lock holds, directory transactions and recalls,
  parked spin fast-forward spans) become phase-``"X"`` events with a
  ``dur``;
- one simulated cycle maps to one microsecond of trace time, so cycle
  arithmetic survives the round trip exactly.

Cores are threads of one "cores" process; the directory is its own
process, so per-core swimlanes and the coherence lane render separately.

``validate_trace`` checks a payload against the subset of the spec the
exporter targets; CI runs it on a freshly traced litmus program (see
``scripts/check_trace.py``).
"""

from __future__ import annotations

import json
import pathlib
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.bus import EventBus

#: pid of the per-core threads / the directory pseudo-process.
CORES_PID = 1
DIRECTORY_PID = 2

#: Event phases the exporter emits (and the validator accepts).
KNOWN_PHASES = ("X", "i", "M", "B", "E", "C")

#: Metadata record names from the trace_event spec.
METADATA_NAMES = ("process_name", "thread_name", "process_sort_index", "thread_sort_index")

#: Streams rendered as spans (everything else is an instant).
_SPAN_STREAMS = {
    ("aq", "unlock"),
    ("coherence", "txn"),
    ("coherence", "recall"),
    ("spinff", "unpark"),
}


def _meta(name: str, pid: int, tid: int, value) -> dict:
    return {"name": name, "ph": "M", "pid": pid, "tid": tid, "args": {"name": value}}


def chrome_trace(bus: "EventBus", num_cores: int, health: Optional[dict] = None) -> dict:
    """Build the Chrome trace payload for a recorded bus."""
    events: list[dict] = [_meta("process_name", CORES_PID, 0, "cores")]
    for core in range(num_cores):
        events.append(_meta("thread_name", CORES_PID, core, f"core {core}"))
    events.append(_meta("process_name", DIRECTORY_PID, 0, "memory system"))
    events.append(_meta("thread_name", DIRECTORY_PID, 0, "directory"))

    for event in bus:
        pid = DIRECTORY_PID if event.src < 0 else CORES_PID
        tid = 0 if event.src < 0 else event.src
        args = dict(event.info) if event.info else {}
        if event.seq >= 0:
            args.setdefault("seq", event.seq)
        row: dict = {
            "name": f"{event.cat}:{event.kind}",
            "cat": event.cat,
            "pid": pid,
            "tid": tid,
            "args": args,
        }
        if (event.cat, event.kind) in _SPAN_STREAMS and event.dur > 0:
            # The event is recorded at span end; Chrome wants the start.
            row["ph"] = "X"
            row["ts"] = event.cycle - event.dur
            row["dur"] = event.dur
        else:
            row["ph"] = "i"
            row["ts"] = event.cycle
            row["s"] = "t"
        events.append(row)

    payload: dict = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "dropped_events": bus.dropped,
            "event_counts": dict(sorted(bus.counts.items())),
        },
    }
    if health is not None:
        payload["otherData"]["health"] = health
    return payload


def write_chrome_trace(path, payload: dict) -> pathlib.Path:
    """Serialize ``payload`` to ``path``; returns the resolved path."""
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return out


def validate_trace(payload) -> list[str]:
    """Validate a Chrome-trace payload; returns error strings (empty = valid)."""
    errors: list[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be a JSON object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["payload.traceEvents must be a list"]
    unit = payload.get("displayTimeUnit")
    if unit is not None and unit not in ("ms", "ns"):
        errors.append(f"displayTimeUnit must be 'ms' or 'ns', got {unit!r}")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in KNOWN_PHASES:
            errors.append(f"{where}: unknown phase {phase!r}")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing or empty name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                errors.append(f"{where}: {key} must be an integer")
        if phase == "M":
            if name not in METADATA_NAMES:
                errors.append(f"{where}: unknown metadata record {name!r}")
            if not isinstance(event.get("args"), dict):
                errors.append(f"{where}: metadata requires an args object")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: ts must be a non-negative number")
        if not isinstance(event.get("cat"), str):
            errors.append(f"{where}: cat must be a string")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: X event needs non-negative dur")
        if phase == "i" and event.get("s") not in (None, "t", "p", "g"):
            errors.append(f"{where}: instant scope must be t/p/g")
    return errors
