"""Chrome trace_event export + schema validation."""

import json

from repro.obs.bus import EventBus
from repro.obs.chrome import (
    CORES_PID,
    DIRECTORY_PID,
    chrome_trace,
    validate_trace,
    write_chrome_trace,
)


def small_bus() -> EventBus:
    bus = EventBus(capacity=64)
    bus.emit(10, "pipeline", "dispatch", 0, 1, info={"pc": 0})
    bus.emit(12, "aq", "lock", 0, 1, info={"line": 0x40})
    bus.emit(20, "aq", "unlock", 0, 1, dur=8, info={"line": 0x40})
    bus.emit(25, "coherence", "txn", -1, dur=15, info={"kind": "GetX", "line": 0x40, "requester": 1})
    bus.emit(30, "watchdog", "fire", 1, 7, info={"line": 0x40})
    return bus


class TestExport:
    def test_payload_validates_clean(self):
        payload = chrome_trace(small_bus(), num_cores=2)
        assert validate_trace(payload) == []

    def test_metadata_records_lead(self):
        payload = chrome_trace(small_bus(), num_cores=2)
        events = payload["traceEvents"]
        # process + 2 core threads + directory process/thread
        metas = [e for e in events if e["ph"] == "M"]
        assert events[: len(metas)] == metas
        names = {(e["name"], e["pid"], e["tid"]) for e in metas}
        assert ("process_name", CORES_PID, 0) in names
        assert ("thread_name", CORES_PID, 1) in names
        assert ("thread_name", DIRECTORY_PID, 0) in names

    def test_span_streams_become_X_with_start_ts(self):
        payload = chrome_trace(small_bus(), num_cores=2)
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in spans}
        unlock = by_name["aq:unlock"]
        assert unlock["ts"] == 20 - 8 and unlock["dur"] == 8
        assert unlock["pid"] == CORES_PID and unlock["tid"] == 0
        txn = by_name["coherence:txn"]
        assert txn["ts"] == 25 - 15 and txn["dur"] == 15
        assert txn["pid"] == DIRECTORY_PID  # src=-1 -> directory lane

    def test_parked_span_is_X_on_its_core_track(self):
        bus = small_bus()
        bus.emit(100, "spinff", "park", 1, info={"period": 12, "lines": [0x40]})
        bus.emit(
            148, "spinff", "unpark", 1, dur=48,
            info={"skipped": 48, "laps": 4, "wake_line": 0x40},
        )
        payload = chrome_trace(bus, num_cores=2)
        assert validate_trace(payload) == []
        (span,) = [e for e in payload["traceEvents"] if e["name"] == "spinff:unpark"]
        assert span["ph"] == "X"
        assert span["ts"] == 100 and span["dur"] == 48
        assert span["pid"] == CORES_PID and span["tid"] == 1
        assert span["args"]["laps"] == 4

    def test_instants_carry_scope_and_seq(self):
        payload = chrome_trace(small_bus(), num_cores=2)
        instants = {e["name"]: e for e in payload["traceEvents"] if e["ph"] == "i"}
        fire = instants["watchdog:fire"]
        assert fire["s"] == "t" and fire["ts"] == 30
        assert fire["args"]["seq"] == 7 and fire["args"]["line"] == 0x40

    def test_other_data_counts_and_health(self):
        bus = small_bus()
        payload = chrome_trace(bus, num_cores=2, health={"schema": 1})
        other = payload["otherData"]
        assert other["dropped_events"] == 0
        assert other["event_counts"]["aq/unlock"] == 1
        assert other["health"] == {"schema": 1}

    def test_write_round_trips(self, tmp_path):
        payload = chrome_trace(small_bus(), num_cores=2)
        path = write_chrome_trace(tmp_path / "deep" / "trace.json", payload)
        assert path.exists()
        assert json.loads(path.read_text()) == payload


class TestValidator:
    def test_rejects_non_object_payload(self):
        assert validate_trace([1, 2]) != []

    def test_rejects_missing_trace_events(self):
        assert validate_trace({"displayTimeUnit": "ms"}) == [
            "payload.traceEvents must be a list"
        ]

    def test_rejects_unknown_phase(self):
        errors = validate_trace({"traceEvents": [{"ph": "Z"}]})
        assert any("unknown phase" in e for e in errors)

    def test_rejects_span_without_dur(self):
        event = {"ph": "X", "name": "a", "cat": "c", "pid": 1, "tid": 0, "ts": 3}
        errors = validate_trace({"traceEvents": [event]})
        assert any("needs non-negative dur" in e for e in errors)

    def test_rejects_negative_ts(self):
        event = {
            "ph": "i", "name": "a", "cat": "c", "pid": 1, "tid": 0,
            "ts": -1, "s": "t",
        }
        errors = validate_trace({"traceEvents": [event]})
        assert any("non-negative" in e for e in errors)

    def test_rejects_bad_instant_scope(self):
        event = {
            "ph": "i", "name": "a", "cat": "c", "pid": 1, "tid": 0,
            "ts": 1, "s": "q",
        }
        errors = validate_trace({"traceEvents": [event]})
        assert any("scope" in e for e in errors)

    def test_rejects_unknown_metadata_record(self):
        event = {"ph": "M", "name": "bogus", "pid": 1, "tid": 0, "args": {}}
        errors = validate_trace({"traceEvents": [event]})
        assert any("metadata" in e for e in errors)

    def test_rejects_bad_display_unit(self):
        errors = validate_trace({"traceEvents": [], "displayTimeUnit": "s"})
        assert any("displayTimeUnit" in e for e in errors)
