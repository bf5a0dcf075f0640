"""System-level observability tests.

The load-bearing properties:

- attaching an observer never changes simulation outcomes (cycles,
  stats, and the canonical summary modulo ``meta["health"]``);
- the instrumentation fires identically with the hierarchy fast paths
  disabled (``REPRO_NO_FASTPATH=1``) — identical event streams and
  byte-identical summaries on squash-heavy contended runs;
- online invariant audits run clean on healthy systems and never keep
  the event queue alive (deadlock detection stays intact);
- the ring bound caps memory while the per-stream counters stay exact.
"""

import json

import pytest

from repro.common.config import icelake_config
from repro.common.errors import DeadlockError, SimulationError
from repro.core.policy import FREE_ATOMICS, FREE_ATOMICS_FWD
from repro.obs import ObsConfig, Observability
from repro.obs.config import ConfigError
from repro.obs.health import HEALTH_SCHEMA, pow2_histogram
from repro.system.simulator import System, run_workload
from repro.system.trace import PipelineTracer
from repro.uarch.probe import probe_of
from repro.workloads.generator import WorkloadScale, generate_workload
from tests.conftest import counter_workload, small_system_config
from tests.integration.test_deadlocks import rmw_rmw_workload


def contended_config(threads=3, watchdog_cycles=80):
    """Small system under heavy lock contention: watchdog squashes arise."""
    return small_system_config(threads, watchdog_cycles=watchdog_cycles)


def observed_run(workload, config, obs_config=None, policy=FREE_ATOMICS_FWD):
    obs = Observability(obs_config or ObsConfig())
    result = run_workload(
        workload, policy=policy, config=config, observability=obs
    )
    return obs, result


class TestNonPerturbation:
    def test_summary_identical_modulo_health(self):
        workload = counter_workload(3, 20)
        config = contended_config()
        plain = run_workload(workload, policy=FREE_ATOMICS_FWD, config=config)
        obs, observed = observed_run(workload, config)
        assert observed.cycles == plain.cycles
        assert observed.stats.counters() == plain.stats.counters()
        assert observed.cores == plain.cores
        with_health = observed.summary().to_json_dict()
        health = with_health["meta"].pop("health")
        assert health["schema"] == HEALTH_SCHEMA
        assert json.dumps(with_health, sort_keys=True) == json.dumps(
            plain.summary().to_json_dict(), sort_keys=True
        )

    def test_unobserved_summary_carries_no_health(self):
        result = run_workload(
            counter_workload(2, 5), config=small_system_config(2)
        )
        assert result.health is None
        assert "health" not in result.summary().meta

    def test_explicit_meta_health_not_clobbered(self):
        workload = counter_workload(2, 5)
        obs, result = observed_run(workload, small_system_config(2))
        summary = result.summary(meta={"health": "mine"})
        assert summary.meta["health"] == "mine"


class TestFastpathEquivalence:
    def canonical_and_keys(self, monkeypatch, fastpath, workload, config, policy):
        if fastpath:
            monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
        else:
            monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        obs, result = observed_run(workload, config, policy=policy)
        return result.summary().canonical_json(), obs.event_keys(), obs

    def test_contended_counter_identical(self, monkeypatch):
        runs = [
            self.canonical_and_keys(
                monkeypatch,
                fast,
                counter_workload(3, 20),
                contended_config(),
                FREE_ATOMICS_FWD,
            )
            for fast in (True, False)
        ]
        assert runs[0][2].health["squashes"]["total"] > 0
        assert runs[0][1] == runs[1][1]
        assert runs[0][0] == runs[1][0]

    def test_watchdog_squash_heavy_run_identical(self, monkeypatch):
        # The RMW-RMW cross-lock pattern forces watchdog fires, so the
        # A/B equivalence covers the watchdog arm/fire/squash stream and
        # the squash-cause attribution, not just the happy path.
        workload, _ = rmw_rmw_workload(iterations=10)
        config = small_system_config(2, watchdog_cycles=400)
        runs = [
            self.canonical_and_keys(
                monkeypatch, fast, workload, config, FREE_ATOMICS
            )
            for fast in (True, False)
        ]
        health = runs[0][2].health
        assert health["watchdog"]["timeouts"] > 0
        assert health["squashes"]["causes"]["watchdog"] > 0
        assert runs[0][1] == runs[1][1]
        assert runs[0][0] == runs[1][0]

    def test_event_stream_covers_all_categories(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
        obs, _ = observed_run(counter_workload(3, 20), contended_config())
        cats = {event.cat for event in obs.bus}
        assert {"pipeline", "aq", "watchdog", "forward", "coherence"} <= cats


class TestOnlineAudits:
    def test_audits_run_clean_on_healthy_system(self):
        obs, result = observed_run(
            counter_workload(3, 20),
            contended_config(),
            ObsConfig(audit_interval_cycles=25),
        )
        assert obs.audits_run > 0
        assert obs.violations == []
        assert obs.final_violations == []
        audits = result.health["audits"]
        assert audits["runs"] == obs.audits_run
        assert audits["violations"] == []

    def test_audits_do_not_perturb_outcome(self):
        workload = counter_workload(3, 20)
        config = contended_config()
        plain = run_workload(workload, policy=FREE_ATOMICS_FWD, config=config)
        obs, audited = observed_run(
            workload, config, ObsConfig(audit_interval_cycles=25)
        )
        assert audited.cycles == plain.cycles
        assert audited.stats.counters() == plain.stats.counters()

    def test_deadlock_detection_survives_audit_rearm(self):
        # A hard RMW-RMW deadlock with the watchdog disabled must still
        # be diagnosed as "queue empty with unfinished threads": the
        # periodic audit event must not keep the queue alive forever.
        workload, _ = rmw_rmw_workload(iterations=50)
        config = small_system_config(2, watchdog_enabled=False)
        obs = Observability(ObsConfig(audit_interval_cycles=50))
        with pytest.raises(DeadlockError, match="unfinished"):
            run_workload(
                workload, policy=FREE_ATOMICS, config=config, observability=obs
            )
        assert obs.audits_run > 0  # it really was auditing along the way

    def test_audit_disabled_by_default(self):
        obs, _ = observed_run(counter_workload(2, 5), small_system_config(2))
        assert obs.audits_run == 0


class TestHealthReport:
    def test_contents(self):
        obs, result = observed_run(counter_workload(3, 20), contended_config())
        health = result.health
        assert health["schema"] == HEALTH_SCHEMA
        events = health["events"]
        assert events["retained"] + 0 <= sum(events["counts"].values())
        assert events["retained"] == len(obs.bus)
        assert events["dropped"] == obs.bus.dropped
        watchdog = health["watchdog"]
        assert watchdog["timeouts"] == result.timeouts
        assert watchdog["fires_observed"] == watchdog["timeouts"]
        assert sum(watchdog["per_core"]) == watchdog["timeouts"]
        causes = health["squashes"]["causes"]
        assert set(causes) == {"branch", "mem_dep", "mem_order", "watchdog"}
        assert health["squashes"]["total"] == result.squashes
        holds = health["lock_hold_cycles"]
        assert holds["count"] == len(obs.lock_holds) > 0
        assert holds["min"] <= holds["mean"] <= holds["max"]
        assert health["forward_chain_depth"]["count"] == len(obs.chain_depths)

    def test_user_fire_listener_and_observer_both_see_each_fire(self):
        # A listener a user adds on an observed system chains with the
        # observer's; neither silences the other (an overwritten
        # watchdog hook used to zero ``fires_observed``).
        workload, _ = rmw_rmw_workload(iterations=10)
        obs = Observability()
        system = System(
            workload,
            policy=FREE_ATOMICS,
            config=small_system_config(2, watchdog_cycles=400),
            observability=obs,
        )
        seen = []
        for core in system.cores:
            probe_of(core).listen(fire=lambda entry, c=core.core_id: seen.append(c))
        result = system.run()
        watchdog = result.health["watchdog"]
        assert watchdog["timeouts"] == result.timeouts > 0
        assert len(seen) == watchdog["fires_observed"] == result.timeouts
        assert obs.bus.counts["watchdog/fire"] == result.timeouts
        assert [seen.count(c) for c in (0, 1)] == watchdog["per_core"]

    def test_health_is_json_stable(self):
        runs = [
            observed_run(counter_workload(3, 20), contended_config())[1]
            for _ in range(2)
        ]
        assert json.dumps(runs[0].health, sort_keys=True) == json.dumps(
            runs[1].health, sort_keys=True
        )

    def test_pow2_histogram_buckets(self):
        assert pow2_histogram([]) == []
        assert pow2_histogram([0, 1, 1]) == [[1, 3]]
        assert pow2_histogram([2, 3, 4, 5]) == [[2, 1], [4, 2], [8, 1]]


class TestBoundsAndLifecycle:
    def test_ring_bound_respected_counts_exact(self):
        obs, _ = observed_run(
            counter_workload(3, 20),
            contended_config(),
            ObsConfig(capacity=64),
        )
        assert len(obs.bus) == 64
        assert obs.bus.dropped > 0
        assert obs.bus.total() == 64 + obs.bus.dropped
        assert obs.bus.total() == sum(obs.bus.counts.values())

    def test_observability_is_single_use(self):
        obs = Observability()
        workload = counter_workload(2, 2)
        System(workload, config=small_system_config(2), observability=obs)
        with pytest.raises(SimulationError, match="single-use"):
            System(workload, config=small_system_config(2), observability=obs)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ObsConfig(capacity=0)
        with pytest.raises(ConfigError):
            ObsConfig(audit_interval_cycles=-1)
        with pytest.raises(ConfigError):
            ObsConfig(audit_max_violations=0)

    def test_category_gating(self):
        obs, _ = observed_run(
            counter_workload(2, 10),
            small_system_config(2),
            ObsConfig(pipeline=False, forwarding=False),
        )
        cats = {event.cat for event in obs.bus}
        assert "pipeline" not in cats and "forward" not in cats
        assert "aq" in cats

    def test_live_sink_fanout(self):
        seen = []
        obs = Observability()
        obs.bus.sinks.append(lambda event: seen.append(event.cat))
        run_workload(
            counter_workload(2, 3),
            config=small_system_config(2),
            observability=obs,
        )
        assert len(seen) == obs.bus.total()


class TestObservedFastForward:
    """Observation keeps spin fast-forward on, and stays exact with it."""

    @staticmethod
    def paper_width_health(monkeypatch, spinff: bool) -> dict:
        monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
        if spinff:
            monkeypatch.delenv("REPRO_NO_SPINFF", raising=False)
        else:
            monkeypatch.setenv("REPRO_NO_SPINFF", "1")
        workload = generate_workload(
            "canneal",
            WorkloadScale(num_threads=32, instructions_per_thread=100, seed=0),
        )
        _, result = observed_run(workload, icelake_config(num_cores=32))
        return result.health

    def test_lap_resynthesis_is_exact(self, monkeypatch):
        parked = self.paper_width_health(monkeypatch, spinff=True)
        live = self.paper_width_health(monkeypatch, spinff=False)
        assert parked["fastforward"]["parks"] > 0, "never parked: dead test"
        assert live["fastforward"]["parks"] == 0

        def counts(health):
            return {
                stream: n
                for stream, n in health["events"]["counts"].items()
                if not stream.startswith("spinff/")
            }

        assert counts(parked) == counts(live)
        assert parked["events"]["counts"]["spinff/unpark"] == (
            parked["fastforward"]["parks"]
        )
        assert parked["lock_hold_cycles"] == live["lock_hold_cycles"]
        assert parked["forward_chain_depth"] == live["forward_chain_depth"]

    def test_tracer_and_observer_share_the_probe(self):
        obs = Observability()
        system = System(
            counter_workload(3, 20),
            policy=FREE_ATOMICS_FWD,
            config=contended_config(),
            observability=obs,
        )
        tracer = PipelineTracer()
        for core in system.cores:
            tracer.attach(core)
        result = system.run()
        assert tracer.dropped == 0 and obs.bus.dropped == 0
        for kind, counter in (("dispatch", "dispatched"), ("commit", "committed")):
            expected = result.stats.aggregate(counter)
            assert expected > 0
            traced = {(e.core, e.seq) for e in tracer.of_kind(kind)}
            observed = {(e.src, e.seq) for e in obs.bus.of("pipeline", kind)}
            assert len(tracer.of_kind(kind)) == expected
            assert obs.bus.counts[f"pipeline/{kind}"] == expected
            assert traced == observed
