"""Golden summaries for the inputs of the old fast/slow A/B suites.

The simulator once had two legs: the batched, indexed one that runs
today, and an object-at-a-time reference behind an environment switch.
These inputs ran on both and had to agree byte for byte: randomized
workloads on a zero-latency L1 and on the default preset, every atomic
policy, the litmus suite with its committed traces, observed runs with
their full event streams, and 8-thread runs.  The reference leg is
gone.  Each digest below was recorded from a pair of runs that agreed,
so each test now holds the one leg to the result both legs produced.
The semantic oracles back these goldens up: the TSO checker
(``tests/properties``), ``verify_system`` with its LSQ index audits,
and the ``REPRO_NO_SPINFF`` identity of spin fast-forward
(``tests/system/test_spinff_equivalence.py``).

A failing digest prints the new value.  A deliberate timing change
(such as a fix for the TSO counterexample pinned in
``tests/properties/test_tso_admissibility.py``) re-records the digests
and says so, as ``tests/obs/test_golden_streams.py`` does.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.common.config import CacheConfig, icelake_config
from repro.consistency.litmus import LITMUS_TESTS
from repro.core.policy import ALL_POLICIES, FREE_ATOMICS_FWD
from repro.obs.attach import Observability
from repro.system.simulator import run_workload
from repro.system.trace import operations_to_jsonable
from repro.workloads.generator import WorkloadScale, generate_workload
from tests.conftest import counter_workload, small_system_config


def zero_hit_config(num_cores: int):
    """Small system whose L1D hits complete in zero cycles."""
    config = small_system_config(num_cores)
    memory = dataclasses.replace(
        config.memory,
        l1d=CacheConfig("L1D", 4 * 4 * 64, 4, 0, 0),
    )
    return config.replace(memory=memory)


def summary_json(workload, policy, config) -> str:
    return run_workload(workload, policy=policy, config=config).summary(
    ).canonical_json()


def litmus_material(test, policy) -> tuple:
    """Observed values, committed traces and summary of one litmus run."""
    pads = [0, 3] + [0] * max(0, test.num_threads - 2)
    result = run_workload(
        test.build(pads),
        policy=policy,
        config=icelake_config(num_cores=test.num_threads),
        trace=True,
    )
    observations = {
        label: result.read_word(addr)
        for label, addr in test.observations.items()
    }
    return (
        observations,
        operations_to_jsonable(result.traces),
        result.summary().canonical_json(),
    )


def observed_material(workload, policy, config) -> tuple:
    """Event stream, per-stream counts and summary of an observed run."""
    obs = Observability()
    result = run_workload(
        workload, policy=policy, config=config, observability=obs
    )
    events = [
        (e.cycle, e.cat, e.kind, e.src, e.seq, e.dur, e.info)
        for e in obs.bus.ring
    ]
    return events, dict(obs.bus.counts), result.summary().canonical_json()


def assert_golden(key: str, material) -> None:
    digest = hashlib.sha256(repr(material).encode()).hexdigest()
    assert digest == GOLDEN[key], f"{key}: digest is now {digest}"


@pytest.mark.parametrize("seed", [1, 7, 99])
@pytest.mark.parametrize("bench_name", ["AS", "canneal"])
def test_randomized_workloads_identical_with_zero_latency_l1(bench_name, seed):
    scale = WorkloadScale(num_threads=2, instructions_per_thread=300, seed=seed)
    workload = generate_workload(bench_name, scale)
    assert_golden(
        f"zero_l1/{bench_name}/{seed}",
        summary_json(workload, FREE_ATOMICS_FWD, zero_hit_config(2)),
    )


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
def test_contended_counter_identical_across_policies(policy):
    assert_golden(
        f"counter/{policy.name}",
        summary_json(counter_workload(3, 20), policy, zero_hit_config(3)),
    )


def test_default_preset_identical():
    scale = WorkloadScale(num_threads=2, instructions_per_thread=300, seed=5)
    workload = generate_workload("watersp", scale)
    assert_golden(
        "default_preset",
        summary_json(workload, FREE_ATOMICS_FWD, small_system_config(2)),
    )


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
@pytest.mark.parametrize("seed", [3, 11])
def test_randomized_workloads_identical_all_policies(policy, seed):
    scale = WorkloadScale(num_threads=2, instructions_per_thread=250, seed=seed)
    workload = generate_workload("AS", scale)
    assert_golden(
        f"all_policies/{seed}/{policy.name}",
        summary_json(workload, policy, zero_hit_config(2)),
    )


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_litmus_suite_identical_traces(name, policy):
    """The committed traces pin the exact interleaving the consistency
    checker sees, not just the aggregate stats."""
    test = LITMUS_TESTS[name]
    material = litmus_material(test, policy)
    assert not test.forbidden(material[0])
    assert_golden(f"litmus/{name}/{policy.name}", material)


@pytest.mark.parametrize("bench_name", ["AS", "watersp"])
def test_obs_attached_event_streams_identical(bench_name):
    """The full structured event stream, the exact per-stream counts and
    the summary, ``meta['health']`` included."""
    scale = WorkloadScale(num_threads=2, instructions_per_thread=300, seed=9)
    workload = generate_workload(bench_name, scale)
    material = observed_material(workload, FREE_ATOMICS_FWD, zero_hit_config(2))
    assert "health" in json.loads(material[2])["meta"]
    assert_golden(f"observed/{bench_name}", material)


@pytest.mark.parametrize("bench_name,seed", [("AS", 13), ("watersp", 21)])
def test_randomized_8_thread_workloads_identical(bench_name, seed):
    """More cores than any other golden: directory traffic, lock convoys
    and idle-core quiescing reach orderings 2 threads cannot."""
    scale = WorkloadScale(num_threads=8, instructions_per_thread=200, seed=seed)
    workload = generate_workload(bench_name, scale)
    assert_golden(
        f"threads8/{bench_name}/{seed}",
        summary_json(workload, FREE_ATOMICS_FWD, zero_hit_config(8)),
    )


#: sha256 of ``repr`` of each input's material, recorded where both legs agreed.
GOLDEN: dict[str, str] = {
    "zero_l1/AS/1": "b65d31295c52ab51d2eeac56fa5cbc0d082565731edc252826831d6567a9c17c",
    "zero_l1/AS/7": "95f2eda41cbe412d0905e77a4b281bc79780d57230f8289cc20ee8310c8dea1f",
    "zero_l1/AS/99": "04720ca96391339227b2d435f697e7feb9af3d8625550019b56e5d4064d8d548",
    "zero_l1/canneal/1": "8fbacddfe57ae0b9dbfddf0b8cbc1e7003efc8e06b592e34e35a8fad4d550755",
    "zero_l1/canneal/7": "8300377f7b5e71a248bc4ff3c65095079e34438844261823437aa372d3a02336",
    "zero_l1/canneal/99": "e85c1555b0bf9431a1e9cfce6e756479bd1a298e6a8662ee250cf561efacc4a7",
    "counter/baseline": "e95ed118dbd260a386ff000d15d737f12346d262bd30389472665cb7cd4e62b0",
    "counter/baseline+spec": "f299d6634552b23ff0b899ee523df3c9c225da34fc6ed112a39d418e7893a1a4",
    "counter/free": "1de95e142e6a91ee34cd94dcc05f096219fa96b9026d0c9758bc5364944e1906",
    "counter/free+fwd": "ed7fa650dc1a90d7215b95860fda63c486382a168eb6d43491612398aa057106",
    "counter/versioned": "7eab40c1d3ccceca2c14d3e0f87bad54357baa56860d7f479c81e210e528b1d5",
    "default_preset": "a8eb78bca95c0741b5a0269d3118072d04ee70590bbfe6afb6a32ffc4f5fade8",
    "all_policies/3/baseline": "43a88b25cc0944985a7229ee38b7d938f7ae7cf75c127ae7d5ea4849de4cb914",
    "all_policies/3/baseline+spec": "c00499e18e70f624edf9cdbb2da41ae772c4ce759b5a545f3844e00b1b3396cc",
    "all_policies/3/free": "0a50f998b2bd067c4a9d62d38035e4e47efe9db4851dd112cf9fe617944c88ca",
    "all_policies/3/free+fwd": "7f3125969aff41caeb53ee436cda221a1f10a0c7ae05c5bb8931f676ebf25f2d",
    "all_policies/3/versioned": "5f7a82699be05fd8cad53cbd9ce180867b346ca6025a9ec9fb4728ed7861ee39",
    "all_policies/11/baseline": "a2c960bdb2a34ec8a826db42563b4a9f752433a9cc1e8f83514aeeafdfccbb86",
    "all_policies/11/baseline+spec": "6015bc7b3fbc43bdcae0c5b7621b98f6bfaea95e90aa59c2e26eb9f8778997cb",
    "all_policies/11/free": "69ad2720f7775c4e9a06ab4ddaeffb0c3d193078ab725982f204f4f6ea3f4ba2",
    "all_policies/11/free+fwd": "f79fe285492c1d5ff3f07c2f5b7fd93c9fafa4a3f98a22fce47f81842af132a4",
    "all_policies/11/versioned": "f29dc5416348a61c3867e13c4f8d56ce6bc3a12f2dc9c5df108639210e3e6c59",
    "litmus/atomic_increment/baseline": "3309fb6a5ae8058f0c8a9a16e046fd0220affb8bea9d2d505430298a7ac5a69f",
    "litmus/atomic_increment/baseline+spec": "8cfe3a9f03a1856c65981815b8d16ca04f1b1fa8110e55c5d956fb4b0639aee1",
    "litmus/atomic_increment/free": "f738d9d4e8037d35b44fd043102b55e7909dd924cebbedea7400894a45c740b7",
    "litmus/atomic_increment/free+fwd": "1e51371c0c632caa28304e5ead3b273ef94576895466aad1572adf854ac6dc68",
    "litmus/atomic_increment/versioned": "18bcdc1c7ccba4e4195f7a6b39f3bd007ec54555026cad33d10e99cdecb8ca2b",
    "litmus/coherence_rr/baseline": "adac9b2f368269e4a4e587a2d937a4d08307235df526c97c3bf8bfbcf5530daa",
    "litmus/coherence_rr/baseline+spec": "2e46105fbca0ae67822c78ee64e6d36b4ca037e99f951bc2c16b52a141e35893",
    "litmus/coherence_rr/free": "d2f3eaf68ba900b3ab605a484cbc51a97f9a43768da50d33a46d436e3fd1e753",
    "litmus/coherence_rr/free+fwd": "497c9c57b29677fa2f3e03dc174cf3a3a725f4733e28041324348e4bb397abf6",
    "litmus/coherence_rr/versioned": "510b9cbb2fe03489310d98872c6bdbba28cec63dde582fb9ff36788b4ff71c07",
    "litmus/dekker_atomics/baseline": "9eebbde0d7f2e9be8e6e3998d99d098d080f2c91fcd23d98313d3ae611beaac3",
    "litmus/dekker_atomics/baseline+spec": "f2dbf7e3628b1159375e1698422fe5d5cecbfbb2095d259c1d38641f2175c149",
    "litmus/dekker_atomics/free": "86881714217cfc54ee5c61beec41091eb4b866db8d5853fd28b6e857428e9391",
    "litmus/dekker_atomics/free+fwd": "d41f1d58aca2b50f6eeb52571d340af91e272c4ca109017d92fc03e0ff1ce973",
    "litmus/dekker_atomics/versioned": "8e33a0b3982fe0e5bd303321548b8d7974c04f37e557a088c8156ff5572bd568",
    "litmus/message_passing/baseline": "b56eee1ce3c12e91760d7d08362390799654e8eea0a7a88a91ba21f9ac7d613c",
    "litmus/message_passing/baseline+spec": "8be07f81850a8467b2471fda185814eae23ff029cdbae162f12a099390ab550f",
    "litmus/message_passing/free": "5fb98d8c17ca17aba392d0e0db3a8fd56bbe8a5eb30ec4f6641c252c9e05ae6b",
    "litmus/message_passing/free+fwd": "95480db38498e47e0c8cdfc8f0ca6c4a9211a87d24054a1e9b2a43f3f38a79a7",
    "litmus/message_passing/versioned": "5fc25dd5792b89c276f15edeef8649369038dbfdfec31a6371ac6aa35080765d",
    "litmus/store_buffering/baseline": "8240da2a5dee813840141043efca232247ef4d8fd97f3964d8ed1225a2fc3717",
    "litmus/store_buffering/baseline+spec": "6ef60285fe2c3ddcd03e593eae95b359993c908b56a8f1bb70d3f5c42bc397b1",
    "litmus/store_buffering/free": "ec5c22d1ec3f1d19288f6eebc75c6cc75df174802a0aec133b995d94c1ba93e2",
    "litmus/store_buffering/free+fwd": "c049619bcd2b8b308d026474f21e64afdc3ce5a9d64a1f71d89bfd2ca4f558a0",
    "litmus/store_buffering/versioned": "aeeae30bb97d291e9233e4e84f9522636fe1df94a3f392ba41e41c998713e953",
    "litmus/store_buffering_fenced/baseline": "d93e3c745339ce0a4c83968d40dbf252e2354ec1058e77fc7f617a60c02a9fe9",
    "litmus/store_buffering_fenced/baseline+spec": "b83c4be87581391ec505647959d4b87a610cf01fca0d426abca4907443a8c345",
    "litmus/store_buffering_fenced/free": "cd9f0bfe06e980663a532cf2f2e47fc1479191d3c78adeb3947e8b6adc57b286",
    "litmus/store_buffering_fenced/free+fwd": "31f02e9b095477afc883eebc83ac3a91ebff9367648610813a1dcea5c7532791",
    "litmus/store_buffering_fenced/versioned": "c224c8a4fc485c8e69f4298802e50c5206dc817ed0f46577ad21ead437acbcc3",
    "observed/AS": "8d4239cb6633213d892a9fa9551a0615e440863b98a706ad113826d7268bc2b0",
    "observed/watersp": "d9216ec42dbf398a50afae7fa1e4c0deb55e99d1b7353d378976f4116c236d98",
    "threads8/AS/13": "c6fcff43c12cb5ca8c9f8d2b4790fe2514d46cb99145e5e6854fa034cb176d62",
    "threads8/watersp/21": "9294def6d7cb7c91d9818b8bd4471a1d057481586b80a6583edd46c8d41f18c3",
}
