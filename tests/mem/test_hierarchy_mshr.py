"""Private-hierarchy MSHR behaviour: merging, upgrades, blocked fills."""

from repro.mem.coherence import MESIState
from tests.conftest import run_until
from tests.mem.conftest import MemoryHarness


class TestMshrMerging:
    def test_concurrent_reads_merge_into_one_request(self, harness):
        done = []
        hierarchy = harness.hierarchies[0]
        for i in range(3):
            hierarchy.request_read(50, lambda i=i: done.append(i))
        harness.settle()
        assert sorted(done) == [0, 1, 2]
        # Only one GetS went out for the three merged readers.
        assert harness.stats.get("dir.req.GetS") == 1

    def test_write_joining_read_mshr_upgrades_after(self, harness):
        done = []
        hierarchy = harness.hierarchies[0]
        hierarchy.request_read(60, lambda: done.append("read"))
        hierarchy.request_write(60, lambda: done.append("write"))
        harness.settle()
        assert sorted(done) == ["read", "write"]
        assert hierarchy.state_of(60).writable

    def test_upgrade_from_shared_issues_getx(self):
        harness = MemoryHarness(num_cores=2)
        harness.read(0, 70)
        harness.read(1, 70)  # both Shared now
        assert harness.write(0, 70)
        assert harness.hierarchies[0].state_of(70) is MESIState.MODIFIED
        assert harness.hierarchies[1].state_of(70) is MESIState.INVALID

    def test_exclusive_write_needs_no_new_request(self, harness):
        hierarchy = harness.hierarchies[0]
        harness.read(0, 80)  # granted Exclusive (sole reader)
        requests_before = harness.stats.get("dir.req.GetX")
        assert harness.write(0, 80)
        assert harness.stats.get("dir.req.GetX") == requests_before


class TestBlockedFills:
    def test_l1_fill_retries_until_way_frees(self):
        """All ways of an L1 set locked: data is still *delivered* (from
        the L2/fill buffer — only load_locks require L1 residency), but
        the L1 placement keeps retrying and lands once a way unlocks."""
        harness = MemoryHarness(num_cores=1)
        hierarchy = harness.hierarchies[0]
        view = harness.lock_views[0]
        ways = harness.config.l1d.ways
        sets = harness.config.l1d.num_sets
        lines = [i * sets for i in range(ways)]
        for line in lines:
            assert harness.read(0, line)
        # Lock every way of L1 set 0.
        set0_ways = set(range(ways))
        view.locked_ways[0] = set0_ways
        view.locked_lines.update(lines)
        newcomer = ways * sets
        done = []
        hierarchy.request_read(newcomer, lambda: done.append(True))
        run_until(harness.queue, harness.queue.now + 200)
        assert done  # value served without an L1 way
        assert harness.stats.get("core0.mem.l1_fill_blocked") >= 1
        assert not hierarchy.in_l1(newcomer)
        # Unlock one way: the retrying fill must eventually place it.
        view.locked_ways[0] = set0_ways - {0}
        view.locked_lines.discard(lines[0])
        harness.settle()
        assert hierarchy.in_l1(newcomer)


class TestStats:
    def test_hit_counters(self, harness):
        harness.read(0, 90)
        harness.read(0, 90)
        assert harness.stats.get("core0.mem.l1_hits") >= 1
        assert harness.stats.get("core0.mem.misses") == 1

    def test_deferred_counters(self):
        harness = MemoryHarness(num_cores=2)
        harness.write(0, 91)
        harness.lock_views[0].locked_lines.add(91)
        harness.hierarchies[1].request_read(91, lambda: None)
        harness.settle()
        assert harness.stats.get("core0.mem.deferred_downgrade") == 1
        harness.lock_views[0].locked_lines.discard(91)
        harness.hierarchies[0].notify_unlock(91)
        harness.settle()
        assert harness.stats.get("core0.mem.unlock_replays") == 1
