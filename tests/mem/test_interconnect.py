"""Tests for the crossbar model."""

import pytest

from repro.common.events import EventQueue
from repro.common.stats import StatsRegistry
from repro.mem.coherence import CoherenceMessage, MessageKind
from repro.mem.interconnect import Interconnect
from tests.conftest import run_all


def make_network(latency=5):
    queue = EventQueue()
    stats = StatsRegistry()
    network = Interconnect(queue, latency, stats)
    return queue, network, stats


def msg(src, dst, line=1):
    return CoherenceMessage(kind=MessageKind.GET_S, line=line, src=src, dst=dst)


class TestDelivery:
    def test_fixed_latency(self):
        queue, network, _ = make_network(latency=5)
        arrivals = []
        network.register(1, lambda m: arrivals.append(queue.now))
        network.send(msg(0, 1))
        run_all(queue)
        assert arrivals == [5]

    def test_per_source_injection_serialization(self):
        queue, network, _ = make_network(latency=5)
        arrivals = []
        network.register(1, lambda m: arrivals.append(queue.now))
        for _ in range(3):
            network.send(msg(0, 1))
        run_all(queue)
        assert arrivals == [5, 6, 7]  # one injection per cycle

    def test_different_sources_do_not_serialize(self):
        queue, network, _ = make_network(latency=5)
        arrivals = []
        network.register(9, lambda m: arrivals.append(queue.now))
        network.send(msg(0, 9))
        network.send(msg(1, 9))
        run_all(queue)
        assert arrivals == [5, 5]

    def test_fifo_between_pair(self):
        queue, network, _ = make_network()
        seen = []
        network.register(1, lambda m: seen.append(m.msg_id))
        a, b = msg(0, 1), msg(0, 1)
        network.send(a)
        network.send(b)
        run_all(queue)
        assert seen == [a.msg_id, b.msg_id]


class TestValidation:
    def test_unregistered_destination_rejected(self):
        _, network, _ = make_network()
        with pytest.raises(ValueError, match="no handler"):
            network.send(msg(0, 42))

    def test_duplicate_registration_rejected(self):
        _, network, _ = make_network()
        network.register(1, lambda m: None)
        with pytest.raises(ValueError, match="already registered"):
            network.register(1, lambda m: None)

    def test_zero_latency_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            Interconnect(queue, 0, StatsRegistry())


class TestStats:
    def test_message_counters(self):
        queue, network, stats = make_network()
        network.register(1, lambda m: None)
        network.send(msg(0, 1))
        run_all(queue)
        assert stats.aggregate("messages") == 1
        assert stats.get("network.kind.GetS") == 1


class TestSendMsg:
    def test_msg_ids_fresh_and_monotonic(self):
        queue, network, _ = make_network()
        ids = []
        network.register(1, lambda m: ids.append(m.msg_id))
        for _ in range(4):
            network.send_msg(MessageKind.GET_S, 1, 0, 1)
            run_all(queue)
        assert ids == sorted(ids)
        assert len(set(ids)) == 4

    def test_kept_message_is_not_rewritten_by_later_sends(self):
        """Handlers that queue a message (deferral, blocked requests)
        just keep the reference; no later send may touch it."""
        queue, network, _ = make_network()
        kept = []
        network.register(1, kept.append)
        network.send_msg(MessageKind.INV, 1, 0, 1, transaction=7)
        run_all(queue)
        network.send_msg(MessageKind.GET_X, 2, 0, 1)
        run_all(queue)
        first, second = kept
        assert second is not first
        assert (first.kind, first.line, first.transaction) == (
            MessageKind.INV,
            1,
            7,
        )
