"""Arrival distributions and queue semantics."""

import numpy as np
import pytest

from relaysim.traffic import (
    ArrivalDistribution,
    InfiniteBacklog,
    Packet,
    RelayBank,
    SourceQueue,
    arrival_moments,
)


def test_arrival_moments():
    lam1, lam2 = arrival_moments({15: 0.001, 0: 0.999})
    assert lam1 == 0.015
    assert lam2 == 0.225


def test_from_pmf_fills_missing_mass():
    d = ArrivalDistribution.from_pmf({15: 0.001})
    assert d.sizes == (0, 15)
    assert abs(d.probs[0] - 0.999) < 1e-12
    lam1, lam2 = arrival_moments(dict(zip(d.sizes, d.probs)))
    assert abs(lam1 - 0.015) < 1e-15
    assert abs(lam2 - 0.225) < 1e-12
    with pytest.raises(ValueError):
        ArrivalDistribution.from_pmf({1: 0.7, 2: 0.5})


def test_arrival_distribution_validation():
    with pytest.raises(ValueError):
        ArrivalDistribution(sizes=(1, 2), probs=(1.0,))
    with pytest.raises(ValueError):
        ArrivalDistribution(sizes=(-1,), probs=(1.0,))
    with pytest.raises(ValueError):
        ArrivalDistribution(sizes=(1,), probs=(0.5,))


def test_arrival_inverse_cdf_boundaries():
    d = ArrivalDistribution(sizes=(0, 15), probs=(0.999, 0.001))
    # u in (0, 1]; u <= 0.999 is the common case, above it the burst
    assert d.from_uniforms(0.5) == 0
    assert d.from_uniforms(0.999) == 0
    assert d.from_uniforms(0.9995) == 15
    assert d.from_uniforms(1.0) == 15
    out = d.from_uniforms(np.array([0.1, 1.0]))
    assert np.array_equal(out, [0, 15])


def test_source_queue_fifo_and_drops():
    q = SourceQueue(capacity=2)
    p = [Packet(i, 0, 10.0) for i in range(3)]
    assert q.offer(p[0]) and q.offer(p[1])
    assert not q.offer(p[2])  # newest packet loses
    assert q.drops == 1 and len(q) == 2
    assert q.head().id == 0
    assert q.pop_head().id == 0
    assert q.pop_head().id == 1
    assert len(q) == 0
    unbounded = SourceQueue()
    for i in range(100):
        assert unbounded.offer(Packet(i, 0, 1.0))
    assert unbounded.drops == 0
    with pytest.raises(ValueError):
        SourceQueue(capacity=-1)


def test_infinite_backlog_mints_on_peek():
    src = InfiniteBacklog(bits=42.0)
    assert len(src) >= 1
    a = src.head()
    assert a.id == 0 and a.bits == 42.0
    assert src.head() is a  # peeking again does not mint
    assert src.minted == 1
    assert src.pending == 1
    popped = src.pop_head()
    assert popped is a
    assert src.pending == 0
    b = src.head()
    assert b.id == 1
    assert src.minted == 2


def test_relay_bank_enqueue_dequeue():
    bank = RelayBank(3)
    bank.enqueue(0, 10)
    bank.enqueue(0, 11)
    bank.enqueue(2, 10)
    assert bank.total_copies == 3
    assert len(bank) == 2  # distinct ids
    assert bank.head(0) == 10
    assert sorted(bank.holders_of(10)) == [0, 2]
    assert bank.nonempty == 0b101
    removed = bank.dequeue_id(10)
    assert sorted(removed) == [(0, 10), (2, 10)]
    assert bank.total_copies == 1
    assert bank.head(0) == 11  # order of the survivors is preserved
    assert bank.nonempty == 0b001
    assert bank.dequeue_id(999) == []


def test_relay_bank_capacity():
    bank = RelayBank(2, capacity=1)
    assert bank.enqueue(0, 1)
    assert not bank.enqueue(0, 2)
    assert bank.drops == 1
    assert bank.queue_len(0) == 1
    with pytest.raises(ValueError):
        RelayBank(0)
    with pytest.raises(ValueError):
        RelayBank(1, capacity=-2)


def test_relay_bank_order_within_queue():
    bank = RelayBank(1)
    for pid in (5, 6, 7):
        bank.enqueue(0, pid)
    bank.dequeue_id(6)
    assert list(bank.queues[0]) == [5, 7]
