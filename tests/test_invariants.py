"""Frame invariants of traced runs across random configurations.

Every protocol, with finite and infinite buffers and random batch-arrival
pmfs, must on every frame: deliver at most one packet, never deliver a packet
id twice, move its source queue by Q(t+1) = A(t+1) + max(Q(t) - U(t), 0) with
A the accepted arrivals and U the departure, and leave the relay bank with
its ids in increasing insertion order, `nonempty` the OR of the holder masks,
`total_copies` the sum of their popcounts, and no relay holding more than
`capacity` ids. Packet conservation is checked on every frame.
"""

import functools
import operator
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim import engine
from relaysim.channel import GainTable, Rayleigh
from relaysim.protocols import PROTOCOL_NAMES, make_protocol


@st.composite
def configs(draw):
    K = draw(st.integers(1, 24))
    horizon = draw(st.integers(1, 500))
    batches = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    pmf = tuple((b, draw(st.floats(0.005, 0.3))) for b in batches)
    return engine.SimConfig(
        K=K,
        protocol=draw(st.sampled_from(PROTOCOL_NAMES)),
        horizon=horizon,
        warmup=draw(st.integers(0, horizon - 1)),
        seed=draw(st.integers(0, 2**64 - 1)),
        radius=draw(st.sampled_from((1.0, 2.5))),  # a short direct link often delivers
        rate=draw(st.sampled_from((1e6, 2e6, 4e6))),
        fading=draw(st.sampled_from(
            (Rayleigh(), GainTable(gains=(0.0, 0.5, 3.75), probs=(0.3, 0.5, 0.2))))),
        arrival_pmf=pmf,
        buffer_capacity=draw(st.sampled_from((None, 1, 2, 5))),
        n_active=draw(st.integers(1, 4)),
        n_decode=draw(st.integers(1, min(4, K))),
        record_trace=True,
        conservation_check_every=1,
    )


class BankChecked:
    """The engine's protocol, with the relay bank checked after every step."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def step(self, links, source, relays, rng):
        out = self.inner.step(links, source, relays, rng)
        ids, masks = list(relays.masks), list(relays.masks.values())
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        assert all(masks)
        assert relays.nonempty == functools.reduce(operator.or_, masks, 0)
        assert relays.total_copies == sum(m.bit_count() for m in masks)
        if relays.capacity is not None:
            assert max(map(relays.queue_len, range(relays.K))) <= relays.capacity
        return out


@settings(max_examples=50, deadline=None)
@given(configs())
def test_every_frame_keeps_the_invariants(cfg):
    with mock.patch.object(engine, "make_protocol",
                           lambda *a, **kw: BankChecked(make_protocol(*a, **kw))):
        m = engine.run(cfg)
    assert m.conservation_failure is None
    assert len(m.trace) == m.frames
    delivered = set()
    q_prev = u_prev = 0  # the queue starts empty
    for row in m.trace:
        assert len(row["delivered"]) <= 1, row
        assert delivered.isdisjoint(row["delivered"]), row
        delivered.update(row["delivered"])
        assert row["u_s"] in (0, 1)
        assert row["s_s"] == row["a_s"] + max(q_prev - u_prev, 0), row
        q_prev, u_prev = row["s_s"], row["u_s"]
    assert len(delivered) == m.delivered
