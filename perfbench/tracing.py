"""Spans and counters for the traced benchmark run.

`tracing(tracer)` replaces public relaysim functions and methods, at the names
the engine and the CLI actually call, with wrappers that open a span around
each call. A span records its layer name, its parent span, the operation it
belongs to and its start and end on the monotonic clock. Self time is a span's
duration minus the time covered by its child spans; it is accumulated as spans
close, so the totals cover every call even when only the first `max_spans`
spans are kept for the trace file. Private helpers are never wrapped, so their
time is self time of the nearest wrapped caller (mostly `engine.run`).

The wrappers only observe: arguments and results pass through unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array

from relaysim import rng as _rng
from relaysim.protocols import PROTOCOL_NAMES

# Span and counter names of the counter-based streams.
STREAM_NAMES = {getattr(_rng, f"STREAM_{n.upper()}"): n for n in (
    "fade_src", "fade_dst", "fade_direct", "walk", "place", "init", "arrival", "proto",
    "waypoint")}
FADE_STREAMS = frozenset((_rng.STREAM_FADE_SRC, _rng.STREAM_FADE_DST, _rng.STREAM_FADE_DIRECT))
REPORTED_STREAMS = ("fade_src", "fade_dst", "fade_direct", "walk", "place", "arrival", "proto")

_clock = time.monotonic_ns


class Tracer:
    """In-memory span log plus per-name totals and event counters."""

    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.counts: dict[str, int] = {}
        # open spans: [name id, span id, start ns, ns covered by children]
        self._stack: list[list[int]] = []
        self._next_span = 0
        self.op = -1
        self.span_cols = {k: array("q") for k in ("id", "parent", "name", "op", "start", "end")}
        self.dropped = 0
        self.last_fade_frame: int | None = None
        self.origin_ns = _clock()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def enter(self, nid: int) -> None:
        sid = self._next_span
        self._next_span = sid + 1
        self._stack.append([nid, sid, _clock(), 0])

    def exit(self) -> None:
        end = _clock()
        nid, sid, start, child = self._stack.pop()
        dur = end - start
        self.calls[nid] += 1
        self.total_ns[nid] += dur
        self.self_ns[nid] += dur - child
        stack = self._stack
        if stack:
            stack[-1][3] += dur
        cols = self.span_cols
        if len(cols["id"]) < self.max_spans:
            cols["id"].append(sid)
            cols["parent"].append(stack[-1][1] if stack else -1)
            cols["name"].append(nid)
            cols["op"].append(self.op)
            cols["start"].append(start - self.origin_ns)
            cols["end"].append(end - self.origin_ns)
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None):
        """A span opened by the benchmark itself, e.g. around one operation."""
        if op is not None:
            self.op = op
        self.enter(self.name_id(name))
        try:
            yield
        finally:
            self.exit()

    def _sum(self, field: list[int], prefix: str) -> int:
        """Sum of a per-name total over the names `prefix` and `prefix.*`."""
        return sum(v for n, v in zip(self.names, field)
                   if n == prefix or n.startswith(prefix + "."))

    def self_s(self, prefix: str) -> float:
        return self._sum(self.self_ns, prefix) / 1e9

    def total_s(self, prefix: str) -> float:
        return self._sum(self.total_ns, prefix) / 1e9

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        c = self.counts.get
        frames = c("engine.frames", 0)
        changes = c("geometry.strip_changes", 0)
        dequeues = c("traffic.dequeue_calls", 0)
        m: dict[str, tuple[float, str]] = {
            "engine.run.s": (self.total_s("engine.run"), "s"),
            "engine.self.s": (self.self_s("engine.run"), "s"),
            "engine.assess_stability.s": (self.self_s("engine.assess_stability"), "s"),
            "rng.s": (self.self_s("rng"), "s"),
            "rng.calls": (self._sum(self.calls, "rng"), "count"),
        }
        for name in REPORTED_STREAMS:
            m[f"rng.draws.{name}"] = (c(f"rng.draws.{name}", 0), "count")
        m["rng.place.s"] = (self.self_s("rng.place"), "s")
        m["rng.fade.s"] = (sum(self.self_s(f"rng.{STREAM_NAMES[s]}") for s in FADE_STREAMS), "s")
        m["rng.walk.s"] = (self.self_s("rng.walk"), "s")
        m["geometry.walk_next.s"] = (self.self_s("geometry.walk_next"), "s")
        m["geometry.build_disk.s"] = (self.self_s("geometry.build_disk"), "s")
        m["geometry.strip_changes"] = (changes, "count")
        m["geometry.place_draws_per_change"] = (
            c("rng.draws.place", 0) / (2 * changes) if changes else 0.0, "ratio")
        m["channel.fading.s"] = (self.self_s("channel.fading"), "s")
        for p in PROTOCOL_NAMES:
            m[f"protocols.{p}.step.s"] = (self.self_s(f"protocols.{p}.step"), "s")
        m["protocols.links.s"] = (self.self_s("protocols.links"), "s")
        m["protocols.fade_frames_per_frame"] = (
            c("rng.fade_frames", 0) / frames if frames else 0.0, "ratio")
        m["traffic.source.s"] = (self.self_s("traffic.source"), "s")
        m["traffic.relay_bank.s"] = (self.self_s("traffic.relay_bank"), "s")
        m["traffic.arrivals.s"] = (self.self_s("traffic.arrivals"), "s")
        m["traffic.relay_enqueues"] = (c("traffic.relay_enqueues", 0), "count")
        m["traffic.copies_per_delivery"] = (
            c("traffic.copies_removed", 0) / dequeues if dequeues else 0.0, "ratio")
        m["cli.s"] = (self.self_s("cli"), "s")
        m["config.s"] = (self.self_s("config"), "s")
        return m

    def write(self, path, extra: dict | None = None) -> None:
        """Write totals, counters and the kept spans as one JSON document."""
        doc = {
            "clock": "monotonic_ns, relative to tracer creation",
            "names": self.names,
            "totals": {
                n: {"calls": k, "total_s": t / 1e9, "self_s": s / 1e9}
                for n, k, t, s in zip(self.names, self.calls, self.total_ns, self.self_ns)
            },
            "counts": self.counts,
            "spans_kept": len(self.span_cols["id"]),
            "spans_dropped": self.dropped,
            "spans": {k: v.tolist() for k, v in self.span_cols.items()},
        }
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _wrap(tracer: Tracer, name: str, fn, after=None, before=None):
    """Span around fn; before() runs first, after(args, result) once the call returned."""
    nid = tracer.name_id(name)
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn, updated=())
    def traced(*args, **kwargs):
        if before is not None:
            before()
        enter(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            exit_()
        if after is not None:
            after(args, out)
        return out

    return traced


def _wrap_rng(tracer: Tracer, fn, n_of):
    """Span named after the stream of each CounterRng call, plus draw counters."""
    ids = {s: tracer.name_id(f"rng.{n}") for s, n in STREAM_NAMES.items()}
    draws = {s: f"rng.draws.{n}" for s, n in STREAM_NAMES.items()}
    enter, exit_, count = tracer.enter, tracer.exit, tracer.count

    @functools.wraps(fn)
    def traced(self, stream, frame, *args, **kwargs):
        enter(ids[stream])
        try:
            out = fn(self, stream, frame, *args, **kwargs)
        finally:
            exit_()
        count(draws[stream], n_of(args, kwargs))
        if stream in FADE_STREAMS and frame != tracer.last_fade_frame:
            tracer.last_fade_frame = frame
            count("rng.fade_frames")
        return out

    return traced


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore the originals."""
    import numpy as np

    from relaysim import channel, cli, config, engine, geometry, protocols, traffic

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, name, after=None, before=None):
        orig = owner.__dict__[attr]
        saved.append((owner, attr, orig))
        setattr(owner, attr, _wrap(tracer, name, orig, after, before))

    count = tracer.count

    # engine: the run loop and its stability judgement
    def run_started():
        tracer.last_fade_frame = None  # frames count from 0 again

    def run_done(args, out):
        count("engine.frames", out.frames)

    patch(engine, "run", "engine.run", run_done, run_started)
    patch(engine, "assess_stability", "engine.assess_stability")


    # rng: every counter-based draw, named by stream
    for attr, n_of in (
        ("uniform", lambda a, k: 1),
        ("uniforms", lambda a, k: a[0] if a else k["n"]),
        ("uniforms_at", lambda a, k: int(np.size(a[0] if a else k["indices"]))),
    ):
        orig = _rng.CounterRng.__dict__[attr]
        saved.append((_rng.CounterRng, attr, orig))
        setattr(_rng.CounterRng, attr, _wrap_rng(tracer, orig, n_of))

    # geometry: the strip walk, bound by name in the engine, and the disk build
    def walk_counted(args, out):
        count("geometry.strip_changes", int(np.count_nonzero(np.asarray(out) != args[0])))

    patch(engine, "walk_next", "geometry.walk_next", walk_counted)
    patch(engine, "build_disk", "geometry.build_disk")
    patch(geometry, "build_disk", "geometry.build_disk")

    # channel: the fading models' uniform-to-gain maps
    for cls in (channel.Rayleigh, channel.GainTable):
        patch(cls, "from_uniforms", "channel.fading")

    # protocols: one step span per protocol class, one links span per FrameLinks call
    for cls, pname in ((protocols.Obdwf, "obdwf"), (protocols.Ddf, "ddf"),
                       (protocols.AfSc, "afsc"), (protocols.Af, "af"), (protocols.DfSc, "dfsc")):
        orig = getattr(cls, "step")
        saved.append((cls, "step", cls.__dict__.get("step")))
        setattr(cls, "step", _wrap(tracer, f"protocols.{pname}.step", orig))
    for attr in ("clear", "src_gains", "dst_gains", "direct_gain", "src_connected",
                 "dst_connected", "direct_connected", "src_quality", "dst_quality"):
        patch(protocols.FrameLinks, attr, "protocols.links")

    # traffic: source queues, the relay bank and arrivals
    for cls, attrs in ((traffic.SourceQueue, ("__len__", "offer", "head", "pop_head")),
                       (traffic.InfiniteBacklog, ("__len__", "head", "pop_head"))):
        for attr in attrs:
            patch(cls, attr, "traffic.source")

    def enqueued(args, out):
        if out:
            count("traffic.relay_enqueues")

    def dequeued(args, out):
        count("traffic.dequeue_calls")
        count("traffic.copies_removed", len(out))

    for attr in ("__len__", "head", "queue_len", "holders_of"):
        patch(traffic.RelayBank, attr, "traffic.relay_bank")
    patch(traffic.RelayBank, "enqueue", "traffic.relay_bank", enqueued)
    patch(traffic.RelayBank, "dequeue_id", "traffic.relay_bank", dequeued)
    patch(traffic.ArrivalDistribution, "from_uniforms", "traffic.arrivals")
    patch(engine, "Packet", "traffic.arrivals")

    # config and cli: plan parsing
    for attr in ("load_preset", "parse_config", "apply_overrides", "parse_values"):
        patch(config, attr, "config")
    patch(cli, "build_parser", "cli")
    try:
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
