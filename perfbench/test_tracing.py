"""The traced run observes without changing results, and accounts for its time."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import worker
from relaysim import SimConfig, engine, protocols, rng
from tracing import Tracer, tracing

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

CONFIGS = (
    SimConfig(protocol="obdwf", infinite_backlog=True, horizon=400, seed=5),
    SimConfig(protocol="afsc", infinite_backlog=True, horizon=400, seed=5),
    SimConfig(protocol="ddf", horizon=3_000, seed=5, arrival_pmf=((3, 0.01),)),
)


def _outputs(m):
    return (m.delivered, m.arrivals, m.broadcast_frames, m.forward_frames,
            m.qs_traj.tobytes(), m.relay_traj.tobytes(), m.mean_delay)


def test_wrappers_are_transparent_and_removed():
    plain = [_outputs(engine.run(c)) for c in CONFIGS]
    originals = (engine.run, rng.CounterRng.uniforms, protocols.Obdwf.step,
                 protocols.AfSc.__dict__.get("step"))
    tracer = Tracer()
    with tracing(tracer), tracer.span("bench.op", 0):
        traced = [_outputs(engine.run(c)) for c in CONFIGS]
    assert traced == plain
    assert (engine.run, rng.CounterRng.uniforms, protocols.Obdwf.step,
            protocols.AfSc.__dict__.get("step")) == originals
    assert originals[3] is None


def test_self_times_add_up_to_the_operation():
    tracer = Tracer(max_spans=1_000)
    with tracing(tracer), tracer.span("bench.op", 0):
        engine.run(CONFIGS[0])
    root = tracer.names.index("bench.op")
    assert sum(tracer.self_ns) == tracer.total_ns[root]
    assert all(0 <= s <= t for s, t in zip(tracer.self_ns, tracer.total_ns))
    assert tracer.dropped > 0 and len(tracer.span_cols["id"]) == 1_000


def test_counters_match_the_run():
    cfg = CONFIGS[0]
    tracer = Tracer()
    with tracing(tracer):
        m = engine.run(cfg)
    metrics = tracer.layer_metrics()
    assert metrics["rng.draws.walk"][0] == cfg.horizon * cfg.K
    assert metrics["protocols.fade_frames_per_frame"][0] == 1.0  # every frame inspects a link
    assert metrics["traffic.relay_enqueues"][0] >= m.delivered
    assert metrics["geometry.strip_changes"][0] > 0
    assert metrics["geometry.place_draws_per_change"][0] >= 1.0
    assert metrics["protocols.obdwf.step.s"][0] > 0 and metrics["protocols.ddf.step.s"][0] == 0


def test_benchmark_json_lists_exactly_the_metrics_reported():
    layer = Tracer().layer_metrics()
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layer)
    assert all(m["unit"] == layer[m["name"]][1] for m in BENCHMARK["per_layer"])
    rounds = [{"wall_s": 2.0, "ops": [{"protocol": p, "seconds": 1.0, "frames": 10}
                                      for p in ("obdwf", "ddf")]}]
    e2e = worker.end_to_end(rounds)
    e2e.update(setup_s=(1.0, "s"), peak_rss_mb=(1.0, "MB"))
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        k: u for k, (_, u) in e2e.items()}
    assert np.isclose(e2e["frames_per_s"][0], 10.0)
