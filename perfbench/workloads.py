"""The benchmark workloads, driven through relaysim's public entry points.

A workload parses its plan the way `relaysim` does (CLI parser, preset,
overrides, config validation, disk geometry) when it is built; that is the
set-up the benchmark times as `setup_s`. `operations()` then yields one round:
named operations, each one `engine.run`, all on the benchmark seed, so the
protocols of a round see common random numbers and every round repeats the
same work. `check(rounds)` runs the output checks of `checks.py`.
"""

from __future__ import annotations

from dataclasses import asdict, replace

from relaysim import cli, config, engine, geometry

import checks

# fig3b (saturation throughput versus K) at the middle of its K axis, 20..200.
SATURATION_K = 110
# Frames per saturation operation: short operations give many timed samples in
# one benchmark run (see worker.end_to_end). The first 1,500 frames of a run
# hold as many relay copies and cost as much per frame as the frames after
# fig3b's warm-up (steady_state.py, README). No warm-up, so ddf/dfsc services
# tile the window.
SATURATION_HORIZON = 1_500
# Packet conservation is checked every this many frames, 15 times per operation
# (the engine's default of 10,000 would check frame 0 alone).
SATURATION_CONSERVATION_EVERY = 100
# Long enough that the post-warm-up window (202,497 frames: warm-up horizon // 10,
# trajectory stride 3) reaches assess_stability's min_window of 200,000 frames,
# so that the engine judges stability. The default 200,000 frames fall short.
BURSTY_HORIZON = 225_000
BURSTY_PROTOCOLS = ("obdwf", "ddf")


def _plan(argv: list[str]) -> config.ExperimentSpec:
    """The spec `relaysim` builds for argv (its CLI parser, preset and --set)."""
    args = cli.build_parser().parse_args(argv)
    spec = config.load_preset(args.preset) if args.preset else config.ExperimentSpec(
        sim=engine.SimConfig())
    return config.apply_overrides(spec, args.set or [])


def _validated(cfg: engine.SimConfig, protocols) -> engine.SimConfig:
    for p in protocols:
        engine.validate_config(replace(cfg, protocol=p))
    geometry.build_disk(cfg.radius, cfg.num_regions)
    return cfg


class Saturation:
    """All five protocols under infinite backlog, one engine.run each per round."""

    def __init__(self, seed: int):
        self.seed = seed
        spec = _plan(["sweep", "--preset", "fig3b", "--set", f"sim.horizon={SATURATION_HORIZON}",
                      "--set", "sim.warmup=0"])
        self.protocols = spec.protocols
        cfg = engine.apply_axis(spec.sim, spec.axis, SATURATION_K)
        self.cfg = _validated(
            replace(cfg, conservation_check_every=SATURATION_CONSERVATION_EVERY),
            self.protocols)

    def operations(self):
        cfg = replace(self.cfg, seed=self.seed)
        for p in self.protocols:
            yield p, lambda p=p: _summarize_saturation(engine.run(replace(cfg, protocol=p)))

    def check(self, rounds):
        c = self.cfg
        return (checks.check_repeats(rounds)
                + checks.check_saturation(rounds[:1], c.bandwidth, c.alpha, c.K))


def _summarize_saturation(m) -> tuple[int, dict]:
    keys = ("conservation_ok", "idle_frames", "broadcast_frames", "forward_frames",
            "measured_frames", "delivered_measured", "service_count", "rho_frames",
            "eta_frames", "throughput", "warmup")
    return m.frames, {k: getattr(m, k) for k in keys}


class Bursty:
    """The default scenario, SimConfig(), run for BURSTY_HORIZON frames, for obdwf and ddf."""

    def __init__(self, seed: int):
        self.seed = seed
        spec = _plan(["run", "--set", f"sim.horizon={BURSTY_HORIZON}"])
        self.cfg = _validated(spec.sim, BURSTY_PROTOCOLS)
        ((self.batch, self.burst_prob), _) = sorted(self.cfg.arrival_pmf, reverse=True)

    def operations(self):
        cfg = replace(self.cfg, seed=self.seed)
        for p in BURSTY_PROTOCOLS:
            yield p, lambda p=p: _summarize_bursty(engine.run(replace(cfg, protocol=p)))

    def check(self, rounds):
        return (checks.check_repeats(rounds)
                + checks.check_bursty(rounds[:1], self.batch, self.burst_prob))


def _summarize_bursty(m) -> tuple[int, dict]:
    keys = ("conservation_ok", "arrivals", "frames", "delivered", "source_drops", "delay_p50",
            "delay_p95", "delay_p99", "mean_delay", "qs_traj", "traj_stride", "warmup")
    summary = {k: getattr(m, k) for k in keys}
    summary["verdict"] = None if m.stability is None else asdict(m.stability)
    return m.frames, summary


WORKLOADS = {"saturation": Saturation, "bursty": Bursty}
