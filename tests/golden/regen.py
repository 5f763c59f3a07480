"""Golden digests of small runs: the cases, the summary of one run, and the
script that rewrites the fixture.

Every draw of the simulator is a pure function of (seed, stream, frame,
index), so a change that claims to keep behaviour must leave each summary
here unchanged, bit for bit. Regenerate the fixture only for a change that
alters simulated output on purpose, and say why next to it:

    python3 tests/golden/regen.py

It writes digests.json beside this file.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "digests.json"

# Integer (and boolean) outputs of RunMetrics, compared exactly.
INT_FIELDS = (
    "frames", "warmup", "measured_frames", "arrivals", "delivered", "delivered_measured",
    "source_drops", "relay_drops", "broadcast_frames", "forward_frames", "idle_frames",
    "src_conn_frames", "dst_conn_frames", "service_count", "rho_frames", "eta_frames",
    "traj_stride", "conservation_ok", "aborted_unstable",
)
# Float outputs made by elementwise numpy or Python arithmetic, compared by repr.
FLOAT_FIELDS = ("throughput", "mean_delay", "delay_p50", "delay_p95", "delay_p99")


def cases() -> dict[str, "SimConfig"]:
    """About two dozen small configurations that together reach every engine path."""
    from relaysim.channel import GainTable
    from relaysim.engine import SimConfig
    from relaysim.geometry import RandomWalk, RandomWaypoint

    base = dict(K=24, seed=7, rate=2e6, conservation_check_every=97)
    out = {}
    for p in ("obdwf", "ddf", "af", "afsc", "dfsc"):
        out[f"{p}-saturation"] = SimConfig(
            protocol=p, horizon=2_000, infinite_backlog=True, arrival_pmf=None, **base)
        out[f"{p}-bursty"] = SimConfig(
            protocol=p, horizon=4_000, warmup=400, arrival_pmf=((6, 0.02),), **base)
        out[f"{p}-finite-buffer"] = SimConfig(
            protocol=p, horizon=3_000, buffer_capacity=2, arrival_pmf=((4, 0.25),), **base)
    out["obdwf-waypoint"] = SimConfig(
        protocol="obdwf", horizon=1_500, infinite_backlog=True,
        mobility=RandomWaypoint(speed_min=0.05, speed_max=0.4, pause_set=(0, 2, 5)),
        **dict(base, K=12))
    out["ddf-pinned"] = SimConfig(
        protocol="ddf", horizon=3_000, arrival_pmf=((1, 0.2),),
        pinned_positions=((2.0, 0.5), (2.5, 0.0), (3.0, -0.5), (2.5, 1.0)), **dict(base, K=4))
    out["dfsc-gain-table"] = SimConfig(
        protocol="dfsc", horizon=3_000, arrival_pmf=((2, 0.05),), n_decode=3,
        fading=GainTable(gains=(0.0, 0.5, 3.75), probs=(0.3, 0.5, 0.2)), **base)
    out["obdwf-resample-within-region"] = SimConfig(
        protocol="obdwf", horizon=3_000, arrival_pmf=((3, 0.05),),
        resample_within_region=True, **dict(base, K=20))
    out["afsc-track-connectivity"] = SimConfig(
        protocol="afsc", horizon=3_000, warmup=300, arrival_pmf=((1, 0.3),), n_active=3,
        track_connectivity=True, **base)
    out["obdwf-alpha3"] = SimConfig(
        protocol="obdwf", horizon=2_000, infinite_backlog=True, arrival_pmf=None,
        alpha=3.0, num_regions=3, mobility=RandomWalk(q=0.45), **dict(base, K=40))
    out["ddf-one-strip"] = SimConfig(
        protocol="ddf", horizon=2_000, arrival_pmf=((1, 0.1),), num_regions=1, **base)
    out["ddf-aborted-probe"] = SimConfig(
        protocol="ddf", horizon=6_000, warmup=0, arrival_pmf=((1, 0.9),),
        abort_queue_threshold=60, traj_stride=1, **base)
    # Rare bursts over long horizons: the system is empty on most frames, and
    # the idle spans cross the 65,536-frame arrival chunk.
    out["obdwf-sparse-long"] = SimConfig(
        protocol="obdwf", horizon=150_000, arrival_pmf=((3, 0.0005),), **dict(base, K=8))
    out["ddf-sparse-long"] = SimConfig(
        protocol="ddf", horizon=230_000, arrival_pmf=((3, 0.0005),), **dict(base, K=12))
    return out


def _sha(a) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.int64).tobytes()).hexdigest()


def _float(x) -> str | None:
    return None if x is None else repr(float(x))


def summarize(m) -> dict:
    """The digestible outputs of one run, as JSON-ready values."""
    v = m.stability
    return {
        "ints": {k: getattr(m, k) for k in INT_FIELDS},
        "floats": {k: _float(getattr(m, k)) for k in FLOAT_FIELDS},
        "stability": None if v is None else [
            v.stable, _float(v.slope), _float(v.tail_ratio), _float(v.mean_queue),
            v.n_samples, v.window_frames],
        "qs_traj": _sha(m.qs_traj),
        "relay_traj": _sha(m.relay_traj),
        "delays": _sha(m.delays),
    }


def main() -> int:
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    from relaysim.engine import run

    doc = {name: summarize(run(cfg)) for name, cfg in cases().items()}
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} digests to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
