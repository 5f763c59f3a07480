"""Does a short saturation operation cost what a long fig3b run costs per frame?

    python3 perfbench/steady_state.py [--horizon H] [--reps R]

Runs the saturation workload's configuration (fig3b at K = 110) for each
protocol with the horizon raised to H, R times on seeds 1..R, and compares the
first 1,500 frames (a benchmark operation, from empty relay queues) with the
last 1,500 frames. The default H = 13,500 ends just past fig3b's warm-up of
12,000 frames; H = 120,000 is the whole fig3b run. It prints, per protocol,
the per-frame wall time of both windows (median within a run, then the median
and the fastest over runs) and their work: relay copies held (`relay_traj`),
copies removed per delivery and the queue positions `deque.remove` scans, all
counted by wrapping `engine.walk_next` (one call per frame) and
`RelayBank.dequeue_id`. It also times a 1-frame run: the fixed cost of one
`engine.run`. Not part of the benchmark run; the README quotes its output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from array import array
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from relaysim import engine, traffic  # noqa: E402
from workloads import SATURATION_HORIZON as WINDOW, Saturation  # noqa: E402


def _probe(cfg: engine.SimConfig):
    """One run; returns (ms per frame, relay copies per frame, dequeue log)."""
    stamps = array("q")
    deq = []  # (frame, copies removed, summed queue position of the copies)
    walk_next, dequeue_id = engine.walk_next, traffic.RelayBank.dequeue_id

    def walk(*args, **kwargs):
        stamps.append(time.perf_counter_ns())
        return walk_next(*args, **kwargs)

    def dequeue(bank, pid):
        scan = sum(bank.queues[r].index(pid) for r in bank.holders.get(pid, ()))
        out = dequeue_id(bank, pid)
        deq.append((len(stamps) - 1, len(out), scan))
        return out

    engine.walk_next, traffic.RelayBank.dequeue_id = walk, dequeue
    try:
        m = engine.run(cfg)
    finally:
        engine.walk_next, traffic.RelayBank.dequeue_id = walk_next, dequeue_id
    ms = np.diff(np.asarray(stamps, dtype=np.int64)) / 1e6
    copies = np.repeat(m.relay_traj, m.traj_stride)[: m.frames]
    return ms, copies, np.asarray(deq, dtype=np.int64).reshape(-1, 3)


def _window(ms, copies, deq, lo: int, hi: int) -> dict:
    d = deq[(deq[:, 0] >= lo) & (deq[:, 0] < hi)]
    return {
        "ms_per_frame": float(np.median(ms[lo:hi])),
        "relay_copies": float(copies[lo:hi].mean()),
        "copies_per_delivery": float(d[:, 1].mean()) if d.size else 0.0,
        "scan_per_delivery": float(d[:, 2].mean()) if d.size else 0.0,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--horizon", type=int, default=13_500)
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()
    workload = Saturation(seed=1)
    for p in workload.protocols:
        cold, late, fixed_ms = [], [], []
        for seed in range(1, args.reps + 1):
            cfg = replace(workload.cfg, protocol=p, seed=seed)
            t0 = time.perf_counter_ns()
            engine.run(replace(cfg, horizon=1))
            fixed_ms.append((time.perf_counter_ns() - t0) / 1e6)
            # one frame more, so that the last window has a closing timestamp
            ms, copies, deq = _probe(replace(cfg, horizon=args.horizon + 1))
            cold.append(_window(ms, copies, deq, 0, WINDOW))
            late.append(_window(ms, copies, deq, args.horizon - WINDOW, args.horizon))
        row = {"protocol": p, "fixed_ms": round(float(np.median(fixed_ms)), 3)}
        for tag, runs in (("first", cold), ("last", late)):
            per_frame = [r["ms_per_frame"] for r in runs]
            row[tag] = {"ms_per_frame_median": round(float(np.median(per_frame)), 4),
                        "ms_per_frame_fastest": round(min(per_frame), 4)}
            for k in ("relay_copies", "copies_per_delivery", "scan_per_delivery"):
                row[tag][k] = round(float(np.mean([r[k] for r in runs])), 3)
        ratios = [b["ms_per_frame"] / a["ms_per_frame"] for a, b in zip(cold, late)]
        row["last_over_first"] = [round(x, 3) for x in ratios]
        row["last_over_first_median"] = round(float(np.median(ratios)), 3)
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
