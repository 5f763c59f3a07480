"""One benchmark run in a fresh process: set up, time whole rounds, check outputs.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

`run.py` starts this process and reads the one JSON line it prints last. The
timed phase starts at `timed_start_ns` (CLOCK_MONOTONIC, shared by every
process on the machine), so the parent measures set-up from the moment it
started this process. Rounds, each the same operations on the same seed, run
back to back until SECONDS have passed; the last round always completes. With
TRACE=1 every relaysim layer is wrapped in spans (tracing.py) and the
per-layer metrics replace the end-to-end ones. Everything else this process
prints goes to stderr.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

PER_PROTOCOL_RATES = ("obdwf", "ddf")


def _timed_rounds(workload, seconds: float, span):
    """Run whole rounds until `seconds` have passed.

    Returns (start_ns, rounds, attempted, failed).
    """
    rounds = []
    attempted = failed = 0
    start = time.monotonic_ns()
    deadline = start + int(seconds * 1e9)
    while True:
        t_round = time.monotonic_ns()
        ops, summaries = [], {}
        for protocol, op in workload.operations():
            attempted += 1
            with span("bench.op", attempted - 1):
                t0 = time.monotonic_ns()
                try:
                    frames, summary = op()
                except Exception:
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
                    continue
                t1 = time.monotonic_ns()
            ops.append({"protocol": protocol, "seconds": (t1 - t0) / 1e9, "frames": frames})
            summaries[protocol] = summary
        rounds.append({"wall_s": (time.monotonic_ns() - t_round) / 1e9, "ops": ops,
                       "summaries": summaries})
        if time.monotonic_ns() >= deadline:
            return start, rounds, attempted, failed


def end_to_end(rounds) -> dict[str, tuple[float, str]]:
    """Throughput and wall time from each protocol's fastest operation in the run.

    Every round repeats the same operations on the same inputs. Other tenants of
    the host slow this process's CPU by up to 2x for seconds to minutes at a
    time, so a median over one run still moves by 20-30% between runs; the
    fastest repeat measures the program's own cost. wall_s is the round those
    fastest operations make up.
    """
    best: dict[str, dict] = {}
    for rd in rounds:
        for op in rd["ops"]:
            b = best.get(op["protocol"])
            if b is None or op["frames"] / op["seconds"] > b["frames"] / b["seconds"]:
                best[op["protocol"]] = op
    wall = sum(op["seconds"] for op in best.values())
    m = {"wall_s": (wall, "s"),
         "frames_per_s": (sum(op["frames"] for op in best.values()) / wall, "frames/s")}
    for p in PER_PROTOCOL_RATES:
        m[f"{p}_frames_per_s"] = (best[p]["frames"] / best[p]["seconds"], "frames/s")
    return m


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    from workloads import WORKLOADS

    tracer = None
    with contextlib.ExitStack() as stack:
        if trace:
            from tracing import Tracer, tracing

            tracer = stack.enter_context(tracing(Tracer()))
        span = tracer.span if tracer else (lambda name, op=None: contextlib.nullcontext())
        with span("bench.setup", -1):
            workload = WORKLOADS[name](seed)
        start, rounds, attempted, failed = _timed_rounds(workload, seconds, span)

    if attempted == failed:
        print("error: every operation failed", file=sys.stderr)
        return 1
    failures = workload.check([rd["summaries"] for rd in rounds])
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    metrics = end_to_end(rounds)
    stem = f"{name}-seed{seed}{'-trace' if trace else ''}"
    raw = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
           "rounds": [{"wall_s": rd["wall_s"], "ops": rd["ops"]} for rd in rounds],
           "failures": failures}
    (out_dir / f"{stem}.json").write_text(json.dumps(raw, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write(out_dir / f"trace-{stem}.json",
                     {"workload": name, "seed": seed, "end_to_end_traced": metrics})
        metrics = tracer.layer_metrics()
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "timed_start_ns": start, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
