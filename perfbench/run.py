"""relaysim benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload {saturation,bursty} \
        --seed N --seconds S --trace {0,1}

Run from the root of a relaysim checkout; the package is imported from its
`src/` directory. The workload runs in a child process (worker.py) so that its
set-up is timed from that process's start, interpreter and imports included.
The last line of stdout is
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}`
with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
Raw per-operation timings and traces go to perfbench/out/. See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("saturation", "bursty")
# The whole benchmark run must end within 180 s; leave room for start-up and output.
CHILD_TIMEOUT_S = 170


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "relaysim" / "__init__.py").is_file():
        print(f"error: no relaysim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        print("error: need 0 <= --seed < 2**64 and --seconds > 0", file=sys.stderr)
        return 2

    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           repr(args.seconds), str(args.trace)]
    spawned = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    child = json.loads(lines[-1])
    metrics = child["metrics"]
    if not args.trace:
        metrics["setup_s"] = ((child["timed_start_ns"] - spawned) / 1e9, "s")
        # ru_maxrss is in KiB on Linux; the children's figure is the largest descendant.
        peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                       resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MB")
    print(json.dumps({
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
