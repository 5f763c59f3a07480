"""Command-line interface: run, sweep, stability, validate.

Outputs are CSV (UTF-8, LF, 15 significant digits) plus a human summary on
stdout; sweeps also emit a self-contained gnuplot companion script. Exit
codes: 0 success, 1 validation-suite failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import math
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

from . import validation
from .config import (
    PRESET_NAMES,
    ConfigError,
    ExperimentSpec,
    apply_overrides,
    load_config_file,
    load_preset,
    parse_values,
)
from .engine import (
    SWEEP_AXES,
    SimConfig,
    apply_axis,
    aggregate_metric,
    max_stable_rate,
    replicate,
    sweep,
    validate_config,
)

__all__ = ["main", "build_parser"]

_FRAME_METRICS = ("mean_delay", "delay_p50", "delay_p95", "delay_p99")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return f"{x:.15g}"
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _load_spec(args) -> ExperimentSpec:
    if args.preset and args.config:
        raise ConfigError("give either --preset or --config, not both")
    if args.preset:
        spec = load_preset(args.preset)
    elif args.config:
        spec = load_config_file(args.config)
    else:
        spec = ExperimentSpec(sim=SimConfig())
    spec = apply_overrides(spec, args.set or [])
    if args.seed is not None:
        spec = replace(spec, sim=replace(spec.sim, seed=args.seed))
    if args.jobs is not None:
        spec = replace(spec, jobs=args.jobs)
    if getattr(args, "out", None):
        spec = replace(spec, out=args.out)
    return spec


def _out_dir(spec: ExperimentSpec) -> Path:
    d = Path(spec.out) if spec.out else Path.cwd()
    d.mkdir(parents=True, exist_ok=True)
    return d


def _sweep_rows(spec: ExperimentSpec) -> list[list]:
    """ResultTable rows across the protocol list and the swept axis."""
    if not spec.axis or not spec.values:
        raise ConfigError("sweep needs experiment.axis and experiment.values")
    protocols = spec.protocols or (spec.sim.protocol,)
    tau = spec.sim.tau
    table: list[list] = []
    for proto in protocols:
        base = replace(spec.sim, protocol=proto)
        rows = sweep(base, spec.axis, spec.values, n_reps=spec.reps, jobs=spec.jobs)
        for r in rows:
            table.append([spec.axis, r.value, r.protocol, r.metric,
                          r.mean, r.ci_low, r.ci_high, r.n_reps, r.seed_base])
            if r.metric in _FRAME_METRICS:
                table.append([spec.axis, r.value, r.protocol, f"{r.metric}_seconds",
                              r.mean * tau, r.ci_low * tau, r.ci_high * tau,
                              r.n_reps, r.seed_base])
    return table


_SWEEP_HEADER = ["axis", "value", "protocol", "metric",
                 "mean", "ci_low", "ci_high", "n_reps", "seed_base"]


def _emit_gnuplot(csv_path: Path, rows: list[list], axis: str) -> Path:
    """Self-contained companion script: inline data blocks, one plot per metric."""
    metrics = []
    series: dict[tuple[str, str], list[tuple]] = {}
    for r in rows:
        _, value, proto, metric, mean = r[0], r[1], r[2], r[3], r[4]
        if metric.endswith("_seconds"):
            continue
        if metric not in metrics:
            metrics.append(metric)
        series.setdefault((metric, proto), []).append((value, mean))
    out = csv_path.with_suffix(".gnuplot")
    lines = [
        f"# companion plot script for {csv_path.name}",
        "set datafile separator ','",
        "set key outside right",
        f"set xlabel '{axis}'",
        "set term pngcairo size 900,600",
    ]
    for metric in metrics:
        protos = [p for (m, p) in series if m == metric]
        for proto in protos:
            lines.append(f"$data_{metric}_{proto} << EOD")
            for value, mean in series[(metric, proto)]:
                lines.append(f"{_fmt(value)} {_fmt(mean)}")
            lines.append("EOD")
        lines.append(f"set output '{csv_path.stem}_{metric}.png'")
        lines.append(f"set ylabel '{metric}'")
        plot = ", ".join(
            f"$data_{metric}_{p} using 1:2 with linespoints title '{p}'" for p in protos
        )
        lines.append(f"plot {plot}")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def cmd_run(args) -> int:
    spec = _load_spec(args)
    if spec.mode == "sweep":
        return _run_sweep(spec)
    if spec.mode == "stability":
        return _run_stability(spec)
    return _run_single(spec)


def _run_single(spec: ExperimentSpec) -> int:
    for w in validate_config(spec.sim):
        print(f"warning: {w}", file=sys.stderr)
    runs = replicate(spec.sim, spec.reps, jobs=spec.jobs)
    tau = spec.sim.tau
    names = ["throughput", "mean_delay", "delay_p50", "delay_p95", "delay_p99",
             "delivery_rate", "delivered", "arrivals", "source_drops", "relay_drops",
             "broadcast_fraction", "mean_service", "mean_rho", "mean_eta"]
    rows = []
    for name in names:
        mean, lo, hi = aggregate_metric(runs, name)
        unit = "frames" if name in _FRAME_METRICS else ""
        rows.append([name, unit, mean, lo, hi, len(runs)])
        if name in _FRAME_METRICS and not math.isnan(mean):
            rows.append([f"{name}_seconds", "s", mean * tau, lo * tau, hi * tau, len(runs)])
    unstable = [r.seed for r in runs
                if r.aborted_unstable or (r.stability and not r.stability.stable)]
    rows.append(["unstable_flag", "", 1.0 if unstable else 0.0, math.nan, math.nan, len(runs)])
    out = _out_dir(spec) / f"{spec.name}_run.csv"
    _write_csv(out, ["metric", "unit", "mean", "ci_low", "ci_high", "n_reps"], rows)
    print(f"{spec.name}: protocol={spec.sim.protocol} K={spec.sim.K} "
          f"seed={spec.sim.seed} reps={spec.reps}")
    for row in rows:
        if row[2] is None or (isinstance(row[2], float) and math.isnan(row[2])):
            continue
        print(f"  {row[0]:<24} {_fmt(row[2])}{' ' + row[1] if row[1] else ''}")
    if unstable:
        print(f"WARNING: unstable queue growth flagged in seeds {unstable}", file=sys.stderr)
    print(f"wrote {out}")
    return 0


def _run_sweep(spec: ExperimentSpec) -> int:
    rows = _sweep_rows(spec)
    out = _out_dir(spec) / f"{spec.name}.csv"
    _write_csv(out, _SWEEP_HEADER, rows)
    script = _emit_gnuplot(out, rows, spec.axis)
    print(f"{spec.name}: {len(rows)} rows over {spec.axis}={list(spec.values)} "
          f"protocols={list(spec.protocols or (spec.sim.protocol,))}")
    print(f"wrote {out}")
    print(f"wrote {script}")
    return 0


def cmd_sweep(args) -> int:
    spec = _load_spec(args)
    if args.axis:
        spec = replace(spec, axis=args.axis)
    if args.values:
        spec = replace(spec, values=parse_values(args.values))
    if args.reps:
        spec = replace(spec, reps=args.reps)
    spec = replace(spec, mode="sweep")
    return _run_sweep(spec)


def _brackets(spec: ExperimentSpec, cfgs: list[SimConfig]):
    """max_stable_rate of each config, in order; over one process pool when jobs > 1."""
    bracket = partial(max_stable_rate, lo=spec.lo, hi=spec.hi,
                      resolution=spec.resolution, batch_size=spec.batch)
    if spec.jobs > 1 and len(cfgs) > 1:
        with ProcessPoolExecutor(max_workers=min(spec.jobs, len(cfgs)),
                                 mp_context=multiprocessing.get_context("spawn")) as ex:
            yield from ex.map(bracket, cfgs)
    else:
        yield from map(bracket, cfgs)


def _run_stability(spec: ExperimentSpec) -> int:
    if not 0.0 < spec.lo < spec.hi:
        raise ConfigError(f"stability bounds need 0 < lo < hi, got {spec.lo}, {spec.hi}")
    protocols = spec.protocols or (spec.sim.protocol,)
    values = spec.values if spec.axis else (None,)
    plan = []
    for proto in protocols:
        base = replace(spec.sim, protocol=proto)
        for v in values:
            plan.append((proto, v, apply_axis(base, spec.axis, v) if spec.axis else base))
    rows = []
    for (proto, v, cfg), br in zip(plan, _brackets(spec, [cfg for _, _, cfg in plan])):
        rows.append([spec.axis or "", v, proto, br.stable_rate, br.unstable_rate,
                     br.midpoint, br.resolution, len(br.probes), cfg.seed])
        tag = f" {spec.axis}={v}" if spec.axis else ""
        print(f"  {proto:<6}{tag}: stable<= {_fmt(br.stable_rate)} "
              f"unstable>= {_fmt(br.unstable_rate)}")
    out = _out_dir(spec) / f"{spec.name}_stability.csv"
    _write_csv(out, ["axis", "value", "protocol", "stable_rate", "unstable_rate",
                     "midpoint", "resolution", "n_probes", "seed"], rows)
    print(f"wrote {out}")
    return 0


def cmd_stability(args) -> int:
    spec = _load_spec(args)
    updates = {}
    if args.lo is not None:
        updates["lo"] = args.lo
    if args.hi is not None:
        updates["hi"] = args.hi
    if args.resolution is not None:
        updates["resolution"] = args.resolution
    if args.batch is not None:
        updates["batch"] = args.batch if args.batch > 0 else None
    if updates:
        spec = replace(spec, **updates)
    spec = replace(spec, mode="stability")
    return _run_stability(spec)


def cmd_validate(args) -> int:
    results = validation.run_suite(seed=args.seed if args.seed is not None else 1)
    rows = [[r.name, int(r.passed), r.expected, r.detail] for r in results]
    out_dir = Path(args.out) if args.out else Path.cwd()
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "validation_report.csv"
    _write_csv(out, ["check", "passed", "expected", "detail"], rows)
    print("theory-versus-simulation validation")
    print("-" * 35)
    n_pass = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        n_pass += r.passed
        print(f"[{mark}] {r.name}")
        for k, v in r.measured.items():
            print(f"       {k} = {v}")
    print("-" * 35)
    print(f"{n_pass}/{len(results)} checks passed; wrote {out}")
    return 0 if n_pass == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="relaysim",
        description="Mobile-relay link simulator: throughput, stability, delay.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_out=True):
        sp.add_argument("--config", help="INI experiment file")
        sp.add_argument("--preset", choices=PRESET_NAMES,
                        help="packaged experiment preset")
        sp.add_argument("--seed", type=int, help="master seed (unsigned 64-bit)")
        sp.add_argument("--jobs", type=int,
                        help="worker processes for replicates or stability brackets")
        sp.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                        help="override one config key (repeatable)")
        if with_out:
            sp.add_argument("--out", help="output directory (default: cwd)")

    sp = sub.add_parser("run", help="run one configuration (or its preset plan)")
    common(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("sweep", help="sweep one axis, write a result table")
    common(sp)
    sp.add_argument("--axis", choices=SWEEP_AXES)
    sp.add_argument("--values", help="lo:hi:step or comma list")
    sp.add_argument("--reps", type=int)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("stability", help="bisect the maximum stable arrival rate")
    common(sp)
    sp.add_argument("--lo", type=float)
    sp.add_argument("--hi", type=float)
    sp.add_argument("--resolution", type=float)
    sp.add_argument("--batch", type=int, help="burst size for probe arrivals (0 = Bernoulli)")
    sp.set_defaults(func=cmd_stability)

    sp = sub.add_parser("validate", help="run the theory-vs-simulation suite")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", help="output directory (default: cwd)")
    sp.set_defaults(func=cmd_validate)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
