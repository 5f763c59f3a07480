"""INI experiment configuration: parsing, presets, overrides.

A config file has sections [sim], [geometry], [mobility], [channel],
[traffic], and [experiment]. Every key is optional and falls back to the
engine defaults; unknown keys are rejected so typos fail loudly. Presets
shipped with the package (fig3a .. fig7) are ready-made experiment plans:
throughput sweeps, stability bisections, and delay studies.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from importlib import resources
from pathlib import Path

from .channel import GainTable, Rayleigh
from .engine import SWEEP_AXES, SimConfig
from .geometry import RandomWalk, RandomWaypoint
from .protocols import PROTOCOL_NAMES

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "parse_config",
    "load_config_file",
    "load_preset",
    "apply_overrides",
    "parse_values",
    "PRESET_NAMES",
    "PROTOCOL_CHOICES",
]

PRESET_NAMES = ("fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b", "fig6", "fig7")
PROTOCOL_CHOICES = PROTOCOL_NAMES

_KNOWN_KEYS = {
    "sim": {
        "relays", "protocol", "horizon", "warmup", "seed", "buffer_capacity",
        "infinite_backlog", "n_active", "n_decode", "direct_delivery",
        "track_connectivity", "resample_within_region",
    },
    "geometry": {"radius", "regions"},
    "mobility": {"model", "q", "speed_min", "speed_max", "pause_max"},
    "channel": {"bandwidth", "power", "alpha", "xi", "rate", "tau", "fading",
                "gains", "probs"},
    "traffic": {"arrivals", "packet_bits"},
    "experiment": {"mode", "axis", "values", "protocols", "reps", "jobs",
                   "lo", "hi", "resolution", "batch", "out", "name"},
}


class ConfigError(ValueError):
    """Invalid configuration content; maps to the usage-error exit code."""


@dataclass(frozen=True)
class ExperimentSpec:
    """A parsed experiment: base run config plus sweep/replication plan."""

    sim: SimConfig
    mode: str = "run"  # run | sweep | stability
    axis: str | None = None
    values: tuple = ()
    protocols: tuple[str, ...] = ()
    reps: int = 1
    jobs: int = 1
    lo: float = 0.02
    hi: float = 0.8
    resolution: float = 0.02
    batch: int | None = None
    out: str | None = None
    name: str = "experiment"


def parse_values(text: str) -> tuple:
    """Axis values: either 'lo:hi:step' (inclusive) or a comma list.

    Numeric entries become int when integral, float otherwise; anything
    non-numeric is kept as a string (protocol names).
    """
    text = text.strip()
    if ":" in text and "," not in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be lo:hi:step, got {text!r}")
        try:
            # exact decimal arithmetic, so that 0:0.3:0.1 ends at float("0.3")
            lo, hi, step = (Decimal(p.strip()) for p in parts)
        except InvalidOperation:
            raise ConfigError(f"bad range {text!r}: not three decimal numbers") from None
        if not all(x.is_finite() for x in (lo, hi, step)) or step <= 0 or hi < lo:
            raise ConfigError(f"range {text!r} must have finite bounds, step > 0 and hi >= lo")
        n = int((hi - lo) // step)
        return tuple(_as_number(float(lo + i * step)) for i in range(n + 1))
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(_as_number(float(tok)))
        except ValueError:
            out.append(tok)
    if not out:
        raise ConfigError("empty values list")
    return tuple(out)


def _as_number(x: float):
    return int(round(x)) if abs(x - round(x)) < 1e-9 else x


def _parse_pmf(text: str) -> tuple[tuple[int, float], ...]:
    """'size:prob' pairs separated by commas, e.g. '15:0.001,0:0.999'."""
    pairs = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" not in tok:
            raise ConfigError(f"arrival entry {tok!r} must be size:prob")
        s, p = tok.split(":", 1)
        try:
            pairs.append((int(s), float(p)))
        except ValueError as e:
            raise ConfigError(f"bad arrival entry {tok!r}: {e}") from None
    if not pairs:
        raise ConfigError("empty arrival pmf")
    return tuple(pairs)


def _get(parser, section, key, fallback=None):
    if parser.has_option(section, key):
        val = parser.get(section, key).strip()
        return val if val else fallback
    return fallback


def _bool(text: str, where: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {text!r}")


def parse_config(parser: configparser.ConfigParser, name: str = "experiment") -> ExperimentSpec:
    """Build an ExperimentSpec from parsed INI content."""
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    def g(sec, key, fallback=None):
        return _get(parser, sec, key, fallback)

    try:
        kwargs = {}
        if g("sim", "relays"):
            kwargs["K"] = int(g("sim", "relays"))
        if g("sim", "protocol"):
            proto = g("sim", "protocol").lower()
            if proto not in PROTOCOL_CHOICES:
                raise ConfigError(f"unknown protocol {proto!r}")
            kwargs["protocol"] = proto
        if g("sim", "horizon"):
            kwargs["horizon"] = int(g("sim", "horizon"))
        if g("sim", "warmup"):
            kwargs["warmup"] = int(g("sim", "warmup"))
        if g("sim", "seed"):
            kwargs["seed"] = int(g("sim", "seed"))
        cap = g("sim", "buffer_capacity")
        if cap and cap.lower() != "none":
            kwargs["buffer_capacity"] = int(cap)
        for key, attr in (
            ("infinite_backlog", "infinite_backlog"),
            ("direct_delivery", "direct_delivery"),
            ("track_connectivity", "track_connectivity"),
            ("resample_within_region", "resample_within_region"),
        ):
            if g("sim", key):
                kwargs[attr] = _bool(g("sim", key), f"sim.{key}")
        if g("sim", "n_active"):
            kwargs["n_active"] = int(g("sim", "n_active"))
        if g("sim", "n_decode"):
            kwargs["n_decode"] = int(g("sim", "n_decode"))

        if g("geometry", "radius"):
            kwargs["radius"] = float(g("geometry", "radius"))
        if g("geometry", "regions"):
            kwargs["num_regions"] = int(g("geometry", "regions"))

        model = (g("mobility", "model") or "walk").lower()
        if model == "walk":
            q = float(g("mobility", "q") or 0.2)
            kwargs["mobility"] = RandomWalk(q=q)
        elif model == "waypoint":
            pause_max = int(g("mobility", "pause_max") or 10)
            kwargs["mobility"] = RandomWaypoint(
                speed_min=float(g("mobility", "speed_min") or 0.1),
                speed_max=float(g("mobility", "speed_max") or 0.6),
                pause_set=tuple(range(pause_max + 1)),
            )
        else:
            raise ConfigError(f"mobility.model must be walk or waypoint, got {model!r}")

        for key, attr in (
            ("bandwidth", "bandwidth"), ("power", "power"),
            ("alpha", "alpha"), ("xi", "xi"), ("tau", "tau"),
        ):
            if g("channel", key):
                kwargs[attr] = float(g("channel", key))
        rate = g("channel", "rate")
        if rate and rate.lower() != "auto":
            kwargs["rate"] = float(rate)
        fading = (g("channel", "fading") or "rayleigh").lower()
        if fading == "rayleigh":
            kwargs["fading"] = Rayleigh()
        elif fading == "table":
            gains = g("channel", "gains")
            probs = g("channel", "probs")
            if not gains or not probs:
                raise ConfigError("fading=table needs channel.gains and channel.probs")
            kwargs["fading"] = GainTable(
                gains=tuple(float(x) for x in gains.split(",")),
                probs=tuple(float(x) for x in probs.split(",")),
            )
        else:
            raise ConfigError(f"channel.fading must be rayleigh or table, got {fading!r}")

        arr = g("traffic", "arrivals")
        if arr:
            if arr.lower() == "none":
                kwargs["arrival_pmf"] = None
            else:
                kwargs["arrival_pmf"] = _parse_pmf(arr)
        bits = g("traffic", "packet_bits")
        if bits and bits.lower() != "auto":
            kwargs["packet_bits"] = float(bits)

        sim = SimConfig(**kwargs)

        mode = (g("experiment", "mode") or "run").lower()
        if mode not in ("run", "sweep", "stability"):
            raise ConfigError(f"experiment.mode must be run/sweep/stability, got {mode!r}")
        axis = g("experiment", "axis")
        if axis and axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
        values = parse_values(g("experiment", "values")) if g("experiment", "values") else ()
        protos_text = g("experiment", "protocols") or ""
        if protos_text.strip().lower() == "all":
            protocols = PROTOCOL_CHOICES
        elif protos_text.strip():
            protocols = tuple(p.strip().lower() for p in protos_text.split(",") if p.strip())
            for p in protocols:
                if p not in PROTOCOL_CHOICES:
                    raise ConfigError(f"unknown protocol {p!r} in experiment.protocols")
        else:
            protocols = ()
        batch = g("experiment", "batch")
        return ExperimentSpec(
            sim=sim,
            mode=mode,
            axis=axis,
            values=values,
            protocols=protocols,
            reps=int(g("experiment", "reps") or 1),
            jobs=int(g("experiment", "jobs") or 1),
            lo=float(g("experiment", "lo") or 0.02),
            hi=float(g("experiment", "hi") or 0.8),
            resolution=float(g("experiment", "resolution") or 0.02),
            batch=None if not batch or batch.lower() == "none" else int(batch),
            out=g("experiment", "out"),
            name=g("experiment", "name") or name,
        )
    except ConfigError:
        raise
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e


def _fresh_parser() -> configparser.ConfigParser:
    return configparser.ConfigParser(interpolation=None)


def load_config_file(path: str | Path) -> ExperimentSpec:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    parser = _fresh_parser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except configparser.Error as e:
        raise ConfigError(f"cannot parse {path}: {e}") from e
    return parse_config(parser, name=path.stem)


def load_preset(name: str) -> ExperimentSpec:
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    ref = resources.files("relaysim").joinpath(f"presets/{name}.ini")
    parser = _fresh_parser()
    try:
        parser.read_string(ref.read_text(encoding="utf-8"), source=name)
    except configparser.Error as e:
        raise ConfigError(f"cannot parse preset {name}: {e}") from e
    return parse_config(parser, name=name)


def apply_overrides(spec: ExperimentSpec, sets: list[str]) -> ExperimentSpec:
    """Apply --set section.key=value pairs on top of a parsed spec.

    Works by re-serializing the ExperimentSpec fields into a parser and
    re-parsing, so overrides behave exactly like editing the file.
    """
    if not sets:
        return spec
    parser = _fresh_parser()
    _spec_to_parser(spec, parser)
    for item in sets:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        section, key = section.strip(), key.strip()
        if section not in _KNOWN_KEYS or key not in _KNOWN_KEYS[section]:
            raise ConfigError(f"unknown override target {target!r}")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())
    return parse_config(parser, name=spec.name)


def _spec_to_parser(spec: ExperimentSpec, parser: configparser.ConfigParser) -> None:
    sim = spec.sim
    parser.add_section("sim")
    parser.set("sim", "relays", str(sim.K))
    parser.set("sim", "protocol", sim.protocol)
    parser.set("sim", "horizon", str(sim.horizon))
    if sim.warmup is not None:
        parser.set("sim", "warmup", str(sim.warmup))
    parser.set("sim", "seed", str(sim.seed))
    if sim.buffer_capacity is not None:
        parser.set("sim", "buffer_capacity", str(sim.buffer_capacity))
    parser.set("sim", "infinite_backlog", str(sim.infinite_backlog).lower())
    parser.set("sim", "direct_delivery", str(sim.direct_delivery).lower())
    parser.set("sim", "track_connectivity", str(sim.track_connectivity).lower())
    parser.set("sim", "resample_within_region", str(sim.resample_within_region).lower())
    parser.set("sim", "n_active", str(sim.n_active))
    parser.set("sim", "n_decode", str(sim.n_decode))
    parser.add_section("geometry")
    parser.set("geometry", "radius", repr(sim.radius))
    parser.set("geometry", "regions", str(sim.num_regions))
    parser.add_section("mobility")
    if isinstance(sim.mobility, RandomWalk):
        parser.set("mobility", "model", "walk")
        parser.set("mobility", "q", repr(sim.mobility.q))
    else:
        parser.set("mobility", "model", "waypoint")
        parser.set("mobility", "speed_min", repr(sim.mobility.speed_min))
        parser.set("mobility", "speed_max", repr(sim.mobility.speed_max))
        parser.set("mobility", "pause_max", str(max(sim.mobility.pause_set)))
    parser.add_section("channel")
    parser.set("channel", "bandwidth", repr(sim.bandwidth))
    parser.set("channel", "power", repr(sim.power))
    parser.set("channel", "alpha", repr(sim.alpha))
    parser.set("channel", "xi", repr(sim.xi))
    parser.set("channel", "tau", repr(sim.tau))
    parser.set("channel", "rate", "auto" if sim.rate is None else repr(sim.rate))
    if isinstance(sim.fading, Rayleigh):
        parser.set("channel", "fading", "rayleigh")
    else:
        parser.set("channel", "fading", "table")
        parser.set("channel", "gains", ",".join(repr(x) for x in sim.fading.gains))
        parser.set("channel", "probs", ",".join(repr(x) for x in sim.fading.probs))
    parser.add_section("traffic")
    if sim.arrival_pmf is None:
        parser.set("traffic", "arrivals", "none")
    else:
        parser.set("traffic", "arrivals",
                   ",".join(f"{s}:{p!r}" for s, p in sim.arrival_pmf))
    parser.set("traffic", "packet_bits",
               "auto" if sim.packet_bits is None else repr(sim.packet_bits))
    parser.add_section("experiment")
    parser.set("experiment", "mode", spec.mode)
    if spec.axis:
        parser.set("experiment", "axis", spec.axis)
    if spec.values:
        parser.set("experiment", "values", ",".join(str(v) for v in spec.values))
    if spec.protocols:
        parser.set("experiment", "protocols", ",".join(spec.protocols))
    parser.set("experiment", "reps", str(spec.reps))
    parser.set("experiment", "jobs", str(spec.jobs))
    parser.set("experiment", "lo", repr(spec.lo))
    parser.set("experiment", "hi", repr(spec.hi))
    parser.set("experiment", "resolution", repr(spec.resolution))
    if spec.batch is not None:
        parser.set("experiment", "batch", str(spec.batch))
    if spec.out:
        parser.set("experiment", "out", spec.out)
    parser.set("experiment", "name", spec.name)
