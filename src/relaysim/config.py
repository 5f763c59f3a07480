"""INI experiment configuration: parsing, presets, overrides.

A config file has sections [sim], [geometry], [mobility], [channel],
[traffic], and [experiment]. _KEYS lists every key once, with the SimConfig
or ExperimentSpec field it sets and the parser of its value; unknown
sections and keys are rejected so typos fail loudly. A file's keys apply on
top of the engine defaults, and an empty value leaves its field as it is.
`--set section.key=value` overrides apply on top of a parsed spec and change
their own field and nothing else; an empty override value is rejected.

The mobility keys build one model together, and so do the fading keys: they
start from the model in force, or from the defaults of the type that the
model or fading key switches to, and a key that the resulting model does not
have is rejected.

Presets shipped with the package (fig3a .. fig7) are ready-made experiment
plans: throughput sweeps, stability bisections, and delay studies.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace
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
]

PRESET_NAMES = ("fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b", "fig6", "fig7")


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
    non-numeric is kept as a string (protocol names). A number that is not
    finite is rejected.
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
            x = float(tok)
        except ValueError:
            out.append(tok)
        else:
            out.append(_as_number(x))
    if not out:
        raise ConfigError("empty values list")
    return tuple(out)


def _as_number(x: float):
    if not math.isfinite(x):
        raise ConfigError(f"axis value {x} is not finite")
    return int(x) if x.is_integer() else x


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
        pairs.append((int(s), float(p)))
    if not pairs:
        raise ConfigError("empty arrival pmf")
    return tuple(pairs)


def _bool(text: str) -> bool:
    t = text.lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _one_of(choices, fold=str.lower):
    """Parser of a name in `choices`, compared after `fold`; a dict maps each
    name to the value parsed."""

    def parse(text: str):
        name = fold(text)
        if name not in choices:
            raise ConfigError(f"expected one of {', '.join(choices)}, got {text!r}")
        return choices[name] if isinstance(choices, dict) else name

    return parse


def _or_none(word: str, parse):
    """Parser of `parse`'s values, or None for the keyword `word`."""
    return lambda text: None if text.lower() == word else parse(text)


def _protocols(text: str) -> tuple[str, ...]:
    if text.lower() == "all":
        return PROTOCOL_NAMES
    protocol = _one_of(PROTOCOL_NAMES)
    return tuple(protocol(p.strip()) for p in text.split(",") if p.strip())


# Every INI key, (section, key) -> (field, parser of its value). The fields of
# [experiment] keys are ExperimentSpec fields, the others SimConfig fields. The
# mobility and fading keys name the model's type (field "mobility"/"fading") or
# one field of the model ("mobility.q" is field q of SimConfig.mobility).
_KEYS = {
    ("sim", "relays"): ("K", int),
    ("sim", "protocol"): ("protocol", _one_of(PROTOCOL_NAMES)),
    ("sim", "horizon"): ("horizon", int),
    ("sim", "warmup"): ("warmup", int),
    ("sim", "seed"): ("seed", int),
    ("sim", "buffer_capacity"): ("buffer_capacity", _or_none("none", int)),
    ("sim", "infinite_backlog"): ("infinite_backlog", _bool),
    ("sim", "n_active"): ("n_active", int),
    ("sim", "n_decode"): ("n_decode", int),
    ("sim", "direct_delivery"): ("direct_delivery", _bool),
    ("sim", "track_connectivity"): ("track_connectivity", _bool),
    ("sim", "resample_within_region"): ("resample_within_region", _bool),
    ("geometry", "radius"): ("radius", float),
    ("geometry", "regions"): ("num_regions", int),
    ("mobility", "model"): ("mobility", _one_of({"walk": RandomWalk, "waypoint": RandomWaypoint})),
    ("mobility", "q"): ("mobility.q", float),
    ("mobility", "speed_min"): ("mobility.speed_min", float),
    ("mobility", "speed_max"): ("mobility.speed_max", float),
    ("mobility", "pause_max"): ("mobility.pause_set", lambda t: tuple(range(int(t) + 1))),
    ("channel", "bandwidth"): ("bandwidth", float),
    ("channel", "power"): ("power", float),
    ("channel", "alpha"): ("alpha", float),
    ("channel", "xi"): ("xi", float),
    ("channel", "rate"): ("rate", _or_none("auto", float)),
    ("channel", "tau"): ("tau", float),
    ("channel", "fading"): ("fading", _one_of({"rayleigh": Rayleigh, "table": GainTable})),
    ("channel", "gains"): ("fading.gains", _floats),
    ("channel", "probs"): ("fading.probs", _floats),
    ("traffic", "arrivals"): ("arrival_pmf", _or_none("none", _parse_pmf)),
    ("traffic", "packet_bits"): ("packet_bits", _or_none("auto", float)),
    ("experiment", "mode"): ("mode", _one_of(("run", "sweep", "stability"))),
    ("experiment", "axis"): ("axis", _one_of(SWEEP_AXES, fold=str)),
    ("experiment", "values"): ("values", parse_values),
    ("experiment", "protocols"): ("protocols", _protocols),
    ("experiment", "reps"): ("reps", int),
    ("experiment", "jobs"): ("jobs", int),
    ("experiment", "lo"): ("lo", float),
    ("experiment", "hi"): ("hi", float),
    ("experiment", "resolution"): ("resolution", float),
    ("experiment", "batch"): ("batch", _or_none("none", int)),
    ("experiment", "out"): ("out", str),
    ("experiment", "name"): ("name", str),
}
_SECTIONS = {section for section, _ in _KEYS}


def _apply(spec: ExperimentSpec, entries) -> ExperimentSpec:
    """spec with the INI entries (section, key, value text) applied on top;
    an entry with an empty value leaves its field as it is."""
    sim, plan = {}, {}
    models = {"mobility": {}, "fading": {}}  # model field -> (value, INI key)
    for section, key, text in entries:
        if (section, key) not in _KEYS:
            raise ConfigError(f"unknown key {key!r} in [{section}]")
        text = text.strip()
        if not text:
            continue
        target, parse = _KEYS[section, key]
        try:
            value = parse(text)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"{section}.{key}: {e}") from e
        model, _, field = target.rpartition(".")
        if model:
            models[model][field] = value, f"{section}.{key}"
        else:
            (plan if section == "experiment" else sim)[target] = value
    for model, keyed in models.items():
        if model in sim or keyed:
            sim[model] = _model(getattr(spec.sim, model), sim.get(model), keyed)
    return replace(spec, sim=replace(spec.sim, **sim), **plan)


def _model(current, cls, keyed: dict):
    """The model of type cls (None: current's type) with the fields `keyed`
    ({field: (value, INI key)}) set: built on current when it has that type,
    and on cls's defaults otherwise."""
    cls = cls or type(current)
    names = {f.name for f in fields(cls)}
    for field, (_, key) in keyed.items():
        if field not in names:
            raise ConfigError(f"{key} does not apply to {cls.__name__}")
    values = {field: value for field, (value, _) in keyed.items()}
    try:
        return replace(current, **values) if type(current) is cls else cls(**values)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{cls.__name__}: {e}") from e


def parse_config(parser: configparser.ConfigParser, name: str = "experiment") -> ExperimentSpec:
    """Build an ExperimentSpec from parsed INI content."""
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    entries = [(s, key, text) for s in parser.sections() for key, text in parser.items(s)]
    return _apply(ExperimentSpec(sim=SimConfig(), name=name), entries)


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

    Each pair sets its own field the way the key does in a file, on the spec
    as it is, and leaves every other field alone; an empty value is rejected.
    """
    if not sets:
        return spec
    entries = []
    for item in sets:
        target, eq, value = item.partition("=")
        section, dot, key = target.partition(".")
        if not eq or not dot:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        if not value.strip():
            raise ConfigError(f"--set {target} has an empty value")
        entries.append((section.strip(), key.strip(), value))
    return _apply(spec, entries)
