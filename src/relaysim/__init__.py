"""Frame-synchronous simulator for a buffered mobile-relay link.

A source talks to a destination across a disk of mobile relays. Protocols
decide per frame whether the source broadcasts or a relay forwards; the
package measures throughput, queue stability, and packet delay, and checks
the results against closed-form order and queueing expressions.
"""

from .analysis import (
    OrderParams,
    PgfSpec,
    ServiceMoments,
    StabilityError,
    ddf_delay_order,
    ddf_service_components,
    ddf_service_time_order,
    ddf_throughput_order,
    intake_time_order,
    loglog_order_fit,
    mx_g1_wait,
    obdwf_delay_order,
    obdwf_throughput_bound,
    pgf_mean_system,
    stability_gain_order,
)
from .channel import (
    GainTable,
    PhyParams,
    Rayleigh,
    af_effective_snr,
    connect_threshold,
    connection_probability_mc,
)
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
    ConservationFailure,
    RateBracket,
    RunMetrics,
    SimConfig,
    StabilityVerdict,
    SWEEP_AXES,
    SweepRow,
    aggregate_metric,
    apply_axis,
    assess_stability,
    max_stable_rate,
    replicate,
    run,
    sweep,
    validate_config,
)
from .geometry import DiskGeometry, RandomWalk, RandomWaypoint, build_disk, region_of
from .protocols import (
    PROTOCOL_NAMES,
    ROLE_BROADCAST,
    ROLE_FORWARD,
    ROLE_IDLE,
    FrameLinks,
    FrameOutcome,
    make_protocol,
)
from .rng import CounterRng, FrameStream
from .traffic import ArrivalDistribution, InfiniteBacklog, Packet, RelayBank, SourceQueue
from .validation import CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "OrderParams", "PgfSpec", "ServiceMoments", "StabilityError",
    "ddf_delay_order", "ddf_service_components", "ddf_service_time_order",
    "ddf_throughput_order", "intake_time_order", "loglog_order_fit",
    "mx_g1_wait", "obdwf_delay_order", "obdwf_throughput_bound",
    "pgf_mean_system", "stability_gain_order",
    "GainTable", "PhyParams", "Rayleigh", "af_effective_snr",
    "connect_threshold", "connection_probability_mc",
    "PRESET_NAMES", "ConfigError", "ExperimentSpec",
    "apply_overrides", "load_config_file", "load_preset", "parse_values",
    "ConservationFailure", "RateBracket", "RunMetrics", "SimConfig", "StabilityVerdict",
    "SWEEP_AXES", "SweepRow", "aggregate_metric", "apply_axis",
    "assess_stability", "max_stable_rate", "replicate", "run", "sweep",
    "validate_config",
    "DiskGeometry", "RandomWalk", "RandomWaypoint", "build_disk", "region_of",
    "PROTOCOL_NAMES", "ROLE_BROADCAST", "ROLE_FORWARD", "ROLE_IDLE",
    "FrameLinks", "FrameOutcome", "make_protocol",
    "CounterRng", "FrameStream",
    "ArrivalDistribution", "InfiniteBacklog", "Packet", "RelayBank", "SourceQueue",
    "CheckResult", "run_suite",
    "__version__",
]
