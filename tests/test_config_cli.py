"""INI config parsing, presets, overrides, and the command-line interface."""

import csv
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from relaysim import validation
from relaysim.channel import GainTable, Rayleigh
from relaysim.cli import main
from relaysim.config import (
    PRESET_NAMES,
    ConfigError,
    ExperimentSpec,
    apply_overrides,
    load_config_file,
    load_preset,
    parse_values,
)
from relaysim.engine import SimConfig
from relaysim.geometry import RandomWalk, RandomWaypoint
from relaysim.protocols import PROTOCOL_NAMES
from relaysim.validation import CheckResult


FULL_INI = """
[sim]
relays = 42
protocol = dfsc
horizon = 5000
warmup = 500
seed = 7
buffer_capacity = 9
infinite_backlog = false
n_active = 3
n_decode = 2
direct_delivery = off
track_connectivity = yes
resample_within_region = no

[geometry]
radius = 2.0
regions = 4

[mobility]
model = walk
q = 0.3

[channel]
bandwidth = 2e6
power = 50
alpha = 3.0
xi = 0.9
rate = 1.5e6
tau = 0.002
fading = table
gains = 0.5,1.5
probs = 0.5,0.5

[traffic]
arrivals = 3:0.01,0:0.99
packet_bits = 3000

[experiment]
mode = sweep
axis = K
values = 10,20
protocols = obdwf,ddf
reps = 2
jobs = 1
lo = 0.1
hi = 0.5
resolution = 0.05
batch = 4
out = results
name = demo
"""


def write_ini(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ---------- value parsing ----------


def test_parse_values_range_ints():
    vals = parse_values("20:200:20")
    assert vals == (20, 40, 60, 80, 100, 120, 140, 160, 180, 200)
    assert all(isinstance(v, int) for v in vals)


def test_parse_values_range_floats():
    vals = parse_values("0.005:0.1:0.005")
    assert len(vals) == 20
    assert abs(vals[0] - 0.005) < 1e-12
    assert abs(vals[-1] - 0.1) < 1e-9  # inclusive despite float stepping
    assert all(isinstance(v, float) for v in vals)


def test_parse_values_range_steps_are_exact_decimals():
    # each value is float() of its exact decimal value, not an accumulated sum
    assert parse_values("0:0.3:0.1") == (0, 0.1, 0.2, 0.3)
    assert parse_values("0.1:0.7:0.1") == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    vals = parse_values("0.005:0.1:0.005")
    assert vals == tuple(float(f"0.{k:03d}") for k in range(5, 101, 5))
    assert parse_values("1:2:0.3") == (1, 1.3, 1.6, 1.9)  # hi off the grid is left out


def test_parse_values_comma_list():
    assert parse_values("60,110,160") == (60, 110, 160)
    assert parse_values("obdwf, ddf") == ("obdwf", "ddf")
    assert parse_values("1, 2.5, af") == (1, 2.5, "af")
    assert parse_values("5.0") == (5,)


def test_parse_values_keeps_near_integers_as_floats():
    # only an exactly integral value becomes an int
    assert parse_values("1e-10") == (1e-10,)
    vals = parse_values("0.0000000004,2.0000000001")
    assert vals == (4e-10, 2.0000000001)
    assert all(isinstance(v, float) for v in vals)
    assert parse_values("5.0") == (5,) and isinstance(parse_values("5.0")[0], int)
    assert all(isinstance(v, int) for v in parse_values("20:200:20"))


def test_parse_values_errors():
    for bad in ("1:2", "1:2:3:4", "2:1:0.5", "1:2:0", "a:b:c", "0:inf:1", "nan:1:1", "", " , ",
                "0.1,inf", "1e400", "0.1,nan", "0:1e400:1e399"):
        with pytest.raises(ConfigError):
            parse_values(bad)


# ---------- file parsing ----------


def test_full_ini_round_trip(tmp_path):
    spec = load_config_file(write_ini(tmp_path, FULL_INI))
    sim = spec.sim
    assert sim.K == 42
    assert sim.protocol == "dfsc"
    assert sim.horizon == 5000 and sim.warmup == 500 and sim.seed == 7
    assert sim.buffer_capacity == 9
    assert sim.infinite_backlog is False
    assert sim.n_active == 3 and sim.n_decode == 2
    assert sim.direct_delivery is False
    assert sim.track_connectivity is True
    assert sim.resample_within_region is False
    assert sim.radius == 2.0 and sim.num_regions == 4
    assert sim.mobility == RandomWalk(q=0.3)
    assert sim.bandwidth == 2e6 and sim.power == 50.0
    assert sim.alpha == 3.0 and sim.xi == 0.9
    assert sim.rate == 1.5e6 and sim.tau == 0.002
    assert sim.fading == GainTable(gains=(0.5, 1.5), probs=(0.5, 0.5))
    assert sim.arrival_pmf == ((3, 0.01), (0, 0.99))
    assert sim.packet_bits == 3000.0
    assert spec.mode == "sweep" and spec.axis == "K"
    assert spec.values == (10, 20)
    assert spec.protocols == ("obdwf", "ddf")
    assert spec.reps == 2 and spec.jobs == 1
    assert (spec.lo, spec.hi, spec.resolution) == (0.1, 0.5, 0.05)
    assert spec.batch == 4
    assert spec.out == "results" and spec.name == "demo"


def test_defaults_and_name_from_stem(tmp_path):
    spec = load_config_file(write_ini(tmp_path, "[sim]\nrelays = 9\n", "tiny.ini"))
    assert spec.sim.K == 9
    assert spec.sim.fading == Rayleigh()
    assert spec.sim.mobility == RandomWalk(q=0.2)
    assert spec.mode == "run" and spec.name == "tiny"
    assert spec.values == () and spec.protocols == ()


def test_waypoint_and_auto_keywords(tmp_path):
    text = """
[mobility]
model = waypoint
speed_min = 0.2
speed_max = 0.5
pause_max = 3

[channel]
rate = auto

[traffic]
arrivals = none
packet_bits = auto

[sim]
infinite_backlog = true
"""
    spec = load_config_file(write_ini(tmp_path, text))
    assert spec.sim.mobility == RandomWaypoint(
        speed_min=0.2, speed_max=0.5, pause_set=(0, 1, 2, 3)
    )
    assert spec.sim.rate is None
    assert spec.sim.arrival_pmf is None
    assert spec.sim.packet_bits is None
    assert spec.sim.infinite_backlog is True


def test_protocols_all_keyword(tmp_path):
    spec = load_config_file(
        write_ini(tmp_path, "[experiment]\nprotocols = all\n")
    )
    assert spec.protocols == PROTOCOL_NAMES


def test_config_errors(tmp_path):
    cases = [
        "[nope]\nx = 1\n",
        "[sim]\nbogus = 1\n",
        "[sim]\nprotocol = nope\n",
        "[sim]\ninfinite_backlog = sort-of\n",
        "[sim]\nrelays = ten\n",
        "[mobility]\nmodel = teleport\n",
        "[channel]\nfading = table\n",  # missing gains/probs
        "[channel]\nfading = magic\n",
        "[traffic]\narrivals = 3-0.01\n",
        "[experiment]\nmode = fly\n",
        "[experiment]\naxis = nope\n",
        "[experiment]\nprotocols = obdwf,nope\n",
        # keys that the model in force does not have
        "[mobility]\nspeed_max = 0.9\n",
        "[mobility]\nmodel = waypoint\nq = 0.3\n",
        "[channel]\ngains = 0.5,1.5\nprobs = 0.5,0.5\n",
    ]
    for text in cases:
        with pytest.raises(ConfigError):
            load_config_file(write_ini(tmp_path, text))


def test_empty_file_value_means_absent(tmp_path):
    spec = load_config_file(write_ini(tmp_path, "[sim]\nbuffer_capacity =\nrelays = 9\n"))
    assert spec.sim.buffer_capacity is None and spec.sim.K == 9


def test_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        load_config_file("/nonexistent/zzz.ini")


# ---------- presets ----------


def test_all_presets_load():
    for name in PRESET_NAMES:
        spec = load_preset(name)
        assert spec.name == name
        assert spec.sim.K >= 1
    with pytest.raises(ConfigError):
        load_preset("fig99")


def test_preset_contracts():
    fig3a = load_preset("fig3a")
    assert fig3a.mode == "sweep" and fig3a.axis == "K"
    assert fig3a.values[0] == 20 and fig3a.values[-1] == 200
    assert fig3a.sim.infinite_backlog
    fig4a = load_preset("fig4a")
    assert fig4a.mode == "stability" and fig4a.batch == 15
    fig6 = load_preset("fig6")
    assert fig6.axis == "lambda"
    assert "obdwf" in fig6.protocols
    fig7 = load_preset("fig7")
    assert isinstance(fig7.sim.mobility, RandomWaypoint)


# ---------- overrides ----------


def test_apply_overrides(tmp_path):
    spec = load_config_file(write_ini(tmp_path, FULL_INI))
    assert apply_overrides(spec, []) is spec
    # an override that restates a value changes nothing
    assert apply_overrides(spec, ["sim.seed=7"]) == spec
    changed = apply_overrides(spec, ["sim.relays=64", "experiment.reps=5"])
    assert changed.sim.K == 64 and changed.reps == 5
    assert changed.sim.protocol == spec.sim.protocol
    assert changed.values == spec.values and changed.name == spec.name
    for bad in ("sim.relays", "norelays=1", "nope.key=1", "sim.bogus=1"):
        with pytest.raises(ConfigError):
            apply_overrides(spec, [bad])


def test_override_preset():
    spec = apply_overrides(load_preset("fig3a"), ["sim.relays=10", "sim.horizon=400"])
    assert spec.sim.K == 10 and spec.sim.horizon == 400
    assert spec.mode == "sweep"


def test_override_keeps_fields_without_ini_keys():
    sim = SimConfig(K=2, pinned_positions=((1.0, 0.0), (4.0, 0.5)), record_trace=True,
                    traj_stride=3, abort_queue_threshold=50, conservation_check_every=100)
    spec = apply_overrides(ExperimentSpec(sim=sim), ["sim.horizon=5000"])
    assert spec.sim == replace(sim, horizon=5000)


def test_override_keeps_the_model_in_force():
    walk = ExperimentSpec(sim=SimConfig(mobility=RandomWalk(q=0.3)))
    waypoint = ExperimentSpec(sim=SimConfig(mobility=RandomWaypoint(pause_set=(0, 5))))
    # a key of the model in force changes that field alone
    assert apply_overrides(waypoint, ["mobility.speed_max=0.9"]).sim.mobility == RandomWaypoint(
        speed_max=0.9, pause_set=(0, 5))
    assert apply_overrides(waypoint, ["sim.relays=20"]).sim.mobility.pause_set == (0, 5)
    assert apply_overrides(walk, ["mobility.model=walk"]).sim.mobility == RandomWalk(q=0.3)
    # switching the type starts from the new type's defaults
    assert apply_overrides(walk, ["mobility.model=waypoint"]).sim.mobility == RandomWaypoint()
    assert apply_overrides(waypoint, ["mobility.model=walk"]).sim.mobility == RandomWalk()
    table = apply_overrides(walk, ["channel.fading=table", "channel.gains=0.5,1.5",
                                   "channel.probs=0.5,0.5"]).sim.fading
    assert table == GainTable(gains=(0.5, 1.5), probs=(0.5, 0.5))
    assert apply_overrides(replace(walk, sim=replace(walk.sim, fading=table)),
                           ["channel.fading=rayleigh"]).sim.fading == Rayleigh()


@pytest.mark.parametrize("preset, sets", [
    ("fig7", ["mobility.q=0.3"]),
    ("fig3a", ["mobility.speed_max=0.9"]),
    ("fig3a", ["mobility.pause_max=4"]),
    ("fig3a", ["mobility.model=waypoint", "mobility.q=0.3"]),
    ("fig3a", ["channel.gains=0.5,1.5", "channel.probs=0.5,0.5"]),
    ("fig3a", ["channel.fading=table", "channel.gains=0.5,1.5"]),  # probs missing
    ("fig5a", ["sim.buffer_capacity="]),  # empty values are rejected
    ("fig5a", ["sim.buffer_capacity= "]),
])
def test_override_errors(preset, sets):
    with pytest.raises(ConfigError):
        apply_overrides(load_preset(preset), sets)


# ---------- CLI ----------


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def test_cli_run_writes_csv(tmp_path, capsys):
    rc = main([
        "run", "--out", str(tmp_path), "--seed", "9",
        "--set", "sim.relays=10", "--set", "sim.horizon=2000",
    ])
    assert rc == 0
    out = tmp_path / "experiment_run.csv"
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF line endings
    rows = read_csv(out)
    assert rows[0] == ["metric", "unit", "mean", "ci_low", "ci_high", "n_reps"]
    metrics = [r[0] for r in rows[1:]]
    assert "throughput" in metrics and metrics[-1] == "unstable_flag"
    by_name = {r[0]: r for r in rows[1:]}
    tput = by_name["throughput"]
    assert f"{float(tput[2]):.15g}" == tput[2]  # 15-significant-digit format
    assert tput[5] == "1"
    assert by_name["unstable_flag"][2] == "0"
    assert "wrote" in capsys.readouterr().out


def test_cli_run_deterministic_bytes(tmp_path):
    args = ["run", "--seed", "4", "--set", "sim.relays=10",
            "--set", "sim.horizon=2000"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "experiment_run.csv").read_bytes() == (b / "experiment_run.csv").read_bytes()


def test_cli_run_warns_on_packet_bits(tmp_path, capsys):
    rc = main([
        "run", "--out", str(tmp_path),
        "--set", "sim.relays=10", "--set", "sim.horizon=1200",
        "--set", "traffic.packet_bits=999",
    ])
    assert rc == 0
    assert "packet_bits" in capsys.readouterr().err


def test_cli_sweep_lambda(tmp_path, capsys):
    rc = main([
        "sweep", "--axis", "lambda", "--values", "0.01,0.02", "--reps", "1",
        "--seed", "77", "--out", str(tmp_path),
        "--set", "sim.relays=12", "--set", "sim.horizon=3000",
    ])
    assert rc == 0
    rows = read_csv(tmp_path / "experiment.csv")
    assert rows[0] == ["axis", "value", "protocol", "metric",
                       "mean", "ci_low", "ci_high", "n_reps", "seed_base"]
    body = rows[1:]
    assert all(r[0] == "lambda" and r[2] == "obdwf" and r[8] == "77" for r in body)
    assert {r[1] for r in body} == {"0.01", "0.02"}
    by_metric = {}
    for r in body:
        by_metric.setdefault(r[3], []).append(r)
    assert "throughput" in by_metric
    # frame-valued delay metrics get a twin row converted to seconds
    assert "mean_delay" in by_metric and "mean_delay_seconds" in by_metric
    d = float(by_metric["mean_delay"][0][4])
    ds = float(by_metric["mean_delay_seconds"][0][4])
    assert math.isclose(ds, d * 0.005, rel_tol=1e-12)
    # companion plot script: inline data, one output per metric, no _seconds
    script = (tmp_path / "experiment.gnuplot").read_text(encoding="utf-8")
    assert "$data_throughput_obdwf << EOD" in script
    assert "set output 'experiment_throughput.png'" in script
    assert "_seconds" not in script
    out = capsys.readouterr().out
    assert "wrote" in out


def test_cli_run_dispatches_to_sweep_mode(tmp_path):
    ini = write_ini(tmp_path, """
[sim]
relays = 12
horizon = 1500
infinite_backlog = true

[traffic]
arrivals = none

[experiment]
mode = sweep
axis = protocol
values = obdwf,ddf
""", "plan.ini")
    rc = main(["run", "--config", str(ini), "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "plan.csv")  # name comes from the file stem
    assert {r[2] for r in rows[1:]} == {"obdwf", "ddf"}
    # backlog runs have no delay samples, so no *_seconds rows appear
    assert all(not r[3].endswith("_seconds") for r in rows[1:])


def test_cli_stability_unstable_probe(tmp_path, capsys):
    rc = main([
        "stability", "--lo", "0.7", "--hi", "0.8", "--resolution", "0.1",
        "--out", str(tmp_path), "--set", "sim.relays=8",
    ])
    assert rc == 0
    rows = read_csv(tmp_path / "experiment_stability.csv")
    assert rows[0] == ["axis", "value", "protocol", "stable_rate", "unstable_rate",
                       "midpoint", "resolution", "n_probes", "seed"]
    assert len(rows) == 2
    row = rows[1]
    assert row[2] == "obdwf"
    assert row[3] == "0" and row[4] == "0.7"  # nothing stable at or above lo
    assert row[7] == "1"
    assert "unstable>=" in capsys.readouterr().out


def test_cli_stability_jobs_keep_plan_order_and_bytes(tmp_path, capsys):
    # both brackets stop at their first probe, which aborts a few thousand frames in
    plan = ["stability", "--set", "experiment.protocols=ddf,dfsc", "--lo", "0.5", "--hi", "0.9"]
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert main(plan + ["--jobs", jobs, "--out", str(out)]) == 0
        outputs.append(((out / "experiment_stability.csv").read_bytes(),
                        capsys.readouterr().out.replace(str(out), "OUT")))
    assert outputs[0] == outputs[1]
    rows = read_csv(tmp_path / "2" / "experiment_stability.csv")
    assert [r[2] for r in rows[1:]] == ["ddf", "dfsc"]
    assert all(r[3] == "0" and r[4] == "0.5" and r[7] == "1" for r in rows[1:])


def test_import_leaves_scipy_stats_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, relaysim.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_cli_validate_exit_codes(tmp_path, capsys, monkeypatch):
    def suite_pass(seed=1):
        return [CheckResult("alpha", True, {"x": 1.5}, "exp", "ok")]

    def suite_fail(seed=1):
        return [CheckResult("alpha", True, {}, "exp", "ok"),
                CheckResult("beta", False, {"y": 2.0}, "exp", "bad")]

    monkeypatch.setattr(validation, "run_suite", suite_pass)
    assert main(["validate", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] alpha" in out and "x = 1.5" in out
    rows = read_csv(tmp_path / "validation_report.csv")
    assert rows[0] == ["check", "passed", "expected", "detail"]
    assert rows[1][:2] == ["alpha", "1"]

    monkeypatch.setattr(validation, "run_suite", suite_fail)
    assert main(["validate", "--out", str(tmp_path)]) == 1
    assert "[FAIL] beta" in capsys.readouterr().out


def test_cli_usage_errors(tmp_path, capsys):
    ini = write_ini(tmp_path, "[sim]\nrelays = 5\n")
    assert main(["run", "--preset", "fig3a", "--config", str(ini)]) == 2
    assert main(["run", "--config", "/nonexistent/zzz.ini"]) == 2
    assert main(["run", "--set", "nope.key=1"]) == 2
    assert main(["sweep", "--axis", "K", "--values", "bad:range"]) == 2
    assert main(["sweep", "--axis", "lambda", "--values", "0.1,inf"]) == 2
    assert main(["sweep", "--axis", "lambda", "--values", "1e400"]) == 2
    assert main(["stability", "--lo", "0.9", "--hi", "0.2",
                 "--set", "sim.relays=5"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    with pytest.raises(SystemExit):
        main(["run", "--preset", "fig99"])  # argparse rejects unknown choices
