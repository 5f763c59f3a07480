"""Disk geometry, equal-area strips, and mobility models."""

import math

import numpy as np
import pytest

from relaysim import engine
from relaysim.engine import SimConfig
from relaysim.geometry import (
    DiskGeometry,
    RandomWalk,
    RandomWaypoint,
    build_disk,
    compute_region_boundaries,
    region_box,
    region_of,
    segment_area,
    walk_next,
)
from relaysim.rng import CounterRng

# boundaries of the radius-2.5, 5-strip reference disk, frozen from an
# independent bisection of the circular-segment area function
REFERENCE_BOUNDARIES = [
    0.0,
    1.270345418091,
    2.105659515500,
    2.894340484500,
    3.729654581909,
    5.0,
]


def test_segment_area_endpoints():
    r = 2.5
    assert segment_area(r, 0.0) == 0.0
    assert math.isclose(segment_area(r, 2 * r), math.pi * r * r, rel_tol=1e-14)
    assert math.isclose(segment_area(r, r), math.pi * r * r / 2, rel_tol=1e-12)


def test_reference_boundaries_frozen():
    got = compute_region_boundaries(2.5, 5)
    assert len(got) == 6
    for g, e in zip(got, REFERENCE_BOUNDARIES):
        assert abs(g - e) < 1e-9, f"{g} vs {e}"


def test_boundaries_symmetric_about_center():
    b = compute_region_boundaries(2.5, 5)
    for k in range(6):
        assert abs((b[k] + b[5 - k]) - 5.0) < 1e-9


def test_equal_area_invariant():
    for m in (1, 2, 3, 5, 8):
        geo = build_disk(2.5, m)
        target = geo.area / m
        for k in range(m):
            a = segment_area(2.5, geo.boundaries[k + 1]) - segment_area(2.5, geo.boundaries[k])
            assert abs(a - target) < 1e-9 * target


def test_geometry_anchor_points():
    geo = build_disk(2.5, 5)
    assert geo.source == (0.0, 0.0)
    assert geo.dest == (5.0, 0.0)
    assert geo.center == (2.5, 0.0)


def test_bad_parameters():
    with pytest.raises(ValueError):
        compute_region_boundaries(2.5, 0)
    with pytest.raises(ValueError):
        compute_region_boundaries(-1.0, 5)


def test_region_of_interior_and_boundaries():
    geo = build_disk(2.5, 5)
    b = geo.boundaries
    # strip interiors
    for k in range(5):
        x = 0.5 * (b[k] + b[k + 1])
        assert region_of(geo, (x, 0.0)) == k + 1
    # a point on an interior boundary belongs to the strip on its right
    assert region_of(geo, (b[1], 0.0)) == 2
    assert region_of(geo, (b[4], 0.0)) == 5
    # endpoint ownership
    assert region_of(geo, (0.0, 0.0)) == 1
    assert region_of(geo, (5.0, 0.0)) == 5
    with pytest.raises(ValueError):
        region_of(geo, (5.1, 0.0))
    with pytest.raises(ValueError):
        region_of(geo, (2.5, 2.6))


def fleet(K, mobility, seed=1, num_regions=5):
    """The engine's relay fleet on the radius-2.5 disk."""
    geo = build_disk(2.5, num_regions)
    cfg = SimConfig(K=K, num_regions=num_regions, mobility=mobility, seed=seed)
    return geo, engine._Fleet(cfg, geo, CounterRng(seed))


def uniform_disk_points(n, seed=1):
    """The fleet's initial relay points, drawn uniformly on the disk, (n, 2)."""
    return fleet(n, RandomWaypoint(), seed)[1].positions


def test_sample_uniform_disk_inside_and_uniform():
    geo = build_disk(2.5, 5)
    pts = uniform_disk_points(20000)
    assert np.all((pts[:, 0] - 2.5) ** 2 + pts[:, 1] ** 2 <= 2.5**2 * (1 + 1e-12))
    # equal-area strips must each catch ~1/5 of uniform points
    counts = np.bincount([region_of(geo, p) for p in pts], minlength=6)[1:]
    frac = counts / len(pts)
    assert np.all(np.abs(frac - 0.2) < 0.02), frac


def test_sample_uniform_in_region():
    # strip changes are placed by rejection from the strip's box, into the strip
    geo, walk = fleet(10, RandomWalk(), seed=5)
    n = 300
    frames = np.arange(n)
    for region in (1, 3, 5):
        state = np.full(n, 3**engine._WALK_GROUP * region)  # walk state of the strip
        x, y = walk._place(frames, np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64), state)
        assert all(region_of(geo, p) == region for p in zip(x, y))


def test_region_box_covers_strip():
    geo = build_disk(2.5, 5)
    pts = uniform_disk_points(5000, seed=9)
    regions = np.array([region_of(geo, p) for p in pts])
    for region in range(1, 6):
        x0, x1, h = region_box(geo, region)
        assert x0 == geo.boundaries[region - 1]
        assert x1 == geo.boundaries[region]
        x, y = pts[regions == region].T
        assert x.size > 500
        assert np.all((x0 <= x) & (x <= x1))
        assert np.all(np.abs(y) <= h + 1e-12)


def test_walk_next_semantics():
    M = 5
    q = 0.2
    # interior strip: down when u < q, up when u >= 1-q, stay otherwise
    assert walk_next(3, 0.1, q, M) == 2
    assert walk_next(3, 0.5, q, M) == 3
    assert walk_next(3, 0.85, q, M) == 4
    # threshold boundaries: u == q stays, u == 1-q moves up
    assert walk_next(3, q, q, M) == 3
    assert walk_next(3, 1.0 - q, q, M) == 4
    # edges: strip 1 moves up when u < q, strip M moves down when u < q
    assert walk_next(1, 0.1, q, M) == 2
    assert walk_next(1, 0.9, q, M) == 1
    assert walk_next(M, 0.1, q, M) == M - 1
    assert walk_next(M, 0.9, q, M) == M
    # single strip never moves
    assert walk_next(1, 0.01, q, 1) == 1


def test_walk_next_array_matches_scalar():
    rng = np.random.default_rng(3)
    M, q = 5, 0.3
    regions = rng.integers(1, M + 1, size=500)
    u = rng.random(500)
    vec = walk_next(regions, u, q, M)
    for i in range(500):
        assert vec[i] == walk_next(int(regions[i]), float(u[i]), q, M)


def test_walk_stationary_distribution_uniform():
    # the edge rules make the chain doubly stochastic, so the stationary
    # distribution over strips is uniform
    M, q = 5, 0.2
    rng = np.random.default_rng(17)
    n_relays, n_steps = 300, 2000
    states = rng.integers(1, M + 1, n_relays)
    counts = np.zeros(M + 1)
    for _ in range(n_steps):
        states = walk_next(states, rng.random(n_relays), q, M)
        counts += np.bincount(states, minlength=M + 1)
    frac = counts[1:] / counts.sum()
    assert np.all(np.abs(frac - 1.0 / M) < 0.02), frac


def test_mobility_model_validation():
    with pytest.raises(ValueError):
        RandomWalk(q=0.6)
    with pytest.raises(ValueError):
        RandomWalk(q=-0.1)
    RandomWalk(q=0.0)
    RandomWalk(q=0.5)
    with pytest.raises(ValueError):
        RandomWaypoint(speed_min=0.0, speed_max=0.5)
    with pytest.raises(ValueError):
        RandomWaypoint(speed_min=0.6, speed_max=0.5)
    with pytest.raises(ValueError):
        RandomWaypoint(pause_set=())
    with pytest.raises(ValueError):
        RandomWaypoint(pause_set=(-1, 0))


def test_waypoint_pause_and_advance():
    model = RandomWaypoint(speed_min=0.1, speed_max=0.2, pause_set=(3,))
    geo, wp = fleet(2, model, seed=4)
    # relay 0 pauses two frames, then heads for (2, 0) at 0.25 per frame;
    # relay 1 reaches its target in its next step
    wp.positions[:] = ((1.0, 0.0), (1.9, 0.0))
    wp.targets[:] = ((2.0, 0.0), (2.0, 0.0))
    wp.speeds[:] = (0.25, 0.25)
    wp.pause_left[:] = (2, 0)
    wp.walk(0, 1)
    # pause frames tick down without moving
    assert tuple(wp.positions[0]) == (1.0, 0.0) and wp.pause_left[0] == 1
    # arrival snaps to the target and draws a pause from the model's set, a
    # speed in its range and a target in the disk
    assert tuple(wp.positions[1]) == (2.0, 0.0)
    assert wp.pause_left[1] == 3
    assert model.speed_min <= wp.speeds[1] <= model.speed_max
    tx, ty = wp.targets[1]
    assert (tx - 2.5) ** 2 + ty**2 <= 2.5**2 + 1e-12
    wp.walk(1, 1)
    assert tuple(wp.positions[0]) == (1.0, 0.0) and wp.pause_left[0] == 0
    # then the relay advances straight toward the target by its speed
    wp.walk(2, 1)
    assert math.isclose(wp.positions[0, 0], 1.25) and wp.positions[0, 1] == 0.0
    src_dpow, _ = wp.fill()
    assert math.isclose(src_dpow[0, 0], 1.25**4)


def test_waypoint_stays_in_disk():
    geo, wp = fleet(50, RandomWaypoint(speed_min=0.1, speed_max=0.6, pause_set=tuple(range(11))),
                    seed=8)
    wp.walk(0, 3000)
    x, y = wp._pos[..., 0], wp._pos[..., 1]
    assert np.all((x - 2.5) ** 2 + y * y <= 2.5**2 * (1 + 1e-9))
