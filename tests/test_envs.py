import hashlib
import json
import math
import re
import struct
from dataclasses import fields
from itertools import combinations, product

import numpy as np
import pytest

from gen import mask, reference_lidar, reference_view
from ltlnav.envs import (
    ACCEL, DT, MAX_SPEED, SENSOR_RANGE, TURN_RATE,
    EnvConfig, LayoutInfeasible, LetterWorld, ZoneSim,
    achievable_assignments, alphabet_for, make_env,
)


def grid_config(**kw):
    return EnvConfig(env="letterworld", **kw)


def zone_config(**kw):
    return EnvConfig(env="zonesim", **kw)


# -- config -------------------------------------------------------------------


class TestConfig:
    def test_per_env_defaults(self):
        c = grid_config()
        assert c.letters == tuple("abcdefghijkl") and c.max_steps == 75
        z = zone_config()
        assert z.letters == ("blue", "green", "magenta", "yellow")
        assert z.max_steps == 1000

    def test_json_round_trip(self):
        # every field away from its default, including the ones the env
        # does not read
        away = dict(grid_size=5, letters=("blue", "green"),
                    copies_per_letter=3, zones_per_color=1, zone_radius=0.7,
                    lidar_beams=8, max_steps=40, overlap_mode=True,
                    arena_half_extent=3.0,
                    fixed_zones=(("blue", (0.0, 1.0), 0.4),),
                    agent_start=(0.5, -0.5))
        # a LetterWorld start must name a cell of its grid
        for c in (grid_config(grid_size=5, letters=tuple("abcd")),
                  grid_config(zone_radius=0.7),
                  grid_config(**dict(away, agent_start=(1, 4))),
                  zone_config(**away)):
            blob = c.to_json()
            assert list(blob) == [f.name for f in fields(EnvConfig)]
            # JSON-native values: a tuple would not survive json.loads
            assert json.loads(json.dumps(blob)) == blob
            assert EnvConfig.from_json(blob) == c

    def test_legacy_seed_key_dropped(self):
        # checkpoints written before the layout seed was removed still load
        legacy = dict(grid_config().to_json(), seed=0)
        c = EnvConfig.from_json(legacy)
        assert c == grid_config()
        assert "seed" not in c.to_json()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            EnvConfig.from_json({"env": "zonesim", "gravity": 9.8})

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            grid_config(grid_size=3, letters=tuple("abcd"), copies_per_letter=3)
        with pytest.raises(ValueError, match="grid_size"):
            grid_config(grid_size=-7)
        with pytest.raises(ValueError):
            zone_config(lidar_beams=3)
        with pytest.raises(ValueError):
            zone_config(zone_radius=0.0)
        with pytest.raises(ValueError):
            EnvConfig(env="mujoco")
        # counts are ints: no float, and no bool although bool is an int
        for env in ("letterworld", "zonesim"):
            for name in ("grid_size", "copies_per_letter", "zones_per_color",
                         "lidar_beams", "max_steps"):
                for bad in (2.5, 16.0, True, "7", None):
                    with pytest.raises(ValueError, match=name):
                        EnvConfig(env=env, **{name: bad})
        # a LetterWorld start is a cell of the grid: no fraction (which
        # reset would truncate), no value off the grid, two coordinates
        for bad in ((1.7, -0.5), (1.5, 2), (2, 0.25), (-1, 0), (0, 7),
                    (math.nan, 0), (math.inf, 0), (3,), (1, 2, 3)):
            with pytest.raises(ValueError, match="agent_start"):
                grid_config(agent_start=bad)
        assert grid_config(agent_start=(6.0, 0)).agent_start == (6.0, 0.0)

    def test_sampled_zones_must_fit_the_arena(self):
        # a sampled zone's center lies within half - radius of the origin,
        # so a radius of at least half leaves no room; pinned zones need none
        for half in (0.3, 0.4):
            with pytest.raises(LayoutInfeasible, match="zone_radius"):
                zone_config(arena_half_extent=half)
        assert zone_config(arena_half_extent=0.41).zone_radius == 0.4
        zone_config(arena_half_extent=0.3,
                    fixed_zones=(("blue", (0.0, 0.0), 0.4),))

    def test_achievable_assignments(self):
        assert achievable_assignments(grid_config()) == tuple(
            1 << i for i in range(12))
        assert achievable_assignments(zone_config()) == (1, 2, 4, 8)
        over = achievable_assignments(zone_config(overlap_mode=True))
        assert len(over) == 4 + 6
        assert set(over) == {1, 2, 4, 8, 3, 5, 9, 6, 10, 12}
        assert list(over) == sorted(over)


# -- LetterWorld --------------------------------------------------------------


class TestLetterWorld:
    def test_reset_layout(self):
        env = LetterWorld(grid_config())
        env.reset(np.random.default_rng(0))
        placement = env.state.placement
        assert len(placement) == 24
        counts = {}
        for p in placement.values():
            counts[p] = counts.get(p, 0) + 1
        assert counts == {i: 2 for i in range(12)}
        assert env.state.agent not in placement
        assert env.label() == 0

    def test_determinism(self):
        rng = np.random.default_rng(3)
        actions = [int(a) for a in rng.integers(0, 4, size=60)]
        runs = []
        for _ in range(2):
            env = LetterWorld(grid_config())
            env.reset(np.random.default_rng(42))
            trace = [(env.state.agent, env.label())]
            for a in actions:
                _, label, _ = env.step(a)
                trace.append((env.state.agent, label))
            runs.append(trace)
        assert runs[0] == runs[1]

    def test_torus_wrap(self):
        env = LetterWorld(grid_config(grid_size=5, letters=("a",)))
        env.reset(np.random.default_rng(1))
        env.state.agent = (0, 3)
        env.step(0)
        assert env.state.agent == (4, 3)
        start = env.state.agent
        for _ in range(5):
            env.step(3)
        assert env.state.agent == start

    def test_egocentric_view(self):
        env = LetterWorld(grid_config(grid_size=5, letters=("a", "b"),
                                      copies_per_letter=1))
        obs = env.reset(np.random.default_rng(2))
        g, center = 5, 2
        ar, ac = env.state.agent
        assert obs.ap.shape == (g, g)
        assert obs.not_ap.shape == (0,)
        for (r, c), p in env.state.placement.items():
            assert obs.ap[(center + r - ar) % g, (center + c - ac) % g] == p
        assert obs.ap[center, center] == -1
        assert int((obs.ap >= 0).sum()) == 2

    def test_label_on_letter_cell(self):
        env = LetterWorld(grid_config())
        env.reset(np.random.default_rng(5))
        (r, c), p = sorted(env.state.placement.items())[0]
        env.state.agent = ((r - 1) % 7, c)
        obs, label, _ = env.step(1)
        assert env.state.agent == (r, c)
        assert label == 1 << p == env.label()
        assert obs.ap[3, 3] == p

    def test_done_at_horizon(self):
        env = LetterWorld(grid_config(max_steps=4))
        env.reset(np.random.default_rng(0))
        flags = [env.step(0)[2] for _ in range(4)]
        assert flags == [False, False, False, True]

    def test_fixed_agent_start(self):
        env = LetterWorld(grid_config(agent_start=(2, 3)))
        env.reset(np.random.default_rng(0))
        assert env.state.agent == (2, 3)

    @pytest.mark.parametrize("action", [
        1.5, True, False, np.float64(3.9), np.bool_(True), "2", None, -1, 4,
        np.int64(4),
    ], ids=["float", "true", "false", "np-float", "np-bool", "str", "none",
            "negative", "four", "np-four"])
    def test_non_int_or_out_of_range_action_raises(self, action):
        env = LetterWorld(grid_config())
        env.reset(np.random.default_rng(6))
        before = (env.state.agent, env.state.step_count)
        with pytest.raises(ValueError, match="must be an int in 0..3, got "
                           + re.escape(repr(action))):
            env.step(action)
        assert (env.state.agent, env.state.step_count) == before

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
    def test_python_and_numpy_ints_move_alike(self, kind):
        trails = []
        for convert in (int, kind):
            env = LetterWorld(grid_config())
            env.reset(np.random.default_rng(7))
            trails.append([env.step(convert(a))[1:] + (env.state.agent,)
                           for a in (0, 1, 2, 3, 3, 1)])
        assert trails[0] == trails[1]


class TestViewMatchesReference:
    """observe() gathers the egocentric view through one precomputed index;
    for every agent cell it must equal the rolled reference byte for byte,
    dtype included.  Grid size 1 has no valid layout (one letter and the
    agent's empty cell need two cells), so sizes start at 2."""

    @pytest.mark.parametrize("g", range(2, 9))
    def test_every_agent_cell(self, g):
        letters = tuple("abcd")[:min(4, g * g - 1)]
        copies = max(1, (g * g - 1) // (2 * len(letters)))
        env = LetterWorld(grid_config(grid_size=g, letters=letters,
                                      copies_per_letter=copies))
        for seed in range(3):
            env.reset(np.random.default_rng(seed))
            for cell in product(range(g), repeat=2):
                env.state.agent = cell
                got = env.observe().ap
                want = reference_view(env.state, g)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


# -- ZoneSim ------------------------------------------------------------------


def zones_overlap(a, b):
    return math.dist(a.center, b.center) < a.radius + b.radius


class TestZoneSim:
    def test_reset_layout(self):
        env = ZoneSim(zone_config())
        env.reset(np.random.default_rng(0))
        zones = env.state.zones
        assert len(zones) == 8
        per_color = {}
        for z in zones:
            per_color[z.color] = per_color.get(z.color, 0) + 1
        assert per_color == {i: 2 for i in range(4)}
        for a, b in combinations(zones, 2):
            assert not zones_overlap(a, b)
        assert env.label() == 0
        assert env.state.speed == 0.0

    def test_determinism(self):
        rng = np.random.default_rng(9)
        actions = rng.uniform(-1, 1, size=(50, 2))
        traces = []
        for _ in range(2):
            env = ZoneSim(zone_config())
            env.reset(np.random.default_rng(7))
            rows = []
            for a in actions:
                obs, label, _ = env.step(a)
                rows.append((env.state.position.copy(), env.state.heading,
                             env.state.speed, label, obs.ap.copy()))
            traces.append(rows)
        for r0, r1 in zip(*traces):
            assert np.array_equal(r0[0], r1[0]) and r0[1] == r1[1]
            assert r0[2] == r1[2] and r0[3] == r1[3]
            assert np.array_equal(r0[4], r1[4])

    def test_zero_action_from_rest(self):
        env = ZoneSim(zone_config())
        env.reset(np.random.default_rng(1))
        before = env.state.position.copy()
        env.step((0.0, 0.0))
        assert np.array_equal(env.state.position, before)

    def test_kinematics(self):
        env = ZoneSim(zone_config(agent_start=(0.0, 0.0)))
        env.reset(np.random.default_rng(2))
        env.state.heading = 0.0
        for _ in range(30):
            env.step((1.0, 0.0))
        assert env.state.speed == pytest.approx(MAX_SPEED)
        # one tick from rest: speed ACCEL*DT, displacement speed*DT
        env.state.position = np.zeros(2)
        env.state.speed = 0.0
        env.state.heading = 0.0
        env.step((1.0, 0.0))
        assert env.state.speed == pytest.approx(ACCEL * DT)
        assert env.state.position[0] == pytest.approx(ACCEL * DT * DT)
        assert env.state.position[1] == pytest.approx(0.0)

    def test_wall_clamp(self):
        env = ZoneSim(zone_config(agent_start=(2.4, 0.0)))
        env.reset(np.random.default_rng(3))
        env.state.heading = 0.0
        for _ in range(50):
            env.step((1.0, 0.0))
            assert np.all(np.abs(env.state.position) <= 2.5)
        assert env.state.position[0] == 2.5

    @pytest.mark.parametrize("action", [
        (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf),
    ], ids=["nan-accel", "nan-steer", "inf-accel", "inf-steer"])
    def test_non_finite_action_raises(self, action):
        env = ZoneSim(zone_config())
        env.reset(np.random.default_rng(5))
        env.step((1.0, 0.3))
        st = env.state
        before = (st.position.tobytes(), st.heading, st.speed, st.step_count)
        for _ in range(2):
            with pytest.raises(ValueError, match="finite"):
                env.step(np.array(action))
        assert (st.position.tobytes(), st.heading, st.speed,
                st.step_count) == before
        env.step((1.0, 0.3))
        assert np.all(np.isfinite(env.state.position))

    def test_heading_wraps(self):
        env = ZoneSim(zone_config())
        env.reset(np.random.default_rng(3))
        for _ in range(100):
            env.step((0.0, 1.0))
            assert -math.pi <= env.state.heading <= math.pi

    def test_overlap_label(self):
        cfg = zone_config(
            overlap_mode=True,
            fixed_zones=(("blue", (0.0, 0.0), 0.4), ("green", (0.5, 0.0), 0.4),
                         ("magenta", (2.0, 2.0), 0.4), ("yellow", (-2.0, 2.0), 0.4)),
            agent_start=(0.25, 0.0))
        env = ZoneSim(cfg)
        env.reset(np.random.default_rng(0))
        ab = env.alphabet
        assert env.label() == mask(ab, "blue", "green")

    def test_overlap_layouts_cap_label_size(self):
        cfg = zone_config(overlap_mode=True, zones_per_color=2,
                          zone_radius=0.6)
        env = ZoneSim(cfg)
        probes = np.stack(np.meshgrid(np.linspace(-2.5, 2.5, 41),
                                      np.linspace(-2.5, 2.5, 41)),
                          axis=-1).reshape(-1, 2)
        sampled = overlapping = 0
        for seed in range(30):
            try:
                env.reset(np.random.default_rng(seed))
            except LayoutInfeasible:
                continue
            sampled += 1
            zones = env.state.zones
            overlapping += sum(zones_overlap(a, b)
                               for a, b in combinations(zones, 2))
            for a, b, c in combinations(zones, 3):
                assert not (zones_overlap(a, b) and zones_overlap(b, c)
                            and zones_overlap(a, c))
            for p in probes:
                env.state.position = p
                assert bin(env.label()).count("1") <= 2
        assert sampled >= 20 and overlapping >= 1

    def test_infeasible_layouts_raise(self):
        with pytest.raises(LayoutInfeasible):
            ZoneSim(zone_config(arena_half_extent=0.5)).reset(
                np.random.default_rng(0))
        with pytest.raises(LayoutInfeasible):
            ZoneSim(zone_config(arena_half_extent=0.9, zones_per_color=4)
                    ).reset(np.random.default_rng(0))

    def test_observation_shapes(self):
        env = ZoneSim(zone_config())
        obs = env.reset(np.random.default_rng(4))
        assert obs.kind == "lidar"
        assert obs.not_ap.shape == (3,)
        assert obs.ap.shape == (4, 16)
        st = env.state
        assert obs.not_ap[0] == st.speed
        assert obs.not_ap[1] == pytest.approx(math.sin(st.heading))
        assert obs.not_ap[2] == pytest.approx(math.cos(st.heading))


class TestLidar:
    def test_inside_zone_all_ones(self):
        cfg = zone_config(fixed_zones=(("blue", (0.0, 0.0), 0.4),),
                          agent_start=(0.1, 0.1))
        env = ZoneSim(cfg)
        env.reset(np.random.default_rng(0))
        assert np.array_equal(env.observe().ap[0], np.ones(16))

    def test_absent_color_all_zeros(self):
        cfg = zone_config(fixed_zones=(("blue", (0.0, 0.0), 0.4),),
                          agent_start=(2.0, 2.0))
        env = ZoneSim(cfg)
        env.reset(np.random.default_rng(0))
        assert np.array_equal(env.observe().ap[1], np.zeros(16))

    def test_dead_ahead_closed_form(self):
        for d in (0.3, 1.0, 2.0):
            cfg = zone_config(fixed_zones=(("blue", (d + 0.4, 0.0), 0.4),),
                              agent_start=(0.0, 0.0))
            env = ZoneSim(cfg)
            env.reset(np.random.default_rng(0))
            env.state.heading = 0.0
            beam0 = env.observe().ap[0, 0]
            assert beam0 == pytest.approx(1 - d / SENSOR_RANGE, abs=1e-9)

    def test_matches_ray_marching_oracle(self):
        rng = np.random.default_rng(11)
        env = ZoneSim(zone_config())
        for trial in range(20):
            env.reset(np.random.default_rng(trial))
            st = env.state
            ap = env.observe().ap
            for prop in range(4):
                got = ap[prop]
                for i in [0, 5, 11]:
                    angle = st.heading + 2 * math.pi * i / 16
                    u = np.array([math.cos(angle), math.sin(angle)])
                    ts = np.arange(0, SENSOR_RANGE, 1e-3)
                    pts = st.position + ts[:, None] * u
                    hit = np.inf
                    for z in st.zones:
                        if z.color != prop:
                            continue
                        inside = np.hypot(pts[:, 0] - z.center[0],
                                          pts[:, 1] - z.center[1]) <= z.radius
                        if inside.any():
                            hit = min(hit, ts[int(np.argmax(inside))])
                    want = 0.0 if hit == np.inf else 1 - hit / SENSOR_RANGE
                    assert got[i] == pytest.approx(want, abs=2e-3)

    def test_monotone_while_approaching(self):
        cfg = zone_config(fixed_zones=(("blue", (2.0, 0.0), 0.4),),
                          agent_start=(-2.0, 0.0))
        env = ZoneSim(cfg)
        env.reset(np.random.default_rng(0))
        env.state.heading = 0.0
        prev = env.observe().ap[0, 0]
        for _ in range(60):
            obs, _, _ = env.step((1.0, 0.0))
            cur = obs.ap[0, 0]
            assert cur >= prev - 1e-12
            prev = cur
            if cur == 1.0:
                break
        assert prev == 1.0

    def test_label_consistent_with_lidar_max(self):
        env = ZoneSim(zone_config(overlap_mode=True))
        rng = np.random.default_rng(13)
        for seed in range(5):
            env.reset(np.random.default_rng(seed))
            for _ in range(80):
                obs, label, _ = env.step(rng.uniform(-1, 1, size=2))
                for p in range(4):
                    assert (label >> p) & 1 == (obs.ap[p].max() == 1.0)


class TestMembership:
    """The label, the lidar and the spawn check read one inside rule."""

    @staticmethod
    def assert_label_is_lidar_max(env, label, obs):
        for p in range(env.alphabet.n):
            assert (label >> p) & 1 == (obs.ap[p].max() == 1.0), p

    @pytest.mark.parametrize("layout", [
        (("blue", (0.3, -0.7), 0.4), ("green", (-1.1, 0.9), 0.55),
         ("yellow", (1.4, 1.2), 0.3)),
        (("blue", (-0.2, 0.1), 0.5), ("magenta", (0.45, 0.3), 0.4),
         ("yellow", (-1.8, -1.7), 0.35)),
    ], ids=["single-zones", "overlapping-pair"])
    def test_label_bits_match_lidar_on_zone_circles(self, layout):
        env = ZoneSim(zone_config(overlap_mode=True, fixed_zones=layout,
                                  agent_start=(2.4, -2.4)))
        env.reset(np.random.default_rng(0))
        angles = np.linspace(0.0, 2 * math.pi, 2000, endpoint=False)
        points = [np.asarray(z.center) + z.radius * np.stack(
                      (np.cos(angles), np.sin(angles)), axis=1)
                  for z in env.state.zones]
        # where the first two circles cross, the agent is on both
        (x0, y0), r0 = env.state.zones[0].center, env.state.zones[0].radius
        (x1, y1), r1 = env.state.zones[1].center, env.state.zones[1].radius
        d = math.dist((x0, y0), (x1, y1))
        if d < r0 + r1:
            a = (d * d + r0 * r0 - r1 * r1) / (2 * d)
            h = math.sqrt(r0 * r0 - a * a)
            ux, uy = (x1 - x0) / d, (y1 - y0) / d
            points.append(np.array([
                (x0 + a * ux - s * h * uy, y0 + a * uy + s * h * ux)
                for s in (1, -1)]))
        labels = set()
        for pos in np.concatenate(points):
            env.state.position = pos
            label = env.label()
            self.assert_label_is_lidar_max(env, label, env.observe())
            # from rest, a zero action leaves the agent where it is
            env.state.speed = 0.0
            obs, stepped, _ = env.step((0.0, 0.0))
            assert np.array_equal(env.state.position, pos)
            assert stepped == label
            self.assert_label_is_lidar_max(env, stepped, obs)
            labels.add(label)
        # the circles hold points on both sides of the rule, and an
        # overlapping pair's circles hold two-color labels
        assert 0 in labels and len(labels) > 2
        assert (d < r0 + r1) == any(bin(lb).count("1") == 2 for lb in labels)

    def test_spawns_are_outside_every_zone(self):
        layout = tuple((color, (sx * 1.25, sy * 1.25), 1.5)
                       for color, (sx, sy) in zip(
                           ("blue", "green", "magenta", "yellow"),
                           ((1, 1), (-1, 1), (-1, -1), (1, -1))))
        env = ZoneSim(zone_config(fixed_zones=layout))
        env.reset(np.random.default_rng(0))
        probes = np.linspace(-2.5, 2.5, 81)
        covered = 0
        for x, y in product(probes, probes):
            env.state.position = np.array((x, y))
            covered += env.label() != 0
        assert covered > 0.9 * len(probes) ** 2
        for seed in range(300):
            obs = env.reset(np.random.default_rng(seed))
            assert env.label() == 0
            assert obs.ap.max() < 1.0


def assert_lidar_matches_reference(env, obs):
    k = env.config.lidar_beams
    for p in range(env.alphabet.n):
        want = reference_lidar(env.state, p, k)
        assert np.array_equal(obs.ap[p], want)
        assert obs.ap[p].tobytes() == want.tobytes()


def run_against_reference(env, seeds, steps):
    rng = np.random.default_rng(17)
    for seed in seeds:
        obs = env.reset(np.random.default_rng(seed))
        assert_lidar_matches_reference(env, obs)
        for _ in range(steps):
            obs, _, _ = env.step(rng.uniform(-1, 1, size=2))
            assert_lidar_matches_reference(env, obs)


class TestLidarMatchesReference:
    """observe() casts every zone and beam in one array pass; each row
    must equal the zone-by-zone reference byte for byte."""

    @pytest.mark.parametrize("overlap", [True, False])
    def test_random_trajectories(self, overlap):
        env = ZoneSim(zone_config(overlap_mode=overlap))
        run_against_reference(env, seeds=range(12), steps=60)

    @pytest.mark.parametrize("layout,start", [
        ((("blue", (0.5, -0.3), 0.4),), (-1.5, 0.5)),
        ((("green", (0.0, 0.0), 0.6), ("blue", (1.5, 1.5), 0.4)),
         (0.1, 0.1)),
        ((("blue", (0.0, 0.0), 0.5), ("yellow", (0.4, 0.0), 0.5),
          ("magenta", (-1.8, 1.2), 0.3)), (0.2, 0.0)),
        ((("yellow", (1.0, 1.0), 0.4), ("yellow", (-1.0, -1.0), 0.4),
          ("blue", (1.0, -1.0), 0.3)), (0.0, 0.0)),
    ], ids=["single-zone", "start-inside", "overlapping-colors",
            "two-of-one-color"])
    def test_fixed_layouts(self, layout, start):
        env = ZoneSim(zone_config(fixed_zones=layout, agent_start=start,
                                  lidar_beams=8))
        run_against_reference(env, seeds=range(4), steps=40)

    def test_inside_and_overlapping_rows(self):
        env = ZoneSim(zone_config(
            fixed_zones=(("blue", (0.0, 0.0), 0.5),
                         ("yellow", (0.4, 0.0), 0.5)),
            agent_start=(0.2, 0.0)))
        obs = env.reset(np.random.default_rng(0))
        assert env.label() == 0b1001
        assert np.array_equal(obs.ap[0], np.ones(16))
        assert np.array_equal(obs.ap[3], np.ones(16))
        assert np.array_equal(obs.ap[1:3], np.zeros((2, 16)))
        assert_lidar_matches_reference(env, obs)


def test_make_env_dispatch():
    assert isinstance(make_env(grid_config()), LetterWorld)
    assert isinstance(make_env(zone_config()), ZoneSim)
    assert alphabet_for(zone_config()).names == ("blue", "green", "magenta",
                                                 "yellow")


def kinematics_digest(overlap: bool) -> str:
    """sha256 over everything one ZoneSim episode exposes, step by step."""
    h = hashlib.sha256()
    env = ZoneSim(zone_config(overlap_mode=overlap))
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        obs = env.reset(np.random.default_rng(seed))
        done = False
        for t in range(61):
            st = env.state
            h.update(obs.not_ap.tobytes() + obs.ap.tobytes())
            h.update(struct.pack("<qq", env.label(), done))
            h.update(st.position.tobytes())
            h.update(struct.pack("<dd", st.heading, st.speed))
            if t < 60:
                # past the clip range on both sides, biased forward so the
                # agent reaches top speed and the walls
                action = rng.uniform((-1.5, -1.5), (2.0, 1.5))
                obs, label, done = env.step(action)
                assert label == env.label()
    return h.hexdigest()


KINEMATICS_DIGESTS = {
    True: "df32b78c08b5690c9427e30ea7b49e14d865975e4a36088849129ed839d8516b",
    False: "8eb613809a63d172add93426e02cf059393769738c0d45ae3e5b7b32bd84ea50",
}


@pytest.mark.parametrize("overlap", [True, False])
def test_kinematics_digest(overlap):
    """Positions, headings, speeds, labels and readings over 8 seeds x 60
    random actions, pinned bit for bit."""
    assert kinematics_digest(overlap) == KINEMATICS_DIGESTS[overlap]
