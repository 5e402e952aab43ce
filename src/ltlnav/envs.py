"""Grid and kinematic point-robot environments with labeling functions.

Both environments expose the same surface: ``reset(rng)`` samples a fresh
layout and returns an observation, ``step(action)`` advances one timestep
and returns ``(obs, label, done)`` where the label is an assignment bitmask
over the environment's alphabet.  Observations split into a
proposition-independent part and a proposition-dependent part so the
reduction layer can fuse the latter with a subgoal.  Each env builds what
stays fixed once: LetterWorld its view index table per config and its
cells per reset, ZoneSim its beam offsets per config and its zone layout
arrays per reset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ltl import Alphabet
from .nets import JsonFields, json_object

__all__ = [
    "DT", "MAX_SPEED", "ACCEL", "TURN_RATE", "SENSOR_RANGE",
    "LayoutInfeasible", "Observation", "EnvConfig", "Zone",
    "LetterWorldState", "ZoneSimState", "LetterWorld", "ZoneSim",
    "alphabet_for", "achievable_assignments", "make_env",
]

DEFAULT_LETTERS = tuple("abcdefghijkl")
DEFAULT_COLORS = ("blue", "green", "magenta", "yellow")

# Point-robot kinematics, per simulation tick.
DT = 0.1
MAX_SPEED = 1.0
ACCEL = 1.0
TURN_RATE = math.pi
SENSOR_RANGE = 5.0

_SPAWN_ATTEMPTS = 1000


class LayoutInfeasible(ValueError):
    """Rejection sampling failed to place the agent or a zone."""


@dataclass(frozen=True, eq=False)
class Observation:
    """kind "grid": ap is a (G, G) int array of prop indices (-1 empty),
    egocentric (agent at the center cell).  kind "lidar": ap is an
    (n_props, k) float array of normalized closeness readings, one row per
    proposition in alphabet order.  not_ap is always 1-D float64."""

    kind: str
    not_ap: np.ndarray
    ap: np.ndarray


@dataclass(frozen=True)
class EnvConfig(JsonFields):
    env: str = "letterworld"
    grid_size: int = 7
    letters: tuple[str, ...] = ()        # () selects the per-env default
    copies_per_letter: int = 2
    zones_per_color: int = 2
    zone_radius: float = 0.4
    lidar_beams: int = 16
    max_steps: int = 0                   # 0 selects the per-env default
    overlap_mode: bool = False
    arena_half_extent: float = 2.5
    # Test/scenario hooks: pin the layout instead of sampling it.
    fixed_zones: tuple[tuple[str, tuple[float, float], float], ...] = ()
    agent_start: tuple[float, float] = ()

    def __post_init__(self):
        self._check_scalars()
        if self.env not in ("letterworld", "zonesim"):
            raise ValueError(f"unknown env kind {self.env!r}")
        if not self.letters:
            default = DEFAULT_LETTERS if self.env == "letterworld" else DEFAULT_COLORS
            object.__setattr__(self, "letters", default)
        object.__setattr__(self, "letters", tuple(self.letters))
        if not self.max_steps:
            object.__setattr__(
                self, "max_steps", 75 if self.env == "letterworld" else 1000)
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        object.__setattr__(self, "fixed_zones", tuple(
            (name, (float(x), float(y)), float(r))
            for name, (x, y), r in self.fixed_zones))
        object.__setattr__(
            self, "agent_start", tuple(float(v) for v in self.agent_start))
        if self.env == "letterworld":
            if self.grid_size < 1:
                raise ValueError("grid_size must be >= 1")
            cells = self.grid_size * self.grid_size
            if self.copies_per_letter < 1:
                raise ValueError("copies_per_letter must be >= 1")
            if len(self.letters) * self.copies_per_letter > cells - 1:
                raise ValueError("too many letter placements for the grid")
            # a LetterWorld start names a grid cell: reject fractions rather
            # than let reset truncate them
            if self.agent_start and not (
                    len(self.agent_start) == 2
                    and all(v.is_integer() and 0 <= v < self.grid_size
                            for v in self.agent_start)):
                raise ValueError(f"agent_start {self.agent_start!r} is not a "
                                 f"cell of the {self.grid_size}x"
                                 f"{self.grid_size} grid")
        else:
            if self.lidar_beams < 4:
                raise ValueError("lidar_beams must be >= 4")
            if self.zone_radius <= 0:
                raise ValueError("zone_radius must be positive")
            if self.zones_per_color < 1 and not self.fixed_zones:
                raise ValueError("zones_per_color must be >= 1")
            # NaN fails every comparison, so these also reject NaN
            half = self.arena_half_extent
            if not self.fixed_zones and not self.zone_radius < half:
                raise LayoutInfeasible(
                    f"zone_radius must be below arena_half_extent ({half}) "
                    f"for a sampled zone to fit, got {self.zone_radius}")
            if self.agent_start and not (
                    len(self.agent_start) == 2
                    and all(abs(v) <= half for v in self.agent_start)):
                raise ValueError(f"agent_start must be two finite numbers "
                                 f"inside the arena [-{half}, {half}]^2, "
                                 f"got {self.agent_start!r}")
            for name, center, r in self.fixed_zones:
                if not (name in self.letters
                        and all(map(math.isfinite, center))
                        and 0 < r < math.inf):
                    raise ValueError(
                        f"fixed_zones must be (color, center, radius) with "
                        f"a color in {self.letters}, a finite center and a "
                        f"finite positive radius, got {(name, center, r)!r}")

    @classmethod
    def from_json(cls, d: dict, where: str = "env") -> "EnvConfig":
        d = dict(json_object(d, where))
        # older checkpoints carry an unused layout seed; layouts come from
        # the episode's rng
        d.pop("seed", None)
        return super().from_json(d, where)


def alphabet_for(config: EnvConfig) -> Alphabet:
    return Alphabet(tuple(config.letters))


def achievable_assignments(config: EnvConfig) -> tuple[int, ...]:
    """Assignments the labeling function can actually produce (besides the
    empty one): singletons always; color pairs when zones may overlap."""
    n = len(config.letters)
    out = [1 << i for i in range(n)]
    if config.env == "zonesim" and config.overlap_mode:
        out.extend((1 << i) | (1 << j)
                   for i in range(n) for j in range(i + 1, n))
    return tuple(sorted(out))


@dataclass
class LetterWorldState:
    agent: tuple[int, int]
    placement: dict                      # (row, col) -> prop index
    step_count: int = 0


@dataclass(frozen=True)
class Zone:
    color: int                           # prop index
    center: tuple[float, float]
    radius: float


@dataclass
class ZoneSimState:
    position: np.ndarray                 # (2,) float64
    heading: float
    speed: float
    zones: tuple[Zone, ...]
    step_count: int = 0


class LetterWorld:
    """Torus grid; each cell holds at most one letter; labels are singletons."""

    _MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))

    def __init__(self, config: EnvConfig):
        if config.env != "letterworld":
            raise ValueError("config.env must be 'letterworld'")
        self.config = config
        self.alphabet = alphabet_for(config)
        self.state: LetterWorldState | None = None
        self._cells = None               # static flat (G*G,) prop-index array
        # _view_ix[ar, ac] gathers the egocentric (G, G) view centered on
        # cell (ar, ac) out of the flat grid.  With the agent in row a, view
        # row i shows grid row shift[a, i] = (a + i - G//2) % G; columns
        # alike.  The table holds G**4 indices.
        g = config.grid_size
        shift = (np.arange(g)[:, None] + np.arange(g) - g // 2) % g
        self._view_ix = shift[:, None, :, None] * g + shift[None, :, None, :]

    def reset(self, rng: np.random.Generator) -> Observation:
        g = self.config.grid_size
        cells = [(r, c) for r in range(g) for c in range(g)]
        order = rng.permutation(len(cells))
        need = len(self.config.letters) * self.config.copies_per_letter
        placement = {cells[int(order[i])]: i % self.alphabet.n
                     for i in range(need)}
        if self.config.agent_start:
            agent = (int(self.config.agent_start[0]),
                     int(self.config.agent_start[1]))
        else:
            for _ in range(_SPAWN_ATTEMPTS):
                agent = cells[int(rng.integers(len(cells)))]
                if agent not in placement:
                    break
            else:
                raise LayoutInfeasible("no empty cell found for the agent")
        self.state = LetterWorldState(agent, placement)
        grid = np.full((g, g), -1, dtype=np.int64)
        for (r, c), p in placement.items():
            grid[r, c] = p
        self._cells = grid.ravel()
        return self.observe()

    def step(self, action: int):
        """One move; action is a Python or numpy int in 0..3, not a bool."""
        if (isinstance(action, bool)
                or not isinstance(action, (int, np.integer))
                or not 0 <= action < 4):
            raise ValueError(f"action must be an int in 0..3, got {action!r}")
        st = self.state
        g = self.config.grid_size
        dr, dc = self._MOVES[action]
        st.agent = ((st.agent[0] + dr) % g, (st.agent[1] + dc) % g)
        st.step_count += 1
        done = st.step_count >= self.config.max_steps
        return self.observe(), self.label(), done

    def label(self) -> int:
        p = self.state.placement.get(self.state.agent)
        return 0 if p is None else 1 << p

    def observe(self) -> Observation:
        ar, ac = self.state.agent
        return Observation("grid", np.zeros(0),
                           self._cells[self._view_ix[ar, ac]])


class ZoneSim:
    """Kinematic point robot among colored circular zones.

    Actions are (acceleration, steering), each clipped to [-1, 1].  The
    per-color lidar casts k evenly spaced beams from the current heading
    and reports normalized closeness 1 - d/range: 0 when nothing is hit,
    and 1 exactly when the agent is inside a zone of that color.
    """

    def __init__(self, config: EnvConfig):
        if config.env != "zonesim":
            raise ValueError("config.env must be 'zonesim'")
        self.config = config
        self.alphabet = alphabet_for(config)
        self.state: ZoneSimState | None = None
        k = config.lidar_beams
        self._beam_offsets = 2 * math.pi * np.arange(k) / k
        self._bits = 1 << np.arange(self.alphabet.n)
        # Layout arrays of state.zones, built by reset: zone centers (Z, 2),
        # squared radii (Z,) and the (n, Z, 1) mask of each color's zones.
        self._centers = self._r2 = self._own = None

    def _sample_zones(self, rng: np.random.Generator) -> tuple[Zone, ...]:
        if self.config.fixed_zones:
            return tuple(Zone(self.alphabet.index(name), center, radius)
                         for name, center, radius in self.config.fixed_zones)
        half = self.config.arena_half_extent
        r = self.config.zone_radius
        lo, hi = -(half - r), half - r
        zones: list[Zone] = []
        for color in range(self.alphabet.n):
            for _ in range(self.config.zones_per_color):
                for _ in range(_SPAWN_ATTEMPTS):
                    center = rng.uniform(lo, hi, size=2)
                    if self._placement_ok(center, r, zones):
                        zones.append(Zone(color, (float(center[0]),
                                                  float(center[1])), r))
                        break
                else:
                    raise LayoutInfeasible("could not place a zone")
        return tuple(zones)

    def _placement_ok(self, center, radius, zones) -> bool:
        overlaps = [z for z in zones
                    if math.dist(center, z.center) < radius + z.radius]
        # Overlaps must form a matching: no zone in two overlapping pairs.
        # A triple-covered point needs three pairwise-overlapping zones, so
        # this keeps every label at size <= 2.
        if len(overlaps) != 1 or not self.config.overlap_mode:
            return not overlaps
        other = overlaps[0]
        return all(z is other or math.dist(other.center, z.center)
                   >= other.radius + z.radius for z in zones)

    def reset(self, rng: np.random.Generator) -> Observation:
        zones = self._sample_zones(rng)
        self._centers = np.array([z.center for z in zones])
        self._r2 = np.array([z.radius * z.radius for z in zones])
        colors = np.array([z.color for z in zones])
        self._own = (colors == np.arange(self.alphabet.n)[:, None])[:, :, None]
        half = self.config.arena_half_extent
        if self.config.agent_start:
            pos = np.array(self.config.agent_start, dtype=np.float64)
        else:
            for _ in range(_SPAWN_ATTEMPTS):
                pos = rng.uniform(-half, half, size=2)
                if not self._sense(pos)[2].any():
                    break
            else:
                raise LayoutInfeasible("no free spot for the agent")
        heading = float(rng.uniform(-math.pi, math.pi))
        self.state = ZoneSimState(pos.astype(np.float64), heading, 0.0, zones)
        return self.observe()

    def step(self, action):
        """One tick in Python floats.  Each clip is min(max(x, lo), hi),
        which returns what np.clip returns, signed zeros included."""
        a0, a1 = np.asarray(action, dtype=np.float64).reshape(2).tolist()
        if not (math.isfinite(a0) and math.isfinite(a1)):
            raise ValueError(f"action must be finite, got {action!r}")
        a0 = min(max(a0, -1.0), 1.0)
        a1 = min(max(a1, -1.0), 1.0)
        st = self.state
        st.heading = math.remainder(st.heading + a1 * TURN_RATE * DT,
                                    2 * math.pi)
        st.speed = min(max(st.speed + a0 * ACCEL * DT, 0.0), MAX_SPEED)
        half = self.config.arena_half_extent
        x, y = st.position.tolist()
        x = min(max(x + st.speed * math.cos(st.heading) * DT, -half), half)
        y = min(max(y + st.speed * math.sin(st.heading) * DT, -half), half)
        st.position = np.array((x, y))
        st.step_count += 1
        done = st.step_count >= self.config.max_steps
        m, m2, held = self._sense(st.position)
        return self._lidar(m, m2, held), int(held @ self._bits), done

    def _sense(self, pos):
        """Zone centers minus pos (Z, 2), their squared norms m2 (Z,), and
        the (n,) mask of colors with a zone that holds pos, m2 <= r2: the
        one membership rule that label, lidar and spawn check all read."""
        m = self._centers - pos
        m2 = (m[:, None, :] @ m[:, :, None])[:, 0, 0]
        return m, m2, self._own[:, :, 0] @ (m2 <= self._r2)

    def label(self) -> int:
        return int(self._sense(self.state.position)[2] @ self._bits)

    def observe(self) -> Observation:
        return self._lidar(*self._sense(self.state.position))

    def _lidar(self, m, m2, held) -> Observation:
        """The lidar casts every (zone, beam) pair in one array pass.

        The stacked matmuls make the same per-zone dot and gemv calls as a
        zone-by-zone loop, so the readings are bit-identical to it; a
        single 2-D product or an elementwise form rounds differently.
        """
        st = self.state
        h = st.heading
        not_ap = np.array([st.speed, math.sin(h), math.cos(h)])
        angles = h + self._beam_offsets
        dirs = np.array((np.cos(angles), np.sin(angles))).T.copy()  # (k, 2)
        b = (dirs[None] @ m[:, :, None])[:, :, 0]              # (Z, k)
        disc = b * b - (m2 - self._r2)[:, None]
        hit = disc >= 0
        t = np.where(hit, b - np.sqrt(np.where(hit, disc, 0.0)), np.inf)
        t[t < 0] = np.inf
        dist = np.minimum.reduce(np.where(self._own, t, np.inf), axis=1)
        # no hit leaves dist inf, and 1 - inf clips to 0; a hit at t near 0
        # rounds to 1.0, which only a held color may read
        ap = 1.0 - dist / SENSOR_RANGE
        np.maximum(ap, 0.0, out=ap)
        np.minimum(ap, math.nextafter(1.0, 0.0), out=ap)
        ap[held] = 1.0
        return Observation("lidar", not_ap, ap)


def make_env(config: EnvConfig):
    return LetterWorld(config) if config.env == "letterworld" else ZoneSim(config)
