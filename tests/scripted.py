"""Hand-coded agents that drive the executor without a trained checkpoint.

They read the env's true state instead of the observation, so tests of
subgoal selection, switching and tracing do not depend on a policy.
"""

from __future__ import annotations

import math

import numpy as np

from ltlnav.envs import DT, MAX_SPEED, TURN_RATE
from ltlnav.subgoals import Subgoal


class ScriptedGridAgent:
    """Hand-coded torus-grid navigator used when no checkpoint is trained.

    Walks toward the nearest cell carrying the reach letter, refusing moves
    that land on a letter in the avoid set.
    """

    def __init__(self, env):
        self.env = env

    def _delta(self, a: int, b: int) -> int:
        g = self.env.config.grid_size
        return (b - a + g // 2) % g - g // 2

    def _targets(self, sub: Subgoal) -> list[tuple[int, int]]:
        return [cell for cell, p in self.env.state.placement.items()
                if (1 << p) == sub.reach]

    def _distance(self, cell: tuple[int, int], sub: Subgoal) -> int:
        ar, ac = cell
        return min(abs(self._delta(ar, tr)) + abs(self._delta(ac, tc))
                   for tr, tc in self._targets(sub))

    def act(self, obs, sub: Subgoal) -> int:
        g = self.env.config.grid_size
        ar, ac = self.env.state.agent
        placement = self.env.state.placement
        ranked = []
        for action, (dr, dc) in enumerate(self.env._MOVES):
            cell = ((ar + dr) % g, (ac + dc) % g)
            ranked.append((self._distance(cell, sub), action, cell))
        ranked.sort()
        for _, action, cell in ranked:
            p = placement.get(cell)
            if p is None or (1 << p) not in sub.avoid:
                return action
        return ranked[0][1]

    def score(self, obs, subs: list[Subgoal]) -> list[float]:
        return [-float(self._distance(self.env.state.agent, sub))
                for sub in subs]


class ScriptedZoneAgent:
    """Hand-coded point-robot navigator for the zone environment.

    Steers to the closest point whose label would equal the reach
    assignment (a zone center, or the midpoint of a zone pair for two-color
    assignments) while skirting zones whose color appears in the avoid set.
    """

    # under evaluate's default eps_scale, timeout_threshold(40, 0.5, .)
    # gives the 60-step switching window the zone tests are built around
    mu_subgoal = 40

    def __init__(self, env):
        self.env = env

    def _zone_pairs(self, props: list[int]):
        a, b = props
        return [(za, zb) for za in self.env.state.zones if za.color == a
                for zb in self.env.state.zones if zb.color == b]

    def _target(self, sub: Subgoal) -> np.ndarray:
        zones = self.env.state.zones
        pos = self.env.state.position
        props = [i for i in range(len(self.env.config.letters))
                 if sub.reach >> i & 1]
        if len(props) == 1:
            centers = [np.asarray(z.center) for z in zones
                       if z.color == props[0]]
        else:
            centers = [(np.asarray(za.center) + np.asarray(zb.center)) / 2.0
                       for za, zb in self._zone_pairs(props)]
        return min(centers, key=lambda c: float(np.linalg.norm(c - pos)))

    def _avoid_zones(self, sub: Subgoal):
        colors = set()
        for mask in sub.avoid:
            colors.update(i for i in range(len(self.env.config.letters))
                          if mask >> i & 1)
        return [z for z in self.env.state.zones if z.color in colors]

    def act(self, obs, sub: Subgoal) -> np.ndarray:
        st = self.env.state
        vec = self._target(sub) - st.position
        dist = float(np.linalg.norm(vec))
        for z in self._avoid_zones(sub):
            away = st.position - z.center
            d = float(np.linalg.norm(away))
            margin = z.radius + 0.3
            if 1e-9 < d < margin:
                vec = vec + away / d * 4.0 * (margin - d)
        desired = math.atan2(vec[1], vec[0])
        diff = math.remainder(desired - st.heading, 2 * math.pi)
        turn = float(np.clip(diff / (TURN_RATE * DT), -1.0, 1.0))
        brake = dist < 0.3 and st.speed > 0.5 * MAX_SPEED
        accel = -1.0 if (abs(diff) > 1.2 or brake) else 1.0
        return np.array([accel, turn])

    def score(self, obs, subs: list[Subgoal]) -> list[float]:
        return [-float(np.linalg.norm(self._target(sub) -
                                      self.env.state.position))
                for sub in subs]
