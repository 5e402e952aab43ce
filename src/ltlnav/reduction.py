"""Fuse an observation with a subgoal into a fixed-size policy input.

Reduced inputs contain one reach channel and one avoid channel regardless
of how many propositions the environment has, so the policy surface does
not grow with the alphabet.  Grid observations map cells to {+1, -1, 0}
values; lidar observations fuse per-proposition closeness arrays (min
across the propositions of one assignment, max across the assignments of
the avoid set, so the fused beam tracks the nearest avoid region).  Each
subgoal's fusion is planned once and memoized: a value table per letter
for grids, a proposition mask per assignment for lidar.  The "raw" fusion
skips this and appends the subgoal bitvector instead.
"""

from __future__ import annotations

import functools

import numpy as np

from .envs import EnvConfig, Observation
from .ltl import Alphabet
from .subgoals import Subgoal, encode_subgoal

__all__ = [
    "V_REACH", "V_AVOID", "V_NEUTRAL", "FUSIONS",
    "reduce_grid", "reduce_lidar", "reduce", "reduced_dim",
]

V_REACH = 1.0
V_AVOID = -1.0
V_NEUTRAL = 0.0

FUSIONS = ("reduced", "raw")


# Plans are pure functions of a hashable subgoal, built on first use.  An
# invalid subgoal raises while building, and lru_cache keeps no entry for
# it, so it raises on every call.  The bound holds the subgoals of every
# worker and spec at once with room to spare.
_PLAN_CACHE = 256


@functools.lru_cache(maxsize=_PLAN_CACHE)
def _grid_table(sub: Subgoal) -> np.ndarray:
    """Cell value by letter index + 1: entry 0 for empty cells, then one
    entry per letter up to the subgoal's highest bit, then a neutral entry
    that every higher letter clips to."""
    reach = int(sub.reach)
    avoid = {int(a) for a in sub.avoid}
    width = max([reach.bit_length()] + [a.bit_length() for a in avoid])
    table = [V_NEUTRAL]
    for p in range(width):
        cell = 1 << p
        table.append(V_AVOID if cell in avoid
                     else V_REACH if cell & reach else V_NEUTRAL)
    table.append(V_NEUTRAL)
    return np.array(table)


def reduce_grid(obs: Observation, sub: Subgoal) -> np.ndarray:
    """Cell values: avoid assignments -> -1, reach letters -> +1, else 0.

    A cell's label is the singleton of its letter; it is an avoid cell when
    that singleton is in the avoid set (avoid wins on overlap with reach).
    """
    if obs.kind != "grid":
        raise ValueError("reduce_grid needs a grid observation")
    return _grid_table(sub).take(obs.ap + 1, mode="clip")


@functools.lru_cache(maxsize=_PLAN_CACHE)
def _lidar_mask(sub: Subgoal, n_props: int) -> np.ndarray:
    """(1 + A, n_props, 1) bool: row 0 marks the reach assignment's
    propositions, the rest each avoid assignment's, in sorted order."""
    rows = [int(sub.reach)] + sorted(int(a) for a in sub.avoid)
    for i, a in enumerate(rows):
        if not 0 < a < 1 << n_props:
            role = "avoid" if i else "reach"
            raise ValueError(f"{role} assignment {a} out of range")
    return np.array([[(a >> i) & 1 for i in range(n_props)] for a in rows],
                    dtype=bool)[:, :, None]


def reduce_lidar(obs: Observation, sub: Subgoal) -> np.ndarray:
    """Each assignment's closeness is the min over its propositions' rows;
    the avoid channel is the max of those over the avoid set, and 0 when
    it is empty.  Min and max are exact, so the order does not matter."""
    if obs.kind != "lidar":
        raise ValueError("reduce_lidar needs a lidar observation")
    mask = _lidar_mask(sub, obs.ap.shape[0])
    fused = np.minimum.reduce(np.where(mask, obs.ap, np.inf), axis=1)
    avoid = np.maximum.reduce(fused[1:], axis=0, initial=0.0)
    return np.concatenate([obs.not_ap, fused[0], avoid])


def reduce(obs: Observation, sub: Subgoal, fusion: str = "reduced",
           alphabet: Alphabet | None = None) -> np.ndarray:
    """Policy input for one observation under one subgoal.  Any fusion but
    "raw" reduces by the observation's kind."""
    if fusion != "raw":
        if obs.kind == "grid":
            return np.concatenate([obs.not_ap, reduce_grid(obs, sub).ravel()])
        return reduce_lidar(obs, sub)
    if alphabet is None:
        raise ValueError("raw fusion needs the alphabet to encode the subgoal")
    flat = np.concatenate([obs.not_ap, obs.ap.ravel().astype(np.float64)])
    return np.concatenate([flat, encode_subgoal(sub, alphabet)])


def reduced_dim(config: EnvConfig, fusion: str = "reduced") -> int:
    """Input width of the policy for a given environment and fusion."""
    grid = config.grid_size * config.grid_size
    if fusion != "raw":
        return (grid if config.env == "letterworld"
                else 3 + 2 * config.lidar_beams)
    n = len(config.letters)
    raw = grid if config.env == "letterworld" else 3 + n * config.lidar_beams
    return raw + n + (1 << n)
