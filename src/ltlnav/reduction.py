"""Fuse an observation with a subgoal into a fixed-size policy input.

Reduced inputs contain one reach channel and one avoid channel regardless
of how many propositions the environment has, so the policy surface does
not grow with the alphabet.  Grid observations map cells to {+1, -1, 0}
values; lidar observations fuse per-proposition closeness arrays (min
across the propositions of one assignment, max across the assignments of
the avoid set, so the fused beam tracks the nearest avoid region).  Each
subgoal's fusion is planned once and memoized, after one range check
(subgoals.check_subgoal): an (n+1)-entry value table per letter for grids,
so a grid row is one gather from it, and a proposition mask per assignment
for lidar.  The "raw" fusion skips this and appends the subgoal bitvector
instead.
"""

from __future__ import annotations

import functools

import numpy as np

from .envs import EnvConfig, Observation
from .ltl import Alphabet
from .subgoals import Subgoal, check_subgoal, encode_subgoal

__all__ = [
    "V_REACH", "V_AVOID", "V_NEUTRAL", "FUSIONS",
    "reduce_grid", "reduce_lidar", "reduce", "reduced_dim",
]

V_REACH = 1.0
V_AVOID = -1.0
V_NEUTRAL = 0.0

FUSIONS = ("reduced", "raw")


# Plans are pure functions of a hashable subgoal and the proposition count,
# built on first use.  check_subgoal raises for an invalid subgoal while
# building, and lru_cache keeps no entry for it, so it raises on every
# call.  The bound holds the subgoals of every worker and spec at once
# with room to spare.
_PLAN_CACHE = 256


@functools.lru_cache(maxsize=_PLAN_CACHE)
def _grid_table(sub: Subgoal, n: int) -> np.ndarray:
    """(n + 1,) cell value by letter index + 1: entry 0 for empty cells,
    then one entry per letter."""
    reach, avoid = check_subgoal(sub, n)
    return np.array([V_NEUTRAL] + [
        V_AVOID if (1 << p) in avoid else V_REACH if (reach >> p) & 1
        else V_NEUTRAL for p in range(n)])


def reduce_grid(obs: Observation, sub: Subgoal, n: int) -> np.ndarray:
    """Cell values over n letters: avoid assignments -> -1, reach letters
    -> +1, else 0.

    A cell's label is the singleton of its letter; it is an avoid cell when
    that singleton is in the avoid set (avoid wins on overlap with reach).
    """
    if obs.kind != "grid":
        raise ValueError("reduce_grid needs a grid observation")
    return _grid_table(sub, n).take(obs.ap + 1)


@functools.lru_cache(maxsize=_PLAN_CACHE)
def _lidar_mask(sub: Subgoal, n: int) -> np.ndarray:
    """(1 + A, n, 1) bool: row 0 marks the reach assignment's
    propositions, the rest each avoid assignment's, in sorted order."""
    reach, avoid = check_subgoal(sub, n)
    rows = (reach, *avoid)
    return np.array([[(a >> i) & 1 for i in range(n)] for a in rows],
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


def reduce(obs: Observation, sub: Subgoal, fusion: str,
           alphabet: Alphabet) -> np.ndarray:
    """Policy input for one observation under one subgoal.  Any fusion but
    "raw" reduces by the observation's kind.  A grid observation has no
    not_ap entries, so its row is reduce_grid's cell values alone,
    flattened."""
    if fusion != "raw":
        if obs.kind == "grid":
            return reduce_grid(obs, sub, alphabet.n).ravel()
        return reduce_lidar(obs, sub)
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
