"""Fuse an observation with a subgoal into a fixed-size policy input.

Reduced inputs contain one reach channel and one avoid channel regardless
of how many propositions the environment has, so the policy surface does
not grow with the alphabet.  Grid observations map cells to {+1, -1, 0}
values; lidar observations fuse per-proposition closeness arrays (min
across the propositions of one assignment, max across the assignments of
the avoid set, so the fused beam tracks the nearest avoid region).  The
"raw" fusion skips this and appends the subgoal bitvector instead.
"""

from __future__ import annotations

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


def _check_masks(sub: Subgoal, n_props: int) -> None:
    limit = 1 << n_props
    if not 0 < sub.reach < limit:
        raise ValueError(f"reach assignment {sub.reach} out of range")
    for a in sub.avoid:
        if not 0 < a < limit:
            raise ValueError(f"avoid assignment {a} out of range")


def reduce_grid(obs: Observation, sub: Subgoal) -> np.ndarray:
    """Cell values: avoid assignments -> -1, reach letters -> +1, else 0.

    A cell's label is the singleton of its letter; it is an avoid cell when
    that singleton is in the avoid set (avoid wins on overlap with reach).
    """
    if obs.kind != "grid":
        raise ValueError("reduce_grid needs a grid observation")
    table = [V_NEUTRAL]     # index 0: empty cells (letter index -1)
    for p in range(int(obs.ap.max()) + 1):
        cell = 1 << p
        table.append(V_AVOID if cell in sub.avoid
                     else V_REACH if cell & sub.reach else V_NEUTRAL)
    return np.array(table)[obs.ap + 1]


def _min_fuse(ap: np.ndarray, assignment: int) -> np.ndarray:
    """Closeness of one assignment: min across its true propositions."""
    rows = [ap[i] for i in range(ap.shape[0]) if (assignment >> i) & 1]
    fused = rows[0].copy()
    for row in rows[1:]:
        np.minimum(fused, row, out=fused)
    return fused


def reduce_lidar(obs: Observation, sub: Subgoal) -> np.ndarray:
    if obs.kind != "lidar":
        raise ValueError("reduce_lidar needs a lidar observation")
    _check_masks(sub, obs.ap.shape[0])
    k = obs.ap.shape[1]
    reach = _min_fuse(obs.ap, sub.reach)
    avoid = np.zeros(k)
    for a in sorted(sub.avoid):
        np.maximum(avoid, _min_fuse(obs.ap, a), out=avoid)
    return np.concatenate([obs.not_ap, reach, avoid])


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
