"""Reach-avoid subgoals extracted from Buchi automata.

A subgoal pairs one assignment to reach (progress along some accepting
lasso of the automaton) with a set of assignments to avoid (assignments
that kill every accepting continuation). The training universe enumerates
all reach/avoid combinations over an environment's achievable assignments,
so one policy conditioned on an encoded subgoal covers every formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .buchi import BuchiAutomaton
from .ltl import Alphabet

__all__ = [
    "Subgoal", "LassoPath", "UniverseTooLarge", "NoValidSubgoal",
    "find_lassos", "extract_subgoals", "build_universe",
    "encode_subgoal", "sample_subgoal",
]

# rejection draws before sample_subgoal filters the universe for a label
_SAMPLE_TRIES = 64


@dataclass(frozen=True)
class Subgoal:
    """Reach one assignment while avoiding a set of assignments."""

    reach: int
    avoid: frozenset[int]

    def key(self) -> tuple:
        return (self.reach, tuple(sorted(self.avoid)))


@dataclass(frozen=True)
class LassoPath:
    """Simple path whose tail from cycle_start loops back to path[cycle_start]."""

    path: tuple[int, ...]
    cycle_start: int

    @property
    def prefix(self) -> tuple[int, ...]:
        return self.path[:self.cycle_start]

    @property
    def cycle(self) -> tuple[int, ...]:
        return self.path[self.cycle_start:]


class UniverseTooLarge(ValueError):
    """Subgoal universe enumeration would exceed the configured cap."""


class NoValidSubgoal(ValueError):
    """No subgoal satisfies the resampling constraint."""


def find_lassos(aut: BuchiAutomaton, q: int, limit: int = 100_000) -> list[LassoPath]:
    """All simple lasso paths from q whose cycle contains an accepting state.

    Depth-first search with an on-path visited set: prefixes and cycles are
    simple, a node repeats only as the cycle closure.
    """
    adj = aut.edges()
    accepting = aut.accepting
    results: list[LassoPath] = []
    path = [q]
    on_path = {q: 0}

    def dfs():
        v = path[-1]
        for w in adj[v]:
            j = on_path.get(w)
            if j is not None:
                if any(s in accepting for s in path[j:]):
                    results.append(LassoPath(tuple(path), j))
                    if len(results) > limit:
                        raise UniverseTooLarge(
                            f"more than {limit} lassos from state {q}")
            else:
                on_path[w] = len(path)
                path.append(w)
                dfs()
                path.pop()
                del on_path[w]

    dfs()
    return results


def extract_subgoals(aut: BuchiAutomaton, states: frozenset[int],
                     unsat: frozenset[tuple[int, int]],
                     achievable: tuple[int, ...]) -> list[tuple[int, Subgoal]]:
    """Candidate (owner state, subgoal) pairs for the current state set.

    Per owner state q: reach assignments are achievable assignments taking
    the first step of some accepting lasso from q (progress, never a stall
    on a non-accepting state); avoid assignments are those whose successor
    set contains no live state, so reading one forfeits every accepting
    continuation. Pairs (q, reach) listed in `unsat` are filtered out.
    Deterministic order: (reach assignment, avoid encoding, owner state).
    """
    achievable = tuple(achievable)
    live = aut.classify().live
    out: list[tuple[int, Subgoal]] = []
    for q in sorted(states):
        if q >= aut.n_states or q < 0:
            raise ValueError(f"state {q} out of range")
        avoid = frozenset(
            a for a in achievable if not (aut.step(frozenset({q}), a) & live))
        # successor states that start some accepting lasso from q
        second = {lp.path[1] if len(lp.path) > 1 else lp.path[lp.cycle_start]
                  for lp in find_lassos(aut, q)}
        if not second:
            continue
        for a in achievable:
            if a in avoid or (q, a) in unsat:
                continue
            if aut.succ(q, a) & second:
                out.append((q, Subgoal(a, avoid)))
    out.sort(key=lambda pair: (pair[1].reach, tuple(sorted(pair[1].avoid)), pair[0]))
    return out


def build_universe(achievable, cap: int = 1_000_000) -> list[Subgoal]:
    """Every (reach, avoid-set) combination over the achievable assignments.

    A reach target never appears in its own avoid set. Raises
    UniverseTooLarge beyond `cap` entries.
    """
    targets = sorted(set(achievable))
    if any(a <= 0 for a in targets):
        raise ValueError("achievable assignments must be nonzero bitmasks")
    total = 0
    pools: list[tuple[int, list[int]]] = []
    for a in targets:
        pool = [b for b in targets if b != a]
        total += 1 << len(pool)
        if total > cap:
            raise UniverseTooLarge(
                f"universe would hold more than {cap} subgoals")
        pools.append((a, pool))
    universe: list[Subgoal] = []
    for a, pool in pools:
        for mask in range(1 << len(pool)):
            avoid = frozenset(pool[i] for i in range(len(pool)) if mask >> i & 1)
            universe.append(Subgoal(a, avoid))
    return universe


def encode_subgoal(sub: Subgoal, alphabet: Alphabet) -> np.ndarray:
    """Bitvector of length |AP| + 2^|AP|: reach bits then avoid indicators."""
    n = alphabet.n
    vec = np.zeros(n + (1 << n), dtype=np.float64)
    if sub.reach >> n:
        raise ValueError("reach assignment outside the alphabet")
    for i in range(n):
        if sub.reach >> i & 1:
            vec[i] = 1.0
    for a in sub.avoid:
        if a >> n:
            raise ValueError("avoid assignment outside the alphabet")
        vec[n + a] = 1.0
    return vec


def sample_subgoal(universe: list[Subgoal], rng: np.random.Generator,
                   current_label: int | None = None) -> Subgoal:
    """Uniform draw; with a current label, only subgoals that the label
    neither satisfies nor violates are admissible."""
    if not universe:
        raise NoValidSubgoal("subgoal universe is empty")
    n = len(universe)
    if current_label is None:
        return universe[int(rng.integers(n))]
    for _ in range(_SAMPLE_TRIES):
        sub = universe[int(rng.integers(n))]
        if sub.reach != current_label and current_label not in sub.avoid:
            return sub
    admissible = [s for s in universe
                  if s.reach != current_label and current_label not in s.avoid]
    if not admissible:
        raise NoValidSubgoal(
            f"no subgoal admissible for current label {current_label:#x}")
    return admissible[int(rng.integers(len(admissible)))]
