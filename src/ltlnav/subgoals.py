"""Reach-avoid subgoals extracted from Buchi automata.

A subgoal pairs one assignment to reach (progress along some accepting
lasso of the automaton) with a set of assignments to avoid (assignments
that kill every accepting continuation). Training draws, by index, from
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
    "find_lassos", "extract_subgoals", "check_subgoal", "encode_subgoal",
    "sample_subgoal",
]

# lassos from one state past which extraction gives up
_MAX_LASSOS = 100_000


@dataclass(frozen=True)
class Subgoal:
    """Reach one assignment while avoiding a set of assignments."""

    reach: int
    avoid: frozenset[int]


@dataclass(frozen=True)
class LassoPath:
    """Simple path whose tail from cycle_start loops back to path[cycle_start]."""

    path: tuple[int, ...]
    cycle_start: int


class UniverseTooLarge(ValueError):
    """A state starts more accepting lassos than extraction walks."""


class NoValidSubgoal(ValueError):
    """No subgoal satisfies the resampling constraint."""


def _lassos(aut: BuchiAutomaton, q: int, limit: int):
    """Yield (path, j) for each simple lasso from q whose cycle, path[j:],
    holds an accepting state: the last node of path has an edge back to
    path[j].  path is the live search list, so read it before the next item.

    Iterative depth-first search with an on-path index: prefixes and cycles
    are simple, a node repeats only as the cycle closure.  last[i] is the
    index of the last accepting node of path[:i + 1] (-1 if none), so an
    edge back to path[j] closes an accepting cycle iff j <= last[-1].
    Raises UniverseTooLarge at the lasso past `limit`.
    """
    adj = aut.edges()
    accepting = aut.accepting
    path = [q]
    on_path = {q: 0}
    last = [0 if q in accepting else -1]
    stack = [iter(adj[q])]
    count = 0
    while stack:
        for w in stack[-1]:
            j = on_path.get(w)
            if j is None:
                on_path[w] = len(path)
                last.append(len(path) if w in accepting else last[-1])
                path.append(w)
                stack.append(iter(adj[w]))
                break
            if j <= last[-1]:
                count += 1
                if count > limit:
                    raise UniverseTooLarge(
                        f"more than {limit} lassos from state {q}")
                yield path, j
        else:
            stack.pop()
            last.pop()
            del on_path[path.pop()]


def _second_nodes(aut: BuchiAutomaton, q: int, limit: int) -> set[int]:
    """The successors of q that start some accepting simple lasso from q,
    plus q itself when it accepts and loops: the second nodes of the
    lassos that _lassos yields, found by counting those lassos instead of
    visiting each one.

    Iterative depth-first search over simple paths from q on bitmasks. A
    frame holds the key (v, P, C): the end node v, the mask P of the path
    and the mask C of the path up to its last accepting node, both cut to
    v's SCC, so (succ[v] & C).bit_count() lassos close at v. The cut is
    exact: every path node reaches v, so a path node outside v's SCC is
    one v cannot reach, and it can neither block a step from v nor close
    a lasso below it; a simple path never re-enters an SCC it has left. A
    frame also holds succ[v] & ~P, the successors it has not tried, and
    takes them lowest bit first, the order of edges(). A subtree's count
    depends on its key alone, not on q, and is memoized on it in a table
    that aut keeps for every later call, so paths that reach one set of
    v's SCC by different orders, routes or roots are counted once
    (Johnson's circuit search works one SCC at a time for the same
    reason); a node with no successor off the path gets no frame, since
    its lassos all close at it. An entry is written only when its frame
    finishes, so a walk that raises leaves no partial count. `seen` counts
    the distinct lassos counted so far and only grows to their total, so
    the walk raises UniverseTooLarge exactly when more than `limit`
    lassos exist, never later than _lassos would.
    """
    table = aut._lasso_table
    if table is None:
        bit = (1).__lshift__
        local = [0] * aut.n_states
        for comp in aut.sccs():
            mask = sum(map(bit, comp))
            for v in comp:
                local[v] = mask
        table = aut._lasso_table = (
            [sum(map(bit, dsts)) for dsts in aut.edges()],
            sum(map(bit, aut.accepting)), local, {})
    succ, acc, local, memo = table
    upto = 1 << q & acc
    seen = (succ[q] & upto).bit_count()
    second = {q} if seen else set()
    # [key, successors not yet tried, count]
    stack = [[(q, 1 << q, upto), succ[q] & ~(1 << q), seen]]
    while seen <= limit:
        frame = stack[-1]
        rest = frame[1]
        if rest:
            low = rest & -rest
            frame[1] = rest ^ low
            w = low.bit_length() - 1
            _, path, upto = frame[0]
            on_path = (path | low) & local[w]
            key = (w, on_path, on_path if acc & low else upto & local[w])
            n = memo.get(key)
            if n is None:
                n = (succ[w] & key[2]).bit_count()
                rest = succ[w] & ~on_path
                if rest:
                    stack.append([key, rest, n])
                    seen += n
                    continue
            # a counted subtree: memoized, or w alone
            frame[2] += n
            seen += n
            if n and len(stack) == 1:
                second.add(w)
            continue
        stack.pop()
        if not stack:
            return second
        key, _, n = frame
        memo[key] = n
        stack[-1][2] += n
        if n and len(stack) == 1:
            second.add(key[0])
    raise UniverseTooLarge(f"more than {limit} lassos from state {q}")


def find_lassos(aut: BuchiAutomaton, q: int,
                limit: int = _MAX_LASSOS) -> list[LassoPath]:
    """All simple lasso paths from q whose cycle contains an accepting
    state, in depth-first order over the sorted edges()."""
    return [LassoPath(tuple(path), j) for path, j in _lassos(aut, q, limit)]


def extract_subgoals(aut: BuchiAutomaton, states: frozenset[int],
                     unsat: frozenset[tuple[int, int]],
                     achievable: tuple[int, ...]) -> list[tuple[int, Subgoal]]:
    """Candidate (owner state, subgoal) pairs for the current state set.

    Per owner state q: reach assignments are achievable assignments taking
    the first step of some accepting lasso from q (progress, never a stall
    on a non-accepting state); avoid assignments are those whose successor
    set contains no live state, so reading one forfeits every accepting
    continuation. Pairs (q, reach) listed in `unsat` are filtered out.
    Both come from two BDD nodes per owner state, each the Or of the guards
    of q's edges into a set of states (`letters_into`): avoid letters lie
    outside the node into the live states, and reach letters inside the
    node into the second nodes, so each letter is tested on two nodes, not
    on every guard leaving q.
    Deterministic order: (reach assignment, avoid encoding, owner state).
    """
    achievable = tuple(achievable)
    live = aut.classify().live
    out: list[tuple[int, Subgoal]] = []
    for q in sorted(states):
        if q >= aut.n_states or q < 0:
            raise ValueError(f"state {q} out of range")
        into_live = aut.letters_into(q, live, achievable)
        avoid = frozenset(a for a in achievable if a not in into_live)
        # successor states that start some accepting lasso from q
        second = _second_nodes(aut, q, _MAX_LASSOS)
        if not second:
            continue
        reach = aut.letters_into(q, second, achievable)
        for a in achievable:
            if a in reach and a not in avoid and (q, a) not in unsat:
                out.append((q, Subgoal(a, avoid)))
    out.sort(key=lambda pair: (pair[1].reach, tuple(sorted(pair[1].avoid)), pair[0]))
    return out


def check_subgoal(sub: Subgoal, n: int) -> tuple[int, tuple[int, ...]]:
    """(reach, sorted avoid) as ints, once every assignment is a nonempty
    letter over n propositions, in 1 .. 2^n - 1; ValueError otherwise."""
    reach = int(sub.reach)
    avoid = tuple(sorted(int(a) for a in sub.avoid))
    for role, a in (("reach", reach), *(("avoid", a) for a in avoid)):
        if not 0 < a < 1 << n:
            raise ValueError(f"{role} assignment {a} out of range for "
                             f"{n} propositions")
    return reach, avoid


def encode_subgoal(sub: Subgoal, alphabet: Alphabet) -> np.ndarray:
    """Bitvector of length |AP| + 2^|AP|: reach bits then avoid indicators."""
    n = alphabet.n
    reach, avoid = check_subgoal(sub, n)
    vec = np.zeros(n + (1 << n), dtype=np.float64)
    for i in range(n):
        if reach >> i & 1:
            vec[i] = 1.0
    for a in avoid:
        vec[n + a] = 1.0
    return vec


def sample_subgoal(targets: tuple[int, ...], rng: np.random.Generator,
                   current_label: int = 0) -> Subgoal:
    """Uniform draw over the subgoals that the current label neither
    satisfies nor violates: one of the m sorted targets to reach, any subset
    of the others to avoid. Draw i of rng.integers(m << (m - 1)) reaches
    targets[i >> (m - 1)] and avoids the others, in order, whose bit is set
    in the low m - 1 bits of i; a draw the label rules out is drawn again,
    and only the accepted draw becomes a Subgoal."""
    m = len(targets)
    if m == 0 or m == 1 and current_label == targets[0]:
        raise NoValidSubgoal(
            f"no subgoal admissible for current label {current_label:#x}")
    # the label's index among the targets, -1 when it is none of them
    pos = targets.index(current_label) if current_label in targets else -1
    while True:
        i = int(rng.integers(m << (m - 1)))
        at = i >> (m - 1)
        # the label is reached, or avoided: bit pos, or pos - 1 past `at`
        if pos >= 0 and (at == pos or i >> (pos - (pos > at)) & 1):
            continue
        others = targets[:at] + targets[at + 1:]
        return Subgoal(targets[at], frozenset(
            b for k, b in enumerate(others) if i >> k & 1))
