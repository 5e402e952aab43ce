"""The desk settings and checkpoint, the benchmark's workloads module, an
automaton built from its transitions and its edges listed back, seeded
random generators, a brute-force successor oracle, the listed subgoal
universe, a per-node cycle check, round-by-round bisimulation classes
over guard truth tables, a product check for a word two automata both
accept, random Kripke structures and the states of one that a graph
covers, a rolled LetterWorld view, criterion 08's zone layout and a pin
that places a layout on one ZoneSim, a zone-by-zone lidar, a
tuple-per-transition rollout collection, per-call observation
reductions, per-row advantage scans, advantages over full-rollout value
passes, a scripted-label env and the assignment mask of named
propositions, shared across test modules."""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ltlnav import buchi
from ltlnav.buchi import BuchiAutomaton
from ltlnav.envs import (
    SENSOR_RANGE, EnvConfig, LetterWorldState, Observation, Zone,
    ZoneSimState,
)
from ltlnav.ltl import (
    TRUE, FALSE, Alphabet, And, Atom, Bool, Eventually, Always, Formula,
    Lasso, Next, Not, Or, Release, Until, atoms, eval_bool, is_boolean,
)
from ltlnav.nets import (
    categorical_cdf, categorical_logp, forward, gaussian_logp,
    sample_categorical, sample_gaussian,
)
from ltlnav.reduction import V_AVOID, V_NEUTRAL, V_REACH
from ltlnav.subgoals import Subgoal, sample_subgoal
from ltlnav.trainer import (
    Rollout, TrainerConfig, gae_cost, gae_reward, signals,
)

# the desk LetterWorld and its trainer settings, and the default
# overlap-mode ZoneSim, as the train workloads of the benchmark and the
# acceptance tests run them
DESK_ENV = EnvConfig(env="letterworld", grid_size=5, letters=tuple("abcd"),
                     copies_per_letter=2, max_steps=75)
DESK_TRAINER = TrainerConfig(gamma=0.94, total_interactions=2_000_000,
                             n_per_iter=4096, minibatch=256, epochs=10,
                             workers=16, seed=0)
ZONE_ENV = EnvConfig(env="zonesim", overlap_mode=True)

# the desk checkpoint the benchmark pins; tests only read it
PINNED_DESK = (Path(__file__).resolve().parents[1] / "perfbench"
               / "desk.ckpt.json")


@functools.cache
def perfbench_workloads():
    """perfbench/workloads.py, loaded by path and only read, once per
    process."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Transition:
    src: int
    guard: Formula
    dst: int


def automaton(alphabet: Alphabet, n_states: int, initial: int,
              accepting: Iterable[int],
              transitions: Iterable[Transition]) -> BuchiAutomaton:
    """An automaton from its transitions, which `transitions(aut)` lists
    back by source state, each state's in the order given here. Its
    guards are interned and checked in a table of their own."""
    if not (0 <= initial < n_states):
        raise ValueError("initial state out of range")
    accepting = frozenset(accepting)
    if not all(0 <= q < n_states for q in accepting):
        raise ValueError("accepting state out of range")
    guards = buchi._Guards()
    out: list[list[tuple[int, int]]] = [[] for _ in range(n_states)]
    for t in transitions:
        if not (0 <= t.src < n_states and 0 <= t.dst < n_states):
            raise ValueError(f"transition endpoint out of range: {t}")
        out[t.src].append((guards.intern(t.guard), t.dst))
    names = set(alphabet.names)
    for g in guards.formulas:
        if not is_boolean(g):
            raise ValueError(f"guard must be a Boolean formula: {g}")
        if not atoms(g) <= names:
            raise ValueError(f"guard {g} uses atoms outside the alphabet")
    return BuchiAutomaton(alphabet,
                          buchi._Graph(guards, initial, accepting, out))


def transitions(aut: BuchiAutomaton) -> tuple[Transition, ...]:
    """The automaton's edges by source state, in the order `to_json` and
    `to_dot` write them."""
    formulas = aut._graph.guards.formulas
    return tuple(Transition(q, formulas[i], d)
                 for q, edges in enumerate(aut._graph.out) for i, d in edges)


def random_formula(rng: np.random.Generator, depth: int, names: tuple[str, ...]):
    """Random formula tree of at most the given depth over the given atoms."""
    if depth <= 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.92:
            return Atom(names[int(rng.integers(len(names)))])
        return TRUE if r < 0.96 else FALSE
    kind = int(rng.integers(9))
    if kind == 0:
        return Not(random_formula(rng, depth - 1, names))
    if kind == 1:
        return Next(random_formula(rng, depth - 1, names))
    if kind == 2:
        return Eventually(random_formula(rng, depth - 1, names))
    if kind == 3:
        return Always(random_formula(rng, depth - 1, names))
    lhs = random_formula(rng, depth - 1, names)
    rhs = random_formula(rng, depth - 1, names)
    if kind == 4:
        return And(lhs, rhs)
    if kind == 5:
        return Or(lhs, rhs)
    if kind == 6:
        return Until(lhs, rhs)
    if kind == 7:
        return Release(lhs, rhs)
    return Until(TRUE, rhs) if rng.random() < 0.5 else Release(FALSE, rhs)


def random_lasso(rng: np.random.Generator, n_props: int,
                 max_prefix: int = 4, max_cycle: int = 4) -> Lasso:
    n_letters = 1 << n_props
    prefix_len = int(rng.integers(0, max_prefix + 1))
    cycle_len = int(rng.integers(1, max_cycle + 1))
    prefix = tuple(int(x) for x in rng.integers(0, n_letters, size=prefix_len))
    cycle = tuple(int(x) for x in rng.integers(0, n_letters, size=cycle_len))
    return Lasso(prefix, cycle)


def small_alphabet(n: int) -> Alphabet:
    return Alphabet(tuple("abcdefghijklmnopqrstuvwxyz"[:n]))


def mask(alphabet: Alphabet, *names: str) -> int:
    """Assignment bitmask with exactly the given propositions true."""
    out = 0
    for name in names:
        out |= 1 << alphabet.index(name)
    return out


def random_automaton(rng: np.random.Generator, n_states: int = 5,
                     n_props: int = 2, edge_prob: float = 0.3) -> BuchiAutomaton:
    """Raw automaton with initial state 0: each edge exists with
    probability edge_prob under a random conjunction of literals, and a
    random subset of the states accepts."""
    ab = small_alphabet(n_props)
    edges = []
    for src in range(n_states):
        for dst in range(n_states):
            if rng.random() < edge_prob:
                lits = []
                for name in ab.names:
                    r = rng.random()
                    if r < 0.3:
                        lits.append(Atom(name))
                    elif r < 0.6:
                        lits.append(Not(Atom(name)))
                guard = TRUE
                for lit in lits:
                    guard = And(guard, lit) if guard is not TRUE else lit
                edges.append(Transition(src, guard, dst))
    n_acc = int(rng.integers(0, n_states + 1))
    accepting = frozenset(int(x) for x in rng.choice(n_states, size=n_acc, replace=False))
    return automaton(ab, n_states, 0, accepting, edges)


def brute_successors(aut: BuchiAutomaton, q: int, letter: int,
                     edges=None) -> set[int]:
    """Successors of q under one letter, straight from the guards, by
    eval_bool over transitions(aut); pass that listing as `edges` to list
    it once for many calls."""
    if edges is None:
        edges = transitions(aut)
    return {t.dst for t in edges
            if t.src == q and eval_bool(t.guard, letter, aut.alphabet)}


def reference_universe(targets) -> list[Subgoal]:
    """Every (reach, avoid-set) pair over the sorted targets, listed in the
    order sample_subgoal indexes: by reach target, then by the avoid mask
    over the other targets, first target lowest bit."""
    universe = []
    for a in targets:
        pool = [b for b in targets if b != a]
        for mask in range(1 << len(pool)):
            avoid = frozenset(pool[i] for i in range(len(pool)) if mask >> i & 1)
            universe.append(Subgoal(a, avoid))
    return universe


def reference_on_cycle(v: int, adj) -> bool:
    """Can v reach itself in one or more steps? One depth-first closure
    from v's successors."""
    seen = set(adj[v])
    stack = list(seen)
    while stack:
        for d in adj[stack.pop()]:
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return v in seen


def _letter_mask(g: Formula, atom: dict[str, int], full: int) -> int:
    """g's truth table: bit l is its value on letter l, given each atom's
    table and the table `full` of every letter."""
    if isinstance(g, Bool):
        return full if g.value else 0
    if isinstance(g, Atom):
        return atom[g.name]
    if isinstance(g, Not):
        return full ^ _letter_mask(g.arg, atom, full)
    lhs, rhs = _letter_mask(g.lhs, atom, full), _letter_mask(g.rhs, atom, full)
    return lhs & rhs if isinstance(g, And) else lhs | rhs


def reference_bisimilar_classes(g, support, marks) -> list[int]:
    """Bisimulation classes of a compile-stage graph by rounds, from the
    initial classes of equal `marks`: each round signs every state again
    with its class and, per successor class, the mask of support letters
    leading into it, until no class splits. Numbered in order of first
    member."""
    n = 1 << len(support)
    atom = {name: sum(1 << l for l in range(n) if l >> i & 1)
            for i, name in enumerate(support)}
    out = [[(_letter_mask(g.guards.formulas[i], atom, (1 << n) - 1), d)
            for i, d in edges] for edges in g.out]
    first = {}
    cls = [first.setdefault(m, len(first)) for m in marks]
    while True:
        sigs = {}
        new_cls = []
        for q, edges in enumerate(out):
            into = {}
            for mask, d in edges:
                into[cls[d]] = into.get(cls[d], 0) | mask
            sig = (cls[q], frozenset(item for item in into.items() if item[1]))
            new_cls.append(sigs.setdefault(sig, len(sigs)))
        if new_cls == cls:
            return cls
        cls = new_cls


def accept_a_common_word(a: BuchiAutomaton, b: BuchiAutomaton) -> bool:
    """Do a and b accept some word in common? Their product pairs each edge
    of a with each edge of b whose guard conjunction is satisfiable, which
    one BDD `and` in a shared guard table decides, so no letter is listed.
    The product accepts a word iff a reachable SCC with a cycle holds a
    state accepting in a and one accepting in b. Exact for any width.
    """
    guards = buchi._Guards()
    nodes = [[guards.node(guards.intern(f)) for f in aut._graph.guards.formulas]
             for aut in (a, b)]
    index = {(a.initial, b.initial): 0}
    order = [(a.initial, b.initial)]
    adj = []
    for p, q in order:   # grows as product states are reached
        succ = set()
        for i, d in a._graph.out[p]:
            for j, e in b._graph.out[q]:
                if guards.apply(And, nodes[0][i], nodes[1][j]):
                    succ.add(index.setdefault((d, e), len(order)))
                    if len(index) > len(order):
                        order.append((d, e))
        adj.append(sorted(succ))
    return any(any(order[v][0] in a.accepting for v in comp)
               and any(order[v][1] in b.accepting for v in comp)
               for comp in buchi._sccs(adj)
               if len(comp) > 1 or comp[0] in adj[comp[0]])


def random_kripke(rng: np.random.Generator, n_states: int, n_letters: int,
                  max_succ: int = 3) -> tuple[list[int], list[list[int]]]:
    """A random Kripke structure: per state its letter and one to max_succ
    successors, so every state has an infinite path."""
    labels = [int(x) for x in rng.integers(0, n_letters, size=n_states)]
    succ = [sorted({int(x) for x in rng.integers(
        0, n_states, size=int(rng.integers(1, max_succ + 1)))})
        for _ in range(n_states)]
    return labels, succ


def kripke_cover(g, acc_sets, alphabet: Alphabet, kripke) -> frozenset[int]:
    """The states of the Kripke structure from which some path spells a
    word that the compile-stage graph g accepts, where a run is accepting
    iff it visits every set in acc_sets infinitely often (one set for a
    Buchi graph). Product node (s, q) means that q is about to read s's
    letter; s is covered iff (s, g.initial) reaches a product SCC with a
    cycle that meets every acceptance set.

    Stages that keep the language cover the same states, and the covers of
    f and of !f together hold every state: the half of Spot's ltlcross
    that catches lost words (Duret-Lutz, ATVA 2013)."""
    labels, ksucc = kripke
    n = 1 << alphabet.n
    atom = {name: sum(1 << l for l in range(n) if l >> i & 1)
            for i, name in enumerate(alphabet.names)}
    tables = [_letter_mask(f, atom, (1 << n) - 1) for f in g.guards.formulas]
    order = [(s, g.initial) for s in range(len(labels))]   # node s: (s, q0)
    index = {v: i for i, v in enumerate(order)}
    adj = []
    for s, q in order:   # grows as product states are reached
        succ = set()
        for i, d in g.out[q]:
            if tables[i] >> labels[s] & 1:
                for t in ksucc[s]:
                    succ.add(index.setdefault((t, d), len(order)))
                    if len(index) > len(order):
                        order.append((t, d))
        adj.append(sorted(succ))
    good = [v for comp in buchi._sccs(adj)
            if (len(comp) > 1 or comp[0] in adj[comp[0]])
            and all(any(order[v][1] in acc for v in comp) for acc in acc_sets)
            for v in comp]
    covered = buchi._closure(good, buchi._reverse(adj))
    return frozenset(s for s in range(len(labels)) if s in covered)


def reference_view(state: LetterWorldState, g: int) -> np.ndarray:
    """The egocentric (g, g) view of the layout, rolled so the agent's cell
    lands on the center cell."""
    grid = np.full((g, g), -1, dtype=np.int64)
    for (r, c), p in state.placement.items():
        grid[r, c] = p
    center = g // 2
    ar, ac = state.agent
    return np.roll(grid, (center - ar, center - ac), axis=(0, 1))


# criterion 08's hand-placed layout, for an agent that starts at the
# origin: the blue and green zones are 0.9 apart with radius 0.4, so no
# point is in both and the subgoal blue & green is unreachable, while
# magenta lies 2 below the start
SWITCH_ENV = EnvConfig(env="zonesim", overlap_mode=True, max_steps=400)
SWITCH_ZONES = (("blue", (-0.45, 1.2), 0.4),
                ("green", (0.45, 1.2), 0.4),
                ("magenta", (0.0, -2.0), 0.4),
                ("yellow", (2.0, 0.5), 0.4))


def pin(env, zones=None, start=None):
    """Pin one ZoneSim's layout: zones as (color, center, radius) replace
    the sampled zones, and start the sampled spawn. A pinned part draws
    nothing from the reset's rng and the heading is still drawn, so every
    other draw is the one an unpinned reset makes. Returns env."""
    if zones is not None:
        layout = tuple(Zone(env.alphabet.index(name), (float(x), float(y)),
                            float(r)) for name, (x, y), r in zones)
        env._sample_zones = lambda rng: layout
    if start is not None:
        env._spawn = lambda rng: np.array(start, dtype=np.float64)
    return env


def reference_lidar(state: ZoneSimState, prop: int, k: int) -> np.ndarray:
    """Normalized closeness per beam for one proposition's zones, casting
    the k beams at one zone at a time.  Every beam reads exactly 1.0 iff
    the agent is inside one of the zones (m2 <= r2); any other reading
    stays below 1.0, even for a hit at t near 0."""
    angles = state.heading + 2 * math.pi * np.arange(k) / k
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    dist = np.full(k, np.inf)
    for z in state.zones:
        if z.color != prop:
            continue
        m = np.asarray(z.center) - state.position
        m2 = float(m @ m)
        if m2 <= z.radius * z.radius:
            return np.ones(k)
        b = dirs @ m
        disc = b * b - (m2 - z.radius * z.radius)
        hit = disc >= 0
        t = b[hit] - np.sqrt(disc[hit])
        t[t < 0] = np.inf
        dist[hit] = np.minimum(dist[hit], t)
    closeness = np.clip(1.0 - dist / SENSOR_RANGE, 0.0,
                        math.nextafter(1.0, 0.0))
    return np.where(np.isfinite(dist), closeness, 0.0)


def reference_collect(trainer, n: int):
    """Trainer.collect as one tuple per transition: each step stacks the
    workers' current rows, and the Rollout is zipped from the tuples at
    the end.  It draws, steps, reduces and resets in the same order, so
    from the same trainer state it leaves the same state behind."""
    workers = trainer.workers
    pol = trainer.heads["policy"]
    categorical = pol.spec.head == "categorical"
    steps = []   # one tuple per transition: Rollout's fields but logp
    logps = []   # one array of W log-probs per step
    for _ in range(n // len(workers)):
        vecs = np.stack([w.vec for w in workers])
        out = forward(pol.spec, pol.params, vecs)
        if categorical:
            cdfs = categorical_cdf(out).tolist()
        row_actions = []
        for i, worker in enumerate(workers):
            if categorical:
                action = sample_categorical(cdfs[i], trainer.rollout_rng)
            else:
                action = sample_gaussian(out[0][i], out[1],
                                         trainer.rollout_rng)
            row_actions.append(action)
            obs2, label, done = worker.env.step(action)
            r, h = signals(label, worker.sub)
            worker.steps_on_sub += 1
            terminal = h > 0
            boundary = terminal or done
            if r:
                trainer.completions.append(worker.steps_on_sub)
                if not boundary:
                    worker.sub = sample_subgoal(
                        trainer.targets, trainer.rollout_rng,
                        current_label=label)
                    worker.steps_on_sub = 0
            next_vec = trainer._reduce(obs2, worker.sub)
            steps.append((vecs[i], next_vec, action, float(r), float(h),
                          terminal, boundary))
            if boundary:
                trainer._reset_worker(worker)
            else:
                worker.vec = next_vec
        logps.append(categorical_logp(out, row_actions) if categorical
                     else gaussian_logp(*out, np.stack(row_actions)))
    trainer.interactions += n
    obs, next_obs, actions, *rest = map(np.asarray, zip(*steps))
    return Rollout(obs, next_obs, actions, np.concatenate(logps), *rest)


def reference_reduce_grid(obs: Observation, sub) -> np.ndarray:
    """Cell values from a table built for this call over the letters up to
    the view's largest."""
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


def reference_reduce_lidar(obs: Observation, sub) -> np.ndarray:
    """Reach and avoid channels folded one proposition row and one avoid
    assignment at a time."""
    limit = 1 << obs.ap.shape[0]
    if not all(0 < a < limit for a in (sub.reach, *sub.avoid)):
        raise ValueError("assignment out of range")
    reach = _min_fuse(obs.ap, sub.reach)
    avoid = np.zeros(obs.ap.shape[1])
    for a in sorted(sub.avoid):
        np.maximum(avoid, _min_fuse(obs.ap, a), out=avoid)
    return np.concatenate([obs.not_ap, reach, avoid])


def reference_gae_scan(delta, boundary, gamma, lam_gae) -> np.ndarray:
    """GAE accumulated one row at a time over a single stream."""
    adv = np.zeros_like(delta)
    acc = 0.0
    for t in range(len(delta) - 1, -1, -1):
        if boundary[t]:
            acc = 0.0
        acc = delta[t] + gamma * lam_gae * acc
        adv[t] = acc
    return adv


def reference_cost_togo(costs, boundary) -> np.ndarray:
    """Maximum h over the rest of each episode, one row at a time."""
    out = np.empty_like(costs)
    acc = -np.inf
    for t in range(len(costs) - 1, -1, -1):
        if boundary[t]:
            acc = -np.inf
        acc = max(costs[t], acc)
        out[t] = acc
    return out


def reference_gae_reward(rewards, v, v_next, terminal, boundary, gamma,
                         lam_gae):
    delta = rewards + gamma * np.where(terminal, 0.0, v_next) - v
    adv = reference_gae_scan(delta, boundary, gamma, lam_gae)
    return adv, adv + v


def reference_gae_cost(costs, v_h, v_h_next, terminal, boundary, gamma,
                       lam_gae):
    v_eff = np.where(terminal, costs, np.maximum(costs, v_h_next))
    delta = (1 - gamma) * costs + gamma * v_eff - v_h
    return (reference_gae_scan(delta, boundary, gamma, lam_gae),
            reference_cost_togo(costs, boundary))


def reference_advantages(trainer, roll: Rollout) -> dict:
    """Trainer._advantages with one value pass per head and input over all
    of the rollout's rows, not one per block of minibatch rows."""
    cfg = trainer.config
    vr = trainer.heads["v_r"]
    vh = trainer.heads["v_h"]
    # collect writes row t*W + i for worker i's step t, so the scans run
    # down the columns of the (steps, workers) view, one per worker
    cols = lambda a: a.reshape(-1, len(trainer.workers))
    ends = cols(roll.terminal), cols(roll.boundary)
    v = forward(vr.spec, vr.params, roll.obs)
    v_next = forward(vr.spec, vr.params, roll.next_obs)
    adv_r, ret = gae_reward(cols(roll.rewards), cols(v), cols(v_next),
                            *ends, cfg.gamma, cfg.lam_gae)
    vh_now = forward(vh.spec, vh.params, roll.obs)
    vh_next = forward(vh.spec, vh.params, roll.next_obs)
    adv_h, cost_togo = gae_cost(cols(roll.costs), cols(vh_now),
                                cols(vh_next), *ends, cfg.gamma,
                                cfg.lam_gae)
    adv_r, ret, adv_h, cost_togo = (
        a.ravel() for a in (adv_r, ret, adv_h, cost_togo))
    # Only reward advantages are normalized; the safety term keeps its
    # natural scale so the multiplier balance stays meaningful.
    std = float(adv_r.std())
    if std > 1e-8:
        adv_r = (adv_r - adv_r.mean()) / std
    return {"obs": roll.obs, "actions": roll.actions, "logp": roll.logp,
            "adv_r": adv_r, "adv_h": adv_h, "cost_togo": cost_togo,
            "ret": ret}


class ScriptEnv:
    """Replays a fixed label sequence; the agent's actions are ignored."""

    def __init__(self, labels, letters=("a",)):
        self.labels = list(labels)
        self.t = 0
        self.config = EnvConfig(env="letterworld", letters=tuple(letters),
                                max_steps=len(self.labels))

    def reset(self, rng):
        self.t = 0
        return Observation("grid", np.zeros(0), np.full((7, 7), -1))

    def step(self, action):
        label = self.labels[self.t]
        self.t += 1
        return (Observation("grid", np.zeros(0), np.full((7, 7), -1)),
                label, self.t >= len(self.labels))
