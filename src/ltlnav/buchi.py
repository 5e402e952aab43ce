"""Buchi automata compiled from LTL formulas.

Every formula takes one path: negation normal form, on-the-fly tableau
expansion into a generalized Buchi automaton (one acceptance set per Until
subformula, all states when there is none), counting degeneralization to
one acceptance set, one prune of dead and unreachable states and of
accepting marks no run can repeat, collapsing of universal components into
accepting sinks, a bisimulation quotient, guard narrowing toward accepting
sinks, and a canonical renumbering. Every stage preserves the accepted
language; structural simplification only makes the automaton smaller.

States are dense ints, the initial state is 0 after renumbering, and
transition guards are Boolean formulas over the alphabet.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import reduce

from .ltl import (
    TRUE, Alphabet, And, Atom, Bool, Formula, Lasso, Next, Not, Or, Release,
    Until, alphabet_of, atoms, eval_bool, format_formula, is_boolean, nnf,
)

__all__ = [
    "Transition", "StateClasses", "BuchiAutomaton", "compile_formula",
]


@dataclass(frozen=True)
class Transition:
    src: int
    guard: Formula
    dst: int


@dataclass(frozen=True)
class StateClasses:
    """Classification of automaton states.

    live: an accepting cycle is reachable from the state.
    accepting_sink: accepting state whose outgoing edges are self-loops
        covering every assignment, so acceptance is guaranteed forever.
    """

    live: frozenset[int]
    accepting_sink: frozenset[int]


def _and_fold(parts: list[Formula]) -> Formula:
    if not parts:
        return TRUE
    return reduce(And, parts)


def _or_fold(parts: list[Formula]) -> Formula:
    return reduce(Or, parts)


def _simplify(f: Formula) -> Formula:
    """Constant folding and double negation removal for guard formulas."""
    if isinstance(f, Not):
        a = _simplify(f.arg)
        if isinstance(a, Bool):
            return Bool(not a.value)
        if isinstance(a, Not):
            return a.arg
        return Not(a)
    if isinstance(f, And):
        a, b = _simplify(f.lhs), _simplify(f.rhs)
        if isinstance(a, Bool):
            return b if a.value else a
        if isinstance(b, Bool):
            return a if b.value else b
        return And(a, b)
    if isinstance(f, Or):
        a, b = _simplify(f.lhs), _simplify(f.rhs)
        if isinstance(a, Bool):
            return a if a.value else b
        if isinstance(b, Bool):
            return b if b.value else a
        return Or(a, b)
    return f


def _letters(names: Sequence[str], alphabet: Alphabet) -> Iterator[int]:
    """Every letter that sets only propositions among `names`, counting in
    binary with names[0] as the lowest bit."""
    bits = [alphabet.index(n) for n in names]
    for combo in range(1 << len(bits)):
        letter = 0
        for i, b in enumerate(bits):
            if combo >> i & 1:
                letter |= 1 << b
        yield letter


def _sat_disjoint(guard: Formula, alphabet: Alphabet) -> bool:
    """Satisfiability by enumerating the guard's own atoms only."""
    return any(eval_bool(guard, letter, alphabet)
               for letter in _letters(sorted(atoms(guard)), alphabet))


class BuchiAutomaton:
    """Nondeterministic Buchi automaton over assignment letters."""

    def __init__(self, alphabet: Alphabet, n_states: int, initial: int,
                 accepting: frozenset[int], transitions: tuple[Transition, ...]):
        if not (0 <= initial < n_states):
            raise ValueError("initial state out of range")
        if not all(0 <= q < n_states for q in accepting):
            raise ValueError("accepting state out of range")
        names = set(alphabet.names)
        for t in transitions:
            if not (0 <= t.src < n_states and 0 <= t.dst < n_states):
                raise ValueError(f"transition endpoint out of range: {t}")
            if not is_boolean(t.guard):
                raise ValueError(f"guard must be a Boolean formula: {t.guard}")
            if not atoms(t.guard) <= names:
                raise ValueError(f"guard {t.guard} uses atoms outside the alphabet")
        self.alphabet = alphabet
        self.n_states = n_states
        self.initial = initial
        self.accepting = frozenset(accepting)
        self.transitions = tuple(transitions)
        self._out: list[list[tuple[Formula, int]]] = [[] for _ in range(n_states)]
        for t in self.transitions:
            self._out[t.src].append((t.guard, t.dst))
        self._step_cache: dict[tuple[int, int], frozenset[int]] = {}
        self._edges: tuple[tuple[int, ...], ...] | None = None
        self._classes: StateClasses | None = None

    # -- basic queries ---------------------------------------------------

    def out(self, q: int) -> list[tuple[Formula, int]]:
        return self._out[q]

    def succ(self, q: int, letter: int) -> frozenset[int]:
        key = (q, letter)
        hit = self._step_cache.get(key)
        if hit is None:
            hit = frozenset(d for g, d in self._out[q]
                            if eval_bool(g, letter, self.alphabet))
            self._step_cache[key] = hit
        return hit

    def step(self, states: frozenset[int], letter: int) -> frozenset[int]:
        """All successors of the state set under one assignment letter."""
        out: set[int] = set()
        for q in states:
            out |= self.succ(q, letter)
        return frozenset(out)

    def edges(self) -> tuple[tuple[int, ...], ...]:
        """Per state, the sorted distinct successors over satisfiable guards."""
        if self._edges is None:
            succ: list[set[int]] = [set() for _ in range(self.n_states)]
            for t in self.transitions:
                if t.dst not in succ[t.src] and _sat_disjoint(t.guard, self.alphabet):
                    succ[t.src].add(t.dst)
            self._edges = tuple(tuple(sorted(s)) for s in succ)
        return self._edges

    # -- state classification --------------------------------------------

    def classify(self) -> StateClasses:
        if self._classes is not None:
            return self._classes
        adj = self.edges()
        good = (q for q in self.accepting if _on_cycle(q, adj))
        live = frozenset(_closure(good, _reverse(adj)))
        sinks = set()
        for q in self.accepting:
            edges = self._out[q]
            if edges and all(d == q for _, d in edges):
                if _tautology(_or_fold([g for g, _ in edges]), self.alphabet):
                    sinks.add(q)
        self._classes = StateClasses(live=live, accepting_sink=frozenset(sinks))
        return self._classes

    def _support(self) -> tuple[str, ...]:
        names: set[str] = set()
        for t in self.transitions:
            names |= atoms(t.guard)
        return tuple(sorted(names))

    # -- lasso acceptance --------------------------------------------------

    def accepts_lasso(self, word: Lasso) -> bool:
        """Does some run over prefix . cycle^omega visit acceptance infinitely often?

        Product node q * n + i means state q is about to read position i; the
        word is accepted iff a reachable node with an accepting state lies on
        a cycle.
        """
        letters = word.prefix + word.cycle
        n = len(letters)
        nxt = [i + 1 for i in range(n - 1)] + [len(word.prefix)]
        adj = [[d * n + nxt[i] for d in self.succ(q, letters[i])]
               for q in range(self.n_states) for i in range(n)]
        return any(v // n in self.accepting and _on_cycle(v, adj)
                   for v in _closure((self.initial * n,), adj))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "alphabet": list(self.alphabet.names),
            "states": list(range(self.n_states)),
            "initial": self.initial,
            "accepting": sorted(self.accepting),
            "transitions": [
                {"src": t.src, "guard": format_formula(t.guard), "dst": t.dst}
                for t in self.transitions
            ],
        }

    def to_dot(self) -> str:
        lines = ["digraph buchi {", "  rankdir=LR;", '  node [shape=circle];',
                 '  __init [shape=point, label=""];',
                 f"  __init -> q{self.initial};"]
        for q in range(self.n_states):
            shape = "doublecircle" if q in self.accepting else "circle"
            lines.append(f"  q{q} [shape={shape}];")
        for t in self.transitions:
            label = format_formula(t.guard).replace('"', '\\"')
            lines.append(f'  q{t.src} -> q{t.dst} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _closure(seeds: Iterable[int], adj: Sequence[Sequence[int]]) -> set[int]:
    """Every node reachable from the seeds, the seeds included."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for d in adj[stack.pop()]:
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return seen


def _on_cycle(v: int, adj: Sequence[Sequence[int]]) -> bool:
    """Can v reach itself in one or more steps?

    A Buchi automaton accepts some word from a state iff it reaches an
    accepting state for which this holds, the criterion behind the nested
    depth-first emptiness check (Courcoubetis, Vardi, Wolper & Yannakakis,
    1992).
    """
    return v in _closure(adj[v], adj)


def _reverse(adj: Sequence[Sequence[int]]) -> list[list[int]]:
    radj: list[list[int]] = [[] for _ in adj]
    for src, dsts in enumerate(adj):
        for d in dsts:
            radj[d].append(src)
    return radj


def _tautology(guard: Formula, alphabet: Alphabet) -> bool:
    """Validity by enumerating the guard's own atoms only."""
    names = sorted(atoms(guard))
    if len(names) > 14:
        return False  # give up; treated as non-tautology, which is safe
    return all(eval_bool(guard, letter, alphabet)
               for letter in _letters(names, alphabet))


# -- tableau construction ---------------------------------------------------


_INIT = -1


def _expand_tableau(root: Formula):
    """On-the-fly tableau expansion of an NNF formula.

    Returns (olds, nexts, incomings): per-node processed formula sets, next
    obligations, and incoming node ids (with -1 for the virtual initial node).
    Nodes are unique per (old, next) pair. Processing order is fixed by the
    formulas' canonical strings so construction is fully deterministic.
    """
    nodes: dict[tuple[frozenset, frozenset], int] = {}
    olds: list[frozenset] = []
    nexts: list[frozenset] = []
    incomings: list[set[int]] = []
    # worklist of closed nodes whose successors still need expansion
    pending: list[int] = []

    def close(new: set, old: frozenset, nxt: frozenset, inc: frozenset):
        while new:
            g = min(new, key=format_formula)
            new.discard(g)
            if isinstance(g, Bool):
                if not g.value:
                    return
                continue
            if g in old:
                continue
            if isinstance(g, Atom) or (isinstance(g, Not) and isinstance(g.arg, Atom)):
                contra = g.arg if isinstance(g, Not) else Not(g)
                if contra in old:
                    return
                old = old | {g}
                continue
            if isinstance(g, And):
                old = old | {g}
                new |= {g.lhs, g.rhs} - old
                continue
            if isinstance(g, Next):
                old = old | {g}
                nxt = nxt | {g.arg}
                continue
            if isinstance(g, Or):
                old2 = old | {g}
                close(new | ({g.lhs} - old2), old2, nxt, inc)
                close(new | ({g.rhs} - old2), old2, nxt, inc)
                return
            if isinstance(g, Until):
                old2 = old | {g}
                close(new | ({g.rhs} - old2), old2, nxt, inc)
                close(new | ({g.lhs} - old2), old2, nxt | {g}, inc)
                return
            if isinstance(g, Release):
                old2 = old | {g}
                close(new | ({g.lhs, g.rhs} - old2), old2, nxt, inc)
                close(new | ({g.rhs} - old2), old2, nxt | {g}, inc)
                return
            raise TypeError(f"formula not in negation normal form: {g}")
        key = (old, nxt)
        nid = nodes.get(key)
        if nid is None:
            nid = len(olds)
            nodes[key] = nid
            olds.append(old)
            nexts.append(nxt)
            incomings.append(set(inc))
            pending.append(nid)
        else:
            incomings[nid] |= inc

    close({root}, frozenset(), frozenset(), frozenset({_INIT}))
    while pending:
        nid = pending.pop(0)
        close(set(nexts[nid]), frozenset(), frozenset(), frozenset({nid}))
    return olds, nexts, incomings


def _guard_of(old: frozenset) -> Formula:
    lits = [g for g in old
            if isinstance(g, Atom) or (isinstance(g, Not) and isinstance(g.arg, Atom))]
    lits.sort(key=format_formula)
    return _and_fold(lits)


def _until_subformulas(f: Formula) -> list[Until]:
    found: set[Until] = set()

    def walk(g: Formula):
        if isinstance(g, Until):
            found.add(g)
        for attr in ("arg", "lhs", "rhs"):
            child = getattr(g, attr, None)
            if isinstance(child, Formula):
                walk(child)

    walk(f)
    return sorted(found, key=format_formula)


def compile_formula(f: Formula, alphabet: Alphabet | None = None) -> BuchiAutomaton:
    """Compile a formula into a pruned, simplified Buchi automaton."""
    if alphabet is None:
        alphabet = alphabet_of(f)
    else:
        missing = atoms(f) - set(alphabet.names)
        if missing:
            raise ValueError(f"formula atoms {sorted(missing)} not in alphabet")
    g = nnf(f)
    olds, nexts, incomings = _expand_tableau(g)

    # states: tableau nodes shifted by one, state 0 is the virtual initial
    n_states = len(olds) + 1
    transitions: list[Transition] = []
    for nid in range(len(olds)):
        guard = _guard_of(olds[nid])
        for src in sorted(incomings[nid]):
            transitions.append(Transition(src + 1, guard, nid + 1))
    # a true right-hand side holds at every node even though the closure
    # never stores it
    acc_sets = [frozenset(nid + 1 for nid, old in enumerate(olds)
                          if u not in old or u.rhs == TRUE or u.rhs in old)
                for u in _until_subformulas(g)]
    # with no Until every state accepts; with one the counter stays at 0
    aut = _degeneralize(alphabet, n_states, 0, transitions,
                        acc_sets or [frozenset(range(n_states))])
    aut = _prune(aut)
    aut = _merge_universal_sccs(aut)
    aut = _merge_bisimilar(aut)
    aut = _absorb_into_sinks(aut)
    return _renumber(aut)


def _degeneralize(alphabet: Alphabet, n_states: int, initial: int,
                  transitions: list[Transition],
                  acc_sets: list[frozenset[int]]) -> BuchiAutomaton:
    """Counting construction: one counter level per acceptance set.

    At level i, leaving a state in acceptance set i advances the counter;
    the run is accepting iff the counter wraps forever, which is equivalent
    to visiting every set infinitely often.
    """
    k = len(acc_sets)
    out: list[list[Transition]] = [[] for _ in range(n_states)]
    for t in transitions:
        out[t.src].append(t)
    index: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []

    def state_id(q: int, level: int) -> int:
        key = (q, level)
        sid = index.get(key)
        if sid is None:
            sid = len(order)
            index[key] = sid
            order.append(key)
        return sid

    start = state_id(initial, 0)
    new_transitions: list[Transition] = []
    i = 0
    while i < len(order):
        q, level = order[i]
        nxt_level = (level + 1) % k if q in acc_sets[level] else level
        for t in out[q]:
            new_transitions.append(
                Transition(state_id(q, level), t.guard, state_id(t.dst, nxt_level)))
        i += 1
    accepting = frozenset(sid for (q, level), sid in index.items()
                          if level == k - 1 and q in acc_sets[k - 1])
    return BuchiAutomaton(alphabet, len(order), start, accepting,
                          tuple(new_transitions))


def _prune(aut: BuchiAutomaton) -> BuchiAutomaton:
    """Drop states with no reachable accepting cycle (keeping the initial
    state) and anything unreachable from the initial state, and unmark
    accepting states that no run can visit infinitely often.

    A run satisfies the acceptance condition iff it visits some single
    accepting state infinitely often, which requires a cycle through that
    state. Degeneralization marks counter-wrap copies of transient states
    as accepting; dropping those marks keeps the language and lets the
    bisimulation quotient fold the copies away. Liveness stays as it is:
    its seeds are exactly the accepting states on a cycle. Guards are not
    re-tested, since the tableau drops every contradictory node.
    """
    adj = aut.edges()
    keep = set(aut.classify().live) | {aut.initial}
    inside = [[d for d in dsts if d in keep] for dsts in adj]
    keep &= _closure((aut.initial,), inside)
    remap = {q: i for i, q in enumerate(sorted(keep))}
    transitions = tuple(
        Transition(remap[t.src], t.guard, remap[t.dst])
        for t in aut.transitions if t.src in remap and t.dst in remap)
    accepting = frozenset(remap[q] for q in aut.accepting
                          if q in remap and _on_cycle(q, adj))
    return BuchiAutomaton(aut.alphabet, len(remap), remap[aut.initial],
                          accepting, transitions)


def _merge_universal_sccs(aut: BuchiAutomaton) -> BuchiAutomaton:
    """Collapse components that accept every continuation into one sink.

    The states an accepting state q reaches form a universal component when
    each of them leads back to q (so they are one SCC), has a successor, and
    has only tautology-guarded transitions that stay inside: from any
    member, any word can forever stay inside while routing through q.
    Degeneralization turns fulfilled formulas into such counter cycles
    instead of a single looping state; merging them back restores an
    explicit accepting sink without changing the language.
    """
    adj = aut.edges()
    universal: set[int] = set()
    for q in aut.accepting:
        if q in universal:
            continue
        comp = _closure((q,), adj)
        if all(aut.out(p)
               and all(d in comp and _tautology(g, aut.alphabet)
                       for g, d in aut.out(p))
               for p in comp) and comp <= _closure((q,), _reverse(adj)):
            universal |= comp
    if not universal:
        return aut
    # close upward: a state every letter can move into the universal set is
    # itself universal, whatever its other edges do
    changed = True
    while changed:
        changed = False
        for q in range(aut.n_states):
            if q in universal:
                continue
            into = sorted((g for g, d in aut.out(q) if d in universal),
                          key=format_formula)
            if into and _tautology(_or_fold(into), aut.alphabet):
                universal.add(q)
                changed = True
    rep = min(universal)
    transitions = [Transition(rep, TRUE, rep)]
    for t in aut.transitions:
        if t.src in universal:
            continue
        dst = rep if t.dst in universal else t.dst
        transitions.append(Transition(t.src, t.guard, dst))
    initial = rep if aut.initial in universal else aut.initial
    accepting = frozenset(aut.accepting - universal) | {rep}
    return BuchiAutomaton(aut.alphabet, aut.n_states, initial, accepting,
                          tuple(transitions))


def _merge_bisimilar(aut: BuchiAutomaton) -> BuchiAutomaton:
    """Quotient by strong bisimulation (acceptance-respecting)."""
    support = aut._support()
    if len(support) > 10:
        return aut
    letters = list(_letters(support, aut.alphabet))
    succ = [[frozenset(aut.succ(q, letter)) for letter in letters]
            for q in range(aut.n_states)]
    cls = [1 if q in aut.accepting else 0 for q in range(aut.n_states)]
    while True:
        sigs = {}
        new_cls = [0] * aut.n_states
        for q in range(aut.n_states):
            sig = (cls[q],
                   tuple(frozenset(cls[d] for d in succ[q][li])
                         for li in range(len(letters))))
            if sig not in sigs:
                sigs[sig] = len(sigs)
            new_cls[q] = sigs[sig]
        if new_cls == cls:
            break
        cls = new_cls
    n_classes = len(set(cls))
    if n_classes == aut.n_states:
        return aut
    rep = {}
    for q in range(aut.n_states):
        rep.setdefault(cls[q], q)  # smallest member is the representative
    transitions = []
    seen = set()
    for c, q in sorted(rep.items()):
        for guard, dst in aut.out(q):
            key = (c, format_formula(guard), cls[dst])
            if key not in seen:
                seen.add(key)
                transitions.append(Transition(c, guard, cls[dst]))
    accepting = frozenset(cls[q] for q in aut.accepting)
    return BuchiAutomaton(aut.alphabet, n_classes, cls[aut.initial],
                          accepting, tuple(transitions))


def _absorb_into_sinks(aut: BuchiAutomaton) -> BuchiAutomaton:
    """Narrow guards that compete with an edge into an accepting sink.

    If a letter can move into an accepting sink, any alternative successor
    under that letter is redundant: the sink accepts every continuation.
    Removing the letter from competing guards keeps the language unchanged
    and makes progress toward the sink explicit.
    """
    sinks = aut.classify().accepting_sink
    if not sinks:
        return aut
    transitions: list[Transition] = []
    for q in range(aut.n_states):
        edges = aut.out(q)
        sink_guards = sorted((g for g, d in edges if d in sinks), key=format_formula)
        if q in sinks or not sink_guards:
            transitions.extend(Transition(q, g, d) for g, d in edges)
            continue
        blocker = Not(_or_fold(sink_guards))
        for g, d in edges:
            if d in sinks:
                transitions.append(Transition(q, g, d))
                continue
            narrowed = _simplify(And(g, blocker))
            if _sat_disjoint(narrowed, aut.alphabet):
                transitions.append(Transition(q, narrowed, d))
    return BuchiAutomaton(aut.alphabet, aut.n_states, aut.initial,
                          aut.accepting, tuple(transitions))


def _renumber(aut: BuchiAutomaton) -> BuchiAutomaton:
    """Canonical breadth-first state numbering with the initial state at 0."""
    order = [aut.initial]
    seen = {aut.initial}
    i = 0
    while i < len(order):
        q = order[i]
        i += 1
        for guard, dst in sorted(aut.out(q), key=lambda e: (format_formula(e[0]), e[1])):
            if dst not in seen:
                seen.add(dst)
                order.append(dst)
    remap = {q: i for i, q in enumerate(order)}
    transitions = sorted(
        (Transition(remap[t.src], t.guard, remap[t.dst])
         for t in aut.transitions if t.src in remap and t.dst in remap),
        key=lambda t: (t.src, format_formula(t.guard), t.dst))
    accepting = frozenset(remap[q] for q in aut.accepting if q in remap)
    return BuchiAutomaton(aut.alphabet, len(order), 0, accepting,
                          tuple(transitions))
