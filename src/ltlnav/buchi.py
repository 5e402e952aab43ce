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

No compile stage evaluates a guard letter by letter. The tableau
(tableau.py) works on subformula ids numbered in canonical-string order and
expands each distinct next set once; later nodes with the same next set
only gain incoming edges. Satisfiability and validity split on one atom at
a time, folding its value through the guard. Each compile decides every
distinct guard at most once: its stages share one memo of satisfiability,
validity and support, which the returned automaton does not keep. The
bisimulation quotient compares, per successor class, the int truth table
of the support letters that lead into it, built once per distinct guard.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import reduce

from .ltl import (
    TRUE, Alphabet, And, Atom, Bool, Formula, Lasso, Not, Or, Until,
    alphabet_of, atoms, eval_bool, format_formula, is_boolean, nnf,
)
from .tableau import expand_tableau, is_literal

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


# Guards are built only through these three, which fold constants and double
# negation as they go, so no guard carries a Bool below its root.


def _not(a: Formula) -> Formula:
    if isinstance(a, Bool):
        return Bool(not a.value)
    return a.arg if isinstance(a, Not) else Not(a)


def _and(a: Formula, b: Formula) -> Formula:
    if isinstance(a, Bool):
        return b if a.value else a
    if isinstance(b, Bool):
        return a if b.value else b
    return And(a, b)


def _or(a: Formula, b: Formula) -> Formula:
    if isinstance(a, Bool):
        return a if a.value else b
    if isinstance(b, Bool):
        return b if b.value else a
    return Or(a, b)


def _assign(g: Formula, name: str | None, value: bool) -> Formula:
    """g with the atom `name` (none when None) set to `value`, constants
    folded away."""
    if isinstance(g, Atom):
        return Bool(value) if g.name == name else g
    if isinstance(g, Bool):
        return g
    if isinstance(g, Not):
        return _not(_assign(g.arg, name, value))
    fold = _and if isinstance(g, And) else _or
    return fold(_assign(g.lhs, name, value), _assign(g.rhs, name, value))


def _sat_disjoint(guard: Formula) -> bool:
    """Satisfiability by splitting on one atom at a time.

    Each split folds the atom's value through the guard, so a cube or a
    disjunction of k literals is settled in O(k^2) steps where enumerating
    its letters takes 2^k, and a guard over k atoms never splits into more
    than 2^k leaves.
    """
    if isinstance(guard, Bool):
        return guard.value
    name = min(atoms(guard), default=None)
    return any(_sat_disjoint(_assign(guard, name, v)) for v in (True, False))


class _Guards:
    """Satisfiability, validity, support and text of guards, each worked
    out at most once per distinct guard.

    The stages of one compile share one instance and drop it when the
    compile returns; every other automaton has its own.
    """

    def __init__(self):
        self._sat: dict[Formula, bool] = {}
        self._valid: dict[Formula, bool] = {}
        self._support: dict[Formula, frozenset[str]] = {}
        self._text: dict[Formula, str] = {}

    def sat(self, g: Formula) -> bool:
        ok = self._sat.get(g)
        if ok is None:
            ok = self._sat[g] = _sat_disjoint(g)
        return ok

    def valid(self, g: Formula) -> bool:
        ok = self._valid.get(g)
        if ok is None:
            ok = self._valid[g] = _tautology(g)
        return ok

    def support(self, g: Formula) -> frozenset[str]:
        """The guard's atoms; raises ValueError if it is not Boolean."""
        names = self._support.get(g)
        if names is None:
            if not is_boolean(g):
                raise ValueError(f"guard must be a Boolean formula: {g}")
            names = self._support[g] = atoms(g)
        return names

    def text(self, g: Formula) -> str:
        """format_formula(g), the key guards are sorted and deduplicated by."""
        s = self._text.get(g)
        if s is None:
            s = self._text[g] = format_formula(g)
        return s


class BuchiAutomaton:
    """Nondeterministic Buchi automaton over assignment letters.

    `guards` is the memo of guard facts a compile shares across its stages;
    an automaton built without one gets its own.
    """

    def __init__(self, alphabet: Alphabet, n_states: int, initial: int,
                 accepting: frozenset[int], transitions: tuple[Transition, ...],
                 guards: _Guards | None = None):
        if not (0 <= initial < n_states):
            raise ValueError("initial state out of range")
        if not all(0 <= q < n_states for q in accepting):
            raise ValueError("accepting state out of range")
        self.transitions = tuple(transitions)
        self._out: list[list[tuple[Formula, int]]] = [[] for _ in range(n_states)]
        # the guard objects, each once: compile stages share guard objects,
        # so facts about guards are looked up per object, not per transition
        by_id: dict[int, Formula] = {}
        for t in self.transitions:
            if not (0 <= t.src < n_states and 0 <= t.dst < n_states):
                raise ValueError(f"transition endpoint out of range: {t}")
            self._out[t.src].append((t.guard, t.dst))
            by_id[id(t.guard)] = t.guard
        self._guard_objects = tuple(by_id.values())
        self._guards = _Guards() if guards is None else guards
        names = set(alphabet.names)
        for g in self._guard_objects:
            if not self._guards.support(g) <= names:
                raise ValueError(f"guard {g} uses atoms outside the alphabet")
        self.alphabet = alphabet
        self.n_states = n_states
        self.initial = initial
        self.accepting = frozenset(accepting)
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
            sat = {id(g): self._guards.sat(g) for g in self._guard_objects}
            for t in self.transitions:
                if sat[id(t.guard)]:
                    succ[t.src].add(t.dst)
            self._edges = tuple(tuple(sorted(s)) for s in succ)
        return self._edges

    # -- state classification --------------------------------------------

    def classify(self) -> StateClasses:
        if self._classes is not None:
            return self._classes
        adj = self.edges()
        live = frozenset(_closure(self.accepting & _cycle_nodes(adj),
                                  _reverse(adj)))
        sinks = set()
        for q in self.accepting:
            edges = self._out[q]
            if edges and all(d == q for _, d in edges):
                if self._guards.valid(reduce(_or, [g for g, _ in edges])):
                    sinks.add(q)
        self._classes = StateClasses(live=live, accepting_sink=frozenset(sinks))
        return self._classes

    def _support(self) -> tuple[str, ...]:
        names: set[str] = set()
        for g in self._guard_objects:
            names |= self._guards.support(g)
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
        return any(v // n in self.accepting
                   for v in _cycle_nodes(adj, (self.initial * n,)))

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


def _cycle_nodes(adj: Sequence[Sequence[int]],
                 roots: Iterable[int] | None = None) -> set[int]:
    """The nodes that reach themselves in one or more steps, among those
    reachable from the roots (from every node when None).

    A Buchi automaton accepts some word from a state iff it reaches an
    accepting state on a cycle, the criterion behind the nested depth-first
    emptiness check (Courcoubetis, Vardi, Wolper & Yannakakis, 1992). One
    iterative pass of Tarjan's strongly connected components finds them
    all: a node is on a cycle iff its component has another node or it has
    a self-loop.
    """
    done = len(adj) + 1
    num = [0] * len(adj)   # discovery number from 1; done once its component is
    low = [0] * len(adj)   # complete, so that it no longer lowers a low link
    stack: list[int] = []
    cyclic: set[int] = set()
    count = 0
    for root in range(len(adj)) if roots is None else roots:
        if num[root]:
            continue
        count += 1
        num[root] = low[root] = count
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if not num[w]:
                    count += 1
                    num[w] = low[w] = count
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                low[v] = min(low[v], num[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == num[v]:
                    i = len(stack) - 1
                    while stack[i] != v:
                        i -= 1
                    comp = stack[i:]
                    del stack[i:]
                    for w in comp:
                        num[w] = done
                    if len(comp) > 1 or v in adj[v]:
                        cyclic.update(comp)
    return cyclic


def _reverse(adj: Sequence[Sequence[int]]) -> list[list[int]]:
    radj: list[list[int]] = [[] for _ in adj]
    for src, dsts in enumerate(adj):
        for d in dsts:
            radj[d].append(src)
    return radj


def _tautology(guard: Formula) -> bool:
    """Validity: the guard's negation is unsatisfiable."""
    if len(atoms(guard)) > 14:
        return False  # give up; treated as non-tautology, which is safe
    return not _sat_disjoint(_not(guard))


def compile_formula(f: Formula, alphabet: Alphabet | None = None) -> BuchiAutomaton:
    """Compile a formula into a pruned, simplified Buchi automaton."""
    if alphabet is None:
        alphabet = alphabet_of(f)
    else:
        missing = atoms(f) - set(alphabet.names)
        if missing:
            raise ValueError(f"formula atoms {sorted(missing)} not in alphabet")
    subs, olds, incomings = expand_tableau(nnf(f))
    index = {g: i for i, g in enumerate(subs)}

    # states: tableau nodes shifted by one, state 0 is the virtual initial
    n_states = len(olds) + 1
    transitions: list[Transition] = []
    for nid, old in enumerate(olds):
        # ids ascend in format_formula order, so the literals come sorted
        guard = reduce(_and, (subs[i] for i in sorted(old) if is_literal(subs[i])),
                       TRUE)
        for src in sorted(incomings[nid]):
            transitions.append(Transition(src + 1, guard, nid + 1))
    # one acceptance set per Until; a true right-hand side holds at every
    # node even though the closure never stores it
    acc_sets = [frozenset(nid + 1 for nid, old in enumerate(olds)
                          if u not in old or g.rhs == TRUE or index[g.rhs] in old)
                for u, g in enumerate(subs) if isinstance(g, Until)]
    # with no Until every state accepts; with one the counter stays at 0
    aut = _degeneralize(alphabet, n_states, 0, transitions,
                        acc_sets or [frozenset(range(n_states))], _Guards())
    aut = _prune(aut)
    aut = _merge_universal_sccs(aut)
    aut = _merge_bisimilar(aut)
    aut = _renumber(_absorb_into_sinks(aut))
    aut._guards = _Guards()   # the compile's memo goes when it returns
    return aut


def _degeneralize(alphabet: Alphabet, n_states: int, initial: int,
                  transitions: list[Transition], acc_sets: list[frozenset[int]],
                  guards: _Guards) -> BuchiAutomaton:
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
    while i < len(order):   # state i is order[i]
        q, level = order[i]
        nxt_level = (level + 1) % k if q in acc_sets[level] else level
        for t in out[q]:
            new_transitions.append(
                Transition(i, t.guard, state_id(t.dst, nxt_level)))
        i += 1
    accepting = frozenset(sid for (q, level), sid in index.items()
                          if level == k - 1 and q in acc_sets[k - 1])
    return BuchiAutomaton(alphabet, len(order), start, accepting,
                          tuple(new_transitions), guards)


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
    good = aut.accepting & _cycle_nodes(adj)
    keep = _closure(good, _reverse(adj)) | {aut.initial}
    inside = [[d for d in dsts if d in keep] for dsts in adj]
    keep &= _closure((aut.initial,), inside)
    remap = {q: i for i, q in enumerate(sorted(keep))}
    transitions = tuple(
        Transition(remap[t.src], t.guard, remap[t.dst])
        for t in aut.transitions if t.src in remap and t.dst in remap)
    accepting = frozenset(remap[q] for q in good if q in remap)
    return BuchiAutomaton(aut.alphabet, len(remap), remap[aut.initial],
                          accepting, transitions, aut._guards)


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
    radj = _reverse(adj)
    valid = aut._guards.valid
    universal: set[int] = set()
    for q in aut.accepting:
        if q in universal:
            continue
        comp = _closure((q,), adj)
        if all(aut.out(p)
               and all(d in comp and valid(g) for g, d in aut.out(p))
               for p in comp) and comp <= _closure((q,), radj):
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
                          key=aut._guards.text)
            if into and valid(reduce(_or, into)):
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
                          tuple(transitions), aut._guards)


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


def _bisimilar_classes(aut: BuchiAutomaton, support: Sequence[str]) -> list[int]:
    """Each state's class under strong bisimulation (acceptance-respecting),
    numbered in order of first member.

    A state's signature is its class and, per successor class, the mask of
    support letters that lead into that class: the same information as its
    successor classes letter by letter, held in one int per class.
    """
    # letter l sets support[i] iff bit i of l is set
    n = 1 << len(support)
    atom = {name: sum(1 << l for l in range(n) if l >> i & 1)
            for i, name in enumerate(support)}
    full = (1 << n) - 1
    masks = {id(g): _letter_mask(g, atom, full) for g in aut._guard_objects}
    out = [[(masks[id(g)], d) for g, d in aut.out(q)]
           for q in range(aut.n_states)]
    cls = [1 if q in aut.accepting else 0 for q in range(aut.n_states)]
    while True:
        sigs = {}
        new_cls = [0] * aut.n_states
        for q in range(aut.n_states):
            into: dict[int, int] = {}
            for mask, d in out[q]:
                into[cls[d]] = into.get(cls[d], 0) | mask
            sig = (cls[q], frozenset(item for item in into.items() if item[1]))
            if sig not in sigs:
                sigs[sig] = len(sigs)
            new_cls[q] = sigs[sig]
        if new_cls == cls:
            return cls
        cls = new_cls


def _merge_bisimilar(aut: BuchiAutomaton) -> BuchiAutomaton:
    """Quotient by strong bisimulation; skipped above 10 support names."""
    support = aut._support()
    if len(support) > 10:
        return aut
    cls = _bisimilar_classes(aut, support)
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
            key = (c, aut._guards.text(guard), cls[dst])
            if key not in seen:
                seen.add(key)
                transitions.append(Transition(c, guard, cls[dst]))
    accepting = frozenset(cls[q] for q in aut.accepting)
    return BuchiAutomaton(aut.alphabet, n_classes, cls[aut.initial],
                          accepting, tuple(transitions), aut._guards)


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
        sink_guards = sorted((g for g, d in edges if d in sinks),
                             key=aut._guards.text)
        if q in sinks or not sink_guards:
            transitions.extend(Transition(q, g, d) for g, d in edges)
            continue
        blocker = _not(reduce(_or, sink_guards))
        for g, d in edges:
            if d in sinks:
                transitions.append(Transition(q, g, d))
                continue
            narrowed = _and(g, blocker)
            if aut._guards.sat(narrowed):
                transitions.append(Transition(q, narrowed, d))
    return BuchiAutomaton(aut.alphabet, aut.n_states, aut.initial,
                          aut.accepting, tuple(transitions), aut._guards)


def _renumber(aut: BuchiAutomaton) -> BuchiAutomaton:
    """Canonical breadth-first state numbering with the initial state at 0."""
    text = aut._guards.text
    order = [aut.initial]
    seen = {aut.initial}
    i = 0
    while i < len(order):
        q = order[i]
        i += 1
        for guard, dst in sorted(aut.out(q), key=lambda e: (text(e[0]), e[1])):
            if dst not in seen:
                seen.add(dst)
                order.append(dst)
    remap = {q: i for i, q in enumerate(order)}
    transitions = sorted(
        (Transition(remap[t.src], t.guard, remap[t.dst])
         for t in aut.transitions if t.src in remap and t.dst in remap),
        key=lambda t: (t.src, text(t.guard), t.dst))
    accepting = frozenset(remap[q] for q in aut.accepting if q in remap)
    return BuchiAutomaton(aut.alphabet, len(order), 0, accepting,
                          tuple(transitions), aut._guards)
