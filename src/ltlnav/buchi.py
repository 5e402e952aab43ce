"""Buchi automata compiled from LTL formulas.

`compile_formula` runs every formula through these stages, in order:

1. negation normal form (`ltl.nnf`)
2. tableau expansion into a generalized automaton, one acceptance set per
   Until subformula, or all states when there is none (`expand_tableau`)
3. bisimulation quotient of the generalized automaton that respects every
   acceptance set (`_merge_generalized`)
4. counting degeneralization to one acceptance set (`_degeneralize`)
5. one prune of dead states and of accepting marks no run can repeat
   (`_prune`)
6. universal components collapsed into accepting sinks
   (`_merge_universal_sccs`)
7. bisimulation quotient that respects acceptance (`_merge_bisimilar`)
8. guard narrowing toward accepting sinks (`_absorb_into_sinks`)
9. canonical renumbering, whose graph the one `BuchiAutomaton` the
   compile returns adopts; initial state 0 (`_renumber`)

Every stage keeps the accepted language. Both quotients refine by
splitters (`_bisimilar_classes`) from their own initial blocks. The stages
share one graph of guard ids (`_Graph`) whose adjacency and SCCs are built
at most once.
`_Guards` interns each distinct guard once and builds its node in one
reduced ordered BDD at most once; satisfiability, validity, whether a set
of guards covers every letter and the quotient's signatures are read off
the nodes, over any number of names.
The returned automaton keeps that table and the last stage's edge lists,
its only ones. Its `succ` decides each guard leaving a state on a letter by
walking the guard's node down the letter's bits (`_Guards.holds`), once per
(state, letter).
"""

from __future__ import annotations

from collections.abc import Container, Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from functools import reduce

from .ltl import (
    TRUE, Alphabet, And, Atom, Bool, Formula, Lasso, Not, Or, Until,
    alphabet_of, atoms, format_formula, nnf,
    eval_bool,  # not called here: perfbench/tracing.py counts calls through it
)
from .tableau import expand_tableau, is_literal

__all__ = ["StateClasses", "BuchiAutomaton", "compile_formula"]


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


class _Guards:
    """The distinct guards of one compile, or of one automaton, as int ids
    in first-use order, each with its text and its node in one reduced
    ordered BDD (Bryant 1986), both worked out at most once.

    Node 0 is false, node 1 is true, and any other node n is `_bdd[n]`, a
    (name, low, high) triple: the atom it tests, and its value with that
    atom false and true. Atoms are ordered by name, and the unique table
    makes equal functions equal nodes, so a guard is satisfiable iff its
    node is not 0 and valid iff it is 1, and a set of guards covers every
    letter iff the Or of their nodes is 1. A letter satisfies a node iff
    the walk down its bits ends at 1 (`holds`)."""

    def __init__(self):
        self.formulas: list[Formula] = []
        self._ids: dict[Formula, int] = {}
        self._nodes: dict[int, int] = {}
        self._text: dict[int, str] = {}
        self._bdd: list[tuple[str, int, int]] = [("", 0, 0), ("", 1, 1)]
        self._unique: dict[tuple[str, int, int], int] = {}
        self._applied: dict[tuple[type, int, int], int] = {}

    def intern(self, g: Formula) -> int:
        i = self._ids.get(g)
        if i is None:
            i = self._ids[g] = len(self.formulas)
            self.formulas.append(g)
        return i

    def node(self, i: int) -> int:
        """The BDD node of guard i."""
        n = self._nodes.get(i)
        if n is None:
            n = self._nodes[i] = self._build(self.formulas[i])
        return n

    def sat(self, i: int) -> bool:
        return self.node(i) != 0

    def valid(self, i: int) -> bool:
        return self.node(i) == 1

    def holds(self, n: int, letter: int, bits: dict[str, int]) -> bool:
        """Does the letter satisfy node n? `bits` gives each name's bit."""
        bdd = self._bdd
        while n > 1:
            name, low, high = bdd[n]
            n = high if letter >> bits[name] & 1 else low
        return n == 1

    def or_node(self, ids: Iterable[int]) -> int:
        """The node of the Or of the guards; 0 for none."""
        return reduce(lambda u, i: self.apply(Or, u, self.node(i)), ids, 0)

    def covers(self, ids: Iterable[int]) -> bool:
        """Does every letter satisfy one of the guards? False for none."""
        return self.or_node(ids) == 1

    def _build(self, g: Formula) -> int:
        if isinstance(g, Bool):
            return int(g.value)
        if isinstance(g, Atom):
            return self._mk(g.name, 0, 1)
        if isinstance(g, Not):
            return self.apply(Not, self._build(g.arg))
        return self.apply(type(g), self._build(g.lhs), self._build(g.rhs))

    def _mk(self, name: str, low: int, high: int) -> int:
        if low == high:
            return low
        key = (name, low, high)
        n = self._unique.get(key)
        if n is None:
            n = self._unique[key] = len(self._bdd)
            self._bdd.append(key)
        return n

    def apply(self, op: type, u: int, v: int = 0) -> int:
        """The node of `u op v` for op And or Or, or of `not u` for op Not."""
        if op is Not:
            if u < 2:
                return 1 - u
        else:
            if u > v:
                u, v = v, u
            if u < 2:   # u is a constant: And keeps v only when u is true
                return (v if u else 0) if op is And else (1 if u else v)
            if u == v:
                return u
        key = (op, u, v)
        n = self._applied.get(key)
        if n is None:
            a, a0, a1 = self._bdd[u]
            if op is Not:
                n = self._mk(a, self.apply(Not, a0), self.apply(Not, a1))
            else:
                b, b0, b1 = self._bdd[v]
                if a < b:
                    b0 = b1 = v
                elif b < a:
                    a, a0, a1 = b, u, u
                n = self._mk(a, self.apply(op, a0, b0), self.apply(op, a1, b1))
            self._applied[key] = n
        return n

    def text(self, i: int) -> str:
        """format_formula of the guard, the key guards are sorted by."""
        s = self._text.get(i)
        if s is None:
            s = self._text[i] = format_formula(self.formulas[i])
        return s


@dataclass
class _Graph:
    """An automaton as the compile stages pass it on: per state, its edges
    as (guard id, dst) pairs in order, the ids indexing `guards`. The
    satisfiable adjacency and its SCCs are built on first use; they depend
    on `out` alone, so a stage that keeps `out` keeps them too."""

    guards: _Guards
    initial: int
    accepting: frozenset[int]
    out: list[list[tuple[int, int]]]
    _adjacency: tuple[tuple[int, ...], ...] | None = None
    _components: list[list[int]] | None = None

    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Per state, the sorted distinct successors over satisfiable guards."""
        if self._adjacency is None:
            sat = self.guards.sat
            self._adjacency = tuple(
                tuple(sorted({d for i, d in edges if sat(i)}))
                for edges in self.out)
        return self._adjacency

    def sccs(self) -> list[list[int]]:
        """The SCCs of adj(), each after every component it reaches."""
        if self._components is None:
            self._components = list(_sccs(self.adj()))
        return self._components

    def live(self) -> tuple[frozenset[int], set[int]]:
        """(seeds, live): accepting states on a cycle, those reaching one."""
        adj = self.adj()
        seeds = self.accepting & _cyclic(self.sccs(), adj)
        return seeds, _closure(seeds, _reverse(adj))

    def sinks(self) -> frozenset[int]:
        """Accepting states with only self-loops, which cover every letter."""
        covers = self.guards.covers
        return frozenset(
            q for q in self.accepting
            if all(d == q for _, d in self.out[q])
            and covers(i for i, _ in self.out[q]))


class BuchiAutomaton:
    """Nondeterministic Buchi automaton over assignment letters."""

    def __init__(self, alphabet: Alphabet, graph: _Graph):
        """Take `graph` as this automaton's, and its edges as its only ones."""
        self.alphabet = alphabet
        self.n_states = len(graph.out)
        self.initial = graph.initial
        self.accepting = graph.accepting
        self._graph = graph
        self._bits = {name: i for i, name in enumerate(alphabet.names)}
        self._step_cache: dict[tuple[int, int], frozenset[int]] = {}
        self._lasso_table: tuple | None = None   # built by subgoals
        self._classes: StateClasses | None = None

    # -- basic queries ---------------------------------------------------

    def succ(self, q: int, letter: int) -> frozenset[int]:
        key = (q, letter)
        hit = self._step_cache.get(key)
        if hit is None:
            guards, bits = self._graph.guards, self._bits
            hit = frozenset(d for i, d in self._graph.out[q]
                            if guards.holds(guards.node(i), letter, bits))
            self._step_cache[key] = hit
        return hit

    def letters_into(self, q: int, targets: Container[int],
                     letters: Iterable[int]) -> set[int]:
        """The letters under which q has a successor in `targets`: those
        that satisfy the Or of the guards of q's edges into them."""
        guards = self._graph.guards
        into = guards.or_node(i for i, d in self._graph.out[q] if d in targets)
        return {a for a in letters if guards.holds(into, a, self._bits)}

    def step(self, states: frozenset[int], letter: int) -> frozenset[int]:
        """All successors of the state set under one assignment letter."""
        out: set[int] = set()
        for q in states:
            out |= self.succ(q, letter)
        return frozenset(out)

    def edges(self) -> tuple[tuple[int, ...], ...]:
        """Per state, the sorted distinct successors over satisfiable guards."""
        return self._graph.adj()

    def sccs(self) -> list[list[int]]:
        """The SCCs of edges(), each after every component it reaches."""
        return self._graph.sccs()

    # -- state classification --------------------------------------------

    def classify(self) -> StateClasses:
        if self._classes is None:
            self._classes = StateClasses(
                live=frozenset(self._graph.live()[1]),
                accepting_sink=self._graph.sinks())
        return self._classes

    # -- lasso acceptance --------------------------------------------------

    def accepts_lasso(self, word: Lasso) -> bool:
        """Does some run over prefix . cycle^omega visit acceptance infinitely often?

        Product node q * n + i means state q is about to read position i; the
        word is accepted iff a reachable node with an accepting state lies on
        a cycle, the criterion behind the nested depth-first emptiness check
        (Courcoubetis, Vardi, Wolper & Yannakakis, 1992).
        """
        letters = word.prefix + word.cycle
        n = len(letters)
        nxt = [i + 1 for i in range(n - 1)] + [len(word.prefix)]
        adj = [[d * n + nxt[i] for d in self.succ(q, letters[i])]
               for q in range(self.n_states) for i in range(n)]
        reached = _closure((self.initial * n,), adj)
        return any(v // n in self.accepting
                   for v in _cyclic(_sccs(adj), adj) & reached)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        text = self._graph.guards.text
        return {
            "alphabet": list(self.alphabet.names),
            "states": list(range(self.n_states)),
            "initial": self.initial,
            "accepting": sorted(self.accepting),
            "transitions": [
                {"src": q, "guard": text(i), "dst": d}
                for q, edges in enumerate(self._graph.out) for i, d in edges
            ],
        }

    def to_dot(self) -> str:
        lines = ["digraph buchi {", "  rankdir=LR;", '  node [shape=circle];',
                 '  __init [shape=point, label=""];',
                 f"  __init -> q{self.initial};"]
        for q in range(self.n_states):
            shape = "doublecircle" if q in self.accepting else "circle"
            lines.append(f"  q{q} [shape={shape}];")
        text = self._graph.guards.text
        for q, edges in enumerate(self._graph.out):
            for i, d in edges:
                label = text(i).replace('"', '\\"')
                lines.append(f'  q{q} -> q{d} [label="{label}"];')
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


def _sccs(adj: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """The strongly connected components, each after every component it
    reaches: one iterative pass of Tarjan's algorithm."""
    done = len(adj) + 1
    num = [0] * len(adj)   # discovery number from 1; done once its component is
    low = [0] * len(adj)   # complete, so that it no longer lowers a low link
    stack: list[int] = []
    count = 0
    for root in range(len(adj)):
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
                    yield comp


def _cyclic(comps: Iterable[list[int]],
            adj: Sequence[Sequence[int]]) -> set[int]:
    """The members of the components that hold a cycle."""
    return {w for comp in comps
            if len(comp) > 1 or comp[0] in adj[comp[0]] for w in comp}


def _reverse(adj: Sequence[Sequence[int]]) -> list[list[int]]:
    radj: list[list[int]] = [[] for _ in adj]
    for src, dsts in enumerate(adj):
        for d in dsts:
            radj[d].append(src)
    return radj


def compile_formula(f: Formula, alphabet: Alphabet | None = None) -> BuchiAutomaton:
    """Compile a formula into a pruned, simplified Buchi automaton."""
    if alphabet is None:
        alphabet = alphabet_of(f)
    else:
        missing = atoms(f) - set(alphabet.names)
        if missing:
            raise ValueError(f"formula atoms {sorted(missing)} not in alphabet")
    graph, acc_sets = _merge_generalized(*_tableau_graph(nnf(f)))
    graph = _degeneralize(graph, acc_sets)
    graph = _merge_bisimilar(_merge_universal_sccs(_prune(graph)))
    return _renumber(_absorb_into_sinks(graph), alphabet)


def _tableau_graph(f: Formula) -> tuple[_Graph, list[frozenset[int]]]:
    """The tableau of an NNF formula as a generalized automaton, with its
    acceptance sets. State q is tableau node q; the tableau's tables go
    when it returns."""
    subs, olds, succs = expand_tableau(f)
    index = {g: i for i, g in enumerate(subs)}
    literals = [(i, g) for i, g in enumerate(subs) if is_literal(g)]
    guards = _Guards()
    # ids ascend in format_formula order, so the literals come sorted; the
    # virtual initial state 0 is no edge's target
    guard = {q: guards.intern(reduce(
        _and, (g for i, g in literals if olds[q] >> i & 1), TRUE))
        for q in range(1, len(olds))}
    out = [[(guard[d], d) for d in ds] for ds in succs]
    # one acceptance set per Until; a true right-hand side holds at every
    # node even though the closure never stores it
    rhs = {u: index[g.rhs] for u, g in enumerate(subs) if isinstance(g, Until)}
    acc_sets = [frozenset(q for q in range(1, len(olds)) if not olds[q] >> u & 1
                          or olds[q] >> r & 1 or subs[r] == TRUE)
                for u, r in rhs.items()]
    # with no Until every state accepts; with one the counter stays at 0
    return (_Graph(guards, 0, frozenset(), out),
            acc_sets or [frozenset(range(len(out)))])


def _degeneralize(g: _Graph, acc_sets: list[frozenset[int]]) -> _Graph:
    """Counting construction: one counter level per acceptance set.

    At level i, leaving a state in acceptance set i advances the counter;
    the run is accepting iff the counter wraps forever, which is equivalent
    to visiting every set infinitely often.
    """
    k = len(acc_sets)
    index: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []

    def state_id(q: int, level: int) -> int:
        key = (q, level)
        sid = index.get(key)
        if sid is None:
            sid = index[key] = len(order)
            order.append(key)
        return sid

    start = state_id(g.initial, 0)
    out = []
    for q, level in order:   # grows as new (state, level) pairs are reached
        nxt_level = (level + 1) % k if q in acc_sets[level] else level
        out.append([(i, state_id(d, nxt_level)) for i, d in g.out[q]])
    accepting = frozenset(sid for (q, level), sid in index.items()
                          if level == k - 1 and q in acc_sets[k - 1])
    return _Graph(g.guards, start, accepting, out)


def _prune(g: _Graph) -> _Graph:
    """Drop states with no reachable accepting cycle (keeping the initial
    state), and unmark accepting states that no run can visit infinitely
    often.

    A run satisfies the acceptance condition iff it visits some single
    accepting state infinitely often, which requires a cycle through that
    state. Degeneralization marks counter-wrap copies of transient states
    as accepting; dropping those marks keeps the language and lets the
    bisimulation quotient fold the copies away. Liveness stays as it is:
    `live()` seeds it with exactly the accepting states on a cycle.

    Every kept state stays reachable from the initial state, with no pass
    to check it: `_degeneralize` builds only the states it reaches, every
    tableau guard is satisfiable (the tableau drops each node holding a
    literal and its complement, so `adj()` keeps every edge), and a state
    on a path to a live state is live itself.
    """
    good, live = g.live()
    keep = live | {g.initial}
    if len(keep) == len(g.out):
        # no state dropped: the edge lists, adjacency and SCCs all stand
        return replace(g, accepting=good)
    remap = {q: i for i, q in enumerate(sorted(keep))}
    out = [[(i, remap[d]) for i, d in g.out[q] if d in remap] for q in remap]
    accepting = frozenset(remap[q] for q in good if q in remap)
    return _Graph(g.guards, remap[g.initial], accepting, out)


def _universal_sccs(g: _Graph) -> set[int]:
    """The states of the universal components: the SCCs that hold an
    accepting state q and whose members each have a successor and only
    tautology-guarded transitions that stay inside. From any member, any
    word can forever stay inside while routing through q."""
    valid = g.guards.valid
    universal: set[int] = set()
    for comp in g.sccs():
        if g.accepting.isdisjoint(comp):
            continue
        members = set(comp)
        if all(g.out[p] and all(d in members and valid(i) for i, d in g.out[p])
               for p in comp):
            universal |= members
    return universal


def _merge_universal_sccs(g: _Graph) -> _Graph:
    """Collapse components that accept every continuation into one sink.

    Degeneralization turns fulfilled formulas into universal components,
    counter cycles instead of a single looping state; merging them back
    restores an explicit accepting sink without changing the language.
    """
    universal = _universal_sccs(g)
    if not universal:
        return g
    # close upward: a state every letter can move into the universal set is
    # itself universal, whatever its other edges do
    changed = True
    while changed:
        changed = False
        for q, edges in enumerate(g.out):
            if q not in universal and g.guards.covers(
                    i for i, d in edges if d in universal):
                universal.add(q)
                changed = True
    rep = min(universal)
    out = [[] if q in universal else
           [(i, rep if d in universal else d) for i, d in edges]
           for q, edges in enumerate(g.out)]
    out[rep] = [(g.guards.intern(TRUE), rep)]
    initial = rep if g.initial in universal else g.initial
    accepting = frozenset(g.accepting - universal) | {rep}
    return _Graph(g.guards, initial, accepting, out)


def _bisimilar_classes(g: _Graph, marks: Sequence[Hashable]) -> list[int]:
    """Each state's class under strong bisimulation, refined from the
    initial blocks of equal `marks`, numbered in order of first member.

    A state's signature is, per successor block, the BDD node of the
    disjunction of the guards that lead into that block: the same
    information as its successor blocks letter by letter, held in one node
    per block. Refinement goes by splitters, after Paige & Tarjan (1987): a
    state is signed again only when a successor has changed block, and only
    the blocks holding such states are split. The members of a block that
    were not signed again share the signature the block was last split on,
    so the block keeps them and splits off each group of re-signed states
    whose signature differs from it.
    """
    node, apply, out = g.guards.node, g.guards.apply, g.out
    # the graph's own edge lists and a predecessor list per state, not a
    # copy and sets: run on the tableau, this sets the compile's peak memory
    preds: list[list[int]] = [[] for _ in out]
    for q, edges in enumerate(out):
        for i, d in edges:
            if node(i):
                preds[d].append(q)
    ids: dict[Hashable, int] = {}
    block = [ids.setdefault(m, len(ids)) for m in marks]
    size = [0] * len(ids)
    for b in block:
        size[b] += 1
    shared: list[frozenset | None] = [None] * len(ids)
    pending = set(range(len(out)))
    while pending:
        groups: dict[int, dict[frozenset, list[int]]] = {}
        for q in pending:
            into: dict[int, int] = {}
            for i, d in out[q]:
                n = node(i)
                if n:
                    into[block[d]] = apply(Or, into.get(block[d], 0), n)
            groups.setdefault(block[q], {}).setdefault(
                frozenset(into.items()), []).append(q)
        pending = set()
        for b, by_sig in groups.items():
            if sum(map(len, by_sig.values())) == size[b]:
                # every member was signed again: the largest group stays
                shared[b] = max(by_sig, key=lambda sig: len(by_sig[sig]))
            for sig, qs in by_sig.items():
                if sig == shared[b]:
                    continue
                size[b] -= len(qs)
                for q in qs:
                    block[q] = len(size)
                    pending.update(preds[q])
                size.append(len(qs))
                shared.append(sig)
    first: dict[int, int] = {}
    return [first.setdefault(b, len(first)) for b in block]


def _quotient(g: _Graph, marks: Sequence[Hashable]) -> tuple[_Graph, list[int]]:
    """The quotient of g by bisimulation refined from `marks`, and each
    state's class; g itself when no two states merge."""
    cls = _bisimilar_classes(g, marks)
    first: dict[int, int] = {}
    for q, c in enumerate(cls):
        first.setdefault(c, q)   # classes ascend in order of first member
    if len(first) == len(cls):
        return g, cls
    # a class keeps its smallest member's edges, each once
    out = [list(dict.fromkeys((i, cls[d]) for i, d in g.out[q]))
           for q in first.values()]
    accepting = frozenset(cls[q] for q in g.accepting)
    return _Graph(g.guards, cls[g.initial], accepting, out), cls


def _merge_generalized(g: _Graph, acc_sets: list[frozenset[int]]
                       ) -> tuple[_Graph, list[frozenset[int]]]:
    """Quotient the generalized automaton by strong bisimulation that
    respects each acceptance set, and map the sets to classes, so that
    `_degeneralize` copies each class once per counter level instead of
    each tableau node (Etessami & Holzmann, CONCUR 2000)."""
    marks = [0] * len(g.out)
    for k, acc in enumerate(acc_sets):
        for q in acc:
            marks[q] |= 1 << k
    g, cls = _quotient(g, marks)
    return g, [frozenset(cls[q] for q in acc) for acc in acc_sets]


def _merge_bisimilar(g: _Graph) -> _Graph:
    """Quotient by strong bisimulation (acceptance-respecting)."""
    return _quotient(g, [q in g.accepting for q in range(len(g.out))])[0]


def _absorb_into_sinks(g: _Graph) -> _Graph:
    """Narrow guards that compete with an edge into an accepting sink.

    If a letter can move into an accepting sink, any alternative successor
    under that letter is redundant: the sink accepts every continuation.
    Removing the letter from competing guards keeps the language unchanged
    and makes progress toward the sink explicit.
    """
    sinks = g.sinks()
    if not sinks:
        return g
    guards = g.guards
    out = []
    for q, edges in enumerate(g.out):
        into = [i for i, d in edges if d in sinks]
        if q in sinks or not into:
            out.append(edges)
            continue
        blocker = _not(reduce(_or, [guards.formulas[i]
                                    for i in sorted(into, key=guards.text)]))
        narrowed = []
        for i, d in edges:
            if d not in sinks:
                i = guards.intern(_and(guards.formulas[i], blocker))
                if not guards.sat(i):
                    continue
            narrowed.append((i, d))
        out.append(narrowed)
    return _Graph(guards, g.initial, g.accepting, out)


def _renumber(g: _Graph, alphabet: Alphabet) -> BuchiAutomaton:
    """The automaton, in a canonical breadth-first state numbering with the
    initial state at 0, and each state's transitions sorted by guard text
    and then by successor."""
    text = g.guards.text
    order = [g.initial]
    remap = {g.initial: 0}
    for q in order:   # grows as states are discovered
        for _, d in sorted(g.out[q], key=lambda e: (text(e[0]), e[1])):
            if d not in remap:
                remap[d] = len(order)
                order.append(d)
    out = [sorted(((i, remap[d]) for i, d in g.out[q]),
                  key=lambda e: (text(e[0]), e[1])) for q in order]
    accepting = frozenset(remap[q] for q in g.accepting if q in remap)
    return BuchiAutomaton(alphabet, _Graph(g.guards, 0, accepting, out))
