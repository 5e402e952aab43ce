from collections import Counter
from functools import reduce

import numpy as np
import pytest

from gen import (
    Transition, automaton, brute_successors, random_automaton,
    random_formula, random_lasso, mask, reference_on_cycle, small_alphabet,
    transitions,
)
from ltlnav import buchi
from ltlnav.buchi import BuchiAutomaton, compile_formula
from ltlnav.ltl import (
    FALSE, TRUE, Alphabet, And, Atom, Lasso, Not, Or, atoms, eval_bool,
    eval_lasso, format_formula, parse,
)

AB = small_alphabet(2)
A = mask(AB, "a")
B = mask(AB, "b")


def compile_str(text, alphabet=None):
    return compile_formula(parse(text), alphabet)


def brute_accepts_lasso(aut, word):
    """Some accepting (q, i), with state q about to read position i, is
    reachable from (initial, 0) and reaches itself in at least one step."""
    letters = word.prefix + word.cycle
    loop = len(word.prefix)

    def after(nodes):
        """Every node reachable from the nodes in one step or more."""
        seen, step = set(), set(nodes)
        while step:
            step = {(d, i + 1 if i + 1 < len(letters) else loop)
                    for q, i in step
                    for d in brute_successors(aut, q, letters[i])} - seen
            seen |= step
        return seen

    start = (aut.initial, 0)
    return any(q in aut.accepting and (q, i) in after({(q, i)})
               for q, i in after({start}) | {start})


class TestCompileShapes:
    def test_eventually_two_live_states(self):
        aut = compile_str("F a")
        assert aut.n_states == 2
        assert aut.initial == 0
        assert aut.accepting == frozenset({1})
        edges = {(t.src, format_formula(t.guard), t.dst) for t in transitions(aut)}
        assert edges == {(0, "!a", 0), (0, "a", 1), (1, "true", 1)}
        classes = aut.classify()
        assert classes.live == frozenset({0, 1})
        assert classes.accepting_sink == frozenset({1})
        assert frozenset(range(aut.n_states)) - classes.live == frozenset()

    def test_until_with_avoid(self):
        aut = compile_str("!a U b")
        assert aut.n_states == 2
        edges = {(t.src, format_formula(t.guard), t.dst) for t in transitions(aut)}
        assert edges == {(0, "(!a & !b)", 0), (0, "b", 1), (1, "true", 1)}
        # a & !b kills every run
        assert aut.step(frozenset({0}), mask(aut.alphabet, "a")) == frozenset()
        assert aut.step(frozenset({0}), mask(aut.alphabet, "a", "b")) == frozenset({1})

    def test_infinitely_often_accepting_core(self):
        aut = compile_str("G F a")
        # every edge into an accepting state requires a
        for t in transitions(aut):
            if t.dst in aut.accepting:
                assert eval_bool(t.guard, mask(aut.alphabet, "a"), aut.alphabet)
                assert not eval_bool(t.guard, 0, aut.alphabet)
        # and reading a from anywhere reaches an accepting state
        for q in range(aut.n_states):
            succ = aut.step(frozenset({q}), mask(aut.alphabet, "a"))
            assert succ & aut.accepting
        assert aut.classify().accepting_sink == frozenset()

    def test_true_formula_is_accepting_sink(self):
        aut = compile_str("true", alphabet=AB)
        assert aut.n_states == 1
        assert aut.classify().accepting_sink == frozenset({0})

    def test_sink_past_fourteen_propositions(self):
        # a guard's validity depends on its own atoms only, however many
        # propositions the rest of the automaton reads
        aut = compile_str(" | ".join(f"F p{i}" for i in range(15)))
        (sink,) = aut.classify().accepting_sink
        assert aut.accepts_lasso(Lasso((), (mask(aut.alphabet, "p14"),)))
        assert [(t.guard, t.dst) for t in transitions(aut) if t.src == sink] == [(TRUE, sink)]

    def test_sink_absorbs_past_ten_propositions(self):
        # guard narrowing checks each narrowed guard over its own atoms, so
        # it runs whatever the size of the support
        f = parse(" | ".join(f"F p{i}" for i in range(11)))
        aut = compile_formula(f, None)
        (sink,) = aut.classify().accepting_sink
        for i in range(11):
            letter = mask(aut.alphabet, f"p{i}")
            assert aut.step(frozenset({aut.initial}), letter) == {sink}
        rng = np.random.default_rng(11)
        letters = [0] + [1 << i for i in range(11)]
        weights = [0.8] + [0.2 / 11] * 11

        def word(lo):
            n = int(rng.integers(lo, 5))
            return tuple(int(x) for x in rng.choice(letters, n, p=weights))

        for _ in range(300):
            w = Lasso(word(0), word(1))
            assert aut.accepts_lasso(w) == eval_lasso(f, w, aut.alphabet)

    def test_unsatisfiable_formula_has_empty_language(self):
        aut = compile_str("a & !a")
        assert aut.classify().live == frozenset()
        assert not aut.accepts_lasso(Lasso((), (0,)))
        assert not aut.accepts_lasso(Lasso((), (1,)))

    def test_degeneralization_counter(self):
        # two Until subformulas force counting through both acceptance sets
        aut = compile_str("G F a & G F b")
        assert aut.accepts_lasso(Lasso((), (A, B)))
        assert aut.accepts_lasso(Lasso((), (A | B,)))
        assert not aut.accepts_lasso(Lasso((), (A,)))
        assert not aut.accepts_lasso(Lasso((B,), (A,)))


class TestAcceptsLasso:
    def test_trivial_cases(self):
        aut = compile_str("F a")
        assert aut.accepts_lasso(Lasso((), (A,)))
        assert aut.accepts_lasso(Lasso((0, 0), (A, 0)))
        assert not aut.accepts_lasso(Lasso((), (0,)))

    def test_language_equivalence_sample(self):
        rng = np.random.default_rng(10)
        names = tuple("abc")
        ab = small_alphabet(3)
        for _ in range(150):
            f = random_formula(rng, depth=3, names=names)
            aut = compile_formula(f, ab)
            for _ in range(40):
                w = random_lasso(rng, 3)
                assert aut.accepts_lasso(w) == eval_lasso(f, w, ab), (
                    f"mismatch on {format_formula(f)} with {w}")

    def test_matches_step_set_oracle_on_random_automata(self):
        rng = np.random.default_rng(15)
        verdicts = []
        for _ in range(300):
            n_props = int(rng.integers(1, 4))
            aut = random_automaton(rng, int(rng.integers(1, 9)), n_props)
            for _ in range(20):
                w = random_lasso(rng, n_props)
                verdicts.append(aut.accepts_lasso(w))
                assert verdicts[-1] == brute_accepts_lasso(aut, w), w
        assert 0 < sum(verdicts) < len(verdicts)

    def test_step_set_semantics(self):
        aut = compile_str("F a")
        s0 = frozenset({0})
        s1 = aut.step(s0, A)
        assert s1 == frozenset({1})
        assert aut.step(s0, 0) == frozenset({0})
        # union over members
        assert aut.step(frozenset({0, 1}), 0) == frozenset({0, 1})


class TestCycleNodes:
    """The one Tarjan pass, cut to the nodes reachable from some roots as
    accepts_lasso cuts it, against a closure from each node's successors."""

    @staticmethod
    def reference(adj, roots=None):
        nodes = range(len(adj)) if roots is None else buchi._closure(roots, adj)
        return {v for v in nodes if reference_on_cycle(v, adj)}

    @staticmethod
    def cycle_nodes(adj, roots):
        return buchi._cyclic(buchi._sccs(adj), adj) & buchi._closure(roots, adj)

    def test_random_graphs(self):
        rng = np.random.default_rng(11)
        shapes = set()
        for _ in range(400):
            n = int(rng.integers(1, 16))
            density = float(rng.choice([0.0, 0.05, 0.2, 0.5, 0.95]))
            adj = [tuple(d for d in range(n) if rng.random() < density)
                   for _ in range(n)]
            roots = [int(r) for r in rng.choice(n, size=int(rng.integers(1, 3)))]
            cyclic = buchi._cyclic(buchi._sccs(adj), adj)
            assert cyclic == self.reference(adj)
            assert self.cycle_nodes(adj, roots) == self.reference(adj, roots)
            shapes.add((any(v in adj[v] for v in range(n)),
                        any(not adj[v] for v in range(n)),
                        0 < len(cyclic) < n))
        # self-loops, isolated nodes and partly cyclic graphs all came up
        assert len(shapes) >= 6

    def test_accepts_lasso_product_graphs(self, monkeypatch):
        real = buchi._sccs
        graphs = []

        def recorded(adj):
            graphs.append(adj)
            return real(adj)

        monkeypatch.setattr(buchi, "_sccs", recorded)
        rng = np.random.default_rng(12)
        roots = []
        for _ in range(60):
            aut = random_automaton(rng, n_states=int(rng.integers(1, 7)))
            for _ in range(5):
                word = random_lasso(rng, 2)
                aut.accepts_lasso(word)
                # the product node of the initial state at position 0
                roots.append((aut.initial * len(word.prefix + word.cycle),))
        monkeypatch.undo()
        assert len(graphs) == 300
        for adj, root in zip(graphs, roots):
            assert self.cycle_nodes(adj, root) == self.reference(adj, root)


class TestStructuralProperties:
    def test_pruning_preserves_language(self):
        rng = np.random.default_rng(11)
        names = tuple("ab")
        for _ in range(60):
            f = random_formula(rng, depth=3, names=names)
            aut = compile_formula(f, AB)
            # re-add a dead state by hand; language must not change
            dead = automaton(
                aut.alphabet, aut.n_states + 1, aut.initial, aut.accepting,
                transitions(aut) + (Transition(aut.initial, TRUE, aut.n_states),))
            for _ in range(20):
                w = random_lasso(rng, 2)
                assert aut.accepts_lasso(w) == dead.accepts_lasso(w)

    def test_dead_state_is_trap(self):
        aut = compile_str("F a")
        dead = automaton(
            aut.alphabet, aut.n_states + 1, aut.initial, aut.accepting,
            transitions(aut) + (Transition(0, Not(parse("a")), 2),))
        classes = dead.classify()
        assert classes.live == frozenset({0, 1})
        assert 2 not in classes.live

    def test_universal_merge_needs_a_cycle_back(self):
        # 0 accepts every word, 1 none; 2 reads a into 0 and !a into 1.
        # Everything 0 reaches has only true edges, yet 1 never returns to
        # 0, so merging {0, 1} into one accepting sink would accept !a words
        a = parse("a")
        aut = automaton(AB, 3, 2, frozenset({0}), (
            Transition(0, TRUE, 0), Transition(0, TRUE, 1),
            Transition(1, TRUE, 1), Transition(2, a, 0),
            Transition(2, Not(a), 1)))
        merged = buchi._renumber(buchi._merge_universal_sccs(aut._graph), AB)
        for w in (Lasso((), (A,)), Lasso((), (0,)), Lasso((B,), (A,))):
            assert merged.accepts_lasso(w) == aut.accepts_lasso(w)

    def test_initial_is_zero_and_states_dense(self):
        rng = np.random.default_rng(12)
        names = tuple("ab")
        for _ in range(100):
            f = random_formula(rng, depth=3, names=names)
            aut = compile_formula(f, AB)
            assert aut.initial == 0
            edges = transitions(aut)
            srcs = {t.src for t in edges} | {t.dst for t in edges}
            assert srcs <= set(range(aut.n_states))

    def test_guards_use_alphabet_atoms_only(self):
        rng = np.random.default_rng(13)
        names = tuple("abc")
        ab = small_alphabet(3)
        for _ in range(60):
            f = random_formula(rng, depth=3, names=names)
            aut = compile_formula(f, ab)
            for t in transitions(aut):
                assert atoms(t.guard) <= set(names)

    def test_alphabet_mismatch_raises(self):
        with pytest.raises(ValueError):
            compile_str("F d", alphabet=AB)


STAGES = ("_degeneralize", "_prune", "_merge_universal_sccs",
          "_merge_bisimilar", "_absorb_into_sinks")


def test_every_stage_keeps_the_language(monkeypatch):
    """An oracle per compile stage: each stage's output graph, renumbered
    into an automaton, accepts a lasso iff the formula holds on it, for 300
    random formulas of depth 4 over 1 to 3 names, 20 lassos each."""
    outputs = []

    def recorded(name, stage):
        def run(*args):
            g = stage(*args)
            outputs.append((name, g))
            return g
        return run

    for name in STAGES:
        monkeypatch.setattr(buchi, name, recorded(name, getattr(buchi, name)))
    rng = np.random.default_rng(21)
    for _ in range(300):
        ab = small_alphabet(int(rng.integers(1, 4)))
        f = random_formula(rng, depth=4, names=ab.names)
        outputs.clear()
        compile_formula(f, ab)
        assert tuple(name for name, _ in outputs) == STAGES
        words = [random_lasso(rng, ab.n) for _ in range(20)]
        want = [eval_lasso(f, w, ab) for w in words]
        for name, g in outputs:
            aut = buchi._renumber(g, ab)
            assert [aut.accepts_lasso(w) for w in words] == want, \
                (name, format_formula(f))


def guard_graph(n, accepting, edges, initial=0):
    """A _Graph over n states from (src, guard, dst) edges, in order."""
    guards = buchi._Guards()
    out = [[] for _ in range(n)]
    for src, guard, dst in edges:
        out[src].append((guards.intern(guard), dst))
    return buchi._Graph(guards, initial, frozenset(accepting), out)


class TestUniversalSccs:
    """The one Tarjan pass against the rule it replaced: per accepting
    state q, the states q reaches form a universal component when each of
    them reaches q back, has a successor, and has only tautology-guarded
    transitions, all staying inside."""

    @staticmethod
    def reference(g):
        adj = g.adj()
        radj = [[] for _ in adj]
        for src, dsts in enumerate(adj):
            for d in dsts:
                radj[d].append(src)
        valid = g.guards.valid
        universal = set()
        for q in g.accepting:
            if q in universal:
                continue
            comp = buchi._closure((q,), adj)
            if all(g.out[p] and all(d in comp and valid(i) for i, d in g.out[p])
                   for p in comp) and comp <= buchi._closure((q,), radj):
                universal |= comp
        return universal

    def test_random_graphs(self):
        a, b = Atom("a"), Atom("b")
        # mostly true, also valid but not true, satisfiable, and unsatisfiable
        pool = [TRUE] * 6 + [Or(a, Not(a)), a, Not(a), And(a, b), And(a, Not(a))]
        rng = np.random.default_rng(22)
        found = Counter()
        for _ in range(2000):
            n = int(rng.integers(1, 9))
            density = float(rng.choice([0.1, 0.25, 0.5]))
            edges = [(src, pool[int(rng.integers(len(pool)))], dst)
                     for src in range(n) for dst in range(n)
                     if rng.random() < density]
            accepting = {q for q in range(n) if rng.random() < 0.4}
            g = guard_graph(n, accepting, edges)
            universal = buchi._universal_sccs(g)
            assert universal == self.reference(g), (n, accepting, edges)
            found[(bool(universal), len(universal) < n)] += 1
        # empty, partial and whole-graph universal sets all came up
        assert len(found) == 3 and min(found.values()) >= 20, found

    def test_accepting_scc_that_is_not_bottom(self):
        # {0, 1} cycles on true, but 1 also leaves for 2
        g = guard_graph(3, {0}, [(0, TRUE, 1), (1, TRUE, 0), (1, TRUE, 2),
                                 (2, TRUE, 2)])
        assert buchi._universal_sccs(g) == set() == self.reference(g)
        g.accepting = frozenset({0, 2})
        assert buchi._universal_sccs(g) == {2} == self.reference(g)

    def test_bottom_scc_with_a_guard_that_is_not_valid(self):
        # 1 returns to 0 on every letter, but over two guards, neither valid
        a = Atom("a")
        g = guard_graph(2, {0}, [(0, TRUE, 1), (1, a, 0), (1, Not(a), 0)])
        assert buchi._universal_sccs(g) == set() == self.reference(g)

    def test_member_with_no_edges(self):
        g = guard_graph(2, {0, 1}, [(1, TRUE, 0)], initial=1)
        assert buchi._universal_sccs(g) == set() == self.reference(g)

    def test_two_separate_universal_sccs(self):
        # {0, 1} and {2}, and 3 reads a into the first, !a into the second
        a = Atom("a")
        g = guard_graph(4, {0, 2}, [(0, TRUE, 1), (1, TRUE, 0), (2, TRUE, 2),
                                    (3, a, 0), (3, Not(a), 2)], initial=3)
        assert buchi._universal_sccs(g) == {0, 1, 2} == self.reference(g)
        # every letter moves 3 into one of them, so all four become one sink
        merged = buchi._merge_universal_sccs(g)
        true = g.guards.intern(TRUE)
        assert (merged.initial, merged.accepting) == (0, frozenset({0}))
        assert merged.out == [[(true, 0)], [], [], []]



class TestGuardConstructors:
    """_not, _and and _or fold constants and double negation at the root
    and build every other operand pair as it is."""

    P, Q = Atom("p"), Atom("q")
    OPERANDS = (P, Not(P), And(P, Q), Or(P, Q), Not(Not(P)), And(TRUE, P))

    def test_not(self):
        assert buchi._not(TRUE) == FALSE
        assert buchi._not(FALSE) == TRUE
        assert buchi._not(Not(self.P)) == self.P
        assert buchi._not(Not(Not(self.P))) == Not(self.P)
        for x in self.OPERANDS:
            if not isinstance(x, Not):
                assert buchi._not(x) == Not(x)

    def test_and(self):
        for x in self.OPERANDS + (TRUE, FALSE):
            assert buchi._and(TRUE, x) == x and buchi._and(x, TRUE) == x
            assert buchi._and(FALSE, x) == FALSE
            assert buchi._and(x, FALSE) == FALSE
        for x in self.OPERANDS:
            for y in self.OPERANDS:
                assert buchi._and(x, y) == And(x, y)

    def test_or(self):
        for x in self.OPERANDS + (TRUE, FALSE):
            assert buchi._or(FALSE, x) == x and buchi._or(x, FALSE) == x
            assert buchi._or(TRUE, x) == TRUE
            assert buchi._or(x, TRUE) == TRUE
        for x in self.OPERANDS:
            for y in self.OPERANDS:
                assert buchi._or(x, y) == Or(x, y)


def random_guard(rng, depth, names):
    """Random Boolean formula, built with the raw node classes so that
    constants and double negations can sit anywhere in it."""
    if depth <= 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.9:
            return Atom(names[int(rng.integers(len(names)))])
        return TRUE if r < 0.95 else FALSE
    kind = int(rng.integers(3))
    if kind == 0:
        return Not(random_guard(rng, depth - 1, names))
    op = And if kind == 1 else Or
    return op(random_guard(rng, depth - 1, names),
              random_guard(rng, depth - 1, names))


def letter_set_classes(aut):
    """Bisimulation classes from each state's successor classes, letter by
    letter over the support, numbered in order of first member."""
    support = sorted(set().union(*(atoms(t.guard) for t in transitions(aut))))
    letters = [mask(aut.alphabet, *(n for i, n in enumerate(support) if combo >> i & 1))
               for combo in range(1 << len(support))]
    succ = [[brute_successors(aut, q, letter) for letter in letters]
            for q in range(aut.n_states)]
    cls = [int(q in aut.accepting) for q in range(aut.n_states)]
    while True:
        sigs = {}
        new = [sigs.setdefault(
                   (cls[q], tuple(frozenset(cls[d] for d in s) for s in succ[q])),
                   len(sigs))
               for q in range(aut.n_states)]
        if new == cls:
            return cls
        cls = new


class TestGuardDecisions:
    """Satisfiability, validity and the bisimulation signature, against
    enumerating the letters with eval_bool."""

    def test_sat_and_tautology_match_enumeration(self):
        rng = np.random.default_rng(5)
        seen = {True: 0, False: 0}
        guards = buchi._Guards()   # one BDD for every guard drawn
        for _ in range(600):
            ab = small_alphabet(int(rng.integers(1, 9)))
            g = random_guard(rng, int(rng.integers(1, 7)), ab.names)
            values = [eval_bool(g, letter, ab) for letter in range(1 << ab.n)]
            i = guards.intern(g)
            assert guards.sat(i) == any(values), format_formula(g)
            assert guards.valid(i) == all(values), format_formula(g)
            seen[any(values) and not all(values)] += 1
        assert min(seen.values()) > 50   # both kinds of guard were drawn

    def test_wide_cube_and_disjunction(self):
        cube = reduce(buchi._and, [Atom(f"p{i}") for i in range(40)])
        wide = reduce(buchi._or, [Atom(f"p{i}") for i in range(40)])
        guards = buchi._Guards()

        def sat(g):
            return guards.sat(guards.intern(g))

        assert sat(cube)
        assert not sat(buchi._and(cube, Not(Atom("p39"))))
        assert sat(buchi._not(wide))
        assert not sat(buchi._and(buchi._not(wide), Atom("p7")))
        # validity past the 14 names it was once capped at
        assert guards.valid(guards.intern(buchi._or(wide, Not(Atom("p39")))))
        assert not guards.valid(guards.intern(wide))

    def test_bisimulation_masks_match_letter_sets(self):
        rng = np.random.default_rng(9)
        merged = 0
        for _ in range(200):
            n_props = int(rng.integers(1, 5))
            ab = small_alphabet(n_props)
            n_states = int(rng.integers(1, 8))
            pool = [random_guard(rng, 3, ab.names) for _ in range(3)]
            edges = []
            for src in range(n_states):
                k = int(rng.integers(0, min(n_states, 2) + 1))
                for dst in rng.choice(n_states, size=k, replace=False):
                    guard = pool[int(rng.integers(len(pool)))]
                    edges.append(Transition(src, guard, int(dst)))
            accepting = frozenset(q for q in range(n_states) if rng.random() < 0.4)
            aut = automaton(ab, n_states, 0, accepting, edges)
            cls = buchi._bisimilar_classes(
                aut._graph, [q in accepting for q in range(n_states)])
            assert cls == letter_set_classes(aut)
            merged += len(set(cls)) < n_states
        assert merged > 20   # the quotient was not always trivial


def automaton_from_json(data):
    """Rebuild an automaton from to_json's output: the JSON must name dense
    states, and every guard's text must parse back to the same guard."""
    assert data["states"] == list(range(len(data["states"])))
    return automaton(
        Alphabet(tuple(data["alphabet"])), len(data["states"]),
        data["initial"], frozenset(data["accepting"]),
        tuple(Transition(t["src"], parse(t["guard"]), t["dst"])
              for t in data["transitions"]))


class TestSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(14)
        names = tuple("ab")
        for _ in range(40):
            f = random_formula(rng, depth=3, names=names)
            aut = compile_formula(f, AB)
            back = automaton_from_json(aut.to_json())
            assert back.n_states == aut.n_states
            assert back.initial == aut.initial
            assert back.accepting == aut.accepting
            assert [(t.src, format_formula(t.guard), t.dst) for t in transitions(back)] == \
                   [(t.src, format_formula(t.guard), t.dst) for t in transitions(aut)]
            for _ in range(10):
                w = random_lasso(rng, 2)
                assert back.accepts_lasso(w) == aut.accepts_lasso(w)

    def test_json_validation(self):
        # the builder rejects states outside 0..n_states-1
        aut = compile_str("F a")
        edges = transitions(aut)
        for q in (7, -1):
            with pytest.raises(ValueError, match="accepting"):
                automaton(aut.alphabet, aut.n_states, aut.initial,
                          frozenset({q}), edges)
            with pytest.raises(ValueError, match="initial"):
                automaton(aut.alphabet, aut.n_states, q, aut.accepting, edges)
        # and transitions between such states, over Boolean guards on the
        # alphabet's atoms
        bad = {"transition endpoint out of range": Transition(0, TRUE, 2),
               "guard must be a Boolean formula": Transition(0, parse("F a"), 1),
               "uses atoms outside the alphabet": Transition(0, parse("b"), 1)}
        for message, t in bad.items():
            with pytest.raises(ValueError, match=message):
                automaton(aut.alphabet, aut.n_states, aut.initial,
                          aut.accepting, edges + (t,))

    def test_transitions_listed_by_source_state(self):
        # ungrouped input comes back grouped by source, each source's
        # transitions in the order given, duplicates kept; to_json agrees
        a, b = parse("a"), parse("b")
        given = [Transition(2, a, 0), Transition(0, b, 1),
                 Transition(2, TRUE, 2), Transition(1, a, 1),
                 Transition(0, Not(a), 0), Transition(2, a, 0),
                 Transition(0, TRUE, 2)]
        aut = automaton(AB, 3, 0, frozenset({2}), given)
        expected = tuple(t for q in range(3) for t in given if t.src == q)
        assert transitions(aut) == expected
        assert aut.to_json()["transitions"] == [
            {"src": t.src, "guard": format_formula(t.guard), "dst": t.dst}
            for t in expected]
        # a second automaton built from the listing lists it unchanged
        again = automaton(AB, 3, 0, frozenset({2}), transitions(aut))
        assert transitions(again) == expected
        assert again.to_dot() == aut.to_dot()
        # the listing is read off the one edge store, not kept beside it
        assert "transitions" not in vars(aut)
        assert not hasattr(BuchiAutomaton, "transitions")

    def test_dot_golden(self):
        dot = compile_str("F a").to_dot()
        assert dot == (
            "digraph buchi {\n"
            "  rankdir=LR;\n"
            "  node [shape=circle];\n"
            '  __init [shape=point, label=""];\n'
            "  __init -> q0;\n"
            "  q0 [shape=circle];\n"
            "  q1 [shape=doublecircle];\n"
            '  q0 -> q0 [label="!a"];\n'
            '  q0 -> q1 [label="a"];\n'
            '  q1 -> q1 [label="true"];\n'
            "}\n"
        )

    def test_compile_deterministic(self):
        f = parse("(!a U b) & F (c & X a)")
        ab = small_alphabet(3)
        j1 = compile_formula(f, ab).to_json()
        j2 = compile_formula(f, ab).to_json()
        assert j1 == j2

