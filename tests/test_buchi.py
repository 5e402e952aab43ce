import numpy as np
import pytest

from gen import (
    brute_successors, random_automaton, random_formula, random_lasso,
    small_alphabet,
)
from ltlnav import buchi
from ltlnav.buchi import BuchiAutomaton, Transition, compile_formula
from ltlnav.ltl import (
    TRUE, Alphabet, Lasso, Not, atoms, eval_bool, eval_lasso, format_formula,
    parse,
)

AB = small_alphabet(2)
A = AB.mask("a")
B = AB.mask("b")


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
        edges = {(t.src, format_formula(t.guard), t.dst) for t in aut.transitions}
        assert edges == {(0, "!a", 0), (0, "a", 1), (1, "true", 1)}
        classes = aut.classify()
        assert classes.live == frozenset({0, 1})
        assert classes.accepting_sink == frozenset({1})
        assert frozenset(range(aut.n_states)) - classes.live == frozenset()

    def test_until_with_avoid(self):
        aut = compile_str("!a U b")
        assert aut.n_states == 2
        edges = {(t.src, format_formula(t.guard), t.dst) for t in aut.transitions}
        assert edges == {(0, "(!a & !b)", 0), (0, "b", 1), (1, "true", 1)}
        # a & !b kills every run
        assert aut.step(frozenset({0}), aut.alphabet.mask("a")) == frozenset()
        assert aut.step(frozenset({0}), aut.alphabet.mask("a", "b")) == frozenset({1})

    def test_infinitely_often_accepting_core(self):
        aut = compile_str("G F a")
        # every edge into an accepting state requires a
        for t in aut.transitions:
            if t.dst in aut.accepting:
                assert eval_bool(t.guard, aut.alphabet.mask("a"), aut.alphabet)
                assert not eval_bool(t.guard, 0, aut.alphabet)
        # and reading a from anywhere reaches an accepting state
        for q in range(aut.n_states):
            succ = aut.step(frozenset({q}), aut.alphabet.mask("a"))
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
        assert aut.accepts_lasso(Lasso((), (aut.alphabet.mask("p14"),)))
        assert aut.out(sink) == [(TRUE, sink)]

    def test_sink_absorbs_past_ten_propositions(self):
        # guard narrowing checks each narrowed guard over its own atoms, so
        # it runs whatever the size of the support
        f = parse(" | ".join(f"F p{i}" for i in range(11)))
        aut = compile_formula(f, None)
        (sink,) = aut.classify().accepting_sink
        for i in range(11):
            letter = aut.alphabet.mask(f"p{i}")
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


class TestStructuralProperties:
    def test_pruning_preserves_language(self):
        rng = np.random.default_rng(11)
        names = tuple("ab")
        for _ in range(60):
            f = random_formula(rng, depth=3, names=names)
            aut = compile_formula(f, AB)
            # re-add a dead state by hand; language must not change
            dead = BuchiAutomaton(
                aut.alphabet, aut.n_states + 1, aut.initial, aut.accepting,
                aut.transitions + (Transition(aut.initial, TRUE, aut.n_states),))
            for _ in range(20):
                w = random_lasso(rng, 2)
                assert aut.accepts_lasso(w) == dead.accepts_lasso(w)

    def test_dead_state_is_trap(self):
        aut = compile_str("F a")
        dead = BuchiAutomaton(
            aut.alphabet, aut.n_states + 1, aut.initial, aut.accepting,
            aut.transitions + (Transition(0, Not(parse("a")), 2),))
        classes = dead.classify()
        assert classes.live == frozenset({0, 1})
        assert 2 not in classes.live

    def test_universal_merge_needs_a_cycle_back(self):
        # 0 accepts every word, 1 none; 2 reads a into 0 and !a into 1.
        # Everything 0 reaches has only true edges, yet 1 never returns to
        # 0, so merging {0, 1} into one accepting sink would accept !a words
        a = parse("a")
        aut = BuchiAutomaton(AB, 3, 2, frozenset({0}), (
            Transition(0, TRUE, 0), Transition(0, TRUE, 1),
            Transition(1, TRUE, 1), Transition(2, a, 0),
            Transition(2, Not(a), 1)))
        merged = buchi._merge_universal_sccs(aut)
        for w in (Lasso((), (A,)), Lasso((), (0,)), Lasso((B,), (A,))):
            assert merged.accepts_lasso(w) == aut.accepts_lasso(w)

    def test_initial_is_zero_and_states_dense(self):
        rng = np.random.default_rng(12)
        names = tuple("ab")
        for _ in range(100):
            f = random_formula(rng, depth=3, names=names)
            aut = compile_formula(f, AB)
            assert aut.initial == 0
            srcs = {t.src for t in aut.transitions} | {t.dst for t in aut.transitions}
            assert srcs <= set(range(aut.n_states))

    def test_guards_use_alphabet_atoms_only(self):
        rng = np.random.default_rng(13)
        names = tuple("abc")
        ab = small_alphabet(3)
        for _ in range(60):
            f = random_formula(rng, depth=3, names=names)
            aut = compile_formula(f, ab)
            for t in aut.transitions:
                assert atoms(t.guard) <= set(names)

    def test_alphabet_mismatch_raises(self):
        with pytest.raises(ValueError):
            compile_str("F d", alphabet=AB)


def automaton_from_json(data):
    """Rebuild an automaton from to_json's output: the JSON must name dense
    states, and every guard's text must parse back to the same guard."""
    assert data["states"] == list(range(len(data["states"])))
    return BuchiAutomaton(
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
            assert [(t.src, format_formula(t.guard), t.dst) for t in back.transitions] == \
                   [(t.src, format_formula(t.guard), t.dst) for t in aut.transitions]
            for _ in range(10):
                w = random_lasso(rng, 2)
                assert back.accepts_lasso(w) == aut.accepts_lasso(w)

    def test_json_validation(self):
        # the constructor rejects states outside 0..n_states-1
        aut = compile_str("F a")
        for q in (7, -1):
            with pytest.raises(ValueError, match="accepting"):
                BuchiAutomaton(aut.alphabet, aut.n_states, aut.initial,
                               frozenset({q}), aut.transitions)
            with pytest.raises(ValueError, match="initial"):
                BuchiAutomaton(aut.alphabet, aut.n_states, q, aut.accepting,
                               aut.transitions)

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

