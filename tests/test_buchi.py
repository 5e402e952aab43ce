import numpy as np
import pytest

from gen import random_formula, random_lasso, small_alphabet
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
        assert classes.trap == frozenset()

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
        assert 2 in classes.trap
        assert 2 not in classes.live

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


class TestSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(14)
        names = tuple("ab")
        for _ in range(40):
            f = random_formula(rng, depth=3, names=names)
            aut = compile_formula(f, AB)
            back = BuchiAutomaton.from_json(aut.to_json())
            assert back.n_states == aut.n_states
            assert back.initial == aut.initial
            assert back.accepting == aut.accepting
            assert [(t.src, format_formula(t.guard), t.dst) for t in back.transitions] == \
                   [(t.src, format_formula(t.guard), t.dst) for t in aut.transitions]
            for _ in range(10):
                w = random_lasso(rng, 2)
                assert back.accepts_lasso(w) == aut.accepts_lasso(w)

    def test_json_validation(self):
        aut = compile_str("F a")
        data = aut.to_json()
        data["states"] = [0, 2]
        with pytest.raises(ValueError):
            BuchiAutomaton.from_json(data)

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

