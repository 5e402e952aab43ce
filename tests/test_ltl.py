import numpy as np
import pytest

from gen import random_formula, random_lasso, small_alphabet
from ltlnav.ltl import (
    TRUE, FALSE, Alphabet, And, Atom, Eventually, Always, Lasso, Next, Not,
    Or, ParseError, Release, Until,
    alphabet_of, atoms, eval_bool, eval_lasso, format_formula,
    is_boolean, nnf, parse,
)


AB = small_alphabet(2)
A = AB.mask("a")
B = AB.mask("b")


class TestParse:
    def test_precedence_unary_over_until(self):
        assert parse("!a U b") == Until(Not(Atom("a")), Atom("b"))
        assert parse("F a U b") == Until(Eventually(Atom("a")), Atom("b"))

    def test_precedence_until_over_and(self):
        assert parse("a U b & c") == And(Until(Atom("a"), Atom("b")), Atom("c"))

    def test_precedence_and_over_or(self):
        assert parse("a & b | c") == Or(And(Atom("a"), Atom("b")), Atom("c"))

    def test_until_right_associative(self):
        assert parse("a U b U c") == Until(Atom("a"), Until(Atom("b"), Atom("c")))

    def test_release_token(self):
        assert parse("a R b") == Release(Atom("a"), Atom("b"))

    def test_implication_is_sugar(self):
        assert parse("a -> b") == Or(Not(Atom("a")), Atom("b"))

    def test_parens_and_constants(self):
        assert parse("G (a | false)") == Always(Or(Atom("a"), FALSE))
        assert parse("true") == TRUE

    def test_unary_chain(self):
        assert parse("!F X a") == Not(Eventually(Next(Atom("a"))))

    def test_error_offset_dangling_operator(self):
        with pytest.raises(ParseError) as e:
            parse("a &")
        assert e.value.offset == 3
        assert any("atom" in x for x in e.value.expected)

    def test_error_offset_unclosed_paren(self):
        with pytest.raises(ParseError) as e:
            parse("(a | b")
        assert e.value.offset == 6
        assert "')'" in e.value.expected

    def test_error_offset_trailing_junk(self):
        with pytest.raises(ParseError) as e:
            parse("a b")
        assert e.value.offset == 2

    def test_error_bad_character(self):
        with pytest.raises(ParseError) as e:
            parse("a + b")
        assert e.value.offset == 2

    def test_reserved_atom_names_are_operators(self):
        # a lone operator letter cannot be an atom
        with pytest.raises(ParseError):
            parse("U")
        # multi-letter names that merely contain capitals are fine
        assert parse("Up & Go") == And(Atom("Up"), Atom("Go"))


class TestAlphabet:
    def test_rejects_reserved_and_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "U"))
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))
        with pytest.raises(ValueError):
            Alphabet(("9bad",))

    def test_mask_and_names_round_trip(self):
        ab = small_alphabet(4)
        m = ab.mask("b", "d")
        assert m == 0b1010
        assert ab.names_of(m) == ("b", "d")
        with pytest.raises(ValueError):
            ab.names_of(1 << 4)

    def test_assignment_width_matches_alphabet(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            ab = small_alphabet(n)
            bits = int(rng.integers(0, 1 << n))
            assert ab.names_of(bits) == tuple(
                name for i, name in enumerate(ab.names) if bits >> i & 1
            )
            assert ab.mask(*ab.names_of(bits)) == bits


class TestFormatRoundTrip:
    def test_random_round_trip(self):
        rng = np.random.default_rng(0)
        names = tuple("abcd")
        for _ in range(1000):
            f = random_formula(rng, depth=4, names=names)
            assert parse(format_formula(f)) == f


class TestNnf:
    @staticmethod
    def _check_shape(f):
        from ltlnav.ltl import Bool, Formula
        if isinstance(f, Not):
            assert isinstance(f.arg, Atom)
            return
        assert not isinstance(f, (Eventually, Always))
        for attr in ("arg", "lhs", "rhs"):
            child = getattr(f, attr, None)
            if isinstance(child, Formula):
                TestNnf._check_shape(child)

    def test_nnf_shape_random(self):
        rng = np.random.default_rng(2)
        names = tuple("abc")
        for _ in range(1000):
            f = random_formula(rng, depth=4, names=names)
            self._check_shape(nnf(f))

    def test_nnf_preserves_semantics(self):
        rng = np.random.default_rng(3)
        names = tuple("abc")
        ab = small_alphabet(3)
        for _ in range(400):
            f = random_formula(rng, depth=4, names=names)
            g = nnf(f)
            for _ in range(5):
                w = random_lasso(rng, 3)
                assert eval_lasso(f, w, ab) == eval_lasso(g, w, ab)

    def test_until_negation_dual(self):
        f = parse("!(a U b)")
        assert nnf(f) == Release(Not(Atom("a")), Not(Atom("b")))

    def test_eventually_expansion(self):
        assert nnf(parse("F a")) == Until(TRUE, Atom("a"))
        assert nnf(parse("G a")) == Release(FALSE, Atom("a"))


class TestEvalLasso:
    def test_atom_and_booleans(self):
        w = Lasso((A,), (B,))
        assert eval_lasso(Atom("a"), w, AB)
        assert not eval_lasso(Atom("b"), w, AB)
        assert eval_lasso(TRUE, w, AB)
        assert not eval_lasso(FALSE, w, AB)

    def test_next_looks_at_position_one(self):
        w = Lasso((A,), (B,))
        assert eval_lasso(parse("X b"), w, AB)
        assert not eval_lasso(parse("X a"), w, AB)

    def test_next_wraps_into_cycle(self):
        w = Lasso((), (A, B))
        assert eval_lasso(parse("X b"), w, AB)
        assert eval_lasso(parse("X X a"), w, AB)

    def test_eventually_in_cycle(self):
        w = Lasso((0,), (0, B))
        assert eval_lasso(parse("F b"), w, AB)
        assert not eval_lasso(parse("F a"), w, AB)

    def test_always_fails_on_one_gap(self):
        assert eval_lasso(parse("G a"), Lasso((), (A,)), AB)
        assert not eval_lasso(parse("G a"), Lasso((A,), (A, 0)), AB)

    def test_until_with_later_witness(self):
        w = Lasso((A, A, A), (B,))
        assert eval_lasso(parse("a U b"), w, AB)
        assert not eval_lasso(parse("a U b"), Lasso((A, 0), (B,)), AB)

    def test_release_holds_forever(self):
        assert eval_lasso(parse("a R b"), Lasso((), (B,)), AB)
        assert not eval_lasso(parse("a R b"), Lasso((B,), (0,)), AB)
        # release discharged by lhs
        assert eval_lasso(parse("a R b"), Lasso((B, A | B), (0,)), AB)

    def test_infinitely_often(self):
        assert eval_lasso(parse("G F a"), Lasso((), (A, 0)), AB)
        assert not eval_lasso(parse("G F a"), Lasso((A,), (0,)), AB)

    def test_eventually_always(self):
        assert eval_lasso(parse("F G a"), Lasso((0, 0), (A,)), AB)
        assert not eval_lasso(parse("F G a"), Lasso((), (A, 0)), AB)

    def test_unrolling_invariance(self):
        # prefix.cycle^w and (prefix+cycle).cycle^w are the same word
        rng = np.random.default_rng(4)
        names = tuple("abc")
        ab = small_alphabet(3)
        for _ in range(300):
            f = random_formula(rng, depth=4, names=names)
            w = random_lasso(rng, 3)
            w2 = Lasso(w.prefix + w.cycle, w.cycle)
            assert eval_lasso(f, w, ab) == eval_lasso(f, w2, ab)

    def test_cycle_rotation_with_prefix_shift(self):
        # pushing the first cycle letter into the prefix rotates the cycle
        rng = np.random.default_rng(5)
        names = tuple("ab")
        for _ in range(300):
            f = random_formula(rng, depth=3, names=names)
            w = random_lasso(rng, 2)
            rotated = w.cycle[1:] + w.cycle[:1]
            w2 = Lasso(w.prefix + w.cycle[:1], rotated)
            assert eval_lasso(f, w, AB) == eval_lasso(f, w2, AB)

    def test_negation_dual_property(self):
        rng = np.random.default_rng(6)
        names = tuple("ab")
        for _ in range(300):
            f = random_formula(rng, depth=3, names=names)
            w = random_lasso(rng, 2)
            assert eval_lasso(Not(f), w, AB) != eval_lasso(f, w, AB)


class TestEvalBool:
    def test_basic(self):
        assert eval_bool(parse("a & !b"), A, AB)
        assert not eval_bool(parse("a & !b"), A | B, AB)
        assert eval_bool(parse("a | b"), B, AB)

    def test_rejects_temporal(self):
        assert not is_boolean(parse("F a"))
        with pytest.raises(ValueError):
            eval_bool(parse("F a"), 0, AB)


def test_atoms_and_alphabet_of():
    f = parse("(!a U b) & G c")
    assert atoms(f) == frozenset({"a", "b", "c"})
    assert alphabet_of(f).names == ("a", "b", "c")


def test_lasso_rejects_empty_cycle():
    with pytest.raises(ValueError):
        Lasso((1,), ())
