from itertools import permutations

import numpy as np
import pytest

from gen import (
    Transition, automaton, brute_successors, mask, random_automaton,
    random_formula, reference_universe, small_alphabet, transitions,
)
from ltlnav import buchi, subgoals
from ltlnav.buchi import compile_formula
from ltlnav.ltl import TRUE, eval_bool, parse
from ltlnav.subgoals import (
    LassoPath, NoValidSubgoal, Subgoal, UniverseTooLarge, check_subgoal,
    encode_subgoal, extract_subgoals, find_lassos, sample_subgoal,
)


def compile_str(text, alphabet=None):
    return compile_formula(parse(text), alphabet)


# -- independent oracles ------------------------------------------------------


def brute_edges(aut):
    """Edge relation computed directly from guards over all letters."""
    n_letters = 1 << aut.alphabet.n
    edges = set()
    for t in transitions(aut):
        for letter in range(n_letters):
            if eval_bool(t.guard, letter, aut.alphabet):
                edges.add((t.src, t.dst))
                break
    return edges


def edge_list(aut):
    return [(src, dst) for src, dsts in enumerate(aut.edges()) for dst in dsts]


def brute_lassos(aut, q):
    """Enumerate accepting simple lassos from q by filtering permutations."""
    edges = brute_edges(aut)
    others = [s for s in range(aut.n_states) if s != q]
    found = set()
    for length in range(0, aut.n_states):
        for tail in permutations(others, length):
            path = (q,) + tail
            if any((path[i], path[i + 1]) not in edges for i in range(len(path) - 1)):
                continue
            for j in range(len(path)):
                if (path[-1], path[j]) in edges and \
                        any(s in aut.accepting for s in path[j:]):
                    found.add((path, j))
    return found


def decode_subgoal(vec, alphabet):
    """Inverse of encode_subgoal: reach bits, then one avoid indicator per
    assignment."""
    n = alphabet.n
    assert vec.shape == (n + (1 << n),)
    reach = sum(1 << i for i in range(n) if vec[i] != 0.0)
    avoid = frozenset(a for a in range(1 << n) if vec[n + a] != 0.0)
    return Subgoal(reach, avoid)


# -- find_lassos --------------------------------------------------------------


class TestFindLassos:
    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            aut = random_automaton(rng, n_states=int(rng.integers(2, 6)))
            assert edge_list(aut) == sorted(brute_edges(aut))
            for q in range(aut.n_states):
                got = {(lp.path, lp.cycle_start) for lp in find_lassos(aut, q)}
                assert got == brute_lassos(aut, q)
            assert aut.classify().live == {
                q for q in range(aut.n_states) if brute_lassos(aut, q)}

    def test_accepting_self_loop_is_a_lasso(self):
        aut = compile_str("F a")
        lassos = find_lassos(aut, 1)
        assert LassoPath((1,), 0) in lassos

    def test_prefix_and_cycle_views(self):
        lp = LassoPath((0, 1, 2), 1)
        assert lp.path[:lp.cycle_start] == (0,)
        assert lp.path[lp.cycle_start:] == (1, 2)

    def test_too_many_lassos(self):
        ab = small_alphabet(3)
        aut = compile_str("G (a -> F b) & G (b -> F c)", ab)
        assert len(find_lassos(aut, 0)) > 10
        with pytest.raises(UniverseTooLarge):
            find_lassos(aut, 0, limit=10)

    def test_limit_is_exact_on_random_automata(self):
        # a state with n lassos passes at limit n and raises at n - 1
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(200):
            aut = random_automaton(rng, n_states=int(rng.integers(2, 6)))
            for q in range(aut.n_states):
                n = len(brute_lassos(aut, q))
                if n == 0:
                    continue
                assert len(find_lassos(aut, q, limit=n)) == n
                with pytest.raises(UniverseTooLarge,
                                   match=f"more than {n - 1} lassos from "
                                         f"state {q}$"):
                    find_lassos(aut, q, limit=n - 1)
                checked += 1
        assert checked > 200


# -- second nodes -------------------------------------------------------------


def oracle_automata(rng):
    """Sparse and dense random automata with 1-9 states, and compiled
    random formulas with at most 8 states."""
    # brute_lassos filters (n-1)! orderings and more, so big ones are few
    for n, count in zip(range(1, 10), (12, 12, 12, 12, 12, 6, 4, 2, 1)):
        for _ in range(count):
            yield random_automaton(rng, n_states=n)
            yield random_automaton(rng, n_states=n,
                                   edge_prob=float(rng.uniform(0.5, 0.95)))
    names = ("a", "b", "c")
    compiled = 0
    while compiled < 120:
        aut = compile_formula(random_formula(rng, 3, names),
                              small_alphabet(3))
        if aut.n_states <= 8:
            compiled += 1
            yield aut


class TestSecondNodes:
    def test_matches_brute_force_lassos(self):
        # the set is the brute-force lassos' second nodes, and the limit is
        # exact: a state with n lassos passes at n and raises below it
        rng = np.random.default_rng(24)
        checked = 0
        for aut in oracle_automata(rng):
            for q in range(aut.n_states):
                lassos = brute_lassos(aut, q)
                n = len(lassos)
                expected = {path[1] if len(path) > 1 else path[j]
                            for path, j in lassos}
                assert subgoals._second_nodes(aut, q, n) == expected
                for limit in {0, n - 1} if n else ():
                    with pytest.raises(UniverseTooLarge,
                                       match=f"^more than {limit} lassos "
                                             f"from state {q}$"):
                        subgoals._second_nodes(aut, q, limit)
                checked += 1
        assert checked > 800

    def test_matches_lasso_walk_past_brute_force_sizes(self):
        # compiled automata of 9 to 60 states, past brute_lassos' reach: the
        # set is the second nodes of what _lassos yields, and the count
        # raises exactly when _lassos does, with the same text
        rng = np.random.default_rng(6)
        ab = small_alphabet(3)
        limit = 5000
        automata = checked = raised = 0
        while automata < 100:
            aut = compile_formula(random_formula(rng, 4, ab.names), ab)
            if not 9 <= aut.n_states <= 60:
                continue
            automata += 1
            for q in range(aut.n_states):
                try:
                    expected = {path[1] if len(path) > 1 else path[j]
                                for path, j in subgoals._lassos(aut, q, limit)}
                except UniverseTooLarge as err:
                    expected = str(err)
                try:
                    got = subgoals._second_nodes(aut, q, limit)
                except UniverseTooLarge as err:
                    got = str(err)
                assert got == expected, (q, aut.to_json())
                checked += 1
                raised += isinstance(expected, str)
        assert checked > 1000 and raised > 100, (checked, raised)


# -- the satisfiable-edge graph ----------------------------------------------


class TestEdges:
    @pytest.mark.parametrize("text", [
        "F a", "!a U b", "G F a & G F b", "G (a -> X F b)", "F G a",
        "(!c U (a & F b)) & G !d",
    ])
    def test_matches_brute_force_on_compiled_specs(self, text):
        aut = compile_str(text, small_alphabet(4))
        assert edge_list(aut) == sorted(brute_edges(aut))

    def test_built_once_per_automaton(self, monkeypatch):
        # built from transitions, so the automaton decides its own guards; a
        # compiled one keeps the compile's decisions and decides none
        c = compile_str("G (a -> F b)", small_alphabet(2))
        aut = automaton(c.alphabet, c.n_states, c.initial, c.accepting,
                        transitions(c))
        calls = []
        real = buchi._Guards._build

        def counted(guards, guard):
            calls.append(guard)
            return real(guards, guard)

        monkeypatch.setattr(buchi._Guards, "_build", counted)
        first = aut.edges()
        built = len(calls)
        assert built > 0
        assert aut.edges() is first
        aut.classify()
        for q in range(aut.n_states):
            find_lassos(aut, q)
        extract_subgoals(aut, frozenset({0}), frozenset(), (1, 2, 3))
        assert len(calls) == built


# -- extraction ---------------------------------------------------------------


class TestExtractSubgoals:
    def test_worked_example_two_subgoals(self):
        ab = small_alphabet(5)
        aut = compile_str("!(d | e) U ((a & b) | c)", ab)
        achievable = (mask(ab, "a", "b"), mask(ab, "c"), mask(ab, "d"),
                      mask(ab, "e"))
        got = extract_subgoals(aut, frozenset({0}), frozenset(), achievable)
        avoid = frozenset({mask(ab, "d"), mask(ab, "e")})
        assert got == [
            (0, Subgoal(mask(ab, "a", "b"), avoid)),
            (0, Subgoal(mask(ab, "c"), avoid)),
        ]

    def test_eventually_reach_all_avoid_empty(self):
        ab = small_alphabet(2)
        aut = compile_str("F a", ab)
        achievable = (mask(ab, "a"), mask(ab, "b"))
        got = extract_subgoals(aut, frozenset({0}), frozenset(), achievable)
        # b merely stalls on a live state: neither reach nor avoid
        assert got == [(0, Subgoal(mask(ab, "a"), frozenset()))]

    def test_until_reach_and_avoid(self):
        ab = small_alphabet(2)
        aut = compile_str("!a U b", ab)
        achievable = (mask(ab, "a"), mask(ab, "b"), mask(ab, "a", "b"))
        got = extract_subgoals(aut, frozenset({0}), frozenset(), achievable)
        avoid = frozenset({mask(ab, "a")})
        assert got == [
            (0, Subgoal(mask(ab, "b"), avoid)),
            (0, Subgoal(mask(ab, "a", "b"), avoid)),
        ]

    def test_unsat_pairs_filtered(self):
        ab = small_alphabet(2)
        aut = compile_str("F (a | b)", ab)
        achievable = (mask(ab, "a"), mask(ab, "b"))
        unsat = frozenset({(0, mask(ab, "a"))})
        got = extract_subgoals(aut, frozenset({0}), unsat, achievable)
        assert [sub.reach for _, sub in got] == [mask(ab, "b")]

    def test_empty_when_no_accepting_lasso(self):
        ab = small_alphabet(2)
        aut = compile_str("a & !a", ab)
        got = extract_subgoals(aut, frozenset({0}), frozenset(), (1, 2))
        assert got == []

    def test_soundness_on_random_automata(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            aut = random_automaton(rng, n_states=int(rng.integers(2, 6)))
            n_letters = 1 << aut.alphabet.n
            k = int(rng.integers(1, n_letters))
            achievable = tuple(
                int(x) + 1 for x in sorted(rng.choice(n_letters - 1, size=k,
                                                      replace=False)))
            live = {s for s in range(aut.n_states) if brute_lassos(aut, s)}
            states = frozenset(
                int(x) for x in rng.choice(aut.n_states,
                                           size=int(rng.integers(1, aut.n_states + 1)),
                                           replace=False))
            got = extract_subgoals(aut, states, frozenset(), achievable)
            by_state = {}
            for q, sub in got:
                by_state.setdefault(q, []).append(sub)
            for q in states:
                expected_avoid = frozenset(
                    a for a in achievable
                    if not (brute_successors(aut, q, a) & live))
                seconds = set()
                for path, j in brute_lassos(aut, q):
                    seconds.add(path[1] if len(path) > 1 else path[j])
                expected_reach = {
                    a for a in achievable
                    if a not in expected_avoid and brute_successors(aut, q, a) & seconds}
                subs = by_state.get(q, [])
                assert {s.reach for s in subs} == expected_reach
                for s in subs:
                    assert s.avoid == expected_avoid
                    assert s.reach not in s.avoid
                    # taking the reach assignment lands on a live state
                    assert brute_successors(aut, q, s.reach) & live

    def test_builds_no_lassos(self, monkeypatch):
        # the compile suite's response spec: 2 obligations over 8 letters
        ab = small_alphabet(8)
        aut = compile_str("G (a -> F b) & G (c -> F d)", ab)
        live = sorted(aut.classify().live)
        achievable = tuple(1 << i for i in range(ab.n))

        def forbidden(*args, **kwargs):
            raise AssertionError("extraction built a lasso list")

        monkeypatch.setattr(subgoals, "find_lassos", forbidden)
        monkeypatch.setattr(subgoals, "LassoPath", forbidden)
        monkeypatch.setattr(subgoals, "_lassos", forbidden)
        for q in live:
            assert extract_subgoals(aut, frozenset({q}), frozenset(),
                                    achievable)

    def test_deep_ring_needs_no_recursion(self):
        # one lasso through 3000 states: a walk that recursed per node
        # would pass Python's recursion limit
        n = 3000
        aut = automaton(small_alphabet(1), n, 0, frozenset({0}),
                        (Transition(q, TRUE, (q + 1) % n) for q in range(n)))
        for q in (0, n - 1):
            assert extract_subgoals(aut, frozenset({q}), frozenset(), (1,)) \
                == [(q, Subgoal(1, frozenset()))]

    def test_deterministic_order(self):
        ab = small_alphabet(2)
        aut = compile_str("F (a | b)", ab)
        achievable = (mask(ab, "a"), mask(ab, "b"), mask(ab, "a", "b"))
        got = extract_subgoals(aut, frozenset({0}), frozenset(), achievable)
        keys = [(sub.reach, tuple(sorted(sub.avoid)), q) for q, sub in got]
        assert keys == sorted(keys)


# -- universe -----------------------------------------------------------------


def list_sample(universe, rng, label=0):
    """The list-indexed sampler: up to 64 uniform draws over the listed
    universe, then one draw over its admissible entries."""
    for _ in range(64):
        sub = universe[int(rng.integers(len(universe)))]
        if sub.reach != label and label not in sub.avoid:
            return sub
    admissible = [s for s in universe
                  if s.reach != label and label not in s.avoid]
    if not admissible:
        raise NoValidSubgoal(f"no subgoal admissible for label {label:#x}")
    return admissible[int(rng.integers(len(admissible)))]


class TestUniverse:
    def test_counts_and_order(self):
        universe = reference_universe((1, 2, 4))
        # 3 reach targets x subsets of the other two
        assert len(universe) == 3 * 4
        assert len(set(universe)) == len(universe)
        assert universe[0] == Subgoal(1, frozenset())
        reaches = [s.reach for s in universe]
        assert reaches == sorted(reaches)
        for s in universe:
            assert s.reach not in s.avoid
        rng = np.random.default_rng(21)
        drawn = {sample_subgoal((1, 2, 4), rng) for _ in range(400)}
        assert drawn == set(universe)

    def test_letterworld_scale(self):
        singles = tuple(1 << i for i in range(12))
        universe = reference_universe(singles)
        assert len(universe) == 12 * (1 << 11)
        rng, ref = np.random.default_rng(26), np.random.default_rng(26)
        for label in (0, 1 << 5):
            for _ in range(500):
                assert sample_subgoal(singles, rng, label) == \
                    list_sample(universe, ref, label)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("m", range(1, 11))
    def test_draw_for_draw_against_the_list(self, m):
        # the same subgoal and the same generator state as indexing the
        # listed universe, for the empty label, each target and a label
        # outside the targets
        pick = np.random.default_rng(m)
        targets = tuple(sorted(
            int(a) + 1 for a in pick.choice(1023, size=m, replace=False)))
        outside = min(set(range(1, m + 2)) - set(targets))
        universe = reference_universe(targets)
        for label in (0, *targets, outside):
            rng, ref = (np.random.default_rng(100 + m),
                        np.random.default_rng(100 + m))
            for _ in range(300):
                try:
                    want = list_sample(universe, ref, label)
                except NoValidSubgoal:
                    assert (m, label) == (1, targets[0])
                    with pytest.raises(NoValidSubgoal):
                        sample_subgoal(targets, rng, label)
                    break
                assert sample_subgoal(targets, rng, label) == want
            assert rng.bit_generator.state == ref.bit_generator.state


# -- encoding -----------------------------------------------------------------


class TestEncoding:
    def test_round_trip(self):
        ab = small_alphabet(3)
        rng = np.random.default_rng(22)
        universe = reference_universe(tuple(range(1, 8)))
        for _ in range(200):
            sub = universe[int(rng.integers(len(universe)))]
            vec = encode_subgoal(sub, ab)
            assert vec.shape == (3 + 8,)
            assert set(np.unique(vec)) <= {0.0, 1.0}
            assert decode_subgoal(vec, ab) == sub

    def test_dimension_grows_with_alphabet(self):
        sub = Subgoal(1, frozenset({2}))
        assert encode_subgoal(sub, small_alphabet(4)).shape == (4 + 16,)
        assert encode_subgoal(sub, small_alphabet(10)).shape == (10 + 1024,)

    def test_out_of_range_rejected(self):
        ab = small_alphabet(2)
        # past the alphabet, or the empty assignment
        for sub in (Subgoal(4, frozenset()), Subgoal(1, frozenset({4})),
                    Subgoal(0, frozenset()), Subgoal(1, frozenset({0, 2})),
                    Subgoal(-1, frozenset())):
            with pytest.raises(ValueError, match="out of range"):
                encode_subgoal(sub, ab)
            with pytest.raises(ValueError, match="out of range"):
                check_subgoal(sub, 2)

    def test_check_subgoal_gives_int_fields(self):
        sub = Subgoal(np.int64(3), frozenset({np.int64(2), np.int64(1)}))
        reach, avoid = check_subgoal(sub, 2)
        assert (reach, avoid) == (3, (1, 2))
        assert type(reach) is int and all(type(a) is int for a in avoid)


# -- sampling -----------------------------------------------------------------


class TestSampling:
    def test_respects_current_label(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            sub = sample_subgoal((1, 2, 4), rng, current_label=2)
            assert sub.reach != 2
            assert 2 not in sub.avoid

    @pytest.mark.parametrize("achievable", [
        (1, 2, 4, 8, 16),                                   # 80 subgoals
        (1, 2, 3, 4, 5, 6, 8, 9, 10, 12),                   # 5120 subgoals
    ])
    def test_empty_label_is_one_plain_draw(self, achievable):
        # label 0 admits every subgoal, so each sample is exactly one
        # rng.integers(n) draw indexing the listed universe
        universe = reference_universe(achievable)
        rng, ref = np.random.default_rng(25), np.random.default_rng(25)
        for _ in range(2000):
            assert sample_subgoal(achievable, rng) == \
                universe[int(ref.integers(len(universe)))]
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_uniform_chi_squared(self):
        from scipy.stats import chisquare
        rng = np.random.default_rng(24)
        counts = {s: 0 for s in reference_universe((1, 2, 4))}
        n = 100_000
        for _ in range(n):
            counts[sample_subgoal((1, 2, 4), rng)] += 1
        stat, p = chisquare(list(counts.values()))
        assert p > 0.01

    def test_no_valid_subgoal(self):
        with pytest.raises(NoValidSubgoal):
            sample_subgoal((), np.random.default_rng(0))
        with pytest.raises(NoValidSubgoal):
            sample_subgoal((2,), np.random.default_rng(0), current_label=2)
