"""Pins what the benchmark's compile suite produces: for each spec in
perfbench/workloads.py:SUITE, the sha256 of its compiled automaton and of
the subgoals extracted at every live state; one sha256 over the automata
and state classes of 300 seeded random formulas; the automata of four
specs with wide cube or disjunction guards; a 141-state automaton; and
the to_dot output of every SUITE and wide-guard spec.

A refactor of ltl, buchi or subgoals must leave these digests unchanged. A
change that alters the output on purpose updates DIGESTS and says so in
CHANGES.md."""

import functools
import gc
import hashlib
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import gen
from ltlnav import buchi, ltl, subgoals
from test_buchi import STAGES

workloads = gen.perfbench_workloads()

# recorded with the code of the commit before the one that added this test,
# except persistence (3 -> 2 states) and too-many-lassos (23 -> 21 states),
# re-recorded with the commit that quotients the generalized automaton
DIGESTS = {
    "sequence-2": "f776e07cb4fc699d1a591501d060201fd714bfc0736da81af3b60f7eb8eca146",
    "sequence-3": "9edf928f13b8ecc99d6273baf384c2247091d1b1eeca1a69361428ae18e2f1aa",
    "sequence-4": "7602855de77fb2b8a608a24ac9efefbcf51d1df004b7fad53e9139d0d7f6d845",
    "sequence-5": "6b2402a8c1da3192fd45adc3983df76b753e015c4a1669c533609ca00cde9f4d",
    "gf-3": "8cae58959d1001afa279a6f6d64b2cb5d0ab03d5746faf8cc058daaeac8551e6",
    "gf-4": "eee3df2078b2756913e4718c11aabeab90b9f8384bba08805ae6ec8becba10f9",
    "response": "12a4df23c10327f27c6cb9c74b06048e149b7bee4633ccf53f8feddbac5f7811",
    "response-next": "c723e98d0f58d3f93e165c81a0b27192680bffd538ba858ddccd8ffa3eefd25b",
    "persistence": "08beb4dd60a226265279cb57f9ec68af088042cce8173b2319e15ccef006aa30",
    "nested-c07": "65823766c1c279d72c4649aafffdc8a83e2ccce9fde2b05149f93bf12c74f7e3",
    "zone-c08": "888cdc9e6edccbbeeb5007e47dcf6d094b319f49ccd4cb0ec9dabdae381b28f0",
    "too-many-lassos": "1a64f40531e1336ecf988dbec72796f9e7589bd1711d989f2c82c1b063ac2b27",
}
# re-recorded with the commit that quotients the generalized automaton: the
# 300 automata went 1781 -> 1409 states
RANDOM_DIGEST = "15c3b33e7ba1e3bb23671e32caad28223b16ecfa4d22826d09c4a50497e022e2"


_CUBE = " & ".join(f"p{i}" for i in range(16))
_WIDE = " | ".join(f"p{i}" for i in range(30))
# Specs with 16-literal cube or 30-literal disjunction guards, compiled over
# their default alphabets: (text, sha256 of to_json), recorded with the code
# of the commit that decides every guard on BDDs with no cap on the number
# of names, so that validity and the bisimulation quotient reach them too.
# The digests before it pinned larger automata: 3, 5, 3 and 64 states.
WIDE_GUARDS = {
    "gf-cube-16": (
        f"G F ({_CUBE})",
        "6058eebcdc88478c253c839680feefc23e6f7605ee1730af2f889e50ef0fc294"),
    "response-cube-16": (
        f"G (p0 -> F ({_CUBE}))",
        "34cd3ecd5faf86d3b99d620cdc69bd2c74350d1dfa27eeb5050deb7394fce413"),
    "f-or-30": (
        f"F ({_WIDE})",
        "6aa7cde78d823136235f5da830c2fb7141c5cfc00c19db0f8c8192be771c49ad"),
    "response-or-30": (
        f"G (a -> F ({_WIDE}))",
        "511ffc2db8116bdef29ee781bd55150ac6945ef33064bb44789fe954ac36f12d"),
}

# A random formula over 4 names that compiles to 141 states and 2117
# transitions, all of them live and none an accepting sink: (text, sha256
# of to_json), recorded with the code of the commit that quotients the
# generalized automaton before degeneralizing. It pinned 144 states and
# 2131 transitions before it.
LARGE = ("((G (F c U (true U true)) R (a U X (true U d))) U X F G b)",
         "0a1c00d481e4f73a8067373474830dacb6cc2c62f1162645e44dc0a176abc568")


# the specs whose compiles the guard memo tests count
GUARD_SPECS = ([(text, None) for text, _ in WIDE_GUARDS.values()]
               + [(spec.text, spec.alphabet) for spec in workloads.SUITE])


@functools.cache
def compiled(spec) -> buchi.BuchiAutomaton:
    return buchi.compile_formula(ltl.parse(spec.text), spec.alphabet)


def suite_spec(name: str):
    return next(s for s in workloads.SUITE if s.name == name)


@functools.cache
def random_formulas() -> tuple[tuple[ltl.Formula, ltl.Alphabet], ...]:
    """300 formulas of depth 4 over 1 to 4 propositions, seed 7."""
    rng = np.random.default_rng(7)
    out = []
    for _ in range(300):
        ab = gen.small_alphabet(int(rng.integers(1, 5)))
        out.append((gen.random_formula(rng, depth=4, names=ab.names), ab))
    return tuple(out)


@functools.cache
def random_automata() -> tuple[buchi.BuchiAutomaton, ...]:
    return tuple(buchi.compile_formula(f, ab) for f, ab in random_formulas())


def suite_digest(spec) -> str:
    aut = compiled(spec)
    achievable = workloads.achievable_for(spec.alphabet)
    try:
        subs = [[q, [[p, sub.reach, sorted(sub.avoid)]
                     for p, sub in subgoals.extract_subgoals(
                         aut, frozenset({q}), frozenset(), achievable)]]
                for q in sorted(aut.classify().live)]
    except subgoals.UniverseTooLarge:
        subs = "UniverseTooLarge"
    blob = json.dumps({"automaton": aut.to_json(), "subgoals": subs},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("spec", workloads.SUITE, ids=lambda s: s.name)
def test_suite_output_unchanged(spec):
    assert suite_digest(spec) == DIGESTS[spec.name]


def test_random_outputs_unchanged():
    digest = hashlib.sha256()
    for aut in random_automata():
        classes = aut.classify()
        digest.update(json.dumps(
            {"automaton": aut.to_json(), "live": sorted(classes.live),
             "accepting_sink": sorted(classes.accepting_sink)},
            sort_keys=True).encode())
    assert digest.hexdigest() == RANDOM_DIGEST


def satisfiable(guard, alphabet) -> bool:
    """Brute force: some letter over the guard's own atoms satisfies it."""
    bits = [alphabet.index(name) for name in sorted(ltl.atoms(guard))]
    return any(ltl.eval_bool(guard, sum(1 << b for i, b in enumerate(bits)
                                        if combo >> i & 1), alphabet)
               for combo in range(1 << len(bits)))


@pytest.mark.parametrize("case", ["suite", "random"])
def test_compiled_automata_are_trim(case):
    """What the single prune relies on: every compiled guard is
    satisfiable, every state is reachable from the initial state, and
    every other state is live."""
    auts = ([compiled(s) for s in workloads.SUITE] if case == "suite"
            else random_automata())
    for aut in auts:
        everything = set(range(aut.n_states))
        assert all(satisfiable(t.guard, aut.alphabet)
                   for t in gen.transitions(aut))
        assert buchi._closure((aut.initial,), aut.edges()) == everything
        assert everything - {aut.initial} <= aut.classify().live


def test_degeneralized_states_are_reachable(monkeypatch):
    """What lets `_prune` skip a reachability pass: every state that
    `_degeneralize` builds is reachable from its initial state over
    satisfiable guards, on every SUITE spec, the 300 random formulas and
    the Until chain at n = 20."""
    sizes = []

    def checked(*args):
        g = degeneralize(*args)
        assert buchi._closure((g.initial,), g.adj()) == set(range(len(g.out)))
        sizes.append(len(g.out))
        return g

    degeneralize = buchi._degeneralize
    monkeypatch.setattr(buchi, "_degeneralize", checked)
    for spec in workloads.SUITE:
        buchi.compile_formula(ltl.parse(spec.text), spec.alphabet)
    for f, ab in random_formulas():
        buchi.compile_formula(f, ab)
    buchi.compile_formula(ltl.parse(until_chain(20)))
    assert len(sizes) == 313 and max(sizes) > 200


@pytest.mark.parametrize("name", WIDE_GUARDS)
def test_wide_guard_outputs_unchanged(name):
    text, digest = WIDE_GUARDS[name]
    aut = buchi.compile_formula(ltl.parse(text))
    blob = json.dumps(aut.to_json(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


# sha256 of to_dot() for every SUITE and WIDE_GUARDS spec, recorded with the
# code of the commit before the automaton kept one edge list, so that the
# dot writer's edge order is pinned as closely as to_json's
DOT_DIGESTS = {
    "sequence-2": "0d506b8fb9333262cab59f742c44597e8d389383bfe0efc7b87b1ed94506f8b1",
    "sequence-3": "5ab6772af88b8053ace68252048bc469ae80776da30daf2b4c130a94e7023a5e",
    "sequence-4": "da9a5655bb52643a8a762c80c2a2c064db37308c5a24ab4312547be7d5d41f2b",
    "sequence-5": "55174dfcba8905413ab6de0a7e4b7f0a63baabb6b5540dbf6e5627014c0b8710",
    "gf-3": "1b60ee8a4859f94d1390f0ef1e9985ea56d98fa6d9a0b2ac9051041ece2a8bed",
    "gf-4": "529f62f03d537b9e8fe790420eda6812bef0ee517dcba9bb8b48af7b9e208724",
    "response": "3d8862d1284f765e89857eae45113485df89a2b399b2fd2dcb37c22abbe31472",
    "response-next": "2d99e95e2d5848e1145a62e07ad6ab4ace92ecd1baa3f8da4d3451f9145e5dd2",
    "persistence": "22a951dab5710dd9c70147a22f6595a5a23fba75ed305e5c54e40628d0edd5b4",
    "nested-c07": "8edc3fc48016f5bf0c15e8781b9e4d0bbbb7b14e9559d5b4c701730065203cd0",
    "zone-c08": "f54a2e199ec6700debb03fb6e999d7070d4e967b1741e874ae997bc0db1c2e3c",
    "too-many-lassos": "43d744a9395b45835ccb6613c213725a77902b6aed9adeba3e539c9bf8634282",
    "gf-cube-16": "85327aba074c1770f7438afc62c0aeae13a46f2046ab618cdb8c8ed2b265877f",
    "response-cube-16": "f25131fd285874e7877e3c923a78d1c8c0f82119aff2ca5db7d36e1d91552f30",
    "f-or-30": "ba6bb5c030f2761da37fa74ee74a5ea6207f728da70557eff9b51c62bc415501",
    "response-or-30": "1bb467b561326f838aa9c22b2ece9c36e30f448f9cbcd05b2606cb0ecd46eab3",
}


@pytest.mark.parametrize("name", DOT_DIGESTS)
def test_dot_output_unchanged(name):
    if name in WIDE_GUARDS:
        aut = buchi.compile_formula(ltl.parse(WIDE_GUARDS[name][0]))
    else:
        aut = compiled(suite_spec(name))
    digest = hashlib.sha256(aut.to_dot().encode()).hexdigest()
    assert digest == DOT_DIGESTS[name]


def disjunction_family(k: int) -> str:
    return " | ".join(f"F p{i}" for i in range(k))


@pytest.mark.parametrize("k", range(8, 21))
def test_disjunction_family_states(k):
    """F p0 | ... | F pk-1 compiles to k + 2 states: the initial one, one
    waiting state per name and the accepting sink. The quotient reaches
    every width, with no cap on the number of names."""
    assert buchi.compile_formula(ltl.parse(disjunction_family(k))).n_states \
        == k + 2


def test_compile_evaluates_no_guard_letter_by_letter(monkeypatch):
    """Compiling, extracting subgoals and stepping decide every guard on its
    BDD node: no eval_bool call, through ltl or through the name buchi
    imports, while the wide-guard specs compile and every SUITE spec
    compiles, extracts at each live state and steps on every letter."""
    calls = []
    for module in (ltl, buchi):
        def counted(*args, real=getattr(module, "eval_bool")):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, "eval_bool", counted)
    for text, _ in WIDE_GUARDS.values():
        buchi.compile_formula(ltl.parse(text))
    extracted = 0
    for spec in workloads.SUITE:
        aut = buchi.compile_formula(ltl.parse(spec.text), spec.alphabet)
        achievable = workloads.achievable_for(spec.alphabet)
        for q in sorted(aut.classify().live):
            try:
                extracted += len(subgoals.extract_subgoals(
                    aut, frozenset({q}), frozenset(), achievable))
            except subgoals.UniverseTooLarge:
                pass   # raised by the lasso walk, after the avoid letters
        states = frozenset(range(aut.n_states))
        for letter in range(1 << aut.alphabet.n):
            aut.step(states, letter)
    assert calls == []
    assert extracted > 0


def checked_letters(n: int) -> list[int]:
    """Every letter over n <= 8 names. Past that, the letters that decide
    a cube or a disjunction of literals (none, all, each name alone and
    each name left out) and 256 more drawn with seed 5."""
    if n <= 8:
        return list(range(1 << n))
    full = (1 << n) - 1
    rng = np.random.default_rng(5)
    return sorted({0, full, *(1 << i for i in range(n)),
                   *(full ^ 1 << i for i in range(n)),
                   *(int(x) for x in rng.integers(0, 1 << n, size=256))})


@functools.cache
def abc_formulas() -> tuple[ltl.Formula, ...]:
    """300 formulas of depth 4 over a, b, c, seed 11."""
    rng = np.random.default_rng(11)
    return tuple(gen.random_formula(rng, 4, ABC.names) for _ in range(300))


@pytest.mark.parametrize("case", [
    "suite", "wide-guards", "large", "random-formulas", "random-automata"])
def test_succ_matches_brute_successors(case):
    """succ, which walks each guard's BDD node down the letter's bits,
    against eval_bool over the transitions at every (state, letter), on
    compiled automata and on automata built from transitions, which keep
    a guard table of their own; and step on sets of two or more states
    against the union of the oracle over the set."""
    if case == "suite":
        auts = [buchi.compile_formula(ltl.parse(spec.text), spec.alphabet)
                for spec in workloads.SUITE]
    elif case == "wide-guards":
        auts = [buchi.compile_formula(ltl.parse(text))
                for text, _ in WIDE_GUARDS.values()]
    elif case == "large":
        auts = [buchi.compile_formula(ltl.parse(LARGE[0]))]
    elif case == "random-formulas":
        auts = [buchi.compile_formula(f, ABC) for f in abc_formulas()]
    else:
        rng = np.random.default_rng(13)
        auts = [gen.random_automaton(rng, int(rng.integers(1, 9)),
                                     int(rng.integers(1, 4)))
                for _ in range(300)]
    rng = np.random.default_rng(17)
    pairs = sets = 0
    for aut in auts:
        edges = gen.transitions(aut)
        letters = checked_letters(aut.alphabet.n)
        brute = {(q, a): gen.brute_successors(aut, q, a, edges)
                 for q in range(aut.n_states) for a in letters}
        for (q, a), want in brute.items():
            assert aut.succ(q, a) == want, (q, a)
        pairs += len(brute)
        if aut.n_states < 2:
            continue
        for a in letters:
            for states in (range(aut.n_states), rng.choice(
                    aut.n_states, size=int(rng.integers(2, aut.n_states + 1)),
                    replace=False)):
                states = frozenset(int(q) for q in states)
                assert aut.step(states, a) == set().union(
                    *(brute[q, a] for q in states))
                sets += 1
    assert pairs > 0 and sets > 0


def test_large_automaton_unchanged():
    text, digest = LARGE
    aut = buchi.compile_formula(ltl.parse(text))
    assert (aut.n_states, len(gen.transitions(aut))) == (141, 2117)
    blob = json.dumps(aut.to_json(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
    classes = aut.classify()
    assert classes.live == frozenset(range(141))
    assert classes.accepting_sink == frozenset()


def until_chain(n: int) -> str:
    return " U ".join(["a"] * n)


@pytest.mark.parametrize("text,sizes", [
    (LARGE[0], (1175, 230, 702, 141)),
    (until_chain(20), (211, 21, 210, 2)),
], ids=["large", "until-chain-20"])
def test_stage_sizes(monkeypatch, text, sizes):
    """The state counts a compile passes through: the tableau's, the graph
    `_degeneralize` reads and the one it returns, and the automaton's. A
    change that lets an intermediate grow shows here, even when the
    automaton stays the same."""
    got = []

    def tableau(f):
        subs, olds, succs = expand_tableau(f)
        got.append(len(olds))
        return subs, olds, succs

    def degeneralize(g, acc_sets):
        got.append(len(g.out))
        g = real_degeneralize(g, acc_sets)
        got.append(len(g.out))
        return g

    expand_tableau = buchi.expand_tableau
    real_degeneralize = buchi._degeneralize
    monkeypatch.setattr(buchi, "expand_tableau", tableau)
    monkeypatch.setattr(buchi, "_degeneralize", degeneralize)
    got.append(buchi.compile_formula(ltl.parse(text)).n_states)
    assert tuple(got) == sizes


def test_compiled_automata_decide_as_rebuilt_ones():
    """An oracle for the guard decisions a compiled automaton takes over
    from its compile: rebuilt from its transitions, an automaton decides
    every guard afresh, and its edges() and classify() are the same, on
    every SUITE, wide-guard, LARGE and random automaton."""
    auts = [compiled(spec) for spec in workloads.SUITE]
    auts += [buchi.compile_formula(ltl.parse(text))
             for text, _ in (*WIDE_GUARDS.values(), LARGE)]
    auts += random_automata()
    for aut in auts:
        fresh = rebuilt(aut)
        assert aut.edges() == fresh.edges()
        assert aut.classify() == fresh.classify()
    assert len(auts) == 317


def test_compiled_automata_decide_no_guard_again(monkeypatch):
    """edges() and classify() on a compiled automaton decide no guard: it
    keeps what its compile decided about its guards and their
    disjunctions, on every SUITE and wide-guard spec."""
    auts = [buchi.compile_formula(ltl.parse(text), alphabet)
            for text, alphabet in GUARD_SPECS]
    built = []
    monkeypatch.setattr(buchi._Guards, "_build",
                        lambda self, guard: built.append(guard))
    for aut in auts:
        aut.edges()
        aut.classify()
    assert built == []


def check_bisimilar_classes_after_stages(monkeypatch, checked: list):
    """Make each compile stage check the classes of the graph it returns,
    and the generalized quotient those of the graph it reads: splitter
    refinement against round-by-round refinement over the truth tables of
    the graph's support letters, from the same initial blocks. `checked`
    gets each graph's size."""
    def check(g, marks):
        used = {i for edges in g.out for i, _ in edges}
        support = sorted(set().union(
            *(ltl.atoms(g.guards.formulas[i]) for i in used)))
        assert buchi._bisimilar_classes(g, marks) == \
            gen.reference_bisimilar_classes(g, support, marks)
        checked.append(len(g.out))

    def checked_after(stage):
        def run(*args):
            g = stage(*args)
            check(g, [q in g.accepting for q in range(len(g.out))])
            return g
        return run

    def merge_generalized(g, acc_sets):
        # blocks by the tuple of memberships, not by the bitmask the
        # compile keys them on
        check(g, [tuple(q in acc for acc in acc_sets)
                  for q in range(len(g.out))])
        return real_merge_generalized(g, acc_sets)

    real_merge_generalized = buchi._merge_generalized
    monkeypatch.setattr(buchi, "_merge_generalized", merge_generalized)
    for name in STAGES:
        monkeypatch.setattr(buchi, name, checked_after(getattr(buchi, name)))


def test_bisimilar_classes_match_rounds(monkeypatch):
    """Splitter refinement against round-by-round refinement: the same
    classes on the generalized graph and every stage graph of every SUITE
    spec, of the 300 random formulas and of the Until chain at n = 20, over
    the support the quotient uses."""
    checked = []
    check_bisimilar_classes_after_stages(monkeypatch, checked)
    for spec in workloads.SUITE:
        buchi.compile_formula(ltl.parse(spec.text), spec.alphabet)
    for f, ab in random_formulas():
        buchi.compile_formula(f, ab)
    buchi.compile_formula(ltl.parse(until_chain(20)))
    assert len(checked) == 6 * 313 and max(checked) > 200


def test_bisimilar_classes_match_rounds_past_ten_names(monkeypatch):
    """The same check on the generalized graph and every stage graph of F
    p0 | ... | F pk-1 for k = 11 to 13, whose 2^k-letter truth tables the
    quotient no longer needs."""
    checked = []
    check_bisimilar_classes_after_stages(monkeypatch, checked)
    for k in range(11, 14):
        buchi.compile_formula(ltl.parse(disjunction_family(k)))
    assert len(checked) == 6 * 3


def test_no_word_is_accepted_for_a_formula_and_its_negation():
    """The exact over-acceptance oracle: the automata of f and of !f accept
    no word in common, on the wide-guard specs, F p0 | ... | F pk-1 for k
    = 8 to 20, and the 300 random formulas. The products pair edges, not
    letters, so the 30-name specs are checked exactly. As a control, an
    automaton with an accepting cycle shares a word with itself."""
    cases = [(ltl.parse(text), None) for text, _ in WIDE_GUARDS.values()]
    cases += [(ltl.parse(disjunction_family(k)), None) for k in range(8, 21)]
    cases += random_formulas()
    shared = [f for f, alphabet in cases
              if gen.accept_a_common_word(
                  buchi.compile_formula(f, alphabet),
                  buchi.compile_formula(ltl.Not(f), alphabet))]
    assert shared == []
    live = [aut for aut in random_automata() if aut.classify().live]
    assert all(gen.accept_a_common_word(aut, aut) for aut in live)
    assert len(cases) == 317 and len(live) > 150


def stage_graphs(monkeypatch, f, alphabet) -> list:
    """(graph, acceptance sets) per stage of f's compile, in order: the
    tableau's generalized graph and its quotient, each Buchi stage's output
    and the final automaton's graph."""
    graphs = []

    def recorded(name, stage):
        def run(*args):
            out = stage(*args)
            if name == "_merge_generalized":
                graphs.extend([args, out])
            else:
                graphs.append((out, [out.accepting]))
            return out
        return run

    with monkeypatch.context() as m:
        for name in ("_merge_generalized", *STAGES):
            m.setattr(buchi, name, recorded(name, getattr(buchi, name)))
        aut = buchi.compile_formula(f, alphabet)
    return graphs + [(aut._graph, [aut.accepting])]


def test_every_stage_covers_the_same_kripke_states(monkeypatch):
    """The cover oracle for lost words, with the product check for extra
    ones, on the 300 random formulas: on 3 random 12-state Kripke
    structures per formula, every stage graph of f, the two generalized
    ones included, covers the same states, and the covers of f and !f
    together hold every state; and no Buchi stage graph of f or !f shares
    a word with the final automaton of the other."""
    rng = np.random.default_rng(21)
    n_stages = []
    for f, ab in random_formulas():
        kripkes = [gen.random_kripke(rng, 12, 1 << ab.n) for _ in range(3)]
        both = [stage_graphs(monkeypatch, g, ab) for g in (f, ltl.Not(f))]
        for k in kripkes:
            covers = [{gen.kripke_cover(g, acc, ab, k) for g, acc in graphs}
                      for graphs in both]
            assert [len(c) for c in covers] == [1, 1], ltl.format_formula(f)
            assert covers[0].pop() | covers[1].pop() == set(range(12)), \
                ltl.format_formula(f)
        for graphs, other in zip(both, both[::-1]):
            final = buchi._renumber(other[-1][0], ab)
            assert not any(gen.accept_a_common_word(
                buchi._renumber(g, ab), final) for g, _ in graphs[2:-1]), \
                ltl.format_formula(f)
        n_stages.append(len(both[0]))
    assert n_stages == [2 + len(STAGES) + 1] * 300


def test_compile_decides_each_guard_once(monkeypatch):
    """A compile builds the BDD node of each distinct guard at most once,
    on every SUITE and wide-guard spec, and decides its satisfiability and
    validity from that node. Only outermost builds count: a build recurses
    on smaller guards."""
    built = []
    depth = [0]
    real = buchi._Guards._build

    def counted(self, guard):
        if not depth[0]:
            built.append(guard)
        depth[0] += 1
        try:
            return real(self, guard)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(buchi._Guards, "_build", counted)
    for text, alphabet in GUARD_SPECS:
        built.clear()
        buchi.compile_formula(ltl.parse(text), alphabet)
        assert built, text
        again = [ltl.format_formula(g)
                 for g, n in Counter(built).items() if n > 1]
        assert again == [], text


def test_compile_formats_each_guard_once(monkeypatch):
    """A compile formats each distinct guard at most once, on every SUITE
    and wide-guard spec: its stages sort and deduplicate transitions by a
    guard's text and look the text up. Every call buchi makes is an
    outermost one, since format_formula recurses through ltl's own name."""
    formatted = []

    def counted(guard):
        formatted.append(guard)
        return ltl.format_formula(guard)

    monkeypatch.setattr(buchi, "format_formula", counted)
    for text, alphabet in GUARD_SPECS:
        formatted.clear()
        buchi.compile_formula(ltl.parse(text), alphabet)
        assert formatted, text
        again = [ltl.format_formula(g)
                 for g, n in Counter(formatted).items() if n > 1]
        assert again == [], text


def test_one_automaton_per_compile(monkeypatch):
    """The compile stages pass one graph of guard ids along, and only the
    last builds a BuchiAutomaton: one per compile, on every SUITE and
    wide-guard spec. Every automaton, compiled or built from transitions
    by `gen.automaton`, ends in `BuchiAutomaton.__init__`, so it counts
    them all."""
    built = []
    real = buchi.BuchiAutomaton.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(buchi.BuchiAutomaton, "__init__", counted)
    for text, alphabet in GUARD_SPECS:
        built.clear()
        aut = buchi.compile_formula(ltl.parse(text), alphabet)
        assert len(built) == 1, (text, len(built))
        assert built[0] is aut


def test_one_guard_table_per_compile(monkeypatch):
    """A compile interns its guards in one _Guards table, and the automaton
    it returns keeps that table: on every SUITE, wide-guard and LARGE spec."""
    tables = []

    class Counted(buchi._Guards):
        def __init__(self):
            super().__init__()
            tables.append(self)

    monkeypatch.setattr(buchi, "_Guards", Counted)
    for text, alphabet in GUARD_SPECS + [(LARGE[0], None)]:
        tables.clear()
        aut = buchi.compile_formula(ltl.parse(text), alphabet)
        assert len(tables) == 1, (text, len(tables))
        assert aut._graph.guards is tables[0]


def test_no_guard_memo_outlives_a_compile():
    """Compiling the suite pass after pass, renamed so that no two passes
    share a guard, keeps nothing from earlier passes alive: whatever a
    compile remembers about its guards goes when it returns."""
    def traced_after_pass(tag: int) -> int:
        for spec in workloads.SUITE:
            text, alphabet, _ = workloads.renamed(spec, tag)
            buchi.compile_formula(ltl.parse(text), alphabet)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        traced = [traced_after_pass(tag) for tag in range(10)]
    finally:
        tracemalloc.stop()
    assert traced[9] - traced[1] < 16_000, traced


def test_extraction_memory_is_bounded_on_too_many_lassos():
    """The lasso count memo of one extraction stays small on the spec that
    passes the 100,000-lasso limit: the walk stops at the limit, and
    sibling orders share one entry. It peaked at 1.8 MB when written. The
    automaton is compiled here, so no earlier walk has filled its memo."""
    spec = suite_spec("too-many-lassos")
    aut = buchi.compile_formula(ltl.parse(spec.text), spec.alphabet)
    aut.classify()
    tracemalloc.start()
    try:
        with pytest.raises(subgoals.UniverseTooLarge,
                           match="^more than 100000 lassos from state 0$"):
            subgoals.extract_subgoals(aut, frozenset({0}), frozenset(),
                                      workloads.achievable_for(spec.alphabet))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000, peak


def test_no_extraction_memo_outlives_its_automaton():
    """Extracting from renamed copies of the two extraction-heavy specs,
    pass after pass, keeps nothing from earlier passes alive: an
    automaton's lasso count memo goes with the automaton. Each pass
    extracts at every live state of response and at state 0 of
    too-many-lassos, which raises. The automata are compiled before
    tracing starts, and each pass drops its own."""
    specs = [s for s in workloads.SUITE
             if s.name in ("response", "too-many-lassos")]
    passes = []
    for tag in range(10):
        renamed = [workloads.renamed(spec, tag) for spec in specs]
        passes.append([(buchi.compile_formula(ltl.parse(text), alphabet),
                        workloads.achievable_for(alphabet))
                       for text, alphabet, _ in renamed])

    def traced_after_pass(tag: int) -> int:
        (response, achievable), (too_many, too_many_achievable) = passes[tag]
        passes[tag] = None
        for q in sorted(response.classify().live):
            subgoals.extract_subgoals(response, frozenset({q}), frozenset(),
                                      achievable)
        with pytest.raises(subgoals.UniverseTooLarge):
            subgoals.extract_subgoals(too_many, frozenset({0}), frozenset(),
                                      too_many_achievable)
        del response, too_many
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        traced = [traced_after_pass(tag) for tag in range(10)]
    finally:
        tracemalloc.stop()
    assert traced[9] - traced[1] < 16_000, traced


def second_nodes_or_error(aut, q: int, limit: int):
    """_second_nodes(aut, q, limit), or the text of what it raises."""
    try:
        return subgoals._second_nodes(aut, q, limit)
    except subgoals.UniverseTooLarge as err:
        return str(err)


ABC = ltl.Alphabet(("a", "b", "c"))


# formula 120 of 400 depth-4 random formulas over a, b, c drawn with seed 11:
# 220 states in 54 SCCs, whose lasso paths reach the later SCCs' nodes by
# many routes
MANY_ROUTES = ("((((a U b) | (a R b)) U ((b U b) R (a U b))) U "
               "(false R F (c R c)))")


@pytest.mark.parametrize("q,expected", [
    (0, "more than 100000 lassos from state 0"),
    (16, {41, 42, 47, 48}),
])
def test_lasso_count_memory_is_bounded_past_the_first_scc(q, expected):
    """The lasso count memo keys a path by its nodes in the current SCC
    only, so paths that reach one node of a later SCC by different routes
    share an entry: state 0 on its way to the limit and state 16 over its
    26,320 lassos each peak under 0.2 MB. The expected outcomes are those
    of listing the lassos with find_lassos."""
    aut = buchi.compile_formula(ltl.parse(MANY_ROUTES), ABC)
    assert aut.n_states == 220
    aut.classify()
    tracemalloc.start()
    try:
        got = second_nodes_or_error(aut, q, subgoals._MAX_LASSOS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    try:
        listed = {lp.path[1] if len(lp.path) > 1 else q
                  for lp in subgoals.find_lassos(aut, q)}
    except subgoals.UniverseTooLarge as err:
        listed = str(err)
    assert got == listed == expected
    assert peak < 1_000_000, peak


@functools.cache
def mid_sized_formulas() -> tuple[ltl.Formula, ...]:
    """The formulas of test_subgoals.py's
    test_matches_lasso_walk_past_brute_force_sizes: the first 100 of depth
    4 over a, b, c drawn with seed 6 whose automata have 9 to 60 states."""
    rng = np.random.default_rng(6)
    out = []
    while len(out) < 100:
        f = gen.random_formula(rng, 4, ABC.names)
        if 9 <= buchi.compile_formula(f, ABC).n_states <= 60:
            out.append(f)
    return tuple(out)


def rebuilt(aut: buchi.BuchiAutomaton) -> buchi.BuchiAutomaton:
    """A fresh automaton with aut's transitions, which shares no memo."""
    return gen.automaton(aut.alphabet, aut.n_states, aut.initial,
                         aut.accepting, gen.transitions(aut))


@pytest.mark.parametrize("case", [
    "response-next", "too-many-lassos", "many-routes", "mid-sized"])
def test_second_nodes_do_not_depend_on_call_history(case):
    """The lasso count memo that an automaton keeps across calls is exact
    for every root: walking every live state in ascending, descending and
    shuffled order, each order on a freshly compiled automaton, gives at
    each state what a fresh automaton gives for that state alone, raises
    and their texts included."""
    if case == "mid-sized":
        # the limit of test_matches_lasso_walk_past_brute_force_sizes
        cases = [(f, ABC, 5000) for f in mid_sized_formulas()]
    elif case == "many-routes":
        cases = [(ltl.parse(MANY_ROUTES), ABC, subgoals._MAX_LASSOS)]
    else:
        spec = suite_spec(case)
        cases = [(ltl.parse(spec.text), spec.alphabet, subgoals._MAX_LASSOS)]
    rng = np.random.default_rng(31)
    raised = 0
    for formula, alphabet, limit in cases:
        aut = buchi.compile_formula(formula, alphabet)
        live = sorted(aut.classify().live)
        expected = {q: second_nodes_or_error(rebuilt(aut), q, limit)
                    for q in live}
        raised += sum(isinstance(got, str) for got in expected.values())
        for order in (live, live[::-1], rng.permutation(live).tolist()):
            aut = buchi.compile_formula(formula, alphabet)
            got = {q: second_nodes_or_error(aut, q, limit) for q in order}
            assert got == expected, (case, order)
    assert raised == {"response-next": 0, "too-many-lassos": 10,
                      "many-routes": 180, "mid-sized": 211}[case]


def test_lasso_count_memo_lives_and_dies_with_its_automaton():
    """The walk at every live state of MANY_ROUTES leaves its automaton
    holding under 1 MB (0.49 MB for its 220 states when pinned), and
    dropping the automaton frees it all."""
    tracemalloc.start()
    try:
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        aut = buchi.compile_formula(ltl.parse(MANY_ROUTES), ABC)
        live = sorted(aut.classify().live)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for q in live:
            second_nodes_or_error(aut, q, subgoals._MAX_LASSOS)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        del aut
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(live) == 220
    assert held < 1_000_000, held
    assert left < 16_000, left


def test_second_inspect_loop_counts_nothing_again():
    """Extraction at every live state of response-next, as inspect-subgoals
    runs it, fills the automaton's memo once: a second loop over the same
    automaton adds no entry and returns the same lists. The memo's size
    after one loop is pinned, so a change that stops sharing counts across
    roots, or keys them differently, shows here."""
    spec = suite_spec("response-next")
    aut = buchi.compile_formula(ltl.parse(spec.text), spec.alphabet)
    achievable = workloads.achievable_for(spec.alphabet)

    def inspect() -> list:
        return [subgoals.extract_subgoals(aut, frozenset({q}), frozenset(),
                                          achievable)
                for q in sorted(aut.classify().live)]

    first = inspect()
    memo = aut._lasso_table[3]
    assert len(memo) == 4300
    assert inspect() == first
    assert len(memo) == 4300
