"""The memoized tableau expansion against the unmemoized one it replaced,
the work it does per call, and how long its memo lives."""

import gc
import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest

import gen
from ltlnav import ltl, tableau
from ltlnav.ltl import And, Bool, Next, Not, Or, Release, Until
from test_compile_suite import LARGE, WIDE_GUARDS, workloads


def reference_expand_tableau(root, entries=None):
    """expand_tableau as it was before its close entries were memoized:
    each close entry is expanded every time it is reached, and only a
    repeated next set reuses the nodes its first expansion reached. Each
    entry, as (new, old, next) id sets, is appended to `entries` when given.
    """
    subs = tableau._subformulas(root)
    index = {g: i for i, g in enumerate(subs)}
    literal = "literal"
    kind = [literal if tableau.is_literal(g) else type(g) for g in subs]
    kids = [tuple(index[c] for c in tableau._children(g)) for g in subs]
    neg = [-1] * len(subs)
    for i, g in enumerate(subs):
        if kind[i] is literal and isinstance(g, Not):
            neg[i], neg[kids[i][0]] = kids[i][0], i

    nodes = {}
    olds, nexts, incomings = [], [], []
    pending = deque()
    reached = {}
    found = []

    def close(new, old, nxt, src):
        if entries is not None:
            entries.append((frozenset(new), old, nxt))
        while new:
            g = min(new)
            new.discard(g)
            k = kind[g]
            if k is Bool:
                if not subs[g].value:
                    return
                continue
            if g in old:
                continue
            if k is literal:
                if neg[g] in old:
                    return
                old = old | {g}
                continue
            if k is And:
                old = old | {g}
                new |= set(kids[g]) - old
                continue
            if k is Next:
                old = old | {g}
                nxt = nxt | set(kids[g])
                continue
            assert k in (Or, Until, Release)
            lhs, rhs = kids[g]
            old2 = old | {g}
            if k is Or:
                close(new | ({lhs} - old2), old2, nxt, src)
                close(new | ({rhs} - old2), old2, nxt, src)
            elif k is Until:
                close(new | ({rhs} - old2), old2, nxt, src)
                close(new | ({lhs} - old2), old2, nxt | {g}, src)
            else:
                close(new | ({lhs, rhs} - old2), old2, nxt, src)
                close(new | ({rhs} - old2), old2, nxt | {g}, src)
            return
        key = (old, nxt)
        nid = nodes.get(key)
        if nid is None:
            nid = len(olds)
            nodes[key] = nid
            olds.append(old)
            nexts.append(nxt)
            incomings.append({src})
            pending.append(nid)
        else:
            incomings[nid].add(src)
        found.append(nid)

    close({index[root]}, frozenset(), frozenset(), -1)
    while pending:
        nid = pending.popleft()
        succ = reached.get(nexts[nid])
        if succ is None:
            found.clear()
            close(set(nexts[nid]), frozenset(), frozenset(), nid)
            reached[nexts[nid]] = found.copy()
        else:
            for s in succ:
                incomings[s].add(nid)
    return subs, olds, incomings


def random_roots():
    """300 formulas of depth 4 over 1 to 4 names, seed 22, in NNF."""
    rng = np.random.default_rng(22)
    return [ltl.nnf(gen.random_formula(rng, depth=4, names=gen.small_alphabet(
        int(rng.integers(1, 5))).names)) for _ in range(300)]


def named_roots():
    """The benchmark suite, the wide-guard specs and the 144-state formula."""
    texts = ([spec.text for spec in workloads.SUITE]
             + [text for text, _ in WIDE_GUARDS.values()] + [LARGE[0]])
    return [ltl.nnf(ltl.parse(text)) for text in texts]


def ids(bits: int) -> frozenset[int]:
    return frozenset(i for i in range(bits.bit_length()) if bits >> i & 1)


def as_graph(subs, olds, incomings):
    """The reference's output in expand_tableau's form: old sets as bitsets
    and incoming sets as sorted successor lists, with the virtual initial
    node (-1 in incomings) prepended as node 0."""
    succs = [[] for _ in range(len(olds) + 1)]
    for nid, srcs in enumerate(incomings):
        for src in srcs:
            succs[src + 1].append(nid + 1)
    return (subs, [0] + [sum(1 << i for i in old) for old in olds],
            [sorted(ds) for ds in succs])


@pytest.mark.parametrize("roots", [random_roots, named_roots],
                         ids=["random", "named"])
def test_matches_the_unmemoized_expansion(roots):
    """Same subformulas, the same nodes in the same order, and the same
    edges as the expansion without the close memo."""
    for root in roots():
        assert tableau.expand_tableau(root) == \
            as_graph(*reference_expand_tableau(root)), ltl.format_formula(root)


def test_each_close_entry_is_expanded_once(monkeypatch):
    """Per expand_tableau call, each distinct close entry is expanded once,
    and the entries expanded are among those the unmemoized expansion
    reaches: that one expands some entries many times, and also the entries
    that hold false, which the memoized one drops unexpanded."""
    expanded = []
    real = tableau._Closer.close

    def counted(self, new, old, nxt):
        expanded.append((ids(new), ids(old), ids(nxt)))
        return real(self, new, old, nxt)

    monkeypatch.setattr(tableau._Closer, "close", counted)
    repeats = 0
    for root in named_roots() + random_roots()[:100]:
        expanded.clear()
        tableau.expand_tableau(root)
        entries = []
        reference_expand_tableau(root, entries)
        again = [entry for entry, n in Counter(expanded).items() if n > 1]
        assert again == [], ltl.format_formula(root)
        assert set(expanded) <= set(entries), ltl.format_formula(root)
        repeats += len(entries) - len(expanded)
    assert repeats > 10_000


@pytest.mark.parametrize("text", [
    " & ".join(f"G !p{i}" for i in range(16)),
    "!(" + " | ".join(f"F p{i}" for i in range(16)) + ")",
], ids=["conjunction", "negated-disjunction"])
def test_conjunction_of_always_closes_few_entries(monkeypatch, text):
    """G !p0 & ... & G !p15 expands fewer than 1,000 close entries. Each
    `G x` is `false R x`, whose branch with false dies at once; carried
    through the other Releases first, it took 262,142 entries."""
    expanded = []
    real = tableau._Closer.close

    def counted(self, new, old, nxt):
        expanded.append(new)
        return real(self, new, old, nxt)

    monkeypatch.setattr(tableau._Closer, "close", counted)
    tableau.expand_tableau(ltl.nnf(ltl.parse(text)))
    assert len(expanded) < 1_000, len(expanded)


def test_no_tableau_memo_outlives_a_call():
    """Expanding the suite pass after pass, renamed so that no two passes
    share a formula, keeps nothing from earlier passes alive: the close
    memo goes when expand_tableau returns."""
    def traced_after_pass(tag: int) -> int:
        for spec in workloads.SUITE:
            text, _, _ = workloads.renamed(spec, tag)
            tableau.expand_tableau(ltl.nnf(ltl.parse(text)))
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        traced = [traced_after_pass(tag) for tag in range(10)]
    finally:
        tracemalloc.stop()
    assert traced[9] - traced[1] < 16_000, traced


def test_expansion_memory_is_bounded_on_wide_conjunctions():
    """(a0 | b0) & ... & (a11 | b11) closes to 4096 leaves from one entry;
    each entry keeps one flat tuple of its leaves, so the tracemalloc peak
    of the expansion stays below 6 MB."""
    root = ltl.nnf(ltl.parse(" & ".join(f"(a{i} | b{i})" for i in range(12))))
    gc.collect()
    tracemalloc.start()
    try:
        tableau.expand_tableau(root)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000, peak
