"""On-the-fly tableau expansion of an LTL formula in negation normal form.

The construction of Gerth, Peled, Vardi & Wolper (1995): each node holds
the formulas it has processed (old) and the ones its successors must
satisfy (next), and closing a node splits it on each disjunction, Until
and Release. Nodes are numbered in the order they are first reached, on
subformula ids numbered in canonical-string order, so the expansion is
deterministic. Each distinct close entry (new, old, next) is expanded once
per call, to the flat tuple of (old, next) leaves it reaches. Nodes are
numbered as buchi.compile_formula numbers its states, node 0 the virtual
initial one; the compile reads guards and acceptance off the old sets.
"""

from __future__ import annotations

from .ltl import (
    FALSE, And, Atom, Bool, Formula, Next, Not, Or, Release, Until,
    format_formula,
)

__all__ = ["expand_tableau", "is_literal"]


_LITERAL = "literal"   # kind of an atom or a negated atom


def is_literal(f: Formula) -> bool:
    """An atom or a negated atom."""
    return isinstance(f, Atom) or (isinstance(f, Not) and isinstance(f.arg, Atom))


def _children(f: Formula) -> list[Formula]:
    return [c for c in (getattr(f, a, None) for a in ("arg", "lhs", "rhs"))
            if isinstance(c, Formula)]


def _subformulas(f: Formula) -> list[Formula]:
    """Every distinct subformula of f, f included, in format_formula order."""
    found: set[Formula] = set()

    def walk(g: Formula):
        if g not in found:
            found.add(g)
            for c in _children(g):
                walk(c)

    walk(f)
    return sorted(found, key=format_formula)


class _Closer:
    """The close step of one expand_tableau call; a set of subformula ids is
    an int with bit i for id i. Each distinct entry (new, old, next) is
    expanded once, to the tuple of the (old, next) leaves it reaches in
    order: empty for a contradiction, one leaf, or the concatenation of its
    two branches' tuples. An entry whose new set holds false reaches no
    leaf and is never expanded: false sorts after every parenthesized
    subformula, so `G x`, which is `false R x`, would otherwise carry it
    through every other Release of a conjunction before it closes."""

    def __init__(self, root: Formula):
        self.subs = subs = _subformulas(root)
        index = {g: i for i, g in enumerate(subs)}
        self.root = 1 << index[root]
        self.kind = kind = [_LITERAL if is_literal(g) else type(g) for g in subs]
        self.kids = kids = [tuple(1 << index[c] for c in _children(g)) for g in subs]
        # a literal's complement, or 0 when the complement is no subformula
        self.neg = neg = [0] * len(subs)
        for i, g in enumerate(subs):
            if kind[i] is _LITERAL and isinstance(g, Not):
                neg[i], neg[index[g.arg]] = kids[i][0], 1 << i
        self.false = 1 << index[FALSE] if FALSE in index else 0
        self.memo: dict[tuple[int, int, int], tuple[tuple[int, int], ...]] = {}

    def leaves(self, new: int, old: int, nxt: int):
        if new & self.false:
            return ()
        key = (new, old, nxt)
        found = self.memo.get(key)
        if found is None:
            found = self.memo[key] = self.close(new, old, nxt)
        return found

    def close(self, new: int, old: int, nxt: int):
        subs, kind, kids, neg = self.subs, self.kind, self.kids, self.neg
        while new:
            bit = new & -new   # the smallest id
            new ^= bit
            g = bit.bit_length() - 1
            k = kind[g]
            if k is Bool:
                if not subs[g].value:
                    return ()
                continue
            if old & bit:
                continue
            if k is _LITERAL:
                if old & neg[g]:
                    return ()
                old |= bit
                continue
            if k is And:
                old |= bit
                new |= (kids[g][0] | kids[g][1]) & ~old
                continue
            if k is Next:
                old |= bit
                nxt |= kids[g][0]
                continue
            if k not in (Or, Until, Release):
                raise TypeError(f"formula not in negation normal form: {subs[g]}")
            lhs, rhs = kids[g]
            old2 = old | bit
            # Or branches on lhs or rhs; Until on rhs, or lhs with itself
            # next; Release on both, or rhs with itself next
            now1, now2 = ((lhs, rhs) if k is Or else (rhs, lhs) if k is Until
                          else (lhs | rhs, rhs))
            return (self.leaves(new | now1 & ~old2, old2, nxt)
                    + self.leaves(new | now2 & ~old2, old2,
                                  nxt if k is Or else nxt | bit))
        return ((old, nxt),)


def expand_tableau(root: Formula):
    """On-the-fly tableau expansion of an NNF formula.

    Returns (subs, olds, succs): the root's subformulas in format_formula
    order, and per node the bitset of its processed formulas' ids
    (positions in subs) and its sorted successor ids. Node 0 is the
    virtual initial node, with old set 0 and the root as its next set;
    every other node is unique per (old, next) pair. A node's successors
    are the leaves of the close entry (its next set, {}, {}), numbered in
    order when first reached; each close step takes the smallest id, so
    construction is fully deterministic.
    """
    closer = _Closer(root)
    nodes: dict[tuple[int, int], int] = {}
    olds, nexts = [0], [closer.root]
    succs: list[list[int]] = []
    for nxt in nexts:   # grows as nodes are registered
        leaves = closer.leaves(nxt, 0, 0)
        for leaf in leaves:
            if leaf not in nodes:
                nodes[leaf] = len(olds)
                olds.append(leaf[0])
                nexts.append(leaf[1])
        succs.append(sorted({nodes[leaf] for leaf in leaves}))
    return closer.subs, olds, succs
