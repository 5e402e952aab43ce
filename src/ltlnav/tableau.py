"""On-the-fly tableau expansion of an LTL formula in negation normal form.

The construction of Gerth, Peled, Vardi & Wolper (1995): each node holds
the formulas it has processed (old) and the ones its successors must
satisfy (next), and closing a node splits it on each disjunction, Until
and Release. Nodes are numbered in the order they are first reached, on
subformula ids numbered in canonical-string order, so the expansion is
deterministic. buchi.compile_formula reads guards and acceptance sets off
the nodes.
"""

from __future__ import annotations

from collections import deque

from .ltl import (
    And, Atom, Bool, Formula, Next, Not, Or, Release, Until, format_formula,
)

__all__ = ["expand_tableau", "is_literal"]


_INIT = -1
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


def expand_tableau(root: Formula):
    """On-the-fly tableau expansion of an NNF formula.

    Returns (subs, olds, incomings): the root's subformulas in
    format_formula order, and per node the ids (positions in subs) of its
    processed formulas and its incoming node ids (with -1 for the virtual
    initial node). Nodes are unique per (old, next) pair. Each step takes
    the smallest id, the formula with the smallest canonical string, so
    construction is fully deterministic. A node's successors depend on its
    next set alone, so each distinct next set is expanded once; a later
    node with the same next set only joins its successors' incoming sets.
    """
    subs = _subformulas(root)
    index = {g: i for i, g in enumerate(subs)}
    kind = [_LITERAL if is_literal(g) else type(g) for g in subs]
    kids = [tuple(index[c] for c in _children(g)) for g in subs]
    # a literal's complement, or -1 when the complement is no subformula
    neg = [-1] * len(subs)
    for i, g in enumerate(subs):
        if kind[i] is _LITERAL and isinstance(g, Not):
            neg[i], neg[kids[i][0]] = kids[i][0], i

    nodes: dict[tuple[frozenset[int], frozenset[int]], int] = {}
    olds: list[frozenset[int]] = []
    nexts: list[frozenset[int]] = []
    incomings: list[set[int]] = []
    # worklist of closed nodes whose successors still need expansion
    pending: deque[int] = deque()
    # per next set expanded so far, the nodes its expansion reached
    reached: dict[frozenset[int], list[int]] = {}
    found: list[int] = []   # nodes the current expansion has reached

    def close(new: set[int], old: frozenset[int], nxt: frozenset[int],
              src: int):
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
            if k is _LITERAL:
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
            if k not in (Or, Until, Release):
                raise TypeError(f"formula not in negation normal form: {subs[g]}")
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

    close({index[root]}, frozenset(), frozenset(), _INIT)
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
