"""LTL formulas: parsing, normal forms, and semantics over lasso words.

Formulas are immutable trees of dataclass nodes. Atomic propositions are
referenced by name in the tree; an :class:`Alphabet` fixes the name-to-bit
mapping, and an assignment (one letter of a word) is an int bitmask over
that alphabet.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Formula", "Bool", "Atom", "Not", "And", "Or", "Next", "Eventually",
    "Always", "Until", "Release", "TRUE", "FALSE",
    "Alphabet", "Lasso", "ParseError",
    "parse", "format_formula", "nnf", "atoms", "alphabet_of",
    "eval_lasso", "eval_bool", "is_boolean",
]

# Single capitals are temporal operators; `true`/`false` are constants.
RESERVED_NAMES = frozenset({"F", "G", "X", "U", "R", "true", "false"})
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Formula:
    """Base class for formula nodes."""

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Bool(Formula):
    value: bool


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Next(Formula):
    arg: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    arg: Formula


@dataclass(frozen=True)
class Always(Formula):
    arg: Formula


@dataclass(frozen=True)
class Until(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Release(Formula):
    lhs: Formula
    rhs: Formula


TRUE = Bool(True)
FALSE = Bool(False)

_UNARY = (Not, Next, Eventually, Always)


@dataclass(frozen=True)
class Alphabet:
    """Ordered atomic propositions; the position in `names` is the bit index."""

    names: tuple[str, ...]

    def __post_init__(self):
        seen = set()
        for name in self.names:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"bad proposition name {name!r}")
            if name in RESERVED_NAMES:
                raise ValueError(f"proposition name {name!r} is reserved")
            if name in seen:
                raise ValueError(f"duplicate proposition name {name!r}")
            seen.add(name)

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"proposition {name!r} not in alphabet {self.names}") from None

    def mask(self, *names: str) -> int:
        """Assignment bitmask with exactly the given propositions true."""
        out = 0
        for name in names:
            out |= 1 << self.index(name)
        return out

    def names_of(self, assignment: int) -> tuple[str, ...]:
        if assignment >> self.n:
            raise ValueError(f"assignment {assignment:#x} has bits outside the alphabet")
        return tuple(name for i, name in enumerate(self.names) if assignment >> i & 1)


@dataclass(frozen=True)
class Lasso:
    """Ultimately periodic word prefix . cycle^omega; letters are assignments."""

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("lasso cycle must be nonempty")


class ParseError(ValueError):
    """Syntax error carrying the byte offset and the expected token kinds."""

    def __init__(self, text: str, offset: int, expected: tuple[str, ...], found: str):
        self.text = text
        self.offset = offset
        self.expected = tuple(sorted(set(expected)))
        self.found = found
        exp = ", ".join(self.expected)
        super().__init__(f"at byte {offset}: found {found}, expected one of: {exp}")


_SYMBOLS = (("->", "IMPLIES"), ("!", "NOT"), ("&", "AND"), ("|", "OR"),
            ("(", "LPAREN"), (")", "RPAREN"))
_OP_TOKENS = {"F": "F", "G": "G", "X": "X", "U": "U", "R": "R",
              "true": "TRUE", "false": "FALSE"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        for sym, kind in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append((kind, sym, i))
                i += len(sym)
                break
        else:
            m = _NAME_RE.match(text, i)
            if not m:
                raise ParseError(text, i, ("atom", "operator"), repr(ch))
            word = m.group(0)
            tokens.append((_OP_TOKENS.get(word, "NAME"), word, i))
            i = m.end()
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    """Recursive descent over: implies > or > and > until/release > unary > atom."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        kind, value, offset = self.peek()
        found = "end of input" if kind == "END" else repr(value)
        raise ParseError(self.text, offset, expected, found)

    def parse(self) -> Formula:
        f = self.implies()
        if self.peek()[0] != "END":
            self.fail(("'&'", "'|'", "'->'", "'U'", "'R'", "end of input"))
        return f

    def implies(self) -> Formula:
        lhs = self.disjunction()
        if self.peek()[0] == "IMPLIES":
            self.take()
            rhs = self.implies()
            return Or(Not(lhs), rhs)
        return lhs

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek()[0] == "OR":
            self.take()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.until()
        while self.peek()[0] == "AND":
            self.take()
            f = And(f, self.until())
        return f

    def until(self) -> Formula:
        lhs = self.unary()
        kind = self.peek()[0]
        if kind in ("U", "R"):
            self.take()
            rhs = self.until()  # right associative
            return Until(lhs, rhs) if kind == "U" else Release(lhs, rhs)
        return lhs

    def unary(self) -> Formula:
        kind = self.peek()[0]
        if kind == "NOT":
            self.take()
            return Not(self.unary())
        if kind in ("F", "G", "X"):
            self.take()
            arg = self.unary()
            return {"F": Eventually, "G": Always, "X": Next}[kind](arg)
        return self.atom()

    def atom(self) -> Formula:
        kind, value, _ = self.peek()
        if kind == "NAME":
            self.take()
            return Atom(value)
        if kind == "TRUE":
            self.take()
            return TRUE
        if kind == "FALSE":
            self.take()
            return FALSE
        if kind == "LPAREN":
            self.take()
            f = self.implies()
            if self.peek()[0] != "RPAREN":
                self.fail(("')'",))
            self.take()
            return f
        self.fail(("atom", "'true'", "'false'", "'!'", "'F'", "'G'", "'X'", "'('"))


def parse(text: str) -> Formula:
    """Parse a formula. `->` is accepted as sugar for `!lhs | rhs`."""
    return _Parser(text).parse()


def format_formula(f: Formula) -> str:
    """Canonical rendering; parse(format_formula(f)) reproduces f exactly."""
    if isinstance(f, Bool):
        return "true" if f.value else "false"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "!" + format_formula(f.arg)
    if isinstance(f, Next):
        return "X " + format_formula(f.arg)
    if isinstance(f, Eventually):
        return "F " + format_formula(f.arg)
    if isinstance(f, Always):
        return "G " + format_formula(f.arg)
    ops = {And: "&", Or: "|", Until: "U", Release: "R"}
    op = ops[type(f)]
    return f"({format_formula(f.lhs)} {op} {format_formula(f.rhs)})"


def atoms(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset((f.name,))
    if isinstance(f, Bool):
        return frozenset()
    if isinstance(f, _UNARY):
        return atoms(f.arg)
    return atoms(f.lhs) | atoms(f.rhs)


def alphabet_of(f: Formula) -> Alphabet:
    """Alphabet from the formula's atoms, sorted."""
    return Alphabet(tuple(sorted(atoms(f))))


def nnf(f: Formula) -> Formula:
    """Negation normal form: negations only on atoms, F/G expanded into U/R."""
    if isinstance(f, Bool) or isinstance(f, Atom):
        return f
    if isinstance(f, And):
        return And(nnf(f.lhs), nnf(f.rhs))
    if isinstance(f, Or):
        return Or(nnf(f.lhs), nnf(f.rhs))
    if isinstance(f, Next):
        return Next(nnf(f.arg))
    if isinstance(f, Eventually):
        return Until(TRUE, nnf(f.arg))
    if isinstance(f, Always):
        return Release(FALSE, nnf(f.arg))
    if isinstance(f, Until):
        return Until(nnf(f.lhs), nnf(f.rhs))
    if isinstance(f, Release):
        return Release(nnf(f.lhs), nnf(f.rhs))
    if isinstance(f, Not):
        g = f.arg
        if isinstance(g, Bool):
            return Bool(not g.value)
        if isinstance(g, Atom):
            return f
        if isinstance(g, Not):
            return nnf(g.arg)
        if isinstance(g, And):
            return Or(nnf(Not(g.lhs)), nnf(Not(g.rhs)))
        if isinstance(g, Or):
            return And(nnf(Not(g.lhs)), nnf(Not(g.rhs)))
        if isinstance(g, Next):
            return Next(nnf(Not(g.arg)))
        if isinstance(g, Eventually):
            return Release(FALSE, nnf(Not(g.arg)))
        if isinstance(g, Always):
            return Until(TRUE, nnf(Not(g.arg)))
        if isinstance(g, Until):
            return Release(nnf(Not(g.lhs)), nnf(Not(g.rhs)))
        if isinstance(g, Release):
            return Until(nnf(Not(g.lhs)), nnf(Not(g.rhs)))
    raise TypeError(f"not a formula node: {f!r}")


def is_boolean(f: Formula) -> bool:
    """True when f contains no temporal operators."""
    if isinstance(f, (Bool, Atom)):
        return True
    if isinstance(f, Not):
        return is_boolean(f.arg)
    if isinstance(f, (And, Or)):
        return is_boolean(f.lhs) and is_boolean(f.rhs)
    return False


def eval_bool(f: Formula, assignment: int, alphabet: Alphabet) -> bool:
    """Evaluate a Boolean (state) formula on a single assignment."""
    if isinstance(f, Bool):
        return f.value
    if isinstance(f, Atom):
        return bool(assignment >> alphabet.index(f.name) & 1)
    if isinstance(f, Not):
        return not eval_bool(f.arg, assignment, alphabet)
    if isinstance(f, And):
        return eval_bool(f.lhs, assignment, alphabet) and eval_bool(f.rhs, assignment, alphabet)
    if isinstance(f, Or):
        return eval_bool(f.lhs, assignment, alphabet) or eval_bool(f.rhs, assignment, alphabet)
    raise ValueError(f"not a Boolean formula: {f}")


def eval_lasso(f: Formula, word: Lasso, alphabet: Alphabet) -> bool:
    """Truth of f at position 0 of the infinite word prefix . cycle^omega.

    The word has finitely many distinct positions, so each subformula's truth
    per position is a bitmask and temporal operators are solved by fixpoint
    iteration over the position graph: least fixpoints for U (and F),
    greatest for R (and G).
    """
    letters = word.prefix + word.cycle
    n = len(letters)
    loop = len(word.prefix)
    nxt = list(range(1, n)) + [loop]
    full = (1 << n) - 1

    def shift(v: int) -> int:
        # bit i of the result is bit nxt[i] of v
        out = 0
        for i in range(n):
            if v >> nxt[i] & 1:
                out |= 1 << i
        return out

    memo: dict[Formula, int] = {}

    def ev(g: Formula) -> int:
        cached = memo.get(g)
        if cached is not None:
            return cached
        if isinstance(g, Bool):
            v = full if g.value else 0
        elif isinstance(g, Atom):
            bit = alphabet.index(g.name)
            v = 0
            for i, letter in enumerate(letters):
                if letter >> bit & 1:
                    v |= 1 << i
        elif isinstance(g, Not):
            v = full & ~ev(g.arg)
        elif isinstance(g, And):
            v = ev(g.lhs) & ev(g.rhs)
        elif isinstance(g, Or):
            v = ev(g.lhs) | ev(g.rhs)
        elif isinstance(g, Next):
            v = shift(ev(g.arg))
        elif isinstance(g, Eventually):
            a = ev(g.arg)
            v = 0
            while True:
                nv = a | shift(v)
                if nv == v:
                    break
                v = nv
        elif isinstance(g, Always):
            a = ev(g.arg)
            v = full
            while True:
                nv = a & shift(v)
                if nv == v:
                    break
                v = nv
        elif isinstance(g, Until):
            a, b = ev(g.lhs), ev(g.rhs)
            v = 0
            while True:
                nv = b | (a & shift(v))
                if nv == v:
                    break
                v = nv
        elif isinstance(g, Release):
            a, b = ev(g.lhs), ev(g.rhs)
            v = full
            while True:
                nv = b & (a | shift(v))
                if nv == v:
                    break
                v = nv
        else:
            raise TypeError(f"not a formula node: {g!r}")
        memo[g] = v
        return v

    return bool(ev(f) & 1)

