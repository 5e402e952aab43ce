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
    "Alphabet", "Lasso", "ParseError", "MAX_DEPTH",
    "parse", "format_formula", "nnf", "atoms", "alphabet_of",
    "eval_lasso", "eval_bool", "is_boolean",
]

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

# The concrete syntax, written once: the constants, the prefix operators,
# which bind tightest, and the binary operators by binding level, loosest
# first, each level right associative or not. `a -> b` is sugar for
# `!a | b`, so format_formula never writes `->`.
_CONSTANTS = {"true": True, "false": False}
_PREFIX = {"!": Not, "X": Next, "F": Eventually, "G": Always}
_BINARY = ((True, {"->": Or}), (False, {"|": Or}), (False, {"&": And}),
           (True, {"U": Until, "R": Release}))
_INFIX = {op: node for _, ops in _BINARY for op, node in ops.items()}
# Each text of the syntax is its own token kind; its words are reserved.
_KINDS = {*_CONSTANTS, *_PREFIX, *_INFIX, "(", ")"}
RESERVED_NAMES = frozenset(w for w in _KINDS if _NAME_RE.fullmatch(w))
_UNARY = tuple(_PREFIX.values())
# format_formula's text per operator node; a letter takes a space after it.
_WRITTEN = {node: f"{op} " if op in RESERVED_NAMES else op
            for op, node in _PREFIX.items()}
_WRITTEN |= {node: op for op, node in _INFIX.items() if op != "->"}


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


# One token after any whitespace: a symbol or a name (group 1), else any
# other character (group 2); nothing at the end of the text. Reverse order
# tries each symbol before its prefixes.
_TOKEN_RE = re.compile(r"[ \t\r\n]*(?:(%s|%s)|(.)|\Z)" % ("|".join(
    map(re.escape, sorted(_KINDS - RESERVED_NAMES, reverse=True))),
    _NAME_RE.pattern), re.S)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token, END last; a name that is not in
    _KINDS is of kind NAME."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        word, bad = m.groups()
        if bad is not None:
            raise ParseError(text, m.start(2), ("atom", "operator"), repr(bad))
        if word is None:
            break
        tokens.append((word if word in _KINDS else "NAME", word, m.start(1)))
    tokens.append(("END", "", len(text)))
    return tokens


# Deepest nesting a formula may have: every parenthesis, prefix operator and
# binary operator above an atom counts one level, so that the parser and
# every recursion over a parsed formula stay inside Python's recursion limit.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent over the binding levels of _BINARY, loosest first,
    then prefix operators, then atoms and parentheses.

    Each rule returns its formula and height, in levels as MAX_DEPTH counts
    them; `depth` is the number of levels known to enclose the current token.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

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

    def check(self, height: int, tok: tuple[str, str, int]) -> int:
        """height, after making sure that `depth` levels above it stay
        within MAX_DEPTH; raises ParseError at the token otherwise."""
        if self.depth + height > MAX_DEPTH:
            raise ParseError(self.text, tok[2],
                             (f"at most {MAX_DEPTH} levels of nesting",),
                             repr(tok[1]))
        return height

    def nested(self, tok: tuple[str, str, int], rule, *args):
        """rule(*args) one level deeper, below the token that opens the
        level."""
        self.check(1, tok)
        self.depth += 1
        try:
            return rule(*args)
        finally:
            self.depth -= 1

    def parse(self) -> Formula:
        f, _ = self.binary(0)
        if self.peek()[0] != "END":
            self.fail((*(f"'{op}'" for op in _INFIX), "end of input"))
        return f

    def binary(self, level: int) -> tuple[Formula, int]:
        """The operators of binding level `level` over operands of the
        levels below it; a right associative operator parses its right side
        one level deeper, and `->` counts the Not around its left side."""
        right, ops = _BINARY[level]
        last = level + 1 == len(_BINARY)
        f, h = self.unary() if last else self.binary(level + 1)
        while self.peek()[0] in ops:
            tok = self.take()
            if right:
                rhs, rh = self.nested(tok, self.binary, level)
            else:
                rhs, rh = self.unary() if last else self.binary(level + 1)
            if tok[0] == "->":
                f, h = Not(f), h + 1
            f, h = ops[tok[0]](f, rhs), self.check(1 + max(h, rh), tok)
        return f, h

    def unary(self) -> tuple[Formula, int]:
        kind = self.peek()[0]
        if kind in _PREFIX:
            arg, h = self.nested(self.take(), self.unary)
            return _PREFIX[kind](arg), h + 1
        return self.atom()

    def atom(self) -> tuple[Formula, int]:
        kind, value, _ = self.peek()
        if kind == "NAME" or kind in _CONSTANTS:
            self.take()
            return (Atom(value) if kind == "NAME" else Bool(_CONSTANTS[kind])), 0
        if kind == "(":
            f, h = self.nested(self.take(), self.binary, 0)
            if self.peek()[0] != ")":
                self.fail(("')'",))
            self.take()
            return f, h + 1
        self.fail(("atom", "'('", *(f"'{w}'" for w in (*_CONSTANTS, *_PREFIX))))


def parse(text: str) -> Formula:
    """Parse a formula. `->` is accepted as sugar for `!lhs | rhs`."""
    return _Parser(text).parse()


def format_formula(f: Formula) -> str:
    """Canonical rendering; parse(format_formula(f)) reproduces f exactly."""
    if isinstance(f, Bool):
        return "true" if f.value else "false"
    if isinstance(f, Atom):
        return f.name
    op = _WRITTEN[type(f)]
    if isinstance(f, _UNARY):
        return op + format_formula(f.arg)
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


# Each binary operator and its dual under negation: !(a op b) is
# dual(!a, !b).
_DUAL = {And: Or, Or: And, Until: Release, Release: Until}


def nnf(f: Formula) -> Formula:
    """Negation normal form: negations only on atoms, F/G expanded into U/R."""
    if isinstance(f, (Bool, Atom)):
        return f
    if type(f) in _DUAL:
        return type(f)(nnf(f.lhs), nnf(f.rhs))
    if isinstance(f, Next):
        return Next(nnf(f.arg))
    if isinstance(f, Eventually):
        return Until(TRUE, nnf(f.arg))
    if isinstance(f, Always):
        return Release(FALSE, nnf(f.arg))
    if isinstance(f, Not):
        g = f.arg
        if isinstance(g, Bool):
            return Bool(not g.value)
        if isinstance(g, Atom):
            return f
        if isinstance(g, Not):
            return nnf(g.arg)
        if type(g) in _DUAL:
            return _DUAL[type(g)](nnf(Not(g.lhs)), nnf(Not(g.rhs)))
        if isinstance(g, Next):
            return Next(nnf(Not(g.arg)))
        if isinstance(g, Eventually):
            return nnf(Always(Not(g.arg)))
        if isinstance(g, Always):
            return nnf(Eventually(Not(g.arg)))
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
    iteration over the position graph: least fixpoints for U, greatest for
    R, with F a read as true U a and G a as false R a.
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

    def fixpoint(a: int, b: int, least: bool) -> int:
        # a U b is the least fixpoint of b | (a & X v), a R b the greatest
        # of b & (a | X v)
        v = 0 if least else full
        while True:
            nv = b | (a & shift(v)) if least else b & (a | shift(v))
            if nv == v:
                return v
            v = nv

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
            v = fixpoint(full, ev(g.arg), least=True)
        elif isinstance(g, Always):
            v = fixpoint(0, ev(g.arg), least=False)
        elif isinstance(g, Until):
            v = fixpoint(ev(g.lhs), ev(g.rhs), least=True)
        elif isinstance(g, Release):
            v = fixpoint(ev(g.lhs), ev(g.rhs), least=False)
        else:
            raise TypeError(f"not a formula node: {g!r}")
        memo[g] = v
        return v

    return bool(ev(f) & 1)

