"""Text forms for the objects the command line trades in.

Every printable object in the package writes itself in a small bracket
language, and this module reads that language back: prime sets, block
families, rank-one automorphism families, module presentations, group
elements and subgroups, and the ``modpull`` command bundling a module
with a family and one twist matrix per block.

``parse`` produces a syntax tree whose nodes carry source spans, and
``elaborate`` turns a tree into the corresponding package value, blaming
the exact token when a value is malformed (a composite where a prime is
required, a ragged relation matrix, a zero denominator).  ``print_value``
renders values back to their canonical spelling; parsing what it prints
is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .abmod import FGModule
from .errors import DomainError, FamilyError, GenusKitError
from .heis import HeisElement, HeisSubgroup
from .primeset import (
    ALL_PRIMES,
    PRIMALITY_LIMIT,
    PartitionFamily,
    PrimeSet,
    is_prime,
    make_family,
)
from .rank1 import AutFamily1, ConstantRational, Identity, IndexPrimePower, make_aut

Span = tuple  # ((line, col) of first char, (line, col) just past the last)


class ParseError(GenusKitError, ValueError):
    def __init__(self, message: str, line: int, col: int, expected=frozenset()):
        self.line = line
        self.col = col
        self.expected = frozenset(expected)
        text = f"line {line}, column {col}: {message}"
        if self.expected:
            text += " (expected " + " or ".join(sorted(self.expected)) + ")"
        super().__init__(text)


class ElaborateError(GenusKitError, ValueError):
    def __init__(self, message: str, span: Span):
        self.span = span
        line, col = span[0]
        super().__init__(f"line {line}, column {col}: {message}")


@dataclass(frozen=True)
class SyntaxTree:
    kind: str
    children: tuple
    span: Span


@dataclass(frozen=True)
class ModPull:
    """Pullback request: a module, a family, and one twist per block."""

    module: FGModule
    family: PartitionFamily
    twists: tuple  # tuple of matrices, each a tuple of rows of Fractions

    def __str__(self) -> str:
        mats = ", ".join(
            "[" + ",".join("[" + ",".join(str(q) for q in row) + "]" for row in m) + "]"
            for m in self.twists
        )
        return f"modpull({self.module}; {self.family}; {mats})"

    __repr__ = __str__


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "ident", "eof", or the symbol itself
    text: str
    line: int
    col: int


_SYMBOLS = set("{}()[],;\\=/^-")


def _tokenize(text: str):
    tokens = []
    line, col, i = 1, 1, 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line, col = line + 1, 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(_Token("->", "->", line, col))
            i, col = i + 2, col + 2
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, col))
            i, col = i + 1, col + 1
            continue
        raise ParseError(f"stray character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


def _span(first: _Token, last: _Token) -> Span:
    return ((first.line, first.col), (last.line, last.col + len(last.text)))


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def fail(self, expected) -> None:
        tok = self.peek()
        found = "end of input" if tok.kind == "eof" else f"{tok.text!r}"
        raise ParseError(f"found {found}", tok.line, tok.col, expected)

    def expect(self, kind: str, shown: str | None = None) -> _Token:
        if self.peek().kind != kind:
            self.fail({shown or f"'{kind}'"})
        return self.advance()

    def at_ident(self, name: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == name

    def expect_ident(self, name: str) -> _Token:
        if not self.at_ident(name):
            self.fail({f"'{name}'"})
        return self.advance()

    # value dispatch ---------------------------------------------------

    def parse_value(self) -> SyntaxTree:
        tok = self.peek()
        if tok.kind == "{" or self.at_ident("all"):
            return self.parse_primeset()
        if tok.kind in ("int", "-"):
            return self.parse_rational()
        if tok.kind == "ident":
            target = {
                "singletons": self.parse_family,
                "blocks": self.parse_family,
                "aut": self.parse_aut,
                "module": self.parse_module,
                "heis": self.parse_heis,
                "subgroup": self.parse_subgroup,
                "modpull": self.parse_modpull,
            }.get(tok.text)
            if target is not None:
                return target()
        self.fail({"a prime set", "a family", "a rational", "'aut'", "'module'",
                   "'heis'", "'subgroup'", "'modpull'"})

    # leaves -----------------------------------------------------------

    def parse_int(self) -> SyntaxTree:
        tok = self.expect("int", "an integer")
        return SyntaxTree("int", (int(tok.text),), _span(tok, tok))

    def parse_signed_int(self) -> SyntaxTree:
        first = self.peek()
        neg = False
        if first.kind == "-":
            self.advance()
            neg = True
        tok = self.expect("int", "an integer")
        value = -int(tok.text) if neg else int(tok.text)
        return SyntaxTree("int", (value,), _span(first, tok))

    def parse_rational(self) -> SyntaxTree:
        first = self.peek()
        neg = False
        if first.kind == "-":
            self.advance()
            neg = True
        num = self.expect("int", "an integer")
        den = None
        last = num
        if self.peek().kind == "/":
            self.advance()
            den = self.expect("int", "an integer")
            last = den
        children = (neg, int(num.text), None if den is None else int(den.text))
        return SyntaxTree("rational", children, _span(first, last))

    # prime sets and families -------------------------------------------

    def parse_primeset(self) -> SyntaxTree:
        tok = self.peek()
        if self.at_ident("all"):
            first = self.advance()
            if self.peek().kind == "\\":
                self.advance()
                removed = self.parse_primeset()
                return SyntaxTree("primeset_all", (removed,),
                                  (_span(first, first)[0], removed.span[1]))
            return SyntaxTree("primeset_all", (None,), _span(first, first))
        if tok.kind != "{":
            self.fail({"'{'", "'all'"})
        first = self.advance()
        members = []
        if self.peek().kind != "}":
            members.append(self.parse_int())
            while self.peek().kind == ",":
                self.advance()
                members.append(self.parse_int())
        last = self.expect("}")
        return SyntaxTree("primeset_finite", tuple(members), _span(first, last))

    def parse_family(self) -> SyntaxTree:
        tok = self.peek()
        if self.at_ident("singletons"):
            first = self.advance()
            self.expect("(")
            t = self.parse_primeset()
            self.expect(",")
            s = self.parse_primeset()
            last = self.expect(")")
            return SyntaxTree("family_singletons", (t, s), _span(first, last))
        if not self.at_ident("blocks"):
            self.fail({"'singletons'", "'blocks'"})
        first = self.advance()
        self.expect("(")
        t = self.parse_primeset()
        self.expect(",")
        s = self.parse_primeset()
        self.expect(";")
        blocks = [self.parse_primeset()]
        while self.peek().kind == ",":
            self.advance()
            blocks.append(self.parse_primeset())
        last = self.expect(")")
        return SyntaxTree("family_blocks", (t, s, tuple(blocks)), _span(first, last))

    # rank-one automorphism families -------------------------------------

    def parse_tail(self) -> SyntaxTree:
        tok = self.peek()
        if self.at_ident("id"):
            t = self.advance()
            return SyntaxTree("tail_id", (), _span(t, t))
        if self.at_ident("p"):
            first = self.advance()
            self.expect("^")
            exp = self.parse_signed_int()
            return SyntaxTree("tail_power", (exp,), (_span(first, first)[0], exp.span[1]))
        if tok.kind in ("int", "-"):
            q = self.parse_rational()
            return SyntaxTree("tail_rational", (q,), q.span)
        self.fail({"'id'", "'p^'", "a rational"})

    def parse_aut(self) -> SyntaxTree:
        first = self.expect_ident("aut")
        self.expect("(")
        family = self.parse_family()
        self.expect(";")
        self.expect_ident("tail")
        self.expect("=")
        tail = self.parse_tail()
        exceptions = []
        if self.peek().kind == ";":
            self.advance()
            exceptions.append(self.parse_exception())
            while self.peek().kind == ",":
                self.advance()
                exceptions.append(self.parse_exception())
        last = self.expect(")")
        return SyntaxTree("aut", (family, tail, tuple(exceptions)), _span(first, last))

    def parse_exception(self) -> SyntaxTree:
        index = self.parse_int()
        self.expect("->")
        value = self.parse_rational()
        return SyntaxTree("exception", (index, value), (index.span[0], value.span[1]))

    # module presentations ------------------------------------------------

    def parse_int_matrix(self) -> SyntaxTree:
        first = self.expect("[")
        rows = []
        if self.peek().kind != "]":
            rows.append(self.parse_int_row())
            while self.peek().kind == ",":
                self.advance()
                rows.append(self.parse_int_row())
        last = self.expect("]")
        return SyntaxTree("int_matrix", tuple(rows), _span(first, last))

    def parse_int_row(self) -> SyntaxTree:
        first = self.expect("[")
        entries = []
        if self.peek().kind != "]":
            entries.append(self.parse_signed_int())
            while self.peek().kind == ",":
                self.advance()
                entries.append(self.parse_signed_int())
        last = self.expect("]")
        return SyntaxTree("int_row", tuple(entries), _span(first, last))

    def parse_module(self) -> SyntaxTree:
        first = self.expect_ident("module")
        self.expect("(")
        self.expect_ident("T")
        self.expect("=")
        primes = self.parse_primeset()
        self.expect(";")
        gens = None
        if self.at_ident("gens"):
            self.advance()
            self.expect("=")
            gens = self.parse_int()
            self.expect(";")
        self.expect_ident("rel")
        self.expect("=")
        rel = self.parse_int_matrix()
        last = self.expect(")")
        return SyntaxTree("module", (primes, gens, rel), _span(first, last))

    # group elements and subgroups ---------------------------------------

    def parse_heis(self) -> SyntaxTree:
        first = self.expect_ident("heis")
        self.expect("(")
        primes = None
        if self.at_ident("T"):
            self.advance()
            self.expect("=")
            primes = self.parse_primeset()
            self.expect(";")
        a = self.parse_rational()
        self.expect(",")
        b = self.parse_rational()
        self.expect(",")
        c = self.parse_rational()
        last = self.expect(")")
        return SyntaxTree("heis", (primes, a, b, c), _span(first, last))

    def parse_subgroup(self) -> SyntaxTree:
        first = self.expect_ident("subgroup")
        self.expect("(")
        elements = []
        if self.peek().kind != ")":
            elements.append(self.parse_heis())
            while self.peek().kind == ",":
                self.advance()
                elements.append(self.parse_heis())
        last = self.expect(")")
        return SyntaxTree("subgroup", tuple(elements), _span(first, last))

    # pullback commands ----------------------------------------------------

    def parse_rat_matrix(self) -> SyntaxTree:
        first = self.expect("[")
        rows = []
        if self.peek().kind != "]":
            rows.append(self.parse_rat_row())
            while self.peek().kind == ",":
                self.advance()
                rows.append(self.parse_rat_row())
        last = self.expect("]")
        return SyntaxTree("rat_matrix", tuple(rows), _span(first, last))

    def parse_rat_row(self) -> SyntaxTree:
        first = self.expect("[")
        entries = []
        if self.peek().kind != "]":
            entries.append(self.parse_rational())
            while self.peek().kind == ",":
                self.advance()
                entries.append(self.parse_rational())
        last = self.expect("]")
        return SyntaxTree("rat_row", tuple(entries), _span(first, last))

    def parse_modpull(self) -> SyntaxTree:
        first = self.expect_ident("modpull")
        self.expect("(")
        module = self.parse_module()
        self.expect(";")
        family = self.parse_family()
        self.expect(";")
        matrices = [self.parse_rat_matrix()]
        while self.peek().kind == ",":
            self.advance()
            matrices.append(self.parse_rat_matrix())
        last = self.expect(")")
        return SyntaxTree("modpull", (module, family, tuple(matrices)), _span(first, last))


def parse(text: str) -> SyntaxTree:
    parser = _Parser(text)
    tree = parser.parse_value()
    if parser.peek().kind != "eof":
        parser.fail({"end of input"})
    return tree


def parse_values(text: str) -> list:
    """Comma-separated top-level values, each elaborated in order."""
    parser = _Parser(text)
    trees = [parser.parse_value()]
    while parser.peek().kind == ",":
        parser.advance()
        trees.append(parser.parse_value())
    if parser.peek().kind != "eof":
        parser.fail({"','", "end of input"})
    return [elaborate(tree) for tree in trees]


# elaboration ------------------------------------------------------------


def _rational(tree: SyntaxTree) -> Fraction:
    neg, num, den = tree.children
    if den == 0:
        raise ElaborateError("zero denominator", tree.span)
    value = Fraction(num, den if den is not None else 1)
    return -value if neg else value


def _within_primality_limit(n: int, span: Span) -> int:
    """n itself; a well-formed prime past the primality test is out of scope."""
    if n >= PRIMALITY_LIMIT:
        line, col = span[0]
        raise DomainError(
            f"line {line}, column {col}: primality testing is limited to inputs "
            f"below 2**64, got {n}"
        )
    return n


def _primeset(tree: SyntaxTree) -> PrimeSet:
    if tree.kind == "primeset_all":
        removed = tree.children[0]
        if removed is None:
            return ALL_PRIMES
        if removed.kind != "primeset_finite":
            raise ElaborateError("only a finite set of primes can be removed", removed.span)
        return PrimeSet.all_except(
            _within_primality_limit(p.children[0], p.span) for p in removed.children
        )
    members = []
    for leaf in tree.children:
        p = _within_primality_limit(leaf.children[0], leaf.span)
        if not is_prime(p):
            raise ElaborateError(f"{p} is not prime", leaf.span)
        members.append(p)
    return PrimeSet.finite(members)


def _family(tree: SyntaxTree) -> PartitionFamily:
    t = _primeset(tree.children[0])
    s = _primeset(tree.children[1])
    try:
        if tree.kind == "family_singletons":
            return make_family(t, s, "singletons")
        return make_family(t, s, [_primeset(b) for b in tree.children[2]])
    except FamilyError as exc:
        raise ElaborateError(str(exc), tree.span) from exc


def _tail(tree: SyntaxTree):
    if tree.kind == "tail_id":
        return Identity()
    if tree.kind == "tail_power":
        return IndexPrimePower(tree.children[0].children[0])
    value = _rational(tree.children[0])
    if value == 0:
        raise ElaborateError("an automorphism value cannot be zero", tree.span)
    return ConstantRational(value)


def _aut(tree: SyntaxTree) -> AutFamily1:
    family = _family(tree.children[0])
    tail = _tail(tree.children[1])
    exceptions = {}
    for exc_tree in tree.children[2]:
        index = exc_tree.children[0].children[0]
        if family.is_singleton_shape:
            _within_primality_limit(index, exc_tree.span)
        value = _rational(exc_tree.children[1])
        if index in exceptions:
            raise ElaborateError(f"block {index} is listed twice", exc_tree.span)
        exceptions[index] = value
    try:
        return make_aut(family, tail, exceptions)
    except ValueError as exc:
        raise ElaborateError(str(exc), tree.span) from exc


def _module(tree: SyntaxTree) -> FGModule:
    primes = _primeset(tree.children[0])
    gens_tree, rel_tree = tree.children[1], tree.children[2]
    rows = [tuple(e.children[0] for e in row.children) for row in rel_tree.children]
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ElaborateError("relation rows have mismatched lengths", rel_tree.span)
    if gens_tree is not None:
        ngens = gens_tree.children[0]
        if widths and widths != {ngens}:
            raise ElaborateError(
                f"relation rows have {widths.pop()} entries but gens={ngens}", rel_tree.span
            )
    elif widths:
        ngens = widths.pop()
    else:
        raise ElaborateError("cannot infer the generator count from empty relations", tree.span)
    return FGModule(primes, [list(r) for r in rows], ngens)


def _heis(tree: SyntaxTree) -> HeisElement:
    ps_tree = tree.children[0]
    primes = ALL_PRIMES if ps_tree is None else _primeset(ps_tree)
    coords = [_rational(q) for q in tree.children[1:]]
    try:
        return HeisElement(primes, *coords)
    except ValueError as exc:
        raise ElaborateError(str(exc), tree.span) from exc


def _subgroup(tree: SyntaxTree) -> HeisSubgroup:
    if not tree.children:
        raise ElaborateError(
            "an empty subgroup carries no prime set; give at least one element", tree.span
        )
    elements = [_heis(t) for t in tree.children]
    try:
        return HeisSubgroup(elements[0].primes, elements)
    except ValueError as exc:
        raise ElaborateError(str(exc), tree.span) from exc


def _modpull(tree: SyntaxTree) -> ModPull:
    module = _module(tree.children[0])
    family = _family(tree.children[1])
    matrices = []
    for mat in tree.children[2]:
        rows = tuple(tuple(_rational(q) for q in row.children) for row in mat.children)
        if len({len(r) for r in rows}) > 1:
            raise ElaborateError("matrix rows have mismatched lengths", mat.span)
        matrices.append(rows)
    return ModPull(module, family, tuple(matrices))


_ELABORATORS = {
    "rational": _rational,
    "primeset_all": _primeset,
    "primeset_finite": _primeset,
    "family_singletons": _family,
    "family_blocks": _family,
    "aut": _aut,
    "module": _module,
    "heis": _heis,
    "subgroup": _subgroup,
    "modpull": _modpull,
}


def elaborate(tree: SyntaxTree):
    handler = _ELABORATORS.get(tree.kind)
    if handler is None:
        raise ElaborateError(f"{tree.kind} is not a value on its own", tree.span)
    return handler(tree)


def read_value(text: str):
    """Parse and elaborate a single value."""
    return elaborate(parse(text))


def print_value(value) -> str:
    """Canonical spelling; ``read_value`` of the result gives ``value`` back."""
    if isinstance(
        value,
        (PrimeSet, PartitionFamily, AutFamily1, FGModule, HeisElement, HeisSubgroup,
         ModPull, Fraction),
    ):
        return str(value)
    raise TypeError(f"{type(value).__name__} has no text form")
