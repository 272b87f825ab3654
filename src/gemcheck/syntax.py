"""Abstract syntax, parser, and printer for the two-sorted formula language.

Individual variables are lowercase identifiers, plural variables are
uppercase identifiers (the case replaces the traditional doubled-letter
convention, which is ambiguous to tokenize).  Concrete syntax is ASCII:

    forall x . P(x, x)
    forall ZZ . ((exists x . x in ZZ) -> (exists y . F(ZZ, y)))
    exists VV sub U(ZZ) . (F(VV, x) and (exists z . z in VV))

Plural terms are built from plural variables, singletons ``I(x)``, unions
``+``, intersections ``&``, and the components former ``U(T)``.  Atoms are
``F(T, x)``, ``P(x, y)``, ``PP(x, y)``, ``O(x, y)``, ``x = y``, ``x in T``,
``T sub S`` and ``T eq S``.  Connective precedence, loosest to tightest:
``<->``, ``->`` (right associative), ``or``, ``and``, ``not``; quantifier
bodies extend as far right as possible.  Restricted quantifiers
(``forall x in T``, ``exists XX sub T``) are kept as sugar nodes in the
AST; the evaluator treats them as their guarded expansions.

The parser checks the case convention; after parsing, a variable's sort
is read from where it sits in the tree, never from its case.  A ``PVar``
names a plural, a quantifier binds a plural (``ForallP``, ``ExistsP``) or
an individual (``ForallI``, ``ExistsI``), and every other name field of a
node names an individual.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .structures import _Derived

RESERVED = {"forall", "exists", "not", "and", "or", "in", "sub", "eq",
            "F", "P", "PP", "O", "I", "U"}


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


class SortError(ParseError):
    """An individual appeared where a plurality was expected, or vice versa."""


# ---------------------------------------------------------------------------
# AST


class PVar(_Derived):
    name: str


class Singleton(_Derived):
    var: str  # I(x)


class PUnion(_Derived):
    left: "PluralTerm"
    right: "PluralTerm"


class PInter(_Derived):
    left: "PluralTerm"
    right: "PluralTerm"


class Components(_Derived):
    term: "PluralTerm"  # U(T)


PluralTerm = Union[PVar, Singleton, PUnion, PInter, Components]


class Eq(_Derived):
    left: str
    right: str


class Member(_Derived):
    var: str
    term: PluralTerm


class SubTerm(_Derived):
    left: PluralTerm
    right: PluralTerm


class TermEq(_Derived):
    left: PluralTerm
    right: PluralTerm


class FusionAtom(_Derived):
    term: PluralTerm
    var: str


class PartAtom(_Derived):
    left: str
    right: str


class ProperPartAtom(_Derived):
    left: str
    right: str


class OverlapAtom(_Derived):
    left: str
    right: str


class Not(_Derived):
    body: "Formula"


class And(_Derived):
    left: "Formula"
    right: "Formula"


class Or(_Derived):
    left: "Formula"
    right: "Formula"


class Implies(_Derived):
    left: "Formula"
    right: "Formula"


class Iff(_Derived):
    left: "Formula"
    right: "Formula"


class ForallI(_Derived):
    var: str
    body: "Formula"
    bound: Optional[PluralTerm] = None  # forall x in bound


class ExistsI(_Derived):
    var: str
    body: "Formula"
    bound: Optional[PluralTerm] = None


class ForallP(_Derived):
    var: str
    body: "Formula"
    bound: Optional[PluralTerm] = None  # forall XX sub bound


class ExistsP(_Derived):
    var: str
    body: "Formula"
    bound: Optional[PluralTerm] = None


Formula = Union[Eq, Member, SubTerm, TermEq, FusionAtom, PartAtom,
                ProperPartAtom, OverlapAtom, Not, And, Or, Implies, Iff,
                ForallI, ExistsI, ForallP, ExistsP]

QUANTIFIERS = (ForallI, ExistsI, ForallP, ExistsP)
UNIVERSAL = (ForallI, ForallP)
INDIVIDUAL = (ForallI, ExistsI)


class NamedFormula(_Derived):
    """A registry entry: a closed sentence with a stable name and citation tag.

    ``side`` marks, for lemma obligations, the theory the sentence must
    hold in ("gem_f" or "gem_p"); it is None for plain axioms.
    """

    name: str
    sentence: Formula
    anchor: str
    side: Optional[str] = None


# ---------------------------------------------------------------------------
# free variables

def free_vars(node) -> tuple:
    """(free individual variables, free plural variables) of a formula or
    plural term, computed once per node, with sorts read as the module
    docstring says.  A quantifier's bound lies outside its scope.
    """
    return node._derived("_free", _free_vars)


def _free_vars(root) -> tuple:
    """Cache the free variables of root and of every node below it, each node
    after its children, from a stack: a long chain costs no recursion."""
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if ready:  # its children's are cached
            node._derived("_free", _own_free)
        elif getattr(node, "_free", None) is None:
            stack.append((node, True))
            stack += [(x, False) for x in node._values() if isinstance(x, _Derived)]
    return root._free


def _own_free(node) -> tuple:
    if isinstance(node, PVar):
        return frozenset(), frozenset([node.name])
    if isinstance(node, QUANTIFIERS):  # its bound lies outside its scope
        iv, pv = free_vars(node.body)
        iv, pv = (iv - {node.var}, pv) if isinstance(node, INDIVIDUAL) else (iv, pv - {node.var})
        bi, bp = (frozenset(),) * 2 if node.bound is None else free_vars(node.bound)
        return iv | bi, pv | bp
    iv = pv = frozenset()
    for x in node._values():  # individual variables and subterms or subformulas
        xi, xp = (frozenset([x]), frozenset()) if isinstance(x, str) else free_vars(x)
        iv, pv = iv | xi, pv | xp
    return iv, pv


def is_closed(f: Formula) -> bool:
    iv, pv = free_vars(f)
    return not iv and not pv


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN = re.compile(r"[^\S\n]*(?:(\n)|(#[^\n]*)|(\w+|<->|->|[(),.=+&])|(\S))")


def _tokenize(text: str):
    """(token, line, column) triples, ending with ``<eof>``.  A tab is one
    column; an ``<eof>`` right after a comment takes the comment's column."""
    toks, line, start, comment = [], 1, 0, None
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        tok = m[kind]
        col = m.start(kind) - start + 1
        if kind == 4 or tok[0].isalnum() and not tok[0].isalpha():
            raise ParseError(f"unexpected character {tok[0]!r}", line, col)
        if kind == 1:
            line, start = line + 1, m.end()
        elif kind == 3:
            toks.append((tok, line, col))
        comment = col if kind == 2 else None
    toks.append(("<eof>", line, len(text) - start + 1 if comment is None else comment))
    return toks


def _is_ivar(word: str) -> bool:
    return word[0].isalpha() and word[0].islower() and word not in RESERVED


def _is_pvar(word: str) -> bool:
    return word[0].isalpha() and word[0].isupper() and word not in RESERVED


# ---------------------------------------------------------------------------
# parser (recursive descent following the module grammar)

class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos][0]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t[0]

    def expect(self, tok: str):
        got, line, col = self.toks[self.pos]
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", line, col)
        self.pos += 1

    def fail(self, msg: str, sort: bool = False):
        _, line, col = self.toks[self.pos]
        raise (SortError if sort else ParseError)(msg, line, col)

    # formula := iff   (a quantifier is an atom whose body extends rightward)
    def formula(self) -> Formula:
        return self.iff()

    def quant(self) -> Formula:
        kw = self.next()
        var = self.peek()
        if var == "<eof>" or not (var[0].isalpha()):
            self.fail("expected a variable after quantifier")
        if var in RESERVED:
            self.fail(f"{var!r} is reserved and cannot be a variable")
        self.next()
        individual = var[0].islower()
        bound = None
        if self.peek() in ("in", "sub"):
            restr = self.next()
            if individual and restr != "in":
                self.fail(f"individual variable {var!r} takes 'in', not 'sub'", sort=True)
            if not individual and restr != "sub":
                self.fail(f"plural variable {var!r} takes 'sub', not 'in'", sort=True)
            bound = self.pterm()
        self.expect(".")
        body = self.formula()
        if individual:
            return (ForallI if kw == "forall" else ExistsI)(var, body, bound)
        return (ForallP if kw == "forall" else ExistsP)(var, body, bound)

    def _chain(self, op: str, cls, operand):
        """``operand {op operand}``, grouped to the left into ``cls`` nodes."""
        f = operand()
        while self.peek() == op:
            self.next()
            f = cls(f, operand())
        return f

    # iff := imp {"<->" imp}
    def iff(self) -> Formula:
        return self._chain("<->", Iff, self.imp)

    # imp := or ["->" imp]   (right associative)
    def imp(self) -> Formula:
        f = self.or_()
        if self.peek() == "->":
            self.next()
            return Implies(f, self.imp())
        return f

    def or_(self) -> Formula:
        return self._chain("or", Or, self.and_)

    def and_(self) -> Formula:
        return self._chain("and", And, self.not_)

    def not_(self) -> Formula:
        if self.peek() == "not":
            self.next()
            return Not(self.not_())
        return self.atom()

    def ivar(self) -> str:
        w = self.peek()
        if _is_pvar(w):
            self.fail(f"individual variable expected, got plural {w!r}", sort=True)
        if not _is_ivar(w):
            self.fail(f"individual variable expected, got {w!r}")
        return self.next()

    def atom(self) -> Formula:
        w = self.peek()
        if w == "(":
            # "(" opens either a subformula or a plural term heading an
            # atom like "(XX + YY) & ZZ sub XX"; the token after the
            # matching ")" tells which
            if self._after_group() in ("sub", "eq", "+", "&"):
                return self._pterm_atom()
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if w in ("forall", "exists"):
            return self.quant()
        if w in ("F", "P", "PP", "O"):
            pred = self.next()
            self.expect("(")
            if pred == "F":
                t = self.pterm()
                self.expect(",")
                v = self.ivar()
                self.expect(")")
                return FusionAtom(t, v)
            a = self.ivar()
            self.expect(",")
            b = self.ivar()
            self.expect(")")
            cls = {"P": PartAtom, "PP": ProperPartAtom, "O": OverlapAtom}[pred]
            return cls(a, b)
        if _is_ivar(w):
            v = self.next()
            op = self.peek()
            if op == "=":
                self.next()
                return Eq(v, self.ivar())
            if op == "in":
                self.next()
                return Member(v, self.pterm())
            if op in ("sub", "eq"):
                self.fail(f"{op!r} relates plural terms; {v!r} is individual", sort=True)
            self.fail(f"expected '=' or 'in' after individual variable {v!r}")
        if _is_pvar(w) or w in ("I", "U"):
            return self._pterm_atom()
        self.fail(f"cannot start an atom with {w!r}")

    def _after_group(self) -> str:
        """The token after the ")" matching the "(" at the current position."""
        depth = 0
        for i in range(self.pos, len(self.toks)):
            tok = self.toks[i][0]
            depth += (tok == "(") - (tok == ")")
            if depth == 0:
                return self.toks[i + 1][0]
        return "<eof>"

    def _pterm_atom(self) -> Formula:
        t = self.pterm()
        op = self.peek()
        if op == "sub":
            self.next()
            return SubTerm(t, self.pterm())
        if op == "eq":
            self.next()
            return TermEq(t, self.pterm())
        if op in ("=", "in"):
            self.fail(f"{op!r} applies to individuals; left side is a plural term", sort=True)
        self.fail("expected 'sub' or 'eq' after a plural term")

    # pterm := pint {"+" pint} ; pint := patom {"&" patom}
    def pterm(self) -> PluralTerm:
        return self._chain("+", PUnion, self.pint)

    def pint(self) -> PluralTerm:
        return self._chain("&", PInter, self.patom)

    def patom(self) -> PluralTerm:
        w = self.peek()
        if w == "(":
            self.next()
            t = self.pterm()
            self.expect(")")
            return t
        if w == "I":
            self.next()
            self.expect("(")
            v = self.ivar()
            self.expect(")")
            return Singleton(v)
        if w == "U":
            self.next()
            self.expect("(")
            t = self.pterm()
            self.expect(")")
            return Components(t)
        if _is_pvar(w):
            return PVar(self.next())
        if _is_ivar(w):
            self.fail(f"plural term expected, got individual {w!r}", sort=True)
        self.fail(f"plural term expected, got {w!r}")


def parse(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    if p.peek() != "<eof>":
        p.fail(f"trailing input {p.peek()!r}")
    return f


# ---------------------------------------------------------------------------
# printer; parse(print(f)) is structurally f, parentheses only where needed

_IFF, _IMP, _OR, _AND, _NOT = 1, 2, 3, 4, 5

# connective: (word, precedence, right associative)
_BINARY = {And: ("and", _AND, False), Or: ("or", _OR, False),
           Implies: ("->", _IMP, True), Iff: ("<->", _IFF, False)}


def _pt(t: PluralTerm, prec: int) -> str:
    match t:
        case PVar(name):
            return name
        case Singleton(v):
            return f"I({v})"
        case Components(s):
            return f"U({_pt(s, 0)})"
        case PUnion(a, b):
            s = f"{_pt(a, 1)} + {_pt(b, 2)}"
            return f"({s})" if prec > 1 else s
        case PInter(a, b):
            s = f"{_pt(a, 2)} & {_pt(b, 3)}"
            return f"({s})" if prec > 2 else s
    raise TypeError(t)


def _pr(f: Formula, prec: int) -> str:
    match f:
        case Eq(a, b):
            return f"{a} = {b}"
        case Member(v, t):
            return f"{v} in {_pt(t, 0)}"
        case SubTerm(a, b):
            return f"{_pt(a, 0)} sub {_pt(b, 0)}"
        case TermEq(a, b):
            return f"{_pt(a, 0)} eq {_pt(b, 0)}"
        case FusionAtom(t, v):
            return f"F({_pt(t, 0)}, {v})"
        case PartAtom(a, b):
            return f"P({a}, {b})"
        case ProperPartAtom(a, b):
            return f"PP({a}, {b})"
        case OverlapAtom(a, b):
            return f"O({a}, {b})"
        case Not(g):
            s = f"not {_pr(g, _NOT)}"
            return f"({s})" if prec > _NOT else s
        case And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b):
            word, p, right = _BINARY[type(f)]
            s = f"{_pr(a, p + right)} {word} {_pr(b, p + (not right))}"
            return f"({s})" if prec > p else s
        case ForallI(v, body, bound) | ExistsI(v, body, bound) | \
                ForallP(v, body, bound) | ExistsP(v, body, bound):
            kw = "forall" if isinstance(f, UNIVERSAL) else "exists"
            restr = ""
            if bound is not None:
                rel = "in" if isinstance(f, INDIVIDUAL) else "sub"
                restr = f" {rel} {_pt(bound, 0)}"
            s = f"{kw} {v}{restr} . {_pr(body, 0)}"
            return f"({s})" if prec > 0 else s
    raise TypeError(f)


def print_formula(f: Formula) -> str:
    return _pr(f, 0)
