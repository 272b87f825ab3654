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

from dataclasses import dataclass, fields
from typing import Optional, Union

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


def _node(cls):
    """A frozen dataclass whose hash is computed once per instance.

    Formulas key the evaluator's compile caches, and the generated
    ``__hash__`` walks the whole tree on every lookup.  The cached value
    sits in the instance dict, next to ``free_vars``'s, and a pickle
    carries neither: string hashes differ between interpreters, so an
    unpickled node hashes afresh.
    """
    cls = dataclass(frozen=True)(cls)
    names = tuple(fl.name for fl in fields(cls))

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(tuple(getattr(self, name) for name in names))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        return {name: getattr(self, name) for name in names}

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@_node
class PVar:
    name: str


@_node
class Singleton:
    var: str  # I(x)


@_node
class PUnion:
    left: "PluralTerm"
    right: "PluralTerm"


@_node
class PInter:
    left: "PluralTerm"
    right: "PluralTerm"


@_node
class Components:
    term: "PluralTerm"  # U(T)


PluralTerm = Union[PVar, Singleton, PUnion, PInter, Components]


@_node
class Eq:
    left: str
    right: str


@_node
class Member:
    var: str
    term: PluralTerm


@_node
class SubTerm:
    left: PluralTerm
    right: PluralTerm


@_node
class TermEq:
    left: PluralTerm
    right: PluralTerm


@_node
class FusionAtom:
    term: PluralTerm
    var: str


@_node
class PartAtom:
    left: str
    right: str


@_node
class ProperPartAtom:
    left: str
    right: str


@_node
class OverlapAtom:
    left: str
    right: str


@_node
class Not:
    body: "Formula"


@_node
class And:
    left: "Formula"
    right: "Formula"


@_node
class Or:
    left: "Formula"
    right: "Formula"


@_node
class Implies:
    left: "Formula"
    right: "Formula"


@_node
class Iff:
    left: "Formula"
    right: "Formula"


@_node
class ForallI:
    var: str
    body: "Formula"
    bound: Optional[PluralTerm] = None  # forall x in bound


@_node
class ExistsI:
    var: str
    body: "Formula"
    bound: Optional[PluralTerm] = None


@_node
class ForallP:
    var: str
    body: "Formula"
    bound: Optional[PluralTerm] = None  # forall XX sub bound


@_node
class ExistsP:
    var: str
    body: "Formula"
    bound: Optional[PluralTerm] = None


Formula = Union[Eq, Member, SubTerm, TermEq, FusionAtom, PartAtom,
                ProperPartAtom, OverlapAtom, Not, And, Or, Implies, Iff,
                ForallI, ExistsI, ForallP, ExistsP]

QUANTIFIERS = (ForallI, ExistsI, ForallP, ExistsP)
UNIVERSAL = (ForallI, ForallP)
INDIVIDUAL = (ForallI, ExistsI)


@dataclass(frozen=True)
class NamedFormula:
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
    fv = node.__dict__.get("_free")
    if fv is not None:
        return fv
    if isinstance(node, PVar):
        fv = frozenset(), frozenset([node.name])
    elif isinstance(node, QUANTIFIERS):
        iv, pv = free_vars(node.body)
        if isinstance(node, INDIVIDUAL):
            iv = iv - {node.var}
        else:
            pv = pv - {node.var}
        if node.bound is not None:
            bi, bp = free_vars(node.bound)
            iv, pv = iv | bi, pv | bp
        fv = iv, pv
    else:
        iv = pv = frozenset()
        for fl in fields(node):
            x = getattr(node, fl.name)
            if isinstance(x, str):
                iv |= {x}
            else:
                xi, xp = free_vars(x)
                iv, pv = iv | xi, pv | xp
        fv = iv, pv
    object.__setattr__(node, "_free", fv)
    return fv


def is_closed(f: Formula) -> bool:
    iv, pv = free_vars(f)
    return not iv and not pv


# ---------------------------------------------------------------------------
# tokenizer

_SYMBOLS = ("<->", "->", "(", ")", ",", ".", "=", "+", "&")


def _tokenize(text: str):
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append((word, line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append((sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(("<eof>", line, col))
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

    def here(self):
        _, line, col = self.toks[self.pos]
        return line, col

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

    # formula := quant | iff
    def formula(self) -> Formula:
        if self.peek() in ("forall", "exists"):
            return self.quant()
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

    # iff := imp {"<->" imp}
    def iff(self) -> Formula:
        f = self.imp()
        while self.peek() == "<->":
            self.next()
            f = Iff(f, self.imp())
        return f

    # imp := or ["->" imp]   (right associative)
    def imp(self) -> Formula:
        f = self.or_()
        if self.peek() == "->":
            self.next()
            return Implies(f, self.imp())
        return f

    def or_(self) -> Formula:
        f = self.and_()
        while self.peek() == "or":
            self.next()
            f = Or(f, self.and_())
        return f

    def and_(self) -> Formula:
        f = self.not_()
        while self.peek() == "and":
            self.next()
            f = And(f, self.not_())
        return f

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
            # atom like "(XX + YY) & ZZ sub XX"; try the formula reading
            # and back off when term syntax follows
            save = self.pos
            try:
                self.next()
                f = self.formula()
                self.expect(")")
                if self.peek() in ("sub", "eq", "+", "&"):
                    self.fail("term context")
                return f
            except ParseError as formula_err:
                self.pos = save
                try:
                    return self._pterm_atom()
                except ParseError:
                    raise formula_err from None
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
        t = self.pint()
        while self.peek() == "+":
            self.next()
            t = PUnion(t, self.pint())
        return t

    def pint(self) -> PluralTerm:
        t = self.patom()
        while self.peek() == "&":
            self.next()
            t = PInter(t, self.patom())
        return t

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
        case And(a, b):
            s = f"{_pr(a, _AND)} and {_pr(b, _AND + 1)}"
            return f"({s})" if prec > _AND else s
        case Or(a, b):
            s = f"{_pr(a, _OR)} or {_pr(b, _OR + 1)}"
            return f"({s})" if prec > _OR else s
        case Implies(a, b):
            s = f"{_pr(a, _IMP + 1)} -> {_pr(b, _IMP)}"
            return f"({s})" if prec > _IMP else s
        case Iff(a, b):
            s = f"{_pr(a, _IFF)} <-> {_pr(b, _IFF + 1)}"
            return f"({s})" if prec > _IFF else s
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
