"""Abstract syntax, parser, and printer for the two-sorted formula language.

Individual variables are lowercase identifiers, plural variables are
uppercase identifiers (the case replaces the traditional doubled-letter
convention, which is ambiguous to tokenize).  Concrete syntax is ASCII:

    forall x . P(x, x)
    forall ZZ . ((exists x . x in ZZ) -> (exists y . F(ZZ, y)))
    exists VV sub U(ZZ) . (F(VV, x) and (exists z . z in VV))

Plural terms are built from plural variables, singletons ``I(x)``, unions
``+``, intersections ``&`` (tighter than ``+``), and the components former
``U(T)``.  Atoms are ``F(T, x)``, ``P(x, y)``, ``PP(x, y)``, ``O(x, y)``,
``x = y``, ``x in T``, ``T sub S`` and ``T eq S``.  Connective precedence,
loosest to tightest: ``<->``, ``->`` (right associative; every other
operator groups to the left), ``or``, ``and``, ``not``; quantifier bodies
extend as far right as possible.  The parser and the printer read these
precedences, and the words of the operators and one-word atoms, from one
table per sort of operator and one for the atoms.  Restricted quantifiers
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
        self.msg, self.line, self.col = msg, line, col

    def __reduce__(self):
        # rebuilt from its fields; args, the message, may be a theory file's
        # placed one (``theory.parse_theory_text``), so it travels as state
        return type(self), (self.msg, self.line, self.col), {**vars(self), "args": self.args}


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
# the words of operators and one-word atoms, read by the parser and the printer

# binary operators of each sort: word -> (node class, precedence, right
# associative); a higher precedence binds tighter
_FORMULA_OPS = {"<->": (Iff, 1, False), "->": (Implies, 2, True),
                "or": (Or, 3, False), "and": (And, 4, False)}
_TERM_OPS = {"+": (PUnion, 1, False), "&": (PInter, 2, False)}
_NOT = 5  # "not" binds tighter than every binary connective

# one-word atoms: word -> node class; the relations stand between two
# plural terms, the others go before two individuals in parentheses
_ATOMS = {"P": PartAtom, "PP": ProperPartAtom, "O": OverlapAtom,
          "sub": SubTerm, "eq": TermEq}
_RELATIONS = (SubTerm, TermEq)


# ---------------------------------------------------------------------------
# parser: recursive descent, binary operators from an operator stack

#: the most levels of nesting ``parse`` reads around one token: the formula
#: and each parenthesis, quantifier body, ``not``, plural term and ``U(...)``
#: around it.  A level takes at most three Python frames, so the parser
#: reads the same texts from any caller with about 600 frames to spare
MAX_NESTING = 200


class _Parser:
    def __init__(self, text: str):
        self.toks = toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.after, opened = {}, []  # "(" position -> the token after its ")"
        for i, (tok, _, _) in enumerate(toks):
            if tok == "(":
                opened.append(i)
            elif tok == ")" and opened:
                self.after[opened.pop()] = toks[i + 1][0]

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

    def nest(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail("formula nested too deeply")

    # a quantifier is an atom whose body extends rightward
    def formula(self) -> Formula:
        return self.binary(_FORMULA_OPS, self.not_)

    def binary(self, ops: dict, operand):
        """Operands joined by the words of ``ops``, grouped by their
        precedence and associativity, one level of nesting deeper.
        Operators wait on a stack until one binding looser comes, so a
        chain costs no recursion per operand."""
        self.nest()
        operands, waiting = [operand()], []
        while (op := ops.get(self.peek())) or waiting:
            if waiting and (op is None or waiting[-1][1] > op[1]
                            or waiting[-1][1] == op[1] and not op[2]):
                right = operands.pop()
                operands[-1] = waiting.pop()[0](operands[-1], right)
            else:
                self.next()
                waiting.append(op)
                operands.append(operand())
        self.depth -= 1
        return operands[0]

    def quant(self) -> tuple:
        """The node class, variable and bound of a quantifier, up to its '.'."""
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
        if individual:
            return (ForallI if kw == "forall" else ExistsI), var, bound
        return (ForallP if kw == "forall" else ExistsP), var, bound

    def not_(self) -> Formula:
        nots = 0  # each a level of nesting, read without recursion
        while self.peek() == "not":
            self.nest()
            self.next()
            nots += 1
        f = self.atom()
        self.depth -= nots
        for _ in range(nots):
            f = Not(f)
        return f

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
            after = self.after.get(self.pos, "<eof>")
            if after in _TERM_OPS or _ATOMS.get(after) in _RELATIONS:
                return self._pterm_atom()
            self.next()
            f = self.binary(_FORMULA_OPS, self.not_)
            self.expect(")")
            return f
        if w in ("forall", "exists"):
            cls, var, bound = self.quant()
            return cls(var, self.binary(_FORMULA_OPS, self.not_), bound)
        cls = _ATOMS.get(w)
        if w == "F" or cls and cls not in _RELATIONS:
            self.next()
            self.expect("(")
            if w == "F":
                t = self.pterm()
                self.expect(",")
                v = self.ivar()
                self.expect(")")
                return FusionAtom(t, v)
            a = self.ivar()
            self.expect(",")
            b = self.ivar()
            self.expect(")")
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
            if _ATOMS.get(op) in _RELATIONS:
                self.fail(f"{op!r} relates plural terms; {v!r} is individual", sort=True)
            self.fail(f"expected '=' or 'in' after individual variable {v!r}")
        if _is_pvar(w) or w in ("I", "U"):
            return self._pterm_atom()
        self.fail(f"cannot start an atom with {w!r}")

    def _pterm_atom(self) -> Formula:
        t = self.pterm()
        op = self.peek()
        if _ATOMS.get(op) in _RELATIONS:
            self.next()
            return _ATOMS[op](t, self.pterm())
        if op in ("=", "in"):
            self.fail(f"{op!r} applies to individuals; left side is a plural term", sort=True)
        self.fail("expected 'sub' or 'eq' after a plural term")

    def pterm(self) -> PluralTerm:
        return self.binary(_TERM_OPS, self.patom)

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

# the word tables looked up by node class
_WORD = {cls: word for word, cls in _ATOMS.items()}
_BINARY = {cls: (word, prec, right)
           for word, (cls, prec, right) in (_FORMULA_OPS | _TERM_OPS).items()}


def _chain(f) -> list:
    """The operands of the chain of ``type(f)``, a binary operator, in written
    order, walked in a loop on the side it nests (the right for ``->``)."""
    cls, right = type(f), _BINARY[type(f)][2]
    others = []
    while type(f) is cls:
        f, other = (f.right, f.left) if right else (f.left, f.right)
        others.append(other)
    return others + [f] if right else [f] + others[::-1]


def _pr(f, prec: int) -> str:
    """A formula or plural term, in parentheses if it binds looser than prec."""
    match f:
        case PVar(name):
            return name
        case Singleton(v):
            return f"I({v})"
        case Components(s):
            return f"U({_pr(s, 0)})"
        case Eq(a, b):
            return f"{a} = {b}"
        case Member(v, t):
            return f"{v} in {_pr(t, 0)}"
        case FusionAtom(t, v):
            return f"F({_pr(t, 0)}, {v})"
        case PartAtom(a, b) | ProperPartAtom(a, b) | OverlapAtom(a, b):
            return f"{_WORD[type(f)]}({a}, {b})"
        case SubTerm(a, b) | TermEq(a, b):
            return f"{_pr(a, 0)} {_WORD[type(f)]} {_pr(b, 0)}"
        case Not(g):  # nothing binds tighter, so never in parentheses
            return f"not {_pr(g, _NOT)}"
        case And() | Or() | Implies() | Iff() | PUnion() | PInter():
            word, p, right = _BINARY[type(f)]
            operands, texts = _chain(f), []
            end = len(operands) - 1 if right else 0  # the operand at the side it nests
            for i, g in enumerate(operands):  # a frame per level of nesting, none per operand
                texts.append(_pr(g, p + (i != end)))
            s = f" {word} ".join(texts)
            return f"({s})" if prec > p else s
        case ForallI(v, body, bound) | ExistsI(v, body, bound) | \
                ForallP(v, body, bound) | ExistsP(v, body, bound):
            kw = "forall" if isinstance(f, UNIVERSAL) else "exists"
            restr = ""
            if bound is not None:
                rel = "in" if isinstance(f, INDIVIDUAL) else "sub"
                restr = f" {rel} {_pr(bound, 0)}"
            s = f"{kw} {v}{restr} . {_pr(body, 0)}"
            return f"({s})" if prec > 0 else s
    raise TypeError(f)


def print_formula(f: Formula) -> str:
    return _pr(f, 0)
