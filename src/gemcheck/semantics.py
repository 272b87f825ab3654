"""Evaluation of formulas over finite structures.

This is the single source of truth for what every axiom and lemma means.
Individual quantifiers range over {0..n-1}; plural quantifiers range over
all 2^n subsets of the domain including the empty one.  Atoms evaluate
primitively or through the definitional translation matching the
structure's signature: on a fusion structure P, O and PP are derived from
F; on a part structure F, O, PP and U are derived from P.  Asking for
either signature's predicates on either kind of structure is always legal.

Each formula is compiled once (cached per AST node, with its free
variables) into the source of one Python function ``fn(ctx, env)``, run
through ``compile()`` and kept in ``linecache``.  It reads the free
variables and the context's tables into locals at entry; bound variables
are locals, atoms are inline bit expressions, connectives are if/else
statements that evaluate only the operands they need, and a decided
quantifier returns at once.  A chain of one connective nests left, as both
the parser and the planner build it, and every pass walks it in a loop.
Plural values are bitmasks.  The assignment space is never materialized.
The plan behind the code reads only the formula, block by block of like
quantifiers (a run of universal, or existential):

* A universal body ``A1 and ... and Am -> C`` (an existential body
  ``A1 and ... and Am``) is split into guards ``Ai``, and each guard is
  tested as soon as the block variables it mentions are bound, by its
  own ``if not Ai: continue``.
* Inside the block the variables are reordered, which preserves truth:
  variables that close guards are bound first.
* An individual variable goes innermost and is evaluated bit-parallel:
  its body becomes the n-bit mask of the values that satisfy it.
  Atoms linear in the variable are table lookups (``P(v, y)`` is
  ``down[y]``, ``P(y, v)`` is ``up[y]``, ``F(T, v)`` is ``frow[T]``,
  ``v in T`` is ``T``), connectives are bit operations, and ``forall v``
  becomes one comparison of the mask with the domain.
* A plural variable ranges over the values its guards leave, where a
  guard pins them down: under ``YY eq T`` it takes the single value of
  ``T``, and under ``F(YY, w)`` with ``w`` bound it ranges over the
  fusion preimage ``fpre(w)``, the masks fusing to ``w``.  A bound
  ``YY sub T`` filters these values.  This holds in a block's loops and
  for a plural quantifier inside a bit-parallel mask, where the guard is
  a conjunct of the existential body or of the universal antecedent and
  must not read the bit-parallel variable.  Each such domain is the
  ascending list of all masks with the values failing the guard removed.

Order still matters where it is observable: failure witnesses.
``Evaluator.find_witness`` returns the lexicographically first refuting
assignment to the leading universal variables in their written order,
individuals ascending and plural values in ascending characteristic
order, from one generated function per sentence.  While the plan reorders
the rest of the block, it fixes the next variable greedily: a loop over
its unguarded domain, the rest of the sentence inlined, breaking when
false.  Once the plan keeps written order, the bit-parallel variable
last, the planned loops themselves return the first refuting values they
reach (guards and pushed domains skip only values that cannot refute).
A sentence whose whole block keeps written order is decided by its search.
The plan leaves written order only to close guards earlier or to give a
plural a pushed domain (``_binding_order``).  Of the registry sentences,
only ``ext_F`` (x first, in the most guards) and the lemma ``fun_F`` (x
first, so that ZZ ranges over ``fpre(x)``) are reordered; they are decided
by their verdict and then searched greedily, every other one by its search.

A plural term compiles the same way, into one generated function
returning its mask; ``Evaluator.term`` and the bound checks of
``Evaluator.refutes`` run it.  The written-order reference the generated
functions are tested against, a naive compiler to a tree of closures, is
``reference_compile`` in ``tests/util.py``.

Everything here is pure; a context caches derived predicates for one
structure, is kept on it and is safe for concurrent readers.
"""

from __future__ import annotations

import functools
import itertools
import linecache
import weakref
from typing import Optional

from .structures import (PartStructure, Plurality, Structure, _Derived, _bit_table,
                         _check_size, fusion_rows_from_parts, mask_of, members_of,
                         overlap_masks, parts_from_fusion_rows)
from .syntax import (And, Components, Eq, ExistsI, ExistsP, ForallI, ForallP,
                     Formula, FusionAtom, Iff, Implies, INDIVIDUAL, Member,
                     NamedFormula, Not, Or, OverlapAtom, PartAtom, PluralTerm,
                     ProperPartAtom, PVar, PInter, PUnion, QUANTIFIERS,
                     Singleton, SubTerm, TermEq, UNIVERSAL, free_vars)


class EvalError(ValueError):
    """Unbound variable or out-of-range binding."""


class Assignment(_Derived):
    """Bindings for free variables: individuals to indices, plurals to sets."""

    individuals: dict
    plurals: dict

    def __init__(self, individuals=None, plurals=None):  # fresh dicts by default
        object.__setattr__(self, "individuals", {} if individuals is None else individuals)
        object.__setattr__(self, "plurals", {} if plurals is None else plurals)


class ObligationVerdict(_Derived):
    """Verdict for a named closed sentence, with a refuting assignment on failure.

    The witness, when present, binds the sentence's outermost block of
    universal quantifiers, up to the first that rebinds a name, to the
    first values (in enumeration order) under which the remaining body is
    false.
    """

    name: str
    passed: bool
    witness: Optional[Assignment] = None


class EvalContext:
    """Lookup tables for one structure: primitive and derived predicates.

    down[y]  bitmask of the parts of y (primitive P, or derived via the
             union of pluralities fusing to y on fusion structures)
    up[x]    bitmask of the individuals x is part of
    ov[y]    bitmask of the individuals overlapping y
    frow[p]  bitmask of the individuals fused by plurality mask p
             (primitive F, or derived from the closure conditions)
    full     bitmask of the whole domain
    bits[m]  the members of mask m, ascending

    ``fpre(x)``, the fusion preimage of x, is built on first use.
    """

    __slots__ = ("structure", "n", "down", "up", "ov", "frow", "full", "bits",
                 "_ucache", "_fpre")

    def __init__(self, s: Structure):
        _check_size(s.n)
        self.structure = s
        self.n = n = s.n
        if isinstance(s, PartStructure):
            down = s.down
            ov = overlap_masks(n, down)
            frow = fusion_rows_from_parts(n, down, ov)
        else:
            frow = s.rows
            down = parts_from_fusion_rows(n, frow)
            ov = overlap_masks(n, down)
        self.down, self.ov, self.frow = down, ov, frow
        self.bits = bits = _bit_table(n)
        self.up = up = [0] * n
        for y in range(n):
            for x in bits[down[y]]:
                up[x] |= 1 << y
        self.full = (1 << n) - 1
        self._ucache = {}
        self._fpre = None

    def umask(self, m: int) -> int:
        """U(m): union of down[y] over members y of m (either signature)."""
        u = self._ucache.get(m)
        if u is None:
            u = 0
            for y in self.bits[m]:
                u |= self.down[y]
            self._ucache[m] = u
        return u

    def fpre(self, x: int) -> list:
        """The plurality masks p with x in frow[p], ascending."""
        pre = self._fpre
        if pre is None:
            pre = [[] for _ in range(self.n)]
            for p, row in enumerate(self.frow):
                for y in self.bits[row]:
                    pre[y].append(p)
            self._fpre = pre
        return pre[x]


# ---------------------------------------------------------------------------
# quantifier domains

def _submasks(t: int):
    """Submasks of t in ascending order, via s -> (s - t) & t."""
    s = 0
    while True:
        yield s
        if s == t:
            return
        s = (s - t) & t


def _guarded_domain(q, guards, lifted=None) -> tuple:
    """(pushed guard, guards left) of ``q`` when ``guards`` must hold of its value.

    ``guards`` are conjuncts tested on each value of ``q``'s variable; every
    variable they read is bound by then except ``lifted``, the bit-parallel
    variable, if any.  For a plural, one guard moves into the domain: for
    ``YY eq T`` (T reading neither ``YY`` nor ``lifted``) it is ``("eq", T)``,
    the single value of T; else for ``F(YY, w)`` (``w`` not ``lifted``) it
    is ``("F", w)``, the fusion preimage ``ctx.fpre(w)``.  The domain is the
    subsequence of the unguarded one (all values, or the members or
    submasks of the bound, ascending) passing the guard, so truth values
    and witnesses do not change.  With no such guard, ``guards`` is returned.
    """
    if isinstance(q, INDIVIDUAL):
        return None, guards
    me, unread = PVar(q.var), {q.var, lifted}
    found = None
    for i, g in enumerate(guards):
        if isinstance(g, TermEq):
            for a, t in ((g.left, g.right), (g.right, g.left)):
                if a == me and unread.isdisjoint(_names(t)):
                    return ("eq", t), guards[:i] + guards[i + 1:]
        elif (found is None and isinstance(g, FusionAtom) and g.term == me
              and g.var != lifted):
            found = i
    if found is None:
        return None, guards
    return ("F", guards[found].var), guards[:found] + guards[found + 1:]


# ---------------------------------------------------------------------------
# the planner: what a block of like quantifiers loops over, in which order

def _operands(f: Formula, kind) -> list:
    """The operands of the left-nested chain of ``kind`` at ``f`` in written
    order, ``[a, b, c]`` for ``(a or b) or c``; ``[f]`` if ``f`` is no ``kind``.
    A negation has no second operand: ``not not a`` gives ``[a, None, None]``.
    An implication nested right, ``a -> b -> c``, is read as ``a and b -> c``."""
    if kind is Implies and type(f.right) is Implies:
        f = _guarded(*_guards(f, True))
    rights = []
    while type(f) is kind:
        rights.append(getattr(f, "right", None))
        f = f._values()[0]
    return [f] + rights[::-1]


def _conj(fs: list) -> Formula:
    return functools.reduce(And, fs)  # nested left, as the parser nests


def _guards(body: Formula, universal: bool) -> tuple:
    """(guards, conclusion) of a quantifier body: a universal body
    ``A1 and ... and Am -> C`` gives guards ``Ai`` and conclusion ``C``, an
    existential body ``A1 and ... and Am`` guards ``Ai`` and no conclusion,
    in written order whether each conjunction nests left or right."""
    guards, todo = [], [] if universal else [body]
    while universal and isinstance(body, Implies):
        todo, body = [body.left] + todo, body.right
    while todo:  # a popped conjunction's first operand is no conjunction
        g, *rest = _operands(todo.pop(), And)
        guards.append(g)
        todo += rest[::-1]
    return guards, body if universal else None


def _guarded(guards: list, concl) -> Formula:
    """The body ``_guards`` split, rebuilt from what is left of it."""
    if concl is None:
        return _conj(guards)
    return Implies(_conj(guards), concl) if guards else concl


def _split_block(f: Formula) -> tuple:
    """(quantifiers, dependencies, guards, conclusion) of the block at ``f``.

    The block is the maximal run of universal (or of existential)
    quantifiers starting at ``f``; commuting them preserves truth.  A
    variable's dependencies are the block variables its bound reads.  The
    guards and conclusion are those ``_guards`` splits the body into.
    """
    same = UNIVERSAL if isinstance(f, UNIVERSAL) else (ExistsI, ExistsP)
    block, deps, seen = [], {}, set()
    body = f
    # a variable read by an earlier bound refers to an outer binding, so
    # it ends the block rather than being commuted past that bound
    while isinstance(body, same) and body.var not in seen:
        read = set(_names(body.bound)) if body.bound is not None else set()
        deps[body.var] = read & {q.var for q in block}
        block.append(body)
        seen |= read | {body.var}
        body = body.body
    return (block, deps) + _guards(body, same is UNIVERSAL)


def _lifts(f: Formula, v: str) -> bool:
    """Whether ``f`` has a bit-parallel form in the individual variable ``v``
    (see the module docstring).  False means no part of ``f`` lifts, so
    looping over the values of ``v`` is as good."""
    if v not in free_vars(f)[0]:
        return True
    match f:
        case Eq() | ProperPartAtom():
            return True
        case PartAtom(a, b) | OverlapAtom(a, b):
            return a != b
        case FusionAtom(t, _) | Member(_, t):
            return v not in _names(t)
        case Not() | And() | Or() | Implies() | Iff():
            return any(_lifts(g, v) for g in _operands(f, type(f)) if g is not None)
        case ForallI() | ExistsI() | ForallP() | ExistsP():
            plan = _lifted_quantifier(f, v)
            return plan is not None and _lifts(plan[1], v)
    return False


def _lifted_quantifier(q, v: str):
    """(pushed guard, body left) of ``q`` inside a mask in ``v``, or None
    when its bound reads ``v``."""
    if q.bound is not None and v in _names(q.bound):
        return None
    guards, concl = _guards(q.body, isinstance(q, UNIVERSAL))
    push, left = _guarded_domain(q, guards, v)
    return push, q.body if left is guards else _guarded(left, concl)


def _innermost(block, deps, scoped, concl):
    """(quantifier, the part it decides) for the bit-parallel innermost
    variable, or (None, concl): the last individual variable that no bound
    reads and whose guards and conclusion lift in it."""
    needed = set().union(*deps.values())
    for q in reversed(block):
        if not isinstance(q, INDIVIDUAL) or q.var in needed:
            continue
        pieces = [g for g, gv in scoped if q.var in gv]
        if concl is None and not pieces:
            continue
        tail = _guarded(pieces, concl)
        if q.var in _names(tail) and _lifts(tail, q.var):
            return q, tail
    return None, concl


def _binding_order(rest, deps, scoped) -> list:
    """``rest`` ordered so that guards close early.

    Each step binds, among the variables whose bound is ready, the one
    closing the most guards, then the one in the most guards, then one
    whose binding lets a plural still to bind take a pushed domain (built
    by ``_guarded_domain`` from a guard reading only the two of them and
    names already bound), then the first written.  So a block with no
    such guard keeps written order where the first two tie.
    """
    order, bound = [], set()

    def pushes(q, p) -> bool:
        both = bound | {q.var, p.var}
        return _guarded_domain(p, [g for g, gv in scoped if q.var in gv and p.var in gv
                                   and gv <= both])[0] is not None

    def score(q):
        v = q.var
        closes = sum(v in gv and gv <= bound | {v} for _, gv in scoped)
        touches = sum(v in gv for _, gv in scoped)
        lets = any(pushes(q, p) for p in rest if p is not q and not isinstance(p, INDIVIDUAL))
        return (closes, touches, lets, -rest.index(q))

    rest = list(rest)
    while rest:
        q = max((q for q in rest if deps[q.var] <= bound), key=score)
        order.append(q)
        bound.add(q.var)
        rest.remove(q)
    return order


def _plan_block(f: Formula) -> tuple:
    """(loops, guards at each loop, guards before them, innermost, its part,
    the block's names if the loops and then the innermost keep its written
    order, else None).

    The innermost variable is evaluated bit-parallel; the others loop in
    an order that closes guards early, and each guard is tested as soon
    as its block variables are bound, or becomes the domain of a plural
    it closes (``_guarded_domain``).  The plan reads only the formula and
    is kept on it.
    """
    return f._derived("_plan", _planned)


def _planned(f: Formula) -> tuple:
    block, deps, guards, concl = _split_block(f)
    names = {q.var for q in block}
    scoped = [(g, _names(g) & names) for g in guards]
    inner, tail = _innermost(block, deps, scoped, concl)
    if inner is not None:
        scoped = [(g, gv) for g, gv in scoped if inner.var not in gv]
    order = _binding_order([q for q in block if q is not inner], deps, scoped)
    level = {q.var: i for i, q in enumerate(order)}
    at, pre = [[] for _ in order], []
    for g, gv in scoped:
        (at[max(level[v] for v in gv)] if gv else pre).append(g)
    written = names if order + [inner] * (inner is not None) == block else None
    return order, at, pre, inner, tail, written


# ---------------------------------------------------------------------------
# code generation: a planned formula as the source of one Python function

_TABLES = ("n", "full", "bits", "down", "up", "ov", "frow", "fpre", "umask")
_COMPOUND = (Not, And, Or, Implies, Iff) + QUANTIFIERS  # every formula but an atom
_SOURCES = itertools.count()


_DECIDES = {And: ("not {}", False), Or: ("{}", True), Implies: ("not {}", True)}
_MASK_CONNECTIVES = {  # (head, tail) around narrowing {c} by the first operand; B: the second
    Not: ("{s} = {c}", "{c} = {s} & ~{c}"),
    And: ("", "if {c}:\n    B"),
    Or: ("{s} = {c}", "{s} &= ~{c}\nif {s}:\n    {t}, {c} = {c}, {s}\n    B\n    {c} |= {t}"),
    Implies: ("{s} = {c}", "if {c}:\n    {s} &= ~{c}\n    B\n    {c} |= {s}\nelse:\n    {c} = {s}"),
    Iff: ("{s} = {c}", "{t}, {c} = {c}, {s}\nB\n{c} = {s} & ~({t} ^ {c})"),
}
_MASK_QUANTIFIERS = (  # AND (or OR) of the body's masks over the values of {w}
    "for {w} in {dom}:\n    {skip}\n    if not {c}: break\n    BODY",
    "{o} = 0\nfor {w} in {dom}:\n    {skip}\n    if not {c}: break\n    {s} = {c}\n"
    "    BODY\n    {o} |= {c}\n    {c} = {s} ^ {c}\n{c} = {o}",
)


class _Source:
    """The source of one formula's function, emitted line by line.

    Formula variables become locals ``v0``, ``v1``, ...; ``scope`` maps a
    name to the local of its innermost binding.  A value goes to ``out``:
    a local, or None to return it.  Where indentation grows deep enough to
    come near CPython's limit of 20 nested loops, the rest is emitted as a
    separate function of the locals in scope.
    """

    def __init__(self):
        self.defs, self.count = [], 0
        self.lines, self.depth, self.used = [], 1, set()

    def fresh(self, kind: str) -> str:
        self.count += 1
        return f"{kind}{self.count - 1}"

    def define(self, head: str, body, reads=()) -> None:
        saved = self.lines, self.depth, self.used
        self.lines, self.depth, self.used = [], 1, set()
        body()
        self.defs.append("\n".join(
            [head] + [f"    {t} = ctx.{t}" for t in _TABLES if t in self.used]
            + [f"    {v} = env[{name!r}]" for name, v in reads] + self.lines))
        self.lines, self.depth, self.used = saved

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def emit(self, template: str, **parts) -> None:
        """Emit ``template`` indented from here.  A line naming a callable
        part runs it at that indentation; the others are formatted with
        the parts, and dropped if that leaves them empty."""
        base = self.depth
        for text in template.splitlines():
            body = text.lstrip()
            self.depth = base + (len(text) - len(body)) // 4
            if callable(parts.get(body)):
                parts[body]()
            elif formatted := body.format_map(parts):
                self.line(formatted)
        self.depth = base

    def put(self, out, value) -> None:
        self.line(f"return {value}" if out is None else f"{out} = {value}")

    def use(self, table: str) -> str:
        self.used.add(table)
        return table

    def split(self, args: list, out, body) -> bool:
        """Whether nesting is deep enough to emit ``body`` as a function of
        ``args`` instead, called here with its value going to ``out``."""
        if self.depth < 16:
            return False
        call = f"{self.fresh('part')}(ctx, {', '.join(args)})"
        self.define(f"def {call}:", body)
        self.put(out, call)
        return True

    def term(self, t: PluralTerm, scope: dict, prec: int = 0) -> str:
        """Expression of a plural term; ``prec`` 1 is an operand of ``|``,
        2 of ``&``, 3 of a shift or ``~``."""
        match t:
            case PVar(name):
                return scope[name]
            case Singleton(v):
                s, p = f"1 << {scope[v]}", 2
            case PUnion(a, b):
                s, p = f"{self.term(a, scope, 1)} | {self.term(b, scope, 1)}", 1
            case PInter(a, b):
                s, p = f"{self.term(a, scope, 2)} & {self.term(b, scope, 2)}", 2
            case Components(u):
                return f"{self.use('umask')}({self.term(u, scope)})"
        return f"({s})" if prec > p else s

    def expr(self, f: Formula, scope: dict) -> str:
        """Boolean expression of an atom."""
        def bit(mask, v):
            return f"{mask} >> {scope[v]} & 1 == 1"
        match f:
            case Eq(a, b):
                return f"{scope[a]} == {scope[b]}"
            case PartAtom(a, b):
                return bit(f"{self.use('down')}[{scope[b]}]", a)
            case ProperPartAtom(a, b):
                return f"{scope[a]} != {scope[b]} and " + bit(f"{self.use('down')}[{scope[b]}]", a)
            case OverlapAtom(a, b):
                return f"{self.use('down')}[{scope[a]}] & {self.use('down')}[{scope[b]}] != 0"
            case FusionAtom(t, v):
                return bit(f"{self.use('frow')}[{self.term(t, scope)}]", v)
            case Member(v, t):
                return bit(self.term(t, scope, 3), v)
            case SubTerm(a, b):
                return f"{self.term(a, scope, 2)} & ~{self.term(b, scope, 3)} == 0"
            case TermEq(a, b):
                return f"{self.term(a, scope)} == {self.term(b, scope)}"

    def cond(self, f: Formula, scope: dict) -> str:
        """An operand naming ``f``'s truth value: an atom's expression, or a
        local that the statements emitted first set."""
        if not isinstance(f, _COMPOUND):
            return f"({self.expr(f, scope)})"
        out = self.fresh("t")
        self.bool(f, scope, out)
        return out

    def bool(self, f: Formula, scope: dict, out) -> None:
        """Statements giving ``f``'s truth value to ``out``: an atom's
        expression, a connective's if/else on its operands, or a block's loops."""
        if not isinstance(f, _COMPOUND):
            return self.put(out, self.expr(f, scope))
        if self.split(sorted(scope.values()), out, lambda: self.bool(f, scope, None)):
            return
        match f:
            case Not() | And() | Or() | Implies() | Iff():
                # one level at a time, each to a local the next reads, the last to out
                first, *rest = _operands(f, type(f))
                value = self.cond(first, scope)
                for k, b in enumerate(rest, 1):
                    to = out if k == len(rest) else self.fresh("t")
                    if type(f) not in _DECIDES:  # a negation, or an equivalence
                        self.put(to, f"not {value}" if b is None
                                 else f"{value} == {self.cond(b, scope)}")
                    else:  # the test deciding the level from value, and its value then
                        test, decided = _DECIDES[type(f)]
                        self.emit("if {test}:\n    PUT\nelse:\n    REST", test=test.format(value),
                                  PUT=lambda: self.put(to, decided),
                                  REST=lambda: self.bool(b, scope, to))
                    value = to
            case _:
                self.block(f, scope, out)

    def block(self, f: Formula, scope: dict, out, found=None) -> None:
        """A block of like quantifiers, in the loops ``_plan_block`` plans;
        with ``found``, the prefix ``witness`` fixed before it, they return
        the first refuting assignment, or None after them."""
        universal = isinstance(f, UNIVERSAL)
        plan = (universal, found) + _plan_block(f)
        order, pre = plan[2], plan[4]
        if out is not None and (order or pre):
            self.put(out, universal)
        # with no loops and no pre-test, the verdict is put at once
        self.emit("if {test}:\n    LEVELS\n{end}" if pre else "LEVELS\n{end}",
                  test=pre and self.cond(_conj(pre), scope),
                  LEVELS=lambda: self.levels(plan, 0, scope, out),
                  end="return None" if found is not None else
                  f"return {universal}" if out is None and (order or pre) else "")

    def levels(self, plan: tuple, i: int, scope: dict, out) -> None:
        """The loops of a planned block from the ``i``-th on.  On the
        block's verdict they set ``out`` and leave, or return it."""
        universal, found, order, at, _, inner, tail, _ = plan
        decide = ("if not {}:\n    " if universal else "if {}:\n    ") + (
            f"return {not universal}" if out is None else f"{out} = {not universal}; break")
        if i == len(order):
            if inner is not None:
                cand, whole = self.fresh("c"), self.fresh("c")
                start = self.use("full") if inner.bound is None else self.term(inner.bound, scope)
                self.line(f"{cand} = {whole} = {start}")
                self.mask(tail, inner.var, scope, cand)
                value = f"{cand} == {whole}" if universal else f"{cand} != 0"
            else:
                value = self.cond(tail, scope) if universal else "True"
            if found is not None:  # the loops' values, and the lowest refuting bit-parallel one
                fixed = {**found, **{q.var: (isinstance(q, INDIVIDUAL), scope[q.var])
                                     for q in order}}
                if inner is not None:
                    low = f"{whole} ^ {cand}"
                    fixed[inner.var] = True, f"(({low}) & -({low})).bit_length() - 1"
                self.line(f"if not {value}: return {self.assignment(fixed)}")
            elif order:
                self.emit(decide.format(value))
            else:
                self.put(out, value)
            return
        t = self.fresh("t")
        if i and self.split(sorted(scope.values()), t, lambda: (
                self.levels(plan, i, scope, None),
                self.put(None, universal if found is None else None))):
            return self.line(f"if {t} is not None: return {t}") if found is not None \
                else self.emit(decide.format(t))
        q = order[i]
        push, guards = _guarded_domain(q, at[i])
        v = self.fresh("v")
        inner_scope = {**scope, q.var: v}

        def guard_tests():  # one per guard, each after the statements it needs
            for g in guards:
                self.line(f"if not {self.cond(g, inner_scope)}: continue")
        self.emit("for {v} in {dom}:\n    {skip}\n    GUARDS\n    LEVELS\n{leave}", v=v,
                  **self.domain(q, push, scope, v), GUARDS=guard_tests,
                  LEVELS=lambda: self.levels(plan, i + 1, inner_scope, out),
                  leave="" if out is None or not i
                  else f"if not {out}: break" if universal else f"if {out}: break")

    def domain(self, q, push, scope: dict, v: str) -> dict:
        """``dom``, the values of ``q`` with the guard ``push`` moved in
        (``_guarded_domain``), and ``skip``, the test of its bound if that
        must filter them; emits what they need first."""
        individual = isinstance(q, INDIVIDUAL)
        bound = None if q.bound is None else self.term(q.bound, scope, 3)
        if push is None and bound is None:
            dom = f"range({self.use('n')})" if individual else f"range(1 << {self.use('n')})"
        elif push is None:
            dom = f"{self.use('bits')}[{bound}]" if individual else f"submasks({bound})"
        else:
            dom = (f"({self.term(push[1], scope)},)" if push[0] == "eq"
                   else f"{self.use('fpre')}({scope[push[1]]})")
        if push is None or bound is None:
            return {"dom": dom, "skip": ""}
        outside = self.fresh("c")
        self.line(f"{outside} = ~{bound}")
        return {"dom": dom, "skip": f"if {v} & {outside}: continue"}

    def mask(self, f: Formula, v: str, scope: dict, cand: str) -> None:
        """Narrow the local ``cand`` to its members i for which ``f`` holds
        with ``v = i``; ``f`` lifts in ``v`` (``_lifts``)."""
        if self.split(sorted(scope.values()) + [cand], cand, lambda: (
                self.mask(f, v, scope, cand), self.put(None, cand))):
            return
        if v not in free_vars(f)[0]:
            return self.emit("if {c}:\n    TEST", c=cand, TEST=lambda: self.line(
                f"if not {self.cond(f, scope)}: {cand} = 0"))
        match f:
            case Eq(a, b):
                self.line(f"{cand} &= 1 << {scope[b if a == v else a]}" if a != b else "pass")
            case PartAtom(a, b):
                self.line(f"{cand} &= {self.use('down')}[{scope[b]}]" if a == v
                          else f"{cand} &= {self.use('up')}[{scope[a]}]")
            case ProperPartAtom(a, b):
                y, table = (b, "down") if a == v else (a, "up")
                self.line(f"{cand} = 0" if a == b else
                          f"{cand} &= {self.use(table)}[{scope[y]}] & ~(1 << {scope[y]})")
            case OverlapAtom(a, b):
                self.line(f"{cand} &= {self.use('ov')}[{scope[b if a == v else a]}]")
            case FusionAtom(t, _):
                self.line(f"{cand} &= {self.use('frow')}[{self.term(t, scope)}]")
            case Member(_, t):
                self.line(f"{cand} &= {self.term(t, scope)}")
            case Not() | And() | Or() | Implies() | Iff():
                # the heads outermost first, the first operand, the tails innermost first
                first, *rest = _operands(f, type(f))
                head, tail = _MASK_CONNECTIVES[type(f)]
                parts = [{"c": cand, "s": self.fresh("c"), "t": self.fresh("c")} for _ in rest]
                for names in parts:
                    self.emit(head, **names)
                self.side(first, v, scope, cand)
                for b, names in zip(rest, reversed(parts)):
                    self.emit(tail, **names, B=lambda b=b: self.side(b, v, scope, cand))
            case _:
                push, body = _lifted_quantifier(f, v)
                w = self.fresh("v")
                self.emit(_MASK_QUANTIFIERS[not isinstance(f, UNIVERSAL)], w=w, c=cand,
                          o=self.fresh("c"), s=self.fresh("c"), **self.domain(f, push, scope, w),
                          BODY=lambda: self.mask(body, v, {**scope, f.var: w}, cand))

    def side(self, f: Formula, v: str, scope: dict, cand: str) -> None:
        """An operand of a lifted connective: its mask, or a loop over ``cand``."""
        if _lifts(f, v):
            return self.mask(f, v, scope, cand)
        found, w = self.fresh("c"), self.fresh("v")
        self.emit("{o} = 0\nfor {w} in {bits}[{c}]:\n    TEST\n{c} = {o}", o=found, w=w,
                  c=cand, bits=self.use("bits"), TEST=lambda: self.line(
                      f"if {self.cond(f, {**scope, v: w})}: {found} |= 1 << {w}"))

    def witness(self, f: Formula, scope: dict) -> None:
        """Return what ``Evaluator.find_witness`` gives for the sentence ``f``."""
        found = {}  # prefix variable -> (whether individual, its local)
        while isinstance(f, UNIVERSAL) and f.var not in found:
            written = _plan_block(f)[5]  # the rest of the prefix, if it rebinds no name
            if written is not None and written.isdisjoint(found):
                return self.block(f, scope, None, found)
            v, out, outer = self.fresh("v"), self.fresh("t"), scope
            scope = {**scope, f.var: v}
            found[f.var] = isinstance(f, INDIVIDUAL), v
            self.emit("for {v} in {dom}:\n    SUFFIX\n    if not {t}: break\n"
                      "else:\n    return None", v=v, t=out,
                      dom=self.domain(f, None, outer, v)["dom"],
                      SUFFIX=lambda: self.bool(f.body, scope, out))
            f = f.body
        self.line(f"return {self.assignment(found)}")

    def assignment(self, found: dict) -> str:
        """The ``Assignment`` of ``found``, name -> (whether individual,
        value); a plural's members are read from ``bits``."""
        individuals = ", ".join(f"{k!r}: {v}" for k, (i, v) in found.items() if i)
        plurals = ", ".join(f"{k!r}: frozenset({self.use('bits')}[{v}])"
                            for k, (i, v) in found.items() if not i)
        return f"Assignment({{{individuals}}}, {{{plurals}}})"


def _names(node) -> frozenset:
    iv, pv = free_vars(node)
    return iv | pv


def _generate(node, name: str, emit):
    """The generated function ``name(ctx, env)`` whose body ``emit(src, scope)``
    writes, with the free variables of ``node`` (a formula or a plural term)
    read from ``env``; its source is in ``linecache`` while it lives, so
    tracebacks show the emitted lines."""
    src = _Source()
    scope = {v: src.fresh("v") for v in sorted(_names(node))}
    src.define(f"def {name}(ctx, env):", lambda: emit(src, scope), scope.items())
    text = "\n\n".join(src.defs) + "\n"
    filename = f"<gemcheck-{name}-{next(_SOURCES)}>"
    linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
    namespace = {"submasks": _submasks, "Assignment": Assignment}
    exec(compile(text, filename, "exec"), namespace)
    weakref.finalize(namespace[name], linecache.cache.pop, filename, None)
    return namespace[name]


def compiled(f: Formula) -> tuple:
    """(function, sorted free variable names) of a formula, built once per node."""
    return f._derived("_compiled", lambda f: (_generate(
        f, "formula", lambda src, scope: src.bool(f, scope, None)), tuple(sorted(_names(f)))))


def _witness_search(sentence: Formula):
    """The generated function ``fn(ctx, env)`` behind ``find_witness``, built
    once per sentence."""
    return sentence._derived("_witness", lambda f: _generate(
        f, "witness", lambda src, scope: src.witness(f, scope)))


def _decider(sentence: Formula):
    """The one function ``Evaluator.check`` runs on ``sentence``, kept on it:
    the witness search (None if true) where it is one planned pass over
    the whole leading block, else the verdict (True if true)."""
    return sentence._derived("_decider", lambda f: _witness_search(f) if isinstance(
        f, UNIVERSAL) and _plan_block(f)[5] is not None else compiled(f)[0])


def _prefix(sentence: Formula) -> tuple:
    """The witness prefix of ``sentence``, kept on it: its names; per bound
    the index, whether individual, and ``compiled_term``; the body after
    each prefix length, and its ``compiled`` once ``refutes`` reads it."""
    def split(f):
        names, bounds, bodies = [], [], [f]
        while isinstance(f, UNIVERSAL) and f.var not in names:
            if f.bound is not None:
                bounds.append((len(names), isinstance(f, INDIVIDUAL), compiled_term(f.bound)))
            names.append(f.var)
            f = f.body
            bodies.append(f)
        return tuple(names), tuple(bounds), bodies, [None] * len(bodies)
    return sentence._derived("_prefix", split)


def compiled_term(t: PluralTerm) -> tuple:
    """(function, sorted free variable names) of a plural term, built once per node."""
    return t._derived("_compiled", lambda t: (_generate(
        t, "term", lambda src, scope: src.put(None, src.term(t, scope))), tuple(sorted(_names(t)))))


# ---------------------------------------------------------------------------
# public evaluation API

def _env_of(s: Structure, a: Optional[Assignment]) -> dict:
    env = {}
    if a is None:
        return env
    for v, i in a.individuals.items():
        if not (0 <= i < s.n):
            raise EvalError(f"binding {v}={i} outside domain 0..{s.n - 1}")
        env[v] = i
    for v, zz in a.plurals.items():
        m = mask_of(zz)
        if m >> s.n:
            raise EvalError(f"plural binding {v} has members outside the domain")
        env[v] = m
    return env


def _check_bound(names: tuple, env: dict) -> None:
    for v in names:
        if v not in env:
            raise EvalError(f"unbound variable {v!r}")


class Evaluator:
    """Evaluation bound to one structure, sharing its lookup tables."""

    def __init__(self, s: Structure):
        self.ctx = s._derived("_context", EvalContext)  # one per structure instance

    def term(self, t: PluralTerm, a: Optional[Assignment] = None) -> Plurality:
        env = _env_of(self.ctx.structure, a)
        fn, names = compiled_term(t)
        _check_bound(names, env)
        return members_of(fn(self.ctx, env))

    def eval(self, f: Formula, a: Optional[Assignment] = None) -> bool:
        env = _env_of(self.ctx.structure, a)
        fn, names = compiled(f)
        _check_bound(names, env)
        return fn(self.ctx, env)

    def check(self, nf: NamedFormula) -> ObligationVerdict:
        """The verdict on ``nf``, with its audited witness when false."""
        _check_bound(sorted(_names(nf.sentence)), {})
        found = _decider(nf.sentence)(self.ctx, {})
        if found is None or found is True:
            return ObligationVerdict(nf.name, True)
        return ObligationVerdict(nf.name, False, self._audited_witness(nf, found))

    def _audited_witness(self, nf: NamedFormula, found) -> Optional[Assignment]:
        """The witness ``_decider`` found for ``nf``, or searched if it gave
        False; raises unless it refutes, so none unconfirmed is returned."""
        witness = self.find_witness(nf.sentence) if found is False else found
        if witness is not None and not self.refutes(nf.sentence, witness):
            raise RuntimeError(f"unsound witness for {nf.name}; this is a bug")
        return witness

    def find_witness(self, sentence: Formula) -> Optional[Assignment]:
        """First assignment to the leading universal block refuting the rest.

        The block ends before the first quantifier that rebinds one of its
        names.  Returns None when the sentence is true or does not start
        with a universal quantifier.  It is the lexicographically first in
        written order, found without backtracking (see the module docstring).
        """
        if not isinstance(sentence, UNIVERSAL):
            return None
        return _witness_search(sentence)(self.ctx, {})

    def refutes(self, sentence: Formula, witness: Assignment) -> bool:
        """True iff the witness really falsifies the body under its prefix.

        The prefix is the leading universal block up to the first
        quantifier the witness does not bind or that rebinds a name, as in
        ``find_witness``.  Each prefix value must lie in its quantifier's
        bound, read under the values of the quantifiers outside it.
        """
        names, bounds, bodies, fns = _prefix(sentence)
        env = _env_of(self.ctx.structure, witness)
        k = 0
        while k < len(names) and names[k] in env:
            k += 1
        for j, individual, (fn, reads) in bounds:
            if j < k:  # read under the values of the quantifiers outside
                outer = {v: x for v, x in env.items() if v not in names[j:k]}
                _check_bound(reads, outer)
                inside, x = fn(self.ctx, outer), env[names[j]]
                if not (inside >> x & 1 if individual else not x & ~inside):
                    return False
        if fns[k] is None:
            fns[k] = compiled(bodies[k])
        fn, free = fns[k]
        _check_bound(free, env)
        return not fn(self.ctx, env)
