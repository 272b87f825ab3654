"""Evaluation of formulas over finite structures.

This is the single source of truth for what every axiom and lemma means.
Individual quantifiers range over {0..n-1}; plural quantifiers range over
all 2^n subsets of the domain including the empty one.  Atoms evaluate
primitively or through the definitional translation matching the
structure's signature: on a fusion structure P, O and PP are derived from
F; on a part structure F, O, PP and U are derived from P.  Asking for
either signature's predicates on either kind of structure is always legal.

Formulas are compiled once into nested Python closures (cached per AST
node, together with the node's free variables), so repeated evaluation
over large assignment spaces does not re-traverse the tree.  Plural values
are bitmasks internally.  The assignment space is never materialized.

Compilation plans each block of like quantifiers (a run of universal, or
of existential, quantifiers), reading only the formula:

* A universal body ``A1 and ... and Am -> C`` (an existential body
  ``A1 and ... and Am``) is split into guards ``Ai``, and each guard is
  tested as soon as the block variables it mentions are bound.
* Inside the block the variables are reordered, which preserves truth:
  variables that close guards are bound first.
* An individual variable goes innermost and is evaluated bit-parallel:
  its body compiles to the n-bit mask of the values that satisfy it.
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
``Evaluator.find_witness`` fixes the leading universal variables one at a
time in their written order, individuals ascending and plural values in
ascending characteristic order, each taking the first value under which
the rest of the sentence is false.  That is the lexicographically first
refuting assignment, independent of how evaluation was planned.  The
naive compiler that loops in written order is kept as
``_compile_reference``, the reference the planned one is tested against.

Everything here is pure; contexts cache derived predicates per structure
and are safe for concurrent readers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .structures import (MAX_PLURAL_DOMAIN, CapacityError, PartStructure,
                         Plurality, Structure, fusion_rows_from_parts,
                         iter_bits, mask_of, members_of, overlap_masks,
                         parts_from_fusion_rows)
from .syntax import (And, Components, Eq, ExistsI, ExistsP, ForallI, ForallP,
                     Formula, FusionAtom, Iff, Implies, INDIVIDUAL, Member,
                     NamedFormula, Not, Or, OverlapAtom, PartAtom, PluralTerm,
                     ProperPartAtom, PVar, PInter, PUnion, QUANTIFIERS,
                     Singleton, SubTerm, TermEq, UNIVERSAL, free_vars)


class EvalError(ValueError):
    """Unbound variable or out-of-range binding."""


@dataclass(frozen=True)
class Assignment:
    """Bindings for free variables: individuals to indices, plurals to sets."""

    individuals: dict = field(default_factory=dict)
    plurals: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EvalOutcome:
    """Verdict for a closed sentence, with a refuting assignment on failure.

    The witness, when present, binds the sentence's outermost block of
    universal quantifiers, up to the first that rebinds a name, to the
    first values (in enumeration order) under which the remaining body is
    false.
    """

    value: bool
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

    ``fpre(x)``, the fusion preimage of x, is built on first use.
    """

    __slots__ = ("structure", "n", "kind", "down", "up", "ov", "frow", "full",
                 "_ucache", "_fpre")

    def __init__(self, s: Structure):
        if s.n > MAX_PLURAL_DOMAIN:
            raise CapacityError(f"formula evaluation needs 2^{s.n} pluralities")
        self.structure = s
        self.n = n = s.n
        if isinstance(s, PartStructure):
            self.kind = "part"
            down = s.down
            ov = overlap_masks(n, down)
            frow = fusion_rows_from_parts(n, down, ov)
        else:
            self.kind = "fusion"
            frow = s.rows
            down = parts_from_fusion_rows(n, frow)
            ov = overlap_masks(n, down)
        self.down, self.ov, self.frow = down, ov, frow
        self.up = up = [0] * n
        for y in range(n):
            for x in iter_bits(down[y]):
                up[x] |= 1 << y
        self.full = (1 << n) - 1
        self._ucache = {}
        self._fpre = None

    def umask(self, m: int) -> int:
        """U(m): union of down[y] over members y of m (either signature)."""
        u = self._ucache.get(m)
        if u is None:
            u = 0
            rest = m
            down = self.down
            while rest:
                low = rest & -rest
                u |= down[low.bit_length() - 1]
                rest ^= low
            self._ucache[m] = u
        return u

    def fpre(self, x: int) -> list:
        """The plurality masks p with x in frow[p], ascending."""
        pre = self._fpre
        if pre is None:
            pre = [[] for _ in range(self.n)]
            for p, row in enumerate(self.frow):
                for y in iter_bits(row):
                    pre[y].append(p)
            self._fpre = pre
        return pre[x]


# ---------------------------------------------------------------------------
# shared pieces: terms, atoms, connectives, quantifier domains

_UNSET = object()


def _compile_term(t: PluralTerm):
    match t:
        case PVar(name):
            def run(ctx, env, name=name):
                return env[name]
        case Singleton(v):
            def run(ctx, env, v=v):
                return 1 << env[v]
        case PUnion(PVar(a), PVar(b)):
            def run(ctx, env, a=a, b=b):
                return env[a] | env[b]
        case PInter(PVar(a), PVar(b)):
            def run(ctx, env, a=a, b=b):
                return env[a] & env[b]
        case PUnion(a, b):
            fa, fb = _compile_term(a), _compile_term(b)

            def run(ctx, env, fa=fa, fb=fb):
                return fa(ctx, env) | fb(ctx, env)
        case PInter(a, b):
            fa, fb = _compile_term(a), _compile_term(b)

            def run(ctx, env, fa=fa, fb=fb):
                return fa(ctx, env) & fb(ctx, env)
        case Components(s):
            fs = _compile_term(s)

            def run(ctx, env, fs=fs):
                return ctx.umask(fs(ctx, env))
        case _:
            raise TypeError(t)
    return run


def _restore(env, var, old):
    if old is _UNSET:
        env.pop(var, None)
    else:
        env[var] = old


def _submasks(t: int):
    """Submasks of t in ascending order, via s -> (s - t) & t."""
    s = 0
    while True:
        yield s
        if s == t:
            return
        s = (s - t) & t


def _domain(q):
    """Closure giving the values a quantifier's variable ranges over, in order."""
    plural = not isinstance(q, INDIVIDUAL)
    if q.bound is None:
        if plural:
            return lambda ctx, env: range(1 << ctx.n)
        return lambda ctx, env: range(ctx.n)
    ft = compiled_term(q.bound)[0]
    if plural:
        return lambda ctx, env: _submasks(ft(ctx, env))
    return lambda ctx, env: iter_bits(ft(ctx, env))


def _pushed_guard(q, guards, lifted):
    """(index, kind, operand) of the guard a plural ``q`` can range over, or None.

    ``YY eq T`` (kind "eq", operand T) is preferred to ``F(YY, w)`` (kind
    "F", operand w).  T must not read ``YY`` or ``lifted``, and w must not
    be ``lifted``: the bit-parallel variable has no single value in env.
    """
    me, unread = PVar(q.var), {q.var, lifted}
    found = None
    for i, g in enumerate(guards):
        if isinstance(g, TermEq):
            for a, t in ((g.left, g.right), (g.right, g.left)):
                if a == me and unread.isdisjoint(compiled_term(t)[1]):
                    return i, "eq", t
        elif (found is None and isinstance(g, FusionAtom) and g.term == me
              and g.var != lifted):
            found = i, "F", g.var
    return found


def _guarded_domain(q, guards, lifted=None):
    """(domain, guards left) of ``q`` when ``guards`` must hold of its value.

    ``guards`` are conjuncts tested on each value of ``q``'s variable; every
    variable they read is bound by then except ``lifted``, the bit-parallel
    variable, if any.  For a plural, one guard moves into the domain (see
    ``_pushed_guard``) and is dropped: ``YY eq T`` gives the single value
    of T, ``F(YY, w)`` the fusion preimage ``ctx.fpre(w)``.  A bound
    ``YY sub B`` filters either lazily, so an existential still stops at
    its first success.  The domain is the subsequence of ``_domain(q)``
    that passes the guard, so truth values and witnesses do not change.
    """
    push = None if isinstance(q, INDIVIDUAL) else _pushed_guard(q, guards, lifted)
    if push is None:
        return _domain(q), guards
    i, kind, operand = push
    fb = compiled_term(q.bound)[0] if q.bound is not None else None
    if kind == "eq":
        ft = compiled_term(operand)[0]
        if fb is None:
            def dom(ctx, env):
                return (ft(ctx, env),)
        else:
            def dom(ctx, env):
                t = ft(ctx, env)
                return () if t & ~fb(ctx, env) else (t,)
    elif fb is None:
        def dom(ctx, env, w=operand):
            return ctx.fpre(env[w])
    else:
        def dom(ctx, env, w=operand):
            out = ~fb(ctx, env)
            return (p for p in ctx.fpre(env[w]) if not p & out)
    return dom, guards[:i] + guards[i + 1:]


def _compile_node(f: Formula, sub):
    """Closure for an atom or connective; ``sub`` compiles the operands."""
    match f:
        case Eq(a, b):
            def run(ctx, env, a=a, b=b):
                return env[a] == env[b]
        case PartAtom(a, b):
            def run(ctx, env, a=a, b=b):
                return (ctx.down[env[b]] >> env[a]) & 1 == 1
        case ProperPartAtom(a, b):
            def run(ctx, env, a=a, b=b):
                i, j = env[a], env[b]
                return i != j and (ctx.down[j] >> i) & 1 == 1
        case OverlapAtom(a, b):
            def run(ctx, env, a=a, b=b):
                return ctx.down[env[a]] & ctx.down[env[b]] != 0
        case FusionAtom(t, v):
            ft = compiled_term(t)[0]

            def run(ctx, env, ft=ft, v=v):
                return (ctx.frow[ft(ctx, env)] >> env[v]) & 1 == 1
        case Member(v, t):
            ft = compiled_term(t)[0]

            def run(ctx, env, ft=ft, v=v):
                return (ft(ctx, env) >> env[v]) & 1 == 1
        case SubTerm(a, b):
            fa, fb = compiled_term(a)[0], compiled_term(b)[0]

            def run(ctx, env, fa=fa, fb=fb):
                return fa(ctx, env) & ~fb(ctx, env) == 0
        case TermEq(a, b):
            fa, fb = compiled_term(a)[0], compiled_term(b)[0]

            def run(ctx, env, fa=fa, fb=fb):
                return fa(ctx, env) == fb(ctx, env)
        case Not(g):
            fg = sub(g)

            def run(ctx, env, fg=fg):
                return not fg(ctx, env)
        case And(a, b):
            fa, fb = sub(a), sub(b)

            def run(ctx, env, fa=fa, fb=fb):
                return fa(ctx, env) and fb(ctx, env)
        case Or(a, b):
            fa, fb = sub(a), sub(b)

            def run(ctx, env, fa=fa, fb=fb):
                return fa(ctx, env) or fb(ctx, env)
        case Implies(a, b):
            fa, fb = sub(a), sub(b)

            def run(ctx, env, fa=fa, fb=fb):
                return not fa(ctx, env) or fb(ctx, env)
        case Iff(a, b):
            fa, fb = sub(a), sub(b)

            def run(ctx, env, fa=fa, fb=fb):
                return fa(ctx, env) == fb(ctx, env)
        case _:
            raise TypeError(f)
    return run


def _loop(var, dom, body, universal, guard=None):
    """A quantifier over ``var`` stepping through ``dom`` in order.

    Values failing ``guard`` are skipped; the loop stops at the first
    value where ``body`` is false (universal) or true (existential).
    """
    if guard is None:
        def run(ctx, env):
            old = env.get(var, _UNSET)
            for val in dom(ctx, env):
                env[var] = val
                if body(ctx, env) != universal:
                    _restore(env, var, old)
                    return not universal
            _restore(env, var, old)
            return universal
    else:
        def run(ctx, env):
            old = env.get(var, _UNSET)
            for val in dom(ctx, env):
                env[var] = val
                if guard(ctx, env) and body(ctx, env) != universal:
                    _restore(env, var, old)
                    return not universal
            _restore(env, var, old)
            return universal
    return run


def _compile_reference(f: Formula):
    """The naive compiler: every quantifier loops in its written order.

    Not used for evaluation; it is the reference the planned compiler is
    tested against.
    """
    if isinstance(f, QUANTIFIERS):
        return _loop(f.var, _domain(f), _compile_reference(f.body),
                     isinstance(f, UNIVERSAL))
    return _compile_node(f, _compile_reference)


# ---------------------------------------------------------------------------
# bit-parallel forms: a formula as the mask of the values of one individual
# variable that satisfy it, restricted to a candidate mask

def _keep(ctx, env, cand):
    return cand


def _drop(ctx, env, cand):
    return 0


def _looped(f: Formula, v: str):
    """Mask of ``f`` in ``v`` by evaluating it at each candidate."""
    fn = compiled(f)[0]

    def run(ctx, env, cand):
        old = env.get(v, _UNSET)
        out = 0
        for i in iter_bits(cand):
            env[v] = i
            if fn(ctx, env):
                out |= 1 << i
        _restore(env, v, old)
        return out
    return run


def _mask_and(ma, mb):
    def run(ctx, env, cand):
        t = ma(ctx, env, cand)
        return mb(ctx, env, t) if t else 0
    return run


def _mask_or(ma, mb):
    def run(ctx, env, cand):
        t = ma(ctx, env, cand)
        rest = cand & ~t
        return t | mb(ctx, env, rest) if rest else t
    return run


def _mask_implies(ma, mb):
    def run(ctx, env, cand):
        t = ma(ctx, env, cand)
        return (cand & ~t) | mb(ctx, env, t) if t else cand
    return run


def _mask_iff(ma, mb):
    def run(ctx, env, cand):
        return cand & ~(ma(ctx, env, cand) ^ mb(ctx, env, cand))
    return run


_MASK_CONNECTIVES = {And: _mask_and, Or: _mask_or, Implies: _mask_implies,
                     Iff: _mask_iff}


def _mask_quantifier(q, dom, mb):
    """A quantifier over another variable: AND (or OR) of its body's masks."""
    w = q.var
    if isinstance(q, UNIVERSAL):
        def run(ctx, env, cand):
            old = env.get(w, _UNSET)
            for val in dom(ctx, env):
                if not cand:
                    break
                env[w] = val
                cand = mb(ctx, env, cand)
            _restore(env, w, old)
            return cand
    else:
        def run(ctx, env, cand):
            old = env.get(w, _UNSET)
            out = 0
            for val in dom(ctx, env):
                if not cand:
                    break
                env[w] = val
                got = mb(ctx, env, cand)
                out |= got
                cand ^= got
            _restore(env, w, old)
            return out
    return run


def _lifted(f: Formula, v: str):
    """Bit-parallel form of ``f`` in the individual variable ``v``, or None.

    The closure maps ``(ctx, env, cand)`` to the members i of the mask
    ``cand`` for which ``f`` holds with ``v = i``; ``env`` need not bind
    ``v``.  Atoms linear in ``v`` become table lookups, connectives bit
    operations.  None means no part of ``f`` lifts, so looping over the
    values of ``v`` is as good.
    """
    if v not in free_vars(f)[0]:
        fn = compiled(f)[0]

        def run(ctx, env, cand):
            return cand if cand and fn(ctx, env) else 0
        return run
    match f:
        case Eq(a, b):
            if a == b:
                return _keep
            y = b if a == v else a

            def run(ctx, env, cand):
                return cand & (1 << env[y])
        case PartAtom(a, b) if a != b:
            if a == v:
                def run(ctx, env, cand):
                    return cand & ctx.down[env[b]]
            else:
                def run(ctx, env, cand):
                    return cand & ctx.up[env[a]]
        case ProperPartAtom(a, b):
            if a == b:
                return _drop
            if a == v:
                def run(ctx, env, cand):
                    j = env[b]
                    return cand & ctx.down[j] & ~(1 << j)
            else:
                def run(ctx, env, cand):
                    i = env[a]
                    return cand & ctx.up[i] & ~(1 << i)
        case OverlapAtom(a, b) if a != b:
            y = b if a == v else a

            def run(ctx, env, cand):
                return cand & ctx.ov[env[y]]
        case FusionAtom(t, _) if v not in compiled_term(t)[1]:
            ft = compiled_term(t)[0]

            def run(ctx, env, cand):
                return cand & ctx.frow[ft(ctx, env)]
        case Member(_, t) if v not in compiled_term(t)[1]:
            ft = compiled_term(t)[0]

            def run(ctx, env, cand):
                return cand & ft(ctx, env)
        case Not(g):
            mg = _lifted(g, v)
            if mg is None:
                return None

            def run(ctx, env, cand):
                return cand & ~mg(ctx, env, cand)
        case And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b):
            la, lb = _lifted(a, v), _lifted(b, v)
            if la is None and lb is None:
                return None
            return _MASK_CONNECTIVES[type(f)](la or _looped(a, v),
                                              lb or _looped(b, v))
        case ForallI() | ExistsI() | ForallP() | ExistsP():
            if f.bound is not None and v in compiled_term(f.bound)[1]:
                return None
            universal = isinstance(f, UNIVERSAL)
            guards, concl = _guards(f.body, universal)
            dom, left = _guarded_domain(f, guards, v)
            body = f.body if left is guards else _guarded(left, concl)
            mb = _lifted(body, v)
            if mb is None:
                return None
            return _mask_quantifier(f, dom, mb)
        case _:
            return None
    return run


def _bitwise(q, mask):
    """A quantifier over an individual variable as one test of its body's mask."""
    ft = compiled_term(q.bound)[0] if q.bound is not None else None
    if isinstance(q, UNIVERSAL):
        def run(ctx, env):
            cand = ctx.full if ft is None else ft(ctx, env)
            return mask(ctx, env, cand) == cand
    else:
        def run(ctx, env):
            cand = ctx.full if ft is None else ft(ctx, env)
            return mask(ctx, env, cand) != 0
    return run


# ---------------------------------------------------------------------------
# the planning compiler

def _conjuncts(f: Formula) -> list:
    if isinstance(f, And):
        return _conjuncts(f.left) + _conjuncts(f.right)
    return [f]


def _conj(fs: list) -> Formula:
    out = fs[-1]
    for g in reversed(fs[:-1]):
        out = And(g, out)
    return out


def _true(ctx, env):
    return True


def _guards(body: Formula, universal: bool) -> tuple:
    """(guards, conclusion) of a quantifier body.

    A universal body ``A1 and ... and Am -> C`` gives guards ``Ai`` and
    conclusion ``C``; an existential body ``A1 and ... and Am`` gives
    guards ``Ai`` and no conclusion.
    """
    if not universal:
        return _conjuncts(body), None
    guards = []
    while isinstance(body, Implies):
        guards += _conjuncts(body.left)
        body = body.right
    return guards, body


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
        read = set(compiled_term(body.bound)[1]) if body.bound is not None else set()
        deps[body.var] = read & {q.var for q in block}
        block.append(body)
        seen |= read | {body.var}
        body = body.body
    return (block, deps) + _guards(body, same is UNIVERSAL)


def _innermost(block, deps, scoped, concl):
    """(quantifier, mask) for the bit-parallel innermost variable, or (None, None).

    It is the last individual variable that no bound reads and whose
    guards and conclusion lift in it.
    """
    needed = set().union(*deps.values())
    for q in reversed(block):
        if not isinstance(q, INDIVIDUAL) or q.var in needed:
            continue
        pieces = [g for g, gv in scoped if q.var in gv]
        if concl is not None:
            tail = Implies(_conj(pieces), concl) if pieces else concl
        elif pieces:
            tail = _conj(pieces)
        else:
            continue
        if q.var in compiled(tail)[1]:
            mask = _lifted(tail, q.var)
            if mask is not None:
                return q, mask
    return None, None


def _binding_order(rest, deps, scoped) -> list:
    """``rest`` ordered so that guards close early.

    Each step binds, among the variables whose bound is ready, the one
    closing the most guards, then the one in the most guards, then an
    individual before a plural, then the first written.
    """
    order, bound = [], set()

    def score(q):
        v = q.var
        closes = sum(v in gv and gv <= bound | {v} for _, gv in scoped)
        touches = sum(v in gv for _, gv in scoped)
        return (closes, touches, isinstance(q, INDIVIDUAL), -rest.index(q))

    rest = list(rest)
    while rest:
        q = max((q for q in rest if deps[q.var] <= bound), key=score)
        order.append(q)
        bound.add(q.var)
        rest.remove(q)
    return order


def _compile_block(f: Formula):
    """Plan a block of like quantifiers, then compile it.

    The innermost variable is evaluated bit-parallel; the others loop in
    an order that closes guards early, and each guard is tested as soon
    as its block variables are bound, or becomes the domain of a plural
    it closes (``_guarded_domain``).  The plan reads only the formula.
    """
    universal = isinstance(f, UNIVERSAL)
    block, deps, guards, concl = _split_block(f)
    names = {q.var for q in block}
    scoped = [(g, set(compiled(g)[1]) & names) for g in guards]
    inner, mask = _innermost(block, deps, scoped, concl)
    if inner is not None:
        scoped = [(g, gv) for g, gv in scoped if inner.var not in gv]
    order = _binding_order([q for q in block if q is not inner], deps, scoped)

    level = {q.var: i for i, q in enumerate(order)}
    at, pre = [[] for _ in order], []
    for g, gv in scoped:
        (at[max(level[v] for v in gv)] if gv else pre).append(g)
    if inner is not None:
        run = _bitwise(inner, mask)
    else:
        run = compiled(concl)[0] if universal else _true
    for q, gs in reversed(list(zip(order, at))):
        dom, gs = _guarded_domain(q, gs)
        run = _loop(q.var, dom, run, universal,
                    compiled(_conj(gs))[0] if gs else None)
    if pre:
        guard, inner_run = compiled(_conj(pre))[0], run

        def run(ctx, env):
            return inner_run(ctx, env) if guard(ctx, env) else universal
    return run


def _compile(f: Formula):
    if isinstance(f, QUANTIFIERS):
        return _compile_block(f)
    return _compile_node(f, lambda g: compiled(g)[0])


_COMPILED = {}
_TERM_COMPILED = {}


def compiled(f: Formula) -> tuple:
    """(closure, sorted free variable names) of a formula, built once."""
    entry = _COMPILED.get(f)
    if entry is None:
        iv, pv = free_vars(f)
        entry = _COMPILED[f] = (_compile(f), tuple(sorted(iv | pv)))
    return entry


def compiled_term(t: PluralTerm) -> tuple:
    """(closure, sorted free variable names) of a plural term, built once."""
    entry = _TERM_COMPILED.get(t)
    if entry is None:
        iv, pv = free_vars(t)
        entry = _TERM_COMPILED[t] = (_compile_term(t), tuple(sorted(iv | pv)))
    return entry


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
        self.ctx = EvalContext(s)

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

    def check(self, nf: NamedFormula) -> EvalOutcome:
        if self.eval(nf.sentence):
            return EvalOutcome(True, None)
        return EvalOutcome(False, self.find_witness(nf.sentence))

    def find_witness(self, sentence: Formula) -> Optional[Assignment]:
        """First assignment to the leading universal block refuting the rest.

        The block ends before the first quantifier that rebinds one of its
        names.  Returns None when the sentence is true or does not start
        with a universal quantifier.  The prefix is fixed one variable at a
        time, in its written order: each takes the first value under which
        the remaining universal suffix is false, which gives the
        lexicographically first refuting assignment without backtracking.
        """
        ctx = self.ctx
        env = {}
        prefix = []
        q = sentence
        while isinstance(q, UNIVERSAL) and q.var not in env:
            suffix = compiled(q.body)[0]
            for val in _domain(q)(ctx, env):
                env[q.var] = val
                if not suffix(ctx, env):
                    break
            else:
                return None
            prefix.append(q)
            q = q.body
        if not prefix:
            return None
        individuals, plurals = {}, {}
        for q in prefix:
            if isinstance(q, ForallI):
                individuals[q.var] = env[q.var]
            else:
                plurals[q.var] = members_of(env[q.var])
        return Assignment(individuals, plurals)

    def refutes(self, sentence: Formula, witness: Assignment) -> bool:
        """True iff the witness really falsifies the body under its prefix.

        The prefix is the leading universal block up to the first
        quantifier the witness does not bind or that rebinds a name, as in
        ``find_witness``.  Each prefix value must lie in its quantifier's
        bound, read under the values of the quantifiers outside it.
        """
        unused = set(witness.individuals) | set(witness.plurals)  # not yet in the prefix
        prefix = []
        body = sentence
        while isinstance(body, UNIVERSAL) and body.var in unused:
            unused.remove(body.var)
            prefix.append(body)
            body = body.body
        if any(q.bound is not None for q in prefix) \
                and not self._within_bounds(prefix, witness):
            return False
        return not self.eval(body, witness)

    def _within_bounds(self, prefix: list, witness: Assignment) -> bool:
        """Whether each value the witness gives a prefix quantifier lies in
        its bound, read under the values of the quantifiers outside it."""
        env = _env_of(self.ctx.structure, witness)
        names = [q.var for q in prefix]
        for k, q in enumerate(prefix):
            if q.bound is None:
                continue
            outer = {v: val for v, val in env.items() if v not in names[k:]}
            ft, free = compiled_term(q.bound)
            _check_bound(free, outer)
            inside = ft(self.ctx, outer)
            val = env[q.var]
            if isinstance(q, ForallI):
                within = inside >> val & 1
            else:
                within = not val & ~inside
            if not within:
                return False
        return True


def eval_term(s: Structure, t: PluralTerm, a: Optional[Assignment] = None) -> Plurality:
    return Evaluator(s).term(t, a)


def eval_formula(s: Structure, f: Formula, a: Optional[Assignment] = None) -> bool:
    return Evaluator(s).eval(f, a)


def check_sentence(s: Structure, nf: NamedFormula) -> EvalOutcome:
    return Evaluator(s).check(nf)
