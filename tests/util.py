"""Shared test helpers: seeded random formulas and brute-force oracles.

The oracles here are written in deliberately naive set-comprehension
style, independent of both the evaluator and the native checkers, so the
expected values they produce are frozen from a third route.  Among them
is the written-order reference for the evaluator's generated code
(``reference_compile`` and ``reference_term``): a tree of closures in
which every quantifier loops in its written order.
"""

import itertools
import random

from gemcheck import native
from gemcheck.search import (Models, _allowed_rows, _plan, _scan_worker, _stream,
                             code_of, relation_bits, structure_from_code)
from gemcheck.semantics import Assignment, Evaluator
from gemcheck.structures import FusionStructure, PartStructure
from gemcheck.syntax import (And, Components, Eq, ExistsI, ExistsP, ForallI,
                             ForallP, FusionAtom, Iff, Implies, INDIVIDUAL,
                             Member, Not, Or, OverlapAtom, PartAtom,
                             ProperPartAtom, PVar, PInter, PUnion, QUANTIFIERS,
                             Singleton, SubTerm, TermEq, UNIVERSAL, free_vars)

IVARS = ["x", "y", "z", "u", "v", "w"]
PVARS = ["XX", "YY", "ZZ", "UU", "VV", "WW"]


def random_pterm(rng: random.Random, depth: int):
    if depth <= 0:
        return rng.choice([PVar(rng.choice(PVARS)),
                           Singleton(rng.choice(IVARS))])
    kind = rng.randrange(5)
    if kind == 0:
        return PVar(rng.choice(PVARS))
    if kind == 1:
        return Singleton(rng.choice(IVARS))
    if kind == 2:
        return PUnion(random_pterm(rng, depth - 1), random_pterm(rng, depth - 1))
    if kind == 3:
        return PInter(random_pterm(rng, depth - 1), random_pterm(rng, depth - 1))
    return Components(random_pterm(rng, depth - 1))


def random_atom(rng: random.Random):
    kind = rng.randrange(8)
    if kind == 0:
        return Eq(rng.choice(IVARS), rng.choice(IVARS))
    if kind == 1:
        return Member(rng.choice(IVARS), random_pterm(rng, 2))
    if kind == 2:
        return SubTerm(random_pterm(rng, 2), random_pterm(rng, 2))
    if kind == 3:
        return TermEq(random_pterm(rng, 2), random_pterm(rng, 2))
    if kind == 4:
        return FusionAtom(random_pterm(rng, 2), rng.choice(IVARS))
    if kind == 5:
        return PartAtom(rng.choice(IVARS), rng.choice(IVARS))
    if kind == 6:
        return ProperPartAtom(rng.choice(IVARS), rng.choice(IVARS))
    return OverlapAtom(rng.choice(IVARS), rng.choice(IVARS))


def random_formula(rng: random.Random, depth: int):
    if depth <= 0:
        return random_atom(rng)
    kind = rng.randrange(10)
    if kind <= 1:
        return random_atom(rng)
    if kind == 2:
        return Not(random_formula(rng, depth - 1))
    if kind == 3:
        return And(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == 4:
        return Or(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == 5:
        return Implies(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == 6:
        return Iff(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    cls = (ForallI, ExistsI, ForallP, ExistsP)[rng.randrange(4)]
    individual = cls in (ForallI, ExistsI)
    var = rng.choice(IVARS if individual else PVARS)
    bound = random_pterm(rng, 1) if rng.random() < 0.4 else None
    return cls(var, random_formula(rng, depth - 1), bound)


# ---------------------------------------------------------------------------
# case-by-case free variables, the reference for syntax.free_vars

def reference_term_free_pvars(t) -> frozenset:
    match t:
        case PVar(name):
            return frozenset([name])
        case Singleton(_):
            return frozenset()
        case PUnion(a, b) | PInter(a, b):
            return reference_term_free_pvars(a) | reference_term_free_pvars(b)
        case Components(s):
            return reference_term_free_pvars(s)
    raise TypeError(t)


def reference_term_free_ivars(t) -> frozenset:
    match t:
        case PVar(_):
            return frozenset()
        case Singleton(v):
            return frozenset([v])
        case PUnion(a, b) | PInter(a, b):
            return reference_term_free_ivars(a) | reference_term_free_ivars(b)
        case Components(s):
            return reference_term_free_ivars(s)
    raise TypeError(t)


def reference_free_vars(f) -> tuple:
    """(free individual variables, free plural variables) of a formula."""
    ti, tp = reference_term_free_ivars, reference_term_free_pvars
    match f:
        case Eq(a, b):
            return frozenset([a, b]), frozenset()
        case PartAtom(a, b) | ProperPartAtom(a, b) | OverlapAtom(a, b):
            return frozenset([a, b]), frozenset()
        case Member(v, t):
            return frozenset([v]) | ti(t), tp(t)
        case SubTerm(a, b) | TermEq(a, b):
            return ti(a) | ti(b), tp(a) | tp(b)
        case FusionAtom(t, v):
            return frozenset([v]) | ti(t), tp(t)
        case Not(g):
            return reference_free_vars(g)
        case And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b):
            ia, pa = reference_free_vars(a)
            ib, pb = reference_free_vars(b)
            return ia | ib, pa | pb
        case ForallI(v, body, bound) | ExistsI(v, body, bound):
            iv, pv = reference_free_vars(body)
            iv = iv - {v}
            if bound is not None:
                iv, pv = iv | ti(bound), pv | tp(bound)
            return iv, pv
        case ForallP(v, body, bound) | ExistsP(v, body, bound):
            iv, pv = reference_free_vars(body)
            pv = pv - {v}
            if bound is not None:
                iv, pv = iv | ti(bound), pv | tp(bound)
            return iv, pv
    raise TypeError(f)


# ---------------------------------------------------------------------------
# guarded expansion, the reference for restricted quantifiers

def _map(node, fn):
    """``node`` rebuilt from ``fn`` of each of its fields."""
    return type(node)(*(fn(getattr(node, name)) for name in node.__match_args__))


def _rename(node, old: str, new: str):
    """``node`` with the free occurrences of the variable ``old`` renamed ``new``."""
    if node is None or isinstance(node, str):
        return new if node == old else node
    if isinstance(node, QUANTIFIERS) and node.var == old:
        return type(node)(node.var, node.body, _rename(node.bound, old, new))
    return _map(node, lambda x: _rename(x, old, new))


def desugar(node):
    """Expand restricted quantifiers into their guarded forms.

    A bound is read outside its quantifier's scope, so a variable its own
    bound mentions is renamed (primed, which no parsed name is) first.
    """
    if node is None or isinstance(node, str):
        return node
    if not isinstance(node, QUANTIFIERS) or node.bound is None:
        return _map(node, desugar)
    v, body, bound = node.var, node.body, node.bound
    if v in frozenset().union(*free_vars(bound)):
        v = v + "'"
        body = _rename(body, node.var, v)
    guard = Member(v, bound) if isinstance(node, INDIVIDUAL) else SubTerm(PVar(v), bound)
    conn = Implies if isinstance(node, UNIVERSAL) else And
    return type(node)(v, conn(guard, desugar(body)))


# ---------------------------------------------------------------------------
# the written-order compiler, the reference for the planned generated code

def reference_term(t):
    """A plural term as a closure ``fn(ctx, env)`` giving its mask."""
    match t:
        case PVar(name):
            return lambda ctx, env: env[name]
        case Singleton(v):
            return lambda ctx, env: 1 << env[v]
        case PUnion(a, b):
            fa, fb = reference_term(a), reference_term(b)
            return lambda ctx, env: fa(ctx, env) | fb(ctx, env)
        case PInter(a, b):
            fa, fb = reference_term(a), reference_term(b)
            return lambda ctx, env: fa(ctx, env) & fb(ctx, env)
        case Components(s):
            fs = reference_term(s)
            return lambda ctx, env: ctx.umask(fs(ctx, env))
    raise TypeError(t)


def reference_domain(q):
    """A closure giving the values a quantifier's variable ranges over,
    ascending: the members (an individual) or the submasks (a plural) of its
    bound, read when the closure is called, or of the whole domain."""
    ft = (lambda ctx, env: (1 << ctx.n) - 1) if q.bound is None else reference_term(q.bound)
    individual = isinstance(q, INDIVIDUAL)

    def values(ctx, env):
        t = ft(ctx, env)
        if individual:
            return (i for i in range(ctx.n) if t >> i & 1)
        return (m for m in range(t + 1) if m & ~t == 0)
    return values


def reference_compile(f):
    """The naive compiler: every quantifier loops in its written order and
    binds its variable in a fresh scope, giving a closure ``fn(ctx, env)``."""
    match f:
        case Eq(a, b):
            return lambda ctx, env: env[a] == env[b]
        case PartAtom(a, b):
            return lambda ctx, env: (ctx.down[env[b]] >> env[a]) & 1 == 1
        case ProperPartAtom(a, b):
            return lambda ctx, env: env[a] != env[b] and (ctx.down[env[b]] >> env[a]) & 1 == 1
        case OverlapAtom(a, b):
            return lambda ctx, env: ctx.down[env[a]] & ctx.down[env[b]] != 0
        case FusionAtom(t, v):
            ft = reference_term(t)
            return lambda ctx, env: (ctx.frow[ft(ctx, env)] >> env[v]) & 1 == 1
        case Member(v, t):
            ft = reference_term(t)
            return lambda ctx, env: (ft(ctx, env) >> env[v]) & 1 == 1
        case SubTerm(a, b):
            fa, fb = reference_term(a), reference_term(b)
            return lambda ctx, env: fa(ctx, env) & ~fb(ctx, env) == 0
        case TermEq(a, b):
            fa, fb = reference_term(a), reference_term(b)
            return lambda ctx, env: fa(ctx, env) == fb(ctx, env)
        case Not(g):
            fg = reference_compile(g)
            return lambda ctx, env: not fg(ctx, env)
        case And(a, b):
            fa, fb = reference_compile(a), reference_compile(b)
            return lambda ctx, env: fa(ctx, env) and fb(ctx, env)
        case Or(a, b):
            fa, fb = reference_compile(a), reference_compile(b)
            return lambda ctx, env: fa(ctx, env) or fb(ctx, env)
        case Implies(a, b):
            fa, fb = reference_compile(a), reference_compile(b)
            return lambda ctx, env: not fa(ctx, env) or fb(ctx, env)
        case Iff(a, b):
            fa, fb = reference_compile(a), reference_compile(b)
            return lambda ctx, env: fa(ctx, env) == fb(ctx, env)
        case ForallI() | ForallP() | ExistsI() | ExistsP():
            dom, body, var = reference_domain(f), reference_compile(f.body), f.var
            decide = all if isinstance(f, UNIVERSAL) else any  # stops at the deciding value
            return lambda ctx, env: decide(body(ctx, {**env, var: val})
                                           for val in dom(ctx, env))
    raise TypeError(f)


def reference_witness(ev, sentence):
    """Backtracking search for the first refuting prefix assignment; the
    prefix ends before the first quantifier that rebinds one of its names."""
    ctx = ev.ctx
    prefix, body = [], sentence
    while isinstance(body, (ForallI, ForallP)) and body.var not in {q.var for q in prefix}:
        prefix.append(body)
        body = body.body
    if not prefix:
        return None
    fbody = reference_compile(body)
    env = {}

    def search(i):
        if i == len(prefix):
            return not fbody(ctx, env)
        var = prefix[i].var
        for val in reference_domain(prefix[i])(ctx, env):
            env[var] = val
            if search(i + 1):
                return True
        env.pop(var, None)
        return False

    if not search(0):
        return None
    return Assignment(
        {q.var: env[q.var] for q in prefix if isinstance(q, ForallI)},
        {q.var: frozenset(i for i in range(ctx.n) if (env[q.var] >> i) & 1)
         for q in prefix if isinstance(q, ForallP)})


# ---------------------------------------------------------------------------
# naive oracles over raw pair sets

def part_pairs(ps):
    """The parthood relation of a part structure as a set of (x, y) pairs."""
    return frozenset((x, y) for y, d in enumerate(ps.down) for x in range(ps.n)
                     if (d >> x) & 1)


def fusion_pairs(fs):
    """The fusion relation of a fusion structure as a set of (plurality, x) pairs."""
    return frozenset((frozenset(i for i in range(fs.n) if (p >> i) & 1), x)
                     for p, row in enumerate(fs.rows) for x in range(fs.n)
                     if (row >> x) & 1)


def relabeled(s, perm):
    """``s`` with each element x renamed ``perm[x]``, through its pairs."""
    if isinstance(s, PartStructure):
        return PartStructure.from_pairs(s.n, ((perm[x], perm[y])
                                              for (x, y) in part_pairs(s)))
    return FusionStructure.from_pairs(s.n, ((frozenset(perm[x] for x in zz), perm[x])
                                            for (zz, x) in fusion_pairs(s)))


def oracle_overlap(n, part, a, b):
    return any((c, a) in part and (c, b) in part for c in range(n))


def oracle_fuses(n, part, zz, x):
    return (all((y, x) in part for y in zz)
            and all(any(oracle_fuses_overlap(n, part, v, y) for v in zz)
                    for y in range(n) if (y, x) in part))


def oracle_fuses_overlap(n, part, v, y):
    return oracle_overlap(n, part, v, y)


def nonempty_subsets(n):
    for r in range(1, n + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(n), r))


def oracle_is_gem_p(n, part):
    if not all((x, x) in part for x in range(n)):
        return False
    for x in range(n):
        for y in range(n):
            if x != y and (x, y) in part and (y, x) in part:
                return False
            if (x, y) in part:
                for z in range(n):
                    if (y, z) in part and (x, z) not in part:
                        return False
    for zz in nonempty_subsets(n):
        fusers = [x for x in range(n) if oracle_fuses(n, part, zz, x)]
        if len(fusers) != 1:
            return False
    return True


def oracle_gem_p_model_codes(n):
    """Codes of all parthood models, by the naive oracle."""
    out = []
    for code in range(1 << (n * n)):
        part = {(x, y) for x in range(n) for y in range(n)
                if (code >> (x * n + y)) & 1}
        if oracle_is_gem_p(n, part):
            out.append(code)
    return out


# ---------------------------------------------------------------------------
# exhaustive references for the scan

def all_structures(kind, n):
    """Every relation of the kind at size n exactly once, by ascending code."""
    return (structure_from_code(kind, n, code)
            for code in range(1 << relation_bits(kind, n)))


def evaluator_models(kind, n, theory):
    """``filter_models`` without the scan: every obligation of every
    candidate through the evaluator, in code order."""
    out = []
    for s in all_structures(kind, n):
        ev = Evaluator(s)
        if all(ev.eval(nf.sentence) for nf in theory):
            out.append(s)
    return out


def product_models(kind, n, theory):
    """``filter_models`` over the product of the baked row lists in row
    index order (reflexive part rows, never poset rows), the stream the row
    search replaced: every native on every candidate, then every obligation
    through the evaluator, in code order."""
    row_local, natives, _ = _plan(kind, theory)
    if kind == "part":
        tables, build = native.part_tables, PartStructure
    else:
        tables, build = native.fusion_tables, FusionStructure
    out = []
    for rows in itertools.product(*_allowed_rows(kind, n, row_local)):
        t = tables(n, rows)
        if all(fn(t) for fn in natives):
            s = build(n, rows)
            ev = Evaluator(s)
            if all(ev.eval(nf.sentence) for nf in theory):
                out.append(s)
    return sorted(out, key=code_of)


def plain_row_survivors(n, theory):
    """The fusion row search without forced values, in code order: depth
    first over the unbaked rows of ``_allowed_rows``, each ext_F instance
    (ZZ, YY, UU) of all 8^n tested as soon as the rows it reads are
    assigned, and every native at each leaf."""
    row_local, natives, _ = _plan("fusion", theory)
    allowed = _allowed_rows("fusion", n, row_local)
    size = 1 << n
    filed = [set() for _ in range(size)]
    if native.ext_f in natives:
        for zz, yy, uu in itertools.product(range(size), repeat=3):
            a, b = uu | zz, uu | yy
            filed[max(zz, yy, a, b)].add((zz, yy, a, b))
    rows = [0] * size
    out = []

    def assign(r):
        if r == size:
            t = native.fusion_tables(n, rows)
            if all(fn(t) for fn in natives):
                out.append(FusionStructure.from_rows(n, tuple(rows)))
            return
        for v in allowed[r]:
            rows[r] = v
            if not any(rows[zz] & rows[yy] and rows[a] & ~rows[b]
                       for zz, yy, a, b in filed[r]):
                assign(r + 1)
    assign(0)
    return sorted(out, key=code_of)


def labeled_models(kind, n, theory):
    """``filter_models`` with the evaluator on every labeled structure: every
    relabeling of the scan's survivors, each through every obligation and,
    if it passes, an orbit of its own."""
    allowed, natives, natural, _ = _stream(kind, n, theory)
    survivors = {relabeled(s, perm) for s in _scan_worker((kind, n, allowed, natives, natural))
                 for perm in itertools.permutations(range(n))}
    models = []
    for s in sorted(survivors, key=code_of):
        ev = Evaluator(s)
        if all(ev.eval(nf.sentence) for nf in theory):
            models.append((s,))
    return Models(tuple(models))
