import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemcheck import (Assignment, EvalError, FusionStructure, PartStructure,
                      canonical_gem, check_sentence, eval_formula, eval_term,
                      gem_f, gem_p, native, parse, semantics)
from gemcheck.semantics import Evaluator
from gemcheck.structures import CapacityError, induced_fusion
from gemcheck.syntax import (ExistsI, ExistsP, ForallI, ForallP, FusionAtom,
                             Implies, NamedFormula, PVar, TermEq, free_vars)
from gemcheck.search import random_structure
from gemcheck.theory import lemma_suite, pp_axioms

from util import (IVARS, PVARS, all_structures, desugar, fusion_pairs,
                  random_formula, random_pterm)


def _nf(text, name="t"):
    return NamedFormula(name, parse(text), "test")


def __term(text):
    # terms only occur inside formulas; lift one out via a membership atom
    return parse(f"x in {text}").term


def test_eval_term_singleton():
    s = PartStructure.from_pairs(4, ((i, i) for i in range(4)))
    assert eval_term(s, __term("I(x)"), Assignment(individuals={"x": 3})) == {3}


def test_eval_term_set_algebra():
    s = PartStructure.from_pairs(3, ())
    a = Assignment(plurals={"XX": frozenset({0}), "YY": frozenset({1}),
                            "ZZ": frozenset({1, 2})})
    assert eval_term(s, __term("(XX + YY) & ZZ"), a) == {1}


def test_eval_term_components_canonical():
    k2 = canonical_gem(2)
    a = Assignment(individuals={"x": 2})
    assert eval_term(k2, __term("U(I(x))"), a) == {0, 1, 2}


def test_eval_term_unbound():
    s = PartStructure.from_pairs(2, ())
    with pytest.raises(EvalError):
        eval_term(s, __term("XX + YY"), Assignment(plurals={"XX": frozenset()}))


def test_eval_examples():
    k2 = canonical_gem(2)
    assert eval_formula(k2, gem_p().get("ref_P").sentence)
    sym = PartStructure.from_pairs(2, [(0, 0), (1, 1), (0, 1), (1, 0)])
    out = check_sentence(sym, gem_p().get("antis_P"))
    assert not out.value
    assert out.witness == Assignment(individuals={"x": 0, "y": 1})
    fs = FusionStructure.from_pairs(2, [({0}, 0), ({1}, 1)])
    assert eval_formula(fs, gem_f().get("id_F").sentence)


def test_check_sentence_examples():
    out = check_sentence(FusionStructure.from_pairs(1, ()), gem_f().get("exists_F"))
    assert not out.value
    assert out.witness == Assignment(plurals={"ZZ": frozenset({0})})
    empty = PartStructure.from_pairs(0, ())
    for t in (gem_f(), gem_p()):
        for nf in t:
            assert check_sentence(empty, nf).value, nf.name


def test_witness_is_first_in_enumeration_order():
    # two independent antisymmetry violations; the witness must be the
    # lexicographically first pair
    s = PartStructure.from_pairs(4, [(0, 0), (1, 1), (2, 2), (3, 3),
                                     (2, 3), (3, 2), (0, 1), (1, 0)])
    out = check_sentence(s, gem_p().get("antis_P"))
    assert out.witness == Assignment(individuals={"x": 0, "y": 1})


def test_witness_refutes():
    s = FusionStructure.from_pairs(1, ())
    ev = Evaluator(s)
    nf = gem_f().get("exists_F")
    w = ev.find_witness(nf.sentence)
    assert ev.refutes(nf.sentence, w)


def test_refutes_checks_each_prefix_value_against_its_bound():
    s = PartStructure(2, (1, 3))  # P(0, 1) besides reflexivity
    ev = Evaluator(s)
    f = parse("forall y . forall z in I(y) . P(y, z) -> z = y")
    assert ev.eval(f) and ev.find_witness(f) is None
    # z = 1 lies outside I(0), although the body is false under it
    assert not ev.refutes(f, Assignment(individuals={"y": 0, "z": 1}))
    g = parse("forall XX . forall ZZ sub XX . exists z in ZZ . P(z, z)")
    assert not ev.refutes(g, Assignment(plurals={"XX": frozenset(), "ZZ": frozenset({1})}))
    assert ev.refutes(g, Assignment(plurals={"XX": frozenset({1}), "ZZ": frozenset()}))


def test_witness_prefix_stops_at_a_rebinding():
    s = PartStructure(2, (1, 3))
    ev = Evaluator(s)
    f = parse("forall y . forall z in I(y) . forall y . P(z, y) -> z = y")
    w = ev.find_witness(f)
    # z = 0 comes from I(y) with the outer y = 0; the inner y is not reported
    assert w == Assignment(individuals={"y": 0, "z": 0}) == _reference_witness(ev, f)
    assert ev.refutes(f, w)
    # the inner y = 1 does refute the body, but z = 0 lies outside I(1)
    assert not ev.refutes(f, Assignment(individuals={"y": 1, "z": 0}))


def test_empty_plurality_convention():
    s = PartStructure.from_pairs(2, ())
    f = parse("exists x . x in ZZ")
    assert not eval_formula(s, f, Assignment(plurals={"ZZ": frozenset()}))


def test_plural_quantifier_includes_empty():
    s = PartStructure.from_pairs(1, ())
    assert not eval_formula(s, parse("forall ZZ . exists x . x in ZZ"))


def test_derived_dispatch_is_total():
    # parthood on a fusion structure and fusion on a part structure both
    # answer through the definitional translations
    fs = FusionStructure.from_pairs(2, [({0, 1}, 1), ({1}, 1), ({0}, 0)])
    assert eval_formula(fs, parse("P(x, y)"),
                        Assignment(individuals={"x": 0, "y": 1}))
    k2 = canonical_gem(2)
    assert eval_formula(k2, parse("F(I(x) + I(y), y)"),
                        Assignment(individuals={"x": 0, "y": 2}))


def test_monotonicity_of_derived_parthood():
    rng = random.Random(7)
    for _ in range(200):
        fs = random_structure("fusion", rng.randrange(4), rng)
        ev = Evaluator(fs)
        for (zz, y) in fusion_pairs(fs):
            for x in zz:
                assert ev.eval(parse("P(x, y)"),
                               Assignment(individuals={"x": x, "y": y}))


def test_unbound_variable_error():
    with pytest.raises(EvalError):
        eval_formula(PartStructure.from_pairs(1, ()), parse("P(x, y)"))
    with pytest.raises(EvalError):
        eval_formula(PartStructure.from_pairs(2, ()), parse("P(x, x)"),
                     Assignment(individuals={"x": 5}))


def test_capacity_guard():
    with pytest.raises(CapacityError):
        Evaluator(PartStructure.from_pairs(17, ()))
    with pytest.raises(CapacityError):
        FusionStructure(17, ())
    with pytest.raises(CapacityError):
        induced_fusion(PartStructure.from_pairs(17, ()))


def _builder_cases():
    for kind, n in (("part", 0), ("part", 1), ("part", 2), ("part", 3),
                    ("fusion", 0), ("fusion", 1), ("fusion", 2)):
        yield from all_structures(kind, n)
    rng = random.Random(23)
    for kind, n in (("part", 4), ("fusion", 3)):
        for _ in range(200):
            yield random_structure(kind, n, rng)


def test_context_tables_match_native_tables():
    for s in _builder_cases():
        ctx = semantics.EvalContext(s)
        t = native.tables_for(s)
        assert (ctx.down, ctx.ov, ctx.frow) == (t.down, t.ov, t.frow), s
        assert all((ctx.up[x] >> y) & 1 == (ctx.down[y] >> x) & 1
                   for x in range(s.n) for y in range(s.n)), s
        assert [ctx.fpre(x) for x in range(s.n)] == \
            [[p for p in range(1 << s.n) if (t.frow[p] >> x) & 1]
             for x in range(s.n)], s


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.integers(0, 3), st.booleans())
def test_desugar_preserves_semantics(seed, n, fusion_kind):
    rng = random.Random(seed)
    s = random_structure("fusion" if fusion_kind else "part", n, rng)
    f = random_formula(rng, 3)
    a = _random_assignment(rng, n)
    if n == 0:
        a = Assignment(individuals={}, plurals=a.plurals)
        if any(v in "xyzuvw" for v in __free_ivars(f)):
            return
    assert eval_formula(s, f, a) == eval_formula(s, desugar(f), a)


@pytest.mark.parametrize("text", ["exists YY sub YY . exists x . x in YY",
                                  "exists x in I(x) . not x = y"])
def test_desugar_reads_a_bound_outside_its_quantifier(text):
    # the bound mentions the quantified variable itself, which it reads
    # from the enclosing scope; desugaring must not capture it
    f = parse(text)
    a = Assignment(individuals={"x": 0, "y": 0}, plurals={"YY": frozenset()})
    s = PartStructure.from_pairs(2, [(0, 0), (1, 1)])
    assert eval_formula(s, f, a) is False
    assert eval_formula(s, desugar(f), a) is False


def _random_assignment(rng, n):
    return Assignment(
        individuals={v: rng.randrange(n) for v in IVARS} if n else {},
        plurals={V: frozenset(i for i in range(n) if rng.random() < 0.5)
                 for V in PVARS})


def __free_ivars(f):
    return free_vars(f)[0]


def test_desugar_on_registry():
    rng = random.Random(3)
    for kind in ("part", "fusion"):
        for _ in range(40):
            s = random_structure(kind, rng.randrange(4), rng)
            for t in (gem_f(), gem_p()):
                for nf in t:
                    assert (eval_formula(s, nf.sentence)
                            == eval_formula(s, desugar(nf.sentence))), nf.name


# ---------------------------------------------------------------------------
# the planned compiler against the naive reference compiler


def _reference_eval(ev, f, a=None):
    env = semantics._env_of(ev.ctx.structure, a)
    return semantics._compile_reference(f)(ev.ctx, env)


def _reference_witness(ev, sentence):
    """Backtracking search for the first refuting prefix assignment; the
    prefix ends before the first quantifier that rebinds one of its names."""
    ctx = ev.ctx
    prefix, body = [], sentence
    while isinstance(body, (ForallI, ForallP)) and body.var not in {q.var for q in prefix}:
        prefix.append(body)
        body = body.body
    if not prefix:
        return None
    fbody = semantics._compile_reference(body)
    env = {}

    def values(q):
        if q.bound is None:
            top = ctx.n if isinstance(q, ForallI) else 1 << ctx.n
            return list(range(top))
        t = semantics._compile_term(q.bound)(ctx, env)
        if isinstance(q, ForallI):
            return [i for i in range(ctx.n) if (t >> i) & 1]
        return [m for m in range(t + 1) if m & ~t == 0]

    def search(i):
        if i == len(prefix):
            return not fbody(ctx, env)
        var = prefix[i].var
        for val in values(prefix[i]):
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


def _plural_guard(rng):
    """``F(YY, w)`` or ``YY eq T``: a guard a plural quantifier can range over."""
    var = PVar(rng.choice(PVARS[:3]))
    if rng.random() < 0.5:
        return FusionAtom(var, rng.choice(IVARS[:3]))
    t = random_pterm(rng, 1)
    return TermEq(var, t) if rng.random() < 0.5 else TermEq(t, var)


def _random_block(rng, depth=1):
    """A block of like quantifiers over guards, the shape the planner splits.

    Universal: ``forall ... . A1 and ... and Am -> C``; existential:
    ``exists ... . A1 and ... and Am``.  Variables come from small pools
    so that guards mention them often; some get restricting bounds.  Some
    guards are plural guards, and the last part may be a nested block,
    which a bit-parallel variable of this one can reach.
    """
    universal = rng.random() < 0.5
    parts = [_plural_guard(rng) if rng.random() < 0.3
             else random_formula(rng, rng.randrange(2))
             for _ in range(rng.randrange(1, 5))]
    if depth and rng.random() < 0.3:
        parts[-1] = _random_block(rng, depth - 1)
    guards, body = parts[:-1], parts[-1]
    if universal and guards:
        body = Implies(semantics._conj(guards), body)
    elif guards:
        body = semantics._conj(parts)
    for _ in range(rng.randrange(1, 5)):
        plural = rng.random() < 0.4
        var = rng.choice(PVARS[:3] if plural else IVARS[:3])
        bound = random_pterm(rng, 1) if rng.random() < 0.3 else None
        cls = ((ForallP if plural else ForallI) if universal
               else (ExistsP if plural else ExistsI))
        body = cls(var, body, bound)
    return body


def _random_formula_or_block(rng):
    if rng.random() < 0.5:
        return _random_block(rng)
    return random_formula(rng, rng.randrange(2, 6))


def _random_structure_of_reach(rng):
    if rng.random() < 0.5:
        return random_structure("part", rng.randrange(5), rng)
    return random_structure("fusion", rng.randrange(4), rng)


def test_planned_matches_reference_on_random_formulas():
    rng = random.Random(2024)
    compared = 0
    for _ in range(1500):
        s = _random_structure_of_reach(rng)
        ev = Evaluator(s)
        f = _random_formula_or_block(rng)
        a = _random_assignment(rng, s.n)
        if s.n == 0 and free_vars(f)[0]:
            continue
        assert ev.eval(f, a) == _reference_eval(ev, f, a), (s, f, a)
        compared += 1
    assert compared > 1000


def _close_universally(rng, f):
    """``f`` under a leading universal block binding its free variables.

    The block's order is random, and some variables get a bound built
    from the variables bound before them.
    """
    iv, pv = free_vars(f)
    names = sorted(iv | pv)
    rng.shuffle(names)
    for i, v in reversed(list(enumerate(names))):
        earlier = [w for w in names[:i] if w.isupper()]
        bound = None
        if earlier and rng.random() < 0.3:
            bound = PVar(rng.choice(earlier))
        f = (ForallI if v.islower() else ForallP)(v, f, bound)
    return f


def test_witness_matches_reference_on_random_sentences():
    rng = random.Random(99)
    refuted = 0
    for _ in range(1000):
        s = _random_structure_of_reach(rng)
        ev = Evaluator(s)
        f = _random_formula_or_block(rng)
        iv, pv = free_vars(f)
        if max(s.n, 1) ** len(iv) * 2 ** (s.n * len(pv)) > 4096:
            continue
        f = _close_universally(rng, f)
        w = ev.find_witness(f)
        assert w == _reference_witness(ev, f), (s, f)
        if w is not None:
            assert ev.refutes(f, w)
            refuted += 1
    assert refuted > 100


_PLURAL_GUARD_SHAPES = [
    # in a block: fusion and equality guards, with and without a bound
    "forall z . forall WW sub U(I(z)) . forall YY . F(YY, z) -> YY sub WW or (exists u in YY . PP(u, z))",
    "forall z . forall XX sub U(I(z)) . forall YY sub U(XX) . F(YY, z) and YY eq XX & U(I(z)) -> F(XX, z)",
    "forall z . forall XX sub U(I(z)) . forall YY . XX + I(z) eq YY -> F(YY, z) or not F(XX, z)",
    "forall z . forall XX sub U(I(z)) . exists YY sub XX . F(YY, z) and (exists u . u in YY)",
    "forall z . forall XX sub U(I(z)) . exists YY sub U(XX) . YY eq XX + I(z)",
    # inside a bit-parallel mask
    "forall ZZ . forall x . (exists z in ZZ . exists YY . F(YY, z) and x in YY)",
    "forall y . forall ZZ . forall x . exists YY sub ZZ . F(YY, y) and x in YY",
    "forall XX . forall y . forall x . (forall YY . YY eq XX & U(I(y)) -> x in YY or not P(x, y))",
    "forall XX . forall y . forall x . exists YY sub U(I(y)) . XX eq YY and O(x, y)",
    # the guard reads the bit-parallel variable, so it is not pushed
    "forall x . P(x, x) -> (forall YY . F(YY, x) -> (exists z in YY . P(z, x)))",
    "forall XX . forall x . exists YY . YY eq XX + I(x) and F(YY, x)",
]


@pytest.mark.parametrize("text", _PLURAL_GUARD_SHAPES)
def test_plural_guard_shapes_match_reference(text):
    f = parse(text)
    rng = random.Random(text)
    k2 = canonical_gem(2)
    structures = [k2, induced_fusion(k2)]
    structures += [_random_structure_of_reach(rng) for _ in range(40)]
    for s in structures:
        ev = Evaluator(s)
        assert ev.eval(f) == _reference_eval(ev, f), s
        assert ev.find_witness(f) == _reference_witness(ev, f), s


def test_registry_matches_reference_on_canonical_models():
    k2 = canonical_gem(2)
    registries = (gem_f(), gem_p(), pp_axioms(), lemma_suite())
    for s in (k2, induced_fusion(k2)):
        ev = Evaluator(s)
        for t in registries:
            for nf in t:
                assert ev.eval(nf.sentence) == _reference_eval(ev, nf.sentence), nf.name
                assert ev.find_witness(nf.sentence) == \
                    _reference_witness(ev, nf.sentence), nf.name


def test_registry_witnesses_match_reference_on_random_structures():
    rng = random.Random(5)
    registries = (gem_f(), gem_p(), pp_axioms(), lemma_suite())
    for _ in range(60):
        ev = Evaluator(_random_structure_of_reach(rng))
        for t in registries:
            for nf in t:
                assert ev.find_witness(nf.sentence) == \
                    _reference_witness(ev, nf.sentence), nf.name
