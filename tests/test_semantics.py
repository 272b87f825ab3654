import gc
import linecache
import random
import re
import traceback
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemcheck import (Assignment, EvalError, FusionStructure, PartStructure,
                      canonical_gem, gem_f, gem_p, native, parse, semantics)
from gemcheck.semantics import Evaluator
from gemcheck.structures import CapacityError, induced_fusion
from gemcheck.syntax import (And, ExistsI, ExistsP, ForallI, ForallP, FusionAtom,
                             Iff, Implies, NamedFormula, Not, Or, PVar, Singleton,
                             TermEq, free_vars, print_formula)
from gemcheck.search import random_structure
from gemcheck.theory import lemma_suite, pp_axioms

from util import (IVARS, PVARS, all_structures, desugar, fusion_pairs,
                  random_formula, random_pterm, reference_compile, reference_domain,
                  reference_term, reference_witness)


def _nf(text, name="t"):
    return NamedFormula(name, parse(text), "test")


def __term(text):
    # terms only occur inside formulas; lift one out via a membership atom
    return parse(f"x in {text}").term


def test_eval_term_singleton():
    s = PartStructure.from_pairs(4, ((i, i) for i in range(4)))
    assert Evaluator(s).term(__term("I(x)"), Assignment(individuals={"x": 3})) == {3}


def test_eval_term_set_algebra():
    s = PartStructure.from_pairs(3, ())
    a = Assignment(plurals={"XX": frozenset({0}), "YY": frozenset({1}),
                            "ZZ": frozenset({1, 2})})
    assert Evaluator(s).term(__term("(XX + YY) & ZZ"), a) == {1}


def test_eval_term_components_canonical():
    k2 = canonical_gem(2)
    a = Assignment(individuals={"x": 2})
    assert Evaluator(k2).term(__term("U(I(x))"), a) == {0, 1, 2}


def test_eval_term_unbound():
    s = PartStructure.from_pairs(2, ())
    with pytest.raises(EvalError):
        Evaluator(s).term(__term("XX + YY"), Assignment(plurals={"XX": frozenset()}))


def test_eval_examples():
    k2 = canonical_gem(2)
    assert Evaluator(k2).eval(gem_p().get("ref_P").sentence)
    sym = PartStructure.from_pairs(2, [(0, 0), (1, 1), (0, 1), (1, 0)])
    out = Evaluator(sym).check(gem_p().get("antis_P"))
    assert not out.passed
    assert out.witness == Assignment(individuals={"x": 0, "y": 1})
    fs = FusionStructure.from_pairs(2, [({0}, 0), ({1}, 1)])
    assert Evaluator(fs).eval(gem_f().get("id_F").sentence)


def test_check_sentence_examples():
    out = Evaluator(FusionStructure.from_pairs(1, ())).check(gem_f().get("exists_F"))
    assert not out.passed
    assert out.witness == Assignment(plurals={"ZZ": frozenset({0})})
    empty = PartStructure.from_pairs(0, ())
    for t in (gem_f(), gem_p()):
        for nf in t:
            assert Evaluator(empty).check(nf).passed, nf.name


def test_witness_is_first_in_enumeration_order():
    # two independent antisymmetry violations; the witness must be the
    # lexicographically first pair
    s = PartStructure.from_pairs(4, [(0, 0), (1, 1), (2, 2), (3, 3),
                                     (2, 3), (3, 2), (0, 1), (1, 0)])
    out = Evaluator(s).check(gem_p().get("antis_P"))
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


def test_refutes_reads_a_compound_bound_through_generated_term_code():
    ev = Evaluator(canonical_gem(2))  # 2 has the parts 0, 1 and 2
    f = parse("forall XX . forall y . forall x in U(XX + I(y)) . x = y")
    # x = 0 lies in U({} + I(2)) and refutes x = y
    w = Assignment({"y": 2, "x": 0}, {"XX": frozenset()})
    assert ev.find_witness(f) == w == reference_witness(ev, f)
    assert ev.refutes(f, w)
    # x = 1 lies outside U({} + I(0)), although the body is false under it
    assert not ev.refutes(f, Assignment({"y": 0, "x": 1}, {"XX": frozenset()}))
    fn = semantics.compiled_term(f.body.body.bound)[0]
    assert re.fullmatch(r"<gemcheck-term-\d+>", fn.__code__.co_filename)


def test_witness_prefix_stops_at_a_rebinding():
    s = PartStructure(2, (1, 3))
    ev = Evaluator(s)
    f = parse("forall y . forall z in I(y) . forall y . P(z, y) -> z = y")
    w = ev.find_witness(f)
    # z = 0 comes from I(y) with the outer y = 0; the inner y is not reported
    assert w == Assignment(individuals={"y": 0, "z": 0}) == reference_witness(ev, f)
    assert ev.refutes(f, w)
    # the inner y = 1 does refute the body, but z = 0 lies outside I(1)
    assert not ev.refutes(f, Assignment(individuals={"y": 1, "z": 0}))


def test_empty_plurality_convention():
    s = PartStructure.from_pairs(2, ())
    f = parse("exists x . x in ZZ")
    assert not Evaluator(s).eval(f, Assignment(plurals={"ZZ": frozenset()}))


def test_plural_quantifier_includes_empty():
    s = PartStructure.from_pairs(1, ())
    assert not Evaluator(s).eval(parse("forall ZZ . exists x . x in ZZ"))


def test_derived_dispatch_is_total():
    # parthood on a fusion structure and fusion on a part structure both
    # answer through the definitional translations
    fs = FusionStructure.from_pairs(2, [({0, 1}, 1), ({1}, 1), ({0}, 0)])
    assert Evaluator(fs).eval(parse("P(x, y)"), Assignment(individuals={"x": 0, "y": 1}))
    k2 = canonical_gem(2)
    assert Evaluator(k2).eval(parse("F(I(x) + I(y), y)"),
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
        Evaluator(PartStructure.from_pairs(1, ())).eval(parse("P(x, y)"))
    with pytest.raises(EvalError, match="^unbound variable 'x'$"):  # not the generated code's KeyError
        Evaluator(PartStructure.from_pairs(1, ())).check(_nf("forall y . P(x, y)"))
    with pytest.raises(EvalError):
        Evaluator(PartStructure.from_pairs(2, ())).eval(parse("P(x, x)"),
                                                        Assignment(individuals={"x": 5}))


def test_plural_binding_outside_the_domain_error():
    ev = Evaluator(PartStructure(2, (1, 2)))
    with pytest.raises(EvalError, match="plural binding XX has members outside the domain"):
        ev.eval(parse("XX sub XX"), Assignment(plurals={"XX": frozenset({5})}))


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
    assert Evaluator(s).eval(f, a) == Evaluator(s).eval(desugar(f), a)


@pytest.mark.parametrize("text", ["exists YY sub YY . exists x . x in YY",
                                  "exists x in I(x) . not x = y"])
def test_desugar_reads_a_bound_outside_its_quantifier(text):
    # the bound mentions the quantified variable itself, which it reads
    # from the enclosing scope; desugaring must not capture it
    f = parse(text)
    a = Assignment(individuals={"x": 0, "y": 0}, plurals={"YY": frozenset()})
    s = PartStructure.from_pairs(2, [(0, 0), (1, 1)])
    assert Evaluator(s).eval(f, a) is False
    assert Evaluator(s).eval(desugar(f), a) is False


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
                    assert (Evaluator(s).eval(nf.sentence)
                            == Evaluator(s).eval(desugar(nf.sentence))), nf.name


# ---------------------------------------------------------------------------
# the planned compiler against the naive reference compiler


def test_generated_terms_match_reference_terms():
    rng = random.Random(26)
    for _ in range(3000):
        s = random_structure(rng.choice(("part", "fusion")), rng.randint(1, 4), rng)
        t, a = random_pterm(rng, rng.randint(0, 3)), _random_assignment(rng, s.n)
        ev, env = Evaluator(s), semantics._env_of(s, a)
        fn = semantics.compiled_term(t)[0]
        assert fn.__code__.co_filename.startswith("<gemcheck-term-")
        assert fn(ev.ctx, env) == reference_term(t)(ev.ctx, env), (s, t, a)
        assert ev.term(t, a) == {i for i in range(s.n) if fn(ev.ctx, env) >> i & 1}


def _reference_eval(ev, f, a=None):
    env = semantics._env_of(ev.ctx.structure, a)
    return reference_compile(f)(ev.ctx, env)


def _plural_guard(rng):
    """``F(YY, w)`` or ``YY eq T``: a guard a plural quantifier can range over."""
    var = PVar(rng.choice(PVARS[:3]))
    if rng.random() < 0.5:
        return FusionAtom(var, rng.choice(IVARS[:3]))
    t = random_pterm(rng, 1)
    return TermEq(var, t) if rng.random() < 0.5 else TermEq(t, var)


def _right_conj(fs):
    """``f1 and (f2 and (... and fm))``, nested right."""
    out = fs[-1]
    for g in reversed(fs[:-1]):
        out = And(g, out)
    return out


def _random_block(rng, depth=1):
    """A block of like quantifiers over guards, the shape the planner splits.

    Universal: ``forall ... . A1 and ... and Am -> C``; existential:
    ``exists ... . A1 and ... and Am``.  Variables come from small pools
    so that guards mention them often; some get restricting bounds.  Some
    guards are plural guards, and the last part may be a nested block,
    which a bit-parallel variable of this one can reach.
    """
    draw = rng.random()
    universal = draw < 0.5
    parts = [_plural_guard(rng) if rng.random() < 0.3
             else random_formula(rng, rng.randrange(2))
             for _ in range(rng.randrange(1, 5))]
    if depth and rng.random() < 0.3:
        parts[-1] = _random_block(rng, depth - 1)
    guards, body = parts[:-1], parts[-1]
    # conjunctions nest left, as parsed, or right, which the planner keeps
    # as one guard; a second bit of the first draw chooses, so that the
    # random stream, and every input drawn from it, stays as it was
    conj = semantics._conj if draw * 4 % 2 < 1 else _right_conj
    if universal and guards:
        body = Implies(conj(guards), body)
    elif guards:
        body = conj(parts)
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


def _close_universally(rng, f, rebind=False):
    """``f`` under a leading universal block binding its free variables.

    The block's order is random, and some variables get a bound built
    from the variables bound before them.  With ``rebind`` one variable is
    bound once more further in, so a witness prefix stops there.
    """
    iv, pv = free_vars(f)
    names = sorted(iv | pv)
    rng.shuffle(names)
    if rebind and names:
        k = rng.randrange(len(names))
        names.insert(rng.randrange(k + 1, len(names) + 1), names[k])
    for i, v in reversed(list(enumerate(names))):
        earlier = [w for w in names[:i] if w.isupper()]
        bound = None
        if earlier and rng.random() < 0.3:
            bound = PVar(rng.choice(earlier))
        f = (ForallI if v.islower() else ForallP)(v, f, bound)
    return f


def _random_witnesses_match_reference(rng, trials, rebind=False):
    """Check random sentences under ``_close_universally``'s prefix against
    the reference; return how many of them were refuted."""
    refuted = 0
    for _ in range(trials):
        s = _random_structure_of_reach(rng)
        ev = Evaluator(s)
        f = _random_formula_or_block(rng)
        iv, pv = free_vars(f)
        if max(s.n, 1) ** (len(iv) + rebind) * 2 ** (s.n * (len(pv) + rebind)) > 4096:
            continue
        f = _close_universally(rng, f, rebind)
        w = ev.find_witness(f)
        assert w == reference_witness(ev, f), (s, print_formula(f))
        if w is not None:
            assert ev.refutes(f, w)
            refuted += 1
    return refuted


def test_witness_matches_reference_on_random_sentences():
    assert _random_witnesses_match_reference(random.Random(99), 1000) > 100


def test_witness_matches_reference_on_random_rebinding_prefixes():
    assert _random_witnesses_match_reference(random.Random(41), 600, rebind=True) > 50


def _reference_refutes(ev, sentence, witness):
    """``Evaluator.refutes`` by the written-order reference, reading the
    sentence itself: True if the body is false under the prefix the witness
    binds, False if it is true, None if a value lies outside its
    quantifier's domain under the values outside it."""
    env = semantics._env_of(ev.ctx.structure, witness)
    prefix, body = [], sentence
    while isinstance(body, (ForallI, ForallP)) and body.var in env.keys() - {q.var for q in prefix}:
        prefix.append(body)
        body = body.body
    for k, q in enumerate(prefix):
        outer = {v: x for v, x in env.items() if v not in {p.var for p in prefix[k:]}}
        if env[q.var] not in reference_domain(q)(ev.ctx, outer):
            return None
    return not reference_compile(body)(ev.ctx, env)


def test_refutes_matches_the_reference_on_every_kind_of_witness():
    # witnesses binding a strict prefix of the block, one name more, a value
    # out of range, or any values in range, so some outside their bound
    rng = random.Random(34)
    sentences = [parse(text) for text in _REBINDING_PREFIXES + [
        "forall XX . forall ZZ sub XX . exists z in ZZ . P(z, z)",
        "forall XX . forall y . forall x in U(XX + I(y)) . x = y"]]
    seen = set()
    for _ in range(500):
        s = _random_structure_of_reach(rng)
        f = rng.choice(sentences) if rng.random() < 0.5 else _close_universally(
            rng, _random_formula_or_block(rng), rebind=rng.random() < 0.3)
        names, q = [], f
        while isinstance(q, (ForallI, ForallP)) and q.var not in names:
            names.append(q.var)
            q = q.body
        if not (names and s.n):
            continue
        kind = rng.choice(("strict", "extra", "range", "any"))
        values = {v: rng.randrange(s.n) if v.islower() else
                  frozenset(i for i in range(s.n) if rng.random() < 0.5)
                  for v in (names[:rng.randrange(len(names))] if kind == "strict" else names)}
        if kind == "extra":
            values["extra"] = rng.randrange(s.n)
        elif kind == "range":
            v = rng.choice(names)
            values[v] = s.n if v.islower() else frozenset({s.n})
        witness = Assignment({v: x for v, x in values.items() if v.islower()},
                             {v: x for v, x in values.items() if not v.islower()})
        ev = Evaluator(s)
        try:
            expected = _reference_refutes(ev, f, witness)
        except EvalError:
            with pytest.raises(EvalError):
                ev.refutes(f, witness)
            seen.add((kind, "error"))
            continue
        assert ev.refutes(f, witness) == bool(expected), (s, print_formula(f), witness)
        seen.add((kind, expected))
    assert seen == {(kind, outcome) for kind in ("strict", "extra", "any")
                    for outcome in (True, False, None)} | {("range", "error")}


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
        assert ev.find_witness(f) == reference_witness(ev, f), s


def test_registry_matches_reference_on_canonical_models():
    k2 = canonical_gem(2)
    registries = (gem_f(), gem_p(), pp_axioms(), lemma_suite())
    for s in (k2, induced_fusion(k2)):
        ev = Evaluator(s)
        for t in registries:
            for nf in t:
                assert ev.eval(nf.sentence) == _reference_eval(ev, nf.sentence), nf.name
                assert ev.find_witness(nf.sentence) == \
                    reference_witness(ev, nf.sentence), nf.name


def test_registry_witnesses_match_reference_on_random_structures():
    rng = random.Random(5)
    registries = (gem_f(), gem_p(), pp_axioms(), lemma_suite())
    for _ in range(60):
        ev = Evaluator(_random_structure_of_reach(rng))
        for t in registries:
            for nf in t:
                assert ev.find_witness(nf.sentence) == \
                    reference_witness(ev, nf.sentence), nf.name


_REBINDING_PREFIXES = [
    "forall y . forall z in I(y) . forall y . P(z, y) -> z = y",
    "forall XX . forall y in XX . forall XX sub U(I(y)) . y in XX -> F(XX, y)",
    "forall x . forall YY sub U(I(x)) . forall x . x in YY or O(x, x)",
]


def test_one_witness_plan_serves_every_structure():
    # each sentence's witness search is generated once, from the sentence
    # alone, and then only run: on structures of every size and both kinds,
    # in either order, its witnesses must be the written-order reference ones
    rng = random.Random(14)
    sentences = [nf.sentence for t in (gem_f(), gem_p(), pp_axioms(), lemma_suite())
                 for nf in t]
    sentences += [parse(text) for text in _REBINDING_PREFIXES]
    structures = [random_structure(kind, n, rng) for n in range(5)
                  for kind in ("part", "fusion") for _ in range(2)]
    for order in (structures, structures[::-1]):
        for f in sentences:
            vars(f).pop("_witness", None)
        plans = {f: semantics._witness_search(f) for f in sentences}
        refuted = 0
        for s in order:
            ev = Evaluator(s)
            for f in sentences:
                w = ev.find_witness(f)
                assert w == reference_witness(ev, f), (s, print_formula(f))
                refuted += w is not None
        assert all(semantics._witness_search(f) is plan for f, plan in plans.items())
        assert refuted > 200


# the leading block's plan of every registry sentence: its loop variables in
# binding order, then the bit-parallel one.  Breaking ties by written order
# where binding neither variable lets a plural take a pushed domain keeps
# comp_F and gem_p's fun_F in written order; an individual-before-plural
# tie-break bound x before ZZ in both.  The lemma fun_F binds x first, so
# that ZZ ranges over fpre(x)
_REGISTRY_PLANS = {
    "exists_F": (["ZZ"], None), "approx_F": (["XX", "YY"], "z"), "id_F": (["x"], "y"),
    "ext_F": (["x", "ZZ", "YY", "UU"], "v"), "comp_F": (["ZZ", "x"], "y"),
    "wsp_F": (["x"], "y"), "ref_P": (["x"], None), "antis_P": (["x"], "y"),
    "trans_P": (["x", "y"], "z"), "gem_p fun_F": (["ZZ", "x"], "y"),
    "as_PP": (["x"], "y"), "trans_PP": (["x", "y"], "z"), "dfP_PP": (["x"], "y"),
    "FIx": (["x"], None), "P_F2": (["x"], "y"), "lemmas fun_F": (["x", "ZZ"], "y"),
    "cltosum": (["ZZ"], "x"), "FUIx": (["x"], None), "sumtocl": (["ZZ"], "x"),
    "defUP": (["ZZ"], "x"), "WSP": (["x"], "y"), "F_P_Mub": (["ZZ"], "x"),
    "defPF": (["x"], "y"), "defUF": (["ZZ"], "x"),
}


def test_registry_plans_are_pinned():
    # every distinct registry sentence: its plan, and the one function that
    # decides it, the witness search where the plan keeps written order
    plans = {}
    for t in (gem_f(), gem_p(), pp_axioms(), lemma_suite()):
        for nf in t:
            key = f"{t.name} {nf.name}" if nf.name == "fun_F" else nf.name
            order, _, _, inner, _, written = semantics._plan_block(nf.sentence)
            plan = ([q.var for q in order], inner and inner.var)
            assert plans.setdefault(key, plan) == plan, key  # a name restated alike
            decider = semantics._decider(nf.sentence).__name__  # of the generated function
            assert decider == ("formula" if written is None else "witness"), key
            assert (written is None) == (key in ("ext_F", "lemmas fun_F")), key
    assert plans == _REGISTRY_PLANS


# ---------------------------------------------------------------------------
# hazards for the generated source: names, rebinding, depth, empty domains

_HAZARD_NAMES = [
    # individuals that are keywords, builtins or generated locals, then plurals
    dict(zip(IVARS + PVARS, ["if", "lambda", "ctx", "env", "cand", "v0",
                             "True", "None", "False", "V0", "ÉÉ", "Env"])),
    dict(zip(IVARS + PVARS, ["é", "part1", "n", "full", "down", "t0",
                             "X", "C1", "Ctx", "EVAL", "Lambda", "Ü"])),
]


def _renamed(f, names):
    """``f`` with every variable renamed through ``names``."""
    pattern = r"\b(" + "|".join(names) + r")\b"
    return parse(re.sub(pattern, lambda m: names[m.group(1)], print_formula(f)))


def _hazard_structures(rng):
    yield PartStructure.from_pairs(0, ())
    yield FusionStructure.from_pairs(0, ())
    for _ in range(12):
        yield _random_structure_of_reach(rng)


def _assert_matches_reference(f, structures, a=None):
    for s in structures:
        ev = Evaluator(s)
        assert ev.eval(f, a) == _reference_eval(ev, f, a), (s, f, a)
        if a is None:
            assert ev.find_witness(f) == reference_witness(ev, f), (s, f)


@pytest.mark.parametrize("names", _HAZARD_NAMES)
def test_hazardous_names_match_reference(names):
    rng = random.Random(17)
    for _ in range(150):
        f = _renamed(_random_formula_or_block(rng), names)
        a = _random_assignment(rng, 3)
        a = Assignment({names[v]: i for v, i in a.individuals.items()},
                       {names[v]: m for v, m in a.plurals.items()})
        _assert_matches_reference(f, [random_structure(kind, 3, rng)
                                      for kind in ("part", "fusion")], a)
        structures = list(_hazard_structures(rng))
        iv, pv = free_vars(f)
        if len(iv) + len(pv) <= 3:
            _assert_matches_reference(_close_universally(rng, f), structures)


@pytest.mark.parametrize("text", [
    "forall if . forall lambda . P(if, lambda) and P(lambda, if) -> if = lambda",
    "forall ctx . exists env . PP(ctx, env) or (forall cand . P(cand, ctx))",
    "forall v0 . forall V0 . v0 in V0 -> (exists v1 . F(V0, v1) and P(v0, v1))",
    "forall None . forall True sub None . exists False . False eq True + None",
    "forall é . exists ÉÉ . é in ÉÉ and F(ÉÉ, é) and (forall x in ÉÉ . O(x, é))",
    "forall x . (exists x . P(x, x)) and P(x, x)",
    "forall x . exists YY sub I(x) . exists x . x in YY and P(x, x)",
    "forall y . forall ZZ sub U(I(y)) . forall y . F(ZZ, y) -> y in ZZ",
    "forall XX . forall x in XX . forall XX sub U(I(x)) . F(XX, x) or x in XX",
])
def test_hazard_sentences_match_reference(text):
    f = parse(text)
    rng = random.Random(text)
    structures = [canonical_gem(2)] + list(_hazard_structures(rng))
    _assert_matches_reference(f, structures)
    # formula text stays out of the source: every local is generated
    code = semantics.compiled(f)[0].__code__
    assert all(v in ("ctx", "env") + semantics._TABLES or re.fullmatch(r"[vtc]\d+", v)
               for v in code.co_varnames), code.co_varnames
    source = "".join(linecache.getlines(code.co_filename))
    assert not {"lambda", "é", "ÉÉ"} & set(re.findall(r"\w+", source))


def _alternating(depth, chained):
    """A ``depth``-deep nest alternating ``forall`` and ``exists``.

    Chained, each variable ranges over the singleton of the one before,
    so the nest is cheap to evaluate on any structure.
    """
    body = parse(f"P(x0, x{depth - 1}) or P(x{depth - 1}, x{depth // 2})")
    for i in reversed(range(depth)):
        bound = Singleton(f"x{i - 1}") if chained and i else None
        body = (ForallI if i % 2 == 0 else ExistsI)(f"x{i}", body, bound)
    return body


@pytest.mark.parametrize("chained", [True, False])
def test_deep_nests_match_reference(chained):
    f = _alternating(30, chained)
    rng = random.Random(30)
    structures = [s for s in _hazard_structures(rng) if chained or s.n <= 1]
    structures += [PartStructure.from_pairs(1, [(0, 0)]), canonical_gem(2)] if chained else []
    _assert_matches_reference(f, structures)
    wide = _right_conj([_alternating(3, False)] * 40)  # 40 nested ifs
    _assert_matches_reference(wide, structures)
    # one block of 24 loops, each over the singleton of the one before
    block = parse("forall y0 . " + " . ".join(f"forall y{i} in I(y{i - 1})" for i in range(1, 24))
                  + " . P(y0, y1) and P(y22, y23) -> P(y1, y0) or P(y23, y22)")
    _assert_matches_reference(block, structures)
    # long quantifier-free bodies, in atoms that do not lift bit-parallel:
    # 60 connectives of every kind nested both left and right, deep enough
    # to be split; a left-nested chain of 250 operands of "or"
    texts = ("P(x, x)", "O(x, x)", "F(I(x), x)", "x in I(x)")
    mixed = parse(texts[0])
    for i in range(60):
        a, cls = parse(texts[i % 4]), (Not, And, Or, Implies, Iff)[i % 5]
        mixed = Not(mixed) if cls is Not else cls(mixed, a) if i % 2 else cls(a, mixed)
    _assert_matches_reference(ForallI("x", mixed), structures)
    _assert_matches_reference(parse("forall x . " + " or ".join((texts * 63)[:250])), structures)
    # left-nested chains of 250 operands of "or" and of "and" that lift
    # bit-parallel in y, narrowing one mask operand by operand
    lifted = ("P(x, y)", "O(y, x)", "PP(y, x)", "x = y", "F(I(x), y)")
    for op in (" or ", " and "):
        _assert_matches_reference(parse("forall x . forall y . " + op.join((lifted * 50)[:250])),
                                  structures)
    # a union of 250 singletons, which only precedence-aware terms keep
    # below the compiler's limit on nested parentheses
    _assert_matches_reference(parse("forall x . x in " + " + ".join(["I(x)"] * 250)), structures)


@pytest.mark.parametrize("operands", [400, 1000])
def test_long_lifted_chains_match_their_two_operand_form(operands):
    # repeating the operands of "or", of "and" or of the guards changes
    # nothing (nor of "<->" here, where both operands are true); every pass
    # of the compiler walks a chain without recursion, lifted bit-parallel
    # or not, in evaluation and in the witness search alike
    shapes = [  # (prefix, connective, operands, conclusion)
        ("forall x . forall y . ", " or ", ["P(x, x)", "O(x, x)"], ""),
        ("forall x . forall y . ", " or ", ["P(x, y)", "O(y, x)"], ""),
        ("forall x . forall y . ", " and ", ["P(x, y)", "O(y, x)"], " -> P(x, x)"),
        ("forall z . exists x . exists y . ", " and ", ["P(x, y)", "O(y, x)"], ""),
        ("forall x . forall y . ", " <-> ", ["P(x, x)", "O(x, x)"], ""),
    ]
    verdicts, witnesses = [], []
    for prefix, op, pair, conclusion in shapes:
        chain, two = (parse(prefix + op.join(pair * k) + conclusion)
                      for k in (operands // 2, 1))
        for s in (canonical_gem(2), PartStructure.from_pairs(1, [(0, 0)])):
            ev = Evaluator(s)
            verdicts.append(ev.eval(chain))
            assert verdicts[-1] == ev.eval(two), (op, pair, s)
            witnesses.append(ev.find_witness(chain))
            assert witnesses[-1] == ev.find_witness(two), (op, pair, s)
    # only the lifted "or" chain is false, on the canonical model at x = 0, y = 1
    assert verdicts == [True, True, False] + [True] * 7
    assert [w for w in witnesses if w is not None] == [Assignment({"x": 0, "y": 1})]
    # an even number of negations changes nothing either; built as nodes,
    # since the parser reads fewer than 1 000
    for two in (parse("forall x . forall y . P(x, x)"), parse("forall x . forall y . P(x, y)")):
        body = two.body.body
        for _ in range(operands):
            body = Not(body)
        chain = ForallI("x", ForallI("y", body))
        for s in (canonical_gem(2), PartStructure.from_pairs(1, [(0, 0)])):
            ev = Evaluator(s)
            assert (ev.eval(chain), ev.find_witness(chain)) == (ev.eval(two), ev.find_witness(two))


def test_right_nested_implications_match_their_two_operand_form():
    # every pass reads a right-nested "->" chain as its guards and conclusion,
    # as it reads a universal body: near the parser's limit on nesting, the
    # chain "A -> ... -> A -> C" has the verdicts and witnesses of "A -> C",
    # in an existential body that does not lift in x, so its loop tests the
    # chain, and in one lifted bit-parallel in y
    rng = random.Random(70)
    structures = [canonical_gem(2), PartStructure.from_pairs(1, [(0, 0)])]
    structures += [random_structure(kind, n, rng) for n in (1, 2, 3) for kind in ("part", "fusion")]
    refuted = 0
    for prefix, a, c in (("forall YY . exists x . ", "O(x, x)", "F(YY + I(x), x)"),
                         ("forall x . exists y . ", "P(x, y)", "PP(y, x)")):
        chain = parse(prefix + " -> ".join([a] * 899 + [c]))
        two = parse(f"{prefix}{a} -> {c}")
        for s in structures:
            ev = Evaluator(s)
            assert ev.eval(chain) == ev.eval(two), (c, s)
            witness = ev.find_witness(two)
            assert ev.find_witness(chain) == witness, (c, s)
            refuted += witness is not None
    assert refuted == 3


@pytest.mark.parametrize("right, left", [
    ("forall x . forall y . forall YY . P(x, y) and (F(YY, x) and P(y, x)) -> O(x, y)",
     "forall x . forall y . forall YY . P(x, y) and F(YY, x) and P(y, x) -> O(x, y)"),
    ("forall x . forall y . exists YY . P(x, y) and (YY eq I(x) and P(y, x))",
     "forall x . forall y . exists YY . P(x, y) and YY eq I(x) and P(y, x)"),
    ("forall x . forall y . forall YY . P(x, y) and (YY eq I(x) and (P(y, x) and O(x, x)))"
     " -> O(x, y)",
     "forall x . forall y . forall YY . P(x, y) and YY eq I(x) and P(y, x) and O(x, x) -> O(x, y)"),
])
def test_guards_nested_right_are_planned_as_nested_left(right, left):
    # parentheses hide no guard from the planner: the plural ranges over
    # fpre(x) or the one value of I(x), never over all 2^n masks
    sources = []
    for f in (parse(right), parse(left)):
        code = semantics.compiled(f)[0].__code__
        sources.append("".join(linecache.getlines(code.co_filename)))
    assert sources[0] == sources[1]
    assert "range(1 << n)" not in sources[0]
    _assert_matches_reference(parse(right), [canonical_gem(2), canonical_gem(3)])


def test_generated_source_is_registered_for_tracebacks():
    f = gem_p().get("trans_P").sentence
    fn = semantics.compiled(f)[0]
    filename = fn.__code__.co_filename
    assert re.fullmatch(r"<gemcheck-formula-\d+>", filename)
    assert linecache.getline(filename, 1) == "def formula(ctx, env):\n"
    assert "for " in linecache.getline(filename, fn.__code__.co_firstlineno + 5)
    g = parse("P(x, y) and not (exists z . PP(z, x))")
    with pytest.raises(KeyError) as err:
        semantics.compiled(g)[0](Evaluator(canonical_gem(2)).ctx, {"x": 0})
    frame = traceback.extract_tb(err.value.__traceback__)[-1]
    assert frame.filename.startswith("<gemcheck-formula-")
    assert frame.line == "v1 = env['y']"


def _compile_and_drop(text):
    """Compile, evaluate and witness a freshly parsed sentence; return a weak
    reference to it and the ``linecache`` entries its compiling added."""
    before = set(linecache.cache)
    f = parse(text)
    ev = Evaluator(canonical_gem(2))
    assert not ev.eval(f) and ev.find_witness(f) is not None
    return weakref.ref(f), set(linecache.cache) - before


def test_compiled_code_and_its_source_go_with_the_formula():
    # the compiled function lives on the formula, and its source in
    # linecache only as long as the function: nothing keeps either alive
    ref, sources = _compile_and_drop(
        "forall x . forall YY sub U(I(x)) . exists y in YY . not P(x, y) or x = y")
    assert sources and all(re.fullmatch(r"<gemcheck-(formula|witness)-\d+>", s)
                           for s in sources)
    # the witness search is generated and kept the same way
    assert any(s.startswith("<gemcheck-witness-") for s in sources)
    gc.collect()
    assert ref() is None
    assert sources.isdisjoint(linecache.cache)
