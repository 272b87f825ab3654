import os
import pickle
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import gemcheck
from gemcheck import parse, print_formula
from gemcheck.syntax import (INDIVIDUAL, QUANTIFIERS, And, Eq, ExistsP,
                             ForallI, FusionAtom, Implies, Not, ParseError,
                             PartAtom, PInter, PUnion, Singleton, SortError,
                             SubTerm, PVar, free_vars)
from gemcheck.theory import theory_by_name, theory_names

from util import (random_formula, random_pterm, reference_free_vars,
                  reference_term_free_ivars, reference_term_free_pvars)


def test_parse_ref_p():
    assert parse("forall x . P(x,x)") == ForallI("x", PartAtom("x", "x"))


def test_parse_id_f():
    got = parse("forall x . forall y . (F(I(y), x) -> x = y)")
    want = ForallI("x", ForallI("y", Implies(FusionAtom(Singleton("y"), "x"),
                                             Eq("x", "y"))))
    assert got == want


def test_sort_errors():
    with pytest.raises(SortError):
        parse("P(x, YY)")
    with pytest.raises(SortError):
        parse("x sub YY")
    with pytest.raises(SortError):
        parse("XX in YY")
    with pytest.raises(SortError):
        parse("F(x, y)")
    with pytest.raises(SortError):
        parse("forall x sub YY . P(x, x)")
    with pytest.raises(SortError):
        parse("forall XX in YY . XX sub YY")


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse("forall x .\n P(x,, x)")
    assert e.value.line == 2
    assert not isinstance(e.value, SortError)


def test_reserved_names_rejected():
    with pytest.raises(ParseError):
        parse("forall F . P(F, F)")
    with pytest.raises(ParseError):
        parse("forall in . P(in, in)")


def test_precedence():
    f = parse("P(x,y) -> O(x,y) -> x = y")
    assert isinstance(f, Implies) and isinstance(f.right, Implies)
    g = parse("not P(x,y) and O(x,y) or x = y")
    # not > and > or
    assert g == parse("((not P(x,y)) and O(x,y)) or (x = y)")
    h = parse("XX + YY & ZZ sub XX")
    assert h == SubTerm(PUnion(PVar("XX"), PInter(PVar("YY"), PVar("ZZ"))),
                        PVar("XX"))


def test_quantifier_scope_extends_right():
    f = parse("forall x . P(x,x) and O(x,x)")
    assert isinstance(f, ForallI) and isinstance(f.body, And)
    g = parse("(forall x . P(x,x)) and O(y,y)")
    assert isinstance(g, And)


def test_restricted_sugar_preserved():
    f = parse("exists VV sub U(ZZ) . F(VV, x)")
    assert isinstance(f, ExistsP) and f.bound is not None
    assert print_formula(f) == "exists VV sub U(ZZ) . F(VV, x)"


def test_not_equals_round_trip():
    f = parse("not x = y")
    assert isinstance(f, Not)
    assert parse(print_formula(f)) == f


def test_registry_round_trip():
    for name in theory_names():
        for nf in theory_by_name(name):
            assert parse(print_formula(nf.sentence)) == nf.sentence, nf.name


def test_random_round_trip():
    rng = random.Random(12345)
    for _ in range(1000):
        f = random_formula(rng, rng.randrange(7))
        assert parse(print_formula(f)) == f


def test_cached_hash_does_not_cross_a_pickle():
    # string hashes are randomized per interpreter, so a node unpickled
    # under another hash seed must hash as that interpreter's own parse does;
    # it carries no cached free variables either, only its fields
    text = "forall ZZ . ((exists x . x in ZZ) -> (exists y . F(ZZ + I(x), y)))"
    f = parse(text)
    hash(f), free_vars(f)  # fill the caches before pickling
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    script = ("import pickle, sys\n"
              "from dataclasses import fields\n"
              "from gemcheck import parse\n"
              "f = pickle.loads(sys.stdin.buffer.read())\n"
              "bare = vars(f).keys() == {fl.name for fl in fields(f)}\n"
              "g = parse(sys.argv[1])\n"
              "print(hash('ZZ'), bare, hash(f) == hash(g), f == g, {g: 1}.get(f))\n")
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=str(Path(gemcheck.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script, text], input=pickle.dumps(f),
                         env=env, capture_output=True, check=True).stdout.split()
    assert int(out[0]) != hash("ZZ")  # the two interpreters really differ
    assert out[1:] == [b"True", b"True", b"True", b"1"]


def _with_own_bound(q):
    """The quantifier ``q`` with a bound that mentions its own variable."""
    own = Singleton(q.var) if isinstance(q, INDIVIDUAL) else PVar(q.var)
    return replace(q, bound=own if q.bound is None else PUnion(q.bound, own))


def test_free_vars_matches_the_case_by_case_reference():
    rng = random.Random(808)
    formulas = [nf.sentence for name in theory_names() for nf in theory_by_name(name)]
    owned = 0
    for _ in range(3000):
        f = random_formula(rng, rng.randrange(7))
        if isinstance(f, QUANTIFIERS) and rng.random() < 0.5:
            f = _with_own_bound(f)
            owned += 1
        formulas.append(f)
    assert owned > 300
    for f in formulas:
        assert free_vars(f) == reference_free_vars(f), f
        assert free_vars(f) is free_vars(f)  # cached on the node
    for _ in range(1000):
        t = random_pterm(rng, rng.randrange(5))
        assert free_vars(t) == (reference_term_free_ivars(t),
                                reference_term_free_pvars(t)), t
