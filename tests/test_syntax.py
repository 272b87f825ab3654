import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gemcheck
from gemcheck import export, parse, print_formula, semantics, syntax
from gemcheck.structures import _Derived
from gemcheck.syntax import (INDIVIDUAL, QUANTIFIERS, And, Eq, ExistsP,
                             ForallI, FusionAtom, Iff, Implies, Not, Or,
                             OverlapAtom, ParseError, PartAtom, PInter, PUnion,
                             Singleton, SortError, SubTerm, PVar, _tokenize,
                             free_vars)
from gemcheck.theory import parse_theory_text, theory_by_name, theory_names

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


@pytest.mark.parametrize("text, message", [
    ("forall x P(x, x)", "1:10: expected '.', got 'P'"),
    ("forall . P(x, x)", "1:8: expected a variable after quantifier"),
    ("x y", "1:3: expected '=' or 'in' after individual variable 'x'"),
    ("x = y and )", "1:11: cannot start an atom with ')'"),
    ("XX sub )", "1:8: plural term expected, got ')'"),
    ("x = y z", "1:7: trailing input 'z'"),
    # both readings of "(" fail; the formula reading's error is the one raised
    ("(x = )", "1:6: individual variable expected, got ')'"),
    ("(x = y", "1:7: expected ')', got '<eof>'"),  # an unclosed group
    ("XX", "1:3: expected 'sub' or 'eq' after a plural term"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message and not isinstance(e.value, SortError)


@pytest.mark.parametrize("text, message, sort", [
    # a parenthesized formula heading a term atom is read as a plural term
    ("(x = y) sub XX", "1:2: plural term expected, got individual 'x'", True),
    ("(P(x,y)) + XX sub YY", "1:2: plural term expected, got 'P'", False),
])
def test_a_group_before_term_syntax_is_read_as_a_term(text, message, sort):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message and isinstance(e.value, SortError) == sort


def test_parse_errors_survive_a_pickle():
    # as a pool worker would hand them back: same type, message and place,
    # also for a theory file's error placed under the theory's name
    errors = [ParseError("m", 1, 2), SortError("plural term expected", 3, 4)]
    for text in ("bad : forall x . P(x,, x)\n", "a : P(x, YY)\n"):
        with pytest.raises(ParseError) as e:
            parse_theory_text("demo", text)
        errors.append(e.value)
    for e in errors:
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is type(e)
        assert (str(back), back.msg, back.line, back.col) == (str(e), e.msg, e.line, e.col)
    assert str(errors[-1]).startswith("demo:1:") and type(errors[-1]) is SortError


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


# the module docstring's precedence lists, loosest to tightest, with each
# word's node; only "->" groups to the right
CONNECTIVES = [("<->", Iff), ("->", Implies), ("or", Or), ("and", And)]
TERM_OPERATORS = [("+", PUnion), ("&", PInter)]
RIGHT_ASSOCIATIVE = {"->"}
# (text, tree) of three operands, and how a term becomes a formula
SORTS = {"connectives": (CONNECTIVES, [("P(x, y)", PartAtom("x", "y")),
                                       ("O(y, z)", OverlapAtom("y", "z")),
                                       ("x = z", Eq("x", "z"))], "", lambda f: f),
         "terms": (TERM_OPERATORS, [("XX", PVar("XX")), ("YY", PVar("YY")),
                                    ("I(x)", Singleton("x"))],
                   " sub WW", lambda t: SubTerm(t, PVar("WW")))}


@pytest.mark.parametrize("sort, op1, op2", [
    pytest.param(sort, op1, op2, id=f"{op1} {op2}")
    for sort, (levels, *_) in SORTS.items()
    for (op1, _), (op2, _) in itertools.product(levels, repeat=2)])
def test_every_operator_pair_groups_as_documented(sort, op1, op2):
    levels, operands, suffix, wrap = SORTS[sort]
    (a, fa), (b, fb), (c, fc) = operands
    words, node = [w for w, _ in levels], dict(levels)
    first = node[op1](fa, node[op2](fb, fc))  # a op1 (b op2 c)
    last = node[op2](node[op1](fa, fb), fc)  # (a op1 b) op2 c
    tighter = words.index(op2) > words.index(op1)
    documented = first if tighter or op1 == op2 and op1 in RIGHT_ASSOCIATIVE else last
    text = f"{a} {op1} {b} {op2} {c}{suffix}"
    assert parse(text) == wrap(documented)
    assert print_formula(wrap(documented)) == text  # no parentheses added
    for tree in (first, last):
        assert parse(print_formula(wrap(tree))) == wrap(tree)
    if sort == "connectives":  # not binds tighter than every connective
        assert parse(f"not {a} {op1} {b}") == node[op1](Not(fa), fb)


@pytest.mark.parametrize("prefix", ["(", "P(x, x) and (",
                                    "P(x, x) <-> P(x, x) -> P(x, x) or P(x, x) and ("])
def test_deep_nesting_parses_and_too_deep_is_a_parse_error(prefix):
    text = prefix * 150 + "x = y" + ")" * 150
    assert parse(print_formula(parse(text))) == parse(text)
    assert export.encode(parse(text)).count("(Vx = Vy)") == 1
    # refused at the token after the group that passes the limit; the groups
    # are paired in one pass, so 3 000 of them are read in linear time
    with pytest.raises(ParseError, match="formula nested too deeply") as refused:
        parse(prefix * 3000 + "x = y" + ")" * 3000)
    assert (refused.value.line, refused.value.col) == (1, syntax.MAX_NESTING * len(prefix) + 1)


def test_long_chains_compare_and_hash_without_recursion():
    # ``==`` and ``hash`` walk a chain of one operator in a loop, as printing
    # and export do, so two separately parsed copies compare and hash equal
    text = " or ".join(["P(x, x)"] * 2000)
    a, b = parse(text), parse(text)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != parse(text.replace("P(x, x)", "P(x, y)", 1))


@pytest.mark.parametrize("text", [" or ".join(["P(x, x)"] * 2000),
                                  " -> ".join(["P(x, x)"] * 2000),
                                  " + ".join(["XX"] * 2000) + " sub YY"],
                         ids=["or", "implies", "union"])
def test_long_chains_print_and_encode(text):
    # a chain of one operator is walked in a loop on the side it nests (the
    # right for "->", the left for the others), no frame per operand
    f = parse(text)
    assert print_formula(f) == text
    assert export.encode(f).count("Vx,Vx" if "P(" in text else "Wxx") == 2000


def _parse_outcome(text: str):
    """The parsed tree of ``text`` in preorder, walked without recursion, or
    the (message, line, column) of its parse error."""
    try:
        stack, nodes = [parse(text)], []
    except ParseError as e:
        return e.msg, e.line, e.col
    while stack:
        node = stack.pop()
        if isinstance(node, _Derived):
            nodes.append(type(node).__name__)
            stack += reversed(node._values())
        else:
            nodes.append(node)
    return nodes


def _called_deeper(frames: int, fn):
    return fn() if frames == 0 else _called_deeper(frames - 1, fn)


def test_parse_reads_the_same_texts_from_a_deeper_caller():
    # nesting is refused past one fixed depth, counting the formula and each
    # parenthesis, quantifier body, not, plural term and U(...) around a
    # token, and operator chains cost no recursion, so a caller 200 frames
    # deeper gets the same tree, or the same error at the same place
    limit = syntax.MAX_NESTING
    nested = []  # (text, its levels), each shape at the limit and one past it
    for k in (limit - 1, limit):  # the formula and k levels more
        nested += [(prefix * k + "x = y" + ")" * k, k + 1) for prefix in (
            "(", "P(x, x) and (", "P(x, x) <-> P(x, x) -> P(x, x) or P(x, x) and (")]
        nested += [(word * k + "x = x", k + 1) for word in ("exists x . ", "not ")]
        # a quantifier body and the term inside F(...) besides
        nested += [(f"forall x . F({former * (k - 2)}I(x){')' * (k - 2)}, x)", k + 1)
                   for former in ("U(", "(")]
    chains = ["exists x . " + " -> ".join(["P(x, x)"] * 900), " or ".join(["P(x, x)"] * 5000),
              "forall XX . " + " + ".join(["XX"] * 5000) + " sub XX"]
    texts = [text for text, _ in nested] + chains
    outcomes = [_parse_outcome(text) for text in texts]
    assert [isinstance(o, tuple) and o[0] for o in outcomes] == [
        levels > limit and "formula nested too deeply" for _, levels in nested] + [False] * 3
    for text, outcome in zip(texts, outcomes):
        assert _called_deeper(200, lambda: _parse_outcome(text)) == outcome, text[:40]


def test_quantifier_scope_extends_right():
    f = parse("forall x . P(x,x) and O(x,x)")
    assert isinstance(f, ForallI) and isinstance(f.body, And)
    g = parse("(forall x . P(x,x)) and O(y,y)")
    assert isinstance(g, And)
    assert parse("not forall x . x = x") == Not(ForallI("x", Eq("x", "x")))


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
    # it carries no cached free variables or compiled code either (a
    # generated function cannot be pickled), only its fields
    text = "forall ZZ . ((exists x . x in ZZ) -> (exists y . F(ZZ + I(x), y)))"
    f = parse(text)
    hash(f), free_vars(f)  # fill the caches before pickling
    semantics.compiled(f), semantics._witness_search(f)
    assert {"_hash", "_free", "_compiled", "_witness"} <= vars(f).keys()
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    script = ("import pickle, sys\n"
              "from gemcheck import parse\n"
              "f = pickle.loads(sys.stdin.buffer.read())\n"
              "bare = vars(f).keys() == set(f.__match_args__)\n"
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
    return type(q)(q.var, q.body, own if q.bound is None else PUnion(q.bound, own))


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


def test_token_positions():
    # a tab is one column; a comment does not advance the column, which
    # shows only at an end of input right after it
    assert _tokenize("\tforall\tx .\tP(x,\tx)") == [
        ("forall", 1, 2), ("x", 1, 9), (".", 1, 11), ("P", 1, 13), ("(", 1, 14),
        ("x", 1, 15), (",", 1, 16), ("x", 1, 18), (")", 1, 19), ("<eof>", 1, 20)]
    assert _tokenize("P(x, x)  # trailing note")[-2:] == [(")", 1, 7), ("<eof>", 1, 10)]
    assert _tokenize("# heading\nforall x . # why\n  P(x, x)") == [
        ("forall", 2, 1), ("x", 2, 8), (".", 2, 10), ("P", 3, 3), ("(", 3, 4),
        ("x", 3, 5), (",", 3, 6), ("x", 3, 8), (")", 3, 9), ("<eof>", 3, 10)]
    assert _tokenize("forall éx . P(éx, é²)")[-4:] == [
        (",", 1, 17), ("é²", 1, 19), (")", 1, 21), ("<eof>", 1, 22)]


@pytest.mark.parametrize("text, line, col, char", [
    ("forall é . P(é, é) $", 1, 20, "$"),
    ("\t\té?", 1, 4, "?"),
    ("forall x .\n\tÉÉ sub ÉÉ ; x", 2, 12, ";"),
    ("x2 = 1y", 1, 6, "1"),
    ("a ² b", 1, 3, "²"),
    ("A <- B", 1, 3, "<"),
    ("x - y", 1, 3, "-"),
])
def test_unexpected_character_position(text, line, col, char):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.line, e.value.col) == (line, col)
    assert str(e.value) == f"{line}:{col}: unexpected character {char!r}"
