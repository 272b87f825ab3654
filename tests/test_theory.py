import json
from importlib import resources
from pathlib import Path

import pytest

from gemcheck import (FusionStructure, PartStructure, canonical_gem, gem_f,
                      gem_p, induced_fusion, lemma_suite, pp_axioms,
                      theory_by_name)
from gemcheck import theory
from gemcheck.export import emit_obligation
from gemcheck.semantics import Evaluator
from gemcheck.syntax import NamedFormula, ParseError, SortError, parse, print_formula
from gemcheck.theory import (COVERAGE, Theory, UnknownNameError, find_named,
                             theory_names)


def test_axiom_counts():
    assert len(gem_f().obligations) == 6
    assert gem_f().names() == ["exists_F", "approx_F", "id_F", "ext_F",
                               "comp_F", "wsp_F"]
    assert len(gem_p().obligations) == 5
    assert gem_p().names() == ["ref_P", "antis_P", "trans_P", "exists_F", "fun_F"]
    assert len(pp_axioms().obligations) == 3


def test_each_registry_sentence_text_is_parsed_once():
    # a lemma restating an axiom word for word shares the axiom's object
    # (and so its compiled code); every distinct sentence is one object
    axioms = {nf.name: nf.sentence for t in (gem_f(), gem_p()) for nf in t}
    restated = ["ref_P", "antis_P", "trans_P", "id_F", "ext_F", "comp_F", "wsp_F",
                "approx_F"]
    assert all(lemma_suite().get(name).sentence is axioms[name] for name in restated)
    sentences = [nf.sentence for name in theory_names() for nf in theory_by_name(name)]
    assert len(sentences) == 33
    assert len({id(f) for f in sentences}) == len({print_formula(f) for f in sentences}) == 25


def test_anchors_nonempty():
    for name in theory_names():
        for nf in theory_by_name(name):
            assert nf.anchor


def test_lemma_sides():
    sides = {nf.name: nf.side for nf in lemma_suite()}
    assert sides["FIx"] == "gem_f"
    assert sides["sumtocl"] == "gem_f"
    assert sides["defUP"] == "gem_f"
    assert sides["WSP"] == "gem_p"
    assert sides["defUF"] == "gem_p"
    assert sides["ext_F"] == "gem_p"


def test_canonical_models_satisfy_their_theories():
    ev = Evaluator(canonical_gem(2))
    assert all(ev.eval(nf.sentence) for nf in gem_p())
    ev = Evaluator(induced_fusion(canonical_gem(2)))
    assert all(ev.eval(nf.sentence) for nf in gem_f())


def test_two_chain_fails_fun_f():
    chain = PartStructure.from_pairs(2, [(0, 0), (1, 1), (0, 1)])
    ev = Evaluator(chain)
    verdicts = {nf.name: ev.eval(nf.sentence) for nf in gem_p()}
    assert verdicts == {"ref_P": True, "antis_P": True, "trans_P": True,
                        "exists_F": True, "fun_F": False}


def test_antichain_fails_exists_f():
    anti = PartStructure.from_pairs(2, [(0, 0), (1, 1)])
    ev = Evaluator(anti)
    assert not ev.eval(gem_p().get("exists_F").sentence)


def test_pp_presentation_identity_exhaustive_n2():
    order = [gem_p().get(n).sentence for n in ("ref_P", "antis_P", "trans_P")]
    pres = [nf.sentence for nf in pp_axioms()]
    for n in range(3):
        for code in range(1 << (n * n)):
            pairs = [(x, y) for x in range(n) for y in range(n)
                     if (code >> (x * n + y)) & 1]
            ev = Evaluator(PartStructure.from_pairs(n, pairs))
            assert (all(ev.eval(f) for f in order)
                    == all(ev.eval(f) for f in pres)), pairs


def test_asymmetry_fails_on_symmetric_pair():
    sym = PartStructure.from_pairs(2, [(0, 0), (1, 1), (0, 1), (1, 0)])
    assert not Evaluator(sym).eval(pp_axioms().get("as_PP").sentence)


def test_empty_domain_satisfies_everything():
    for s in (PartStructure.from_pairs(0, ()), FusionStructure.from_pairs(0, ())):
        ev = Evaluator(s)
        for name in theory_names():
            assert all(ev.eval(nf.sentence) for nf in theory_by_name(name))


def test_lemmas_scoped_to_models():
    # P_F2 can fail on structures that are not models; the suite only
    # claims it on gem_f models, so a failure here is not a lemma failure
    junk = FusionStructure.from_pairs(2, [({0, 1}, 0)])
    ev = Evaluator(junk)
    assert not ev.eval(gem_f().get("exists_F").sentence)
    assert not ev.eval(lemma_suite().get("P_F2").sentence)


def test_theory_lookup_and_drop():
    with pytest.raises(UnknownNameError):
        theory_by_name("nope")
    t = gem_f().drop("wsp_F")
    assert len(t.obligations) == 5 and "wsp_F" not in t.names()
    with pytest.raises(UnknownNameError):
        gem_f().drop("nope")
    with pytest.raises(UnknownNameError):
        gem_f().get("nope")
    assert find_named("FUIx", "gem_p").side == "gem_f"
    with pytest.raises(UnknownNameError):
        find_named("nope", "gem_f")


def test_find_named_prefers_the_side():
    assert find_named("fun_F", "gem_f") == lemma_suite().get("fun_F")
    assert find_named("fun_F", "gem_p") == gem_p().get("fun_F")
    assert lemma_suite().get("fun_F").sentence != gem_p().get("fun_F").sentence
    assert find_named("ref_P", "gem_f") == lemma_suite().get("ref_P")
    assert find_named("id_F", "gem_p") == lemma_suite().get("id_F")
    assert find_named("id_F", "gem_f") == gem_f().get("id_F")


def test_builder_key_error_is_not_an_unknown_name(monkeypatch):
    def broken():
        return {}["missing"]
    monkeypatch.setitem(theory._THEORY_BUILDERS, "broken", broken)
    with pytest.raises(KeyError) as info:
        theory_by_name("broken")
    assert not isinstance(info.value, UnknownNameError)


def test_theory_validation():
    nf = NamedFormula("a", parse("forall x . P(x, x)"), "t")
    with pytest.raises(ValueError):
        Theory("bad", (nf, nf))
    with pytest.raises(ValueError):
        Theory("open", (NamedFormula("b", parse("P(x, y)"), "t"),))


def test_coverage_registry_complete():
    # every display-tagged formula of the source axiomatizations is mapped
    expected = {
        "I", "cup", "cap", "are", "approx",
        "exists_F", "approx_F", "ext_F", "id_F", "comp_F", "wsp_F",
        "dfU_F", "dfP_F",
        "as_PP", "trans_PP", "dfF_P", "dfP_PP", "dfO",
        "ref_P", "antis_P", "trans_P", "fun_F", "dfPP_P",
        "FIx", "P_F2", "lemmartrant", "cltosum", "FUIx", "sumtocl",
        "WSP", "F_P_Mub", "dfMub", "dfU_P", "zzstar",
        "defPF", "defUF", "defUP",
    }
    assert set(COVERAGE) == expected
    lemma_names = set(lemma_suite().names())
    for key, (role, where) in COVERAGE.items():
        if role == "axiom":
            for tname in where.split("+"):
                assert key in theory_by_name(tname).names(), key
        elif role == "lemma" and key in lemma_names:
            assert lemma_suite().get(key).side in where


def registry_dump() -> str:
    """Every registry entry and every TPTP problem, as stable JSON text."""
    registry = {name: [{"name": nf.name, "side": nf.side, "anchor": nf.anchor,
                        "sentence": print_formula(nf.sentence)}
                       for nf in theory_by_name(name)]
                for name in theory_names()}
    tptp = {nf.name: emit_obligation(nf) for nf in lemma_suite()}
    return json.dumps({"registry": registry, "tptp": tptp}, indent=2) + "\n"


def test_registry_matches_golden():
    golden = Path(__file__).parent / "golden" / "registry.json"
    assert registry_dump() == golden.read_text()


def test_every_shipped_thy_file_is_a_registry():
    shipped = resources.files("gemcheck") / "theories"
    assert theory_names() == sorted(p.name.removesuffix(".thy")
                                    for p in shipped.iterdir() if p.name.endswith(".thy"))


def test_thy_text_without_sides_or_anchors():
    t = theory.parse_theory_text("user", "# a comment\n\nrefl : forall x . P(x, x)\n"
                                         "sym : forall x . forall y . P(x, y) -> P(y, x)\n")
    assert t.names() == ["refl", "sym"]
    assert [(nf.side, nf.anchor) for nf in t] == [(None, "file")] * 2
    assert t.get("refl").sentence == parse("forall x . P(x, x)")


def test_thy_sides_and_anchors():
    t = theory.parse_theory_text("user", "a : forall x . P(x, x) ; first\n[gem_p]\n"
                                         "b : forall x . P(x, x)\n[gem_f]\n"
                                         "c : forall x . P(x, x) ; third  # comment\n")
    assert [(nf.name, nf.side, nf.anchor) for nf in t] == [
        ("a", None, "first"), ("b", "gem_p", "file"), ("c", "gem_f", "third")]
    with pytest.raises(ValueError, match="user:1"):
        theory.parse_theory_text("user", "[gem_x]\n")
    with pytest.raises(ValueError, match="user:2"):
        theory.parse_theory_text("user", "\nno formula ; anchor\n")


def test_thy_formula_errors_are_placed_in_the_file():
    # the formula's error at its file line and column, under the theory's name
    text = "# header\nok : forall x . P(x, x)\nbad : forall x . P(x,, x) ; anchor\n"
    with pytest.raises(ParseError) as e:
        theory.parse_theory_text("demo", text)
    assert str(e.value) == "demo:3:22: individual variable expected, got ','"
    assert (e.value.line, e.value.col) == (3, 22) and not isinstance(e.value, SortError)
    with pytest.raises(SortError, match=r"^user:1:13: individual variable expected, got plural"):
        theory.parse_theory_text("user", "\ta :\t  P(x, YY)\n")
