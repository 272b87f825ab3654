import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gemcheck
from gemcheck import (Assignment, CapacityError, FusionStructure, PartStructure,
                      StructureFormatError, Theory, canonical_gem, check_theory, components,
                      dump_structure, gem_f, gem_p, induced_fusion,
                      induced_part, load_structure, mub, native, parse)
from gemcheck.semantics import Evaluator, ObligationVerdict
from gemcheck.search import (CheckReport, SearchBounds, code_of, filter_models, random_structure,
                             structure_from_code)
from gemcheck import structures
from gemcheck.structures import fusion_rows_from_parts, mask_of, overlap_masks, summarize
from gemcheck.syntax import Eq, ForallI, NamedFormula, PartAtom

from util import all_structures, fusion_pairs, oracle_fuses, part_pairs


def test_canonical_small():
    assert canonical_gem(0) == PartStructure(0, ())
    assert canonical_gem(1) == PartStructure.from_pairs(1, {(0, 0)})
    k2 = canonical_gem(2)
    assert k2.n == 3
    assert part_pairs(k2) == frozenset({(0, 0), (1, 1), (2, 2), (0, 2), (1, 2)})
    assert k2.down == (0b001, 0b010, 0b111)


def test_canonical_k2_satisfies_gem_p():
    ev = Evaluator(canonical_gem(2))
    for nf in gem_p():
        assert ev.eval(nf.sentence), nf.name


def test_canonical_k3_satisfies_gem_p():
    ev = Evaluator(canonical_gem(3))
    for nf in gem_p():
        assert ev.eval(nf.sentence), nf.name


def test_canonical_capacity():
    with pytest.raises(CapacityError):
        canonical_gem(11)  # 2047 elements
    # the largest canonical model the evaluator takes has 15 elements
    assert canonical_gem(4).n == 15
    with pytest.raises(CapacityError, match=r"^formula evaluation needs 2\^31 pluralities$"):
        canonical_gem(5)


def test_literal_size_limit():
    # every literal is evaluated, so a size the evaluator refuses is refused
    # on loading, before any row is allocated
    for relation in ("part:", "fusion:"):
        assert load_structure(f"n=16\n{relation}\n").n == 16
        with pytest.raises(CapacityError, match=r"^formula evaluation needs 2\^17 pluralities$"):
            load_structure(f"n=17\n{relation}\n")


def test_canonical_negative_k():
    with pytest.raises(ValueError, match="k must be >= 0"):
        canonical_gem(-1)


def test_structure_validation():
    with pytest.raises(ValueError, match=r"pair \(0,2\) out of domain 0..1"):
        PartStructure.from_pairs(2, {(0, 2)})
    with pytest.raises(ValueError, match=r"fusion pair \(\{1\},0\) out of domain"):
        FusionStructure.from_pairs(1, {(frozenset({1}), 0)})
    # the plurality prints in the literal syntax, members ascending
    with pytest.raises(ValueError, match=r"^fusion pair \(\{\},0\) out of domain$"):
        FusionStructure.from_pairs(0, {(frozenset(), 0)})
    with pytest.raises(ValueError, match=r"^fusion pair \(\{0,5\},1\) out of domain$"):
        FusionStructure.from_pairs(2, {(frozenset({5, 0}), 1)})
    with pytest.raises(ValueError, match="domain size must be >= 0"):
        PartStructure.from_pairs(-1, ())


def test_mask_tuples_are_validated():
    for bad in ((1,), (1, 2, 4), (4, 2), (-1, 2), [1, 2], (1, "2")):
        with pytest.raises(ValueError):
            PartStructure(2, bad)
    for bad in ((0,), (0, 1, 1), (0, 2), (0, -1), [0, 1]):
        with pytest.raises(ValueError):
            FusionStructure(1, bad)
    assert PartStructure(2, (1, 3)) == PartStructure.from_pairs(2, {(0, 0), (0, 1), (1, 1)})
    assert FusionStructure(1, (0, 1)) == FusionStructure.from_pairs(1, {(frozenset({0}), 0)})


def test_fusion_capacity():
    with pytest.raises(CapacityError):
        FusionStructure(17, ())
    with pytest.raises(CapacityError):
        FusionStructure.from_pairs(17, ())
    assert FusionStructure(16, (0,) * (1 << 16)).n == 16


def test_literal_and_code_round_trips():
    for kind, top in (("part", 3), ("fusion", 2)):
        for n in range(top + 1):
            for code, s in enumerate(all_structures(kind, n)):
                assert load_structure(dump_structure(s)) == s
                assert code_of(structure_from_code(kind, n, code)) == code


def _sorted_literal(s):
    """The literal of ``s`` rendered from its pairs sorted here, the order
    ``dump_structure`` writes without sorting."""
    if isinstance(s, PartStructure):
        toks = ["part:"] + [f"({x},{y})" for x, y in sorted(part_pairs(s))]
    else:
        pairs = sorted((sum(1 << i for i in zz), x) for zz, x in fusion_pairs(s))
        toks = ["fusion:"] + ["({%s},%d)" % (",".join(str(i) for i in range(s.n) if p >> i & 1), x)
                              for p, x in pairs]
    return f"n={s.n}\n" + " ".join(toks) + "\n"


def test_literals_list_pairs_in_sorted_order():
    cases = [s for kind, top in (("part", 3), ("fusion", 2))
             for n in range(top + 1) for s in all_structures(kind, n)]
    rng = random.Random(30)
    cases += [random_structure(kind, n, rng) for kind, n in (("part", 4), ("part", 5), ("fusion", 3))
              for _ in range(300)]
    for s in cases:
        assert dump_structure(s) == _sorted_literal(s)


def test_member_tables_render_and_witness_as_members_of():
    # the shared tables against what they replace: fusion literals as
    # rendered pair by pair from iter_bits, and witness plurals as members_of
    rng = random.Random(35)
    cases = [s for n in range(3) for s in all_structures("fusion", n)]
    cases += [random_structure("fusion", n, rng) for n in (3, 4) for _ in range(100)]
    for s in cases:
        pairs = [structures._fusion_pair(structures.iter_bits(p), x)
                 for p, r in enumerate(s.rows) for x in structures.iter_bits(r)]
        text = dump_structure(s)
        assert text == " ".join([f"n={s.n}\nfusion:", *pairs]) + "\n"
        assert load_structure(text) == s
    for n in range(6):
        bits = structures._bit_table(n)
        assert [frozenset(bits[m]) for m in range(1 << n)] == [
            structures.members_of(m) for m in range(1 << n)]
    plurals = 0
    for s in cases[:60] + [random_structure("part", n, rng) for n in (2, 3, 4) for _ in range(20)]:
        ev = Evaluator(s)
        for nf in (*gem_f(), *gem_p()):
            witness = ev.check(nf).witness
            for zz in (witness.plurals.values() if witness is not None else ()):
                assert type(zz) is frozenset and zz == structures.members_of(mask_of(zz))
                plurals += 1
    assert plurals > 100


def test_induced_part_examples():
    fs = FusionStructure.from_pairs(1, [({0}, 0)])
    assert induced_part(fs) == PartStructure.from_pairs(1, {(0, 0)})
    assert induced_part(FusionStructure.from_pairs(2, ())) == \
        PartStructure.from_pairs(2, ())


def test_induced_fusion_canonical_k2():
    fs = induced_fusion(canonical_gem(2))
    # frozen from expanding the closure conditions by hand: every nonempty
    # plurality fuses to its least upper bound in the inclusion order
    expected = {
        (frozenset({0}), 0), (frozenset({1}), 1), (frozenset({2}), 2),
        (frozenset({0, 1}), 2), (frozenset({0, 2}), 2),
        (frozenset({1, 2}), 2), (frozenset({0, 1, 2}), 2),
    }
    assert fusion_pairs(fs) == frozenset(expected)
    for zz, x in expected:
        assert oracle_fuses(3, part_pairs(canonical_gem(2)), zz, x)


def test_induced_fusion_one_element():
    ps = PartStructure.from_pairs(1, {(0, 0)})
    assert fusion_pairs(induced_fusion(ps)) == frozenset({(frozenset({0}), 0)})


def test_induced_fusion_antichain():
    ps = PartStructure.from_pairs(2, [(0, 0), (1, 1)])
    fs = induced_fusion(ps)
    assert not any(zz == frozenset({0, 1}) for (zz, _) in fusion_pairs(fs))


def test_induced_fusion_empty_plurality_needs_partless_element():
    # an irreflexive point has no parts, so the empty plurality fuses to it
    ps = PartStructure.from_pairs(1, ())
    fs = induced_fusion(ps)
    assert (frozenset(), 0) in fusion_pairs(fs)
    reflexive = PartStructure.from_pairs(1, {(0, 0)})
    assert not any(not zz for (zz, _) in fusion_pairs(induced_fusion(reflexive)))


def test_closure_condition_rows_match_the_native_oracle():
    # the table walks only the submasks of down[x]; native derives it naively
    rng = random.Random(26)
    cases = [canonical_gem(k) for k in range(4)]
    cases += [random_structure("part", rng.randint(0, 5), rng) for _ in range(600)]
    # sparse and dense relations, where whole rows are empty or full
    cases += [PartStructure(n, tuple(sum(1 << x for x in range(n) if rng.random() < density)
                                     for _ in range(n)))
              for n in range(6) for density in (0.1, 0.3, 0.7, 0.9) for _ in range(30)]
    for ps in cases:
        down = list(ps.down)
        assert (fusion_rows_from_parts(ps.n, down, overlap_masks(ps.n, down))
                == native.part_tables(ps.n, down).frow), ps


def test_overlap_and_proper_part():
    ev = Evaluator(canonical_gem(2))

    def holds(atom, x, y):
        return ev.eval(parse(f"{atom}(x, y)"), Assignment(individuals={"x": x, "y": y}))
    assert not holds("O", 0, 1)
    assert holds("O", 0, 2)
    assert all(holds("O", x, x) for x in range(3))
    assert holds("PP", 0, 2)
    assert not holds("PP", 2, 2)
    assert not holds("PP", 0, 1)


def test_components_examples():
    k2 = canonical_gem(2)
    assert components(k2, frozenset()) == frozenset()
    assert components(k2, {2}) == frozenset({0, 1, 2})
    fs = FusionStructure.from_pairs(1, [({0}, 0)])
    assert components(fs, frozenset()) == frozenset()
    assert components(fs, {0}) == frozenset({0})


def test_mub_examples():
    k2 = canonical_gem(2)
    assert mub(k2, frozenset()) == frozenset()
    assert mub(k2, {0, 1}) == frozenset({2})
    one = PartStructure.from_pairs(1, {(0, 0)})
    assert mub(one, {0}) == frozenset({0})


def test_mub_matches_induced_fusion_on_models():
    for n in range(4):
        for m in filter_models("part", n, gem_p()):
            fs = induced_fusion(m)
            for p in range(1 << n):
                zz = frozenset(i for i in range(n) if (p >> i) & 1)
                fused = {x for (yy, x) in fusion_pairs(fs) if yy == zz}
                assert mub(m, zz) == fused, (m, zz)


def test_unique_fusion_on_models():
    for n in range(4):
        for m in filter_models("part", n, gem_p()):
            fs = induced_fusion(m)
            for p in range(1, 1 << n):
                zz = frozenset(i for i in range(n) if (p >> i) & 1)
                assert sum(1 for (yy, _) in fusion_pairs(fs) if yy == zz) == 1


def test_round_trips_on_models():
    for n in range(4):
        for m in filter_models("part", n, gem_p()):
            assert induced_part(induced_fusion(m)) == m
        for fs in filter_models("fusion", n, gem_f()):
            assert induced_fusion(induced_part(fs)) == fs


def test_canonical_round_trip():
    for k in (0, 1, 2, 3):
        m = canonical_gem(k)
        assert induced_part(induced_fusion(m)) == m


def test_file_format_round_trip():
    for s in (canonical_gem(2), induced_fusion(canonical_gem(2)),
              PartStructure.from_pairs(0, ()), FusionStructure.from_pairs(2, ()),
              FusionStructure.from_pairs(2, [(frozenset(), 1), ({0, 1}, 0)])):
        assert load_structure(dump_structure(s)) == s


@pytest.mark.parametrize("text, literal", [
    # repeated members and pairs, in any order, read back once
    ("n=2\nfusion: ({1,1,0},1) ({},0)", "n=2\nfusion: ({},0) ({0,1},1)\n"),
    ("n=3 part: (2,1) (0,0) (2,1) (1,2)", "n=3\npart: (0,0) (1,2) (2,1)\n"),
])
def test_literals_are_written_in_one_order(text, literal):
    assert dump_structure(load_structure(text)) == literal


def test_file_format_errors():
    with pytest.raises(StructureFormatError):
        load_structure("part: (0,0)")
    with pytest.raises(StructureFormatError):
        load_structure("n=2\nridges: (0,0)")
    with pytest.raises(StructureFormatError):
        load_structure("n=2\npart: (0,2)(1)")
    with pytest.raises(StructureFormatError):
        load_structure("n=1\nfusion: ({2},0)")


@pytest.mark.parametrize("text, message", [
    ("n=x\npart: (0,0)", "bad domain size 'x'"),
    ("n=1\nfusion: (0,0)", "bad fusion pair '(0,0)'"),
    # ASCII digits only, as dump_structure writes them
    ("n=1_0\npart: (0,0)", "bad domain size '1_0'"),
    ("n=+2\npart: (0,0)", "bad domain size '+2'"),
    ("n=\u0663\npart: (0,0)", "bad domain size '\u0663'"),
    ("n=2\npart: (\u0660,\u0661)", "bad part pair '(\u0660,\u0661)'"),
    ("n=-1\npart:", "bad domain size '-1'"),
    # an empty member and leading zeros name the token, not int()'s text
    ("n=2\nfusion: ({0,,1},0)", "bad fusion pair '({0,,1},0)'"),
    ("n=2\nfusion: ({,},0)", "bad fusion pair '({,},0)'"),
    ("n=00\npart:", "bad domain size '00'"),
    ("n=2\npart: (01,0)", "bad part pair '(01,0)'"),
    ("n=2\nfusion: ({01},0)", "bad fusion pair '({01},0)'"),
    # every token is read before any pair's range is checked
    ("n=2\npart: (0,5) (x)", "bad part pair '(x)'"),
    ("n=2\nfusion: ({7},0) ({0},0", "bad fusion pair '({0},0'"),
])
def test_file_format_error_messages(text, message):
    with pytest.raises(StructureFormatError) as e:
        load_structure(text)
    assert str(e.value) == message


def test_derived_values_stay_out_of_equality_hash_repr_and_pickles():
    # the evaluation context and the summary are kept on the instance but
    # outside its fields: nothing compares, hashes, prints or pickles them
    rng = random.Random(3)
    for kind, n in (("part", 3), ("part", 4), ("fusion", 2), ("fusion", 3)):
        s = random_structure(kind, n, rng)
        check_theory(s, gem_p() if kind == "part" else gem_f())
        summarize(s)
        assert {"_context", "_summary"} <= vars(s).keys()
        copy = load_structure(dump_structure(s))
        assert s == copy and hash(s) == hash(copy) and repr(s) == repr(copy)
        back = pickle.loads(pickle.dumps(s))
        assert vars(back) == {name: getattr(s, name) for name in s.__match_args__}
        assert back == s and repr(back) == repr(s)



# ---------------------------------------------------------------------------
# the record contract of ``_Derived``, shared by nodes, structures and theories

def test_records_compare_by_type_before_fields():
    # equal field values hash alike, but records of two classes never compare equal
    assert hash(Eq("x", "y")) == hash(PartAtom("x", "y"))
    assert Eq("x", "y") != PartAtom("x", "y")
    assert Eq("x", "y") == Eq("x", "y") and Eq("x", "y") != Eq("y", "x")
    assert PartStructure(1, (1,)) != FusionStructure(0, (0,))


def test_records_are_built_positionally_from_their_fields():
    body = PartAtom("x", "x")
    assert ForallI("x", body).bound is None
    assert ForallI("x", body) == ForallI("x", body, None)
    assert ForallI.__match_args__ == ("var", "body", "bound")
    assert Theory.__match_args__ == ("name", "obligations")
    for build in (lambda: ForallI("x"), lambda: ForallI("x", body, None, None),
                  lambda: PartStructure(1), lambda: Eq("x")):
        with pytest.raises(TypeError):
            build()
    with pytest.raises(ValueError):  # the validation still runs
        PartStructure(1, (2,))


def test_records_refuse_setting_and_deleting_fields():
    for record, name in ((parse("forall x . P(x, x)"), "var"), (PartStructure(1, (1,)), "n"),
                         (gem_f(), "name")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.other = 1


def test_record_reprs_are_pinned():
    f = parse("forall x in I(y) . not x = y")
    assert repr(f) == ("ForallI(var='x', body=Not(body=Eq(left='x', right='y')), "
                       "bound=Singleton(var='y'))")
    assert repr(PartStructure(1, (1,))) == "PartStructure(n=1, down=(1,))"
    assert repr(FusionStructure(1, (0, 1))) == "FusionStructure(n=1, rows=(0, 1))"
    t = Theory("t", (NamedFormula("ref", parse("forall x . P(x, x)"), "a"),))
    assert repr(t) == ("Theory(name='t', obligations=(NamedFormula(name='ref', "
                       "sentence=ForallI(var='x', body=PartAtom(left='x', right='x'), "
                       "bound=None), anchor='a', side=None),))")


def test_records_deep_copy_and_pickle_their_fields_only():
    t = gem_f()
    check_theory(load_structure("n=1\nfusion: ({0},0)\n"), t)  # builds its route
    assert "_route" in vars(t)
    back = pickle.loads(pickle.dumps(t))
    assert vars(back).keys() == {"name", "obligations"}
    assert back == t and repr(back) == repr(t)
    for record in (t, t.obligations[0].sentence, canonical_gem(2)):
        assert copy.deepcopy(record) == record


def test_verdict_and_report_reprs_are_pinned():
    # as the dataclasses these records were printed
    a = Assignment({"x": 0}, {"XX": frozenset({1})})
    assert repr(a) == "Assignment(individuals={'x': 0}, plurals={'XX': frozenset({1})})"
    assert repr(ObligationVerdict("ext_F", False, a)) == (
        "ObligationVerdict(name='ext_F', passed=False, witness=Assignment("
        "individuals={'x': 0}, plurals={'XX': frozenset({1})}))")
    assert repr(SearchBounds(max_n_part=5)) == (
        "SearchBounds(max_n_part=5, max_n_fusion=3, random_samples=10000, seed=0)")
    report = CheckReport("gem_p", "part", 1, "n=1 part: (0,0)",
                         (ObligationVerdict("ref_P", True),), 0)
    assert repr(report) == ("CheckReport(theory='gem_p', kind='part', n=1, "
                            "structure='n=1 part: (0,0)', results=(ObligationVerdict("
                            "name='ref_P', passed=True, witness=None),), elapsed_ms=0)")


def test_records_are_built_by_keyword_and_from_class_defaults():
    assert SearchBounds() == SearchBounds(4, 3, 10000, 0)
    assert SearchBounds(seed=2, max_n_part=5) == SearchBounds(5, 3, 10000, 2)
    assert ObligationVerdict(name="a", passed=True) == ObligationVerdict("a", True, None)
    assert NamedFormula("ref", Eq("x", "x"), anchor="a").side is None
    assert PartStructure(down=(1,), n=1) == PartStructure(1, (1,))
    assert ForallI("x", body=Eq("x", "y")) == ForallI("x", Eq("x", "y"), None)
    assert Assignment(plurals={"XX": frozenset()}) == Assignment({}, {"XX": frozenset()})
    with pytest.raises(ValueError):  # __post_init__ runs on keyword construction too
        SearchBounds(seed=0, random_samples=-1)


def test_assignments_get_fresh_dicts():
    a, b = Assignment(), Assignment()
    assert a == b == Assignment({}, {})
    assert a.individuals is not b.individuals and a.plurals is not b.plurals
    a.individuals["x"] = 0
    assert b.individuals == {} and Assignment().individuals == {}


def test_records_refuse_unknown_and_missing_fields():
    for build in (lambda: SearchBounds(max_n=3), lambda: ObligationVerdict("a"),
                  lambda: ObligationVerdict("a", passed=True, verdict=None),
                  lambda: Assignment(bindings={}), lambda: NamedFormula("a", Eq("x", "x")),
                  lambda: CheckReport("gem_p", "part", 1, "", ()),
                  lambda: PartStructure(n=1, rows=(1,)), lambda: ForallI(var="x")):
        with pytest.raises(TypeError):
            build()


def test_verdicts_and_reports_refuse_setting_fields():
    report = CheckReport("gem_p", "part", 1, "", (), 0)
    for record, name in ((Assignment(), "plurals"), (ObligationVerdict("a", True), "passed"),
                         (SearchBounds(), "seed"), (report, "elapsed_ms"),
                         (NamedFormula("a", Eq("x", "x"), "b"), "side")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_node_hashes_are_the_same_in_every_interpreter():
    # None hashes by its address before Python 3.12, so a field left None
    # must not reach the hash: under one hash seed, two interpreters agree
    script = ("from gemcheck.syntax import Eq, ForallI, NamedFormula\n"
              "f = ForallI('x', Eq('x', 'y'))\n"
              "print(hash(f), hash(NamedFormula('n', f, 'a')))\n")
    env = dict(os.environ, PYTHONHASHSEED="7",
               PYTHONPATH=str(Path(gemcheck.__file__).parents[1]))
    runs = [subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                           check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1] and len(runs[0].split()) == 2
