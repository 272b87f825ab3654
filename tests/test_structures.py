import pickle
import random
from dataclasses import fields

import pytest

from gemcheck import (Assignment, CapacityError, FusionStructure, PartStructure,
                      StructureFormatError, canonical_gem, check_theory, components,
                      dump_structure, gem_f, gem_p, induced_fusion,
                      induced_part, load_structure, mub, parse)
from gemcheck.semantics import Evaluator
from gemcheck.search import code_of, filter_models, random_structure, structure_from_code
from gemcheck.structures import summarize

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
        assert vars(back) == {f.name: getattr(s, f.name) for f in fields(s)}
        assert back == s and repr(back) == repr(s)

