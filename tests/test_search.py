import collections
import functools
import itertools
import json
import math
import multiprocessing
import random
import time
from pathlib import Path

import pytest

from gemcheck import (Assignment, CapacityError, FusionStructure, PartStructure, Theory,
                      automorphism_count, canonical_gem, check_theory,
                      filter_models, find_countermodel, gem_f, gem_p,
                      induced_fusion, induced_part, lemma_suite,
                      list_models, native, pp_axioms, search, semantics,
                      verify_equivalence, verify_lemmas)
from gemcheck.search import (SearchBounds, _def_pf, code_of, random_structure,
                             report_json, structure_from_code)
from gemcheck.semantics import Evaluator
from gemcheck.structures import dump_structure, load_structure, summarize
from gemcheck.syntax import NamedFormula, parse
from gemcheck.theory import builtin_theory_text, parse_theory_text

from util import (all_structures, evaluator_models, labeled_models,
                  oracle_gem_p_model_codes, part_pairs, plain_row_survivors, product_models,
                  reference_compile, reference_witness, relabeled)

GOLDEN = Path(__file__).parent / "golden"


def test_enumeration_counts():
    assert sum(1 for _ in all_structures("part", 2)) == 16
    assert sum(1 for _ in all_structures("fusion", 1)) == 4
    assert sum(1 for _ in all_structures("part", 3)) == 512
    assert sum(1 for _ in all_structures("part", 0)) == 1


def test_enumeration_order_and_codes():
    for kind, n in (("part", 2), ("fusion", 1)):
        structures = list(all_structures(kind, n))
        assert [code_of(s) for s in structures] == list(range(len(structures)))
        assert len(set(structures)) == len(structures)
    # the scan, with nothing to reject, yields the whole space in code order
    assert filter_models("fusion", 1, Theory("none", ())) == list(all_structures("fusion", 1))


def test_enumeration_capacity():
    # decided on the baked product: 2^28 poset rows for gem_p at n=9 (2^21 at
    # n=8), 2^30 reflexive rows for pp at n=6, 2^29 join rows for gem_f at
    # n=9 (2^22 at n=8)
    with pytest.raises(CapacityError):
        filter_models("part", 9, gem_p())
    with pytest.raises(CapacityError):
        filter_models("part", 6, pp_axioms())
    with pytest.raises(CapacityError):
        filter_models("fusion", 9, gem_f())
    # the product is refused as soon as it passes the ceiling
    with pytest.raises(CapacityError, match="baked candidates"):
        filter_models("part", 12, Theory("none", ()))
    with pytest.raises(CapacityError, match="baked candidates"):
        filter_models("part", 13, Theory("none", ()))
    with pytest.raises(CapacityError, match="baked candidates"):
        filter_models("fusion", 8, Theory("none", ()))
    with pytest.raises(CapacityError, match="baked candidates"):
        filter_models("fusion", 9, gem_f())
    # a domain the evaluator refuses is refused before any value list is built
    for kind in ("part", "fusion"):
        with pytest.raises(CapacityError, match=r"formula evaluation needs 2\^17 pluralities"):
            filter_models(kind, 17, Theory("none", ()))


@pytest.mark.parametrize("kind,theory", [("fusion", Theory("none", ())), ("part", pp_axioms())])
def test_largest_evaluable_domain_is_refused_at_once(kind, theory):
    # at n=16 the value lists are built (one list shared by the fusion rows),
    # and the product stops as soon as it passes the ceiling
    t0 = time.monotonic()
    with pytest.raises(CapacityError, match="baked candidates"):
        filter_models(kind, 16, theory)
    assert time.monotonic() - t0 < 1


def test_fusion_4_row_search_under_the_default_ceiling():
    # join rows leave 16 candidates at fusion n=4: the poset rows of
    # elements 0, 1 and 2 take 1, 2 and 4 values, the top's row only the
    # full mask, and row 0 two values (empty or the bottom 0).  The search
    # finds no model (GEM models exist only at sizes 2^k - 1)
    allowed = search._stream("fusion", 4, gem_f())[0]
    assert [len(values) for values in allowed] == [1, 2, 4, 1, 2]
    assert math.prod(map(len, allowed)) == 16 <= search.DEFAULT_CEILING
    assert filter_models("fusion", 4, gem_f()) == []


def test_filter_models_part_against_naive_oracle():
    for n in range(4):
        expected = oracle_gem_p_model_codes(n)
        got = [code_of(m) for m in filter_models("part", n, gem_p())]
        assert got == expected, n


def test_model_counts_frozen():
    assert [len(filter_models("part", n, gem_p())) for n in range(5)] == [1, 1, 0, 3, 0]
    assert [len(filter_models("fusion", n, gem_f())) for n in range(5)] == [1, 1, 0, 3, 0]


def test_gem_p_models_at_3_are_canonical_relabelings():
    base = canonical_gem(2)
    expected = set()
    for perm in itertools.permutations(range(3)):
        expected.add(frozenset((perm[x], perm[y]) for (x, y) in part_pairs(base)))
    got = {part_pairs(m) for m in filter_models("part", 3, gem_p())}
    assert got == expected and len(got) == 3


def test_filter_native_and_pure_paths_agree():
    for kind, n in (("part", 0), ("part", 1), ("part", 2),
                    ("fusion", 1), ("fusion", 2)):
        for t in (gem_f(), gem_p(), pp_axioms(), lemma_suite()):
            fast = filter_models(kind, n, t)
            slow = evaluator_models(kind, n, t)
            assert fast == slow, (kind, n, t.name)


def order_theory():
    """ref_P, antis_P and trans_P alone: the models are the labeled posets."""
    return Theory("order", tuple(gem_p().get(name)
                                 for name in ("ref_P", "antis_P", "trans_P")))


DIFFERENTIAL_THEORIES = {
    "gem_f": gem_f, "gem_p": gem_p, "pp": pp_axioms, "lemmas": lemma_suite,
    "gem_f-ext_F": lambda: gem_f().drop("ext_F"),
    "gem_p-antis_P": lambda: gem_p().drop("antis_P"),
    "gem_p-trans_P": lambda: gem_p().drop("trans_P"),
    # poset rows, without the top-last bake and with it
    "gem_p-exists_F": lambda: gem_p().drop("exists_F"),
    "gem_p-fun_F": lambda: gem_p().drop("fun_F"),
    "order": order_theory,
}
# the product stream takes more than a few seconds (or minutes) on these
SLOW_FOR_THE_PRODUCT = {("gem_f", "part", 4), ("gem_f-ext_F", "part", 4),
                        ("gem_p", "fusion", 3), ("pp", "fusion", 3),
                        ("gem_p-antis_P", "fusion", 3), ("gem_p-trans_P", "fusion", 3),
                        ("gem_p-exists_F", "fusion", 3), ("gem_p-fun_F", "fusion", 3),
                        ("order", "fusion", 3)}


@pytest.mark.parametrize("name,kind,n", [
    (name, kind, n) for name in DIFFERENTIAL_THEORIES
    for kind, max_n in (("part", 4), ("fusion", 3)) for n in range(max_n + 1)
    if (name, kind, n) not in SLOW_FOR_THE_PRODUCT])
def test_row_search_matches_the_product_stream(name, kind, n):
    t = DIFFERENTIAL_THEORIES[name]()
    assert filter_models(kind, n, t) == product_models(kind, n, t)


def _reflexive_row_models(n, theory):
    """``filter_models`` over the reflexive part rows, the stream the poset
    rows replaced: the same row search and clauses, every labeled relation."""
    row_local, natives, _ = search._plan("part", theory)
    allowed = search._allowed_rows("part", n, row_local)
    survivors = sorted(search._scan_worker(("part", n, allowed, natives, False)), key=code_of)
    return [s for s in survivors
            if all(Evaluator(s).eval(nf.sentence) for nf in theory)]


@pytest.mark.parametrize("name", ["gem_p", "gem_p-exists_F", "order"])
def test_poset_rows_match_the_reflexive_rows_at_5(name):
    t = DIFFERENTIAL_THEORIES[name]()
    models = filter_models("part", 5, t)
    assert models == _reflexive_row_models(5, t)
    assert bool(models) == (name != "gem_p")


def test_poset_rows_count_the_posets():
    reps, labeled = [], []
    t = order_theory()
    for n in range(6):
        allowed, natives, natural, _ = search._stream("part", n, t)
        reps.append(len(search._scan_worker(("part", n, allowed, natives, natural))))
        labeled.append(len(filter_models("part", n, t)))
    assert reps == [1, 1, 2, 7, 40, 357]  # unlabeled posets, OEIS A006455
    assert labeled == [1, 1, 3, 19, 219, 4231]  # labeled posets, OEIS A001035


@pytest.mark.parametrize("name,max_n", [("gem_p", 6), ("gem_p-fun_F", 5)])
def test_top_last_keeps_every_survivor(name, max_n):
    row_local, natives, _ = search._plan("part", DIFFERENTIAL_THEORIES[name]())
    assert native.exists_f_closure in natives
    for n in range(max_n + 1):
        streams = [search._scan_worker(("part", n, search._natural_rows(n, top_last), natives,
                                        False)) for top_last in (False, True)]
        unpruned, pruned = (sorted((m for orbit in search._orbits("part", n, reps)
                                    for m in orbit), key=code_of)
                            for reps in streams)
        assert pruned == unpruned, n
        assert len(streams[1]) <= len(streams[0])


@pytest.mark.parametrize("name", ["gem_p", "gem_p-exists_F", "gem_p-fun_F", "order"])
def test_down_closed_rows_match_the_trans_p_clauses(name):
    # the poset stream holds trans_P by construction; the reference files its
    # clauses over the same natural rows and checks it at every leaf
    t = DIFFERENTIAL_THEORIES[name]()
    row_local, natives, _ = search._plan("part", t)
    for n in range(7):
        allowed, stream_natives, natural, _ = search._stream("part", n, t)
        assert natural and native.trans_p not in stream_natives
        reference = search._scan_worker(("part", n, allowed, natives, False))
        assert search._scan_worker(("part", n, allowed, stream_natives, True)) == reference, n


def test_gem_p_models_to_n_7(monkeypatch):
    assert [len(filter_models("part", n, gem_p())) for n in (5, 6)] == [0, 0]

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool for a single task")
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    # the poset stream has one value in row 0, so two workers start no pool
    models = filter_models("part", 7, gem_p(), workers=2)
    base = canonical_gem(3)
    assert len(models) == 840 == math.factorial(7) // automorphism_count(base) \
        == _labeled_gem_count(7)
    # one orbit, decided once: the relabelings of the canonical model
    [orbit] = models.orbits
    assert list(orbit) == models
    assert {part_pairs(m) for m in models} == {
        part_pairs(relabeled(base, p)) for p in itertools.permutations(range(7))}
    assert [code_of(m) for m in models] == sorted(map(code_of, models))


def test_verdicts_are_invariant_under_relabeling():
    # the poset stream's expansion is complete only because of this
    rng = random.Random(17)
    sentences = {nf.sentence: nf.name for t in (gem_f(), gem_p(), pp_axioms(), lemma_suite())
                 for nf in t}
    posets = [m for n in range(5) for m in filter_models("part", n, order_theory())]
    structures = [canonical_gem(2), induced_fusion(canonical_gem(2))]
    structures += rng.sample(posets, 30)
    structures += [random_structure("part", rng.randrange(5), rng) for _ in range(20)]
    structures += [random_structure("fusion", rng.randrange(4), rng) for _ in range(20)]
    verdicts = set()
    for s in structures:
        perm = list(range(s.n))
        rng.shuffle(perm)
        image = relabeled(s, perm)
        ev, ev_image = Evaluator(s), Evaluator(image)
        for sentence, name in sentences.items():
            verdict = ev.eval(sentence)
            assert ev_image.eval(sentence) == verdict, (name, summarize(s), perm)
            fn = native.native_for(sentence)
            if fn is not None:
                assert fn(native.tables_for(image)) == fn(native.tables_for(s)) == verdict, \
                    (name, summarize(s), perm)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_translations_commute_with_relabeling():
    # verify_equivalence decides the target once per orbit only because of this
    rng = random.Random(23)
    cases = [(m, perm) for n in range(5) for m in filter_models("part", n, gem_p())
             for perm in itertools.permutations(range(n))]
    base = canonical_gem(3)
    seen = set()
    for perm in itertools.permutations(range(7)):  # one perm per distinct image
        image = relabeled(base, perm)
        if image not in seen:
            seen.add(image)
            cases.append((base, perm))
    assert len(seen) == 840
    for m, perm in cases:
        assert induced_fusion(relabeled(m, perm)) == relabeled(induced_fusion(m), perm)
    for _ in range(200):
        n = rng.randrange(4)
        f, perm = random_structure("fusion", n, rng), rng.sample(range(n), n)
        assert induced_part(relabeled(f, perm)) == relabeled(induced_part(f), perm)
    for n in range(4):
        for f in filter_models("fusion", n, gem_f()):
            for perm in itertools.permutations(range(n)):
                assert induced_part(relabeled(f, perm)) == relabeled(induced_part(f), perm)


LABELED_CASES = [(name, "part", n) for name in ("gem_p", "gem_p-exists_F", "gem_p-fun_F", "order")
                 for n in range(6)]
LABELED_CASES += [("gem_p-fun_F", "part", 6)] + [("gem_f", "fusion", n) for n in range(4)]


@pytest.mark.parametrize("name,kind,n", LABELED_CASES)
def test_orbits_match_the_labeled_reference(name, kind, n):
    t = DIFFERENTIAL_THEORIES[name]()
    models = filter_models(kind, n, t)
    assert models == labeled_models(kind, n, t)
    # the orbits partition the models, each in code order and led by its
    # representative, and hold relabelings of it only
    assert sorted((m for orbit in models.orbits for m in orbit), key=code_of) == models
    assert [orbit[0] for orbit in models.orbits] == \
        sorted((orbit[0] for orbit in models.orbits), key=code_of)
    for orbit in models.orbits:
        assert list(orbit) == sorted(orbit, key=code_of)
        images = {relabeled(orbit[0], perm) for perm in itertools.permutations(range(n))}
        assert set(orbit) <= images


def _labeled_route(monkeypatch):
    """Make every consumer of filter_models see each labeled model as its own orbit."""
    monkeypatch.setattr(search, "filter_models",
                        lambda kind, n, theory, workers=1: labeled_models(kind, n, theory))


def test_equivalence_matches_the_labeled_reference(monkeypatch):
    bounds = SearchBounds(max_n_part=5, max_n_fusion=3)
    orbit_route = verify_equivalence(bounds).to_dict()
    # without fun_F the part side has orbits of up to 120 models whose
    # images fail the target, so every violation shows its labeled structure
    monkeypatch.setattr(search, "gem_p", lambda: gem_p().drop("fun_F"))
    weak = verify_equivalence(bounds).to_dict()
    assert [r["models"] for r in weak["part_side"]] == [1, 1, 2, 9, 72, 890]
    # only the gem_p models' images satisfy gem_f: n=0, 1 and one orbit at 3
    assert [r["fusion_axioms_pass"] for r in weak["part_side"]] == [1, 1, 0, 3, 0, 0]
    _labeled_route(monkeypatch)
    assert verify_equivalence(bounds).to_dict() == weak
    monkeypatch.undo()
    _labeled_route(monkeypatch)
    assert verify_equivalence(bounds).to_dict() == orbit_route


@pytest.mark.parametrize("name", sorted(set(lemma_suite().names()) - {"ext_F", "defUF"}))
def test_lemma_holds_on_the_15_element_canonical_model(name):
    # the largest model in reach: plural quantifiers range over 2^15 masks.
    # ext_F does not finish here and defUF takes about 18 s, so both are left out
    report = verify_lemmas(SearchBounds(max_n_part=0, max_n_fusion=0), 4, name=name)
    assert report.all_passed and len(report.rows) == 1, report.rows


def test_lemmas_and_countermodels_match_the_labeled_reference(monkeypatch):
    # over weaker theories the lemmas fail on orbits larger than one, so
    # the witnesses of every failing member are compared
    weaker = {"gem_p": order_theory, "gem_f": lambda: gem_f().drop("wsp_F")}
    monkeypatch.setattr(search, "theory_by_name", lambda side: weaker[side]())
    bounds = SearchBounds(max_n_part=4, max_n_fusion=2)
    searches = [("part", order_theory(), gem_p().get("fun_F"), bounds),
                ("part", gem_p().drop("fun_F"), gem_p().get("fun_F"), bounds),
                ("part", order_theory(), gem_p().get("exists_F"), bounds),
                ("fusion", gem_f().drop("wsp_F"), gem_f().get("wsp_F"), bounds)]

    def reports():
        return (report_json(verify_lemmas(bounds, 2).to_dict()),
                [find_countermodel(*args).to_dict() for args in searches])
    lemmas, found = reports()
    assert '"passed": false' in lemmas
    assert all(r["verdict"] == "found" for r in found)
    _labeled_route(monkeypatch)
    assert reports() == (lemmas, found)


def test_leaves_skip_the_checkers_the_search_decides(monkeypatch):
    # every ext_F clause is filed, so a checker filing them never runs at a
    # leaf; approx_F holds on masks, so it is baked like a row-local axiom
    models = filter_models("fusion", 3, gem_f())
    assert len(models) == 3
    assert native.approx_f in search._plan("fusion", gem_f())[0]

    def never(tables):
        raise AssertionError("a checker whose clauses are all filed ran at a leaf")
    sentence = gem_f().get("ext_F").sentence
    monkeypatch.setitem(native._registry(), sentence, never)
    monkeypatch.setitem(search._CLAUSES, ("fusion", never), search._ext_f_family)
    monkeypatch.setattr(search, "_PLAN_ORDER", search._PLAN_ORDER + (never,))
    assert filter_models("fusion", 3, gem_f()) == models


def test_native_and_evaluator_disagreement_raises_on_poset_rows(monkeypatch):
    def accept(tables):
        return True
    sentence = gem_p().get("fun_F").sentence
    monkeypatch.setitem(native._registry(), sentence, accept)
    monkeypatch.setattr(search, "_PLAN_ORDER", search._PLAN_ORDER + (accept,))
    assert search._stream("part", 3, gem_p())[0] == search._natural_rows(3, True)
    with pytest.raises(RuntimeError, match="native scan and evaluator disagree on fun_F"):
        filter_models("part", 3, gem_p())


def _fires_on_the_way(checks, rows):
    """Whether a check of ``checks``, a ``search._row_checks`` table, rejects
    ``rows`` while the search assigns them: each row's value goes through
    that row's checks with the later rows still unset."""
    partial = [None] * len(rows)
    for r, row_checks in enumerate(checks):
        values = [rows[r]]
        for fn, data in row_checks:
            values = fn(partial, r, values, data)
        if not values:
            return True
        partial[r] = rows[r]
    return False


# every clause family's checks, and the poset rows' down-closure alone,
# which must fire exactly where trans_P fails on the relations over those rows
@pytest.mark.parametrize("kind,name,natural", [
    *(pytest.param(kind, name, False, id=f"{kind}-{name}")
      for kind, name in sorted((kind, fn.__name__) for kind, fn in search._CLAUSES)),
    pytest.param("part", "trans_p", True, id="part-down_closure")])
def test_clauses_fire_exactly_when_their_checker_fails(kind, name, natural):
    checker = getattr(native, name)
    if natural:
        structures = [PartStructure(n, rows) for n in range(5)
                      for rows in itertools.product(*search._natural_rows(n, False))]
    else:
        rng = random.Random(31)
        exhaustive = range(4) if kind == "part" else range(3)
        structures = [s for n in exhaustive for s in all_structures(kind, n)]
        structures += [random_structure(kind, 4 if kind == "part" else 3, rng)
                       for _ in range(200)]
    checks = [search._row_checks(kind, n, [] if natural else [checker], natural)
              for n in range(5)]
    verdicts = set()
    for s in structures:
        rows = s.down if kind == "part" else s.rows
        holds = checker(native.tables_for(s))
        assert holds != _fires_on_the_way(checks[s.n], rows), summarize(s)
        verdicts.add(holds)
    assert verdicts == {True, False}


def _ext_f_checks(n):
    """Per fusion row at size n, its ext_F clauses by check: the hoisted
    ones under ``_equal_rows``, the tested ones under ``_ext_f_tests``."""
    return [dict(checks) for checks in search._row_checks("fusion", n, [native.ext_f], False)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ext_f_files_only_clauses_that_can_fire(n):
    # (ZZ, YY, UU) with UU + ZZ = UU + YY never fires; the 7^n - 5^n others
    # come in mirrored pairs (ZZ and YY swapped), each pair filed once as an
    # unordered equality, as a test or as a bound
    size = 1 << n
    directed = {(zz, yy, uu | zz, uu | yy)
                for zz, yy, uu in itertools.product(range(size), repeat=3) if uu | zz != uu | yy}
    assert len(directed) == 7 ** n - 5 ** n

    def key(zz, yy, a, b):
        return frozenset((zz, yy)), frozenset((a, b))
    clauses = []
    for r, filed in enumerate(_ext_f_checks(n)):
        # the bound first, then the tests, and no other check
        assert list(filed) == [fn for fn in (search._equal_rows, search._ext_f_tests)
                               if fn in filed]
        tests, equals = filed.get(search._ext_f_tests, []), filed.get(search._equal_rows, [])
        # tested at a premise row that is the larger side
        assert all(yy == r > max(zz, o) for zz, yy, o in tests)
        # hoisted: the premise rows and the other side come first
        assert all(max(c) < r for c in equals)
        clauses += [key(zz, yy, r, o) for zz, yy, o in tests + equals]
    assert len(clauses) == len(set(clauses)) == (7 ** n - 5 ** n) // 2
    # each directed instance is one filed clause, and each clause two instances
    assert collections.Counter(key(*c) for c in directed) == dict.fromkeys(clauses, 2)


def test_hoisted_bounds_match_every_directed_instance():
    # each ext_F instance (ZZ, YY, UU) filed at r = max(UU + ZZ, UU + YY) but
    # at neither premise row, when ZZ and YY share a fusion, bounds row r:
    # within row UU + YY if r = UU + ZZ, else containing row UU + ZZ; with
    # equal unions it says nothing and is not filed.  The bound check,
    # reading only the earlier rows, keeps exactly the values within them
    rng = random.Random(29)
    structures = [s for n in range(3) for s in all_structures("fusion", n)]
    structures += [random_structure("fusion", 3, rng) for _ in range(300)]
    filed = [_ext_f_checks(n) for n in range(4)]
    for s in structures:
        rows, size = s.rows, 1 << s.n
        expected = [[0, -1] for _ in range(size)]
        for zz, yy, uu in itertools.product(range(size), repeat=3):
            a, b = uu | zz, uu | yy
            r = max(a, b)
            if a != b and r not in (zz, yy) and rows[zz] & rows[yy]:
                if r == a:
                    expected[r][1] &= rows[b]
                else:
                    expected[r][0] |= rows[a]
        for r, ((lo, hi), checks) in enumerate(zip(expected, filed[s.n])):
            equals = checks.get(search._equal_rows, [])
            partial = list(rows[:r]) + [None] * (size - r)
            assert search._equal_rows(partial, r, list(range(size)), equals) == \
                [v for v in range(size) if v & lo == lo and not v & ~hi], (summarize(s), r)


def fusion_ext_theory():
    """id_F, exists_F and ext_F alone: the theory of the join rows."""
    return Theory("ext", tuple(gem_f().get(name) for name in ("id_F", "exists_F", "ext_F")))


# the orbits of {id_F, exists_F, ext_F} at fusion n >= 1 number L(n+1) + L(n),
# L(m) counting the unlabeled lattices on m elements: 1, 1, 1, 2, 5 for
# m = 1..5 (OEIS A006966; Heitzig & Reinhold 2002)
@pytest.mark.parametrize("theory,counts,orbits", [(gem_f, [1, 1, 0, 3, 0], [1, 1, 0, 1, 0]),
                                                  (fusion_ext_theory, [1, 2, 4, 15, 112],
                                                   [1, 2, 2, 3, 7])],
                         ids=["gem_f", "ext"])
def test_single_element_rows_match_the_plain_row_search(theory, counts, orbits):
    # the join rows, folded into fusion rows at each leaf, against the
    # search over the unbaked rows, every ext_F instance tested once its
    # rows are assigned
    t = theory()
    for n, (count, orbit_count) in enumerate(zip(counts, orbits)):
        allowed, natives, natural, rest = search._stream("fusion", n, t)
        # the poset rows with the top last, then row 0: empty or the bottom 0
        assert natural and not rest and native.ext_f not in natives
        assert allowed == search._natural_rows(n, True) + [[0, 1] if n else [0]]
        raw = search._scan_worker(("fusion", n, allowed, natives, natural))
        # each raw survivor is a natural labeling: row 0 is empty or the
        # bottom 0, every row is one element no lower than its top member,
        # and the full row is the top n-1
        for s in raw:
            assert s.rows[0] in (0, 1), summarize(s)
            assert all(s.rows[p] >> (p.bit_length() - 1) and not s.rows[p] & (s.rows[p] - 1)
                       for p in range(1, 1 << n)), summarize(s)
            assert not n or s.rows[-1] == 1 << (n - 1), summarize(s)
        models = filter_models("fusion", n, t)
        assert models == plain_row_survivors(n, t)
        assert len(models) == count and len(models.orbits) == orbit_count
        # every orbit holds a survivor, and the survivors are models
        assert all(set(orbit) & set(raw) for orbit in models.orbits)
        assert set(raw) <= set(models)


def _join_leaves(n):
    """The leaves of the {id_F, exists_F, ext_F} join rows at size n, each
    folded into fusion rows, with its native tables."""
    allowed, natives, natural, _ = search._stream("fusion", n, fusion_ext_theory())
    return [(s, native.tables_for(s))
            for s in search._scan_worker(("fusion", n, allowed, natives, natural))]


def test_join_leaves_pass_the_axioms_they_bake():
    # the join rows decide id_F, exists_F, approx_F and ext_F by
    # construction: no leaf checker runs them, so every leaf must pass them
    leaves = [leaf for n in range(6) for leaf in _join_leaves(n)]
    assert len(leaves) == 1 + 2 + 2 + 3 + 9 + 46
    for s, t in leaves:
        assert all(fn(t) for fn in (native.id_f, native.exists_f, native.ext_f,
                                    native.approx_f)), summarize(s)


def test_wsp_cut_keeps_a_leaf_exactly_when_wsp_f_passes():
    # with wsp_F decided the join rows' checks add the wsp_F cut and row 0's
    # extra condition; on every leaf of the rows without them they reject
    # the leaf's rows (its parthood, then row 0) exactly when wsp_F fails
    verdicts = set()
    for n in range(7):
        checks = search._row_checks("fusion", n, [native.wsp_f], True)
        for s, t in _join_leaves(n):
            holds = native.wsp_f(t)
            assert holds != _fires_on_the_way(checks, list(t.down) + [s.rows[0]]), summarize(s)
            verdicts.add(holds)
    assert verdicts == {True, False}


def test_filter_workers_match_serial(monkeypatch):
    pools = []
    monkeypatch.setattr(multiprocessing, "Pool",
                        lambda *a, _pool=multiprocessing.Pool: pools.append(a) or _pool(*a))
    # reflexive rows, not posets: 2^20 baked candidates start the pool
    t = pp_axioms()
    serial = filter_models("part", 5, t, workers=1)
    pooled = filter_models("part", 5, t, workers=2)
    assert pools == [(2,)]
    assert serial == pooled
    assert len(serial) == 4231  # labeled posets on five points
    # natives plus evaluator-only lemmas; without ref_P, which would be baked
    # into the rows and leave too few candidates for the pool
    t = lemma_suite().drop("ref_P")
    assert filter_models("part", 4, t, workers=2) == filter_models("part", 4, t)
    # every candidate is a model, so a pool task losing any candidate shows
    codes = [code_of(s) for s in filter_models("part", 4, Theory("none", ()), workers=2)]
    assert codes == list(range(1 << 16))
    # naturally labeled single-element rows start no pool: 4 candidates at
    # fusion n=3, 48 at n=4, 27 648 at n=5.  Without ext_F the rows are not
    # single-element, and at n=3 row 0 keeps 8 values and 19 208 candidates
    # start the pool.  The serial representatives carry their evaluation
    # contexts by then; the pooled models come back through pickles and must
    # still compare and print alike
    pools.clear()
    assert len(filter_models("fusion", 3, gem_f(), workers=2)) == 3
    assert filter_models("fusion", 4, gem_f(), workers=2) == [] and pools == []
    assert filter_models("fusion", 5, gem_f(), workers=2) == filter_models("fusion", 5, gem_f())
    assert pools == []
    t = gem_f().drop("ext_F")
    serial = filter_models("fusion", 3, t)
    assert (len(serial), len(serial.orbits)) == (10, 4)
    assert all("_context" in vars(orbit[0]) for orbit in serial.orbits)
    pooled = filter_models("fusion", 3, t, workers=2)
    assert pools == [(2,)]
    assert pooled == serial and [repr(m) for m in pooled] == [repr(m) for m in serial]


def test_pool_starts_at_most_one_process_per_task(monkeypatch):
    asked = []

    class SerialPool:
        """Records the process count asked for and maps in this process, so
        a wrong count starts no process."""

        def __init__(self, processes=None):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return list(map(fn, tasks))

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    # one task per value of row 0: 16 on pp's reflexive rows at part n=5
    serial = filter_models("part", 5, pp_axioms())
    assert asked == [] and len(serial) == 4231
    assert filter_models("part", 5, pp_axioms(), workers=10 ** 6) == serial
    assert asked == [16]
    # 8 on gem_f's rows without ext_F at fusion n=3, where row 0 is not
    # baked, and fewer workers than tasks stay
    asked.clear()
    t = gem_f().drop("ext_F")
    models = filter_models("fusion", 3, t)
    assert filter_models("fusion", 3, t, workers=10 ** 6) == models
    assert filter_models("fusion", 3, t, workers=3) == models
    assert asked == [8, 3]


def test_pp_models_are_the_partial_orders():
    # criterion 4's identity at n=5: pp scans reflexive rows, the order
    # axioms scan posets, and both list the same labeled models
    order = Theory("order", tuple(gem_p().get(name) for name in ("ref_P", "antis_P", "trans_P")))
    models = filter_models("part", 5, pp_axioms())
    assert len(models) == 4231 and models == filter_models("part", 5, order)


def test_native_and_evaluator_disagreement_raises(monkeypatch):
    def accept(tables):
        return True
    sentence = pp_axioms().get("trans_PP").sentence
    monkeypatch.setitem(native._registry(), sentence, accept)
    monkeypatch.setattr(search, "_PLAN_ORDER", search._PLAN_ORDER + (accept,))
    with pytest.raises(RuntimeError, match="native scan and evaluator disagree on trans_PP"):
        filter_models("part", 3, pp_axioms())


def test_unconfirmed_witness_raises(monkeypatch):
    # false on canonical_gem(2), where {a} is a proper part of {a, b} and
    # fuses {{a}}; the planted witness x = y = {a}, with YY empty in the
    # second, does not refute either.  It is planted in the generated search,
    # in place of each witness it finds: the search decides the first sentence
    # alone and runs after the verdict of the second, whose plan binds YY
    # after x, so that YY ranges over the masks fusing to x
    search_of = semantics._witness_search
    for text, planted in (("forall x . forall y . (P(x, y) -> x = y)", {}),
                          ("forall YY . forall x . forall y . (F(YY, x) and P(x, y) -> x = y)",
                           {"YY": frozenset()})):
        nf = NamedFormula("no_PP", parse(text), "", "gem_p")
        witness = Assignment({"x": 0, "y": 0}, planted)
        monkeypatch.setattr(semantics, "_witness_search",
                            lambda f: lambda ctx, env: search_of(f)(ctx, env) and witness)
        monkeypatch.setattr(search, "lemma_suite", lambda: Theory("lemmas", (nf,)))
        assert (semantics._decider(nf.sentence) is semantics.compiled(nf.sentence)[0]) == (
            planted != {})
        for check in (lambda: Evaluator(canonical_gem(2)).check(nf),
                      lambda: check_theory(canonical_gem(2), Theory("t", (nf,))),
                      lambda: verify_lemmas(SearchBounds(0, 0), 2)):
            with pytest.raises(RuntimeError, match="^unsound witness for no_PP; this is a bug$"):
                check()


def test_check_theory_route_matches_the_evaluator_and_the_reference():
    # every verdict and witness of the per-theory route, on random literals of
    # three seeds, is the evaluator's and the naive reference's (written-order
    # closures, backtracking witness search) on that structure, and a
    # structure checked right after a model of the theory reports as a
    # freshly loaded copy of it does
    theories = (gem_f(), gem_p(), pp_axioms(), lemma_suite())
    k2 = canonical_gem(2)
    structures = [load_structure(dump_structure(random_structure(kind, n, rng)))
                  for rng in map(random.Random, (20, 21, 22)) for _ in range(2)
                  for kind, top in (("part", 4), ("fusion", 3)) for n in range(top + 1)]
    failed = 0
    for s in structures:
        model = k2 if isinstance(s, PartStructure) else induced_fusion(k2)
        for t in theories:
            assert check_theory(model, t).all_passed
            rep = check_theory(s, t)
            ev = Evaluator(s)
            outcomes = [ev.check(nf) for nf in t]
            assert list(rep.results) == outcomes
            for nf, o in zip(t, outcomes):
                assert o.passed == reference_compile(nf.sentence)(ev.ctx, {}), nf.name
                assert o.witness == reference_witness(ev, nf.sentence), nf.name
            copy = load_structure(dump_structure(s))
            assert rep.to_dict() == check_theory(copy, t).to_dict()
            failed += not rep.all_passed
    assert failed > len(structures)


def test_set_up_generates_no_more_functions(monkeypatch):
    # the set-up of a gemcheck process, rebuilt from fresh parses: each
    # registry checked once on the one-element structure, where every
    # obligation holds, generates one function per distinct sentence
    # (restated axioms share theirs), its witness search or its verdict
    monkeypatch.setattr("gemcheck.theory._sentence", functools.lru_cache(maxsize=None)(parse))
    generate, generated = semantics._generate, []
    monkeypatch.setattr(semantics, "_generate", lambda node, name, emit: (
        generated.append(name) or generate(node, name, emit)))
    s = load_structure("n=1\npart: (0,0)\n")
    for name in ("gem_f", "gem_p", "pp", "lemmas"):
        assert check_theory(s, parse_theory_text(name, builtin_theory_text(name))).all_passed
    assert len(generated) <= 25 and set(generated) == {"formula", "witness"}


def test_check_theory_reports():
    rep = check_theory(canonical_gem(2), gem_p())
    assert rep.all_passed and rep.kind == "part" and rep.n == 3
    rep = check_theory(FusionStructure(1, (0, 0)), gem_f())
    failed = [r.name for r in rep.results if not r.passed]
    assert failed == ["exists_F"]
    d = rep.to_dict()
    assert d["failures"][0]["obligation"] == "exists_F"
    assert d["failures"][0]["witness"] == {"individuals": {},
                                           "plurals": {"ZZ": [0]}}
    assert "elapsed_ms" not in d and "elapsed_ms" in rep.to_dict(timings=True)
    rep = check_theory(PartStructure(0, ()), gem_p())
    assert rep.all_passed


def test_a_shared_context_leaks_nothing_between_theories():
    # one structure instance keeps one evaluation context and one summary
    # for every theory checked on it; in any order, each report must equal
    # the one a freshly loaded copy of the same literal gives
    rng = random.Random(41)
    theories = (gem_f(), gem_p(), pp_axioms())
    literals = [dump_structure(random_structure(kind, n, rng))
                for kind, top in (("part", 4), ("fusion", 3))
                for n in range(top + 1) for _ in range(3)]
    for literal in literals:
        fresh = {t.name: check_theory(load_structure(literal), t).to_dict()
                 for t in theories}
        shared = load_structure(literal)
        assert Evaluator(shared).ctx is Evaluator(shared).ctx
        for order in itertools.permutations(theories):
            one = load_structure(literal)
            for t in order:
                assert check_theory(one, t).to_dict() == fresh[t.name], (literal, t.name)
                assert check_theory(shared, t).to_dict() == fresh[t.name], (literal, t.name)


def test_countermodel_target_in_base():
    res = find_countermodel("part", gem_p(), gem_p().get("ref_P"),
                            SearchBounds(max_n_part=3))
    assert res.verdict == "exhausted bounds"
    assert res.structure is None


def test_bad_bounds_and_strategy_raise():
    with pytest.raises(ValueError, match="bounds must be >= 0"):
        SearchBounds(max_n_part=-1)
    with pytest.raises(ValueError, match="unknown strategy 'nope'"):
        find_countermodel("part", gem_p(), gem_p().get("ref_P"), SearchBounds(), strategy="nope")


def test_countermodel_golden_drop_id_f():
    res = find_countermodel("fusion", gem_f().drop("id_F"), gem_f().get("id_F"),
                            SearchBounds(max_n_fusion=2))
    got = report_json(res.to_dict())
    assert got == (GOLDEN / "countermodel_id_F.json").read_text()


def test_countermodel_golden_drop_wsp_f():
    res = find_countermodel("fusion", gem_f().drop("wsp_F"), gem_f().get("wsp_F"),
                            SearchBounds(max_n_fusion=2))
    got = report_json(res.to_dict())
    assert got == (GOLDEN / "countermodel_wsp_F.json").read_text()
    # the recorded separating structure really is one
    assert res.structure is not None
    ev = Evaluator(res.structure)
    assert all(ev.eval(nf.sentence) for nf in gem_f().drop("wsp_F"))
    assert not ev.eval(gem_f().get("wsp_F").sentence)


def test_countermodel_random_strategy():
    res = find_countermodel("fusion", gem_f().drop("wsp_F"), gem_f().get("wsp_F"),
                            SearchBounds(max_n_fusion=2, random_samples=3000,
                                         seed=5), strategy="random")
    assert res.verdict in ("found", "sample budget spent")
    if res.structure is not None:
        ev = Evaluator(res.structure)
        assert not ev.eval(gem_f().get("wsp_F").sentence)
    res2 = find_countermodel("fusion", gem_f().drop("wsp_F"),
                             gem_f().get("wsp_F"),
                             SearchBounds(max_n_fusion=2, random_samples=3000,
                                          seed=5), strategy="random")
    assert res.to_dict() == res2.to_dict()


def test_automorphism_counts():
    assert automorphism_count(PartStructure(1, (1,))) == 1
    assert automorphism_count(canonical_gem(2)) == 2
    assert automorphism_count(canonical_gem(3)) == 6
    with pytest.raises(CapacityError):
        automorphism_count(PartStructure(9, (0,) * 9))
    # fusion structures through the same relabeling: the canonical image keeps k!
    for k in range(3):
        gem = canonical_gem(k)
        assert automorphism_count(induced_fusion(gem)) == automorphism_count(gem) \
            == math.factorial(k)
    with pytest.raises(CapacityError):
        automorphism_count(FusionStructure(9, (0,) * 512))


def test_automorphisms_are_the_relabelings_fixing_the_structure():
    # the search's one relabeling against util.relabeled, on both signatures
    rng = random.Random(23)
    structures = [s for kind, top in (("part", 3), ("fusion", 2))
                  for n in range(top + 1) for s in all_structures(kind, n)]
    structures += [random_structure(kind, n, rng)
                   for kind, n in (("part", 4), ("fusion", 3)) for _ in range(100)]
    # models have symmetries a random structure rarely has
    structures += filter_models("part", 4, pp_axioms()) + filter_models("fusion", 3,
                                                                        fusion_ext_theory())
    structures += [PartStructure(4, (15,) * 4), FusionStructure(3, (7,) * 8)]
    counts = set()
    for s in structures:
        fixing = sum(relabeled(s, p) == s for p in itertools.permutations(range(s.n)))
        assert automorphism_count(s) == fixing, summarize(s)
        counts.add((type(s), fixing))
    assert {count for kind, count in counts if kind is PartStructure} == {1, 2, 3, 4, 6, 24}
    assert {count for kind, count in counts if kind is FusionStructure} >= {1, 2, 6}


def _labeled_gem_count(n: int) -> int:
    """Labeled models of classical mereology on n elements, from the
    representation theorem: a finite model is a Boolean algebra of k atoms
    without its bottom, so n = 2^k - 1, and its automorphisms are the k!
    permutations of the atoms; there is no model at any other size."""
    k = (n + 1).bit_length() - 1
    return math.factorial(n) // math.factorial(k) if n == (1 << k) - 1 else 0


def test_labeled_count_formula():
    for k in (1, 2):
        n = (1 << k) - 1
        aut = automorphism_count(canonical_gem(k))
        assert math.factorial(n) // aut == len(filter_models("part", n, gem_p()))
    # the formula is independent of the evaluator, the native checkers and the oracles
    assert [_labeled_gem_count(n) for n in range(8)] == [1, 1, 0, 3, 0, 0, 0, 840]
    for n in range(7):
        assert len(filter_models("part", n, gem_p())) == _labeled_gem_count(n), n
    for n in range(5):
        assert len(filter_models("fusion", n, gem_f())) == _labeled_gem_count(n), n


def test_witness_soundness_on_random_structures():
    rng = random.Random(99)
    for _ in range(120):
        kind = rng.choice(["part", "fusion"])
        s = random_structure(kind, rng.randrange(4), rng)
        rep = check_theory(s, gem_f() if kind == "fusion" else gem_p())
        ev = Evaluator(s)
        for r in rep.results:
            if not r.passed and r.witness is not None:
                t = gem_f() if kind == "fusion" else gem_p()
                assert ev.refutes(t.get(r.name).sentence, r.witness)


def test_equivalence_report_shape():
    rep = verify_equivalence(SearchBounds(max_n_part=2, max_n_fusion=2))
    assert rep.all_ok
    d = rep.to_dict()
    assert [r["models"] for r in d["part_side"]] == [1, 1, 0]
    assert d["model_counts_match"]
    assert json.loads(report_json(d)) == d


def test_a_translation_that_merges_models_is_not_injective(monkeypatch):
    # every part model at n=3 is sent to one image, so the orbit's members
    # share it
    translate = search.induced_fusion

    def merge(m):
        return translate(PartStructure(3, (7, 7, 7)) if m.n == 3 else m)
    monkeypatch.setattr(search, "induced_fusion", merge)
    rep = verify_equivalence(SearchBounds(max_n_part=3, max_n_fusion=0))
    assert rep.part_rows[3]["models"] == 3
    assert rep.part_rows[3]["injective"] is False
    assert [r["injective"] for r in rep.part_rows[:3]] == [True] * 3
    assert {"side": "part", "n": 3, "structure": None, "check": "translation_injective",
            "detail": None} in rep.violations
    assert not rep.all_ok


def test_def_pf_is_independent_of_the_round_trip():
    m = canonical_gem(2)
    image = induced_fusion(m)
    assert _def_pf(m, image) == (True, [])
    # the converse order against the same image fails at exactly the pairs it flips
    converse = PartStructure.from_pairs(m.n, ((y, x) for (x, y) in part_pairs(m)))
    assert _def_pf(converse, image) == (
        False, sorted(part_pairs(m) ^ part_pairs(converse)))


def test_list_models_report():
    d = list_models("part", 3, gem_p(), seed=7).to_dict()
    assert (d["candidates"], d["models"], d["failures"], d["seed"]) == (512, 3, [], 7)
    assert d["structures"][0] == "n=3 part: (0,0) (0,2) (1,1) (1,2) (2,2)"
    assert "elapsed_ms" not in d
    assert "elapsed_ms" in list_models("part", 1, gem_p()).to_dict(timings=True)


def test_equivalence_vacuous_bounds():
    rep = verify_equivalence(SearchBounds(max_n_part=0, max_n_fusion=0))
    assert rep.all_ok


def test_canonical_k3_relabelings_satisfy_gem_p():
    # the labeled-count formula value at k=3 is 7!/6 = 840; validate the
    # formula's premise apart from the scan: every distinct relabeling of
    # the canonical model is a model
    base = canonical_gem(3)
    relabelings = {frozenset((p[x], p[y]) for (x, y) in part_pairs(base))
                   for p in itertools.permutations(range(7))}
    assert len(relabelings) == math.factorial(7) // 6 == 840
    sample = random.Random(4).sample(sorted(relabelings, key=sorted), 25)
    for pairs in sample:
        s = PartStructure.from_pairs(7, pairs)
        for nf in gem_p():
            assert native.native_for(nf.sentence)(native.tables_for(s)), nf.name
    ev = Evaluator(PartStructure.from_pairs(7, sample[0]))
    assert all(ev.eval(nf.sentence) for nf in gem_p())
