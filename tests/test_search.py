import itertools
import json
import math
import multiprocessing
import random
from pathlib import Path

import pytest

from gemcheck import (CapacityError, FusionStructure, PartStructure, Theory,
                      automorphism_count, canonical_gem, check_theory,
                      count_models, filter_models, find_countermodel, gem_f,
                      gem_p, induced_fusion, induced_part, lemma_suite,
                      list_models, native, pp_axioms, search,
                      verify_equivalence, verify_lemmas)
from gemcheck.search import (SearchBounds, _def_pf, code_of, random_structure,
                             report_json, structure_from_code)
from gemcheck.semantics import Evaluator
from gemcheck.structures import summarize

from util import (all_structures, evaluator_models, labeled_models,
                  oracle_gem_p_model_codes, part_pairs, product_models, relabeled)

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
    # n=8), 2^36 unbaked rows for pp at n=6, about 1.4e14 for gem_f at n=4
    with pytest.raises(CapacityError):
        filter_models("part", 9, gem_p())
    with pytest.raises(CapacityError):
        filter_models("part", 6, pp_axioms())
    with pytest.raises(CapacityError):
        filter_models("fusion", 4, gem_f())
    # long value lists are refused before they are built
    with pytest.raises(CapacityError, match="baked candidates"):
        filter_models("part", 12, Theory("none", ()))
    with pytest.raises(CapacityError, match="value lists"):
        filter_models("part", 13, Theory("none", ()))
    with pytest.raises(CapacityError, match="baked candidates"):
        filter_models("fusion", 8, Theory("none", ()))
    with pytest.raises(CapacityError, match="value lists"):
        filter_models("fusion", 9, gem_f())


def test_filter_models_part_against_naive_oracle():
    for n in range(4):
        expected = oracle_gem_p_model_codes(n)
        got = [code_of(m) for m in filter_models("part", n, gem_p())]
        assert got == expected, n


def test_model_counts_frozen():
    assert [count_models("part", gem_p(), n) for n in range(5)] == [1, 1, 0, 3, 0]
    assert [count_models("fusion", gem_f(), n) for n in range(4)] == [1, 1, 0, 3]


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
    survivors = sorted(search._scan_worker(("part", n, allowed, natives)), key=code_of)
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
    row_local, natives, _ = search._plan("part", t)
    for n in range(6):
        allowed = search._natural_rows(n, top_last=False)
        reps.append(len(search._scan_worker(("part", n, allowed, natives))))
        labeled.append(len(filter_models("part", n, t)))
    assert reps == [1, 1, 2, 7, 40, 357]  # unlabeled posets, OEIS A006455
    assert labeled == [1, 1, 3, 19, 219, 4231]  # labeled posets, OEIS A001035


@pytest.mark.parametrize("name,max_n", [("gem_p", 6), ("gem_p-fun_F", 5)])
def test_top_last_keeps_every_survivor(name, max_n):
    row_local, natives, _ = search._plan("part", DIFFERENTIAL_THEORIES[name]())
    assert native.exists_f_closure in natives
    for n in range(max_n + 1):
        streams = [search._scan_worker(("part", n, search._natural_rows(n, top_last), natives))
                   for top_last in (False, True)]
        unpruned, pruned = (sorted((m for orbit in search._orbits("part", n, reps, True)
                                    for m in orbit), key=code_of)
                            for reps in streams)
        assert pruned == unpruned, n
        assert len(streams[1]) <= len(streams[0])


def test_gem_p_models_to_n_7(monkeypatch):
    assert [count_models("part", gem_p(), n) for n in (5, 6)] == [0, 0]

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool for a single task")
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    # the poset stream has one value in row 0, so two workers start no pool
    models = filter_models("part", 7, gem_p(), workers=2)
    base = canonical_gem(3)
    assert len(models) == 840 == math.factorial(7) // automorphism_count(base)
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
            if native.native_for(sentence) is not None:
                assert native.check_native(sentence, image) == \
                    native.check_native(sentence, s) == verdict, (name, summarize(s), perm)
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


def test_native_and_evaluator_disagreement_raises_on_poset_rows(monkeypatch):
    def accept(tables):
        return True
    sentence = gem_p().get("fun_F").sentence
    native.native_for(sentence)  # builds the registry
    monkeypatch.setitem(native._NATIVE, sentence, accept)
    monkeypatch.setattr(search, "_PLAN_ORDER", search._PLAN_ORDER + (accept,))
    assert search._stream("part", 3, gem_p())[0]  # still the poset stream
    with pytest.raises(RuntimeError, match="native scan and evaluator disagree on fun_F"):
        filter_models("part", 3, gem_p())


def _fires_on_the_way(kind, n, checker, rows):
    """Whether a clause of ``checker`` fires while the search assigns
    ``rows``, each tested where it is filed with later rows still unset."""
    order = search._row_order(kind, n)
    filed = search._filed_clauses(kind, n, [checker], order)
    partial = [None] * len(rows)
    for k, r in enumerate(order):
        partial[r] = rows[r]
        if any(fires(partial, clauses) for fires, clauses in filed[k]):
            return True
    return False


@pytest.mark.parametrize("kind,name", sorted((kind, fn.__name__)
                                              for kind, fn in search._CLAUSES))
def test_clauses_fire_exactly_when_their_checker_fails(kind, name):
    checker = getattr(native, name)
    rng = random.Random(31)
    exhaustive = range(4) if kind == "part" else range(3)
    structures = [s for n in exhaustive for s in all_structures(kind, n)]
    structures += [random_structure(kind, 4 if kind == "part" else 3, rng)
                   for _ in range(200)]
    verdicts = set()
    for s in structures:
        rows = s.down if kind == "part" else s.rows
        holds = checker(native.tables_for(s))
        assert holds != _fires_on_the_way(kind, s.n, checker, rows), summarize(s)
        verdicts.add(holds)
    assert verdicts == {True, False}


def test_filter_workers_match_serial():
    t = pp_axioms()  # no row-local pruning, so the pool path is exercised
    serial = filter_models("part", 4, t, workers=1)
    pooled = filter_models("part", 4, t, workers=2)
    assert serial == pooled
    assert len(serial) == 219  # labeled posets on four points
    # natives plus evaluator-only lemmas; without ref_P, which would be baked
    # into the rows and leave too few candidates for the pool
    t = lemma_suite().drop("ref_P")
    assert filter_models("part", 4, t, workers=2) == filter_models("part", 4, t)
    # every candidate is a model, so a pool task losing any candidate shows
    codes = [code_of(s) for s in filter_models("part", 4, Theory("none", ()), workers=2)]
    assert codes == list(range(1 << 16))
    # ext_F clauses prune inside each task; 19 208 baked candidates start the pool
    t = gem_f()
    assert filter_models("fusion", 3, t, workers=2) == filter_models("fusion", 3, t)


def test_native_and_evaluator_disagreement_raises(monkeypatch):
    def accept(tables):
        return True
    sentence = pp_axioms().get("trans_PP").sentence
    native.native_for(sentence)  # builds the registry
    monkeypatch.setitem(native._NATIVE, sentence, accept)
    monkeypatch.setattr(search, "_PLAN_ORDER", search._PLAN_ORDER + (accept,))
    with pytest.raises(RuntimeError, match="native scan and evaluator disagree on trans_PP"):
        filter_models("part", 3, pp_axioms())


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


def test_countermodel_target_in_base():
    res = find_countermodel("part", gem_p(), gem_p().get("ref_P"),
                            SearchBounds(max_n_part=3))
    assert res.verdict == "exhausted bounds"
    assert res.structure is None


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


def test_labeled_count_formula():
    for k in (1, 2):
        n = (1 << k) - 1
        aut = automorphism_count(canonical_gem(k))
        assert math.factorial(n) // aut == count_models("part", gem_p(), n)


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


def test_def_pf_is_independent_of_the_round_trip():
    m = canonical_gem(2)
    image = induced_fusion(m)
    assert _def_pf(m, image, induced_part(image)) == (True, [])
    # a wrong image the round trip is not consulted about: the converse order
    converse = PartStructure.from_pairs(m.n, ((y, x) for (x, y) in part_pairs(m)))
    assert _def_pf(converse, image, converse) == (
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
    from gemcheck.native import check_native
    sample = random.Random(4).sample(sorted(relabelings, key=sorted), 25)
    for pairs in sample:
        s = PartStructure.from_pairs(7, pairs)
        for nf in gem_p():
            assert check_native(nf.sentence, s), nf.name
    ev = Evaluator(PartStructure.from_pairs(7, sample[0]))
    assert all(ev.eval(nf.sentence) for nf in gem_p())
