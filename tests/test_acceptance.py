"""The acceptance gate: one test per criterion, one pass/fail line each.

Heavy runs (the equivalence sweep, the lemma suite with the canonical
7-element model, the oracle-agreement sweeps) are shared session fixtures
so each expensive computation happens once per worker count and the
determinism criterion can compare the same bytes the other criteria
consumed.
"""

import io
import itertools
import json
import math
import multiprocessing
import random
import time
from contextlib import redirect_stdout

import pytest

from gemcheck import canonical_gem, gem_f, gem_p, parse, pp_axioms, print_formula
from gemcheck import native
from gemcheck.cli import main as cli_main
from gemcheck.search import structure_from_code
from gemcheck.semantics import Evaluator
from gemcheck.structures import PartStructure
from gemcheck.theory import lemma_suite, theory_by_name, theory_names

from util import part_pairs, random_formula

WORKERS = 4


def _run_cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(list(argv))
    return code, out.getvalue()


def _report(line):
    print(f"\n[acceptance] {line}")


# ---------------------------------------------------------------------------
# shared runs

@pytest.fixture(scope="session")
def equiv_run():
    """JSON text of the full equivalence verification at both worker counts."""
    runs = {}
    for w in (1, WORKERS):
        t0 = time.monotonic()
        code, out = _run_cli("equiv", "--format", "json", "--workers", str(w))
        runs[w] = (code, out, time.monotonic() - t0)
    return runs


@pytest.fixture(scope="session")
def lemmas_run():
    runs = {}
    for w in (1, WORKERS):
        t0 = time.monotonic()
        code, out = _run_cli("lemmas", "--format", "json", "--workers", str(w))
        runs[w] = (code, out, time.monotonic() - t0)
    return runs


_AGREEMENT_AXIOMS = None


def _agreement_axioms():
    global _AGREEMENT_AXIOMS
    if _AGREEMENT_AXIOMS is None:
        _AGREEMENT_AXIOMS = (list(gem_f()) + list(gem_p()) + list(pp_axioms())
                             + [lemma_suite().get("fun_F")])
    return _AGREEMENT_AXIOMS


def _agreement_worker(args):
    kind, n, codes = args
    mismatches = []
    for code in codes:
        s = structure_from_code(kind, n, code)
        ev = Evaluator(s)
        tab = native.tables_for(s)
        for nf in _agreement_axioms():
            if ev.eval(nf.sentence) != native.native_for(nf.sentence)(tab):
                mismatches.append((kind, n, code, nf.name))
    return mismatches


def _sweep(kind, n, codes, pool):
    chunk = max(1, len(codes) // (WORKERS * 4))
    tasks = [(kind, n, codes[i:i + chunk]) for i in range(0, len(codes), chunk)]
    out = []
    for part in pool.map(_agreement_worker, tasks):
        out.extend(part)
    return out


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_equivalence_part_side(equiv_run):
    code, out, _ = equiv_run[WORKERS]
    payload = json.loads(out)
    rows = payload["part_side"]
    assert [r["models"] for r in rows] == [1, 1, 0, 3, 0]
    assert [r["candidates"] for r in rows] == [1, 2, 16, 512, 65536]
    for r in rows:
        assert r["fusion_axioms_pass"] == r["models"]
        assert r["def_pf_pass"] == r["models"]
        assert r["round_trip_pass"] == r["models"]
        assert r["injective"]
    assert payload["violations"] == [] and code == 0
    t0 = time.monotonic()
    c, _ = _run_cli("equiv", "--max-fusion", "0", "--format", "json",
                    "--workers", str(WORKERS))
    part_elapsed = time.monotonic() - t0
    assert c == 0 and part_elapsed <= 120
    _report(f"criterion 1 PASS: part side n<=4 exhaustive, counts 1/0/3/0, "
            f"zero violations, {part_elapsed:.1f}s <= 120s")


def test_criterion_2_equivalence_fusion_side(equiv_run):
    code, out, elapsed = equiv_run[WORKERS]
    payload = json.loads(out)
    rows = payload["fusion_side"]
    assert [r["models"] for r in rows] == [1, 1, 0, 3]
    assert rows[3]["candidates"] == 1 << 24
    for r in rows:
        assert r["part_axioms_pass"] == r["models"]
        assert r["def_uf_pass"] == r["models"]
        assert r["round_trip_pass"] == r["models"]
        assert r["injective"]
    assert payload["model_counts_match"]
    assert payload["violations"] == [] and code == 0
    assert elapsed <= 600
    _report(f"criterion 2 PASS: fusion side n<=3 exhaustive (2^24 candidates), "
            f"counts 1/0/3 match part side, zero violations, "
            f"{elapsed:.1f}s <= 600s with {WORKERS} workers")


def test_criterion_3_lemma_suite(lemmas_run):
    code, out, elapsed = lemmas_run[WORKERS]
    payload = json.loads(out)
    rows = {r["name"]: r for r in payload["rows"]}
    expected_f = {"FIx", "P_F2", "ref_P", "antis_P", "trans_P", "fun_F",
                  "cltosum", "FUIx", "sumtocl", "defUP"}
    expected_p = {"WSP", "F_P_Mub", "id_F", "ext_F", "comp_F", "wsp_F",
                  "approx_F", "defPF", "defUF"}
    assert set(rows) == expected_f | expected_p
    for name, r in rows.items():
        assert r["passed"], name
        assert r["failures"] == [], name
        assert r["models_checked"] == 6  # 5 models within bounds + canonical
        assert r["side"] == ("gem_f" if name in expected_f else "gem_p")
    assert code == 0
    # the one heavyweight check gets its own clock
    t0 = time.monotonic()
    assert Evaluator(canonical_gem(3)).eval(gem_f().get("ext_F").sentence)
    ext_elapsed = time.monotonic() - t0
    assert ext_elapsed <= 300
    _report(f"criterion 3 PASS: all 19 lemma obligations hold on every model "
            f"of their theory plus the canonical n=7 model; ext_F there took "
            f"{ext_elapsed:.1f}s <= 300s (suite {elapsed:.1f}s)")


def test_criterion_4_pp_presentation_identity():
    order = [gem_p().get(name).sentence for name in ("ref_P", "antis_P", "trans_P")]
    pres = [nf.sentence for nf in pp_axioms()]
    checked = 0
    for code in range(1 << 9):
        ev = Evaluator(structure_from_code("part", 3, code))
        assert (all(ev.eval(f) for f in order)
                == all(ev.eval(f) for f in pres)), code
        checked += 1
    assert checked == 512
    _report("criterion 4 PASS: ordering axioms and the proper-part "
            "presentation agree on all 512 relations at n=3")


def test_criterion_5_oracle_equivalence():
    mismatches = []
    audited = 0
    with multiprocessing.Pool(WORKERS) as pool:
        # part side: exhaustive through n=3
        for n in range(4):
            codes = list(range(1 << (n * n)))
            mismatches += _sweep("part", n, codes, pool)
            audited += len(codes)
        # part side: seeded random sample at n=4
        rng = random.Random(20240)
        codes = [rng.getrandbits(16) for _ in range(10000)]
        mismatches += _sweep("part", 4, codes, pool)
        audited += len(codes)
        # fusion side: exhaustive through n=2
        for n in range(3):
            codes = list(range(1 << (n * (1 << n))))
            mismatches += _sweep("fusion", n, codes, pool)
            audited += len(codes)
        # fusion side at n=3: every candidate surviving the row-local
        # axioms (the region where the heavy axioms decide membership)...
        region = []
        singles = {1: 0, 2: 1, 4: 2}
        rowvals = []
        for p in reversed(range(8)):
            if p in singles:
                rowvals.append([1 << singles[p]])
            elif p:
                rowvals.append(list(range(1, 8)))
            else:
                rowvals.append(list(range(8)))
        for vals in itertools.product(*rowvals):
            code = 0
            for i, v in enumerate(vals):
                code |= v << ((7 - i) * 3)
            region.append(code)
        assert len(region) == 8 * 7 ** 4
        mismatches += _sweep("fusion", 3, region, pool)
        audited += len(region)
        # ... plus a seeded uniform sample of the full space
        codes = [rng.getrandbits(24) for _ in range(10000)]
        mismatches += _sweep("fusion", 3, codes, pool)
        audited += len(codes)
    assert mismatches == []
    _report(f"criterion 5 PASS: evaluator and native checkers agree on all "
            f"{audited} audited structures (exhaustive part n<=3 and fusion "
            f"n<=2, the full 19208-candidate fusion survivor region at n=3, "
            f"and 10^4 seeded samples each at part n=4 and fusion n=3); "
            f"exhaustive fusion n=3 is left out: its 2^24 candidates are out "
            f"of evaluator reach")


def test_criterion_6_parser_round_trip():
    count = 0
    for name in theory_names():
        for nf in theory_by_name(name):
            assert parse(print_formula(nf.sentence)) == nf.sentence
            count += 1
    rng = random.Random(12345)
    for _ in range(1000):
        f = random_formula(rng, rng.randrange(7))
        assert parse(print_formula(f)) == f
    _report(f"criterion 6 PASS: parse(print(f)) == f on {count} registry "
            f"formulas and 1000 seeded random formulas of depth <= 6")


def test_criterion_7_automorphism_oracle():
    from gemcheck import automorphism_count, filter_models
    assert automorphism_count(canonical_gem(2)) == 2
    assert automorphism_count(canonical_gem(3)) == 6
    assert math.factorial(3) // 2 == len(filter_models("part", 3, gem_p())) == 3
    # the k=3 value 7!/6 = 840 is validated through relabeling invariance
    base = canonical_gem(3)
    relabelings = {frozenset((p[x], p[y]) for (x, y) in part_pairs(base))
                   for p in itertools.permutations(range(7))}
    assert len(relabelings) == 840
    for pairs in relabelings:
        tab = native.tables_for(PartStructure.from_pairs(7, pairs))
        assert all(native.native_for(nf.sentence)(tab) for nf in gem_p())
    _report("criterion 7 PASS: automorphism counts 2 and 6; 3!/2 matches the "
            "3 labeled models at n=3; all 840 relabelings of the canonical "
            "n=7 model satisfy the parthood axioms")


def test_criterion_8_determinism(equiv_run, lemmas_run):
    assert equiv_run[1][1] == equiv_run[WORKERS][1]
    assert lemmas_run[1][1] == lemmas_run[WORKERS][1]
    _, again = _run_cli("equiv", "--format", "json", "--workers", str(WORKERS))
    assert again == equiv_run[WORKERS][1]
    _report("criterion 8 PASS: equivalence and lemma JSON reports are "
            "byte-identical across repeated runs and worker counts 1 and 4")


def test_criterion_9_witness_soundness():
    from gemcheck import check_theory
    from gemcheck.search import random_structure
    rng = random.Random(31)
    audited = 0
    for _ in range(300):
        kind = rng.choice(["part", "fusion"])
        s = random_structure(kind, rng.randrange(4) if kind == "fusion"
                             else rng.randrange(5), rng)
        for theory in (gem_f(), gem_p(), pp_axioms()):
            rep = check_theory(s, theory)  # re-verifies internally, raises if unsound
            ev = Evaluator(s)
            for r in rep.results:
                if not r.passed and r.witness is not None:
                    assert ev.refutes(theory.get(r.name).sentence, r.witness)
                    audited += 1
    assert audited > 100
    _report(f"criterion 9 PASS: {audited} failure witnesses re-evaluated "
            f"false through the semantics module; zero unsound")
