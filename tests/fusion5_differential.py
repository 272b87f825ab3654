"""Fusion n=5 to n=8 differential and equivalence check, kept out of
tier-1 for its run time.

The row search over join rows must list the same models of {id_F,
exists_F, ext_F} at fusion n=5 as the plain row search over the unbaked
rows (``util.plain_row_survivors``): 1 445 labeled models in 20
relabeling orbits on both.  At n=6, where the plain search is out of
reach, it must list 28 956 labeled models in 68 orbits, L(7) + L(6) = 53 +
15 (lattice numbers, OEIS A006966).  ``gem_f`` must have no model at n=6,
840 in one orbit at n=7 and none at n=8, and build native fusion tables at
exactly 24, 167 and 1 561 leaves of its row search there, so a change to
the work the scan does at its largest sizes shows.  Then the equivalence
verification, sweeping both signatures up to n=5, must pass every check,
with no model at n=5 on either side.  Run from the repository root:

    PYTHONPATH=src python tests/fusion5_differential.py

It prints the tallies and exits 0 when all of them hold, 1 otherwise.
"""

import itertools
import sys

from gemcheck import Theory, filter_models, gem_f, native, verify_equivalence
from gemcheck.search import SearchBounds

from util import plain_row_survivors, relabeled

EXPECTED = {5: (1445, 20), 6: (28956, 68)}  # (models, orbits) of {id_F, exists_F, ext_F}
# gem_f's (models, orbits, native fusion table builds, one per leaf) by size
GEM_F = {6: (0, 0, 24), 7: (840, 1, 167), 8: (0, 0, 1561)}


def orbit_count(models: list) -> int:
    """The relabeling orbits among ``models`` through ``util.relabeled``, or
    -1 if some relabeling of a model is missing from them."""
    left = set(models)
    count = 0
    while left:
        m = left.pop()
        orbit = {relabeled(m, perm) for perm in itertools.permutations(range(m.n))}
        if not orbit <= left | {m}:
            return -1
        left -= orbit
        count += 1
    return count


def main() -> int:
    theory = Theory("ext", tuple(gem_f().get(name) for name in ("id_F", "exists_F", "ext_F")))
    models = filter_models("fusion", 5, theory)
    plain = plain_row_survivors(5, theory)
    tallies = (len(models), len(models.orbits)), (len(plain), orbit_count(plain))
    print(f"fusion n=5, {{id_F, exists_F, ext_F}}: row search {tallies[0]}, "
          f"plain rows {tallies[1]} (models, orbits)")
    ok = models == plain and tallies[0] == tallies[1] == EXPECTED[5]
    # the search's own orbits: orbit_count would relabel each model 720 times
    models = filter_models("fusion", 6, theory)
    tally = len(models), len(models.orbits)
    print(f"fusion n=6, {{id_F, exists_F, ext_F}}: {tally} (models, orbits)")
    ok = ok and tally == EXPECTED[6]
    tables = native.fusion_tables  # looked up through the module by the scan
    for n, expected in GEM_F.items():
        builds = []
        native.fusion_tables = lambda size, rows: builds.append(size) or tables(size, rows)
        try:
            gem_f_models = filter_models("fusion", n, gem_f())
        finally:
            native.fusion_tables = tables
        tally = len(gem_f_models), len(gem_f_models.orbits), len(builds)
        print(f"fusion n={n}, gem_f: {tally} (models, orbits, native table builds)")
        ok = ok and tally == expected
    report = verify_equivalence(SearchBounds(max_n_part=5, max_n_fusion=5))
    fives = report.part_rows[5]["models"], report.fusion_rows[5]["models"]
    print(f"equivalence to part and fusion n=5: all_ok {report.all_ok}, "
          f"models at n=5 {fives} (part, fusion)")
    ok = ok and report.all_ok and fives == (0, 0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
