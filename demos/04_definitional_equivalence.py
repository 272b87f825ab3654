"""The headline verification: the two axiomatizations define each other.

For every model of the parthood axioms, the induced fusion relation
satisfies the fusion axioms and translating back is the identity; for
every model of the fusion axioms, the induced parthood relation
satisfies the parthood axioms and translating back is the identity.
The translations are therefore mutually inverse bijections between the
model classes at these sizes.  The report also records whether any
fusion model lets the empty plurality fuse to something (none does; the
composition axiom rules it out, but the tool observes rather than
assumes this).
"""

from gemcheck import SearchBounds, verify_equivalence

report = verify_equivalence(SearchBounds(max_n_part=4, max_n_fusion=3))

print("part side:")
for row in report.part_rows:
    print(f"  n={row['n']}: {row['models']} models of {row['candidates']} "
          f"candidates; fusion axioms {row['fusion_axioms_pass']}, "
          f"definition {row['def_pf_pass']}, round trip {row['round_trip_pass']}")

print("fusion side:")
for row in report.fusion_rows:
    print(f"  n={row['n']}: {row['models']} models of {row['candidates']} "
          f"candidates; parthood axioms {row['part_axioms_pass']}, "
          f"components agree {row['def_uf_pass']}, "
          f"round trip {row['round_trip_pass']}, "
          f"empty plurality fused in {row['with_empty_plurality']}")

print("\nviolations:", len(report.violations))
print("verdict:", "equivalence verified" if report.all_ok else "FAILED")
