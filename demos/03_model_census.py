"""A census of finite models of both axiomatizations.

Every relation on a small domain is enumerated by an integer code and
checked.  Classical mereology is rigid at small sizes: models exist only
on 2^k - 1 elements (the powerset lattices minus their bottom), so the
counts go 1, 1, 0, 3, 0, ... and the nonzero counts are exactly the
labeled relabelings n!/|Aut| of the canonical models.
"""

import math

from gemcheck import (automorphism_count, canonical_gem, dump_structure,
                      filter_models, gem_f, gem_p)

print("models of the parthood axiomatization:")
for n in range(5):
    print(f"  n={n}: {len(filter_models('part', n, gem_p())):>2} of 2^{n * n} relations")

print("models of the fusion axiomatization:")
for n in range(4):
    print(f"  n={n}: {len(filter_models('fusion', n, gem_f())):>2} "
          f"of 2^{n * (1 << n)} relations")

print("\nthe three parthood models at n=3 (relabelings of one lattice):")
for model in filter_models("part", 3, gem_p()):
    print(" ", dump_structure(model).splitlines()[1])

for k in (2, 3):
    n = (1 << k) - 1
    aut = automorphism_count(canonical_gem(k))
    print(f"\ncanonical model on {k} atoms: {aut} automorphisms, "
          f"so {n}!/{aut} = {math.factorial(n) // aut} labeled copies")
