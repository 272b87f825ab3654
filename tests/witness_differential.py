"""Witness differential check on seeded random literals, kept out of
tier-1 for its run time.

Each literal is drawn by ``search.random_structure`` (parthood n <= 4,
fusion n <= 3, the sizes of the check-random benchmark), written by
``dump_structure`` and read back by ``load_structure``.  Every obligation
of the four registries is then checked through ``check_theory``, and its
verdict and witness must be those of the written-order reference in
``tests/util.py``: ``reference_compile`` for the verdict, the backtracking
``reference_witness`` for the witness.  Tier-1 holds the same route to the
reference on 54 structures; this holds it on about 2 000.  Run from the
repository root:

    PYTHONPATH=src python tests/witness_differential.py

It prints the tallies and exits 0 when every verdict and witness agrees,
1 otherwise.
"""

import random
import sys

from gemcheck import check_theory, gem_f, gem_p, lemma_suite, pp_axioms
from gemcheck.search import random_structure
from gemcheck.semantics import Evaluator
from gemcheck.structures import dump_structure, load_structure

from util import reference_compile, reference_witness

SEED = 36
# literals per (kind, n); parthood n=4 and fusion n=3 cost the most
COUNTS = ([("part", n, 250) for n in range(4)] + [("part", 4, 200)]
          + [("fusion", n, 250) for n in range(3)] + [("fusion", 3, 150)])


def main() -> int:
    rng = random.Random(SEED)
    theories = (gem_f(), gem_p(), pp_axioms(), lemma_suite())
    literals = checked = refuted = 0
    wrong = []
    for kind, n, count in COUNTS:
        for _ in range(count):
            text = dump_structure(random_structure(kind, n, rng))
            s = load_structure(text)
            ev = Evaluator(s)
            literals += 1
            for t in theories:
                for nf, verdict in zip(t, check_theory(s, t).results):
                    checked += 1
                    refuted += not verdict.passed
                    expected = (reference_compile(nf.sentence)(ev.ctx, {}),
                                reference_witness(ev, nf.sentence))
                    if (verdict.passed, verdict.witness) != expected:
                        wrong.append((text, t.name, nf.name))
    print(f"{literals} literals, {checked} obligations checked, {refuted} refuted, "
          f"{len(wrong)} disagreeing with the reference")
    for text, theory, name in wrong[:10]:
        print(f"  {theory} {name} on {text!r}")
    return 1 if wrong or not refuted else 0


if __name__ == "__main__":
    sys.exit(main())
