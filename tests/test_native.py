"""Native checkers against the evaluator on exhaustive small spaces.

The full-scale agreement sweep (part side at n=3/4, fusion side at n=3)
is criterion 5 in the acceptance module; this file keeps a fast
exhaustive slice of it plus the registry wiring.
"""

import random

import pytest

from gemcheck import gem_f, gem_p, pp_axioms
from gemcheck.native import check_native, native_for
from gemcheck.semantics import Evaluator
from gemcheck.search import random_structure
from gemcheck.theory import lemma_suite

from util import all_structures

ALL_AXIOMS = (list(gem_f()) + list(gem_p()) + list(pp_axioms())
              + [lemma_suite().get("fun_F")])


def _agree_on(s):
    ev = Evaluator(s)
    for nf in ALL_AXIOMS:
        assert ev.eval(nf.sentence) == check_native(nf.sentence, s), \
            (nf.name, nf.side, s)


@pytest.mark.parametrize("kind,n", [("part", 0), ("part", 1), ("part", 2),
                                    ("fusion", 0), ("fusion", 1), ("fusion", 2)])
def test_exhaustive_agreement(kind, n):
    for s in all_structures(kind, n):
        _agree_on(s)


def test_sampled_agreement_part_n3():
    rng = random.Random(11)
    for _ in range(150):
        _agree_on(random_structure("part", 3, rng))


def test_sampled_agreement_fusion_n3():
    rng = random.Random(13)
    for _ in range(60):
        _agree_on(random_structure("fusion", 3, rng))


def test_every_axiom_has_a_native():
    for nf in ALL_AXIOMS:
        assert native_for(nf.sentence) is not None, nf.name


def test_unknown_sentence_has_no_native():
    from gemcheck import parse
    assert native_for(parse("forall x . O(x, x)")) is None
    from gemcheck.structures import PartStructure
    with pytest.raises(KeyError):
        check_native(parse("forall x . O(x, x)"), PartStructure.from_pairs(1, ()))
