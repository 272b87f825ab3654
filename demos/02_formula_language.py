"""The formula language: parsing, printing, evaluation, witnesses.

Lowercase identifiers are individual variables, uppercase ones plural
variables.  Plural terms are built with I(x), +, & and U(T); restricted
quantifiers like "exists VV sub U(ZZ)" stay sugar in the syntax tree.
When a universal sentence fails, the checker reports the first refuting
binding of its leading quantifier block.
"""

from gemcheck import (Assignment, Evaluator, PartStructure, canonical_gem,
                      parse, print_formula)
from gemcheck.syntax import NamedFormula

wsp = parse("forall x . forall y . (PP(x, y) -> "
            "(exists z . (PP(z, y) and not O(z, x))))")
print("weak supplementation, reprinted from its syntax tree:")
print(" ", print_formula(wsp))

model = Evaluator(canonical_gem(2))
print("\nholds on the canonical 2-atom model:", model.eval(wsp))

top = Assignment(individuals={"x": 2})
print("components of the whole:",
      set(model.term(parse("x in U(I(x))").term, top)))

# a parthood relation with a symmetric cycle is not antisymmetric;
# the witness is the first offending pair in enumeration order
cyclic = PartStructure.from_pairs(2, [(0, 0), (1, 1), (0, 1), (1, 0)])
antisymmetry = NamedFormula(
    "antisymmetry",
    parse("forall x . forall y . (P(x, y) and P(y, x) -> x = y)"),
    "demo")
outcome = Evaluator(cyclic).check(antisymmetry)
print("\nantisymmetry on a 2-cycle:", outcome.passed)
print("refuting binding:", outcome.witness)
