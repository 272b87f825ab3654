"""Finite-model verification workbench for classical mereology.

The library keeps two axiomatizations of general extensional mereology
side by side -- one with mereological fusion as the only primitive, one
with inclusive parthood -- evaluates their axioms, definitions, and
interderivability lemmas on finite structures, and verifies that the two
definitional translations are mutually inverse bijections between the
model classes at small domain sizes.
"""

from .semantics import (Assignment, EvalError, EvalOutcome, Evaluator,
                        check_sentence, eval_formula, eval_term)
from .structures import (CapacityError, FusionStructure, PartStructure,
                         Plurality, Structure, StructureFormatError,
                         canonical_gem, components, dump_structure,
                         induced_fusion, induced_part, load_structure, mub,
                         overlap, proper_part)
from .syntax import (Formula, NamedFormula, ParseError, PluralTerm, SortError,
                     parse, print_formula)
from .search import (CheckReport, CountermodelResult, EquivalenceReport,
                     LemmaReport, ModelsReport, SearchBounds,
                     automorphism_count, check_theory, count_models,
                     filter_models, find_countermodel, list_models,
                     verify_equivalence, verify_lemmas)
from .theory import Theory, gem_f, gem_p, lemma_suite, pp_axioms, theory_by_name

__version__ = "0.1.0"

__all__ = [
    "Assignment", "CapacityError", "CheckReport", "CountermodelResult",
    "EquivalenceReport", "EvalError", "EvalOutcome", "Evaluator", "Formula",
    "FusionStructure", "NamedFormula", "ParseError", "PartStructure",
    "Plurality", "PluralTerm", "SearchBounds", "SortError", "Structure",
    "StructureFormatError", "Theory", "automorphism_count", "canonical_gem",
    "check_sentence", "check_theory", "components", "count_models",
    "dump_structure", "eval_formula", "eval_term",
    "filter_models", "find_countermodel", "gem_f", "gem_p", "induced_fusion",
    "induced_part", "LemmaReport", "lemma_suite", "list_models",
    "load_structure", "ModelsReport", "mub", "overlap", "parse",
    "print_formula", "proper_part", "pp_axioms", "theory_by_name",
    "verify_equivalence", "verify_lemmas",
]
