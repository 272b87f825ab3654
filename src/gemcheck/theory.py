"""The registry of axioms, definitions, and lemma obligations.

Two axiomatizations of classical (general extensional) mereology are kept
side by side:

* ``gem_f`` -- fusion as the only primitive: existence of fusions,
  indiscernibility under plural coextensiveness, singleton collapse,
  fusion extensionality, constructive composition, and the fusion form
  of weak supplementation.
* ``gem_p`` -- inclusive parthood as the only primitive: reflexivity,
  antisymmetry, transitivity, plus fusion existence and uniqueness with
  the fusion predicate unfolded into its closure-condition definition
  (so the sentences mention nothing but P).

``pp_axioms`` is the classical proper-part presentation of the ordering
axioms, and ``lemma_suite`` collects the interderivability obligations:
each is tagged with the theory whose finite models it must hold in.
Checking provability claims on finite models is sound but incomplete --
a lemma passing here is evidence, not a proof; a failure is a refutation.

The registries are read from the ``.thy`` text files shipped under
``gemcheck/theories/``, one per theory, which are their only source:
each line gives an obligation's name, its sentence in concrete syntax
and its anchor, and ``[gem_f]``/``[gem_p]`` lines give the lemmas'
sides.  Every sentence is built by parsing, so the registry doubles as a
parser round-trip corpus.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .structures import _Derived
from .syntax import NamedFormula, is_closed, parse


class UnknownNameError(KeyError):
    """A theory or obligation name that the registry does not have."""

    def __str__(self):  # the message itself; KeyError's would quote it
        return self.args[0]


@dataclass(frozen=True)
class Theory(_Derived):
    name: str
    obligations: tuple  # tuple[NamedFormula, ...]

    def __post_init__(self):
        names = [nf.name for nf in self.obligations]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate obligation names in theory {self.name}")
        for nf in self.obligations:
            if not is_closed(nf.sentence):
                raise ValueError(f"obligation {nf.name} is not a closed sentence")

    def names(self) -> list:
        return [nf.name for nf in self.obligations]

    def get(self, name: str) -> NamedFormula:
        for nf in self.obligations:
            if nf.name == name:
                return nf
        raise UnknownNameError(f"no obligation named {name!r} in theory {self.name}")

    def drop(self, name: str) -> "Theory":
        self.get(name)
        return Theory(f"{self.name}-{name}",
                      tuple(nf for nf in self.obligations if nf.name != name))

    def __iter__(self):
        return iter(self.obligations)


@lru_cache(maxsize=None)
def gem_f() -> Theory:
    """Classical mereology with primitive fusion: six axioms."""
    return parse_theory_text("gem_f", builtin_theory_text("gem_f"))


@lru_cache(maxsize=None)
def gem_p() -> Theory:
    """Classical mereology with primitive parthood: five axioms over P only."""
    return parse_theory_text("gem_p", builtin_theory_text("gem_p"))


@lru_cache(maxsize=None)
def pp_axioms() -> Theory:
    """The proper-part presentation of the ordering axioms."""
    return parse_theory_text("pp", builtin_theory_text("pp"))


@lru_cache(maxsize=None)
def lemma_suite() -> Theory:
    """Interderivability obligations, tagged with the theory they hold in.

    A "gem_f"-side entry must be true on every finite model of gem_f
    (where P, O, PP are derived from F); a "gem_p"-side entry must be
    true on every finite model of gem_p (where F, O, PP, U are derived
    from P).
    """
    return parse_theory_text("lemmas", builtin_theory_text("lemmas"))


_THEORY_BUILDERS = {"gem_f": gem_f, "gem_p": gem_p, "pp": pp_axioms,
                    "lemmas": lemma_suite}


def theory_names() -> list:
    return sorted(_THEORY_BUILDERS)


def theory_by_name(name: str) -> Theory:
    if name not in _THEORY_BUILDERS:
        raise UnknownNameError(f"unknown theory {name!r}; choose from {theory_names()}")
    return _THEORY_BUILDERS[name]()


def find_named(name: str, side: str) -> NamedFormula:
    """Look an obligation up by name across all built-in theories: the
    theory ``side`` (``gem_f`` or ``gem_p``) first, since names recur across
    registries, then that side's lemmas, then every theory in builder order."""
    lemmas = (nf for nf in lemma_suite() if nf.side == side)
    everything = (nf for t in _THEORY_BUILDERS.values() for nf in t())
    for nf in itertools.chain(theory_by_name(side), lemmas, everything):
        if nf.name == name:
            return nf
    raise UnknownNameError(f"no registry formula named {name!r}")


# ---------------------------------------------------------------------------
# .thy files: lines of "name : formula" with an optional "; anchor" suffix,
# "[gem_f]" / "[gem_p]" lines setting the side of the entries after them,
# '#' comments

def parse_theory_text(name: str, text: str) -> Theory:
    """A theory from ``.thy`` text; entries without an anchor get ``"file"``,
    entries before any side line get side None."""
    obligations = []
    side = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line not in ("[gem_f]", "[gem_p]"):
                raise ValueError(f"{name}:{lineno}: expected [gem_f] or [gem_p]")
            side = line[1:-1]
            continue
        line, _, tag = line.partition(";")
        if ":" not in line:
            raise ValueError(f"{name}:{lineno}: expected 'name : formula [; anchor]'")
        key, _, body = line.partition(":")
        obligations.append(NamedFormula(key.strip(), _sentence(body.strip()),
                                        tag.strip() or "file", side))
    return Theory(name, tuple(obligations))


@lru_cache(maxsize=None)
def _sentence(text: str):
    """One object per sentence text: a restated axiom shares its compiled code."""
    return parse(text)


def builtin_theory_text(name: str) -> str:
    return (resources.files("gemcheck") / "theories" / f"{name}.thy").read_text()


# ---------------------------------------------------------------------------
# coverage map: every display-tagged formula of the source axiomatizations
# and where this codebase realizes it (used by a completeness test)

COVERAGE = {
    "I": ("term former", "syntax.Singleton"),
    "cup": ("term former", "syntax.PUnion"),
    "cap": ("term former", "syntax.PInter"),
    "are": ("atom", "syntax.SubTerm"),
    "approx": ("atom", "syntax.TermEq"),
    "exists_F": ("axiom", "gem_f+gem_p"),
    "approx_F": ("axiom", "gem_f"),
    "ext_F": ("axiom", "gem_f"),
    "id_F": ("axiom", "gem_f"),
    "comp_F": ("axiom", "gem_f"),
    "wsp_F": ("axiom", "gem_f"),
    "dfU_F": ("definition", "semantics components dispatch, fusion side"),
    "dfP_F": ("definition", "semantics derived parthood on fusion structures"),
    "as_PP": ("axiom", "pp"),
    "trans_PP": ("axiom", "pp"),
    "dfP_PP": ("axiom", "pp"),
    "dfF_P": ("definition", "semantics derived fusion on part structures"),
    "dfO": ("definition", "semantics derived overlap"),
    "ref_P": ("axiom", "gem_p"),
    "antis_P": ("axiom", "gem_p"),
    "trans_P": ("axiom", "gem_p"),
    "fun_F": ("axiom", "gem_p"),
    "dfPP_P": ("definition", "semantics derived proper part"),
    "FIx": ("lemma", "gem_f"),
    "P_F2": ("lemma", "gem_f"),
    "lemmartrant": ("lemma", "gem_f: ref_P antis_P trans_P"),
    "cltosum": ("lemma", "gem_f"),
    "FUIx": ("lemma", "gem_f"),
    "sumtocl": ("lemma", "gem_f"),
    "WSP": ("lemma", "gem_p"),
    "F_P_Mub": ("lemma", "gem_p"),
    "dfMub": ("definition", "structures.mub and the F_P_Mub right-hand side"),
    "dfU_P": ("definition", "semantics components dispatch, part side"),
    "zzstar": ("comprehension instance", "export"),
    "defPF": ("lemma", "gem_p"),
    "defUF": ("lemma", "gem_p"),
    "defUP": ("lemma", "gem_f"),
}
