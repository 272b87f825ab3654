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

Every sentence is built by parsing its concrete syntax, so the registry
doubles as a parser round-trip corpus.  The same theories ship as
``.thy`` text files under ``gemcheck/theories/``; the test suite verifies
at startup that the files parse back to these built-ins.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .syntax import NamedFormula, is_closed, parse


class UnknownNameError(KeyError):
    """A theory or obligation name that the registry does not have."""


@dataclass(frozen=True)
class Theory:
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


def _nf(name, text, anchor, side=None):
    return NamedFormula(name, parse(text), anchor, side)


# The fusion predicate unfolded by its closure-condition definition: every
# member of ZZ is part of the bound individual, and every part of it
# overlaps some member of ZZ (overlap itself unfolded to a common part).
def _closure_text(zz: str, x: str) -> str:
    return (f"(forall w in {zz} . P(w, {x})) and "
            f"(forall w . (P(w, {x}) -> (exists v in {zz} . "
            f"(exists u . (P(u, v) and P(u, w))))))")


@lru_cache(maxsize=None)
def gem_f() -> Theory:
    """Classical mereology with primitive fusion: six axioms."""
    return Theory("gem_f", (
        _nf("exists_F",
            "forall ZZ . ((exists x . x in ZZ) -> (exists y . F(ZZ, y)))",
            "axiom (exists_F): every nonempty plurality has a fusion"),
        _nf("approx_F",
            "forall XX . forall YY . forall z . (F(XX, z) and XX eq YY -> F(YY, z))",
            "axiom (approx_F): fusion respects plural coextensiveness"),
        _nf("id_F",
            "forall x . forall y . (F(I(y), x) -> x = y)",
            "axiom (id_F): a singleton fuses only to its member"),
        _nf("ext_F",
            "forall ZZ . forall YY . forall UU . forall x . forall v . "
            "(F(ZZ, x) and F(YY, x) and F(UU + ZZ, v) -> F(UU + YY, v))",
            "axiom (ext_F): pluralities with a common fusion are interchangeable"),
        _nf("comp_F",
            "forall ZZ . forall x . forall y . (F(ZZ + I(x), y) and F(ZZ, y) -> "
            "(exists VV sub U(ZZ) . (F(VV, x) and (exists z . z in VV))))",
            "axiom (comp_F): a redundant contributor is composed from components"),
        _nf("wsp_F",
            "forall x . forall y . (F(I(x) + I(y), y) and not x = y -> "
            "(exists z in U(I(y)) . not (exists u . F(U(I(x)) & U(I(z)), u))))",
            "axiom (wsp_F): weak supplementation, fusion form"),
    ))


@lru_cache(maxsize=None)
def gem_p() -> Theory:
    """Classical mereology with primitive parthood: five axioms over P only."""
    return Theory("gem_p", (
        _nf("ref_P", "forall x . P(x, x)",
            "axiom (ref_P): parthood is reflexive"),
        _nf("antis_P",
            "forall x . forall y . (P(x, y) and P(y, x) -> x = y)",
            "axiom (antis_P): parthood is antisymmetric"),
        _nf("trans_P",
            "forall x . forall y . forall z . (P(x, y) and P(y, z) -> P(x, z))",
            "axiom (trans_P): parthood is transitive"),
        _nf("exists_F",
            "forall ZZ . ((exists x . x in ZZ) -> (exists y . ("
            + _closure_text("ZZ", "y") + ")))",
            "axiom (exists_F): every nonempty plurality has a fusion, unfolded to P"),
        _nf("fun_F",
            "forall ZZ . forall x . forall y . ("
            + _closure_text("ZZ", "x") + " and " + _closure_text("ZZ", "y")
            + " -> x = y)",
            "axiom (fun_F): fusions are unique, unfolded to P"),
    ))


@lru_cache(maxsize=None)
def pp_axioms() -> Theory:
    """The proper-part presentation of the ordering axioms."""
    return Theory("pp", (
        _nf("as_PP",
            "forall x . forall y . (PP(x, y) -> not PP(y, x))",
            "axiom (as_PP): proper parthood is asymmetric"),
        _nf("trans_PP",
            "forall x . forall y . forall z . (PP(x, y) and PP(y, z) -> PP(x, z))",
            "axiom (trans_PP): proper parthood is transitive"),
        _nf("dfP_PP",
            "forall x . forall y . (P(x, y) <-> PP(x, y) or x = y)",
            "definition (dfP_PP): parthood is proper parthood or identity"),
    ))


@lru_cache(maxsize=None)
def lemma_suite() -> Theory:
    """Interderivability obligations, tagged with the theory they hold in.

    A "gem_f"-side entry must be true on every finite model of gem_f
    (where P, O, PP are derived from F); a "gem_p"-side entry must be
    true on every finite model of gem_p (where F, O, PP, U are derived
    from P).
    """
    f = {nf.name: nf for nf in gem_f().obligations}
    closure = (f"(forall y in ZZ . P(y, x)) and "
               f"(forall y . (P(y, x) -> (exists v in ZZ . O(v, y))))")
    mub = ("(exists y . y in ZZ) and (forall y in ZZ . P(y, x)) and "
           "(forall y . ((forall v in ZZ . P(v, y)) -> P(x, y)))")
    fside = (
        _nf("FIx", "forall x . F(I(x), x)",
            "lemma: everything fuses its own singleton", "gem_f"),
        _nf("P_F2", "forall x . forall y . (P(x, y) <-> F(I(x) + I(y), y))",
            "lemma: parthood via two-element fusion", "gem_f"),
        _nf("ref_P", "forall x . P(x, x)",
            "lemma: derived parthood is reflexive", "gem_f"),
        _nf("antis_P",
            "forall x . forall y . (P(x, y) and P(y, x) -> x = y)",
            "lemma: derived parthood is antisymmetric", "gem_f"),
        _nf("trans_P",
            "forall x . forall y . forall z . (P(x, y) and P(y, z) -> P(x, z))",
            "lemma: derived parthood is transitive", "gem_f"),
        _nf("fun_F",
            "forall ZZ . forall x . forall y . (F(ZZ, x) and F(ZZ, y) -> x = y)",
            "lemma: fusions are unique", "gem_f"),
        _nf("cltosum",
            f"forall ZZ . forall x . (F(ZZ, x) -> {closure})",
            "lemma: fusion satisfies the closure conditions", "gem_f"),
        _nf("FUIx", "forall x . F(U(I(x)), x)",
            "lemma: everything fuses its components", "gem_f"),
        _nf("sumtocl",
            f"forall ZZ . forall x . ({closure} -> F(ZZ, x))",
            "lemma: the closure conditions entail fusion", "gem_f"),
        _nf("defUP",
            "forall ZZ . forall x . (x in U(ZZ) <-> (exists y in ZZ . P(x, y)))",
            "lemma: the part-side components definition is a thesis", "gem_f"),
    )
    pside = (
        _nf("WSP",
            "forall x . forall y . (PP(x, y) -> (exists z . (PP(z, y) and not O(z, x))))",
            "lemma: weak supplementation", "gem_p"),
        _nf("F_P_Mub",
            f"forall ZZ . forall x . (F(ZZ, x) <-> {mub})",
            "lemma: fusion coincides with minimal upper bound", "gem_p"),
        NamedFormula("id_F", f["id_F"].sentence,
                     "lemma: singleton collapse holds for derived fusion", "gem_p"),
        NamedFormula("ext_F", f["ext_F"].sentence,
                     "lemma: fusion extensionality holds for derived fusion", "gem_p"),
        NamedFormula("comp_F", f["comp_F"].sentence,
                     "lemma: constructive composition holds for derived fusion", "gem_p"),
        NamedFormula("wsp_F", f["wsp_F"].sentence,
                     "lemma: weak supplementation, fusion form, holds", "gem_p"),
        NamedFormula("approx_F", f["approx_F"].sentence,
                     "lemma: coextensive pluralities fuse alike", "gem_p"),
        _nf("defPF",
            "forall x . forall y . (P(x, y) <-> (exists ZZ . (F(ZZ, y) and x in ZZ)))",
            "lemma: the fusion-side parthood definition is a thesis", "gem_p"),
        _nf("defUF",
            "forall ZZ . forall x . (x in U(ZZ) <-> "
            "(exists z in ZZ . (exists YY . (F(YY, z) and x in YY))))",
            "lemma: the fusion-side components definition is a thesis", "gem_p"),
    )
    return Theory("lemmas", fside + pside)


_THEORY_BUILDERS = {"gem_f": gem_f, "gem_p": gem_p, "pp": pp_axioms,
                    "lemmas": lemma_suite}


def theory_names() -> list:
    return sorted(_THEORY_BUILDERS)


def theory_by_name(name: str) -> Theory:
    if name not in _THEORY_BUILDERS:
        raise UnknownNameError(f"unknown theory {name!r}; choose from {theory_names()}")
    return _THEORY_BUILDERS[name]()


def find_named(name: str) -> NamedFormula:
    """Look an obligation up by name across all built-in theories."""
    for t in _THEORY_BUILDERS.values():
        for nf in t():
            if nf.name == name:
                return nf
    raise UnknownNameError(f"no registry formula named {name!r}")


# ---------------------------------------------------------------------------
# .thy files: lines of "name : formula", '#' comments

def parse_theory_text(name: str, text: str, anchor: str = "file") -> Theory:
    obligations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"{name}:{lineno}: expected 'name : formula'")
        key, _, body = line.partition(":")
        obligations.append(NamedFormula(key.strip(), parse(body), anchor))
    return Theory(name, tuple(obligations))


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
