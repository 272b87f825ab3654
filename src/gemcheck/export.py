"""Emission of lemma obligations as TPTP first-order problem files.

The two-sorted plural language is relativized into untyped first-order
logic: unary sort predicates ``indiv``/``plur``, membership as the binary
predicate ``memb``, and the plural term formers as function symbols, each
axiomatized by its defining biconditional.  Comprehension is deliberately
*not* axiomatized in full; only the named instances are included
(singleton, union, intersection, the components former of the relevant
signature, and the restricted-comprehension plurality ``star`` used by
the composition proof).  Emitted problems are therefore first-order and
prover-friendly at the cost of being incomplete relative to full plural
logic; the file header says so.

Each problem carries exactly the definitional axioms its symbols need,
computed by dependency closure, so repeated emission is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .syntax import (And, Components, Eq, ExistsI, ExistsP, ForallI, ForallP,
                     Formula, FusionAtom, Iff, Implies, INDIVIDUAL, Member,
                     NamedFormula, Not, Or, OverlapAtom, PartAtom, PluralTerm,
                     ProperPartAtom, PVar, PInter, PUnion, Singleton, SubTerm,
                     TermEq, UNIVERSAL)
from .theory import Theory, lemma_suite, theory_by_name

COMPREHENSION_INSTANCES = ("I", "union", "intersection", "U_F", "U_P", "zzstar")


def _iv(name: str) -> str:
    return "V" + name


def _pv(name: str) -> str:
    return "W" + name.lower()


_CONNECTIVES = {And: "&", Or: "|", Implies: "=>", Iff: "<=>"}


class _Encoder:
    def __init__(self):
        self.used = set()

    def term(self, t: PluralTerm) -> str:
        match t:
            case PVar(name):
                return _pv(name)
            case Singleton(v):
                self.used.add("sing")
                return f"sing({_iv(v)})"
            case PUnion(a, b):
                self.used.add("un")
                return f"un({self.term(a)},{self.term(b)})"
            case PInter(a, b):
                self.used.add("int")
                return f"int({self.term(a)},{self.term(b)})"
            case Components(s):
                self.used.add("u")
                return f"u({self.term(s)})"
        raise TypeError(t)

    def formula(self, f: Formula) -> str:
        match f:
            case Eq(a, b):
                return f"({_iv(a)} = {_iv(b)})"
            case Member(v, t):
                self.used.add("memb")
                return f"memb({_iv(v)},{self.term(t)})"
            case SubTerm(a, b):
                self.used.add("are")
                return f"are({self.term(a)},{self.term(b)})"
            case TermEq(a, b):
                self.used.add("coext")
                return f"coext({self.term(a)},{self.term(b)})"
            case FusionAtom(t, v):
                self.used.add("fuses")
                return f"fuses({self.term(t)},{_iv(v)})"
            case PartAtom(a, b):
                self.used.add("part")
                return f"part({_iv(a)},{_iv(b)})"
            case ProperPartAtom(a, b):
                self.used.add("ppart")
                return f"ppart({_iv(a)},{_iv(b)})"
            case OverlapAtom(a, b):
                self.used.add("overlap")
                return f"overlap({_iv(a)},{_iv(b)})"
            case Not(g):
                return f"(~ {self.formula(g)})"
            case And() | Or() | Implies() | Iff():
                op = _CONNECTIVES[type(f)]
                return f"({self.formula(f.left)} {op} {self.formula(f.right)})"
            case ForallI() | ExistsI() | ForallP() | ExistsP():
                individual = isinstance(f, INDIVIDUAL)
                v = _iv(f.var) if individual else _pv(f.var)
                guard = f"indiv({v})" if individual else f"plur({v})"
                if f.bound is not None:
                    rel = "memb" if individual else "are"
                    self.used.add(rel)
                    guard = f"{guard} & {rel}({v},{self.term(f.bound)})"
                body = self.formula(f.body)
                if not isinstance(f, UNIVERSAL):
                    return f"(? [{v}] : ({guard} & {body}))"
                if f.bound is not None:
                    guard = f"({guard})"
                return f"(! [{v}] : ({guard} => {body}))"
        raise TypeError(f)


def encode(f: Formula) -> str:
    """Sorted first-order rendering of one formula."""
    return _Encoder().formula(f)


# Definitional axioms for the encoded symbols.  Keyed by symbol; the value
# is (fof text, symbols the definition itself relies on), with side-specific
# entries for the components former and the defined predicates.

_DEFS = {
    "empty": ("(plur(empty) & (! [Vz] : (indiv(Vz) => (~ memb(Vz,empty)))))",
              {"memb"}),
    "sing": ("(! [Vx] : (indiv(Vx) => (plur(sing(Vx)) & (! [Vz] : (indiv(Vz) "
             "=> (memb(Vz,sing(Vx)) <=> (Vz = Vx)))))))", {"memb"}),
    "un": ("(! [Wxx,Wyy] : ((plur(Wxx) & plur(Wyy)) => (plur(un(Wxx,Wyy)) & "
           "(! [Vz] : (indiv(Vz) => (memb(Vz,un(Wxx,Wyy)) <=> (memb(Vz,Wxx) "
           "| memb(Vz,Wyy))))))))", {"memb"}),
    "int": ("(! [Wxx,Wyy] : ((plur(Wxx) & plur(Wyy)) => (plur(int(Wxx,Wyy)) & "
            "(! [Vz] : (indiv(Vz) => (memb(Vz,int(Wxx,Wyy)) <=> (memb(Vz,Wxx) "
            "& memb(Vz,Wyy))))))))", {"memb"}),
    "are": ("(! [Wxx,Wyy] : ((plur(Wxx) & plur(Wyy)) => (are(Wxx,Wyy) <=> "
            "(! [Vz] : (indiv(Vz) => (memb(Vz,Wxx) => memb(Vz,Wyy)))))))",
            {"memb"}),
    "coext": ("(! [Wxx,Wyy] : ((plur(Wxx) & plur(Wyy)) => (coext(Wxx,Wyy) <=> "
              "(are(Wxx,Wyy) & are(Wyy,Wxx)))))", {"are"}),
    ("u", "gem_f"): (
        "(! [Wzz] : (plur(Wzz) => (plur(u(Wzz)) & (! [Vx] : (indiv(Vx) => "
        "(memb(Vx,u(Wzz)) <=> (? [Vz] : (indiv(Vz) & (memb(Vz,Wzz) & "
        "(? [Wyy] : (plur(Wyy) & (fuses(Wyy,Vz) & memb(Vx,Wyy)))))))))))))",
        {"memb", "fuses"}),
    ("u", "gem_p"): (
        "(! [Wzz] : (plur(Wzz) => (plur(u(Wzz)) & (! [Vx] : (indiv(Vx) => "
        "(memb(Vx,u(Wzz)) <=> (? [Vy] : (indiv(Vy) & (memb(Vy,Wzz) & "
        "part(Vx,Vy))))))))))", {"memb", "part"}),
    ("part", "gem_f"): (
        "(! [Vx,Vy] : ((indiv(Vx) & indiv(Vy)) => (part(Vx,Vy) <=> "
        "(? [Wzz] : (plur(Wzz) & (fuses(Wzz,Vy) & memb(Vx,Wzz)))))))",
        {"memb", "fuses"}),
    ("fuses", "gem_p"): (
        "(! [Wzz,Vx] : ((plur(Wzz) & indiv(Vx)) => (fuses(Wzz,Vx) <=> "
        "((! [Vy] : ((indiv(Vy) & memb(Vy,Wzz)) => part(Vy,Vx))) & "
        "(! [Vy] : ((indiv(Vy) & part(Vy,Vx)) => (? [Vv] : (indiv(Vv) & "
        "(memb(Vv,Wzz) & overlap(Vv,Vy))))))))))", {"memb", "part", "overlap"}),
    "overlap": (
        "(! [Vx,Vy] : ((indiv(Vx) & indiv(Vy)) => (overlap(Vx,Vy) <=> "
        "(? [Vz] : (indiv(Vz) & (part(Vz,Vx) & part(Vz,Vy)))))))", {"part"}),
    "ppart": (
        "(! [Vx,Vy] : ((indiv(Vx) & indiv(Vy)) => (ppart(Vx,Vy) <=> "
        "(part(Vx,Vy) & (~ (Vx = Vy))))))", {"part"}),
    "zzstar": (
        "(! [Vx,Wzz] : ((indiv(Vx) & plur(Wzz)) => (plur(star(Vx,Wzz)) & "
        "(! [Vu] : (indiv(Vu) => (memb(Vu,star(Vx,Wzz)) <=> (part(Vu,Vx) & "
        "memb(Vu,u(Wzz)))))))))", {"memb", "part", "u"}),
}

#: emission order of the infrastructure axioms
_DEF_ORDER = ("empty", "sing", "un", "int", "are", "coext", "u", "part",
              "fuses", "overlap", "ppart", "zzstar")

_INSTANCE_LABEL = {"sing": "I", "un": "union", "int": "intersection",
                   "zzstar": "zzstar"}


@dataclass(frozen=True)
class Obligation:
    """One encoded problem: axioms, conjecture, and comprehension instances."""

    name: str
    axioms: tuple  # tuple[(label, fof text), ...]
    conjecture: str
    instances: tuple

    def render(self, anchor: str, theory_name: str) -> str:
        lines = [
            f"% Problem  : {self.name}",
            f"% Source   : {anchor}",
            f"% Axioms   : {theory_name}",
            "% Encoding : two-sorted plural logic relativized to first-order",
            "%            logic; comprehension only via the named instances "
            f"({', '.join(self.instances) or 'none'}),",
            "%            so provability here is sufficient, not necessary.",
            "",
        ]
        for label, text in self.axioms:
            lines.append(f"fof({label}, axiom,")
            lines.append(f"    {text}).")
            lines.append("")
        lines.append(f"fof({self.name.lower()}, conjecture,")
        lines.append(f"    {self.conjecture}).")
        return "\n".join(lines) + "\n"


def _side_of(theory: Theory) -> str:
    return "gem_p" if theory.name.startswith("gem_p") else "gem_f"


def _needed_defs(used: set, side: str, with_star: bool):
    needed = set(used) - {"memb"}
    needed.add("empty")
    if with_star:
        needed.add("zzstar")
    # primitives of the side never get a defining axiom
    needed.discard("fuses" if side == "gem_f" else "part")
    changed = True
    while changed:
        changed = False
        for sym in list(needed):
            key = (sym, side) if (sym, side) in _DEFS else sym
            if key not in _DEFS:
                needed.discard(sym)
                continue
            for dep in _DEFS[key][1]:
                if dep == "memb" or dep in needed:
                    continue
                if dep == "fuses" and side == "gem_f":
                    continue
                if dep == "part" and side == "gem_p":
                    continue
                needed.add(dep)
                changed = True
    out = []
    for sym in _DEF_ORDER:
        if sym in needed:
            key = (sym, side) if (sym, side) in _DEFS else sym
            out.append((f"def_{sym}", _DEFS[key][0]))
    return out


def emit_obligation(name: str, theory: Theory, conjecture: NamedFormula) -> str:
    """Complete problem text: theory axioms, needed instances, conjecture."""
    side = _side_of(theory)
    enc = _Encoder()
    axioms = []
    for nf in theory.obligations:
        axioms.append((f"ax_{nf.name.lower()}", enc.formula(nf.sentence)))
    conj = enc.formula(conjecture.sentence)
    with_star = side == "gem_p" and conjecture.name == "comp_F"
    defs = _needed_defs(enc.used, side, with_star)
    instances = tuple(
        _INSTANCE_LABEL[sym] for sym in ("sing", "un", "int", "zzstar")
        if f"def_{sym}" in {label for label, _ in defs})
    if any(label == "def_u" for label, _ in defs):
        instances += ("U_F",) if side == "gem_f" else ("U_P",)
    ob = Obligation(name, tuple(defs) + tuple(axioms), conj, instances)
    return ob.render(conjecture.anchor, theory.name)


def emit_all(out_dir) -> list:
    """One problem file per lemma obligation; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for nf in lemma_suite():
        text = emit_obligation(nf.name, theory_by_name(nf.side), nf)
        path = out / f"{nf.name}.p"
        path.write_text(text)
        paths.append(path)
    return paths
