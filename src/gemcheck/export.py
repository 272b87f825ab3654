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

from pathlib import Path

from .syntax import (And, Components, Eq, ExistsI, ExistsP, ForallI, ForallP,
                     Formula, FusionAtom, Iff, Implies, INDIVIDUAL, Member,
                     NamedFormula, Not, Or, OverlapAtom, PartAtom, ProperPartAtom,
                     PVar, PInter, PUnion, Singleton, SubTerm, TermEq, UNIVERSAL, _chain)
from .theory import lemma_suite, theory_by_name


def _iv(name: str) -> str:
    return "V" + name


def _pv(name: str) -> str:
    return "W" + name.lower()


# the symbol of each connective, and of each plural term former and atom
# applied to its fields in order
_SYMBOLS = {And: "&", Or: "|", Implies: "=>", Iff: "<=>", Singleton: "sing", PUnion: "un",
            PInter: "int", Member: "memb", SubTerm: "are", TermEq: "coext", FusionAtom: "fuses",
            PartAtom: "part", ProperPartAtom: "ppart", OverlapAtom: "overlap"}


class _Encoder:
    def __init__(self):
        self.used = set()

    def encode(self, f) -> str:
        """A formula or plural term; the symbols it applies join ``used``."""
        match f:
            case PVar(name):
                return _pv(name)
            case Eq(a, b):
                return f"({_iv(a)} = {_iv(b)})"
            case Singleton() | Member() | SubTerm() | TermEq() | FusionAtom() | PartAtom() | \
                    ProperPartAtom() | OverlapAtom():
                sym = _SYMBOLS[type(f)]
                self.used.add(sym)
                args = (_iv(x) if isinstance(x, str) else self.encode(x) for x in f._values())
                return f"{sym}({','.join(args)})"
            case Components(s):
                self.used.add("u")
                return f"u({self.encode(s)})"
            case Not(g):
                return f"(~ {self.encode(g)})"
            case And() | Or() | Implies() | Iff() | PUnion() | PInter():
                op, fs = _SYMBOLS[type(f)], []
                for g in _chain(f):  # a frame per level of nesting, none per operand
                    fs.append(self.encode(g))
                k = len(fs) - 1
                if type(f) is Implies:  # nested right
                    return "".join(f"({g} {op} " for g in fs[:-1]) + fs[-1] + ")" * k
                if isinstance(f, (PUnion, PInter)):  # a term former, applied
                    self.used.add(op)
                    return f"{op}(" * k + fs[0] + "".join(f",{g})" for g in fs[1:])
                return "(" * k + fs[0] + "".join(f" {op} {g})" for g in fs[1:])
            case ForallI() | ExistsI() | ForallP() | ExistsP():
                individual = isinstance(f, INDIVIDUAL)
                v = _iv(f.var) if individual else _pv(f.var)
                guard = f"indiv({v})" if individual else f"plur({v})"
                if f.bound is not None:
                    rel = "memb" if individual else "are"
                    self.used.add(rel)
                    guard = f"{guard} & {rel}({v},{self.encode(f.bound)})"
                body = self.encode(f.body)
                if not isinstance(f, UNIVERSAL):
                    return f"(? [{v}] : ({guard} & {body}))"
                if f.bound is not None:
                    guard = f"({guard})"
                return f"(! [{v}] : ({guard} => {body}))"
        raise TypeError(f)


def encode(f: Formula) -> str:
    """Sorted first-order rendering of one formula."""
    return _Encoder().encode(f)


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


def _needed_defs(used: set, side: str, with_star: bool):
    # membership and the side's primitive never get a defining axiom
    skip = {"memb", "fuses" if side == "gem_f" else "part"}
    needed = {}  # symbol -> (fof text, symbols it relies on)
    todo = [*used, "empty"] + (["zzstar"] if with_star else [])
    while todo:
        sym = todo.pop()
        if sym not in skip and sym not in needed:
            needed[sym] = _DEFS.get((sym, side)) or _DEFS[sym]
            todo += needed[sym][1]
    return [(f"def_{sym}", needed[sym][0]) for sym in _DEF_ORDER if sym in needed]


def emit_obligation(nf: NamedFormula) -> str:
    """Lemma ``nf``'s complete problem text: the axioms of the theory of its
    side, the instances they and ``nf`` need, and ``nf`` as the conjecture."""
    name, side = nf.name, nf.side
    theory = theory_by_name(side)
    enc = _Encoder()
    axioms = [(f"ax_{ax.name.lower()}", enc.encode(ax.sentence))
              for ax in theory.obligations]
    conj = enc.encode(nf.sentence)
    with_star = side == "gem_p" and name == "comp_F"
    defs = _needed_defs(enc.used, side, with_star)
    labels = {label for label, _ in defs}
    instances = [_INSTANCE_LABEL[sym] for sym in ("sing", "un", "int", "zzstar")
                 if f"def_{sym}" in labels]
    if "def_u" in labels:
        instances.append("U_F" if side == "gem_f" else "U_P")
    lines = [
        f"% Problem  : {name}",
        f"% Source   : {nf.anchor}",
        f"% Axioms   : {theory.name}",
        "% Encoding : two-sorted plural logic relativized to first-order",
        "%            logic; comprehension only via the named instances "
        f"({', '.join(instances) or 'none'}),",
        "%            so provability here is sufficient, not necessary.",
        "",
    ]
    for label, text in defs + axioms:
        lines += [f"fof({label}, axiom,", f"    {text}).", ""]
    lines += [f"fof({name.lower()}, conjecture,", f"    {conj})."]
    return "\n".join(lines) + "\n"


def write_obligation(out_dir, nf: NamedFormula) -> Path:
    """Write lemma ``nf``'s problem to ``out_dir``/NAME.p (mkdir -p); returns the path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{nf.name}.p"
    path.write_text(emit_obligation(nf))
    return path


def emit_all(out_dir) -> list:
    """One problem file per lemma obligation; returns the written paths."""
    return [write_obligation(out_dir, nf) for nf in lemma_suite()]
