"""Hand-coded axiom checkers: the independent oracle route.

Each function decides one axiom by direct loops over the structure's
relation, with no formula AST involved.  The code deliberately re-derives
the definitional translations (parthood from fusion, fusion closure
conditions from parthood, overlap, components) instead of reusing the
evaluator's tables, so that agreement between this module and
:mod:`gemcheck.semantics` is a meaningful cross-check.

The checkers are keyed by sentence (see :func:`native_for`), which lets
the search core recognize registry axioms inside arbitrary theories and
use these as a fast pre-filter; every surviving structure is still
re-verified through the evaluator.

The tables take the mask rows a structure holds (``down[y]`` for
parthood, ``rows[p]`` for fusion) as they are, so the scan builds a
structure object only for a candidate that passes.
"""

from __future__ import annotations

from .structures import PartStructure, Structure


class NativeTables:
    """Raw lookup tables for one structure, built with direct loops.

    The fusion rows of a part structure are derived on first use; the
    ordering checkers never touch them.
    """

    __slots__ = ("n", "kind", "down", "ov", "_frow")

    def __init__(self, n, kind, down, ov, frow=None):
        self.n = n
        self.kind = kind
        self.down = down
        self.ov = ov
        self._frow = frow

    @property
    def frow(self):
        if self._frow is None:
            self._frow = _derived_frow(self.n, self.down, self.ov)
        return self._frow


def _overlap_masks(n, down):
    ov = [0] * n
    for y in range(n):
        m = 0
        for v in range(n):
            if down[v] & down[y]:
                m |= 1 << v
        ov[y] = m
    return ov


def _closure_fuses(n, down, ov, p, x):
    # p fuses to x per the closure conditions: every member of p is part
    # of x, and every part of x overlaps some member of p
    for y in range(n):
        if (p >> y) & 1 and not (down[x] >> y) & 1:
            return False
    for y in range(n):
        if (down[x] >> y) & 1 and not (p & ov[y]):
            return False
    return True


def _derived_frow(n, down, ov):
    frow = [0] * (1 << n)
    for p in range(1 << n):
        row = 0
        for x in range(n):
            if _closure_fuses(n, down, ov, p, x):
                row |= 1 << x
        frow[p] = row
    return frow


def _derived_down(n, frow):
    # x is part of y iff x belongs to some plurality fusing to y
    down = [0] * n
    for p in range(1 << n):
        row = frow[p]
        for y in range(n):
            if (row >> y) & 1:
                down[y] |= p
    return down


def part_tables(n: int, down: list) -> NativeTables:
    return NativeTables(n, "part", down, _overlap_masks(n, down))


def fusion_tables(n: int, rows: list) -> NativeTables:
    down = _derived_down(n, rows)
    return NativeTables(n, "fusion", down, _overlap_masks(n, down), rows)


def tables_for(s: Structure) -> NativeTables:
    if isinstance(s, PartStructure):
        return part_tables(s.n, s.down)
    return fusion_tables(s.n, s.rows)


def _components(t: NativeTables, m: int) -> int:
    # the U former, unfolded per signature
    u = 0
    if t.kind == "fusion":
        for z in range(t.n):
            if (m >> z) & 1:
                for p in range(1 << t.n):
                    if (t.frow[p] >> z) & 1:
                        u |= p
    else:
        for x in range(t.n):
            for y in range(t.n):
                if (m >> y) & 1 and (t.down[y] >> x) & 1:
                    u |= 1 << x
                    break
    return u


# ---------------------------------------------------------------------------
# fusion-signature axioms (F read from the fusion rows, derived on part
# structures)

def exists_f(t: NativeTables) -> bool:
    for p in range(1, 1 << t.n):
        if t.frow[p] == 0:
            return False
    return True


def approx_f(t: NativeTables) -> bool:
    # plural coextensiveness is mask equality, but loop it out anyway
    size = 1 << t.n
    for xx in range(size):
        for yy in range(size):
            if xx & ~yy or yy & ~xx:
                continue
            for z in range(t.n):
                if (t.frow[xx] >> z) & 1 and not (t.frow[yy] >> z) & 1:
                    return False
    return True


def id_f(t: NativeTables) -> bool:
    for y in range(t.n):
        row = t.frow[1 << y]
        for x in range(t.n):
            if (row >> x) & 1 and x != y:
                return False
    return True


def ext_f(t: NativeTables) -> bool:
    size = 1 << t.n
    frow = t.frow
    for zz in range(size):
        for x in range(t.n):
            if not (frow[zz] >> x) & 1:
                continue
            for yy in range(size):
                if not (frow[yy] >> x) & 1:
                    continue
                for uu in range(size):
                    bad = frow[uu | zz] & ~frow[uu | yy]
                    if bad:
                        return False
    return True


def comp_f(t: NativeTables) -> bool:
    size = 1 << t.n
    frow = t.frow
    ucache = {}
    for zz in range(size):
        for x in range(t.n):
            zx = zz | (1 << x)
            for y in range(t.n):
                if not ((frow[zx] >> y) & 1 and (frow[zz] >> y) & 1):
                    continue
                u = ucache.get(zz)
                if u is None:
                    u = ucache[zz] = _components(t, zz)
                for vv in range(1, size):
                    if vv & ~u == 0 and (frow[vv] >> x) & 1:
                        break
                else:
                    return False
    return True


def wsp_f(t: NativeTables) -> bool:
    frow = t.frow
    for x in range(t.n):
        ux = _components(t, 1 << x)
        for y in range(t.n):
            if x == y or not (frow[(1 << x) | (1 << y)] >> y) & 1:
                continue
            uy = _components(t, 1 << y)
            ok = False
            for z in range(t.n):
                if not (uy >> z) & 1:
                    continue
                m = ux & _components(t, 1 << z)
                if frow[m] == 0:
                    ok = True
                    break
            if not ok:
                return False
    return True


def fun_f(t: NativeTables) -> bool:
    for p in range(1 << t.n):
        row = t.frow[p]
        if row & (row - 1):
            return False
    return True


# ---------------------------------------------------------------------------
# part-signature axioms (P read from down, derived on fusion structures)

def ref_p(t: NativeTables) -> bool:
    return all((t.down[x] >> x) & 1 for x in range(t.n))


def antis_p(t: NativeTables) -> bool:
    for x in range(t.n):
        for y in range(t.n):
            if x != y and (t.down[y] >> x) & 1 and (t.down[x] >> y) & 1:
                return False
    return True


def trans_p(t: NativeTables) -> bool:
    for x in range(t.n):
        for y in range(t.n):
            if (t.down[y] >> x) & 1:
                for z in range(t.n):
                    if (t.down[z] >> y) & 1 and not (t.down[z] >> x) & 1:
                        return False
    return True


def exists_f_closure(t: NativeTables) -> bool:
    """Fusion existence with fusion unfolded to the closure conditions on P."""
    for p in range(1, 1 << t.n):
        if not any(_closure_fuses(t.n, t.down, t.ov, p, y) for y in range(t.n)):
            return False
    return True


def fun_f_closure(t: NativeTables) -> bool:
    for p in range(1 << t.n):
        seen = -1
        for x in range(t.n):
            if _closure_fuses(t.n, t.down, t.ov, p, x):
                if seen >= 0:
                    return False
                seen = x
    return True


def trans_pp(t: NativeTables) -> bool:
    for x in range(t.n):
        for y in range(t.n):
            if x == y or not (t.down[y] >> x) & 1:
                continue
            for z in range(t.n):
                if y == z or not (t.down[z] >> y) & 1:
                    continue
                if x == z or not (t.down[z] >> x) & 1:
                    return False
    return True


def dfp_pp(t: NativeTables) -> bool:
    for x in range(t.n):
        for y in range(t.n):
            p = (t.down[y] >> x) & 1 == 1
            pp = p and x != y
            if p != (pp or x == y):
                return False
    return True


# ---------------------------------------------------------------------------
# registry keyed by sentence

def _registry():
    from . import theory

    f = {nf.name: nf.sentence for nf in theory.gem_f().obligations}
    p = {nf.name: nf.sentence for nf in theory.gem_p().obligations}
    pp = {nf.name: nf.sentence for nf in theory.pp_axioms().obligations}
    lem = {nf.name: nf.sentence for nf in theory.lemma_suite().obligations}
    return {
        lem["fun_F"]: fun_f,
        f["exists_F"]: exists_f,
        f["approx_F"]: approx_f,
        f["id_F"]: id_f,
        f["ext_F"]: ext_f,
        f["comp_F"]: comp_f,
        f["wsp_F"]: wsp_f,
        p["ref_P"]: ref_p,
        p["antis_P"]: antis_p,
        p["trans_P"]: trans_p,
        p["exists_F"]: exists_f_closure,
        p["fun_F"]: fun_f_closure,
        pp["as_PP"]: antis_p,  # asymmetry of PP is antisymmetry of P
        pp["trans_PP"]: trans_pp,
        pp["dfP_PP"]: dfp_pp,
    }


_NATIVE = None


def native_for(sentence):
    """The hand-coded checker for a registry sentence, or None."""
    global _NATIVE
    if _NATIVE is None:
        _NATIVE = _registry()
    return _NATIVE.get(sentence)


def check_native(sentence, s: Structure):
    fn = native_for(sentence)
    if fn is None:
        raise KeyError("no native checker for this sentence")
    return fn(tables_for(s))
