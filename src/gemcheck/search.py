"""Exhaustive and randomized exploration of finite structures.

Every relation has an integer code, which fixes the order of reports:

* part relations: bit ``x*n + y`` set iff (x, y) is in the relation;
* fusion relations: bit ``p*n + x`` set iff the plurality with
  characteristic mask ``p`` fuses to ``x``.

Filtering is a two-stage pipeline.  A scanning stage is one depth-first
search over the rows (``down[y]`` on the part side, ``rows[p]`` on the
fusion side), each ranging over a value list into which row-local axioms
are baked (reflexivity on the part side, fusion existence and singleton
collapse on the fusion side).  Rows are assigned in index order on both
sides.  Each row has a table of checks that narrow the values it tries,
each reading only the earlier rows and the value, cheap first: poset
down-closure, the join rows' cuts, the hoisted ext_F bound, then the
clause tests.  Some native
checkers are split into clauses, one per instance of the checker's own
loop, each filed under the largest row it reads: ext_F instances (ZZ, YY,
UU) on the fusion side, antis_P (which also decides as_PP) instances
(x, y), and trans_P and trans_PP instances (x, y, z) on the part side.
Only the checkers of the theory's own obligations are filed, so without
them the search visits the whole product of the value lists.  At each
leaf every unsplit native checker runs in full, cheap first in the order of
``_PLAN_ORDER``.  Workers run only this stage, one task per value of row
0 and at most one process per task, and only when the rows are no
natural labelings and the baked product exceeds 4 096 candidates.  Orbits of
survivors are ordered by code, so the output never depends on the search
order or on scheduling.  The formula evaluator then decides each
obligation once per orbit: a false obligation without a native checker
rejects the orbit, a false natively decided one raises, so the scanning
stage is never the final authority.  Agreement of the native route with
the evaluator is itself the subject of the oracle-equivalence tests.

Hoisted bounds.  ext_F is filed on fusion rows other than join rows.  As
it is symmetric in ZZ and YY, each of its clauses is an unordered
equality, filed once (ZZ < YY): if ZZ and YY share a fusion, row UU + ZZ
equals row UU + YY.  UU ranges over the submasks of the complement of
ZZ & YY (its bits in both change neither union), skipping equal unions:
(7^n - 5^n)/2.  A clause filed at its larger side r whose premise rows ZZ
and YY and other side o come before r says, once ZZ and YY share a
fusion, that row r equals row o.  Row r's first check gathers the rows o
of all of them into one set instead of testing each clause on every
value: r keeps every value if the set is empty, else only its one member.
Clauses filed at YY stay tests.  The bound rejects exactly what those
clauses reject.

Poset rows.  When ref_P, antis_P and trans_P are all natively decided
(as for ``gem_p``; ``pp`` has trans_PP, not trans_P), the part rows
range over naturally labeled posets, where ``x < y`` whenever x is a
proper part of y: row k takes ``D | 1 << k`` for every ``D`` within
{0..k-1} that is down-closed, holding ``down[x]`` for each x it holds,
so element k joins as a new maximal element.  The row's first check
keeps a value only if every earlier element it holds has its row within
it.  Reflexivity, antisymmetry and transitivity hold by construction, so
antis_P and trans_P are neither filed nor run at the leaves (the
evaluator still re-verifies them on every orbit), and the search visits
one natural labeling of a poset per leaf instead of every labeled
relation.  Every poset has a natural labeling (any linear extension of
its order), so every isomorphism class is reached.

Top last.  When exists_F (fusion unfolded to the closure conditions on
P) is natively decided too and n >= 1, the last row is only the full
mask.  The whole domain has a fusion t, and every member of a plurality
is part of its fusion, so every element is part of t: t is a top,
unique by antisymmetry.  In a natural labeling an element above every
other comes after every other, so t is n-1 and ``down[n-1]`` is full.

Join rows.  When id_F and exists_F are baked and ext_F is natively
decided, the search runs over poset rows, not fusion rows.  A candidate
passing the three is a join-semilattice under derived parthood,
F({x, y}, y), with f(p) the join of p: ext_F with UU empty and YY = {x}
makes a row holding x equal row {x}, so every row is one element, and
with UU = {x}, ZZ = p and YY = {f(p)} it puts each member x of p below
f(p).  So the rows are the poset rows of a natural labeling, top last,
then a row for the empty plurality, and a leaf folds into fusion rows: p
fuses to the least label whose row holds p, its join, as that lies below
every other upper bound.  Every poset has a natural labeling, so every
orbit has a leaf.  Row k's join cut drops a value when what k shares
with an earlier j is neither empty nor one element's row: two maximal
members of it have upper bounds j and k but no join.  No later label lies
below j or k, so the cut is permanent; at a leaf two minimal upper bounds
of a pair share a greatest lower bound above it, so they are one.  With
wsp_F decided, row k keeps a value only if every proper part x of k has
a part z of k sharing no part with x: wsp_F in order terms, read from
rows up to k, so it leaves the leaf checkers.  Row 0 = {b} makes b a
bottom (ext_F with ZZ empty, YY = {b} and UU = {y} gives F({y, b}, y)),
labeled 0, so the last row is empty or {0}, this only if 0 is below
every element and, under wsp_F, none is a proper part of another, as a
bottom is part of both.

Orbits.  Every obligation is a closed sentence whose evaluator and native
verdicts do not change under relabeling, and the translations commute
with it (``induced_fusion`` of a relabeled m is ``induced_fusion(m)``
relabeled, likewise ``induced_part``).  So the survivors are grouped into
relabeling orbits, each every relabeling of a survivor, and each theory's
obligations are evaluated only on each orbit's first member in code
order.  On the natural-labeling streams (poset rows, join rows) an orbit
is counted once, however many of its natural labelings survive, and it
is complete: a labeled model relabels to a natural labeling, which
passes every native and so survives.  Elsewhere the baked value lists
are invariant too, and a filed clause rejects only what its native
rejects, so the survivors already are whole orbits.  The members are
expanded into the code-ordered result and each is translated itself.
The target axioms are checked once per orbit, on the first member's
image; what is not invariant still runs on each member: the round trip,
``def_pf``/``def_uf``, injectivity of the translation, and each failing
member's own witness.

Capacity.  A size the evaluator refuses is refused before any value list
is built, and the reports' ``_sweep`` checks its largest size before it
scans any.  ``DEFAULT_CEILING`` bounds the product of the baked value
lists (refused as soon as it passes), not the nominal space: 2^15 at
part n=7 and 2^21 at n=8 for ``gem_p``, past the ceiling at n=9 (2^28);
reflexive part rows pass it at n=6 (2^30).  ``gem_f``'s join rows,
2 * 2^((n-1)(n-2)/2), are within it to fusion n=8 (2^22) and past it at
n=9 (2^29); without the bake, fusion rows pass it at n=4 (about 1.4e14).

Every witness (of ``check_theory``, ``verify_lemmas``,
``find_countermodel``) comes from ``Evaluator._audited_witness``, the one
place a witness is audited: it raises unless ``Evaluator.refutes``
confirms the witness, so no unconfirmed witness is ever emitted.

Two runs with the same bounds, seed, and any worker counts produce
identical reports; JSON serializations are byte-stable (timings are
included only on request, since they are the one nondeterministic field).
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from typing import Optional

from . import native, semantics
from .semantics import Assignment, Evaluator, ObligationVerdict
from .structures import (CapacityError, FusionStructure, PartStructure, Structure,
                         _Derived, _check_size, canonical_gem, components, induced_fusion,
                         induced_part, iter_bits, kind_of, members_of, summarize)
from .syntax import NamedFormula
from .theory import Theory, gem_f, gem_p, lemma_suite, theory_by_name

DEFAULT_CEILING = 1 << 26

# the native checkers, cheap first; the order affects speed, never results.
# ref_P runs only at fusion leaves (part rows bake it), where derived parthood
# is mostly reflexive but rarely antisymmetric, so antis_P leads it, and both
# lead the costly closure checkers
_PLAN_ORDER = (native.id_f, native.exists_f, native.antis_p, native.ref_p,
               native.fun_f_closure, native.exists_f_closure, native.trans_p, native.fun_f,
               native.trans_pp, native.wsp_f, native.comp_f, native.ext_f)

# checkers whose axiom the scan bakes into the per-row value lists; approx_F
# holds on every relation (plural coextensiveness is mask equality)
_ROW_LOCAL = {"part": {native.ref_p, native.approx_f},
              "fusion": {native.id_f, native.exists_f, native.approx_f}}

# with all three natively decided, part rows range over naturally labeled posets,
# and with these three fusion rows over the joins of join-semilattices among them
_ORDER_AXIOMS = frozenset({native.ref_p, native.antis_p, native.trans_p})
_JOIN_AXIOMS = frozenset({native.id_f, native.exists_f, native.ext_f})


class SearchBounds(_Derived):
    max_n_part: int = 4
    max_n_fusion: int = 3
    random_samples: int = 10000
    seed: int = 0

    def __post_init__(self):
        if min(self.max_n_part, self.max_n_fusion, self.random_samples) < 0:
            raise ValueError("bounds must be >= 0")


# ---------------------------------------------------------------------------
# integer encodings

def relation_bits(kind: str, n: int) -> int:
    return n * n if kind == "part" else n * (1 << n)


def structure_from_code(kind: str, n: int, code: int) -> Structure:
    if kind == "part":
        return PartStructure(n, tuple(sum(((code >> (x * n + y)) & 1) << x for x in range(n))
                                      for y in range(n)))
    mask = (1 << n) - 1
    return FusionStructure.from_rows(n, [(code >> (p * n)) & mask for p in range(1 << n)])


def code_of(s: Structure) -> int:
    if isinstance(s, PartStructure):
        return sum(1 << (x * s.n + y) for y, d in enumerate(s.down) for x in iter_bits(d))
    return sum(row << (p * s.n) for p, row in enumerate(s.rows))


def random_structure(kind: str, n: int, rng: random.Random) -> Structure:
    _check_size(n)  # the evaluator's refusal, before n*n or n*2^n bits are drawn
    code = rng.getrandbits(relation_bits(kind, n)) if n else 0
    return structure_from_code(kind, n, code)


# ---------------------------------------------------------------------------
# the scanning stage

def _plan(kind: str, theory: Theory):
    """``(row_local, natives, rest)``: the checkers of the natively decided
    obligations, split into those the scan bakes into the row values and
    the others in ``_PLAN_ORDER``, and the obligations only the evaluator
    decides.
    """
    found = [(nf, native.native_for(nf.sentence)) for nf in theory]
    natives = {fn for _, fn in found if fn is not None}
    rest = [nf for nf, fn in found if fn is None]
    row_local = natives & _ROW_LOCAL[kind]
    return row_local, sorted(natives - row_local, key=_PLAN_ORDER.index), rest


def _allowed_rows(kind: str, n: int, row_local: set) -> list:
    """Per-row admissible values in row index order."""
    full = list(range(1 << n))
    if kind == "part":
        return [[v for v in full if (v >> y) & 1] if native.ref_p in row_local else full
                for y in range(n)]
    exists = native.exists_f in row_local  # a nonempty plurality fuses to something
    nonempty = full[1:] if exists else full  # one list, shared by the rows
    singles = native.id_f in row_local  # the singleton {y} fuses to nothing but y
    return [full] + [([p] if exists else [0, p]) if singles and p & (p - 1) == 0 else nonempty
                     for p in range(1, 1 << n)]


def _natural_rows(n: int, top_last: bool) -> list:
    """Per-row values of the naturally labeled posets: row k is ``D | 1 << k``
    for every ``D`` within {0..k-1}; with ``top_last`` the last row is only
    the full mask."""
    rows = [range(1 << k, 2 << k) for k in range(n)]
    if top_last and n:
        rows[-1] = [(1 << n) - 1]
    return rows


def _rows(s: Structure) -> tuple:
    return s.down if isinstance(s, PartStructure) else s.rows


def _relabeled_rows(s: Structure, perm) -> tuple:
    """The rows of ``s`` with each element x renamed ``perm[x]``."""
    if isinstance(s, PartStructure):  # the orbits', translations' and automorphisms' loop
        rows = [0] * s.n
        for y, mask in enumerate(s.down):
            image = 0
            while mask:  # iter_bits inlined
                low = mask & -mask
                image |= 1 << perm[low.bit_length() - 1]
                mask ^= low
            rows[perm[y]] = image
        return tuple(rows)
    images = [0] * len(s.rows)  # of every mask, from the one without its lowest bit
    for p in range(1, len(s.rows)):
        images[p] = images[p & p - 1] | 1 << perm[(p & -p).bit_length() - 1]
    rows = [0] * len(s.rows)
    for p, row in enumerate(s.rows):
        rows[images[p]] = images[row]
    return tuple(rows)


def _orbits(kind: str, n: int, survivors: list) -> list:
    """The survivors' relabelings as orbits of members in code order,
    ordered by code."""
    build = PartStructure if kind == "part" else FusionStructure
    perms = list(itertools.permutations(range(n)))
    known = {_rows(s): s for s in survivors}
    seen = set()
    orbits = []
    for s in survivors:
        if _rows(s) in seen:
            continue  # a member of an orbit already built
        orbit = {_relabeled_rows(s, perm) for perm in perms}
        seen |= orbit
        orbits.append(sorted((known.get(rows) or build(n, rows) for rows in orbit),
                             key=code_of))
    return sorted(orbits, key=lambda orbit: code_of(orbit[0]))


class Models(list):
    """Labeled models in code order; ``orbits``: their relabeling orbits by
    code, tuples of members in code order led by the representative decided."""

    def __init__(self, orbits: tuple):
        super().__init__(sorted((m for orbit in orbits for m in orbit), key=code_of))
        self.orbits = orbits


# Row checks.  A check ``(fn, data)`` of row r narrows the values r tries:
# ``fn(rows, r, values, data)`` returns those it keeps, in order, reading
# only the rows before r and the value (which it may hold in ``rows[r]``).
# A clause is one instance of a native checker's loop, which a family files
# at size n under the largest row it reads; one check tests a row's clauses.


def _down_closed(rows, r, values, _):
    # poset rows: each earlier element the value holds brings its own row
    return [v for v in values if not any(rows[x] & ~v for x in iter_bits(v ^ 1 << r))]


def _join_cut(rows, r, values, _):
    # join rows: what r shares with an earlier j is nothing or one element's
    # row, else two maximal members have no join (it would lie below both)
    return [v for v in values
            if all(not c or rows[c.bit_length() - 1] == c for c in (rows[j] & v for j in range(r)))]


def _wsp_cut(rows, r, values, _):
    # wsp_F in order terms: every proper part x of r has a part z of r sharing no part with x
    return [v for v in values
            if all(any(not rows[x] & rows[z] for z in iter_bits(v ^ 1 << r))
                   for x in iter_bits(v ^ 1 << r))]


def _empty_row(rows, r, values, wsp):
    # row 0, after the n join rows: the bottom 0 if 0 is below every element
    # and, under wsp_F, no element is a proper part of another
    return values[:1] if any(not row & 1 or wsp and row & row - 1 for row in rows[:r]) else values


def _equal_rows(rows, r, values, equals):
    # hoisted ext_F clauses (zz, yy, o): row r equals row o once ZZ and YY share a fusion
    forced = {rows[o] for zz, yy, o in equals if rows[zz] & rows[yy]}
    return [v for v in values if {v} == forced] if forced else values


def _part_tests(rows, r, values, clauses):
    # rows[i] holds bit bx, rows[j] holds bit by and lacks bit c (none if c is 0)
    kept = []
    for v in values:
        rows[r] = v
        for i, j, bx, by, c in clauses:
            if rows[i] & bx and rows[j] & by and not rows[j] & c:
                break
        else:
            kept.append(v)
    return kept


def _ext_f_tests(rows, r, values, clauses):
    # ZZ and YY (row r, the larger side) share a fusion, but row r and row o differ
    kept = []
    for v in values:
        for zz, _, o in clauses:
            if rows[zz] & v and v != rows[o]:
                break
        else:
            kept.append(v)
    return kept


def _part_family(shape):
    """A part family: ``shape(x, y, z)`` is the clause ``(i, j, bx, by, c)``
    of instance (x, y, z), or None; it reads rows i and j."""
    def file(n: int, filed: list):
        for x, y, z in itertools.product(range(n), repeat=3):
            clause = shape(x, y, z)
            if clause is not None:
                filed[max(clause[:2])][0].append(clause)
    return file


def _ext_f_family(n: int, filed: list):
    # each clause ({ZZ, YY}, {UU + ZZ, UU + YY}) once, (7^n - 5^n)/2 of them:
    # the bits of UU inside both ZZ and YY change neither union, so UU ranges
    # over the rest, and with equal unions the clause never fires
    full = (1 << n) - 1
    for zz, yy in itertools.combinations(range(1 << n), 2):
        free = full & ~(zz & yy)
        uu = free
        while True:
            a, b = uu | zz, uu | yy
            if a != b:
                r = max(a, b)
                tests, equals = filed[r]  # a test where r is YY, as yy > zz
                (tests if r == yy else equals).append((zz, yy, min(a, b)))
            if not uu:
                break
            uu = (uu - 1) & free


# (kind, checker) -> its family; the part shapes: x < y, P(x, y) and P(y, x)
# (symmetric in x and y, and reading no z, so each pair once with z = 0);
# P(x, y), P(y, z) and not P(x, z); PP(x, y), PP(y, z) and not PP(x, z)
_CLAUSES = {
    ("part", native.antis_p): _part_family(
        lambda x, y, z: (y, x, 1 << x, 1 << y, 0) if x < y and not z else None),
    ("part", native.trans_p): _part_family(
        lambda x, y, z: (y, z, 1 << x, 1 << y, 1 << x)),
    ("part", native.trans_pp): _part_family(
        lambda x, y, z: (y, z, 1 << x, 1 << y, 0 if x == z else 1 << x)
        if x != y != z else None),
    ("fusion", native.ext_f): _ext_f_family,
}


def _row_checks(kind: str, n: int, natives, natural: bool) -> list:
    """Per row, its checks, cheap first: on join rows down-closure, the join
    cut and, with wsp_F decided, the wsp_F cut, then row 0's own; else
    down-closure on poset rows, the ext_F clauses that read only earlier
    rows (hoisted into ``_equal_rows``), then the tests of the rest."""
    if natural and kind == "fusion":
        wsp = native.wsp_f in natives
        poset = [(_down_closed, None), (_join_cut, None)] + [(_wsp_cut, None)] * wsp
        return [poset] * n + [[(_empty_row, wsp)]]
    filed = [([], []) for _ in range(n if kind == "part" else 1 << n)]
    for fn in natives:
        family = _CLAUSES.get((kind, fn))
        if family is not None:
            family(n, filed)
    tests = _part_tests if kind == "part" else _ext_f_tests
    first = [(_down_closed, None)] if natural else []
    return [first + [(fn, data) for fn, data in ((_equal_rows, equals), (tests, clauses)) if data]
            for clauses, equals in filed]


def _joins(n: int, rows) -> list:
    """The fusion rows of join rows: a nonempty plurality fuses to the least
    label whose row holds it (its join), the empty one to row n."""
    fused = [rows[n]] + [0] * ((1 << n) - 1)
    for k in reversed(range(n)):  # the least label writes last
        sub = rows[k]
        while sub:
            fused[sub] = 1 << k
            sub = (sub - 1) & rows[k]
    return fused


def _scan_worker(args) -> list:
    """Structures of the row search over ``allowed`` passing every native.

    Rows are assigned depth first in index order.  A row's checks
    (``_row_checks``) narrow its values, the search goes on with each value
    kept, and a leaf, folded into fusion rows if it is join rows, runs every
    native its rows do not decide in full.
    """
    kind, n, allowed, natives, natural = args
    tables, build = ((native.part_tables, PartStructure) if kind == "part"
                     else (native.fusion_tables, FusionStructure.from_rows))
    join = natural and kind == "fusion"
    checks = _row_checks(kind, n, natives, natural)
    leaf = [fn for fn in natives
            if (kind, fn) not in _CLAUSES and not (join and fn is native.wsp_f)]
    rows = [0] * len(allowed)
    found = []

    def assign(r):
        if r == len(rows):
            fused = _joins(n, rows) if join else rows
            if leaf:
                t = tables(n, fused)
                if not all(fn(t) for fn in leaf):
                    return
            found.append(build(n, tuple(fused)))
            return
        values = allowed[r]
        for fn, data in checks[r]:
            values = fn(rows, r, values, data)
        for v in values:
            rows[r] = v
            assign(r + 1)

    assign(0)
    return found


def _stream(kind: str, n: int, theory: Theory):
    """``(allowed, natives, natural, rest)``: the scan's value lists and
    natives, whether its rows are natural labelings (down-closed poset
    rows when ref_P, antis_P and trans_P are all decided, join rows of
    fusion when id_F, exists_F and ext_F are), and the evaluator-only
    obligations; ``CapacityError`` past the evaluator's domain or the
    ceiling, which a larger n never comes back under."""
    _check_size(n)  # before any value list is built
    row_local, natives, rest = _plan(kind, theory)
    decided = row_local.union(natives)
    if kind == "part" and _ORDER_AXIOMS <= decided:
        allowed, built = _natural_rows(n, native.exists_f_closure in natives), _ORDER_AXIOMS
    elif kind == "fusion" and _JOIN_AXIOMS <= decided:
        allowed, built = _natural_rows(n, True) + [[0, 1] if n else [0]], _JOIN_AXIOMS
    else:
        allowed, built = _allowed_rows(kind, n, row_local), ()
    natives = [fn for fn in natives if fn not in built]  # hold by construction, like ref_P
    pruned = 1
    for values in allowed:  # stops multiplying once past the ceiling
        pruned *= len(values)
        if pruned > DEFAULT_CEILING:
            raise CapacityError(f"at least {pruned} baked candidates exceed the ceiling "
                                f"{DEFAULT_CEILING}")
    return allowed, natives, bool(built), rest


def filter_models(kind: str, n: int, theory: Theory, workers: int = 1) -> Models:
    """Exactly the structures on which every obligation is true, in code
    order, with their orbits.

    Candidates are pre-filtered natively where obligations are recognized
    registry axioms, over natural labelings when ref_P, antis_P and trans_P
    all are (poset rows) or id_F, exists_F and ext_F are (join rows,
    folded into fusion rows); on each orbit's representative the evaluator then
    decides every other obligation and re-verifies the natively decided
    ones.  A disagreement between the two routes raises rather than
    silently corrupting the model set.  ``CapacityError`` if the baked product
    exceeds ``DEFAULT_CEILING``.
    """
    allowed, natives, natural, rest = _stream(kind, n, theory)
    if workers > 1 and not natural and math.prod(map(len, allowed)) > 4096:
        import multiprocessing  # only pooled runs pay for the import
        # one task per value of row 0, the first row searched, and no idle process
        tasks = [(kind, n, [[v]] + allowed[1:], natives, natural) for v in allowed[0]]
        with multiprocessing.Pool(min(workers, len(tasks))) as pool:
            parts = pool.map(_scan_worker, tasks)
        survivors = [s for part in parts for s in part]
    else:
        survivors = _scan_worker((kind, n, allowed, natives, natural))
    route = list(zip(theory, _route(theory)))
    own = [fn for nf, (fn, _) in route if nf in rest]
    decided = [(nf, fn) for nf, (fn, _) in route if nf not in rest]
    orbits = []
    for orbit in _orbits(kind, n, survivors):
        ctx = Evaluator(orbit[0]).ctx
        if not all(fn(ctx, {}) for fn in own):
            continue
        for nf, fn in decided:
            if not fn(ctx, {}):
                raise RuntimeError(
                    f"native scan and evaluator disagree on {nf.name} "
                    f"for {summarize(orbit[0])}; this is a bug")
        orbits.append(tuple(orbit))
    return Models(tuple(orbits))


def _sweep(kind: str, max_n: int, theory: Theory, workers: int):
    """``filter_models`` at each size 0..max_n, lazily; ``CapacityError`` at
    once if ``max_n`` is out of reach, before any size is scanned."""
    _stream(kind, max_n, theory)
    return (filter_models(kind, n, theory, workers=workers) for n in range(max_n + 1))


class _Report(_Derived):
    """A report whose JSON fields ``_fields`` gives; ``elapsed_ms``, the one
    nondeterministic field, joins them only when ``timings`` asks for it."""

    def to_dict(self, timings: bool = False) -> dict:
        return {**self._fields(), "elapsed_ms": self.elapsed_ms} if timings else self._fields()


class ModelsReport(_Report):
    """The models of one theory at one size, in code order."""

    theory: str
    kind: str
    n: int
    seed: int
    structures: tuple  # summaries
    elapsed_ms: int

    def _fields(self) -> dict:
        return {
            "theory": self.theory,
            "kind": self.kind,
            "n": self.n,
            "candidates": 1 << relation_bits(self.kind, self.n),
            "models": len(self.structures),
            "failures": [],
            "seed": self.seed,
            "structures": list(self.structures),
        }


def list_models(kind: str, n: int, theory: Theory, seed: int = 0,
                workers: int = 1) -> ModelsReport:
    """``filter_models`` as a report; ``seed`` is only echoed."""
    t0 = time.monotonic()
    models = filter_models(kind, n, theory, workers=workers)
    return ModelsReport(theory.name, kind, n, seed,
                        tuple(summarize(m) for m in models),
                        int((time.monotonic() - t0) * 1000))


# ---------------------------------------------------------------------------
# reports

def _witness_dict(w: Optional[Assignment]):
    if w is None:
        return None
    return {"individuals": dict(sorted(w.individuals.items())),
            "plurals": {k: sorted(v) for k, v in sorted(w.plurals.items())}}


class CheckReport(_Report):
    """Per-obligation verdicts for one structure against one theory."""

    theory: str
    kind: str
    n: int
    structure: str
    results: tuple
    elapsed_ms: int

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def _fields(self) -> dict:
        return {
            "theory": self.theory,
            "kind": self.kind,
            "n": self.n,
            "structure": self.structure,
            "candidates": 1,
            "models": 1 if self.all_passed else 0,
            "failures": [{"obligation": r.name, "witness": _witness_dict(r.witness)}
                         for r in self.results if not r.passed],
        }


def _route(theory: Theory) -> tuple:
    """(compiled sentence, shared passing verdict) per obligation, built once
    per theory and kept on it: the route by which ``filter_models``,
    ``verify_equivalence`` and ``find_countermodel`` read theory-wide verdicts."""
    return theory._derived("_route", lambda t: tuple(
        (semantics.compiled(nf.sentence)[0], ObligationVerdict(nf.name, True)) for nf in t))


def check_theory(s: Structure, theory: Theory) -> CheckReport:
    """Evaluate every obligation, each by the one pass ``Evaluator.check``
    runs (``semantics._decider``), kept on the theory with a shared passing
    verdict; failure witnesses are re-verified before emission."""
    t0 = time.monotonic()
    ev = Evaluator(s)
    ctx = ev.ctx
    route = theory._derived("_deciders", lambda t: tuple(
        (semantics._decider(nf.sentence), ObligationVerdict(nf.name, True)) for nf in t))
    results = [passed if (found := fn(ctx, {})) is None or found is True
               else ObligationVerdict(nf.name, False, ev._audited_witness(nf, found))
               for nf, (fn, passed) in zip(theory.obligations, route)]
    return CheckReport(theory.name, kind_of(s), s.n, summarize(s),
                       tuple(results), int((time.monotonic() - t0) * 1000))


class CountermodelResult(_Report):
    verdict: str  # "found" | "exhausted bounds" | "sample budget spent"
    structure: Optional[Structure]
    witness: Optional[Assignment]
    candidates: int
    seed: int
    elapsed_ms: int

    def _fields(self) -> dict:
        return {
            "verdict": self.verdict,
            "structure": None if self.structure is None else summarize(self.structure),
            "witness": _witness_dict(self.witness),
            "candidates": self.candidates,
            "seed": self.seed,
        }


def find_countermodel(kind: str, base: Theory, target: NamedFormula,
                      bounds: SearchBounds, strategy: str = "exhaustive",
                      workers: int = 1) -> CountermodelResult:
    """A structure satisfying ``base`` and falsifying ``target``, if the
    bounds contain one.

    Any returned structure has been re-verified through the evaluator,
    and the witness against the target re-checked.
    """
    t0 = time.monotonic()
    max_n = bounds.max_n_part if kind == "part" else bounds.max_n_fusion
    # batches of (candidates they count for, structures to try); exhaustive
    # ones try the representatives, so the first failing is the first model
    if strategy == "exhaustive":
        batches = ((1 << relation_bits(kind, n), [orbit[0] for orbit in models.orbits])
                   for n, models in enumerate(_sweep(kind, max_n, base, workers)))
        spent = "exhausted bounds"
    elif strategy == "random":
        rng = random.Random(bounds.seed)
        batches = ((1, [random_structure(kind, max_n, rng)])
                   for _ in range(bounds.random_samples))
        spent = "sample budget spent"
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    checked = 0
    for count, candidates in batches:
        checked += count
        for s in candidates:
            ev = Evaluator(s)
            # exhaustive candidates come from filter_models, already models of base
            if strategy == "random" and not all(fn(ev.ctx, {}) for fn, _ in _route(base)):
                continue
            outcome = ev.check(target)
            if not outcome.passed:
                return CountermodelResult("found", s, outcome.witness, checked, bounds.seed,
                                          int((time.monotonic() - t0) * 1000))
    return CountermodelResult(spent, None, None, checked, bounds.seed,
                              int((time.monotonic() - t0) * 1000))


# ---------------------------------------------------------------------------
# the equivalence verification

class EquivalenceReport(_Report):
    """Tallies for the two definitional translations at every size.

    Part side: every parthood model's induced fusion must satisfy the
    fusion axioms, the fusion-side parthood definition must hold
    pointwise, and translating back must be the identity.  Fusion side:
    symmetrically, plus a record of whether any fusion model lets the
    empty plurality fuse (none should; the composition axiom forbids it,
    but this is reported rather than assumed).
    """

    max_n_part: int
    max_n_fusion: int
    seed: int
    part_rows: tuple
    fusion_rows: tuple
    violations: tuple
    elapsed_ms: int

    @property
    def all_ok(self) -> bool:
        return not self.violations

    def _fields(self) -> dict:
        return {
            "max_n_part": self.max_n_part,
            "max_n_fusion": self.max_n_fusion,
            "seed": self.seed,
            "part_side": list(self.part_rows),
            "fusion_side": list(self.fusion_rows),
            "model_counts_match": all(v["check"] != "model_counts_match"
                                      for v in self.violations),
            "violations": list(self.violations),
        }


def _def_pf(m: PartStructure, fs: FusionStructure):
    """The fusion-side parthood definition, point by point, through the native
    oracle's parthood from fusion rows."""
    derived = native.fusion_tables(m.n, fs.rows).down
    diff = sorted((x, y) for y, (a, b) in enumerate(zip(derived, m.down))
                  for x in range(m.n) if (a ^ b) >> x & 1)
    return not diff, diff


def _def_uf(fs: FusionStructure, m: PartStructure):
    """The components former agrees across the two signatures."""
    return all(components(fs, members_of(p)) == components(m, members_of(p))
               for p in range(1 << fs.n)), None


def verify_equivalence(bounds: SearchBounds, workers: int = 1) -> EquivalenceReport:
    t0 = time.monotonic()
    violations = []
    # per side (named by its model kind): size bound, source theory, the
    # translation there and back, the target theory the image must satisfy,
    # its tally key, the definition check with its name, the round trip's name
    sides = (
        ("part", bounds.max_n_part, gem_p(), induced_fusion, induced_part, gem_f(),
         "fusion_axioms_pass", "def_pf", _def_pf, "round_trip_a"),
        ("fusion", bounds.max_n_fusion, gem_f(), induced_part, induced_fusion, gem_p(),
         "part_axioms_pass", "def_uf", _def_uf, "round_trip_b"),
    )
    sweeps = [_sweep(side, max_n, source, workers) for side, max_n, source, *_ in sides]
    side_rows = {}
    for (side, _, _, there, back, target, axioms_key, definition, definition_holds,
         round_trip), sweep in zip(sides, sweeps):
        rows = side_rows[side] = []
        for n, models in enumerate(sweep):
            row = {"n": n, "candidates": 1 << relation_bits(side, n),
                   "models": len(models), axioms_key: 0, f"{definition}_pass": 0,
                   "round_trip_pass": 0, "injective": True}
            if side == "fusion":
                row["with_empty_plurality"] = sum(fs.rows[0] != 0 for fs in models)
            images = {m: there(m) for m in models}
            failing = {}  # target failures once per orbit; there() commutes with relabeling
            for orbit in models.orbits:
                ctx = Evaluator(images[orbit[0]]).ctx
                failing.update(dict.fromkeys(
                    orbit, [v.name for fn, v in _route(target) if not fn(ctx, {})]))
            for s, image in images.items():
                returned = back(image)
                bad = failing[s]
                for key, check, ok, detail in (
                        (axioms_key, f"{target.name} axioms", not bad, bad),
                        (f"{definition}_pass", definition,
                         *definition_holds(s, image)),
                        ("round_trip_pass", round_trip, returned == s, None)):
                    if ok:
                        row[key] += 1
                    else:
                        violations.append({"side": side, "n": n, "structure": summarize(s),
                                           "check": check, "detail": detail})
            if len(set(images.values())) != len(models):
                row["injective"] = False
                violations.append({"side": side, "n": n, "structure": None,
                                   "check": "translation_injective", "detail": None})
            rows.append(row)
    part_rows, fusion_rows = side_rows["part"], side_rows["fusion"]
    for n in range(min(bounds.max_n_part, bounds.max_n_fusion) + 1):
        if part_rows[n]["models"] != fusion_rows[n]["models"]:
            violations.append({"side": "both", "n": n, "structure": None,
                               "check": "model_counts_match",
                               "detail": [part_rows[n]["models"],
                                          fusion_rows[n]["models"]]})
    return EquivalenceReport(bounds.max_n_part, bounds.max_n_fusion, bounds.seed,
                             tuple(part_rows), tuple(fusion_rows),
                             tuple(violations), int((time.monotonic() - t0) * 1000))


# ---------------------------------------------------------------------------
# the lemma suite

class LemmaReport(_Report):
    """Per-lemma verdicts on every model of the lemma's theory up to the
    bounds, plus the canonical model of ``canonical_k`` atoms (or its
    induced fusion structure) unless ``canonical_k`` is 0."""

    max_n_part: int
    max_n_fusion: int
    canonical_k: int
    rows: tuple
    elapsed_ms: int

    @property
    def all_passed(self) -> bool:
        return all(row["passed"] for row in self.rows)

    def _fields(self) -> dict:
        return {"max_n_part": self.max_n_part, "max_n_fusion": self.max_n_fusion,
                "canonical_k": self.canonical_k, "rows": list(self.rows)}


def verify_lemmas(bounds: SearchBounds, canonical_k: int, name: Optional[str] = None,
                  workers: int = 1) -> LemmaReport:
    """Check every lemma (or only ``name``) on its scope; failure witnesses
    are re-verified before emission."""
    t0 = time.monotonic()
    suite = lemma_suite()
    if name is not None:
        suite = Theory("lemmas", (suite.get(name),))
    sides = {side: ("part", bounds.max_n_part, "") if side == "gem_p"
             else ("fusion", bounds.max_n_fusion, ", fusion side")
             for side in sorted({nf.side for nf in suite})}
    sweeps = {side: _sweep(kind, max_n, theory_by_name(side), workers)
              for side, (kind, max_n, _) in sides.items()}
    gem = canonical_gem(canonical_k) if canonical_k else None  # refused before any scan too
    scopes = {}  # side -> (label, structure, its orbit's representative)
    for side, (kind, _, suffix) in sides.items():
        scope = scopes[side] = []
        for models in sweeps[side]:
            representative = {m: orbit[0] for orbit in models.orbits for m in orbit}
            scope += [(f"all {side} models", m, representative[m]) for m in models]
        if gem is not None:
            canonical = gem if kind == "part" else induced_fusion(gem)
            scope.append((f"canonical k={canonical_k}{suffix}", canonical, canonical))
    rows = []
    for nf in suite:
        failures = []
        verdicts = {}  # representative -> its outcome
        for label, m, rep in scopes[nf.side]:
            if rep not in verdicts:
                verdicts[rep] = Evaluator(rep).check(nf)
            outcome = verdicts[rep]
            if not outcome.passed and m != rep:
                outcome = Evaluator(m).check(nf)  # each its own witness
            if not outcome.passed:
                failures.append({"structure": summarize(m), "scope": label,
                                 "witness": _witness_dict(outcome.witness)})
        rows.append({"name": nf.name, "side": nf.side,
                     "models_checked": len(scopes[nf.side]),
                     "passed": not failures, "failures": failures})
    return LemmaReport(bounds.max_n_part, bounds.max_n_fusion, canonical_k,
                       tuple(rows), int((time.monotonic() - t0) * 1000))


# ---------------------------------------------------------------------------
# misc oracles

def automorphism_count(s: Structure) -> int:
    """Permutations of the domain under which ``s``, of either kind, relabels
    to itself."""
    if s.n > 8:
        raise CapacityError("automorphism counting is limited to n <= 8")
    return sum(_relabeled_rows(s, perm) == _rows(s)
               for perm in itertools.permutations(range(s.n)))


def report_json(d: dict) -> str:
    return json.dumps(d, sort_keys=True, indent=2) + "\n"
