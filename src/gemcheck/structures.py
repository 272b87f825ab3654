"""Finite interpretations of the two mereological signatures.

Two kinds of structure are supported:

* ``PartStructure`` -- a finite domain {0..n-1} with a binary parthood
  relation P.  P is primitive; no order properties are assumed (the
  axioms are *checked*, never baked in).
* ``FusionStructure`` -- a finite domain with a relation F between
  pluralities (subsets of the domain) and individuals.

Relations are stored as bitmask rows (bit i set iff i is in the row):
``PartStructure.down[y]`` holds the parts of y, ``FusionStructure.rows[p]``
what the plurality with characteristic mask p fuses to.  Pairs appear only
in ``from_pairs`` and the literal format.  Pluralities at the public
boundary are ``frozenset``s (the empty plurality is a legal value),
converted by :func:`mask_of` / :func:`members_of`.

The module also provides the canonical models (powerset lattices minus
the empty set), the definitional translations between the two signatures,
and the structure literal file format used by the CLI and golden tests.

All structures are immutable after construction and safe to share across
threads.  Its summary and evaluation context are built once and kept on it.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Union

Plurality = frozenset  # frozenset[int]; the denotation of a second-sort term

#: largest domain whose 2^n pluralities formula evaluation quantifies over;
#: every check of a domain size against it goes through ``_check_size``
MAX_PLURAL_DOMAIN = 16


class CapacityError(Exception):
    """A requested computation exceeds the configured finite bounds."""


class StructureFormatError(ValueError):
    """A structure literal file does not parse."""


def mask_of(members: Iterable[int]) -> int:
    m = 0
    for i in members:
        m |= 1 << i
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def members_of(mask: int) -> Plurality:
    return frozenset(iter_bits(mask))


def _check_size(n: int, plural: bool = True) -> None:
    """Refuse a negative size and, with ``plural``, one whose 2^n pluralities
    formula evaluation cannot quantify over.  A caller not yet holding the
    size checks a lower bound first, so no 2^n-bit number is built or printed."""
    if n < 0:
        raise ValueError("domain size must be >= 0")
    if plural and n > MAX_PLURAL_DOMAIN:
        raise CapacityError(f"formula evaluation needs 2^{n} pluralities")


def _check_masks(n: int, masks: tuple, count: int) -> None:
    if not (isinstance(masks, tuple) and len(masks) == count
            and all(isinstance(m, int) and 0 <= m < 1 << n for m in masks)):
        raise ValueError(f"expected a tuple of {count} masks over 0..{n - 1}")


_RECORD_CODE: dict = {}  # compiled record code by source, shared by equal field lists


class _Derived:
    """The immutable record base of structures, syntax nodes, theories,
    verdicts and reports.

    A subclass's fields are its annotations in order, its ``__match_args__``.
    ``__init_subclass__`` compiles its ``__init__``, ``__eq__`` and
    ``_values`` from them, unless it writes its own: a record is built by
    position or keyword (a trailing field with a class default may be left
    out), checked by the class's ``__post_init__`` if any, and never changed.
    ``==`` compares type and fields, ``repr`` prints what a dataclass would,
    and a pickle (so a pool worker) carries only the fields.  Values derived
    from them stay on the instance, where none of these see them: a context,
    compiled code or a verdict route (``_derived``), and the fields' hash
    (``__hash__``), since sentences key ``native.native_for`` and hashing
    walks the tree.  String hashes differ between interpreters, so no pickle
    has the hash.
    """

    def __init_subclass__(cls):
        names = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))
        own, other = ("".join(f"{x}.{name}, " for name in names) for x in ("self", "other"))
        source = (f"def _values(self):\n    return ({own})\n"
                  f"def __eq__(self, other):\n    return ({own}) == ({other}) "
                  "if other.__class__ is self.__class__ else NotImplemented\n"
                  f"def __init__(self, {', '.join(names)}):\n    \"Set the fields.\"\n"
                  + "".join(f"    _set(self, {name!r}, {name})\n" for name in names)
                  + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""))
        namespace = {"_set": object.__setattr__}
        exec(_RECORD_CODE.get(source)
             or _RECORD_CODE.setdefault(source, compile(source, "<record>", "exec")), namespace)
        namespace["__init__"].__defaults__ = tuple(  # of the trailing fields
            cls.__dict__[name] for name in names if name in cls.__dict__)
        for name in ("_values", "__eq__", "__init__"):
            if name not in cls.__dict__:
                namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, namespace[name])

    def _derived(self, key: str, build):
        value = getattr(self, key, None)
        if value is None:
            value = build(self)
            object.__setattr__(self, key, value)
        return value

    def __setattr__(self, name, *value):  # and __delattr__
        raise AttributeError(f"cannot set or delete {name!r}: the record is immutable")

    __delattr__ = __setattr__
    _hash = None  # until __hash__ first runs

    def __hash__(self):
        if self._hash is None:  # None hashes by address before Python 3.12, so as 0 here
            object.__setattr__(self, "_hash", hash(
                tuple(0 if value is None else value for value in self._values())))
        return self._hash

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__getstate__().items())
        return f"{type(self).__qualname__}({fields})"

    def __getstate__(self):
        return dict(zip(self.__match_args__, self._values()))


class PartStructure(_Derived):
    """Domain {0..n-1} with a primitive parthood relation:
    ``down[y]`` is the bitmask of {x : P(x, y)}."""

    n: int
    down: tuple

    def __post_init__(self):
        _check_size(self.n, plural=False)
        _check_masks(self.n, self.down, self.n)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple]) -> "PartStructure":
        _check_size(n, plural=False)
        down = [0] * n
        for x, y in pairs:
            x, y = int(x), int(y)
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"pair ({x},{y}) out of domain 0..{n - 1}")
            down[y] |= 1 << x
        return cls(n, tuple(down))


class FusionStructure(_Derived):
    """Domain {0..n-1}, of a size ``_check_size`` admits, with a primitive fusion
    relation: ``rows[p]`` is the bitmask of {x : F(p, x)}."""

    n: int
    rows: tuple

    def __post_init__(self):
        _check_size(self.n)
        _check_masks(self.n, self.rows, 1 << self.n)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple]) -> "FusionStructure":
        _check_size(n)
        rows = [0] * (1 << n)
        for zz, x in pairs:
            zz, x = frozenset(zz), int(x)
            if not (0 <= x < n) or any(not (0 <= i < n) for i in zz):
                raise ValueError(f"fusion pair {_fusion_pair(sorted(zz), x)} out of domain")
            rows[mask_of(zz)] |= 1 << x
        return cls(n, tuple(rows))

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[int]) -> "FusionStructure":
        return cls(n, tuple(rows))


Structure = Union[PartStructure, FusionStructure]


def kind_of(s: Structure) -> str:
    return "part" if isinstance(s, PartStructure) else "fusion"


# ---------------------------------------------------------------------------
# canonical models


def canonical_gem(k: int) -> PartStructure:
    """The nonempty subsets of {1..k} ordered by inclusion.

    Domain indices follow a fixed deterministic order: subsets sorted by
    (cardinality, characteristic value).  ``canonical_gem(0)`` is the
    empty structure.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_size(k)  # a lower bound of 2^k - 1, checked before 2^k is built
    n = (1 << k) - 1
    _check_size(n)
    subsets = sorted(range(1, 1 << k), key=lambda m: (bin(m).count("1"), m))
    return PartStructure(n, tuple(mask_of(i for i, a in enumerate(subsets) if a & ~b == 0)
                                  for b in subsets))


# ---------------------------------------------------------------------------
# derived predicates on part structures


def mub(ps: PartStructure, zz: Iterable[int]) -> frozenset:
    """Minimal upper bounds of a plurality.

    x qualifies iff zz is nonempty, every member of zz is part of x, and
    x is part of every upper bound of zz.  On pathological relations the
    result may be empty or contain several elements.
    """
    m = mask_of(zz)
    if not m:
        return frozenset()
    uppers = [x for x in range(ps.n) if m & ~ps.down[x] == 0]
    return frozenset(x for x in uppers if all((ps.down[y] >> x) & 1 for y in uppers))


def components(s: Structure, zz: Iterable[int]) -> Plurality:
    """The term former U: all individuals contributing to the members of zz.

    On a part structure, x is in U(zz) iff x is part of some member of
    zz.  On a fusion structure, x is in U(zz) iff x is a member of some
    plurality fusing to a member of zz.
    """
    m = mask_of(zz) & ((1 << s.n) - 1)
    u = 0
    if isinstance(s, PartStructure):
        for y in iter_bits(m):
            u |= s.down[y]
    else:
        for p, row in enumerate(s.rows):
            if row & m:
                u |= p
    return members_of(u)


# ---------------------------------------------------------------------------
# definitional translations between the signatures


def overlap_masks(n: int, down: list) -> list:
    """ov[y] = bitmask of the individuals sharing some part with y."""
    ov = [0] * n
    for y in range(n):
        m = 0
        dy = down[y]
        for v in range(n):
            if down[v] & dy:
                m |= 1 << v
        ov[y] = m
    return ov


def fusion_rows_from_parts(n: int, down: list, ov: list) -> list:
    """rows[p] = bitmask of the x that plurality mask p fuses to by the closure
    conditions: every member of p is part of x, and every part of x
    overlaps some member of p.  So p runs over the submasks of down[x] and
    must meet each distinct ov[z] & down[x], z a part of x; where one of
    these is empty, nothing fuses to x."""
    rows = [0] * (1 << n)
    for x in range(n):
        dx, bit = down[x], 1 << x
        needs = {ov[z] & dx for z in iter_bits(dx)}
        if 0 in needs:
            continue
        p = 0
        while True:  # the submasks of dx, ascending
            for m in needs:
                if not p & m:
                    break
            else:
                rows[p] |= bit
            if p == dx:
                break
            p = (p - dx) & dx
    return rows


def parts_from_fusion_rows(n: int, rows: list) -> list:
    """down[y] = bitmask of the x belonging to some plurality that fuses to y."""
    down = [0] * n
    for p, row in enumerate(rows):
        for y in range(n):
            if (row >> y) & 1:
                down[y] |= p
    return down


def induced_part(fs: FusionStructure) -> PartStructure:
    """Parthood defined from fusion: x P y iff x belongs to some plurality fusing to y."""
    return PartStructure(fs.n, tuple(parts_from_fusion_rows(fs.n, fs.rows)))


def induced_fusion(ps: PartStructure) -> FusionStructure:
    """Fusion defined from parthood (the classical closure conditions).

    (zz, x) is included iff every member of zz is part of x and every
    part of x overlaps some member of zz.  The empty plurality therefore
    fuses to x only when x has no parts at all, which cannot happen on a
    reflexive relation.
    """
    _check_size(ps.n)
    rows = fusion_rows_from_parts(ps.n, ps.down, overlap_masks(ps.n, ps.down))
    return FusionStructure.from_rows(ps.n, rows)


# ---------------------------------------------------------------------------
# structure literal files
#
#   n=<int>
#   part: (x,y) (x,y) ...          or          fusion: ({a,b},x) ({},x) ...
#
# Pairs are written in ascending (x, y) or (p, x) order, p a plurality's
# mask: the columns x of ``down``, or the rows p of ``rows``, in index order.

# ASCII digits without leading zeros, as dump_structure writes them
_INDEX = "(?:0|[1-9][0-9]*)"
_PAIRS = {  # header: a pair's pattern, the reader of its first group, the constructor
    "part:": (re.compile(rf"\(({_INDEX}),({_INDEX})\)$"), int, PartStructure),
    "fusion:": (re.compile(rf"\(\{{({_INDEX}(?:,{_INDEX})*)?\}},({_INDEX})\)$"),
                lambda inner: [int(i) for i in inner.split(",")] if inner else [], FusionStructure)}


def _fusion_pair(members: Iterable[int], x: int) -> str:
    return f"({{{','.join(map(str, members))}}},{x})"


_BITS = [()]
_MEMBER_TEXTS = ["{}"]


def _bit_table(n: int) -> list:
    """The members of every mask below 2^n, ascending, shared by all readers."""
    global _BITS
    table = _BITS
    while len(table) < 1 << n:  # extend a copy: readers keep a whole table
        k = len(table).bit_length() - 1
        table = table + [t + (k,) for t in table]
    _BITS = table
    return table


def _member_texts(n: int) -> list:
    """The plurality of every mask below 2^n as literals write it, ``{0,2}``
    for mask 5, shared by all readers as ``_bit_table`` is."""
    global _MEMBER_TEXTS
    if len(_MEMBER_TEXTS) < 1 << n:  # a new list: readers keep a whole table
        _MEMBER_TEXTS = [f"{{{','.join(map(str, t))}}}" for t in _bit_table(n)]
    return _MEMBER_TEXTS


def dump_structure(s: Structure) -> str:
    if isinstance(s, PartStructure):
        pairs = [f"({x},{y})" for x in range(s.n) for y, d in enumerate(s.down) if d >> x & 1]
    else:
        bits, texts = _bit_table(s.n), _member_texts(s.n)
        pairs = [f"({texts[p]},{x})" for p, r in enumerate(s.rows) for x in bits[r]]
    return " ".join([f"n={s.n}\n{kind_of(s)}:", *pairs]) + "\n"


def summarize(s: Structure) -> str:
    """One-line rendering in the literal format, built once per instance."""
    return s._derived("_summary", lambda s: dump_structure(s).strip().replace("\n", " "))


def load_structure(text: str) -> Structure:
    toks = text.split()
    if not toks or not toks[0].startswith("n="):
        raise StructureFormatError("expected header n=<int>")
    digits = toks[0][2:]
    if not re.fullmatch(_INDEX, digits):
        raise StructureFormatError(f"bad domain size {digits!r}")
    _check_size(len(digits))  # a lower bound of n, checked before int() reads it
    n = int(digits)
    _check_size(n)  # every literal is evaluated; refused before a row is allocated
    if len(toks) < 2 or toks[1] not in _PAIRS:
        raise StructureFormatError("expected 'part:' or 'fusion:' after header")
    pattern, first, cls = _PAIRS[toks[1]]
    try:
        pairs = []  # every token read before from_pairs checks a range
        for t in toks[2:]:
            m = pattern.match(t)
            if not m:
                raise StructureFormatError(f"bad {toks[1][:-1]} pair {t!r}")
            pairs.append((first(m.group(1)), int(m.group(2))))
        return cls.from_pairs(n, pairs)
    except ValueError as e:
        raise StructureFormatError(str(e)) from None
