"""Finite posets stored as bitmask relation rows, plus every order query the rest builds on."""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .errors import AntisymmetryViolation, DuplicateElement, SizeCap, UnknownElement

DEFAULT_SIZE_CAP = 16
SIZE_CAP_ENV = "SPPOSET_SIZE_CAP"


def size_cap() -> int:
    """Maximum number of elements accepted by build_poset (env-overridable)."""
    raw = os.environ.get(SIZE_CAP_ENV)
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise SizeCap(f"{SIZE_CAP_ENV} must be an integer, got {raw!r}")
    if cap < 1:
        raise SizeCap(f"{SIZE_CAP_ENV} must be >= 1, got {cap}")
    return cap


def bits(mask: int):
    """Indices of the set bits of mask, ascending, one lowest bit at a time."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transpose(masks) -> list[int]:
    """The relation of the bitmask rows `masks` transposed: bit i of row j is
    bit j of masks[i], so up-masks give down-masks and back."""
    out = [0] * len(masks)
    for i, m in enumerate(masks):
        while m:
            low = m & -m
            m ^= low
            out[low.bit_length() - 1] |= 1 << i
    return out


@lru_cache(maxsize=4096)
def members(mask: int) -> tuple[int, ...]:
    """The set bits of mask, ascending, as a tuple kept for the next call with
    the same mask (for masks that loops walk again and again)."""
    return tuple(bits(mask))


def _pairwise(f, masks) -> tuple[tuple, ...]:
    """f(a & b) for every pair of masks, as rows; f runs once per distinct
    intersection (many pairs share one, such as a pair and its swap)."""
    seen: dict = {}
    return tuple([tuple([seen[m] if m in seen else seen.setdefault(m, f(m))
                         for m in [a & b for b in masks]]) for a in masks])


class _derived:
    """Decorator for a table that depends only on a poset's order: the
    decorated function builds it on the first read, and the poset keeps it.
    Two threads that read it first may both build it, but both get the one
    value kept, so every reader sees the same object."""

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, p, owner=None):
        if p is None:
            return self
        try:
            return p._tables[self.name]
        except KeyError:
            return p._tables.setdefault(self.name, self.build(p))


class Poset:
    """A finite partially ordered set.

    Elements are opaque identifier strings kept in declaration order.  The
    relation is stored one bitmask per element: ``ups[i]`` holds the indices
    weakly above element i and ``downs[i]`` those weakly below, so all the
    section/bound computations are a handful of word operations.

    The tables derived from the order (meets, joins, meet masks, maximal
    lower bounds, section tops, the local disjointness and meet masks, the
    bound-witness masks, the classify() report, the star table and its total
    normal extension, and the union and Frink selections, each validated
    once, with their i-natural cells) are immutable values, each built once,
    on its first read, and kept for the poset's lifetime.  The law context
    (laws), and each kept selection's, is built the same way and then keeps
    the plans of the laws it checks, which depend on nothing else.

    The constructor trusts its input; use :func:`build_poset` to validate
    declarations and take the reflexive-transitive closure.
    """

    __slots__ = ("name", "elements", "n", "ups", "downs", "full", "_index", "_tables")

    def __init__(self, name: str, elements: tuple[str, ...], ups: tuple[int, ...]):
        self.name = name
        self.elements = tuple(elements)
        self.n = len(self.elements)
        self.ups = tuple(ups)
        self.downs = tuple(transpose(self.ups))
        self.full = (1 << self.n) - 1
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._tables: dict = {}

    # -- identifiers and indices -------------------------------------------

    def index(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownElement(f"{x!r} is not an element of poset {self.name!r}") from None

    def subset_mask(self, members) -> int:
        m = 0
        for x in members:
            m |= 1 << self.index(x)
        return m

    def set_of(self, mask: int) -> "ElementSet":
        return ElementSet(self, mask & self.full)

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.name == other.name
            and self.elements == other.elements
            and self.ups == other.ups
        )

    def __hash__(self):
        return hash((self.name, self.elements, self.ups))

    def __repr__(self):
        return f"Poset({self.name!r}, n={self.n})"

    # -- order relation ----------------------------------------------------

    def leq(self, x: str, y: str) -> bool:
        return self.leq_ix(self.index(x), self.index(y))

    def leq_ix(self, i: int, j: int) -> bool:
        return bool(self.ups[i] >> j & 1)

    def comparable(self, x: str, y: str) -> bool:
        i, j = self.index(x), self.index(y)
        return self.leq_ix(i, j) or self.leq_ix(j, i)

    # -- sections, segments, bounds ----------------------------------------

    def upper_section(self, x: str) -> "ElementSet":
        """[x) = {z: x <= z}."""
        return self.set_of(self.ups[self.index(x)])

    def lower_section(self, x: str) -> "ElementSet":
        """(x] = {z: z <= x}."""
        return self.set_of(self.downs[self.index(x)])

    def segment(self, x: str, y: str) -> "ElementSet":
        """[x, y] = {z: x <= z <= y}; empty when x is not below y."""
        return self.set_of(self.ups[self.index(x)] & self.downs[self.index(y)])

    def bounds(self, members, direction: str) -> "ElementSet":
        """Common upper or lower bounds of a subset; the whole carrier for the empty set."""
        if direction not in ("upper", "lower"):
            raise ValueError(f"direction must be 'upper' or 'lower', got {direction!r}")
        rows = self.ups if direction == "upper" else self.downs
        m = self.full
        for x in members:
            m &= rows[self.index(x)]
        return self.set_of(m)

    # -- local disjointness and meets ----------------------------------------

    def disjoint_over(self, x: str, y: str, base: str) -> bool:
        """True iff [base,x] and [base,y] meet at most in base (vacuous if base is below neither)."""
        i, j, b = self.index(x), self.index(y), self.index(base)
        return self.disjoint_over_ix(i, j, b)

    def disjoint_over_ix(self, i: int, j: int, b: int) -> bool:
        return self.ups[b] & self.downs[i] & self.downs[j] & ~(1 << b) == 0

    def meet_over(self, x: str, y: str, base: str) -> str | None:
        """The z with [base,x] n [base,y] = [base,z] nonempty, when one exists."""
        z = self.meet_over_ix(self.index(x), self.index(y), self.index(base))
        return None if z is None else self.elements[z]

    def meet_over_ix(self, i: int, j: int, b: int) -> int | None:
        m = self.ups[b] & self.downs[i] & self.downs[j]
        if m == 0:
            return None
        z = self.greatest_of(m)
        if z is None or self.ups[b] & self.downs[z] != m:
            return None
        return z

    @_derived
    def disjoint_over_masks(self) -> tuple[tuple[int, ...], ...]:
        """disjoint_over_masks[u][b]: the z with disjoint_over_ix(u, z, b), as a bitmask.

        Each z is tested on its own, with the factors of the test that do not
        depend on z taken out, so a law over a whole set of z is one mask test.
        """
        n, ups, downs, full = self.n, self.ups, self.downs, self.full
        out = []
        for u in range(n):
            row = []
            for b in range(n):
                between = ups[b] & downs[u] & ~(1 << b)
                m = full
                if between:
                    for z in range(n):
                        if downs[z] & between:
                            m ^= 1 << z
                row.append(m)
            out.append(tuple(row))
        return tuple(out)

    @_derived
    def meet_over_masks(self) -> tuple[tuple[int, ...], ...]:
        """meet_over_masks[u][b]: the z with meet_over_ix(u, z, b) == b, as a bitmask.

        That meet is b exactly when [b,u] n [b,z] = {b}; each z is tested on
        its own, as in disjoint_over_masks.
        """
        n, ups, downs = self.n, self.ups, self.downs
        out = []
        for u in range(n):
            row = []
            for b in range(n):
                between, only = ups[b] & downs[u], 1 << b
                m = 0
                if between & only:
                    for z in range(n):
                        if downs[z] & between == only:
                            m |= 1 << z
                row.append(m)
            out.append(tuple(row))
        return tuple(out)

    @_derived
    def bound_witness_masks(self) -> tuple[tuple[int, ...], ...]:
        """bound_witness_masks[x][y]: the v for which some u >= v and z >= x
        have [y,u] n [y,z] = {y}, as a bitmask.

        That is the union of (u] over the u with meet_over_masks[u][y] n [x)
        nonempty; axioms.is_normal compares it with (x -> y].
        """
        n, ups, downs, meets = self.n, self.ups, self.downs, self.meet_over_masks
        out = []
        for x in range(n):
            up, row = ups[x], []
            for y in range(n):
                m = 0
                for u in range(n):
                    if meets[u][y] & up:
                        m |= downs[u]
                row.append(m)
            out.append(tuple(row))
        return tuple(out)

    def meet(self, x: str, y: str) -> str | None:
        z = self.meets[self.index(x)][self.index(y)]
        return None if z is None else self.elements[z]

    def join(self, x: str, y: str) -> str | None:
        z = self.joins[self.index(x)][self.index(y)]
        return None if z is None else self.elements[z]

    def maximal_lower_bounds(self, x: str, y: str) -> "ElementSet":
        return self.set_of(self.mlbs[self.index(x)][self.index(y)])

    @_derived
    def meets(self) -> tuple[tuple[int | None, ...], ...]:
        """meets[i][j]: the meet of i and j, None where there is none."""
        return _pairwise(self.greatest_of, self.downs)

    @_derived
    def joins(self) -> tuple[tuple[int | None, ...], ...]:
        """joins[i][j]: the join of i and j, None where there is none."""
        return _pairwise(self.least_of, self.ups)

    @_derived
    def meet_masks(self) -> tuple[tuple[int, ...], ...]:
        """meet_masks[i][w]: the j whose meet with i is w, as a bitmask."""
        out = []
        for row in self.meets:
            masks = [0] * self.n
            for j, w in enumerate(row):
                if w is not None:
                    masks[w] |= 1 << j
            out.append(tuple(masks))
        return tuple(out)

    @_derived
    def mlbs(self) -> tuple[tuple[int, ...], ...]:
        """mlbs[i][j]: the maximal lower bounds of i and j, as a bitmask."""
        return _pairwise(self.maximal_of, self.downs)

    def frink_ideal(self, x: str, y: str) -> "ElementSet":
        """L(U({x,y})); the whole carrier when x and y have no common upper bound."""
        return self.set_of(self.frink_mask(self.index(x), self.index(y)))

    def frink_mask(self, i: int, j: int) -> int:
        u = self.ups[i] & self.ups[j]
        if u == 0:
            return self.full
        m = self.full
        for z in bits(u):
            m &= self.downs[z]
        return m

    # -- extrema of subsets (mask level) -------------------------------------

    def greatest_of(self, mask: int) -> int | None:
        for u in bits(mask):
            if mask & ~self.downs[u] == 0:
                return u
        return None

    def least_of(self, mask: int) -> int | None:
        for u in bits(mask):
            if mask & ~self.ups[u] == 0:
                return u
        return None

    def maximal_of(self, mask: int) -> int:
        out = 0
        for u in bits(mask):
            if self.ups[u] & mask == 1 << u:
                out |= 1 << u
        return out

    def minimal_of(self, mask: int) -> int:
        out = 0
        for u in bits(mask):
            if self.downs[u] & mask == 1 << u:
                out |= 1 << u
        return out

    def greatest(self) -> str | None:
        g = self.greatest_of(self.full)
        return None if g is None else self.elements[g]

    def least(self) -> str | None:
        g = self.least_of(self.full)
        return None if g is None else self.elements[g]

    @_derived
    def tops(self) -> tuple[int | None, ...]:
        """tops[i]: the greatest element of the section [i), None where there is none."""
        return tuple([self.greatest_of(u) for u in self.ups])

    # -- structure ------------------------------------------------------------

    def covers(self) -> list[tuple[str, str]]:
        """Covering pairs (x, y) with x covered by y, in index order."""
        out = []
        for i in range(self.n):
            strict = self.ups[i] & ~(1 << i)
            for j in bits(strict):
                between = self.ups[i] & self.downs[j] & ~(1 << i) & ~(1 << j)
                if between == 0:
                    out.append((self.elements[i], self.elements[j]))
        return out

    def classify(self) -> "StructureReport":
        """The standard structure flags, each failure witnessed."""
        return self._structure

    @_derived
    def _structure(self) -> "StructureReport":
        """Exhaustive pair scan for the flags of classify()."""
        flags: dict[str, bool] = {}
        wit: dict[str, tuple[str, str]] = {}
        els = self.elements

        def fail(flag, i, j):
            flags[flag] = False
            wit[flag] = (els[i], els[j])

        for flag in ("is_chain", "is_up_directed", "is_upper_semilattice",
                     "is_lower_semilattice", "is_nearlattice", "all_lower_sections_chains"):
            flags[flag] = True
        for i in range(self.n):
            for j in range(i + 1, self.n):
                comp = self.leq_ix(i, j) or self.leq_ix(j, i)
                if not comp and flags["is_chain"]:
                    fail("is_chain", i, j)
                up = self.ups[i] & self.ups[j]
                down = self.downs[i] & self.downs[j]
                if up == 0 and flags["is_up_directed"]:
                    fail("is_up_directed", i, j)
                if flags["is_upper_semilattice"] and self.least_of(up) is None:
                    fail("is_upper_semilattice", i, j)
                if flags["is_lower_semilattice"] and self.greatest_of(down) is None:
                    fail("is_lower_semilattice", i, j)
                if flags["is_nearlattice"] and down != 0 and self.greatest_of(down) is None:
                    fail("is_nearlattice", i, j)
                if flags["all_lower_sections_chains"] and not comp and up != 0:
                    fail("all_lower_sections_chains", i, j)

        maxima = list(bits(self.maximal_of(self.full)))
        flags["has_greatest"] = len(maxima) == 1
        if not flags["has_greatest"]:
            wit["has_greatest"] = (els[maxima[0]], els[maxima[1]])
        minima = list(bits(self.minimal_of(self.full)))
        flags["has_least"] = len(minima) == 1
        if not flags["has_least"]:
            wit["has_least"] = (els[minima[0]], els[minima[1]])

        flags["is_sectionally_bounded"] = True
        for i in range(self.n):
            tops = list(bits(self.maximal_of(self.ups[i])))
            if len(tops) > 1:
                flags["is_sectionally_bounded"] = False
                wit["is_sectionally_bounded"] = (els[tops[0]], els[tops[1]])
                break

        flags["is_lattice"] = flags["is_upper_semilattice"] and flags["is_lower_semilattice"]
        if not flags["is_lattice"]:
            key = "is_upper_semilattice" if not flags["is_upper_semilattice"] else "is_lower_semilattice"
            wit["is_lattice"] = wit[key]

        return StructureReport(witnesses=MappingProxyType(wit), **flags)

    @_derived
    def star(self):
        """The star table, as pseudo.star_table returns it."""
        from .pseudo import complement_table  # pseudo builds on this module
        return complement_table(self, "sp")

    @_derived
    def normal_table(self):
        """The star table's total normal extension; None without a star table or a total extension."""
        from . import extensions, pseudo  # both build on this module
        return extensions.normal_extension(self.star).table if pseudo.is_sp(self) else None

    @_derived
    def union_selection(self):
        """The union selection, as extensions.selection_union returns it."""
        from .extensions import LocalSelection  # extensions builds on this module
        downs, r = self.downs, range(self.n)
        return LocalSelection(self, "union", {(i, j): downs[i] | downs[j] for i in r for j in r if i <= j})

    @_derived
    def frink_selection(self):
        """The Frink selection, as extensions.selection_frink returns it."""
        from .extensions import LocalSelection  # extensions builds on this module
        r = range(self.n)
        return LocalSelection(self, "frink", {(i, j): self.frink_mask(i, j) for i in r for j in r if i <= j})

    @_derived
    def laws(self):
        """What the law table of axioms reads of this poset, without a local
        selection (axioms.LawContext).  It keeps the plans of the laws it
        has checked twice, so later checks of other tables reuse them."""
        from .axioms import LawContext  # axioms builds on this module
        return LawContext(self)

    def restrict(self, members, name: str | None = None) -> "Poset":
        """Induced sub-poset on the given elements, keeping declaration order."""
        mask = self.subset_mask(members)
        kept = [i for i in range(self.n) if mask >> i & 1]
        pos = {i: k for k, i in enumerate(kept)}
        ups = []
        for i in kept:
            m = 0
            for j in bits(self.ups[i] & mask):
                m |= 1 << pos[j]
            ups.append(m)
        sub_name = name if name is not None else f"{self.name}|sub"
        return Poset(sub_name, tuple(self.elements[i] for i in kept), tuple(ups))


@dataclass(frozen=True)
class ElementSet:
    """A subset of one poset's carrier, kept as a bitmask."""

    owner: Poset
    mask: int

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(self.owner.elements[i] for i in bits(self.mask))

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, x) -> bool:
        return bool(self.mask >> self.owner.index(x) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __repr__(self):
        return "{" + ",".join(self.members) + "}"


@dataclass(frozen=True)
class StructureReport:
    """Classification flags with a witness pair for every flag that is false,
    in a read-only mapping from flag name to pair."""

    is_chain: bool
    is_up_directed: bool
    has_greatest: bool
    has_least: bool
    is_sectionally_bounded: bool
    is_upper_semilattice: bool
    is_lower_semilattice: bool
    is_lattice: bool
    is_nearlattice: bool
    all_lower_sections_chains: bool
    witnesses: MappingProxyType


def build_poset(name: str, elements, pairs) -> Poset:
    """Build a poset from declared order pairs (cover and le declarations alike).

    The relation is the reflexive-transitive closure of the pairs; construction
    fails if the closure violates antisymmetry, reporting the offending cycle.
    """
    elements = tuple(elements)
    cap = size_cap()
    if not 1 <= len(elements) <= cap:
        raise SizeCap(f"poset {name!r} must have between 1 and {cap} elements, got {len(elements)}")
    index: dict[str, int] = {}
    for e in elements:
        if e in index:
            raise DuplicateElement(f"duplicate element {e!r} in poset {name!r}")
        index[e] = len(index)

    n = len(elements)
    ups = [1 << i for i in range(n)]
    for x, y in pairs:
        if x not in index:
            raise UnknownElement(f"{x!r} in a declared pair is not an element of {name!r}")
        if y not in index:
            raise UnknownElement(f"{y!r} in a declared pair is not an element of {name!r}")
        ups[index[x]] |= 1 << index[y]

    changed = True
    while changed:
        changed = False
        for i in range(n):
            m = ups[i]
            for j in bits(m):
                m |= ups[j]
            if m != ups[i]:
                ups[i] = m
                changed = True

    for i in range(n):
        for j in bits(ups[i]):
            if j != i and ups[j] >> i & 1:
                cycle = [elements[k] for k in bits(ups[i]) if ups[k] >> i & 1]
                raise AntisymmetryViolation(cycle)

    return Poset(name, elements, tuple(ups))
