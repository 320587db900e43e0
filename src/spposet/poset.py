"""Finite posets stored as bitmask relation rows, plus every order query the rest builds on."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .errors import AntisymmetryViolation, DuplicateElement, SizeCap, UnknownElement, UnknownOption

SIZE_CAP = 16  # the most elements build_poset accepts


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


def closure(rows, mask: int) -> int:
    """The union of rows[u] over the u in mask: over up-masks the up-closure
    of mask, over down-masks its down-closure.  rows must be reflexive and
    transitive, as ups and downs are, so the members a row already holds are
    not visited again."""
    out = 0
    while mask:
        out |= rows[(mask & -mask).bit_length() - 1]
        mask &= ~out
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


def _covering(rows, mask: int, rest: int) -> int | None:
    """The lowest u in rest whose row holds all of mask, None where there is none."""
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        if mask & ~rows[u] == 0:
            return u
        rest ^= low
    return None


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
    lower bounds, section tops, upper covers, the local disjointness and
    meet masks, the bound-witness masks, the classify() report, the star
    table and its total normal extension, and the union and Frink
    selections, each validated once, with their i-natural cells) are
    immutable values, each built once, on its first read, and kept for the
    poset's lifetime.  The law context (laws), and each kept selection's, is
    built the same way and then keeps the plans of the laws it checks more
    than once, and the column set-ups of the axiom systems it solves, which
    depend on nothing else.

    greatest_of (least_of) tests the highest (lowest) index of its mask
    first.  When the labeling is a linear extension of the order, as every
    class representative of the enumeration's is, that one bit test is the
    answer, hit or miss; on any other labeling a miss scans the rest of the
    mask.  Whether the labeling is one is a derived table too, read only on
    a miss.

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
            raise UnknownOption(f"direction must be 'upper' or 'lower', got {direction!r}")
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

        [b,u] and [b,z] meet at most in b exactly when no element of the
        strict segment (b,u] lies below z: the z outside its up-closure.  So
        a law over a whole set of z is one mask test.
        """
        ups, downs, full = self.ups, self.downs, self.full
        return tuple([tuple([full & ~closure(ups, strict) if (strict := up & down & ~(1 << b)) else full
                             for b, up in enumerate(ups)]) for down in downs])

    @_derived
    def meet_over_masks(self) -> tuple[tuple[int, ...], ...]:
        """meet_over_masks[u][b]: the z with meet_over_ix(u, z, b) == b, as a bitmask.

        That meet is b exactly when [b,u] n [b,z] = {b}: for b <= u, the z in
        [b) outside the up-closure of the strict segment (b,u], as in
        disjoint_over_masks; for no z otherwise.
        """
        ups, downs = self.ups, self.downs
        return tuple([tuple([up & ~closure(ups, up & down & ~(1 << b)) if down >> b & 1 else 0
                             for b, up in enumerate(ups)]) for down in downs])

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
        return self.lower_bounds_of(self.ups[i] & self.ups[j])

    def lower_bounds_of(self, mask: int) -> int:
        """The common lower bounds of mask, as a mask; the whole carrier for 0."""
        m, downs = self.full, self.downs
        while mask:
            low = mask & -mask
            m &= downs[low.bit_length() - 1]
            mask ^= low
        return m

    # -- extrema of subsets (mask level) -------------------------------------

    @_derived
    def _linear_labels(self) -> bool:
        """Whether the labeling is a linear extension: no element lies below
        one with a smaller index.  Read only when an extremum query misses."""
        return all([d >> i == 1 for i, d in enumerate(self.downs)])

    def greatest_of(self, mask: int) -> int | None:
        """The greatest element of mask, None where there is none.  The
        highest index is tested first: on a linear-extension labeling only it
        can be the greatest, so one test answers; other labelings test the
        rest of mask after a miss."""
        if not mask:
            return None
        u = mask.bit_length() - 1
        if mask & ~self.downs[u] == 0:
            return u
        return None if self._linear_labels else _covering(self.downs, mask, mask ^ 1 << u)

    def least_of(self, mask: int) -> int | None:
        """The least element of mask, None where there is none; the lowest
        index is tested first, as greatest_of tests the highest."""
        if not mask:
            return None
        low = mask & -mask
        if mask & ~self.ups[low.bit_length() - 1] == 0:
            return low.bit_length() - 1
        return None if self._linear_labels else _covering(self.ups, mask, mask ^ low)

    def maximal_of(self, mask: int) -> int:
        out, rest, ups = 0, mask, self.ups
        while rest:
            low = rest & -rest
            if ups[low.bit_length() - 1] & mask == low:
                out |= low
            rest ^= low
        return out

    def minimal_of(self, mask: int) -> int:
        out, rest, downs = 0, mask, self.downs
        while rest:
            low = rest & -rest
            if downs[low.bit_length() - 1] & mask == low:
                out |= low
            rest ^= low
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

    @_derived
    def upper_covers(self) -> tuple[int, ...]:
        """upper_covers[i]: the elements covering i, as a bitmask: the minimal
        elements strictly above i."""
        return tuple([self.minimal_of(up & ~(1 << i)) for i, up in enumerate(self.ups)])

    def covers(self) -> list[tuple[str, str]]:
        """Covering pairs (x, y) with x covered by y, in index order."""
        els = self.elements
        return [(els[i], els[j]) for i, m in enumerate(self.upper_covers) for j in bits(m)]

    def classify(self) -> "StructureReport":
        """The standard structure flags, each failure witnessed."""
        return self._structure

    @_derived
    def _structure(self) -> "StructureReport":
        """The flags of classify(), each false one witnessed by its first
        failing pair (i, j), i < j in row-major order.  The flags read off
        the order are tested one row mask at a time, of the j for which
        (i, j) fails; the semilattice flags need each pair's join or meet,
        so the pairs are scanned until each of them has failed."""
        n, ups, downs, els, full = self.n, self.ups, self.downs, self.elements, self.full
        flags: dict[str, bool] = {}
        wit: dict[str, tuple[str, str]] = {}
        # linked[i]: the j that have an upper bound in common with i, the down-closure of [i)
        linked = [closure(downs, up) for up in ups]
        incomparable = [full & ~(u | d) for u, d in zip(ups, downs)]
        failing = {
            "is_chain": incomparable,
            "is_up_directed": [full & ~m for m in linked],
            "all_lower_sections_chains": [c & m for c, m in zip(incomparable, linked)],
        }
        for flag, rows in failing.items():
            flags[flag] = True
            for i, m in enumerate(rows):
                m &= -2 << i  # the j > i
                if m:
                    flags[flag] = False
                    wit[flag] = (els[i], els[(m & -m).bit_length() - 1])
                    break

        upper = lower = near = True
        least, greatest = self.least_of, self.greatest_of
        for i in range(n):
            if not (upper or lower or near):
                break
            for j in range(i + 1, n):
                if upper and least(ups[i] & ups[j]) is None:
                    upper, wit["is_upper_semilattice"] = False, (els[i], els[j])
                down = downs[i] & downs[j]
                if (lower or near and down) and greatest(down) is None:
                    if lower:
                        lower, wit["is_lower_semilattice"] = False, (els[i], els[j])
                    if near and down:
                        near, wit["is_nearlattice"] = False, (els[i], els[j])
        flags.update(is_upper_semilattice=upper, is_lower_semilattice=lower, is_nearlattice=near)

        maxima = list(bits(self.maximal_of(self.full)))
        flags["has_greatest"] = len(maxima) == 1
        if not flags["has_greatest"]:
            wit["has_greatest"] = (els[maxima[0]], els[maxima[1]])
        minima = list(bits(self.minimal_of(self.full)))
        flags["has_least"] = len(minima) == 1
        if not flags["has_least"]:
            wit["has_least"] = (els[minima[0]], els[minima[1]])

        flags["is_sectionally_bounded"] = None not in self.tops
        if not flags["is_sectionally_bounded"]:
            tops = list(bits(self.maximal_of(ups[self.tops.index(None)])))
            wit["is_sectionally_bounded"] = (els[tops[0]], els[tops[1]])

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
        downs = self.downs
        return LocalSelection._of_rows(self, "union", tuple([tuple([d | e for e in downs]) for d in downs]))

    @_derived
    def frink_selection(self):
        """The Frink selection, as extensions.selection_frink returns it."""
        from .extensions import LocalSelection  # extensions builds on this module
        return LocalSelection._of_rows(self, "frink", _pairwise(self.lower_bounds_of, self.ups))

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
        sub_name = name if name is not None else f"{self.name}|sub"
        if not kept:
            raise SizeCap(f"poset {sub_name!r} must have between 1 and {SIZE_CAP} elements, got 0")
        pos = {i: k for k, i in enumerate(kept)}
        ups = []
        for i in kept:
            m = 0
            for j in bits(self.ups[i] & mask):
                m |= 1 << pos[j]
            ups.append(m)
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

    The relation is the reflexive-transitive closure of the pairs, taken
    Warshall-style; construction fails if the closure violates antisymmetry,
    reporting the offending cycle.
    """
    elements = tuple(elements)
    if not 1 <= len(elements) <= SIZE_CAP:
        raise SizeCap(f"poset {name!r} must have between 1 and {SIZE_CAP} elements, got {len(elements)}")
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

    for k in range(n):  # every element that reaches k reaches what k reaches
        up, bit = ups[k], 1 << k
        ups = [u | up if u & bit else u for u in ups]

    p = Poset(name, elements, ups)
    for i, (up, down) in enumerate(zip(p.ups, p.downs)):
        if up & down != 1 << i:  # the elements both above and below i form a cycle
            raise AntisymmetryViolation([elements[k] for k in bits(up & down)])
    return p
