"""Total extension rules for a sectional pseudocomplementation table.

Every constructor either returns a TotalTable or an ExtensionResult whose
undefined pairs carry the antichain that blocked the required maximum or
minimum; rules never raise just because a cell has no value.  A rule that may
be partial is its table of per-pair candidate masks, whose greatest or least
elements one builder (_extremum_table) turns into the result.  Rules that admit
two independent formulations (the natural min/max forms, the meet-rule and its
greatest-element form, the dual rule and the Frink-selection min rule) always
compute both and treat disagreement as an implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InternalDisagreement,
    MextSchDisagreement,
    NotMeetSemilattice,
    NotSectionallyBounded,
    SelectionAxiomViolation,
    StructureMismatch,
)
from .poset import ElementSet, Poset, _derived, bits
from .pseudo import PartialTable, TotalTable, _defining_mask


@dataclass(frozen=True)
class UndefinedPair:
    """A cell an extension rule could not fill, with the blocking candidates."""

    x: str
    y: str
    candidates: tuple[str, ...]
    reason: str  # "no-greatest-value" | "no-least-value" | "no-common-upper-bound" | ...


@dataclass(frozen=True)
class ExtensionResult:
    table: TotalTable | None
    undefined: tuple[UndefinedPair, ...]

    @property
    def is_total(self) -> bool:
        return self.table is not None

    def __post_init__(self):
        if (self.table is None) == (len(self.undefined) == 0):
            raise ValueError("exactly one of table / undefined pairs must be present")


def _bounded_tops(p: Poset) -> tuple[int, ...]:
    """p.tops, when every section has a greatest element."""
    if None in p.tops:
        i = p.tops.index(None)
        two = list(bits(p.maximal_of(p.ups[i])))[:2]
        raise NotSectionallyBounded(
            f"section [{p.elements[i]}) of {p.name!r} has maximal elements "
            f"{p.elements[two[0]]} and {p.elements[two[1]]}")
    return p.tops


def _extremum_table(p: Poset, masks, greatest: bool, empty_reason: str | None = None) -> ExtensionResult:
    """The rule whose cell (x, y) is the greatest (least) element of masks[x][y].

    Where that element does not exist the pair is undefined: its candidates
    are the maximal (minimal) elements of the mask, and its reason is
    "no-greatest-value" ("no-least-value"), or empty_reason when the mask is
    empty.  Undefined pairs come in row-major order.  A rule without an
    empty_reason never has an empty mask, so one is an InternalDisagreement.
    """
    pick, bound, reason = ((p.greatest_of, p.maximal_of, "no-greatest-value") if greatest
                           else (p.least_of, p.minimal_of, "no-least-value"))
    cells = tuple([tuple(map(pick, row)) for row in masks])
    if not any(None in row for row in cells):
        return ExtensionResult(TotalTable._from_checked_rows(p, cells), ())
    els = p.elements
    undefined = []
    for x, row in enumerate(masks):
        for y, m in enumerate(row):
            if cells[x][y] is None:
                if m:
                    undefined.append(UndefinedPair(els[x], els[y], tuple([els[u] for u in bits(bound(m))]),
                                                   reason))
                elif empty_reason is None:
                    raise InternalDisagreement(
                        f"no candidate at ({els[x]}, {els[y]}) on {p.name!r}, where the rule always has one")
                else:
                    undefined.append(UndefinedPair(els[x], els[y], (), empty_reason))
    return ExtensionResult(None, tuple(undefined))


def _star_values(s: PartialTable, zmasks) -> list:
    """values[x][y]: the mask of the star values z*y over the z in zmasks[x][y],
    all of which lie in [y)."""
    cells = s.cells
    out = []
    for row in zmasks:
        vals = []
        for y, zmask in enumerate(row):
            v = 0
            while zmask:  # bits(zmask) inlined: this loop is most of a rule's time
                low = zmask & -zmask
                v |= 1 << cells[low.bit_length() - 1][y]
                zmask ^= low
            vals.append(v)
        out.append(vals)
    return out


# -- rules that are always total on sectionally bounded star posets -----------


def pure_extension(s: PartialTable) -> TotalTable:
    """x -> y is x*y for y <= x, the top of [x) for x < y, and y otherwise."""
    p = s.owner
    tops = _bounded_tops(p)
    n = p.n
    cells = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if p.leq_ix(y, x):
                cells[x][y] = s.cells[x][y]
            elif p.leq_ix(x, y):
                cells[x][y] = tops[x]
            else:
                cells[x][y] = y
    return TotalTable(p, cells)


def natural_extension(s: PartialTable) -> TotalTable:
    """x -> y is x*y for y <= x and the top of [y) otherwise.

    Pointwise this is max{u >= y : u disjoint from x over y}, the same
    defining set as the sectional pseudocomplement with the restriction
    y <= x dropped.
    """
    p = s.owner
    tops = _bounded_tops(p)
    n = p.n
    cells = [
        [s.cells[x][y] if p.leq_ix(y, x) else tops[y] for y in range(n)]
        for x in range(n)
    ]
    return TotalTable(p, cells)


def natural_min_cells(s: PartialTable) -> tuple[list, list]:
    """The cells of the natural extension's two min forms, min{z*y : z in
    [y,x] or z = y} and min{z*y : z in ((x] u (y]) n [y)}, None where the
    minimum does not exist."""
    p = s.owner
    ups, downs, r = p.ups, p.downs, range(p.n)
    first = _star_values(s, [[ups[y] & downs[x] | 1 << y for y in r] for x in r])
    second = _star_values(s, [[(downs[x] | downs[y]) & ups[y] for y in r] for x in r])
    return ([list(map(p.least_of, row)) for row in first],
            [list(map(p.least_of, row)) for row in second])


def natural_min_form(s: PartialTable) -> TotalTable:
    """The natural extension computed as min{z*y : z in [y,x] or z = y}.

    Both min formulations (natural_min_cells) are compared against the max
    form; any mismatch means the input was not a sectional
    pseudocomplementation table or there is a bug.
    """
    p = s.owner
    maxform = natural_extension(s)
    first, second = natural_min_cells(s)
    for x in range(p.n):
        for y in range(p.n):
            v0, v1, v2 = maxform.cells[x][y], first[x][y], second[x][y]
            if v1 is None or v1 != v2 or v1 != v0:
                raise InternalDisagreement(
                    f"natural extension forms disagree at ({p.elements[x]}, {p.elements[y]}): "
                    f"max-form {p.elements[v0]}, min-forms "
                    f"{'none' if v1 is None else p.elements[v1]} / "
                    f"{'none' if v2 is None else p.elements[v2]}")
    return TotalTable(p, first)


# -- rules that may be partial -------------------------------------------------


def normal_extension(s: PartialTable) -> ExtensionResult:
    """x -> y as max{z*y : z a common upper bound of x and y}, where that max exists."""
    p = s.owner
    ups = p.ups
    values = _star_values(s, [[a & b for b in ups] for a in ups])
    return _extremum_table(p, values, True, "no-common-upper-bound")


class LocalSelection:
    """A symmetric assignment of a down-set to every pair of elements.

    Required laws: x and y belong to I(x, y); I(x, y) = I(y, x); I(x, y) = (x]
    when y <= x; and I(x, y) grows when either argument grows.  The derived
    consequences need no check of their own: (x] u (y] <= I(x, y) holds for a
    down-set holding x and y, and I(x, y) <= (z] for a common upper bound z is
    growth in x up to z, since I(z, y) = (z].
    ``rows[i][j]`` is the mask of I(i, j), for both orders of every pair;
    the constructor reads it from `masks`, keyed by (min(i,j), max(i,j)), and
    validates it.  A selection keeps its i-natural cells and its law context
    the same way a poset keeps its derived tables.
    """

    __slots__ = ("owner", "kind", "rows", "_tables")

    def __init__(self, owner: Poset, kind: str, masks: dict):
        self.owner = owner
        self.kind = kind
        r = range(owner.n)
        self.rows = tuple(tuple(masks[(i, j) if i <= j else (j, i)] for j in r) for i in r)
        self._tables: dict = {}
        self._validate()

    def mask_ix(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def choose(self, x: str, y: str) -> ElementSet:
        return self.owner.set_of(self.mask_ix(self.owner.index(x), self.owner.index(y)))

    def __eq__(self, other):
        return (
            isinstance(other, LocalSelection)
            and self.owner == other.owner
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.owner, self.rows))

    @_derived
    def inat_cells(self) -> tuple[tuple[int | None, ...], ...]:
        """inat_cells[x][y]: the i-natural value max{u : (u] n I(x,y) n [y) = {y}},
        None where that set has no greatest element."""
        p, r = self.owner, range(self.owner.n)
        return tuple([tuple([i_natural_cell(p, self, x, y) for y in r]) for x in r])

    @_derived
    def laws(self):
        """The axioms.LawContext of the owner with this selection, kept the way Poset.laws is."""
        from .axioms import LawContext  # axioms builds on this module
        return LawContext(self.owner, self)

    def _validate(self):
        p = self.owner
        els = p.elements
        rows = self.rows
        for i in range(p.n):
            for j in range(i, p.n):
                m = rows[i][j]
                for u in bits(m):
                    if p.downs[u] & ~m:
                        raise SelectionAxiomViolation("down-set", (els[i], els[j], els[u]))
                if not (m >> i & 1 and m >> j & 1):
                    raise SelectionAxiomViolation("I0", (els[i], els[j]))
                if p.leq_ix(j, i) and m != p.downs[i]:
                    raise SelectionAxiomViolation("I2", (els[i], els[j]))
                if p.leq_ix(i, j) and m != p.downs[j]:
                    raise SelectionAxiomViolation("I2", (els[i], els[j]))
        for i in range(p.n):
            for j in range(p.n):
                m = rows[i][j]
                for i2 in bits(p.ups[i]):
                    if m & ~rows[i2][j]:
                        raise SelectionAxiomViolation("I3", (els[i], els[j], els[i2]))


def require_owner(p: Poset, sel: LocalSelection | None) -> None:
    """Raise StructureMismatch unless sel is None or a selection over p."""
    if sel is not None and sel.owner != p:
        raise StructureMismatch(f"selection is over poset {sel.owner.name!r}, not {p.name!r}")


def selection_union(p: Poset) -> LocalSelection:
    """I(x, y) = (x] u (y], the smallest legal selection.  It is built and
    validated once per poset (Poset.union_selection), and every call returns
    that one value."""
    return p.union_selection


def selection_frink(p: Poset) -> LocalSelection:
    """I(x, y) = L(U({x, y})), the largest legal selection.  It is built and
    validated once per poset (Poset.frink_selection), and every call returns
    that one value."""
    return p.frink_selection


def selection_custom(p: Poset, table) -> LocalSelection:
    """Selection from an explicit pair table {(x, y): members}; comparable pairs default to (max].

    The table may list each unordered pair in either or both orders; listing a
    pair twice with different member sets violates symmetry.
    """
    masks = {}
    for (x, y), members in table.items():
        i, j = p.index(x), p.index(y)
        key = (i, j) if i <= j else (j, i)
        m = p.subset_mask(members)
        if key in masks and masks[key] != m:
            raise SelectionAxiomViolation("I1", (x, y))
        masks[key] = m
    for i in range(p.n):
        for j in range(i, p.n):
            if (i, j) in masks:
                continue
            if p.leq_ix(i, j):
                masks[(i, j)] = p.downs[j]
            elif p.leq_ix(j, i):
                masks[(i, j)] = p.downs[i]
            else:
                raise SelectionAxiomViolation(
                    "missing-pair", (p.elements[i], p.elements[j]))
    return LocalSelection(p, "custom-table", masks)


def i_natural_defining_mask(p: Poset, sel: LocalSelection, x: int, y: int) -> int:
    """Candidates u with (u] n I(x,y) n [y) = {y}, as a mask over indices."""
    return _defining_mask(p, sel.rows[x][y] & p.ups[y], 1 << y)


def i_natural_cell(p: Poset, sel: LocalSelection, x: int, y: int) -> int | None:
    return p.greatest_of(i_natural_defining_mask(p, sel, x, y))


def i_natural_extension(p: Poset, sel: LocalSelection) -> ExtensionResult:
    """x -> y as max{u : (u] n I(x,y) n [y) = {y}} for a local selection I
    over p, from the cells the selection keeps (LocalSelection.inat_cells)."""
    require_owner(p, sel)
    cells = sel.inat_cells
    if not any(None in row for row in cells):
        return ExtensionResult(TotalTable._from_checked_rows(p, cells), ())
    r = range(p.n)
    return _extremum_table(p, [[i_natural_defining_mask(p, sel, x, y) for y in r] for x in r], True)


def i_min_extension(s: PartialTable, sel: LocalSelection) -> ExtensionResult:
    """x -> y as min{z*y : z in I(x,y) n [y)} for a local selection I over s's poset."""
    p = s.owner
    require_owner(p, sel)
    ups = p.ups
    values = _star_values(s, [[m & ups[y] for y, m in enumerate(row)] for row in sel.rows])
    return _extremum_table(p, values, False, "no-least-value")


def dual_j_extension(s: PartialTable) -> ExtensionResult:
    """x -> y as min{z*y : U({x,y}) inside [z) inside [y)}.

    The z-range is exactly the Frink ideal of the pair cut to [y), so the
    result must coincide with i_min_extension under the Frink selection; both
    are computed and compared.
    """
    p = s.owner
    n, ups = p.n, p.ups
    values = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            ub = ups[x] & ups[y]
            vals = 0
            for z in range(n):
                if ub & ~ups[z] == 0 and ups[z] & ~ups[y] == 0:
                    vals |= 1 << s.cells[z][y]
            values[x][y] = vals
    result = _extremum_table(p, values, False, "no-least-value")
    frink = i_min_extension(s, selection_frink(p))
    if result != frink:
        raise InternalDisagreement("dual rule disagrees with Frink-selection min rule")
    return result


def m_extension(s: PartialTable) -> TotalTable:
    """x -> y as x * (x meet y) on a meet semilattice.

    Cross-checked against the equivalent form max{u : u meet x = x meet y};
    they must agree cell by cell.
    """
    p = s.owner
    meets, meet_masks = p.meets, p.meet_masks
    for x, row in enumerate(meets):
        if None in row:
            raise NotMeetSemilattice(
                f"{p.name!r} has no meet for ({p.elements[x]}, {p.elements[row.index(None)]})")
    cells = [[s.cells[x][w] for w in row] for x, row in enumerate(meets)]
    for x, row in enumerate(meets):
        for y, w in enumerate(row):
            # meet_masks[x][w]: the u whose meet with x is w
            if p.greatest_of(meet_masks[x][w]) != cells[x][y]:
                raise MextSchDisagreement(
                    f"meet rule and its greatest-element form disagree at "
                    f"({p.elements[x]}, {p.elements[y]})")
    return TotalTable(p, cells)


def mlb_extension(p: Poset) -> ExtensionResult:
    """x -> y as max{u : the pairs (u, x) and (x, y) have the same maximal lower bounds}.

    The comparison is literal equality of maximal-lower-bound sets.  On meet
    semilattices those sets are singletons and the rule extends the sectional
    pseudocomplementation; on general posets the sectioned slice can differ
    from x*y (the bundled hexagon witnesses this at (c, a)).
    """
    mlbs = p.mlbs
    masks = []
    for x, row in enumerate(mlbs):
        same = {}  # a bound set -> the u whose pair (u, x) has it
        for u, urow in enumerate(mlbs):
            same[urow[x]] = same.get(urow[x], 0) | 1 << u
        masks.append([same.get(target, 0) for target in row])
    return _extremum_table(p, masks, True)


def lb_min_extension(s: PartialTable) -> ExtensionResult:
    """Experimental rule: x -> y as min{x*z : z a common lower bound of x and y}.

    Unlike the other rules this one is not guaranteed to extend the star table
    (that needs the star operation antitone in its second argument), so no
    totality or extension property is claimed.
    """
    p = s.owner
    n, downs = p.n, p.downs
    values = [[0] * n for _ in range(n)]
    for x in range(n):
        row = s.cells[x]
        for y in range(n):
            vals = 0
            for z in bits(downs[x] & downs[y]):
                vals |= 1 << row[z]
            values[x][y] = vals
    return _extremum_table(p, values, False, "no-common-lower-bound")
