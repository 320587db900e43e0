"""Pointwise pseudocomplement computations and the partial/total operation tables they fill.

Four local notions are computed, all as the greatest element of a defining set:

  sp(x, y)  = max {u : [y,u] n [y,x] = {y}}          (y <= x required)
  rp(x, y)  = max {u : (u] n (x] subset of (y]}
  wrp(x, y) = max {u : (u] n (x] = (y]}
  clp(x, y) = max {u : L([x) n [y)) n (u] = (y]}

Each defining set is {u in W : (u] n A = B} for masks W, A and B fixed by
the pair, where B lies in (u] for every u in W: W is [y) with B = {y} or
(y], or W is P with B empty.  Such a set is empty when B is not inside A,
and is otherwise W minus the up-closure of A minus B.  So one mask
expression (_defining_mask) serves all four and the i-natural rule of
extensions, one function (value_ix) gives any kind's complement of one
pair, and one builder (complement_table) makes the table of each.  When
the set has several maximal elements there is no maximum and the
complement does not exist; the builder then returns that antichain and its
pair as a MissingWitness instead of raising.  The star table is
complement_table(p, "sp"), built once per poset; its laws
(verify_sp_properties) are the sp-prop suite of axioms.verify_lemma_suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import is_

from .errors import MalformedTable, NotInSection, StructureMismatch
from .poset import SIZE_CAP, Poset, bits, closure, members


class _Table:
    """What the two table kinds share: an owner poset and rows of cells."""

    __slots__ = ("owner", "cells")

    @classmethod
    def _from_checked_rows(cls, owner: Poset, rows: tuple):
        """A table over rows that the caller has already checked: a tuple of
        owner.n tuples of cells that the table kind admits.  Nothing is
        checked or copied here."""
        t = object.__new__(cls)
        t.owner = owner
        t.cells = rows
        return t

    def __eq__(self, other):
        return type(other) is type(self) and self.owner == other.owner and self.cells == other.cells

    def __hash__(self):
        return hash((self.owner, self.cells))

    def __repr__(self):
        return f"{type(self).__name__}(over {self.owner.name!r})"


def _check_shape(owner: Poset, cells: tuple) -> None:
    n = owner.n
    if len(cells) != n or any(len(r) != n for r in cells):
        raise MalformedTable(f"table must be {n}x{n}")


def _cells_of_ids(owner: Poset, rows, undefined: bool) -> tuple:
    """rows, a sequence of rows of value identifiers, with each identifier
    replaced by its index (None stays None where undefined cells are
    allowed), checked to be owner.n rows of owner.n cells.  The first unknown
    identifier in row-major order raises UnknownElement, as Poset.index does."""
    index = owner._index
    get = ({**index, None: None} if undefined else index).__getitem__
    cells = []
    for row in rows:
        try:
            cells.append(tuple(map(get, row)))
        except KeyError:
            for v in row:
                if v is not None or not undefined:
                    owner.index(v)
            raise
    cells = tuple(cells)
    _check_shape(owner, cells)
    return cells


_BITS = tuple(1 << y for y in range(SIZE_CAP))
# _CELLS[n]: the cells a partial table over n elements may hold without a closer look
_CELLS = tuple(frozenset([None, *range(n)]) for n in range(SIZE_CAP + 1))


def _none_mask(row) -> int:
    """The indices of the cells of row that are None, as a bitmask."""
    return sum(compress(_BITS, map(is_, row, repeat(None))))


def _check_domain(owner: Poset, cells: tuple) -> None:
    """Check that the cells defined in each row x are those of (x], and that
    they hold int values in range(n), as a TotalTable's do, one row mask at
    a time.  The first wrong cell in row-major order raises, as a
    cell-by-cell check would name it."""
    els, full, n = owner.elements, owner.full, owner.n
    is_int = int.__instancecheck__
    for x, (row, down) in enumerate(zip(cells, owner.downs)):
        none = _none_mask(row)
        wrong = full ^ none ^ down
        # a value not in range(n), or equal to one but not an int, somewhere
        if not (_CELLS[n].issuperset(row) and sum(map(is_int, row)) + none.bit_count() == n):
            before = down & ((wrong & -wrong) - 1 if wrong else full)
            for y in members(before):
                if not (is_int(row[y]) and 0 <= row[y] < n):
                    raise MalformedTable(f"value out of range at ({x}, {y})")
        if wrong:
            y = (wrong & -wrong).bit_length() - 1
            if down >> y & 1:
                raise MalformedTable(f"missing value at sectioned pair ({els[x]}, {els[y]})")
            raise MalformedTable(f"value outside the domain y <= x at ({els[x]}, {els[y]})")


class PartialTable(_Table):
    """A binary operation defined on exactly the pairs (x, y) with y <= x.

    cells[x][y] holds the value's index for sectioned pairs and None elsewhere;
    the constructor enforces that shape.
    """

    __slots__ = ()

    def __init__(self, owner: Poset, cells):
        self.owner = owner
        self.cells = tuple(tuple(row) for row in cells)
        _check_shape(owner, self.cells)
        _check_domain(owner, self.cells)

    @classmethod
    def from_ids(cls, owner: Poset, rows) -> "PartialTable":
        """rows: per-element list of value identifiers in declaration order, None for undefined."""
        cells = _cells_of_ids(owner, rows, True)
        _check_domain(owner, cells)
        return cls._from_checked_rows(owner, cells)

    def defined(self, x: str, y: str) -> bool:
        return self.cells[self.owner.index(x)][self.owner.index(y)] is not None

    def value(self, x: str, y: str) -> str:
        v = self.cells[self.owner.index(x)][self.owner.index(y)]
        if v is None:
            raise NotInSection(f"({x}, {y}) is outside the domain y <= x")
        return self.owner.elements[v]

    def domain(self):
        """Defined pairs (x, y) in row-major declaration order."""
        els = self.owner.elements
        for x in range(self.owner.n):
            for y in range(self.owner.n):
                if self.cells[x][y] is not None:
                    yield els[x], els[y]


class TotalTable(_Table):
    """A binary operation defined on all pairs, cells[x][y] holding value indices.

    The constructor validates every cell; from_ids needs no cell check, as
    every identifier it maps is an element.
    """

    __slots__ = ()

    def __init__(self, owner: Poset, cells):
        self.owner = owner
        self.cells = tuple(tuple(row) for row in cells)
        _check_shape(owner, self.cells)
        is_int, elements = int.__instancecheck__, frozenset(range(owner.n))
        for row in self.cells:
            if not (all(map(is_int, row)) and elements.issuperset(row)):
                raise MalformedTable("total table must map every pair to an element")

    @classmethod
    def from_ids(cls, owner: Poset, rows) -> "TotalTable":
        return cls._from_checked_rows(owner, _cells_of_ids(owner, rows, False))

    def value(self, x: str, y: str) -> str:
        return self.owner.elements[self.cells[self.owner.index(x)][self.owner.index(y)]]


@dataclass(frozen=True)
class MissingWitness:
    """A sectioned pair whose defining set has no greatest element."""

    x: str
    y: str
    candidates: tuple[str, ...]


# -- the shared defining-set evaluator ----------------------------------------


def _defining_mask(p: Poset, a: int, b: int, within: int) -> int:
    """The u in `within` with (u] n A = B, as a mask; every defining set has
    this form.  B must lie in (u] for every u in `within`, as it does in [y)
    when B is {y} or (y], and in P when B is empty.  Then (u] n A holds B
    exactly when A does, and holds no more exactly when u is outside the
    up-closure of A minus B."""
    if b & ~a:
        return 0
    return within & ~closure(p.ups, a & ~b)


def _sp_mask(p: Poset, xi: int, yi: int) -> int:
    return _defining_mask(p, p.ups[yi] & p.downs[xi], 1 << yi, p.ups[yi])


def _rp_mask(p: Poset, xi: int, yi: int) -> int:
    return _defining_mask(p, p.downs[xi] & ~p.downs[yi], 0, p.full)


def _wrp_mask(p: Poset, xi: int, yi: int) -> int:
    return _defining_mask(p, p.downs[xi], p.downs[yi], p.ups[yi])


def _clp_mask(p: Poset, xi: int, yi: int) -> int:
    return _defining_mask(p, p.frink_mask(xi, yi), p.downs[yi], p.ups[yi])


# kind -> (its defining set per pair, whether only the pairs y <= x are in its domain)
_KINDS = {"sp": (_sp_mask, True), "rp": (_rp_mask, False),
          "wrp": (_wrp_mask, True), "clp": (_clp_mask, False)}


def value_ix(p: Poset, kind: str, xi: int, yi: int) -> int | None:
    """The sp, rp, wrp or clp complement of the pair (xi, yi) of indices, None
    where its defining set has no greatest element; sp assumes yi <= xi."""
    return p.greatest_of(_KINDS[kind][0](p, xi, yi))


def _by_name(p: Poset, kind: str, x: str, y: str) -> str | None:
    v = value_ix(p, kind, p.index(x), p.index(y))
    return None if v is None else p.elements[v]


def sp_complement(p: Poset, x: str, y: str) -> str | None:
    """Pseudocomplement of x in the section [y); y <= x required."""
    xi, yi = p.index(x), p.index(y)
    if not p.leq_ix(yi, xi):
        raise NotInSection(f"({x}, {y}) requires {y} <= {x}")
    v = value_ix(p, "sp", xi, yi)
    return None if v is None else p.elements[v]


def rp_complement(p: Poset, x: str, y: str) -> str | None:
    """Relative pseudocomplement: greatest u with (u] n (x] inside (y]."""
    return _by_name(p, "rp", x, y)


def wrp_complement(p: Poset, x: str, y: str) -> str | None:
    """Weak relative pseudocomplement: greatest u with (u] n (x] = (y]."""
    return _by_name(p, "wrp", x, y)


def clp_complement(p: Poset, x: str, y: str) -> str | None:
    """Greatest u with L([x) n [y)) n (u] = (y]."""
    return _by_name(p, "clp", x, y)


def section_top(p: Poset, x: str) -> str | None:
    """Greatest element of [x) when it exists."""
    t = p.tops[p.index(x)]
    return None if t is None else p.elements[t]


def _fill(p: Poset, kind: str, cells: list) -> tuple[int, int, int] | None:
    """Fill the rows `cells` with the complement of each pair in kind's domain,
    in row-major order, up to the first pair whose defining set has no
    greatest element; return that pair and its defining set, or None."""
    mask, sectional = _KINDS[kind]
    greatest, r = p.greatest_of, range(p.n)
    for x in r:
        row = cells[x]
        for y in members(p.downs[x]) if sectional else r:
            m = mask(p, x, y)
            v = greatest(m)
            if v is None:
                return x, y, m
            row[y] = v
    return None


def complement_table(p: Poset, kind: str):
    """The sp, rp, wrp or clp complement of every pair in its domain, as a table.

    sp and wrp are sectional notions, so their tables are PartialTables over
    the pairs y <= x; the rp and clp tables are TotalTables.  When some pair's
    defining set has no greatest element, the result is instead a
    MissingWitness naming the first such pair, in row-major order, and the
    maximal elements of its defining set.
    """
    cells = [[None] * p.n for _ in range(p.n)]
    missing = _fill(p, kind, cells)
    if missing is not None:
        x, y, m = missing
        els = p.elements
        return MissingWitness(els[x], els[y], tuple(els[u] for u in bits(p.maximal_of(m))))
    return PartialTable(p, cells) if _KINDS[kind][1] else TotalTable(p, cells)


def _total_table(p: Poset, kind: str) -> TotalTable | None:
    """complement_table(p, kind) for the total kinds rp and clp, or None where
    that is a MissingWitness, which is not built: the path of the hunts,
    which ask only whether the table is total."""
    cells = [[None] * p.n for _ in range(p.n)]
    if _fill(p, kind, cells) is not None:
        return None
    return TotalTable._from_checked_rows(p, tuple(map(tuple, cells)))


def star_table(p: Poset):
    """The full sectional pseudocomplementation table, or the first pair where it fails.

    Returns a PartialTable when every sectioned pair has a pseudocomplement;
    otherwise a MissingWitness naming the pair and the antichain of maximal
    candidates of its defining set.  It is complement_table(p, "sp"), built
    once per poset (Poset.star), and every call returns that one value.
    """
    return p.star


def _star_owner(s) -> Poset:
    """The poset of s, a star table given to a rule or to the extension
    stream; a MissingWitness in its place raises StructureMismatch naming
    its pair."""
    if isinstance(s, MissingWitness):
        raise StructureMismatch(f"no star table: the sectioned pair ({s.x}, {s.y}) has no sectional "
                                f"pseudocomplement, maximal candidates {' '.join(s.candidates) or '(none)'}")
    return s.owner


def is_sp(p: Poset) -> bool:
    return isinstance(star_table(p), PartialTable)


def restrict(t: TotalTable) -> PartialTable:
    """Restriction of a total operation to the pairs y <= x."""
    p = t.owner
    cells = [
        [t.cells[x][y] if p.leq_ix(y, x) else None for y in range(p.n)]
        for x in range(p.n)
    ]
    return PartialTable(p, cells)


# -- property suite for star tables --------------------------------------------


@dataclass(frozen=True)
class ItemResult:
    item: str
    status: str  # "pass" | "fail" | "skipped"
    witness: tuple[str, ...] | None = None


@dataclass(frozen=True)
class PropertyReport:
    suite: str
    items: tuple[ItemResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.items)

    def failed_items(self) -> tuple[ItemResult, ...]:
        return tuple(r for r in self.items if r.status == "fail")


def verify_sp_properties(p: Poset, s: PartialTable) -> PropertyReport:
    """The elementary laws of sectional pseudocomplementation on a partial
    table over p: axioms.verify_lemma_suite(p, s, "sp-prop").

    Every law is swept universally; an instance only counts when all values it
    mentions are defined.  The first failing witness per item is reported, in
    lexicographic declaration order of the quantified tuple.
    """
    from .axioms import verify_lemma_suite  # axioms builds on this module
    return verify_lemma_suite(p, s, "sp-prop")
