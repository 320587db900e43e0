"""Deciders for the named axiom systems and law suites on concrete operation tables.

Every axiom, every lettered lemma item and the law behind each
classification check (is_esp, implicativity, is_strong) is one entry of
LAWS, the law table; SYSTEMS lists the laws of each axiom system and LEMMAS
those of each lemma suite.  check_system walks the instances of each law in
lexicographic order and reports the first witness per failed axiom, so a
report is replayable: feeding a witness back through the law fails again.
The same entries drive the column solver, the ESP=>J hunt and the
T-RIGHT-IMPL check in enumeration.  Axiom identifiers follow the usual
naming for these systems (sp1..sp3, esp1..esp3, nat1..nat3, nrm0..nrm3,
j1..j3, the semilattice identities esp^1/esp^2, nrm^0..nrm^4, and the
lattice identities jwv1/jwv2/jwv2')"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InternalDisagreement, MissingSelection, StructureMismatch, UnknownOption
from .extensions import LocalSelection, _bounded_tops, require_owner
from .pseudo import (
    ItemResult,
    MissingWitness,
    PartialTable,
    PropertyReport,
    TotalTable,
    star_table,
)
from .poset import Poset, bits, members


@dataclass(frozen=True)
class AxiomReport:
    system: str
    holds: bool
    violations: tuple[tuple[str, tuple[str, ...]], ...]


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: tuple[str, ...] | None = None

    def __bool__(self):
        return self.holds


@dataclass(frozen=True)
class ImplicativityReport:
    left: Verdict
    right: Verdict


@dataclass(frozen=True)
class SubalgebraReport:
    closed: bool
    induced_is_same_kind: bool
    witness: tuple[str, ...] | None = None


# -- the law table ----------------------------------------------------------------
#
# A Law is a statement about the cells of an operation table c for all values
# of its variables.  Each variable runs over a mask computed from the ones
# before it (y in [x), z a maximal lower bound of x and y, ...).  A derived
# term such as a meet is a variable whose mask holds at most one element
# (listed in `hidden`), or, when it changes with the last variable, a `term`:
# a letter and a function of the other variables giving, per value of the
# last variable, the term or None (the instance then holds).  Neither is part
# of a witness.  The cells read are named by the letters of their row and
# column ("yz" is c[y][z]; "*y" is c[v][y] for v the value of the cell read
# before it).  allows(e, *v), for v all variables but the last, gives the
# conclusions of the instances that share v: the masks the last cell may
# hold, as one mask for all of them or a sequence indexed by `by` (the last
# variable by default, the term, or the first of two cells).  So the checker
# makes one call per prefix and one lookup and one bit test per instance.
# A law of one cell, or of two cells in the column of its last variable,
# also drives the column solver (enumeration._ColumnSetup).  Both read a
# law's instances through one walk, LawContext.prefixes.  A check that states
# a law reads its entry here, not a loop of its own: is_esp reads esp,
# implicativity and the T-RIGHT-IMPL check (enumeration) the two implicative
# laws, and is_strong nrm^1.


class Law:
    """One entry of the law table; see the notes above."""

    __slots__ = ("over", "term", "reads", "allows", "keyed", "shown", "vectors", "by_columns")

    def __init__(self, variables: str, over: tuple, cells: tuple, allows, by: str | None = None,
                 hidden: str = "", term: tuple | None = None):
        letter, self.term = term or ("", None)
        self.over, self.allows = over, allows
        self.shown = tuple(i for i, v in enumerate(variables) if v not in hidden)
        if by not in (None, variables[-1], letter or None, cells[0]):
            raise ValueError(f"a conclusion is indexed by the last variable, the term or the first cell, not {by!r}")
        self.keyed = by not in (None, variables[-1])  # by the term or the first cell's value
        where = {v: i for i, v in enumerate(variables + letter)}
        self.reads = tuple((None if r == "*" else where[r], where[k]) for r, k in cells)
        # The cells as the last variable u runs over its mask: a row of the
        # table (0, position of the row variable) or a column (1, position of
        # the column variable), or for a second cell c[a][u], a the first
        # cell's value (2, None).  With a term w, the one cell is c[o][w]
        # (0, o) or c[w][o] (1, o).  None: the checker reads cell by cell.
        last = len(over) - 1
        if self.term is not None:
            (r, k), = self.reads
            self.vectors = ((0, r) if k == last + 1 else (1, k),)
        else:
            vectors = [(0, r) if r is not None and r < last and k == last else
                       (1, k) if r == last and k < last else
                       (2, None) if r is None and k == last and i == 1 else None
                       for i, (r, k) in enumerate(self.reads)]
            self.vectors = None if None in vectors or len(vectors) > 2 else tuple(vectors)
        self.by_columns = any(side == 1 for side, _ in self.vectors or ())


class LawContext:
    """What the laws read besides the table: the poset's order tables, each
    fetched from the poset on its first read and kept as a plain attribute,
    and the local selection.  It is built once per poset (Poset.laws), or
    per selection (LocalSelection.laws), and kept as long as that poset or
    selection is, so a law checked a third time on the same poset and
    selection reuses the plan kept on its second check.  It also keeps, in
    `setups`, each axiom system's column set-up (enumeration._ColumnSetup),
    built on the system's first solver call and read by every later one on
    the same poset and selection.  Two threads may both build a plan or a
    set-up, but every reader of a set-up gets the one that is kept."""

    def __init__(self, p: Poset, sel: LocalSelection | None = None):
        self.p, self.sel = p, sel
        self.n, self.full, self.ups, self.downs = p.n, p.full, p.ups, p.downs
        self._plans: dict = {}
        self.setups: dict = {}

    def __getattr__(self, name):
        value = getattr(self.p, name)
        setattr(self, name, value)
        return value

    def plan(self, law: Law):
        """The law's prefixes (`prefixes`), each conclusion widened to one
        mask per value of the last variable.  Streamed on the law's first
        read, and kept from its second."""
        # A law read once, as by most one-off requests, keeps no plan: keeping every
        # plan from its first read cost perfbench's documents workload 5-7 % of work_per_s.
        plan = self._plans.get(law)
        if plan is None or plan is False:
            n = self.n
            widened = ((pre, mask, (masks,) * n if type(masks) is int else masks, terms)
                       for pre, mask, masks, terms in self.prefixes(law))
            if plan is None:
                self._plans[law] = False
                return widened
            plan = self._plans[law] = list(widened)
        return plan

    def prefixes(self, law: Law):
        """Per prefix of the law's instances, in lexicographic order: the
        values of every variable but the last, the (nonempty) mask of the last
        one's values, the conclusions as `allows` returns them (one mask for
        every value of the last variable, or one mask per value), and the term
        per value of the last variable (None without a term).  A range that
        depends only on the first variable x (every element, [x), (x]) is
        read from the order-mask rows, and the maximal lower bounds of x and
        y from the mlbs table; any other range calls the law's `over`.
        Streamed, so that a reader that stops early walks no further, and
        not kept."""
        o, allows, term = law.over, law.allows, law.term
        first = o[0](self)
        if len(o) == 1:
            return (((), m, allows(self), term and term(self)) for m in (first,) if m)
        # per later variable: the masks of its range per value of x, where
        # they depend on nothing else, or None where its range calls `over`
        xs, o1 = members(first), o[1]
        rows1 = _ORDER_MASKS[o1](self) if o1 in _ORDER_MASKS else None
        if len(o) == 2:
            return (((x,), m, allows(self, x), term and term(self, x))
                    for x in xs if (m := rows1[x] if rows1 else o1(self, x)))
        o2 = o[2]
        rows2 = _ORDER_MASKS[o2](self) if o2 in _ORDER_MASKS else None
        mlbs = o2 is _mlbs and self.mlbs
        if len(o) == 3:
            return (((x, y), m, allows(self, x, y), term and term(self, x, y))
                    for x in xs for y in members(rows1[x] if rows1 else o1(self, x))
                    if (m := rows2[x] if rows2 else mlbs[x][y] if mlbs else o2(self, x, y)))
        o3 = o[3]
        rows3 = _ORDER_MASKS[o3](self) if o3 in _ORDER_MASKS else None
        return (((x, y, z), m, allows(self, x, y, z), term and term(self, x, y, z))
                for x in xs for y in members(rows1[x] if rows1 else o1(self, x))
                for z in members(rows2[x] if rows2 else mlbs[x][y] if mlbs else o2(self, x, y))
                if (m := rows3[x] if rows3 else o3(self, x, y, z)))


def _bit(i: int | None) -> int:
    return 0 if i is None else 1 << i


# masks of variables, from the variables before them

def _any(e, *_):  # every element
    return e.full


def _above(e, x, *_):  # the elements of [x)
    return e.ups[x]


def _below(e, x, *_):  # the elements of (x]
    return e.downs[x]


def _mlbs(e, x, y):  # the maximal lower bounds of x and y
    return e.mlbs[x][y]


# per value x of the first variable: the masks above, as a later variable's range
_ORDER_MASKS = {_any: lambda e: (e.full,) * e.n, _above: lambda e: e.ups, _below: lambda e: e.downs}


def _disjoint_bases(e, x, y):  # the z <= x where [z,x] and [z,y] meet at most in z
    disjoint = e.disjoint_over_masks[x]
    return sum([1 << z for z in members(e.downs[x]) if disjoint[z] >> y & 1])


def _selected_disjoint_bases(e, x, y):  # the z <= x where [z,x] and [z,w] meet at most in z, for all w in I(y, z)
    rows, disjoint = e.sel.rows[y], e.disjoint_over_masks[x]
    return sum([1 << z for z in members(e.downs[x]) if rows[z] & ~disjoint[z] == 0])


# terms, per value of the last variable

def _meets_of_x(e, x, *_):  # x ^ v
    return e.meets[x]


def _tops(e, *_):  # the top of [v)
    return e.tops


def _meet_of_joins(e, x, y):  # (v v y) ^ (x v y)
    meets = e.meets[e.joins[x][y]]
    return [meets[j] for j in e.joins[y]]


# conclusions (above and below: the masks of [x) and (x], for the first variable x)

def _ups(e, *_):  # per value v: [v)
    return e.ups


def _singletons(e, *_):  # per value v: {v}
    return [1 << v for v in range(e.n)]


def _exchange(e, x, y, *_):  # per value a of y -> z: x <= a implies y <= x -> z
    ups = e.ups
    masks = [e.full] * e.n
    for a in members(ups[x]):
        masks[a] = ups[y]
    return masks


def _meet_below(e, x):  # per y: the v whose meet with x is below y
    masks = e.meet_masks[x]
    return [sum([masks[w] for w in members(down)]) for down in e.downs]


def _meet_with_join(e, x):  # per y: (x -> y) ^ (x v y) = y
    masks = e.meet_masks
    return [masks[j][y] for y, j in enumerate(e.joins[x])]


def _meet_with_join_or_none(e, x):  # per y: the same, or that meet is undefined
    masks, full = e.meet_masks, e.full
    return [masks[j][y] | full ^ sum(masks[j]) for y, j in enumerate(e.joins[x])]


def _only_if_below(e, x):  # per y: x <= x -> y only if x <= y
    full, up = e.full, e.ups[x]
    return [full if up >> y & 1 else full & ~up for y in range(e.n)]


def _star_row(e, x):  # per y <= x: {x * y}, read from the star table
    return [_bit(v) for v in e.star.cells[x]]


# name -> Law.  The comment above each entry states it; "y <= x: ..." is a
# condition on the variables.
LAWS = {
    # x <= y, z <= x:  y -> z <= x -> z
    "sp1": Law("xyz", (_any, _above, _below), ("yz", "xz"), _ups, by="yz"),
    # y <= x:  x <= x -> y only if x <= y
    "sp2": Law("xy", (_any, _below), ("xy",), _only_if_below),
    # y <= x:  x -> y is the sectional pseudocomplement x * y (read only
    # where the star table exists: is_esp tests that first)
    "esp": Law("xy", (_any, _below), ("xy",), _star_row),
    # z a maximal lower bound of x and y:  x <= y -> z
    "sp3": Law("xyz", (_any, _any, _mlbs), ("yz",), _above),
    # x <= y:  y -> z <= x -> z
    "nat1": Law("xyz", (_any, _above, _any), ("yz", "xz"), _ups, by="yz"),
    # z <= x, [z,x] and [z,y] meeting at most in z:  x <= y -> z
    "nat3": Law("xyz", (_any, _any, _disjoint_bases), ("yz",), _above),
    # z <= x, [z,x] and [z,w] meeting at most in z for every w in I(y, z):  x <= y -> z
    "natI3": Law("xyz", (_any, _any, _selected_disjoint_bases), ("yz",), _above),
    # y <= x -> y
    "nrm0": Law("xy", (_any, _any), ("xy",), _ups),
    # x <= y -> z  implies  y <= x -> z
    "nrm1": Law("xyz", (_any, _any, _any), ("yz", "xz"), _exchange, by="yz"),
    # x <= x -> y only if x <= y
    "j2": Law("xy", (_any, _any), ("xy",), _only_if_below),
    # w = x ^ y:  x <= y -> w
    "j3": Law("xy", (_any, _any), ("yw",), _above, term=("w", _meets_of_x)),
    # w = x ^ y:  x ^ (x -> w) = w
    "esp^1": Law("xy", (_any, _any), ("xw",), lambda e, x: e.meet_masks[x], by="w",
                 term=("w", _meets_of_x)),
    # w = x ^ y:  x ^ (x -> w) <= y
    "esp^1'": Law("xy", (_any, _any), ("xw",), _meet_below,
                  term=("w", _meets_of_x)),
    # x <= (x -> y) -> y
    "nrm^1": Law("xy", (_any, _any), ("xy", "*y"), _above),
    # w = x ^ y:  x -> z <= w -> z
    "nrm^2": Law("xywz", (_any, _any, lambda e, x, y: _bit(e.meets[x][y]), _any), ("xz", "wz"), _ups,
                 by="xz", hidden="w"),
    # x ^ (x -> y) <= y
    "nrm^3": Law("xy", (_any, _any), ("xy",), _meet_below),
    # x ^ (x -> y) = x ^ y
    "nrm^3'": Law("xy", (_any, _any), ("xy",), lambda e, x: [e.meet_masks[x][w] for w in e.meets[x]]),
    # (x -> y) ^ (x v y) = y, the meet existing
    "jwv1": Law("xy", (_any, _any), ("xy",), _meet_with_join),
    # (x -> y) ^ (x v y) = y where the meet exists
    "jwv1 where defined": Law("xy", (_any, _any), ("xy",), _meet_with_join_or_none),
    # w = (z v y) ^ (x v y):  z <= x -> w.  On an upper semilattice both
    # joins lie above y, so they have a meet (the join of their common lower
    # bounds): w always exists, and no reading changes this law's verdict.
    "jwv2": Law("xyz", (_any, _any, _any), ("xw",), _ups,
                term=("w", _meet_of_joins)),
    # w = z ^ (x v y):  z <= x -> w
    "jwv2'": Law("xyz", (_any, _any, _any), ("xw",), _ups, term=("w", lambda e, x, y: e.meets[e.joins[x][y]])),

    # Lemma items that restate no axiom.  The sp-prop items read a partial
    # table, where an instance reading an undefined cell holds vacuously.
    # y <= x:  y <= x -> y
    "sp-prop a": Law("xy", (_any, _below), ("xy",), _ups),
    # y <= x:  [y, x -> y] n [y, x] = {y}
    "sp-prop b": Law("xy", (_any, _below), ("xy",), lambda e, x: e.disjoint_over_masks[x]),
    # z <= x, z <= y:  x <= y -> z  implies  y <= x -> z
    "sp-prop d": Law("xyz", (_any, _any, lambda e, x, y: e.downs[x] & e.downs[y]), ("yz", "xz"),
                     _exchange, by="yz"),
    # y <= x:  x <= (x -> y) -> y
    "sp-prop e": Law("xy", (_any, _below), ("xy", "*y"), _above),
    # y <= x:  y <= (x -> y) -> y
    "sp-prop f": Law("xy", (_any, _below), ("xy", "*y"), _ups),
    # y <= x:  x <= y -> y
    "sp-prop g": Law("xy", (_any, _below), ("yy",), _above),
    # y <= x:  (y -> y) -> x = x
    "sp-prop h": Law("xy", (_any, _below), ("yy", "*x"), lambda e, x: 1 << x),
    # y <= x:  ((x -> y) -> y) -> y = x -> y
    "sp-prop i": Law("xy", (_any, _below), ("xy", "*y", "*y"), _singletons, by="xy"),
    # y <= x:  x -> x = y -> y
    "sp-prop k": Law("xy", (_any, _below), ("xx", "yy"), _singletons, by="xx"),
    # y < x:  x -> y differs from y -> y
    "sp-prop l": Law("xy", (_any, lambda e, x: e.downs[x] & ~(1 << x)), ("xy", "yy"),
                     lambda e, x: [e.full ^ 1 << v for v in range(e.n)], by="xy"),
    # x -> x is the top of [x)
    "esp-prop f": Law("x", (_any,), ("xx",), lambda e: [_bit(t) for t in e.tops]),
    # y <= x:  [y) has a top, and x is below it (the order alone: every
    # value of the cell read passes, or none does)
    "esp-prop g": Law("xy", (_any, _below), ("xy",),
                      lambda e, x: [e.full if e.ups[x] & _bit(t) else 0 for t in e.tops]),
    # y <= x, t the top of [y):  t -> x = x
    "esp-prop h": Law("xy", (_any, _below), ("tx",), lambda e, x: 1 << x, term=("t", _tops)),
    # y <= x:  [x) and [y) have the same top (the order alone)
    "esp-prop i": Law("xy", (_any, _below), ("xy",),
                      lambda e, x: [e.full if e.tops[x] == t else 0 for t in e.tops]),
    # ((x -> y) -> y) -> y = x -> y
    "jext-prop c": Law("xy", (_any, _any), ("xy", "*y", "*y"), _singletons, by="xy"),
    # x <= y -> y
    "jext-prop d": Law("xy", (_any, _any), ("yy",), _above),
    # y <= (x -> y) -> y
    "jext-prop g": Law("xy", (_any, _any), ("xy", "*y"), _ups),
    # t the top of [x):  x -> t = t
    "jext-prop h": Law("x", (_any,), ("xt",), _singletons, by="t", term=("t", _tops)),
    # t the top of [x):  t -> x = x
    "jext-prop i": Law("x", (_any,), ("tx",), _singletons, term=("t", _tops)),
    # x -> y is the top of [x) exactly when x <= y
    "left-implicative": Law("xy", (_any, _any), ("xy",), lambda e, x: [
        _bit(e.tops[x]) ^ (0 if e.ups[x] >> y & 1 else e.full) for y in range(e.n)]),
    # x -> y is the top of [y) exactly when x <= y
    "right-implicative": Law("xy", (_any, _any), ("xy",), lambda e, x: [
        _bit(t) ^ (0 if e.ups[x] >> y & 1 else e.full) for y, t in enumerate(e.tops)]),
    # x <= y:  x -> y is the top of [x), which is the top of [y)
    "Inat-prop c": Law("xy", (_any, _above), ("xy",),
                       lambda e, x: [_bit(t) if t == e.tops[x] else 0 for t in e.tops]),
    # z <= y:  x <= y -> z  implies  y <= x -> z
    "Inat-prop e": Law("xyz", (_any, _any, lambda e, x, y: e.downs[y]), ("yz", "xz"), _exchange, by="yz"),
    # [y) has a top, and x -> y is below it
    "Inat-prop f": Law("xy", (_any, _any), ("xy",),
                       lambda e, x: [0 if t is None else e.downs[t] for t in e.tops]),
    # t the top of [y):  x -> t = t
    "Inat-prop g": Law("xy", (_any, _any), ("xt",), _singletons, by="t", term=("t", _tops)),
}


SYSTEMS = {
    "SP": dict(kind="partial", structure=None, laws={"sp1": "sp1", "sp2": "sp2", "sp3": "sp3"}),
    "ESP": dict(kind="total", structure=None, laws={"esp1": "sp1", "esp2": "sp2", "esp3": "sp3"}),
    "ESPW": dict(kind="total", structure="lower",
                 laws={"esp^1": "esp^1", "esp^2": "j3", "esp^1'": "esp^1'"}),
    "NAT": dict(kind="total", structure=None, laws={"nat1": "nat1", "nat2": "sp2", "nat3": "nat3"}),
    "NATI": dict(kind="total", structure=None, selection=True,
                 laws={"nat1": "nat1", "nat2": "sp2", "natI3": "natI3"}),
    "NRM": dict(kind="total", structure=None,
                laws={"nrm0": "nrm0", "nrm1": "nrm1", "nrm2": "sp2", "nrm3": "sp3"}),
    "NRMW": dict(kind="total", structure="lower",
                 laws={"nrm^0": "nrm0", "nrm^1": "nrm^1", "nrm^2": "nrm^2", "nrm^3": "nrm^3",
                       "nrm^4": "j3", "nrm^3'": "nrm^3'"}),
    "J": dict(kind="total", structure=None, laws={"j1": "nrm1", "j2": "j2", "j3": "j3"}),
    # the both-defined reading passes a jwv1 instance whose meet is undefined;
    # the other two readings differ only where a jwv2 meet is, which never happens
    "JWV": dict(kind="total", structure="upper", laws={"jwv1": "jwv1", "jwv2": "jwv2"},
                readings={"both-defined": {"jwv1": "jwv1 where defined"}}),
    "JWV2": dict(kind="total", structure="lattice", laws={"jwv1": "jwv1", "jwv2'": "jwv2'"}),
}

# how check_system reads an instance that mentions an undefined meet or join
READINGS = ("existential", "both-defined", "one-defined")


def system_laws(system: str) -> list[Law]:
    """The laws of a known system, in the order its axioms are reported."""
    return [LAWS[law] for law in SYSTEMS[system]["laws"].values()]


# -- the checker ------------------------------------------------------------------


def _first_failure(law: Law, e: LawContext, rows) -> tuple[int, ...] | None:
    """The variables of the law's first failing instance, in lexicographic
    order, or None when the table with these rows satisfies the law.

    Per instance, one lookup of its conclusion and one bit test: the last
    cell is b[u] for a row or a column b of the table, and the conclusion is
    indexed by u or by the first cell a[u]."""
    sides = (rows, tuple(zip(*rows)) if law.by_columns else None)
    if law.vectors is None:  # read cell by cell
        for pre, mask, allowed, _ in e.plan(law):
            for u in members(mask):
                v, values, value = pre + (u,), [], None
                for r, k in law.reads:
                    value = rows[value if r is None else v[r]][v[k]]
                    if value is None:  # outside a partial table: the instance holds
                        break
                    values.append(value)
                else:
                    if not allowed[values[0] if law.keyed else u] >> value & 1:
                        return v
        return None
    if law.term is not None:
        # the cell is c[v][w] (side 0) or c[w][v] for w = t[u], v = u or pre[o]
        ((side, o),), last = law.vectors, len(law.over) - 1
        cells = sides[side]
        for pre, mask, allowed, t in e.plan(law):
            line = None if o == last else cells[pre[o]]
            for u in members(mask):
                w = t[u]
                if w is not None and not allowed[w if law.keyed else u] >> (
                        cells[u] if line is None else line)[w] & 1:
                    return pre + (u,)
        return None
    *first, (side, i) = law.vectors
    (first_side, j), = first or ((None, 0),)
    firsts = None if first_side is None else sides[first_side]
    for pre, mask, allowed, _ in e.plan(law):
        us, a = members(mask), None if firsts is None else firsts[pre[j]]
        if side == 2:  # the last cell is c[a[u]][u]
            for u in us:
                w = rows[a[u]][u]
                if w is not None and not allowed[a[u] if law.keyed else u] >> w & 1:
                    return pre + (u,)
            continue
        b = sides[side][pre[i]]
        if not law.keyed:
            for u in us:
                if not allowed[u] >> b[u] & 1:
                    return pre + (u,)
        else:
            for u in us:
                if not allowed[a[u]] >> b[u] & 1:
                    return pre + (u,)
    return None


def _witness(law: Law, e: LawContext, rows) -> tuple[str, ...] | None:
    v = _first_failure(law, e, rows)
    return None if v is None else tuple(e.p.elements[v[i]] for i in law.shown)


def require_system(p: Poset, system: str, sel: LocalSelection | None = None) -> dict:
    """The SYSTEMS entry of a known system whose structure p has and whose selection is given.

    Raises StructureMismatch for an unknown system or a poset without the
    needed semilattice or lattice structure or a selection over another
    poset, and MissingSelection when the system needs a local selection and
    none is given.
    """
    if system not in SYSTEMS:
        raise StructureMismatch(f"unknown axiom system {system!r}")
    info = SYSTEMS[system]
    struct = info.get("structure")
    if struct:
        rep = p.classify()
        ok = {"lower": rep.is_lower_semilattice, "upper": rep.is_upper_semilattice,
              "lattice": rep.is_lattice}[struct]
        if not ok:
            article = "an" if struct[0] in "aeiou" else "a"
            raise StructureMismatch(f"system {system} needs {article} {struct} structure")
    if info.get("selection") and sel is None:
        raise MissingSelection(f"system {system} needs a local selection")
    require_owner(p, sel)
    return info


def _own_table(p: Poset, t) -> None:
    """Raise StructureMismatch unless the table t is over p."""
    if t.owner != p:
        raise StructureMismatch("table does not belong to the given poset")


def check_system(p: Poset, op, system: str, sel: LocalSelection | None = None,
                 reading: str = "existential") -> AxiomReport:
    """Decide one axiom system against a concrete (poset, operation) pair."""
    info = require_system(p, system, sel)
    want_partial = info["kind"] == "partial"
    if want_partial and not isinstance(op, PartialTable):
        raise StructureMismatch(f"system {system} needs a partial table")
    if not want_partial and not isinstance(op, TotalTable):
        raise StructureMismatch(f"system {system} needs a total table")
    _own_table(p, op)
    if reading not in READINGS:
        raise UnknownOption(f"unknown reading {reading!r}")

    e = (p if sel is None else sel).laws
    violations = []
    for axiom, law in {**info["laws"], **info.get("readings", {}).get(reading, {})}.items():
        w = _witness(LAWS[law], e, op.cells)
        if w is not None:
            violations.append((axiom, w))
    return AxiomReport(system, not violations, tuple(violations))


# -- classification checks ------------------------------------------------------


def is_esp(p: Poset, t: TotalTable) -> Verdict:
    """True iff the restriction of t to sectioned pairs is the sectional pseudocomplementation."""
    _own_table(p, t)
    st = star_table(p)
    if isinstance(st, MissingWitness):
        return Verdict(False, (st.x, st.y))
    w = _witness(LAWS["esp"], p.laws, t.cells)
    return Verdict(w is None, w)


def implicativity(p: Poset, t: TotalTable) -> ImplicativityReport:
    """Whether the order is recovered from the table via the section tops.

    Left: x <= y iff x -> y is the top of [x); right: the same with [y).
    """
    _own_table(p, t)
    _bounded_tops(p)
    left, right = (_witness(LAWS[law], p.laws, t.cells) for law in ("left-implicative", "right-implicative"))
    return ImplicativityReport(Verdict(left is None, left), Verdict(right is None, right))


def is_strong(p: Poset, t: TotalTable) -> Verdict:
    """The law x <= (x -> y) -> y, swept over all pairs."""
    _own_table(p, t)
    w = _witness(LAWS["nrm^1"], p.laws, t.cells)
    return Verdict(w is None, w)


def is_normal(p: Poset, t: TotalTable) -> bool:
    """True iff t is the total normal extension of p's star table (Poset.normal_table).

    Cross-checked on every call against the equivalent bound-witness
    condition: v <= x->y iff some u >= v and z >= x have [y,u] n [y,z] = {y}.
    Per cell, the v on the right are one mask (Poset.bound_witness_masks),
    so t meets the condition iff (x->y] equals that mask at every (x, y).
    The two answers must agree; a disagreement is an InternalDisagreement.
    """
    _own_table(p, t)
    by_rule = t == p.normal_table
    downs = p.downs
    by_witness = all(tuple([downs[v] for v in row]) == w
                     for row, w in zip(t.cells, p.bound_witness_masks))
    if by_rule != by_witness:
        raise InternalDisagreement(
            "normal-extension equality and the bound-witness condition disagree")
    return by_rule


# -- lemma suites ----------------------------------------------------------------


# suite -> item -> the law it states
LEMMAS = {
    "sp-prop": {"a": "sp-prop a", "b": "sp-prop b", "c": "sp1", "d": "sp-prop d", "e": "sp-prop e",
                "f": "sp-prop f", "g": "sp-prop g", "h": "sp-prop h", "i": "sp-prop i", "j": "sp2",
                "k": "sp-prop k", "l": "sp-prop l", "m": "sp3"},
    "esp-prop": {"a": "sp-prop a", "b": "sp-prop e", "c": "sp-prop d", "d": "sp-prop f",
                 "e": "sp-prop i", "f": "esp-prop f", "g": "esp-prop g", "h": "esp-prop h",
                 "i": "esp-prop i"},
    # With a greatest element 1, the top of every section is 1, so item e
    # (x -> x = 1) is esp-prop f and items h-j read 1 as a section top.
    "jext-prop": {"a": "nrm^1", "b": "nat1", "c": "jext-prop c", "d": "jext-prop d", "e": "esp-prop f",
                  "f": "nrm0", "g": "jext-prop g", "h": "jext-prop h", "i": "jext-prop i",
                  "j": "left-implicative"},
    "Inat-prop": {"a": "nrm0", "b": "jext-prop g", "c": "Inat-prop c", "d": "nat1", "e": "Inat-prop e",
                  "f": "Inat-prop f", "g": "Inat-prop g"},
}

# jext-prop item -> the NRM axioms it assumes, and "1" for a greatest element;
# an item whose assumptions the table does not meet is skipped
_JEXT_NEEDS = {"a": "nrm1", "b": "nrm1", "c": "nrm1", "d": "nrm0 nrm1", "e": "nrm1 nrm3 1",
               "f": "nrm1 nrm3 1", "g": "nrm1 nrm3 1", "h": "nrm1 nrm3 1", "i": "nrm1 nrm2 nrm3 1",
               "j": "nrm1 nrm2 nrm3 1"}


def lemma_items(p: Poset, op, suite: str) -> tuple[ItemResult, ...]:
    """The items of a table lemma suite (sp-prop, esp-prop, jext-prop,
    Inat-prop), each with its first failing witness."""
    e, rows = p.laws, op.cells
    needs, held = {}, {}
    if suite == "jext-prop":
        needs = _JEXT_NEEDS
        held = {axiom: _witness(LAWS[law], e, rows) is None
                for axiom, law in SYSTEMS["NRM"]["laws"].items()}
        held["1"] = p.greatest_of(p.full) is not None
    out = []
    for item, law in LEMMAS[suite].items():
        if not all(held[k] for k in needs.get(item, "").split()):
            out.append(ItemResult(item, "skipped"))
            continue
        w = _witness(LAWS[law], e, rows)
        out.append(ItemResult(item, "pass" if w is None else "fail", w))
    return tuple(out)


def _suite_simpl_i(p: Poset, sel: LocalSelection):
    # Each right-hand side quantifies a pointwise predicate over the z in
    # I(x, y), read from a mask of the z that satisfy it; it is never derived
    # from the left-hand side, or the lemma would hold by construction.  One
    # walk over (u, x, y) finds each item's first mismatch.
    rows, downs, ups = sel.rows, p.downs, p.ups
    disjoint, meets = p.disjoint_over_masks, p.meet_over_masks
    found = {}
    for u, x, y in itertools.product(range(p.n), repeat=3):
        im, low = rows[x][y], 1 << y
        below = downs[u] & im & ups[y]
        if "a" not in found and (below & ~low == 0) != (im & ~disjoint[u][y] == 0):
            found["a"] = u, x, y
        if "b" not in found and (below == low) != (im & ups[y] & ~meets[u][y] == 0):
            found["b"] = u, x, y
        if len(found) == 2:
            break
    return [ItemResult(item, "fail", tuple(p.elements[v] for v in found[item])) if item in found
            else ItemResult(item, "pass") for item in "ab"]


LEMMA_SUITES = ("sp-prop", "esp-prop", "jext-prop", "Inat-prop", "simplI")


def verify_lemma_suite(p: Poset, op, suite: str, sel: LocalSelection | None = None) -> PropertyReport:
    """Run one of the lettered law suites against a table over p.

    sp-prop, the laws of a star table, reads a partial table, and the other
    table suites a total one.  Items whose stated hypotheses the table does
    not meet are reported as skipped (e.g. the greatest-element items of
    jext-prop on an unbounded poset).  The simplI suite, the one that needs a
    selection, is a pure poset/selection statement and ignores the table; a
    given selection must be over p.
    """
    if suite not in LEMMA_SUITES:
        raise UnknownOption(f"unknown suite {suite!r}; choose from {LEMMA_SUITES}")
    if suite == "simplI" and sel is None:
        raise MissingSelection(f"suite {suite} needs a local selection")
    require_owner(p, sel)
    if suite == "simplI":
        return PropertyReport(suite, tuple(_suite_simpl_i(p, sel)))
    kind = "partial" if suite == "sp-prop" else "total"
    if not isinstance(op, PartialTable if kind == "partial" else TotalTable):
        raise StructureMismatch(f"suite {suite} needs a {kind} table")
    _own_table(p, op)
    return PropertyReport(suite, lemma_items(p, op, suite))


# -- subalgebras ------------------------------------------------------------------


def subalgebra_closed(p: Poset, op, subset) -> SubalgebraReport:
    """Whether a subset is closed under the operation, and whether the induced
    structure on the sub-poset is again of the same kind.

    For a partial table the induced structure is of the same kind when it is
    exactly the sub-poset's own sectional pseudocomplementation; for a total
    table, when its restriction to the sub-poset passes is_esp.
    """
    _own_table(p, op)
    members = tuple(subset)
    if not members:
        raise ValueError("subset must be nonempty")
    mask = p.subset_mask(members)
    rows = []
    for x in bits(mask):
        row = []
        for y in bits(mask):
            v = op.cells[x][y]
            if v is not None and not mask >> v & 1:
                return SubalgebraReport(False, False, (p.elements[x], p.elements[y]))
            row.append(None if v is None else p.elements[v])
        rows.append(row)
    sub = p.restrict(members)
    if isinstance(op, PartialTable):
        induced = PartialTable.from_ids(sub, rows)
        own = star_table(sub)
        same = isinstance(own, PartialTable) and own.cells == induced.cells
    else:
        induced = TotalTable.from_ids(sub, rows)
        same = is_esp(sub, induced).holds
    return SubalgebraReport(True, same)
