"""Two earlier column solvers and the row-by-row column search, kept as
oracles.

column_constraints walks every instance of every law of a system once, into
per-cell masks for the one-cell laws and per-row-pair link lists for the
two-cell laws, and system_column_solutions searches each column row by row,
values ascending, testing a row's values against the rows already assigned
(the links of a column are filed once, before its search): the solver before
it checked forward and set up per column, the oracle of tests/test_solver.py.

PrefixWalkColumns is the solver's per-call column set-up before the set-up
was kept per poset and read from the order masks: every call walks the
instances of each law into every column.  models_are answers what
system_models_are answers, from its columns.  It is the oracle of the kept
set-up (solver_cases.setup_disagreements).

column_search is the column search before it walked a column's free rows
(those after its last row linked to a later one) as one product: one
generator frame per row, each value tried paid from the budget as it is
tried.  It is the oracle of enumeration._column_search, which must give the
same solutions, the same spare budget after each and the same SizeCap
(tests/test_column_search.py); PrefixWalkColumns answers through the
production search.

The two solvers read each law's instances from steps, kept per law context
by walk: the generator walk of the law table before LawContext.prefixes read
its ranges from the order masks, with every conclusion widened to one mask
per value of the last variable.  steps is also the oracle of
LawContext.prefixes (tests/test_laws.py).
"""

import functools
import itertools
import weakref

from spposet.axioms import require_system, system_laws
from spposet.enumeration import SEARCH_BUDGET, _column_laws, _column_search, _narrowed, _product_start
from spposet.errors import SizeCap
from spposet.extensions import LocalSelection, require_owner
from spposet.poset import Poset, bits, members
from spposet.pseudo import PartialTable


def steps(e, law):
    """Per prefix of the law's instances on the law context e, in
    lexicographic order: the values of every variable but the last, the
    (nonempty) mask of the last one's values, the conclusions, one mask per
    value of the last variable, and the term per value of the last variable
    (None without a term).  Every range is the law's `over`, called per
    prefix."""
    o, allows, term, n = law.over, law.allows, law.term, e.n
    # the two commonest arities spelled out, so that no call takes *pre
    if len(o) == 2:
        o0, o1 = o
        for x in members(o0(e)):
            mask = o1(e, x)
            if mask:
                masks = allows(e, x)
                yield ((x,), mask, (masks,) * n if type(masks) is int else masks, term and term(e, x))
        return
    if len(o) == 3:
        o0, o1, o2 = o
        for x in members(o0(e)):
            for y in members(o1(e, x)):
                mask = o2(e, x, y)
                if mask:
                    masks = allows(e, x, y)
                    yield ((x, y), mask, (masks,) * n if type(masks) is int else masks,
                           term and term(e, x, y))
        return
    if len(o) == 1:
        prefixes = [((), o[0](e))]
    else:
        prefixes = (((x, y, z), o[3](e, x, y, z)) for x in members(o[0](e))
                    for y in members(o[1](e, x)) for z in members(o[2](e, x, y)))
    for pre, mask in prefixes:
        if mask:
            masks = allows(e, *pre)
            yield pre, mask, (masks,) * n if type(masks) is int else masks, term and term(e, *pre)


_walks: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def walk(e, law) -> list:
    """steps(e, law) as a list, kept for as long as the law context e is:
    the oracles read a law's walk again for every system and every call."""
    kept = _walks.setdefault(e, {})
    if law not in kept:
        kept[law] = list(steps(e, law))
    return kept[law]


def column_constraints(p: Poset, laws, sel: LocalSelection | None) -> tuple[list, object]:
    """What the laws ask of each column of a total table.

    Every law reads one cell, or two cells of the column given by its last
    variable, in rows given by the variables before it, with its conclusion
    indexed by the first cell's value.  Returns (allowed, links):
    allowed[r][c] masks the values of cell (r, c) that the instances reading
    that cell alone allow (a two-cell instance whose cells coincide among
    them), and links(c) gives, per row k of column c, the links of the
    two-cell instances that read it and an earlier row t, as (t, conclusions,
    whether row t is read first, the columns they cover): what keep reads.
    """
    n = p.n
    e = (p if sel is None else sel).laws
    allowed = [[p.full] * n for _ in range(n)]
    # per later row k: the two-cell instances that read it and an earlier
    # row t, as (t, conclusions, whether row t is read first, the columns
    # they cover)
    links: list[list] = [[] for _ in range(n)]
    for law in laws:
        last = len(law.over) - 1
        if law.vectors is None or len(law.reads) == 2 and not (
                law.keyed and law.term is None and law.reads[0][1] == last):
            raise ValueError("only a law of one cell, or of two cells in one column, constrains columns")
        if len(law.reads) == 2:
            (r1, _), (r2, _) = law.reads
            for pre, mask, masks, _ in walk(e, law):
                if not mask:
                    continue
                first, other = pre[r1], pre[r2]
                if first == other:
                    fixed = sum(1 << a for a in range(n) if masks[a] >> a & 1)
                    for c in members(mask):
                        allowed[first][c] &= fixed
                elif first < other:
                    links[other].append((first, masks, True, mask))
                else:
                    links[first].append((other, masks, False, mask))
            continue
        (r, k), = law.reads
        for pre, mask, masks, terms in walk(e, law):
            for u in members(mask):
                v = pre + (u, terms[u]) if terms else pre + (u,)
                if v[-1] is not None:  # an undefined term: the instance holds
                    allowed[v[r]][v[k]] &= masks[v[-1] if law.keyed else u]

    @functools.cache
    def column_links(c):
        return [[link for link in row if link[3] >> c & 1] for row in links]
    return allowed, column_links


def keep(links, vals, m):
    """The values in m that a row may hold under its links, while each
    earlier row t holds vals[t]."""
    for t, masks, first, _ in links:
        a = vals[t]
        if first:  # the row holds masks[a]
            m &= masks[a]
        else:  # the row holds the v whose masks[v] holds a
            for v in members(m):
                if not masks[v] >> a & 1:
                    m ^= 1 << v
    return m


def system_constraints(p: Poset, system: str, sel: LocalSelection | None = None):
    """column_constraints of the system's laws, after the checks of
    check_system: the poset must have the structure and the selection the
    system needs, and a given selection must be over p."""
    laws = []
    if system != "NRMW":
        # the solver has no NRMW constraints yet: it yields every extension,
        # on any poset, and the generate benchmark pins those streams
        require_system(p, system, sel)
        laws = system_laws(system)
    else:
        require_owner(p, sel)
    return column_constraints(p, laws, sel)


def system_column_solutions(p: Poset, system: str, sel: LocalSelection | None = None,
                            forced: PartialTable | None = None, constraints=None) -> list[list[tuple]]:
    """All per-column assignments satisfying the system's axioms.

    A table satisfies the system iff it picks one solution per column, so the
    full model set is the cartesian product of the returned lists.  For the SP
    system the column domain is the rows weakly above the column element; all
    other systems are total.  With `forced`, sectioned cells are pinned to the
    given star table (extension enumeration).  `constraints` are the
    system's (system_constraints), built when not given.  Each column is
    searched row by row, values ascending: a row's values are those its cell
    allows, narrowed by the links to the rows already assigned, which are
    filed once per column.
    """
    n = p.n
    allowed, column_links = constraints or system_constraints(p, system, sel)
    out = []
    for c in range(n):
        rows = [r for r in range(n) if p.leq_ix(c, r)] if system == "SP" else list(range(n))
        masks = [allowed[r][c] for r in range(n)]
        if forced is not None:
            for r in bits(p.ups[c]):
                masks[r] &= 1 << forced.cells[r][c]
        sols: list[tuple] = []
        out.append(sols)
        if not all(masks[r] for r in rows):
            continue
        links, vals, last = column_links(c), [0] * n, len(rows) - 1
        if not any(links):  # no row constrains another: every combination, in order
            sols += itertools.product(*[members(masks[r]) for r in rows])
            continue

        def rec(i):
            k = rows[i]
            for v in members(keep(links[k], vals, masks[k]) if links[k] else masks[k]):
                vals[k] = v
                if i == last:
                    sols.append(tuple([vals[r] for r in rows]))
                else:
                    rec(i + 1)

        rec(0)
    return out


class PrefixWalkColumns:
    """What a system's laws ask of each column of a total table, read from
    the walks of the laws: cells(c) is a copy of column c's rows narrowed by
    the instances of the one-cell laws, all columns built on the first
    read, and links(c, dom) narrows dom by the two-cell instances that read
    one cell twice and returns the links of column c, per row."""

    def __init__(self, p: Poset, system: str, sel: LocalSelection | None = None):
        if system != "NRMW":
            require_system(p, system, sel)
        else:
            require_owner(p, sel)
        self.p, self.partial = p, system == "SP"
        by_last, other, self.two = _column_laws(system)
        self.one = by_last + other
        self.e = (p if sel is None else sel).laws
        self._doms = self._links = None

    def rows(self, c: int) -> tuple[int, ...]:
        return members(self.p.ups[c] if self.partial else self.p.full)

    def cells(self, c: int) -> list[int]:
        if self._doms is None:
            n = self.p.n
            doms = self._doms = [[self.p.full] * n for _ in range(n)]
            for law in self.one:
                (r, k), = law.reads
                for pre, mask, masks, terms in walk(self.e, law):
                    for u in members(mask):
                        v = pre + (u, terms[u]) if terms else pre + (u,)
                        if v[-1] is not None:  # an undefined term: the instance holds
                            doms[v[k]][v[r]] &= masks[v[-1] if law.keyed else u]
        return self._doms[c][:]

    def links(self, c: int, dom: list[int]) -> list[list[tuple]]:
        if self._links is None:
            self._links = self._plan_links()
        everywhere, fixed, some = self._links
        for r, m in fixed:
            dom[r] &= m
        out = [list(row) for row in everywhere]
        for cover, t, link in some:
            if cover >> c & 1:
                if type(link) is int:
                    dom[t] &= link
                else:
                    out[t].append(link)
        return out

    def _plan_links(self):
        n, full = self.p.n, self.p.full
        everywhere: list[list[tuple]] = [[] for _ in range(n)]
        fixed, some = [], []
        for law in self.two:
            (r1, _), (r2, _) = law.reads
            for pre, cover, masks, _ in walk(self.e, law):
                first, other = pre[r1], pre[r2]
                if first == other:
                    t, link = first, sum([1 << a for a in range(n) if masks[a] >> a & 1])
                    if link == full:
                        continue
                elif first < other:
                    t, link = first, (other, masks, True)
                else:
                    t, link = other, (first, masks, False)
                if cover != full:
                    some.append((cover, t, link))
                elif type(link) is int:
                    fixed.append((t, link))
                else:
                    everywhere[t].append(link)
        return everywhere, fixed, some


def prefix_walk_columns(p: Poset, system: str, sel: LocalSelection | None = None) -> list[tuple]:
    """Per column: its rows, masks and links, as PrefixWalkColumns gives them."""
    cols = PrefixWalkColumns(p, system, sel)
    out = []
    for c in range(p.n):
        dom = cols.cells(c)
        out.append((cols.rows(c), dom, cols.links(c, dom)))
    return out


def models_are(columns: list[tuple], table, firsts: dict) -> bool:
    """enumeration.system_models_are's answer read off prefix_walk_columns;
    `firsts` keeps each column's first two solutions (None where there are
    fewer), searched on the first read, for the next table."""
    for c, (rows, dom, links) in enumerate(columns):
        if c not in firsts:
            found = (_column_search(rows, dom, links, [SEARCH_BUDGET], _product_start(rows, links))
                     if all(dom[r] for r in rows) else iter(()))
            firsts[c] = next(found, None), next(found, None)
        first, second = firsts[c]
        if first is None:
            return table is None
        if table is not None and (first != tuple([table.cells[r][c] for r in rows]) or second is not None):
            return False
    return table is not None


def column_search(rows, dom: list[int], links: list[list[tuple]], spare: list[int]):
    """Every vector over rows, values ascending row by row, that takes each
    row's value from its mask; assigning a row narrows the later rows linked
    to it, and an empty mask ends that branch.  spare[0] counts down the
    values tried that no solution pays for (each solution pays for one per
    row); SizeCap once it is spent."""
    vals = [0] * len(dom)
    depth = len(rows)

    def rec(i, dom):
        if i == depth:
            spare[0] += depth
            yield tuple([vals[r] for r in rows])
            return
        k = rows[i]
        out = links[k]
        for v in members(dom[k]):
            spare[0] -= 1
            if spare[0] < 0:
                raise SizeCap(f"the column search tried {SEARCH_BUDGET} values that lead to no solution")
            narrowed = _narrowed(dom, out, v) if out else dom
            if narrowed is not None:
                vals[k] = v
                yield from rec(i + 1, narrowed)

    return rec(0, dom)
