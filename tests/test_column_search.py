"""The column search against its row-by-row oracle, and the solution check
against its generator-expression oracle.

enumeration._column_search walks a column's free rows (those after its last
row linked to a later one) as one product; solver_oracle.column_search walks
every row in a generator frame of its own.  Both must give the same
solutions, in the same order, the same spare budget after each solution,
and the same SizeCap at the same point, on:

- every column of every system (NATI under the union and the Frink
  selection) on every class with up to 6 elements, unforced and forced to
  the star table, with the budgets SEARCH_BUDGET, 40, 9, 5, 3, 2, 1 and 0
  (SEARCH_BUDGET and 3 at n = 6).  Each search is compared over its first
  CLASS_LIMIT solutions: unforced NRMW columns at n = 6 hold 6^6 each;
- the hexagon's ESP stream, every column in full (the last holds 7776);
- hand-built columns with free tails of 2 to 5 rows after up to 3 linked
  rows, some free rows empty, over every budget up to the one the search
  needs, and with the spare cut after each solution, as another column
  reading the same budget between two solutions would cut it.
"""

import itertools
import random

import pytest

import solver_oracle
from solver_cases import cases, selections
from spposet import star_table
from spposet import enumeration
from spposet.axioms import SYSTEMS
from spposet.enumeration import SEARCH_BUDGET, _Columns, _column_search, _product_start, enumerate_posets
from spposet.errors import SizeCap
from spposet.pseudo import MissingWitness

CLASS_LIMIT = 100


def trace(search, spare, limit=None, cut=None):
    """The solutions of search, each with spare[0] after it, and
    ("SizeCap", spare[0]) if it stops there; with `cut`, spare[0] is set to
    cut[1] after solution cut[0] (counted from 0)."""
    out = []
    try:
        for i, sol in enumerate(itertools.islice(search, limit)):
            out.append((sol, spare[0]))
            if cut is not None and i == cut[0]:
                spare[0] = cut[1]
    except SizeCap:
        out.append(("SizeCap", spare[0]))
    return out


def both(rows, dom, links, start, budget, limit=None, cut=None):
    """The traces of the product search and of the row-by-row oracle."""
    got = trace(_column_search(rows, dom[:], links, spare := [budget], start), spare, limit, cut)
    want = trace(solver_oracle.column_search(rows, dom[:], links, spare := [budget]), spare, limit, cut)
    return got, want


def columns(p, system, sel, star):
    """Per column of the system on p: its rows, masks, links and product
    start as the kept set-up gives them, unforced and, for a total system on
    a poset with a star table, forced to it."""
    cols = _Columns(p, system, sel)
    forced = SYSTEMS[system]["kind"] == "total" and not isinstance(star, MissingWitness)
    for c in range(p.n):
        rows = cols.rows(c)
        dom, links = cols.column(c)
        start = cols.setup.column(cols.e, c)[2]
        assert start == _product_start(rows, links)
        yield rows, dom, links, start
        if forced:
            pinned = dom[:]
            for r in range(p.n):
                if p.leq_ix(c, r):
                    pinned[r] &= 1 << star.cells[r][c]
            yield rows, pinned, links, start


def test_the_product_search_matches_the_row_walk_on_classes():
    compared = tails = caps = 0
    for n in range(1, 7):
        budgets = [SEARCH_BUDGET, 40, 9, 5, 3, 2, 1, 0] if n < 6 else [SEARCH_BUDGET, 3]
        for p in enumerate_posets(n, "up-to-iso"):
            star = star_table(p)
            for system, sel in cases(p, selections(p)):
                for rows, dom, links, start in columns(p, system, sel, star):
                    if not all(dom[r] for r in rows):
                        continue
                    tails += start < len(rows)
                    for budget in budgets:
                        got, want = both(rows, dom, links, start, budget, CLASS_LIMIT)
                        assert got == want, (p.name, system, sel and sel.kind, rows, budget)
                        compared += 1
                        caps += want[-1:] == [("SizeCap", -1)]
    # the product is entered, and budgets run out, on most of these columns
    assert compared > 60_000 and tails > 5_000 and caps > 20_000


def test_the_hexagon_esp_stream_matches_the_row_walk_in_full(hexagon):
    star = star_table(hexagon)
    sizes = []
    for rows, dom, links, start in itertools.islice(columns(hexagon, "ESP", None, star), 1, None, 2):
        got, want = both(rows, dom, links, start, SEARCH_BUDGET)
        assert got == want
        sizes.append(len(want))
    assert sizes[-1] == 7776


def _hand_built(rng):
    """A column over rows 0..n-1 with 0 to 3 linked rows, then 2 to 5 free
    rows, each row allowing 1 to 3 values: each linked row links to one or
    two later rows, the last one always to some row, and about one column
    in five has a free row left empty."""
    linked, free = rng.randint(0, 3), rng.randint(2, 5)
    n = linked + free
    rows = tuple(range(n))
    dom = [sum(1 << v for v in rng.sample(rows, rng.randint(1, min(3, n)))) for _ in rows]
    links = [[] for _ in rows]
    for t in range(linked):
        for _ in range(rng.randint(1 if t == linked - 1 else 0, 2)):
            k = rng.randint(t + 1, n - 1)
            masks = tuple(rng.randint(0, (1 << n) - 1) for _ in range(n))
            links[t].append((k, masks, rng.random() < 0.5))
    if rng.random() < 0.2:
        dom[rng.randint(linked, n - 1)] = 0
    return rows, dom, [tuple(row) for row in links], linked


def test_the_product_search_matches_the_row_walk_on_hand_built_columns():
    rng = random.Random(25)
    compared = 0
    for _ in range(300):
        rows, dom, links, linked = _hand_built(rng)
        assert _product_start(rows, links) == linked
        budget = 0
        while True:
            got, want = both(rows, dom, links, linked, budget)
            assert got == want, (rows, dom, links, budget)
            compared += 1
            if want[-1:] != [("SizeCap", -1)]:
                break
            budget += 1
        for i, (sol, spare) in enumerate(want[:6]):
            for cut in range(len(rows) + 1):
                got, again = both(rows, dom, links, linked, budget, i + 20, (i, cut))
                assert got == again, (rows, dom, links, budget, i, cut)
                compared += 1
    assert compared > 3000


def test_a_budget_runs_out_on_a_product_step():
    # row 0 tries 0, which empties row 1, then 1: the free rows 1-3 are entered
    # with two values tried, and their first product step tries three more
    rows, dom = (0, 1, 2, 3), [0b11, 0b11, 0b11, 0b11]
    links = [((1, (0b00, 0b11, 0, 0), True),), (), (), ()]
    assert _product_start(rows, links) == 1
    for budget, first in [(4, ("SizeCap", -1)), (5, ((1, 0, 0, 0), 5 - 5 + 4))]:
        got, want = both(rows, dom, links, 1, budget)
        assert got == want and want[0] == first
    # a product of rows 0-2 steps from prefix (0, 1) to (1, 0) by trying three
    # values, and from (0, 0) to (0, 1) by trying two: a spare of 2 is spent
    # on the first step and not on the second
    rows, dom, links = (0, 1, 2), [0b11] * 3, [()] * 3
    for cut, stop in [(1, 4), (3, 4)]:
        got, want = both(rows, dom, links, 0, 3, cut=(cut, 2))
        assert got == want
        assert (want[stop][0] == "SizeCap") == (cut == 3)


def test_a_single_free_row_is_walked_row_by_row(monkeypatch):
    def no_product(*lists):
        raise AssertionError("a product over a single free row")

    monkeypatch.setattr(enumeration.itertools, "product", no_product)
    rows, dom = (0, 1), [0b11, 0b11]
    links = [((1, (0b01, 0b11), True),), ()]
    assert _product_start(rows, links) == 2
    got, want = both(rows, dom, links, 2, SEARCH_BUDGET)
    assert got == want and [sol for sol, _ in want] == [(0, 0), (1, 0), (1, 1)]


# -- the solution check -----------------------------------------------------------------------


def checked(n, sols):
    """enumeration._checked as it was, one generator expression per solution:
    the oracle of its int test and set test."""
    for sol in sols:
        if len(sol) != n:
            raise ValueError(f"table must be {n}x{n}")
        if not all(isinstance(v, int) and 0 <= v < n for v in sol):
            raise ValueError("total table must map every pair to an element")
        yield sol


def outcome(check, n, sol):
    try:
        return list(check(n, [sol]))
    except ValueError as exc:
        return str(exc)


class Element(int):
    """An int subclass: isinstance(v, int) holds, so the check accepts it in range."""


@pytest.mark.parametrize("sol", [
    (0, 1, 2), (2, 2, 2), (True, False, 2), (0, 1), (0, 1, 2, 0), (), (-1, 0, 1), (0, 3, 1),
    (0, 1.0, 2), (None, 0, 1), (0, 1, True), (0, 2, "1"), (Element(2), 0, 1), (Element(3), 0, 1),
    (0, 2 ** 70, 1), (0, 2.0 ** 70, 1),
], ids=repr)
def test_the_solution_check_matches_its_oracle(sol):
    assert outcome(enumeration._checked, 3, sol) == outcome(checked, 3, sol)
