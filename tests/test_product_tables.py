"""The product of column solutions as tables, read through instrumented columns.

enumeration._product_tables reads each column through one iterator and keeps
what it has read for the column's later passes.  Each column below logs every
solution it hands out and can raise at a given one, so the tests see when
each solution is read: each once, every column's first before the first
table, in column order, and an error before any table that would hold its
solution.  The tables come in the order of itertools.product over the lists.
A pass over a last column of more than n solutions shares its rows among its
tables, so the shapes include last columns of n + 1, 2n and n * n + 1
solutions, and a one-solution last column after a long earlier one.
"""

import itertools
import random

import pytest

from spposet import build_poset
from spposet.enumeration import _product_tables


class Boom(Exception):
    pass


class Column:
    """The solutions `sols` of column k, each logged as (k, i) when read;
    Boom in place of solution `fail_at`."""

    def __init__(self, k, sols, log, fail_at=None):
        self.k, self.sols, self.log, self.fail_at = k, sols, log, fail_at
        self.iterators = 0

    def __iter__(self):
        self.iterators += 1
        for i, sol in enumerate(self.sols):
            if i == self.fail_at:
                raise Boom(self.k, i)
            self.log.append((self.k, i))
            yield sol


def shapes():
    """Seeded column counts and sizes, with empty columns among them; and
    long last columns, or a long column before a last one of one solution,
    each at most n ** n long so that its solutions are distinct."""
    rng = random.Random(26)
    for n in range(1, 5):
        yield n, [1] * n
        yield n, [n] * n
        for _ in range(6):
            yield n, [rng.randint(0, n) for _ in range(n)]
    for n in range(2, 7):
        for size in (n + 1, 2 * n, n * n + 1):
            if size <= n ** n:
                yield n, [rng.randint(1, 3) for _ in range(n - 1)] + [size]
                yield n, [1] * (n - 2) + [size, 1]


def solutions(n, sizes):
    """Column k's solution i: row 0 holds i + k and row r > 0 holds i + k + r
    plus the r-th base-n digit of i, modulo n.  For i < n each row holds n
    distinct values, and for i < n ** n the solutions are distinct."""
    return [[tuple((i + k + r + (r and i // n ** r)) % n for r in range(n)) for i in range(size)]
            for k, size in enumerate(sizes)]


def drained(p, cols, log):
    """The tables' cells in order, each logged as ("table", j) when it is yielded."""
    out = []
    for j, t in enumerate(_product_tables(p, cols)):
        log.append(("table", j))
        out.append(t.cells)
    return out


def antichain(n):
    return build_poset(f"A{n}", [str(i) for i in range(n)], [])


@pytest.mark.parametrize("n,sizes", list(shapes()))
def test_the_product_reads_each_solution_once(n, sizes):
    p, log, lists = antichain(n), [], solutions(n, sizes)
    cols = [Column(k, sols, log) for k, sols in enumerate(lists)]
    got = drained(p, cols, log)
    assert got == [tuple(zip(*pick)) for pick in itertools.product(*lists)]
    reads = [entry for entry in log if entry[0] != "table"]
    if got:
        # every solution once, and each column through one iterator
        assert sorted(reads) == [(k, i) for k, sols in enumerate(lists) for i in range(len(sols))]
        assert [col.iterators for col in cols] == [1] * n
        # the first solution of every column, in column order, before the first table
        assert log[:n + 1] == [(k, 0) for k in range(n)] + [("table", 0)]
    else:
        # the first solutions up to the first empty column, and nothing after it
        empty = sizes.index(0)
        assert reads == [(k, 0) for k in range(empty)]
        assert [col.iterators for col in cols] == [1] * (empty + 1) + [0] * (n - empty - 1)


@pytest.mark.parametrize("n,sizes", [s for s in shapes() if 0 not in s[1] and max(s[1]) > 1])
def test_an_error_surfaces_before_any_table_that_holds_it(n, sizes):
    p, lists = antichain(n), solutions(n, sizes)
    expected = list(itertools.product(*[range(len(sols)) for sols in lists]))
    for k, sols in enumerate(lists):
        for fail_at in range(len(sols)):
            log = []
            cols = [Column(c, s, log, fail_at if c == k else None) for c, s in enumerate(lists)]
            with pytest.raises(Boom):
                drained(p, cols, log)
            # the tables before the first one that holds the bad solution, and no more
            before = next(j for j, pick in enumerate(expected) if pick[k] == fail_at)
            tables = [entry for entry in log if entry[0] == "table"]
            assert len(tables) == before
            assert all((k, i) not in log for i in range(fail_at, len(sols)))
