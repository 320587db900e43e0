"""The product of column solutions when the pass column is not the last one.

enumeration._product_tables runs its passes over the rightmost column with
more than one solution, and holds every column after it, each of one
solution, as constants in the row templates.  These shapes put a long pass
column (more than n solutions, so that later passes are built as columns)
before several one-solution columns, and run test_product_tables' checks
on them: the tables in the order of itertools.product, each solution read
once, every column's first before the first table, and an error before any
table that holds it, also one raised in an earlier column while the product
steps it between later passes.
"""

import itertools

import pytest

from spposet.enumeration import _product_tables
from test_product_tables import Boom, Column, antichain, drained, solutions
from test_product_tables import test_an_error_surfaces_before_any_table_that_holds_it as errors_before_their_tables
from test_product_tables import test_the_product_reads_each_solution_once as product_order_and_reads


def shapes():
    """A long column, of n + 1 or n * n + 1 solutions, after short ones and
    before one to n - 2 columns of one solution, such as [2, n * n + 1, 1, 1]
    for n = 4; and a middle pass column of n solutions."""
    for n in range(3, 7):
        for size in (n + 1, n * n + 1):
            for ones in range(1, n - 1):
                yield n, ([2, 3] * n)[:n - 1 - ones] + [size] + [1] * ones
        yield n, [2, n] + [1] * (n - 2)


@pytest.mark.parametrize("n,sizes", list(shapes()))
def test_a_middle_pass_column_keeps_the_product_contract(n, sizes):
    product_order_and_reads(n, sizes)
    errors_before_their_tables(n, sizes)
    # the first pass reads the pass column one solution per table
    p, log, lists = antichain(n), [], solutions(n, sizes)
    drained(p, [Column(k, sols, log) for k, sols in enumerate(lists)], log)
    c = max(k for k, size in enumerate(sizes) if size > 1)
    assert log[n + 1:n - 1 + 2 * sizes[c]] == [e for i in range(1, sizes[c]) for e in ((c, i), ("table", i))]


def test_an_earlier_column_fails_between_later_passes():
    # [3, 2, 17, 1, 1] on 5 elements: column 2 is the pass column, its passes
    # of 17 tables are built as columns; column 0 fails at its second
    # solution, read when the product steps it after two full passes
    n, sizes = 5, [3, 2, 17, 1, 1]
    p, lists = antichain(n), solutions(n, sizes)
    log = []
    cols = [Column(c, s, log, 1 if c == 0 else None) for c, s in enumerate(lists)]
    tables = []
    with pytest.raises(Boom):
        for t in _product_tables(p, cols):
            tables.append(t.cells)
    assert len(tables) == 2 * 17
    assert tables == [tuple(zip(*pick)) for pick in itertools.product(*lists)][:2 * 17]
