"""The extension stream's product of column solutions as it was built one
solution at a time, kept as the oracle of enumeration._product_tables.

product_tables reads each column as a plain iterator of solutions (such as
_Columns.solutions, checked by enumeration._checked), keeps what it has read,
and runs its passes over the rightmost column with a second solution: the
first pass one solution per table, each later pass of more than n tables as
columns through n * n row templates, and a shorter one built whole.  Every
solution of a free tail is paid from the search budget as it is reached, so
the budget after each table is that of a row-by-row walk
(tests/test_stream_blocks.py compares it with the stream of blocks).
"""

import itertools
from operator import getitem

from spposet.pseudo import TotalTable


def product_tables(p, cols):
    """The cartesian product of the column solutions `cols` as total tables,
    in the order of itertools.product over their lists: rightmost column
    fastest.  Each column is read once, through one iterator: its first
    solution, in column order, before the first table, and each later one
    when the product first reaches it; what has been read is kept for the
    column's later passes.  An empty column ends the product.  Every
    solution must hold n ints in range(n).

    The passes run over the pass column, the rightmost column with a second
    solution: the product reads it one solution per table once every column
    after it has run out at its first, and those columns stay fixed.  In a
    pass all columns but the pass column are fixed, so row r of each table
    is one of n templates, row r of the fixed columns with each value in the
    pass column.  The first pass reads its column one solution at a time and
    builds its first n tables' rows whole, the rest from the templates, one
    table at a time.  A later pass of more than n tables is built as columns:
    the pass column's solutions are kept as one value tuple per row, each
    row maps its values through its templates, and one zip over the rows
    gives every table's cells.  The maps are lazy, so a pass builds no table
    that the stream does not yield.  A later pass of at most n tables builds
    each table's rows whole."""
    its, kept = [iter(col) for col in cols], []
    for it in its:
        if (sol := next(it, None)) is None:
            return
        kept.append([sol])
    # tables from templates are built inline: _from_checked_rows is an eighth of their cost
    n, make, new = len(kept), TotalTable._from_checked_rows, object.__new__
    pick, at = [sols[0] for sols in kept], [0] * n
    yield make(p, tuple(zip(*pick)))
    for c in range(n - 1, -1, -1):  # the first pass: every column after c has one solution
        last, rest = kept[c], its[c]
        for sol in itertools.islice(rest, n - 1):
            last.append(sol)
            pick[c] = sol
            yield make(p, tuple(zip(*pick)))
        templates = None
        for sol in rest:  # more than n: the rest of the first pass from the templates
            if templates is None:
                ends = [[(v,) + row[c + 1:] for v in range(n)] for row in zip(*pick)]
                templates = _templates(pick, c, ends)
            last.append(sol)
            t = new(TotalTable)
            t.owner, t.cells = p, tuple(map(getitem, templates, sol))
            yield t
        if len(last) > 1:
            break
    else:
        return
    values = list(zip(*last)) if len(last) > n else None
    while True:
        k = c - 1
        while k >= 0:  # the rightmost column with a next solution steps, those to its right start over
            sols, i = kept[k], at[k] + 1
            if i == len(sols) and (sol := next(its[k], None)) is not None:
                sols.append(sol)
            if i < len(sols):
                at[k], pick[k] = i, sols[i]
                break
            at[k], pick[k] = 0, sols[0]
            k -= 1
        if k < 0:
            return
        if values:
            rows = [map(row.__getitem__, vals) for row, vals in zip(_templates(pick, c, ends), values)]
            for cells in zip(*rows):
                t = new(TotalTable)
                t.owner, t.cells = p, cells
                yield t
        else:
            for sol in last:
                pick[c] = sol
                yield make(p, tuple(zip(*pick)))


def _templates(pick, c, ends):
    """Row r's n templates: row r of the columns before c followed by each
    of ends[r], the value v in column c and row r of the columns after it."""
    heads = zip(*pick[:c]) if c else itertools.repeat((), len(pick))
    return [[head + end for end in row_ends] for head, row_ends in zip(heads, ends)]
