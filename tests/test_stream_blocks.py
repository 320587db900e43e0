"""The extension stream read as blocks, against the stream read one solution
at a time; the budget a free tail pays at once; and the block check.

enumeration._product_tables reads each column as blocks (_column_blocks): a
solution reached row by row, or a free tail that holds the product of its
rows' values.  The first pass pays a free tail of the pass column whole
(_tail_payment) and builds its tables through one iterator.
stream_oracle.product_tables reads the same columns one solution at a time
(_Columns.solutions) and pays each solution as it is reached.  Both must give
the same tables in the same order and raise SizeCap before the same table.
The budget is compared where the block stream next writes it: between two
writes its spare[0] stays as it is, and after each table it equals the
oracle's after the last table before that next write.  The streams are
every total system (NATI under both selections) on the corpus, declared
forward and reversed, and on every class with up to 5 elements, under the
budgets SEARCH_BUDGET, 40, 9, 3 and 1; and hand-built columns of blocks
read at a cost, under every budget from 0 to 29.
"""

import itertools
import random

import pytest

import stream_oracle
from conftest import corpus_posets, relabeled
from spposet import build_poset, selection_frink, selection_union, star_table
from spposet import enumeration
from spposet.axioms import SYSTEMS
from spposet.enumeration import (
    SEARCH_BUDGET,
    _checked,
    _checked_blocks,
    _product_tables,
    _product_tail,
    _tail_payment,
    enumerate_extensions,
    enumerate_posets,
)
from spposet.errors import SizeCap, SpposetError
from spposet.pseudo import MissingWitness

BUDGETS = (SEARCH_BUDGET, 40, 9, 3, 1)
CLASS_CAP = 300     # tables compared per stream on the classes
CORPUS_CAP = 16000  # past the second pass of every corpus stream's pass column


class Budget(list):
    """A search budget that counts the writes to it."""

    writes = 0

    def __setitem__(self, i, v):
        self.writes += 1
        super().__setitem__(i, v)


def streams(posets):
    """(star table, system, selection) for every total system on each poset
    with a star table, NATI under both built-in selections."""
    for p in posets:
        st = star_table(p)
        if isinstance(st, MissingWitness):
            continue
        for system in sorted(s for s, spec in SYSTEMS.items() if spec["kind"] == "total"):
            for sel in [selection_frink(p), selection_union(p)] if system == "NATI" else [None]:
                yield st, system, sel


def oracle_trace(st, system, sel, cap):
    """Per table of the oracle stream, its cells and spare[0] after it; then
    ("SizeCap", spare[0]) if it raises."""
    try:
        cols = enumeration._Columns(st.owner, system, sel)
    except SpposetError:
        return None
    n, out = st.owner.n, []
    stream = stream_oracle.product_tables(st.owner, [_checked(n, cols.solutions(c, st)) for c in range(n)])
    try:
        for t in itertools.islice(stream, cap):
            out.append((t.cells, cols.spare[0]))
    except SizeCap:
        out.append(("SizeCap", cols.spare[0]))
    return out


def block_trace(st, system, sel, cap):
    """oracle_trace of enumerate_extensions, each spare[0] with the count of
    writes to the budget so far."""
    made = []

    class Logged(enumeration._Columns):
        def __init__(self, *args):
            super().__init__(*args)
            self.spare = Budget(self.spare)
            made.append(self)

    out = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(enumeration, "_Columns", Logged)
        try:
            for t in itertools.islice(enumerate_extensions(st, system, sel), cap):
                spare = made[0].spare
                out.append((t.cells, spare[0], spare.writes))
        except SizeCap:
            out.append(("SizeCap", made[0].spare[0], None))
    return out


def assert_same_stream(st, system, sel, cap):
    """The tables, SizeCap and spare of both streams agree; the oracle's
    trace, or None where the system does not apply."""
    want = oracle_trace(st, system, sel, cap)
    if want is None:
        return None
    got = block_trace(st, system, sel, cap)
    assert_same_trace(got, want, cap, (st.owner.name, system, sel and sel.kind, enumeration.SEARCH_BUDGET))
    return want


def assert_same_trace(got, want, cap, where):
    """The block stream's trace `got` against the oracle's `want`: the same
    tables and SizeCap, and after each table the oracle's spare after the
    last table before the block stream next writes the budget.  A stream
    cut at the cap may stop inside a block paid whole, and its last tables
    are not compared by spare."""
    assert [cells for cells, *_ in got] == [cells for cells, _ in want], where
    last = None if len(got) == cap else len(got) - 1
    for k in range(len(got) - 1, -1, -1):
        if k + 1 < len(got) and got[k + 1][2] != got[k][2]:
            last = k
        if last is not None:
            assert got[k][1] == want[last][1], (where, k, last)


def reversed_corpus():
    return [relabeled(p, range(p.n - 1, -1, -1)) for p in corpus_posets()]


@pytest.mark.parametrize("budget", BUDGETS)
def test_the_block_stream_matches_the_solution_stream_on_the_corpus(budget, monkeypatch):
    # a smaller budget runs out in the first tables, or not at all
    monkeypatch.setattr(enumeration, "SEARCH_BUDGET", budget)
    cap = CORPUS_CAP if budget == SEARCH_BUDGET else 2000
    traces = [assert_same_stream(st, system, sel, cap)
              for st, system, sel in streams(list(corpus_posets()) + reversed_corpus())]
    traces = [trace for trace in traces if trace is not None]
    capped = sum(trace[-1:] != [] and trace[-1][0] == "SizeCap" for trace in traces)
    if budget == SEARCH_BUDGET:
        assert capped == 0 and sum(map(len, traces)) > 10 * cap
    elif budget < 10:
        assert capped > 0


@pytest.mark.parametrize("budget", BUDGETS)
def test_the_block_stream_matches_the_solution_stream_on_classes(budget, monkeypatch):
    monkeypatch.setattr(enumeration, "SEARCH_BUDGET", budget)
    classes = [p for n in range(1, 6) for p in enumerate_posets(n, "up-to-iso")]
    compared = [assert_same_stream(st, system, sel, CLASS_CAP) for st, system, sel in streams(classes)]
    assert sum(trace is not None for trace in compared) > 300


def spending(blocks, cost, n, spare):
    """The column blocks `blocks`, each read as a column search reads it: it
    tries `cost` values first, SizeCap once the budget is spent, and a
    solution reached row by row pays for n of them."""
    for block in [*blocks, None]:
        spare[0] -= cost
        if spare[0] < 0:
            raise enumeration._spent(spare)
        if block is None:
            return
        if not block[1]:
            spare[0] += n
        yield block


def expanded(blocks, n, spare):
    """The solutions of the blocks, one at a time, as _Columns.solutions walks them."""
    for head, lists in blocks:
        yield from _product_tail(head, lists, n, spare) if lists else [head]


def hand_built(rng):
    """An antichain and per column 1 to 3 blocks, each a solution or a free
    tail (a value in each of 0 to n - 2 rows, then 1 to 3 values in each
    later row, two in some), with the values a search tries before each (0
    to 2n)."""
    n = rng.randint(3, 5)
    cols = []
    for _ in range(n):
        blocks = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                blocks.append((tuple(rng.randrange(n) for _ in range(n)), ()))
            else:
                head = tuple(rng.randrange(n) for _ in range(rng.randint(0, n - 2)))
                lists = [tuple(sorted(rng.sample(range(n), rng.randint(1, 3)))) for _ in range(n - len(head))]
                lists[rng.randrange(len(lists))] = (0, 1)
                blocks.append((head, lists))
        cols.append((blocks, rng.randint(0, 2 * n)))
    return antichain(n), cols


def test_the_block_stream_matches_the_solution_stream_on_hand_built_columns():
    # budgets from 0 up, so that SizeCap comes at every point of the streams:
    # in a search, before a free tail of the first pass or the rest of its
    # first block, and between later passes
    rng = random.Random(3202)
    capped_inside = 0
    for _ in range(100):
        p, cols = hand_built(rng)
        n = p.n
        for budget in range(0, 30):
            spare = [budget]
            want = []
            try:
                for t in itertools.islice(
                        stream_oracle.product_tables(p, [expanded(spending(b, cost, n, spare), n, spare)
                                                         for b, cost in cols]), 500):
                    want.append((t.cells, spare[0]))
            except SizeCap:
                want.append(("SizeCap", spare[0]))
            spare = Budget([budget])
            got = []
            try:
                for t in itertools.islice(_product_tables(p, [spending(b, cost, n, spare) for b, cost in cols],
                                                          spare), 500):
                    got.append((t.cells, spare[0], spare.writes))
            except SizeCap:
                got.append(("SizeCap", spare[0], None))
            assert_same_trace(got, want, 500, (cols, budget))
            capped_inside += len(got) > 1 and got[-1][0] == "SizeCap"
    assert capped_inside > 100


# -- the budget of a free tail ---------------------------------------------------------


def walked(head, lists, spare):
    """The solutions a full walk of the tail yields, and spare[0] after it."""
    sols = []
    try:
        for sol in _product_tail(head, lists, len(head) + len(lists), spare):
            sols.append(sol)
    except SizeCap:
        return sols, "SizeCap", spare[0]
    return sols, None, spare[0]


def test_a_tail_paid_whole_pays_what_its_walk_pays():
    rng = random.Random(32)
    for _ in range(500):
        head = tuple(rng.randrange(6) for _ in range(rng.randint(0, 3)))
        lists = [tuple(rng.sample(range(6), rng.randint(1, 4))) for _ in range(rng.randint(2, 5))]
        depth, m = len(head) + len(lists), len(lists)
        for start in range(m + 2):
            sols, raised, spare = walked(head, lists, [start])
            if start < m:  # the walk raises before its first solution
                assert (sols, raised, spare) == ([], "SizeCap", -1)
            else:
                assert raised is None and len(sols) == len(set(sols)) > 0
                assert spare - start == _tail_payment(lists, depth), (head, lists, start)


# -- the block check --------------------------------------------------------------------
# enumeration._checked checks each solution as the block (sol, ()), so
# test_column_search's oracle test of the solution check covers a block of
# one solution; a free tail's lists are checked here.


def antichain(n):
    return build_poset(f"A{n}", [str(i) for i in range(n)], [])


@pytest.mark.parametrize("bad,message", [
    (((0,), [(0, 1), (1, 3)]), "total table must map every pair to an element"),
    (((0,), [(0, 1), (1, 1.5)]), "total table must map every pair to an element"),
    (((0,), [(0, 1), ("1", 2)]), "total table must map every pair to an element"),
    (((0, 1), [(0, 1), (1, 2)]), "table must be 3x3"),
    (((), [(0, 1), (1, 2)]), "table must be 3x3"),
], ids=["out-of-range", "float", "str", "long", "short"])
def test_a_bad_tail_raises_before_any_table_of_its_block(bad, message):
    p = antichain(3)
    good = (0,), [(0, 1), (1, 2)]
    # the bad tail first in a column, after a solution in the pass column, and
    # in an earlier column, which the product steps to between later passes
    for cols, before in [([[((0, 0, 0), ())], [bad], [((1, 1, 1), ())]], 0),
                         ([[((0, 0, 0), ())], [((1, 1, 1), ())], [((2, 2, 2), ()), bad]], 1),
                         ([[((0, 0, 0), ()), bad], [((1, 1, 1), ())], [good]], 4)]:
        yielded = []
        with pytest.raises(ValueError, match=f"^{message}$"):
            for t in _product_tables(p, [_checked_blocks(3, col) for col in cols], [SEARCH_BUDGET]):
                yielded.append(t)
        assert len(yielded) == before
