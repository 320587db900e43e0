"""is_esp and T-RIGHT-IMPL read the law table, against the loops they replaced.

is_esp checks the law "esp" (y <= x: x -> y is the star value), and
T-RIGHT-IMPL reads the conclusions of the right- and left-implicative laws.
The oracles below are the earlier hand-written loops.  They are compared on
every class with up to 6 elements: for T-RIGHT-IMPL, the values of each cell
x -> y that the hypotheses accept and that the left-implicative law refuses,
and the check's result; for is_esp, the verdict and witness on the pure,
natural and normal tables and on seeded one-cell mutations of them.
"""

import random

from spposet import enumeration
from spposet import (
    MissingWitness,
    PartialTable,
    TotalTable,
    is_esp,
    natural_extension,
    pure_extension,
    star_table,
)
from spposet.axioms import LAWS, Verdict
from spposet.enumeration import Counterexample, _check_right_impl, _serialize, enumerate_posets
from spposet.poset import bits


def classes():
    return (p for n in range(1, 7) for p in enumerate_posets(n, "up-to-iso"))


def _outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # compared by type
        return type(exc)


# -- is_esp ------------------------------------------------------------------------


def oracle_is_esp(p, t):
    st = star_table(p)
    if isinstance(st, MissingWitness):
        return Verdict(False, (st.x, st.y))
    for x in range(p.n):
        for y in range(p.n):
            v = st.cells[x][y]
            if v is not None and v != t.cells[x][y]:
                return Verdict(False, (p.elements[x], p.elements[y]))
    return Verdict(True)


def _mutated(rng, t, count):
    p = t.owner
    for _ in range(count):
        cells = [list(row) for row in t.cells]
        x, y = rng.randrange(p.n), rng.randrange(p.n)
        cells[x][y] = rng.randrange(p.n)
        yield TotalTable(p, cells)


def test_is_esp_matches_the_pair_loop():
    rng = random.Random(26)
    seen = set()
    for p in classes():
        st = star_table(p)
        if isinstance(st, PartialTable):
            tables = [pure_extension(st), natural_extension(st)]
            if p.normal_table is not None:
                tables.append(p.normal_table)
        else:
            tables = [TotalTable(p, [[rng.randrange(p.n) for _ in range(p.n)] for _ in range(p.n)])]
        for t in [*tables, *(m for t in tables for m in _mutated(rng, t, 3))]:
            got = is_esp(p, t)
            assert got == oracle_is_esp(p, t), (p.name, t.cells)
            seen.add((isinstance(st, PartialTable), got.holds))
    # sp classes with tables that pass and fail, and classes without a star table
    assert seen == {(True, True), (True, False), (False, False)}


# -- T-RIGHT-IMPL ------------------------------------------------------------------


def oracle_right_impl_masks(p, x, y):
    """The values v >= y of x -> y that meet the hypotheses (the
    right-implicative law at that cell), split by the left-implicative law:
    those it accepts and those it refuses."""
    tops, below = p.tops, p.leq_ix(x, y)
    accepts = refuses = 0
    for v in bits(p.ups[y]):
        if (v == tops[y]) != below:
            continue
        if (v == tops[x]) != below:
            refuses |= 1 << v
        else:
            accepts |= 1 << v
    return accepts, refuses


def oracle_check_right_impl(p, complete=lambda p: pure_extension(star_table(p))):
    tops = p.tops
    for x in range(p.n):
        for y in range(p.n):
            for v in bits(p.ups[y]):
                if (v == tops[y]) != p.leq_ix(x, y):
                    continue
                if (v == tops[x]) != p.leq_ix(x, y):
                    cells = [list(r) for r in complete(p).cells]
                    cells[x][y] = v
                    t = TotalTable(p, cells)
                    return Counterexample(
                        _serialize(p, {"arrow": t}),
                        f"right-implicative table with y <= x->y is not left-implicative "
                        f"at ({p.elements[x]}, {p.elements[y]})")
    return None


def _projection(p):  # x -> y = y, a table on every poset
    return TotalTable(p, [list(range(p.n))] * p.n)


def test_right_impl_reads_the_values_the_loop_accepts_and_refuses(monkeypatch):
    refused = 0
    for p in classes():
        e, ups = p.laws, p.ups
        right = {pre: masks for pre, _, masks, _ in e.plan(LAWS["right-implicative"])}
        left = {pre: masks for pre, _, masks, _ in e.plan(LAWS["left-implicative"])}
        for x in range(p.n):
            for y in range(p.n):
                hyp = right[(x,)][y] & ups[y]
                got = hyp & left[(x,)][y], hyp & ~left[(x,)][y]
                assert got == oracle_right_impl_masks(p, x, y), (p.name, x, y)
                refused += got[1] != 0
        assert _outcome(_check_right_impl, p) == _outcome(oracle_check_right_impl, p), p.name
    # Some cells refuse a value, on classes that are not sectionally
    # pseudocomplemented, where completing the table with the pure extension
    # raises.  Completed with the projection instead, both name the same cell
    # and value.
    assert refused > 0
    monkeypatch.setattr(enumeration, "star_table", lambda p: p)
    monkeypatch.setattr(enumeration, "pure_extension", _projection)
    found = 0
    for p in classes():
        got = _check_right_impl(p)
        assert got == oracle_check_right_impl(p, _projection), p.name
        found += got is not None
    assert found > 0
